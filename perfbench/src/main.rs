//! End-to-end benchmark of FS+GAN through the serving and control planes.
//!
//! ```text
//! perfbench --workload <serve_mix|serve_during_refit> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on standard error and, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). See `README.md` next to this crate for the workloads
//! and what each metric means.

mod fleet;
mod load;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Report, Settings};

fn parse_args() -> Result<Settings, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s{} on {} core(s)",
        settings.workload,
        settings.seed,
        settings.seconds,
        if settings.traced { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = match workloads::run(&settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<38} {value:>14.4} {unit}");
    }
    eprintln!(
        "  attempted {}, failed {} (fail_frac {:.4})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    match json(&report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
