//! Control-plane baseline for the closed-loop drift controller: the cost
//! of re-separation with and without the warm-start cache, and the
//! end-to-end detect → re-fit → validate → hot-swap latency through a
//! live [`fsda_serve::DriftController`].
//!
//! **Warm vs cold.** A cold re-fit re-runs the full F-node search: fit
//! the source normalizer, rebuild the (n_src + n_tgt) × d correlation
//! structure, then stage the CI tests. A warm re-fit reuses the
//! per-tenant [`fsda_core::fs::SeparationCache`] — source moments and
//! Gram matrix are fixed across re-fits, so only the few target shots are
//! folded in (O(n_tgt · d²) instead of O((n_src + n_tgt) · d²)) and the
//! staged search is seeded with the previous skeleton. The cache itself
//! is built once per tenant at boot, off the re-fit path, and is *not*
//! part of the measured warm time. The headline claim this bench
//! regression-gates: **warm re-separation costs at most half of a cold
//! search** on source-rich tenants (`max_warm_ratio <= 0.5`).
//!
//! **Detect → swap.** A controller supervising a stale tenant is fed a
//! drifted window; the recorded latency spans drift scoring, the few-shot
//! draw, the (warm) re-fit, the validation gate against the restored
//! incumbent, and the atomic hot-swap.
//!
//! Writes `BENCH_control.json` at the repository root, then gates its own
//! results (see [`warm_start_gate`]) and exits non-zero on a violation.
//!
//! `cargo run -p fsda-bench --release --bin control_baseline [-- --quick]`

use fsda_bench::harness::{enforce, has_flag, mean, Json};
use fsda_bench::json_record;
use fsda_core::adapter::AdapterConfig;
use fsda_core::drift::DriftConfig;
use fsda_core::fs::{FeatureSeparation, SearchPath, SeparationCache};
use fsda_core::{GuardConfig, Method, RetryPolicy};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::{Synth5gc, Synth5gcBundle};
use fsda_data::Dataset;
use fsda_linalg::SeededRng;
use fsda_serve::controller::{ControlOutcome, ControllerConfig, DriftController, RegistryRefitter};
use fsda_serve::server::{ServeConfig, TenantServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One separation workload: a named 5GC preset and how many shots per
/// class the re-fit draws.
struct Workload {
    name: &'static str,
    preset: Synth5gc,
    shots_per_class: usize,
}

json_record! {
    struct SeparationRow {
        name: &'static str,
        n_src: usize,
        n_shots: usize,
        features: usize,
        cold_ms: f64,
        warm_ms: f64,
        ratio: f64,
        partitions_agree: bool,
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn measure_separation(w: &Workload, reps: usize) -> SeparationRow {
    let bundle = w.preset.generate(17).expect("bundle");
    let config = AdapterConfig::quick();
    let mut rng = SeededRng::new(23);
    let shots = few_shot_subset(&bundle.target_pool, w.shots_per_class, &mut rng).expect("shots");

    // Boot-time, per-tenant work — excluded from both measured paths.
    let cache = SeparationCache::new(&bundle.source_train, &config.fs).expect("cache");
    let prev = FeatureSeparation::fit(&bundle.source_train, &shots, &config.fs)
        .expect("skeleton")
        .variant()
        .to_vec();

    let (cold_ms, cold) = best_of(reps, || {
        FeatureSeparation::fit(&bundle.source_train, &shots, &config.fs).expect("cold fit")
    });
    let (warm_ms, warm) = best_of(reps, || {
        let (sep, path) =
            FeatureSeparation::fit_warm(&cache, &shots, Some(&prev)).expect("warm fit");
        assert_eq!(path, SearchPath::Warm, "warm path must not fall back");
        sep
    });

    // The two paths run numerically different (but deterministic)
    // correlation builds; borderline features may flip. Record how far
    // apart the partitions landed rather than asserting equality.
    let sym_diff = cold
        .variant()
        .iter()
        .filter(|v| !warm.variant().contains(v))
        .count()
        + warm
            .variant()
            .iter()
            .filter(|v| !cold.variant().contains(v))
            .count();

    SeparationRow {
        name: w.name,
        n_src: bundle.source_train.len(),
        n_shots: shots.len(),
        features: bundle.source_train.num_features(),
        cold_ms,
        warm_ms,
        ratio: warm_ms / cold_ms.max(1e-12),
        partitions_agree: sym_diff <= 2,
    }
}

struct ControlRun {
    cycles: usize,
    swaps: usize,
    warm_swaps: usize,
    detect_to_swap_ms: Vec<f64>,
}

/// Runs `cycles` full detect → re-fit → validate → swap loops through a
/// live controller + server, alternating drifted windows with fresh
/// buffered pools so every cycle starts from a stale incumbent.
fn measure_control(bundle: &Synth5gcBundle, cycles: usize) -> ControlRun {
    let k = bundle.source_train.num_classes();
    let rotated = Dataset::new(
        bundle.source_train.features().clone(),
        bundle
            .source_train
            .labels()
            .iter()
            .map(|&y| (y + 1) % k)
            .collect(),
        k,
    )
    .expect("rotated");
    let mut incumbent = Method::SrcOnly.build(&AdapterConfig::quick(), 5);
    incumbent
        .try_fit(&rotated, &rotated, &GuardConfig::default())
        .expect("incumbent fit");
    let incumbent_bytes = incumbent.to_bytes().expect("incumbent bytes");
    let server = Arc::new(
        TenantServer::from_artifacts(vec![("slice-0".into(), incumbent)], ServeConfig::default())
            .expect("server"),
    );
    let refitter = Arc::new(
        RegistryRefitter::new(
            Method::Fs,
            AdapterConfig::quick(),
            GuardConfig::default(),
            &bundle.source_train,
        )
        .expect("refitter"),
    );
    let mut controller = DriftController::new(
        "slice-0",
        Arc::clone(&server),
        Arc::new(bundle.source_train.clone()),
        incumbent_bytes,
        refitter,
        ControllerConfig {
            drift: DriftConfig {
                z_threshold: 0.5,
                ks_threshold: 0.1,
                feature_fraction: 0.01,
                ..DriftConfig::default()
            },
            retry: RetryPolicy::immediate(2),
            attempt_deadline: Duration::from_secs(120),
            shots_per_class: 5,
            seed: 29,
            // Latency bench: the gate must not reject later cycles whose
            // candidates tie the (already re-fitted) incumbent — every
            // stage still runs and is measured.
            min_improvement: -1.0,
            ..ControllerConfig::default()
        },
    )
    .expect("controller");
    controller
        .push_window(bundle.target_pool.clone())
        .expect("pool");

    let mut run = ControlRun {
        cycles,
        swaps: 0,
        warm_swaps: 0,
        detect_to_swap_ms: Vec::new(),
    };
    for cycle in 0..cycles {
        match controller.observe(bundle.target_test.features()) {
            ControlOutcome::Swapped(swap) => {
                run.swaps += 1;
                if swap.path == SearchPath::Warm {
                    run.warm_swaps += 1;
                }
                run.detect_to_swap_ms
                    .push(swap.detect_to_swap.as_secs_f64() * 1e3);
            }
            other => panic!("control cycle {cycle} did not swap: {other:?}"),
        }
    }
    drop(server);
    run
}

const TARGET_MAX_RATIO: f64 = 0.5;

/// The CI gate on the bench's results. Failure texts are the contract CI
/// logs show.
fn warm_start_gate(workloads: usize, control: &ControlRun, max_ratio: f64) -> Result<(), String> {
    if workloads < 2 {
        return Err("bench must cover at least two separation workloads".into());
    }
    if control.swaps != control.cycles {
        return Err(format!(
            "control loop dropped cycles: {}/{} swapped",
            control.swaps, control.cycles
        ));
    }
    if control.warm_swaps < 1 {
        return Err("control loop never exercised the warm path".into());
    }
    if !(..=TARGET_MAX_RATIO).contains(&max_ratio) {
        return Err(format!(
            "warm re-separation regressed: ratio {max_ratio:.3} exceeds {TARGET_MAX_RATIO:?}"
        ));
    }
    Ok(())
}

fn main() {
    let quick = has_flag("--quick");
    let (reps, cycles) = if quick { (3, 2) } else { (5, 5) };

    // Source-rich presets: the warm cache amortizes the source side of
    // the correlation build, so its payoff scales with n_src.
    let workloads = [
        Workload {
            name: "paper_full",
            preset: Synth5gc::full(),
            shots_per_class: 5,
        },
        Workload {
            name: "source_rich",
            preset: Synth5gc {
                source_total: 8192,
                ..Synth5gc::full()
            },
            shots_per_class: 5,
        },
    ];

    let mut rows = Vec::new();
    for w in &workloads {
        let r = measure_separation(w, reps);
        println!(
            "{:>12}  n_src={:>5} d={:>3}  cold {:>8.2} ms  warm {:>8.2} ms  ratio {:.3}  agree={}",
            r.name, r.n_src, r.features, r.cold_ms, r.warm_ms, r.ratio, r.partitions_agree
        );
        rows.push(r);
    }
    let max_ratio = rows.iter().map(|r| r.ratio).fold(0.0f64, f64::max);

    let control_bundle = Synth5gc::small().generate(11).expect("control bundle");
    let control = measure_control(&control_bundle, cycles);
    let max_detect_to_swap = control
        .detect_to_swap_ms
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    println!(
        "control: {} cycles, {} swaps ({} warm), detect->swap mean {:.1} ms max {:.1} ms",
        control.cycles,
        control.swaps,
        control.warm_swaps,
        mean(&control.detect_to_swap_ms),
        max_detect_to_swap,
    );

    Json::object()
        .field("mode", if quick { "quick" } else { "full" })
        .field("reps", reps)
        .field("separation", rows.iter().map(Json::from).collect::<Json>())
        .field(
            "control",
            Json::object()
                .field("cycles", control.cycles)
                .field("swaps", control.swaps)
                .field("warm_swaps", control.warm_swaps)
                .field("detect_to_swap_ms_mean", mean(&control.detect_to_swap_ms))
                .field("detect_to_swap_ms_max", max_detect_to_swap),
        )
        .field(
            "summary",
            Json::object()
                .field("max_warm_ratio", max_ratio)
                .field("target_max_ratio", TARGET_MAX_RATIO),
        )
        .write_bench("BENCH_control.json");
    enforce(warm_start_gate(rows.len(), &control, max_ratio));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_gate_passes_a_healthy_run_and_fails_a_slow_warm_path() {
        let run = ControlRun {
            cycles: 2,
            swaps: 2,
            warm_swaps: 1,
            detect_to_swap_ms: vec![1.0, 1.0],
        };
        assert_eq!(warm_start_gate(2, &run, 0.05), Ok(()));
        let slow = "warm re-separation regressed: ratio 0.510 exceeds 0.5";
        assert_eq!(warm_start_gate(2, &run, 0.51), Err(slow.into()));
        let nan = "warm re-separation regressed: ratio NaN exceeds 0.5";
        assert_eq!(warm_start_gate(2, &run, f64::NAN), Err(nan.into()));
        let dropped = "control loop dropped cycles: 2/3 swapped";
        let run = ControlRun { cycles: 3, ..run };
        assert_eq!(warm_start_gate(2, &run, 0.05), Err(dropped.into()));
    }
}
