//! Serving baseline for the multi-tenant `fsda-serve` hot path: sustained
//! request throughput and latency with and without concurrent artifact
//! hot-swaps.
//!
//! Boots a [`fsda_serve::TenantServer`] with four tenants sharing one
//! fitted FS pipeline, then drives identical round-robin traffic through
//! two phases per repetition:
//!
//! - **steady** — requests only; no control-plane activity.
//! - **under_swap** — the same traffic, but every `swap_every`-th request
//!   is preceded by a hot-swap of the tenant about to be served.
//!
//! Swap artifacts are restored from persisted bytes *before* the measured
//! region — restore is control-plane work that a deployment does off the
//! hot path (see `docs/SERVING.md`) — so a measured swap is exactly what
//! the server promises: one atomic pointer publish, one epoch advance, and
//! the drain of already-idle retirees. The headline claim this bench
//! regression-gates is that hot-swaps are invisible to request latency:
//! p99 under swaps must stay within 10% of swap-free p99.
//!
//! Phases are interleaved and repeated, and per-phase p50/p99 are computed
//! over the pooled latencies of all repetitions, so transient host noise
//! (scheduler, thermal) lands in both pools alike and cancels in the
//! gated ratio. Writes `BENCH_serving.json` at the repository root, then
//! gates its own results (see [`swap_gate`]) and exits non-zero on a
//! violation.
//!
//! Two workload sources:
//!
//! - default — the 5GC SCM generator ([`Synth5gc`]), as before;
//! - `--scenario [SPEC]` — a drift scenario (`fsda_data::scenario`): the
//!   pipeline is fitted on the scenario's source/shots split and the
//!   request batch interleaves rows from every drift window of the
//!   schedule, so the measured traffic spans the whole drift trajectory
//!   instead of one fixed target domain. `SPEC` is an optional path to a
//!   scenario DSL file; without it a built-in gradual-drift spec is used.
//!
//! `cargo run -p fsda-bench --release --bin serving_baseline [-- --quick] [--scenario [SPEC]]`

use fsda_bench::harness::{enforce, has_flag, Json};
use fsda_bench::json_record;
use fsda_core::adapter::AdapterConfig;
use fsda_core::pipeline::{restore, DriftMitigator};
use fsda_core::Method;
use fsda_data::fewshot::few_shot_subset;
use fsda_data::scenario::{ScenarioSpec, Schedule};
use fsda_data::synth5gc::Synth5gc;
use fsda_data::Dataset;
use fsda_linalg::{Matrix, SeededRng};
use fsda_serve::server::{ServeConfig, TenantServer};
use fsda_serve::TenantStats;
use std::collections::VecDeque;
use std::time::Instant;

const TENANTS: usize = 4;
const BATCH_ROWS: usize = 64;
const TARGET_MAX_P99_RATIO: f64 = 1.10;

struct RunShape {
    mode: &'static str,
    reps: usize,
    requests_per_rep: usize,
    swap_every: usize,
}

impl RunShape {
    fn swaps_per_rep(&self) -> usize {
        self.requests_per_rep / self.swap_every
    }
}

/// One measured phase: per-request latencies plus the wall-clock of the
/// whole request loop.
struct PhaseSample {
    latencies_s: Vec<f64>,
    elapsed_s: f64,
}

json_record! {
    /// Pooled aggregate over all of one phase's repetitions.
    struct PhaseSummary {
        requests: usize,
        swaps: usize,
        req_per_sec: f64,
        p50_ms: f64,
        p99_ms: f64,
        mean_ms: f64,
    }
}

/// Nearest-rank percentile on an unsorted sample (copied, then sorted).
fn percentile_ms(latencies_s: &[f64], p: f64) -> f64 {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx] * 1e3
}

/// Pools every repetition's latencies into one sample before taking
/// percentiles. Reps are interleaved steady/under-swap, so transient host
/// noise (scheduler, thermal) lands in both pools alike and cancels in
/// the ratio — per-rep p99 on a small host is just the third-worst
/// latency of that rep, far too noisy to gate on.
fn summarize(samples: &[PhaseSample], swaps: usize) -> PhaseSummary {
    let pooled: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.latencies_s.iter())
        .copied()
        .collect();
    let elapsed: f64 = samples.iter().map(|s| s.elapsed_s).sum();
    PhaseSummary {
        requests: pooled.len(),
        swaps,
        req_per_sec: pooled.len() as f64 / elapsed.max(1e-12),
        p50_ms: percentile_ms(&pooled, 50.0),
        p99_ms: percentile_ms(&pooled, 99.0),
        mean_ms: pooled.iter().sum::<f64>() / pooled.len().max(1) as f64 * 1e3,
    }
}

/// Drives `requests` round-robin batches through the server, swapping the
/// next tenant's artifact every `swap_every` requests when a swap queue is
/// supplied. Returns per-request latencies; panics on any shed or failed
/// request — the driver is single-threaded and blocking, so admission
/// control must never fire.
fn drive(
    server: &TenantServer,
    tenants: &[String],
    batch: &Matrix,
    requests: usize,
    swaps: Option<(&mut VecDeque<Box<dyn DriftMitigator>>, usize)>,
) -> PhaseSample {
    let mut swaps = swaps;
    let mut latencies_s = Vec::with_capacity(requests);
    let phase_start = Instant::now();
    for r in 0..requests {
        let tenant = &tenants[r % tenants.len()];
        if let Some((queue, every)) = swaps.as_mut() {
            if r % *every == 0 {
                if let Some(artifact) = queue.pop_front() {
                    server.swap(tenant, artifact).expect("hot-swap");
                }
            }
        }
        let start = Instant::now();
        let resp = server.predict(tenant, batch.clone()).expect("request");
        latencies_s.push(start.elapsed().as_secs_f64());
        assert_eq!(resp.predictions.len(), batch.rows());
    }
    PhaseSample {
        latencies_s,
        elapsed_s: phase_start.elapsed().as_secs_f64(),
    }
}

/// One resolved traffic source: training split for the shared pipeline
/// plus the fixed request batch every measured request replays.
struct Workload {
    label: String,
    source_train: Dataset,
    shots: Dataset,
    batch: Matrix,
}

/// The classic workload: 5GC SCM bundle, batch drawn from the target
/// test split.
fn synth5gc_workload() -> Workload {
    let bundle = Synth5gc::small().generate(42).expect("5GC bundle");
    let mut rng = SeededRng::new(43);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).expect("shots");
    let row_idx: Vec<usize> = (0..BATCH_ROWS)
        .map(|r| r % bundle.target_test.features().rows())
        .collect();
    let batch = bundle.target_test.features().select_rows(&row_idx);
    Workload {
        label: "synth5gc".to_string(),
        source_train: bundle.source_train,
        shots,
        batch,
    }
}

/// Scenario workload: compiles a drift scenario spec (from `path`, or a
/// built-in gradual-drift default) and builds the request batch by
/// interleaving rows from every window of the drift schedule, so the
/// served traffic walks the whole source→target trajectory.
fn scenario_workload(path: Option<&str>) -> Workload {
    let (label, spec) = match path {
        Some(p) => {
            let text = std::fs::read_to_string(p).expect("read scenario spec");
            let spec = ScenarioSpec::parse(&text).expect("parse scenario spec");
            (format!("scenario:{p}"), spec)
        }
        None => (
            "scenario:builtin-gradual".to_string(),
            ScenarioSpec::default()
                .with_schedule(Schedule::Gradual { windows: 4 })
                .with_seed(42),
        ),
    };
    let compiled = spec.compile().expect("compile scenario");
    let data = compiled.generate(None).expect("generate scenario");
    let mut rng = SeededRng::new(43);
    let shots = few_shot_subset(&data.target_pool, compiled.spec().shots, &mut rng).expect("shots");
    let windows: Vec<Dataset> = (0..compiled.window_fractions().len())
        .map(|w| {
            compiled
                .generate_window(w, BATCH_ROWS, None)
                .expect("generate window")
        })
        .collect();
    let rows: Vec<&[f64]> = (0..BATCH_ROWS)
        .map(|r| windows[r % windows.len()].features().row(r / windows.len()))
        .collect();
    let batch = Matrix::from_rows(&rows);
    Workload {
        label,
        source_train: data.source_train,
        shots,
        batch,
    }
}

/// The CI gate on the bench's results. Failure texts are the contract CI
/// logs show.
fn swap_gate(swaps: usize, p99_ratio: f64) -> Result<(), String> {
    if swaps < 10 {
        return Err("benchmark must exercise at least 10 hot-swaps".into());
    }
    if !(..=TARGET_MAX_P99_RATIO).contains(&p99_ratio) {
        return Err(format!(
            "p99 under swaps regressed: ratio {p99_ratio:.3} exceeds {TARGET_MAX_P99_RATIO:?}"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag("--quick");
    let scenario = args.iter().position(|a| a == "--scenario").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(String::as_str)
    });
    let shape = if quick {
        RunShape {
            mode: "quick",
            reps: 2,
            requests_per_rep: 96,
            swap_every: 12,
        }
    } else {
        RunShape {
            mode: "full",
            reps: 5,
            requests_per_rep: 256,
            swap_every: 16,
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = match scenario {
        Some(path) => scenario_workload(path),
        None => synth5gc_workload(),
    };
    println!(
        "serving_baseline ({}): host parallelism {cores} core(s), \
         {} tenants, {} reps x {} requests, swap every {}, workload {}\n",
        shape.mode, TENANTS, shape.reps, shape.requests_per_rep, shape.swap_every, workload.label
    );

    // One fitted FS pipeline feeds every tenant: this bench measures the
    // serving fabric, not per-tenant model variance, and one fit keeps the
    // setup phase tractable.
    let fit_start = Instant::now();
    let mut fitted = Method::Fs.build(&AdapterConfig::quick(), 44);
    fitted
        .fit(&workload.source_train, &workload.shots)
        .expect("FS fit");
    let bytes = fitted.to_bytes().expect("persist");
    println!(
        "fitted the shared {} pipeline in {:.1}s ({} artifact bytes)",
        fitted.method(),
        fit_start.elapsed().as_secs_f64(),
        bytes.len()
    );

    // Control-plane staging, all off the measured path: boot artifacts and
    // every swap artifact are restored before any request is timed.
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("bench-{i}")).collect();
    let boot = tenants
        .iter()
        .map(|t| (t.clone(), restore(&bytes).expect("restore boot artifact")))
        .collect();
    let total_swaps = shape.reps * shape.swaps_per_rep();
    let stage_start = Instant::now();
    let mut staged: VecDeque<Box<dyn DriftMitigator>> = (0..total_swaps)
        .map(|_| restore(&bytes).expect("restore swap artifact"))
        .collect();
    println!(
        "pre-staged {total_swaps} swap artifacts in {:.2}s (restore runs \
         off the hot path)\n",
        stage_start.elapsed().as_secs_f64()
    );

    let server = TenantServer::from_artifacts(boot, ServeConfig::default()).expect("tenant server");
    let shards = server.shards();
    let batch = workload.batch;

    // Warm-up, then interleave steady / under-swap reps so host drift
    // (thermal, scheduler) hits both phases alike.
    let _ = drive(&server, &tenants, &batch, 32, None);
    let mut steady_samples = Vec::new();
    let mut swap_samples = Vec::new();
    println!(
        "{:>4} {:>11} {:>13} {:>13} {:>13} {:>13}",
        "rep", "phase", "req/s", "p50 (ms)", "p99 (ms)", "swaps"
    );
    for rep in 0..shape.reps {
        for steady in [true, false] {
            let swaps_before = staged.len();
            let sample = if steady {
                drive(&server, &tenants, &batch, shape.requests_per_rep, None)
            } else {
                drive(
                    &server,
                    &tenants,
                    &batch,
                    shape.requests_per_rep,
                    Some((&mut staged, shape.swap_every)),
                )
            };
            println!(
                "{:>4} {:>11} {:>13.0} {:>13.4} {:>13.4} {:>13}",
                rep,
                if steady { "steady" } else { "under-swap" },
                sample.latencies_s.len() as f64 / sample.elapsed_s.max(1e-12),
                percentile_ms(&sample.latencies_s, 50.0),
                percentile_ms(&sample.latencies_s, 99.0),
                swaps_before - staged.len(),
            );
            if steady {
                steady_samples.push(sample);
            } else {
                swap_samples.push(sample);
            }
        }
    }
    assert!(staged.is_empty(), "every staged swap artifact must be used");

    // The serving fabric must have stayed clean: nothing shed, nothing
    // failed, every swap accounted for.
    let stats: Vec<TenantStats> = tenants
        .iter()
        .map(|t| server.stats(t).expect("stats"))
        .collect();
    let swaps_performed: u64 = stats.iter().map(|s| s.swaps).sum();
    assert_eq!(swaps_performed, total_swaps as u64);
    for s in &stats {
        assert_eq!(
            s.rejected, 0,
            "{}: blocking driver must never shed",
            s.tenant
        );
        assert_eq!(s.serve_errors, 0, "{}: no request may fail", s.tenant);
    }
    server.shutdown();

    let steady = summarize(&steady_samples, 0);
    let under_swap = summarize(&swap_samples, total_swaps);
    let p99_ratio = under_swap.p99_ms / steady.p99_ms.max(1e-12);
    println!(
        "\nsteady p99 {:.4} ms, under-swap p99 {:.4} ms, ratio {:.3} \
         (target <= {TARGET_MAX_P99_RATIO})",
        steady.p99_ms, under_swap.p99_ms, p99_ratio
    );

    Json::object()
        .field("host_parallelism", cores)
        .field("mode", shape.mode)
        .field("workload", workload.label)
        .field("tenants", TENANTS)
        .field("shards", shards)
        .field("batch_rows", BATCH_ROWS)
        .field("reps", shape.reps)
        .field("requests_per_rep", shape.requests_per_rep)
        .field("swap_every", shape.swap_every)
        .field(
            "description",
            "multi-tenant TenantServer sustained serving: identical round-robin \
             traffic measured with no control-plane activity (steady) and with a \
             hot-swap before every swap_every-th request (under_swap); per-phase \
             p50/p99 are pooled over interleaved repetitions so host noise \
             cancels in the ratio",
        )
        .field(
            "note",
            "swap artifacts are restored from persisted bytes before the \
             measured region; a measured swap is the atomic pointer publish, the \
             epoch advance, and reclamation of drained retirees only",
        )
        .field("steady", &steady)
        .field("under_swap", &under_swap)
        .field(
            "swap_gate",
            Json::object()
                .field("p99_ratio", p99_ratio)
                .field("target_max_ratio", TARGET_MAX_P99_RATIO)
                .field("within_target", p99_ratio <= TARGET_MAX_P99_RATIO),
        )
        .write_bench("BENCH_serving.json");
    enforce(swap_gate(under_swap.swaps, p99_ratio));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_gate_passes_within_target_and_fails_beyond_it() {
        assert_eq!(swap_gate(16, 1.05), Ok(()));
        let slow = "p99 under swaps regressed: ratio 1.200 exceeds 1.1";
        assert_eq!(swap_gate(16, 1.2), Err(slow.into()));
        let nan = "p99 under swaps regressed: ratio NaN exceeds 1.1";
        assert_eq!(swap_gate(16, f64::NAN), Err(nan.into()));
        let few = "benchmark must exercise at least 10 hot-swaps";
        assert_eq!(swap_gate(9, 1.0), Err(few.into()));
    }
}
