//! Performance baseline for the two serving-critical engines: the parallel
//! CI-testing causal search (§VI-D running-time regime) and the batched
//! GAN-reconstruction hot path.
//!
//! Runs the PC causal search over a grid of (features × samples × threads)
//! on block-correlated synthetic data, then times the FS+GAN adapter's
//! `reconstruct_batch_with` over a (batch × threads) grid, verifying every
//! run bit-identical to the single-threaded output. Writes both grids to `BENCH_runtime.json` at the
//! repository root, then gates its own results (see [`kernel_gate`] and
//! [`noop_telemetry_gate`]) and exits non-zero on a violation.
//!
//! `cargo run -p fsda-bench --release --bin perf_baseline`
//!
//! Speedup numbers are only meaningful when the host actually has the
//! cores a row asks for: thread counts above `host_parallelism` are
//! skipped up front and recorded in `skipped_thread_counts` — a
//! 2-thread run on a 1-core host measures scheduler overhead, not the
//! engine, so it never produces a row at all.
//!
//! A `telemetry_overhead` section times `predict_batch` three ways on
//! the same trained pipeline — direct inherent call (uninstrumented),
//! registry call with telemetry disabled (the no-op recorder path), and
//! registry call with an aggregating [`fsda_telemetry::InMemoryRecorder`]
//! installed — and records both overheads against their budget (no-op
//! ≤ 2%, aggregating ≤ 5%).
//!
//! The 442-feature rows mirror the paper's 5GC dataset width; the paper
//! reports FS running times in the order of seconds on that width, which is
//! the regime this baseline tracks.

use fsda_bench::harness::{enforce, median, Json};
use fsda_bench::json_record;
use fsda_causal::ci::FisherZ;
use fsda_causal::pc::{pc, PcConfig, PcResult};
use fsda_core::adapter::{AdapterConfig, Budget, FsGanAdapter, MC_DRAWS};
use fsda_core::{DriftMitigator, GuardConfig, InferPrecision};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::Synth5gc;
use fsda_linalg::kernel::kernel_path;
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::ClassifierKind;
use fsda_nn::layer::{Activation, Dense};
use fsda_nn::norm::BatchNorm1d;
use fsda_nn::{InferPlan, Sequential};
use std::time::Instant;

/// Block-correlated linear-Gaussian data: every eighth variable starts a new
/// independent block; within a block each variable loads on its predecessor.
/// Cross-block edges die in the marginal round, within-block structure
/// exercises the deeper conditioning rounds.
fn block_chain_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    let mut m = Matrix::zeros(n, d);
    for r in 0..n {
        for c in 0..d {
            let v = if c % 8 == 0 {
                rng.normal(0.0, 1.0)
            } else {
                0.8 * m.get(r, c - 1) + rng.normal(0.0, 0.6)
            };
            m.set(r, c, v);
        }
    }
    m
}

/// Splits the canonical thread grid into (runnable, skipped) halves:
/// thread counts above the host's parallelism are skipped up front —
/// timing them would measure scheduler overhead, not the engine — and
/// the skipped counts are recorded alongside the grid so the JSON says
/// *why* those rows are absent.
fn partition_thread_grid(cores: usize) -> (Vec<usize>, Vec<usize>) {
    let grid = [1usize, 2, 4, 8];
    let (run, skip): (Vec<usize>, Vec<usize>) = grid.iter().partition(|&&t| t <= cores);
    (run, skip)
}

/// CI gate: the blocked f64 kernel path must beat the textbook naive
/// executor by this factor (median across batch sizes).
const F64_TARGET_SPEEDUP: f64 = 1.5;

/// CI gate: the blocked f32 path's median speedup over the naive executor.
const F32_TARGET_SPEEDUP: f64 = 2.5;

/// CI gate: the no-op telemetry path's median overhead on `predict_batch`.
const NOOP_TARGET_OVERHEAD_PCT: f64 = 2.0;

json_record! {
    struct PcCell {
        features: usize,
        samples: usize,
        threads: usize,
        host_parallelism: usize,
        elapsed_s: f64,
        ci_tests: usize,
        tests_per_sec: f64,
        speedup_vs_1: f64,
        identical_to_sequential: bool,
        edges: usize,
    }

    struct ReconCell {
        rows: usize,
        features: usize,
        threads: usize,
        host_parallelism: usize,
        batch_elapsed_s: f64,
        rows_per_sec: f64,
        speedup_vs_1: f64,
        identical_to_sequential: bool,
    }

    struct GuardCell {
        rows: usize,
        features: usize,
        unguarded_elapsed_s: f64,
        guarded_elapsed_s: f64,
        overhead_pct: f64,
        identical: bool,
    }

    struct DispatchCell {
        rows: usize,
        features: usize,
        direct_elapsed_s: f64,
        dyn_elapsed_s: f64,
        overhead_pct: f64,
        identical: bool,
        identical_to_mc_reference: bool,
    }

    #[derive(Default)]
    struct TelemetryCell {
        rows: usize,
        features: usize,
        direct_elapsed_s: f64,
        noop_elapsed_s: f64,
        aggregating_elapsed_s: f64,
        noop_overhead_pct: f64,
        aggregating_overhead_pct: f64,
        identical: bool,
    }

    #[derive(Default)]
    struct KernelCell {
        rows: usize,
        in_dim: usize,
        out_dim: usize,
        naive_elapsed_s: f64,
        f64_elapsed_s: f64,
        f32_elapsed_s: f64,
        naive_rows_per_sec: f64,
        f64_rows_per_sec: f64,
        f32_rows_per_sec: f64,
        f64_speedup_vs_naive: f64,
        f32_speedup_vs_naive: f64,
        f64_identical_to_naive: bool,
        f32_max_abs_err: f64,
    }

    #[derive(Default)]
    struct DivergenceCell {
        rows: usize,
        features: usize,
        max_abs_err: f64,
        max_rel_err: f64,
        prediction_flips: usize,
        flip_rate: f64,
    }
}

fn run_pc(test: &FisherZ, threads: usize) -> (PcResult, f64) {
    let config = PcConfig {
        alpha: 0.01,
        max_cond_size: 2,
        parallel: threads > 1,
        num_threads: Some(threads),
    };
    let (elapsed, result) = per_call(1, || pc(test, &config).expect("PC run"));
    (result, elapsed)
}

fn bench_pc(cores: usize) -> Vec<PcCell> {
    let feature_grid = [64usize, 128, 442];
    let (thread_grid, skipped) = partition_thread_grid(cores);
    let samples_for = |d: usize| if d >= 442 { 256 } else { 512 };

    println!("PC causal search, block-chain data, alpha=0.01, max_cond_size=2");
    if !skipped.is_empty() {
        println!(
            "  skipping oversubscribed thread counts {skipped:?} \
             (host parallelism {cores})"
        );
    }
    println!(
        "{:>9} {:>8} {:>8} {:>10} {:>10} {:>14} {:>9} {:>10}",
        "features", "samples", "threads", "edges", "CI tests", "tests/sec", "time (s)", "speedup"
    );

    let mut cells: Vec<PcCell> = Vec::new();
    for &d in &feature_grid {
        let n = samples_for(d);
        let data = block_chain_data(n, d, 42);
        let test = FisherZ::new(&data).expect("correlation matrix");
        let mut baseline: Option<(PcResult, f64)> = None;
        for &t in &thread_grid {
            let (result, elapsed) = run_pc(&test, t);
            let (seq, seq_time) = match &baseline {
                Some(b) => (&b.0, b.1),
                None => {
                    baseline = Some((result.clone(), elapsed));
                    let b = baseline.as_ref().unwrap();
                    (&b.0, b.1)
                }
            };
            let identical = result.graph == seq.graph
                && result.sepsets == seq.sepsets
                && result.tests_run == seq.tests_run;
            assert!(
                identical,
                "thread count {t} changed the learned CPDAG at d={d}"
            );
            let cell = PcCell {
                features: d,
                samples: n,
                threads: t,
                host_parallelism: cores,
                elapsed_s: elapsed,
                ci_tests: result.tests_run,
                tests_per_sec: result.tests_run as f64 / elapsed.max(1e-12),
                speedup_vs_1: seq_time / elapsed.max(1e-12),
                identical_to_sequential: identical,
                edges: result.graph.num_edges(),
            };
            println!(
                "{:>9} {:>8} {:>8} {:>10} {:>10} {:>14.0} {:>9.3} {:>9.2}x",
                cell.features,
                cell.samples,
                cell.threads,
                cell.edges,
                cell.ci_tests,
                cell.tests_per_sec,
                cell.elapsed_s,
                cell.speedup_vs_1
            );
            cells.push(cell);
        }
    }
    cells
}

/// Wall time per call of `inner` back-to-back calls of `f`, and the last
/// call's result.
fn per_call<T>(inner: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut out = f();
    for _ in 1..inner {
        out = f();
    }
    (start.elapsed().as_secs_f64() / inner as f64, out)
}

/// Tiles the 5GC target-test features up to `rows` serving rows.
fn serving_batch(features: &Matrix, rows: usize) -> Matrix {
    let idx: Vec<usize> = (0..rows).map(|r| r % features.rows()).collect();
    features.select_rows(&idx)
}

/// Times the guarded serving entry point (`try_reconstruct_batch_with`,
/// reject policy) against the unguarded `reconstruct_batch_with` on clean
/// batches: the
/// input scan is the only extra work, and on the clean fast path it must
/// stay under a few percent.
fn bench_guard_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<GuardCell> {
    let guard = GuardConfig::default();
    let exact = InferPrecision::F64Exact;
    println!("\nguarded vs unguarded batch reconstruction (clean 5GC batches, reject policy)");
    println!(
        "{:>7} {:>9} {:>14} {:>14} {:>10}",
        "rows", "features", "unguarded (s)", "guarded (s)", "overhead"
    );
    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(features, rows);
        // Warm-up, then best-of-9: the scan is cheap enough that scheduler
        // noise on a single run would dominate the comparison.
        let _ = adapter.reconstruct_batch_with(&x, Some(1), exact);
        let mut unguarded = f64::INFINITY;
        let mut guarded = f64::INFINITY;
        let mut identical = true;
        for _ in 0..9 {
            let (t, plain) = per_call(1, || adapter.reconstruct_batch_with(&x, Some(1), exact));
            unguarded = unguarded.min(t);
            let (t, checked) = per_call(1, || {
                adapter
                    .try_reconstruct_batch_with(&x, Some(1), &guard, exact)
                    .expect("clean batch must pass the guard")
            });
            guarded = guarded.min(t);
            identical &= plain == checked;
        }
        assert!(identical, "guarded path changed the reconstruction");
        let cell = GuardCell {
            rows,
            features: x.cols(),
            unguarded_elapsed_s: unguarded,
            guarded_elapsed_s: guarded,
            overhead_pct: 100.0 * (guarded - unguarded) / unguarded.max(1e-12),
            identical,
        };
        println!(
            "{:>7} {:>9} {:>14.6} {:>14.6} {:>9.2}%",
            cell.rows,
            cell.features,
            cell.unguarded_elapsed_s,
            cell.guarded_elapsed_s,
            cell.overhead_pct
        );
        cells.push(cell);
    }
    cells
}

/// The Monte-Carlo average the long way: reconstruct draw `d` of the whole
/// batch, classify it, and fold the draws with `try_add` in ascending
/// order before one `scale`. The served path stacks the draws and must
/// reproduce this bit for bit.
fn mc_reference(adapter: &FsGanAdapter, x: &Matrix) -> Matrix {
    let exact = InferPrecision::F64Exact;
    let draws = if adapter.degraded().is_none() {
        MC_DRAWS
    } else {
        1
    };
    let probs = |d| {
        let recon = adapter.reconstruct_draw_with(x, Some(1), exact, d);
        adapter.classifier().predict_proba_with(&recon, exact)
    };
    let mut acc = probs(0);
    for d in 1..draws {
        acc = acc.try_add(&probs(d)).expect("same shape every draw");
    }
    acc.scale(1.0 / draws as f64)
}

/// Times `predict_batch` through the `Box<dyn DriftMitigator>` registry
/// interface against the direct inherent call on the same adapter. Both
/// paths run the identical reconstruction + classification work; the only
/// difference is one virtual call per batch, so the overhead must vanish
/// into timing noise (the registry contract budgets 2%). Each batch's
/// averaged probabilities are also checked bitwise against
/// [`mc_reference`].
fn bench_dispatch_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<DispatchCell> {
    let virtual_adapter: &dyn DriftMitigator = adapter;
    println!("\nregistry (dyn DriftMitigator) vs direct predict_batch dispatch");
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>10}",
        "rows", "features", "direct (s)", "dyn (s)", "overhead"
    );
    let mut cells = Vec::new();
    for &rows in &[1usize, 64, 256, 1024] {
        let x = serving_batch(features, rows);
        let (proba, reference) = (adapter.predict_proba(&x), mc_reference(adapter, &x));
        let identical_to_mc_reference = proba.shape() == reference.shape()
            && proba
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            identical_to_mc_reference,
            "stacked Monte-Carlo path diverged from the per-draw reference at {rows} rows"
        );
        // A single vtable lookup per batch is far below scheduler noise on
        // any one call, so each timing sample amortizes an inner loop of
        // calls (a few ms of work per sample) and the reported figure is
        // the best of 25 samples per path.
        let inner = (512 / rows).clamp(1, 64);
        let _ = adapter.predict_batch(&x, Some(1));
        let mut direct = f64::INFINITY;
        let mut dynamic = f64::INFINITY;
        let mut identical = true;
        for _ in 0..25 {
            let (t, a) = per_call(inner, || adapter.predict_batch(&x, Some(1)));
            direct = direct.min(t);
            let (t, b) = per_call(inner, || virtual_adapter.predict_batch(&x, Some(1)));
            dynamic = dynamic.min(t);
            identical &= a == b;
        }
        assert!(identical, "registry dispatch changed the predictions");
        let cell = DispatchCell {
            rows,
            features: x.cols(),
            direct_elapsed_s: direct,
            dyn_elapsed_s: dynamic,
            overhead_pct: 100.0 * (dynamic - direct) / direct.max(1e-12),
            identical,
            identical_to_mc_reference,
        };
        println!(
            "{:>7} {:>9} {:>12.6} {:>12.6} {:>9.2}%",
            cell.rows, cell.features, cell.direct_elapsed_s, cell.dyn_elapsed_s, cell.overhead_pct
        );
        cells.push(cell);
    }
    cells
}

/// Times `predict_batch` three ways on the same trained pipeline: the
/// direct inherent call (no instrumentation in its path), the registry
/// (`dyn DriftMitigator`) call with telemetry disabled — the no-op
/// recorder path, one relaxed atomic load per emission site — and the
/// registry call with an aggregating `InMemoryRecorder` installed. The
/// two overheads are measured against the direct call; the telemetry
/// contract budgets ≤ 2% for the no-op path and ≤ 5% for aggregation.
fn bench_telemetry_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<TelemetryCell> {
    use std::sync::Arc;

    let virtual_adapter: &dyn DriftMitigator = adapter;
    // One recorder across the whole bench: aggregation cost is what we
    // are measuring, and a long-lived recorder is the deployment shape.
    let recorder = Arc::new(fsda_telemetry::InMemoryRecorder::new());
    fsda_telemetry::clear_recorder();

    println!("\ntelemetry overhead on predict_batch (direct vs no-op vs aggregating)");
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rows", "features", "direct (s)", "no-op (s)", "aggreg (s)", "no-op", "aggreg"
    );
    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(features, rows);
        // Same amortization as the dispatch bench: each timing sample
        // runs an inner loop of calls and the reported figure is the
        // best of 25 samples per path, interleaved so drift (thermal,
        // scheduler) hits all three paths alike.
        let inner = (512 / rows).max(1);
        let _ = adapter.predict_batch(&x, Some(1));
        let mut direct = f64::INFINITY;
        let mut noop = f64::INFINITY;
        let mut aggregating = f64::INFINITY;
        let mut identical = true;
        for _ in 0..25 {
            let (t, a) = per_call(inner, || adapter.predict_batch(&x, Some(1)));
            direct = direct.min(t);

            let (t, b) = per_call(inner, || virtual_adapter.predict_batch(&x, Some(1)));
            noop = noop.min(t);

            fsda_telemetry::set_recorder(recorder.clone());
            let (t, c) = per_call(inner, || virtual_adapter.predict_batch(&x, Some(1)));
            aggregating = aggregating.min(t);
            fsda_telemetry::clear_recorder();

            identical &= a == b && b == c;
        }
        assert!(identical, "telemetry changed the predictions");
        let cell = TelemetryCell {
            rows,
            features: x.cols(),
            direct_elapsed_s: direct,
            noop_elapsed_s: noop,
            aggregating_elapsed_s: aggregating,
            noop_overhead_pct: 100.0 * (noop - direct) / direct.max(1e-12),
            aggregating_overhead_pct: 100.0 * (aggregating - direct) / direct.max(1e-12),
            identical,
        };
        println!(
            "{:>7} {:>9} {:>12.6} {:>12.6} {:>12.6} {:>8.2}% {:>8.2}%",
            cell.rows,
            cell.features,
            cell.direct_elapsed_s,
            cell.noop_elapsed_s,
            cell.aggregating_elapsed_s,
            cell.noop_overhead_pct,
            cell.aggregating_overhead_pct
        );
        cells.push(cell);
    }
    // Sanity: the aggregating runs really did record through the spans.
    let snapshot = recorder.snapshot_now();
    assert!(
        snapshot.counter("pipeline.predict.fs_gan") > 0,
        "aggregating runs must have recorded predict spans"
    );
    cells
}

/// Times the compiled [`InferPlan`] forward pass three ways on a
/// representative reconstruction-sized network (Dense–BN–ReLU ×2 with a
/// tanh head): the textbook naive executor (`matmul_textbook`'s `ijk`
/// dot-product loop with per-call weight materialization and separate
/// bias/activation passes — the classic GEMM baseline), the blocked `f64`
/// kernel path (verified bit-identical to the naive executor), and the
/// blocked `f32` path (divergence recorded, not gated here — see the
/// `f32_divergence` section for the end-to-end envelope).
fn bench_kernels() -> Vec<KernelCell> {
    let (in_dim, hidden, out_dim) = (64usize, 256usize, 32usize);
    let mut rng = SeededRng::new(7);
    let mut net = Sequential::new();
    net.push(Dense::new(in_dim, hidden, &mut rng));
    net.push(BatchNorm1d::new(hidden));
    net.push(Activation::relu());
    net.push(Dense::new(hidden, hidden, &mut rng));
    net.push(BatchNorm1d::new(hidden));
    net.push(Activation::relu());
    net.push(Dense::new(hidden, out_dim, &mut rng));
    net.push(Activation::tanh());
    // Warm the batch-norm running statistics so the Norm stages apply a
    // non-trivial affine map, like a trained generator.
    let warm = Matrix::from_fn(128, in_dim, |_, _| rng.normal(0.0, 1.0));
    for _ in 0..4 {
        let _ = net.forward(&warm, true);
    }
    let plan = InferPlan::compile(&net).expect("plan compiles");

    println!(
        "\ncompiled inference plan: textbook naive vs blocked f64 vs blocked f32 \
         (kernel path: {})",
        kernel_path().label()
    );
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rows", "dims", "naive (s)", "f64 (s)", "f32 (s)", "f64 spd", "f32 spd"
    );

    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = Matrix::from_fn(rows, in_dim, |r, c| {
            ((r * 31 + c * 7) % 17) as f64 / 8.5 - 1.0
        });
        // Amortize small batches and take the best of 9 samples per path,
        // interleaved so scheduler drift hits all three alike.
        let inner = (1024 / rows).max(1);
        let _ = plan.infer(&x, InferPrecision::F64Exact);
        let (mut naive, mut f64_t, mut f32_t) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut identical = true;
        let mut max_abs_err = 0.0f64;
        for _ in 0..9 {
            let (t, a) = per_call(inner, || plan.infer_textbook(&x));
            naive = naive.min(t);

            let (t, b) = per_call(inner, || plan.infer(&x, InferPrecision::F64Exact));
            f64_t = f64_t.min(t);

            let (t, c) = per_call(inner, || plan.infer(&x, InferPrecision::F32Fast));
            f32_t = f32_t.min(t);

            identical &= a == b;
            for r in 0..b.rows() {
                for (x64, x32) in b.row(r).iter().zip(c.row(r)) {
                    max_abs_err = max_abs_err.max((x64 - x32).abs());
                }
            }
        }
        assert!(
            identical,
            "blocked f64 plan diverged from the naive reference"
        );
        let cell = KernelCell {
            rows,
            in_dim,
            out_dim,
            naive_elapsed_s: naive,
            f64_elapsed_s: f64_t,
            f32_elapsed_s: f32_t,
            naive_rows_per_sec: rows as f64 / naive.max(1e-12),
            f64_rows_per_sec: rows as f64 / f64_t.max(1e-12),
            f32_rows_per_sec: rows as f64 / f32_t.max(1e-12),
            f64_speedup_vs_naive: naive / f64_t.max(1e-12),
            f32_speedup_vs_naive: naive / f32_t.max(1e-12),
            f64_identical_to_naive: identical,
            f32_max_abs_err: max_abs_err,
        };
        println!(
            "{:>7} {:>10} {:>12.6} {:>12.6} {:>12.6} {:>8.2}x {:>8.2}x",
            cell.rows,
            format!("{in_dim}-{hidden}-{out_dim}"),
            cell.naive_elapsed_s,
            cell.f64_elapsed_s,
            cell.f32_elapsed_s,
            cell.f64_speedup_vs_naive,
            cell.f32_speedup_vs_naive
        );
        cells.push(cell);
    }
    cells
}

/// Measures the end-to-end `F32Fast` divergence envelope on the trained
/// FS+GAN pipeline: reconstructed-feature error against the bit-exact
/// `F64Exact` path, and the hard-prediction flip rate (which must be zero
/// on the well-separated 5GC fixture).
fn bench_f32_divergence(adapter: &FsGanAdapter, features: &Matrix) -> Vec<DivergenceCell> {
    println!("\nf32 fast-path divergence vs the bit-exact f64 serving path");
    println!(
        "{:>7} {:>9} {:>13} {:>13} {:>7} {:>10}",
        "rows", "features", "max abs err", "max rel err", "flips", "flip rate"
    );
    let mut cells = Vec::new();
    for &rows in &[256usize, 1024] {
        let x = serving_batch(features, rows);
        let exact = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F64Exact);
        let fast = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F32Fast);
        let mut max_abs_err = 0.0f64;
        let mut max_rel_err = 0.0f64;
        for r in 0..exact.rows() {
            for (a, b) in exact.row(r).iter().zip(fast.row(r)) {
                let abs = (a - b).abs();
                max_abs_err = max_abs_err.max(abs);
                max_rel_err = max_rel_err.max(abs / a.abs().max(1e-9));
            }
        }
        let pred_exact = adapter.predict_batch_with(&x, Some(1), InferPrecision::F64Exact);
        let pred_fast = adapter.predict_batch_with(&x, Some(1), InferPrecision::F32Fast);
        let flips = pred_exact
            .iter()
            .zip(&pred_fast)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            flips, 0,
            "f32 fast path flipped {flips} predictions at rows={rows}"
        );
        let cell = DivergenceCell {
            rows,
            features: x.cols(),
            max_abs_err,
            max_rel_err,
            prediction_flips: flips,
            flip_rate: flips as f64 / rows as f64,
        };
        println!(
            "{:>7} {:>9} {:>13.3e} {:>13.3e} {:>7} {:>10.4}",
            cell.rows,
            cell.features,
            cell.max_abs_err,
            cell.max_rel_err,
            cell.prediction_flips,
            cell.flip_rate
        );
        cells.push(cell);
    }
    cells
}

type ReconBenches = (
    Vec<ReconCell>,
    Vec<GuardCell>,
    Vec<DispatchCell>,
    Vec<TelemetryCell>,
    Vec<DivergenceCell>,
);

fn bench_reconstruction(cores: usize) -> ReconBenches {
    let bundle = Synth5gc::small().generate(42).expect("5GC bundle");
    let mut rng = SeededRng::new(43);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).expect("shots");
    let cfg = AdapterConfig {
        classifier: ClassifierKind::RandomForest,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter =
        FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 44).expect("FS+GAN adapter");

    let (thread_grid, skipped) = partition_thread_grid(cores);
    println!("\nbatched GAN reconstruction (FS+GAN serving path), 5GC-small pipeline");
    if !skipped.is_empty() {
        println!(
            "  skipping oversubscribed thread counts {skipped:?} \
             (host parallelism {cores})"
        );
    }
    println!(
        "{:>7} {:>9} {:>8} {:>12} {:>12} {:>12}",
        "rows", "features", "threads", "batch (s)", "rows/sec", "speedup"
    );

    let exact = InferPrecision::F64Exact;
    let mut cells: Vec<ReconCell> = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(bundle.target_test.features(), rows);
        // Untimed warm-up and the reference every thread count must match.
        let sequential = adapter.reconstruct_batch_with(&x, Some(1), exact);
        let mut sequential_elapsed = f64::NAN;
        for &t in &thread_grid {
            let (batch_elapsed, batch) =
                per_call(1, || adapter.reconstruct_batch_with(&x, Some(t), exact));
            if t == 1 {
                sequential_elapsed = batch_elapsed;
            }
            let identical = batch == sequential;
            assert!(
                identical,
                "reconstruct_batch_with diverged from threads=1 at rows={rows}, threads={t}"
            );
            let cell = ReconCell {
                rows,
                features: x.cols(),
                threads: t,
                host_parallelism: cores,
                batch_elapsed_s: batch_elapsed,
                rows_per_sec: rows as f64 / batch_elapsed.max(1e-12),
                speedup_vs_1: sequential_elapsed / batch_elapsed.max(1e-12),
                identical_to_sequential: identical,
            };
            println!(
                "{:>7} {:>9} {:>8} {:>12.4} {:>12.0} {:>11.2}x",
                cell.rows,
                cell.features,
                cell.threads,
                cell.batch_elapsed_s,
                cell.rows_per_sec,
                cell.speedup_vs_1
            );
            cells.push(cell);
        }
    }
    let guard_cells = bench_guard_overhead(&adapter, bundle.target_test.features());
    let dispatch_cells = bench_dispatch_overhead(&adapter, bundle.target_test.features());
    let telemetry_cells = bench_telemetry_overhead(&adapter, bundle.target_test.features());
    let divergence_cells = bench_f32_divergence(&adapter, bundle.target_test.features());
    (
        cells,
        guard_cells,
        dispatch_cells,
        telemetry_cells,
        divergence_cells,
    )
}

/// The kernel-plane CI gate: median speedups over the naive executor,
/// bit-identity, and zero f32 prediction flips. Failure texts are the
/// contract CI logs show.
fn kernel_gate(cells: &[KernelCell], divergence: &[DivergenceCell]) -> Result<(), String> {
    let f64s: Vec<f64> = cells.iter().map(|c| c.f64_speedup_vs_naive).collect();
    let f32s: Vec<f64> = cells.iter().map(|c| c.f32_speedup_vs_naive).collect();
    let (f64_med, f32_med) = (median(&f64s), median(&f32s));
    println!(
        "path {}: f64 speedups {f64s:?} (median {f64_med:.2}x, gate {F64_TARGET_SPEEDUP:?}x), \
         f32 speedups {f32s:?} (median {f32_med:.2}x, gate {F32_TARGET_SPEEDUP:?}x)",
        kernel_path().label()
    );
    if cells.is_empty() {
        return Err("reconstruction_kernels section has no cells".into());
    }
    if !cells.iter().all(|c| c.f64_identical_to_naive) {
        return Err("blocked f64 kernels diverged from the naive reference".into());
    }
    if !(F64_TARGET_SPEEDUP..).contains(&f64_med) {
        return Err(format!(
            "blocked f64 speedup {f64_med:.2}x fell below {F64_TARGET_SPEEDUP:?}x"
        ));
    }
    if !(F32_TARGET_SPEEDUP..).contains(&f32_med) {
        return Err(format!(
            "blocked f32 speedup {f32_med:.2}x fell below {F32_TARGET_SPEEDUP:?}x"
        ));
    }
    if divergence.is_empty() {
        return Err("f32_divergence section has no cells".into());
    }
    if divergence.iter().any(|c| c.prediction_flips != 0) {
        return Err("f32 fast path flipped predictions on the golden fixture".into());
    }
    Ok(())
}

/// The no-op telemetry CI gate: instrumentation that is not enabled may
/// not change predictions or cost more than its budget (median across
/// batch sizes). Failure texts are the contract CI logs show.
fn noop_telemetry_gate(cells: &[TelemetryCell]) -> Result<(), String> {
    let overheads: Vec<f64> = cells.iter().map(|c| c.noop_overhead_pct).collect();
    let median = median(&overheads);
    println!(
        "no-op overhead per cell: {overheads:?} (median {median:.2}%, \
         gate {NOOP_TARGET_OVERHEAD_PCT:?}%)"
    );
    if !cells.iter().all(|c| c.identical) {
        return Err("telemetry changed predictions".into());
    }
    if !(..=NOOP_TARGET_OVERHEAD_PCT).contains(&median) {
        return Err(format!(
            "no-op telemetry overhead {median:.2}% exceeds {NOOP_TARGET_OVERHEAD_PCT:?}% budget"
        ));
    }
    Ok(())
}

/// One `BENCH_runtime.json` section: a description, its numeric settings
/// and bounds, and its cells.
fn section<'a, T>(description: &str, settings: &[(&str, f64)], cells: &'a [T]) -> Json
where
    Json: From<&'a T>,
{
    settings
        .iter()
        .fold(
            Json::object().field("description", description),
            |o, &(k, v)| o.field(k, v),
        )
        .field("cells", cells.iter().map(Json::from).collect::<Json>())
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perf_baseline: host parallelism {cores} core(s)\n");

    let (thread_grid, skipped_threads) = partition_thread_grid(cores);
    let pc_cells = bench_pc(cores);
    let kernel_cells = bench_kernels();
    let (recon_cells, guard_cells, dispatch_cells, telemetry_cells, divergence_cells) =
        bench_reconstruction(cores);

    Json::object()
        .field("host_parallelism", cores)
        .field("thread_grid", thread_grid)
        .field("skipped_thread_counts", skipped_threads)
        .field(
            "note",
            "thread counts above host_parallelism are skipped up front (listed \
             in skipped_thread_counts): timing them would measure scheduler \
             overhead, not the engine",
        )
        .field(
            "pc_causal_search",
            section(
                "PC skeleton+orientation over block-chain data; parallel rows \
                 are verified bit-identical to threads=1",
                &[("alpha", 0.01)],
                &pc_cells,
            )
            .field("max_cond_size", 2usize),
        )
        .field(
            "reconstruction_kernels",
            section(
                "compiled InferPlan forward pass on a reconstruction-sized \
                 Dense-BN-ReLU net: textbook naive executor (ijk dot-product \
                 triple loop, per-call weight materialization, separate \
                 bias/activation passes — the classic GEMM baseline) vs the \
                 blocked f64 kernel path (verified bit-identical to it) vs the \
                 blocked f32 path, best of 9 amortized samples",
                &[
                    ("f64_target_speedup", F64_TARGET_SPEEDUP),
                    ("f32_target_speedup", F32_TARGET_SPEEDUP),
                ],
                &kernel_cells,
            )
            .field("kernel_path", kernel_path().label()),
        )
        .field(
            "f32_divergence",
            section(
                "end-to-end F32Fast divergence on the trained FS+GAN serving \
                 path: reconstructed-feature error against the bit-exact \
                 F64Exact path, and the hard-prediction flip rate (asserted zero \
                 on the 5GC fixture)",
                &[],
                &divergence_cells,
            ),
        )
        .field(
            "batched_reconstruction",
            section(
                "FS+GAN reconstruct_batch_with over a thread grid on a trained \
                 5GC-small pipeline; every run is verified bit-identical to the \
                 threads=1 output",
                &[],
                &recon_cells,
            ),
        )
        .field(
            "guarded_serving_overhead",
            section(
                "try_reconstruct_batch_with (reject policy) vs \
                 reconstruct_batch_with on clean single-threaded batches, best \
                 of 9; the guarded path is \
                 verified bit-identical and its overhead is the cost of the \
                 input scan",
                &[("target_overhead_pct", 5.0)],
                &guard_cells,
            ),
        )
        .field(
            "pipeline_dispatch_overhead",
            section(
                "predict_batch through the Box<dyn DriftMitigator> registry \
                 interface vs the direct inherent call on the same trained \
                 FS+GAN pipeline, best of 25 amortized samples; one virtual call \
                 per batch, verified bit-identical, and the averaged \
                 probabilities verified bit-identical to the per-draw \
                 Monte-Carlo reference",
                &[("target_overhead_pct", 2.0)],
                &dispatch_cells,
            ),
        )
        .field(
            "telemetry_overhead",
            section(
                "predict_batch timed three ways on the same trained FS+GAN \
                 pipeline, best of 25 amortized samples: direct inherent call \
                 (uninstrumented), registry call with telemetry disabled (no-op \
                 path, one relaxed atomic load per emission site), and registry \
                 call with an aggregating InMemoryRecorder installed; all three \
                 verified bit-identical",
                &[
                    ("noop_target_overhead_pct", NOOP_TARGET_OVERHEAD_PCT),
                    ("aggregating_target_overhead_pct", 5.0),
                ],
                &telemetry_cells,
            ),
        )
        .write_bench("BENCH_runtime.json");
    enforce(kernel_gate(&kernel_cells, &divergence_cells));
    enforce(noop_telemetry_gate(&telemetry_cells));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_gate_passes_fast_exact_kernels_and_fails_slow_ones() {
        let kernels = |f64_speedup_vs_naive, f32_speedup_vs_naive| {
            [KernelCell {
                f64_speedup_vs_naive,
                f32_speedup_vs_naive,
                f64_identical_to_naive: true,
                ..KernelCell::default()
            }]
        };
        let clean = [DivergenceCell::default()];
        assert_eq!(kernel_gate(&kernels(2.0, 3.0), &clean), Ok(()));
        let slow = "blocked f64 speedup 1.40x fell below 1.5x";
        assert_eq!(kernel_gate(&kernels(1.4, 3.0), &clean), Err(slow.into()));
        let nan64 = "blocked f64 speedup NaNx fell below 1.5x";
        assert_eq!(
            kernel_gate(&kernels(f64::NAN, 3.0), &clean),
            Err(nan64.into())
        );
        let nan32 = "blocked f32 speedup NaNx fell below 2.5x";
        assert_eq!(
            kernel_gate(&kernels(2.0, f64::NAN), &clean),
            Err(nan32.into())
        );
        let flipped = [DivergenceCell {
            prediction_flips: 1,
            ..DivergenceCell::default()
        }];
        let flips = "f32 fast path flipped predictions on the golden fixture";
        assert_eq!(kernel_gate(&kernels(2.0, 3.0), &flipped), Err(flips.into()));
    }

    #[test]
    fn noop_telemetry_gate_holds_the_median_to_budget() {
        let cells = |overheads: [f64; 3]| {
            overheads.map(|noop_overhead_pct| TelemetryCell {
                noop_overhead_pct,
                identical: true,
                ..TelemetryCell::default()
            })
        };
        assert_eq!(noop_telemetry_gate(&cells([-1.0, 1.5, 9.0])), Ok(()));
        let over = "no-op telemetry overhead 2.50% exceeds 2.0% budget";
        assert_eq!(
            noop_telemetry_gate(&cells([0.0, 2.5, 3.0])),
            Err(over.into())
        );
        // No cells give a NaN median: fail closed.
        let empty = "no-op telemetry overhead NaN% exceeds 2.0% budget";
        assert_eq!(noop_telemetry_gate(&[]), Err(empty.into()));
    }
}
