//! The stacked Monte-Carlo serving path against a draw-by-draw reference.
//!
//! Prediction splits each request into row blocks, reconstructs all
//! Monte-Carlo draws of a block in one generator call, and classifies the
//! draws in stacked batches. The reference here does it the long way: for
//! each draw `d`, reconstruct the whole batch, classify it, and fold the
//! probabilities with `try_add` in ascending draw order before one
//! `scale`. The two must agree bit for bit, for every reconstructor kind,
//! batch shape, and thread count; and on a corrupted artifact the guarded
//! path must report the first non-finite cell in (draw, row) order.

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter, ReconKind, MC_DRAWS};
use fsda::core::persist::{
    find_section, read_container, read_recon_snapshot, write_container, write_recon_snapshot,
    Decoder, Encoder, TAG_RECN,
};
use fsda::core::{GuardConfig, InferPrecision, ServeError};
use fsda::data::fewshot::few_shot_subset;
use fsda::data::synth5gc::Synth5gc;
use fsda::gan::ReconSnapshot;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::classifier::argmax_rows;
use fsda::nn::state::StateDict;

const ROWS: [usize; 4] = [1, 7, 64, 65];
const THREADS: [usize; 2] = [1, 2];

fn tiny_config(recon: ReconKind) -> AdapterConfig {
    AdapterConfig {
        budget: Budget {
            nn_epochs: 3,
            gan_epochs: 15,
            emb_epochs: 3,
            forest_trees: 5,
            gbdt_rounds: 3,
            threads: 2,
        },
        ..AdapterConfig::default()
    }
    .with_recon(recon)
}

fn fitted(recon: ReconKind, seed: u64) -> (FsGanAdapter, Matrix) {
    let bundle = Synth5gc::small().generate(17).expect("bundle");
    let mut rng = SeededRng::new(3);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).expect("shots");
    let adapter =
        FsGanAdapter::fit(&bundle.source_train, &shots, &tiny_config(recon), seed).expect("fit");
    (adapter, bundle.target_test.features().clone())
}

fn head(x: &Matrix, rows: usize) -> Matrix {
    assert!(x.rows() >= rows, "fixture has {} rows", x.rows());
    x.select_rows(&(0..rows).collect::<Vec<_>>())
}

fn draws(adapter: &FsGanAdapter) -> u64 {
    if adapter.degraded().is_none() {
        MC_DRAWS
    } else {
        1
    }
}

/// Draw `d`'s reconstruction → classifier → ascending `try_add` chain →
/// `scale`.
fn reference(adapter: &FsGanAdapter, x: &Matrix, threads: usize, p: InferPrecision) -> Matrix {
    let draws = draws(adapter);
    let probs = |d| {
        let recon = adapter.reconstruct_draw_with(x, Some(threads), p, d);
        adapter.classifier().predict_proba_with(&recon, p)
    };
    let mut acc = probs(0);
    for d in 1..draws {
        acc = acc.try_add(&probs(d)).expect("same shape every draw");
    }
    acc.scale(1.0 / draws as f64)
}

/// The first non-finite reconstructed cell in (draw, row) order.
fn reference_first_bad(adapter: &FsGanAdapter, x: &Matrix) -> Option<(u64, usize, usize)> {
    (0..draws(adapter)).find_map(|d| {
        let recon = adapter.reconstruct_draw_with(x, Some(1), InferPrecision::F64Exact, d);
        (0..recon.rows()).find_map(|r| {
            let c = recon.row(r).iter().position(|v| !v.is_finite())?;
            Some((d, r, c))
        })
    })
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, label: &str) {
    assert_eq!(a.shape(), b.shape(), "{label}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i}: {x} vs {y}");
    }
}

#[test]
fn stacked_draws_match_the_per_draw_reference() {
    let guard = GuardConfig::default();
    for (i, recon) in [
        ReconKind::Gan,
        ReconKind::GanNoCond,
        ReconKind::Vae,
        ReconKind::VanillaAe,
    ]
    .into_iter()
    .enumerate()
    {
        let (adapter, test) = fitted(recon, 90 + i as u64);
        assert!(adapter.degraded().is_none(), "{recon:?}: fixture degraded");
        for rows in ROWS {
            let x = head(&test, rows);
            let proba = adapter.predict_proba(&x);
            for threads in THREADS {
                let label = format!("{recon:?} rows={rows} threads={threads}");
                let exact = reference(&adapter, &x, threads, InferPrecision::F64Exact);
                assert_bits_eq(&proba, &exact, &label);
                let guarded = adapter
                    .try_predict_batch_with(&x, Some(threads), &guard, InferPrecision::F64Exact)
                    .unwrap_or_else(|e| panic!("{label}: guarded path failed: {e}"));
                assert_eq!(guarded, argmax_rows(&exact), "{label}: guarded labels");
                let fast = reference(&adapter, &x, threads, InferPrecision::F32Fast);
                assert_eq!(
                    adapter.predict_batch_with(&x, Some(threads), InferPrecision::F32Fast),
                    argmax_rows(&fast),
                    "{label}: f32 labels"
                );
            }
        }
    }
}

/// Rebuilds `adapter` with the generator's first-layer weight from noise
/// input `noise_col` into hidden unit 0 set to `+inf`: rows whose noise
/// pushes that unit positive end in NaN, the others stay finite, so which
/// (draw, row) fails first depends on the noise.
fn poisoned(adapter: &FsGanAdapter, noise_col: usize) -> FsGanAdapter {
    let bytes = adapter.to_bytes().expect("to_bytes");
    let sections = read_container(&bytes).expect("container");
    let mut dec = Decoder::new(find_section(&sections, TAG_RECN).expect("RECN"));
    assert!(
        dec.take_bool().expect("flag"),
        "fixture has a reconstructor"
    );
    let snapshot = match read_recon_snapshot(&mut dec).expect("snapshot") {
        ReconSnapshot::Gan {
            config,
            seed,
            dims,
            state,
        } => {
            let mut tensors = state.tensors().to_vec();
            tensors[0].set(0, dims.0 + noise_col, f64::INFINITY);
            ReconSnapshot::Gan {
                config,
                seed,
                dims,
                state: StateDict::from_parts(tensors, state.buffers().to_vec()),
            }
        }
        other => panic!("expected a GAN snapshot, got {other:?}"),
    };
    let mut recn = Encoder::new();
    recn.put_bool(true);
    write_recon_snapshot(&mut recn, &snapshot);
    let recn = recn.into_bytes();
    let sections: Vec<([u8; 4], Vec<u8>)> = sections
        .iter()
        .map(|&(tag, body)| {
            let body = if tag == TAG_RECN {
                recn.clone()
            } else {
                body.to_vec()
            };
            (tag, body)
        })
        .collect();
    FsGanAdapter::from_bytes(&write_container(&sections)).expect("restore poisoned")
}

#[test]
fn corrupted_artifact_reports_the_first_bad_cell_in_draw_row_order() {
    let (adapter, test) = fitted(ReconKind::Gan, 7);
    let guard = GuardConfig::default();
    let mut later_draw_failed_first = false;
    for noise_col in 0..3 {
        let broken = poisoned(&adapter, noise_col);
        for rows in ROWS {
            let x = head(&test, rows);
            let (draw, row, col) = reference_first_bad(&broken, &x)
                .unwrap_or_else(|| panic!("column {noise_col}, {rows} rows: nothing failed"));
            later_draw_failed_first |= draw > 0;
            for threads in THREADS {
                let got = broken
                    .try_predict_batch_with(&x, Some(threads), &guard, InferPrecision::F64Exact)
                    .expect_err("a non-finite reconstruction must be refused");
                assert_eq!(
                    got,
                    ServeError::NonFiniteOutput { row, col },
                    "column {noise_col}, {rows} rows, {threads} threads (draw {draw})"
                );
            }
        }
    }
    assert!(
        later_draw_failed_first,
        "no case had a clean draw 0: the (draw, row) order was not exercised"
    );
}
