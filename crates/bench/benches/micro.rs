//! Micro-benchmarks for the hot paths behind the §VI-D running times:
//! conditional-independence testing, GAN training steps, generator
//! inference, and the classifier forward passes.
//!
//! `cargo bench -p fsda-bench --bench micro`
//!
//! Uses a small `std::time` harness instead of an external benchmark crate
//! so the workspace builds offline; each benchmark reports the best of
//! several timed batches, which is robust to scheduler noise for the
//! sub-millisecond operations measured here.

use fsda_causal::ci::{combine_with_fnode, CondIndepTest, FisherZ};
use fsda_core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda_core::fs::{FeatureSeparation, FsConfig};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::Synth5gc;
use fsda_gan::cond_gan::{CondGan, CondGanConfig};
use fsda_gan::{InferPrecision, Reconstructor};
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::ClassifierKind;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` as `batches` batches of `iters` calls and prints the best
/// per-call time (minimum over batches filters scheduler noise).
fn bench(name: &str, batches: usize, iters: usize, mut f: impl FnMut()) {
    // Warm-up batch.
    for _ in 0..iters {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_call = start.elapsed().as_secs_f64() / iters as f64;
        best = best.min(per_call);
    }
    println!("{name:<40} {:>12.3} µs/iter", best * 1e6);
}

fn bench_ci_tests() {
    let bundle = Synth5gc::small().generate(1).unwrap();
    let mut rng = SeededRng::new(2);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).unwrap();
    let combined = combine_with_fnode(bundle.source_train.features(), shots.features()).unwrap();
    let test = FisherZ::new(&combined).unwrap();
    let f = bundle.source_train.num_features();
    bench("ci/fisher_z_marginal", 10, 10_000, || {
        black_box(test.pvalue(0, f, &[]).unwrap());
    });
    bench("ci/fisher_z_cond1", 10, 10_000, || {
        black_box(test.pvalue(0, f, &[1]).unwrap());
    });
    bench("ci/fisher_z_build", 10, 10, || {
        black_box(FisherZ::new(&combined).unwrap());
    });
}

fn bench_fs() {
    let bundle = Synth5gc::small().generate(3).unwrap();
    let mut rng = SeededRng::new(4);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).unwrap();
    bench("fs/full_separation_70_features", 5, 3, || {
        black_box(
            FeatureSeparation::fit(&bundle.source_train, &shots, &FsConfig::default()).unwrap(),
        );
    });
}

fn bench_gan() {
    let mut rng = SeededRng::new(5);
    let x_inv = rng.normal_matrix(256, 40, 0.0, 0.5);
    let x_var = rng.normal_matrix(256, 12, 0.0, 0.5);
    let y = Matrix::zeros(256, 16);
    // One epoch of adversarial training (4 batches of 64).
    bench("gan/train_epoch_256x52", 3, 3, || {
        let mut gan = CondGan::new(
            CondGanConfig {
                epochs: 1,
                hidden: 128,
                noise_dim: 8,
                ..CondGanConfig::default()
            },
            6,
        );
        gan.fit(&x_inv, &x_var, &y).unwrap();
        black_box(&gan);
    });
    let mut gan = CondGan::new(
        CondGanConfig {
            epochs: 5,
            hidden: 128,
            noise_dim: 8,
            ..CondGanConfig::default()
        },
        7,
    );
    gan.fit(&x_inv, &x_var, &y).unwrap();
    let single = x_inv.select_rows(&[0]);
    bench("gan/generator_single_sample", 10, 1000, || {
        black_box(gan.reconstruct(&single, &[9], InferPrecision::F64Exact));
    });
}

fn bench_inference() {
    let bundle = Synth5gc::small().generate(8).unwrap();
    let mut rng = SeededRng::new(9);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).unwrap();
    let cfg = AdapterConfig {
        classifier: ClassifierKind::RandomForest,
        budget: Budget {
            gan_epochs: 30,
            ..Budget::quick()
        },
        ..AdapterConfig::default()
    };
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 10).unwrap();
    let one = bundle.target_test.features().select_rows(&[0]);
    bench("pipeline/predict_single_sample", 10, 1000, || {
        black_box(adapter.predict(&one));
    });
}

fn main() {
    println!("micro-benchmarks (best-of-batch per-call times)\n");
    bench_ci_tests();
    bench_fs();
    bench_gan();
    bench_inference();
}
