//! Ablation of the generator noise dimension vs the Monte-Carlo sample
//! count M (Section V-C2).
//!
//! The paper argues that with a noise vector that is small relative to the
//! data dimension, the network-management model's predictions for different
//! GAN draws are "effectively identical", so M = 1 suffices and inference
//! stays a single generator pass. This bench quantifies that claim: for
//! several noise dimensions it measures (a) the agreement between M = 1 and
//! M = 9 predictions and (b) the F1 of each, on the 5GC scenario.
//!
//! `cargo bench -p fsda-bench --bench mc_ablation`

use fsda_bench::{scenario_5gc, BenchScale};
use fsda_core::adapter::build_classifier;
use fsda_core::fs::{FeatureSeparation, FsConfig};
use fsda_gan::cond_gan::{CondGan, CondGanConfig};
use fsda_gan::{InferPrecision, Reconstructor};
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::classifier::argmax_rows;
use fsda_models::metrics::macro_f1;
use fsda_models::ClassifierKind;

fn main() {
    let scale = BenchScale::from_env();
    println!("== Ablation: noise dimension vs Monte-Carlo sample count ==");
    println!("{}", scale.banner());
    let (scenario, _) = scenario_5gc(&scale, scale.seed.wrapping_add(71));
    let mut rng = SeededRng::new(scale.seed + 72);
    let shots = scenario.draw_shots(5, &mut rng).expect("draw failed");
    let separation =
        FeatureSeparation::fit(&scenario.source, &shots, &FsConfig::default()).expect("FS failed");
    let (inv_src, var_src) = separation.split_normalized(scenario.source.features());
    let normalized_src = separation
        .normalizer()
        .transform(scenario.source.features());
    let mut classifier = build_classifier(ClassifierKind::RandomForest, 7, &scale.budget());
    classifier
        .fit(
            &normalized_src,
            scenario.source.labels(),
            scenario.source.num_classes(),
        )
        .expect("classifier fit failed");
    let (inv_test, _) = separation.split_normalized(scenario.target_test.features());
    let labels = scenario.target_test.labels();
    let num_classes = scenario.target_test.num_classes();

    println!(
        "\n{:>10} {:>12} {:>10} {:>10} {:>14}",
        "noise_dim", "M=1 vs M=9", "F1 (M=1)", "F1 (M=9)", "per-draw spread"
    );
    let base = if scenario.source.num_features() > 250 {
        CondGanConfig::for_5gc()
    } else {
        CondGanConfig::for_5gipc()
    };
    for noise_dim in [2usize, 8, base.noise_dim, 2 * base.noise_dim] {
        let mut gan = CondGan::new(
            CondGanConfig {
                noise_dim,
                epochs: scale.budget().gan_epochs,
                ..base.clone()
            },
            9,
        );
        gan.fit(&inv_src, &var_src, &scenario.source.one_hot_labels())
            .expect("gan fit failed");

        // One noise seed per test row, as the serving path draws them.
        let predict_with_seed = |seed: u64| -> (Vec<usize>, Matrix) {
            let mut seeds = SeededRng::new(seed);
            let row_seeds: Vec<u64> = (0..inv_test.rows()).map(|_| seeds.next_seed()).collect();
            let var_hat = gan.reconstruct(&inv_test, &row_seeds, InferPrecision::F64Exact);
            let full = separation.reassemble(&inv_test, &var_hat);
            let probs = classifier.predict_proba(&full);
            (argmax_rows(&probs), probs)
        };
        let (pred_m1, _) = predict_with_seed(100);
        // M = 9: average probabilities across 9 generator draws.
        let mut acc: Option<Matrix> = None;
        let mut spread = 0.0;
        let mut prev: Option<Vec<usize>> = None;
        for m in 0..9 {
            let (pred, probs) = predict_with_seed(200 + m);
            if let Some(p) = &prev {
                spread += disagreement(p, &pred);
            }
            prev = Some(pred);
            acc = Some(match acc {
                None => probs,
                Some(a) => a.try_add(&probs).expect("same shape"),
            });
        }
        let pred_m9 = argmax_rows(&acc.expect("nine draws"));
        let agree = 1.0 - disagreement(&pred_m1, &pred_m9);
        println!(
            "{:>10} {:>11.1}% {:>10.1} {:>10.1} {:>13.2}%",
            noise_dim,
            100.0 * agree,
            100.0 * macro_f1(labels, &pred_m1, num_classes),
            100.0 * macro_f1(labels, &pred_m9, num_classes),
            100.0 * spread / 8.0
        );
    }
    println!(
        "\nShape expectation (paper §V-C2): small noise dimensions give near-total\n\
         M=1 / M=9 agreement with no F1 loss, justifying single-pass inference."
    );
}

fn disagreement(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).filter(|(x, y)| x != y).count() as f64 / a.len() as f64
}
