//! Fault-injection no-panic suite: replays deterministic telemetry
//! corruption (see `fsda_data::faultinject`) against every public entry
//! point of the pipeline and asserts the robustness contract — corrupt
//! input yields a typed `Err` or a flagged degraded result, never a panic,
//! and anything served back to the caller is finite.

use fsda::causal::ci::FisherZ;
use fsda::core::adapter::{AdapterConfig, FsAdapter, FsGanAdapter};
use fsda::core::fs::{FeatureSeparation, FsConfig};
use fsda::core::{FitError, GuardConfig, InferPrecision, InputPolicy};
use fsda::data::csv::{read_csv, write_csv};
use fsda::data::dataset::Dataset;
use fsda::data::faultinject::{CsvFault, Fault};
use fsda::data::fewshot::{few_shot_indices, few_shot_subset};
use fsda::data::synth5gc::Synth5gc;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::linalg::{Matrix, SeededRng};

const CORRUPTION_SEED: u64 = 0xBAD;

fn policies() -> [GuardConfig; 3] {
    [
        GuardConfig::default(),
        GuardConfig::default().with_policy(InputPolicy::ImputeSourceMean),
        GuardConfig::default().with_policy(InputPolicy::Clamp),
    ]
}

/// The serving contract, checked for one adapter against one corrupted
/// batch under every input policy: each guarded call either reports a
/// typed error or returns fully finite outputs. The repairing policies
/// must additionally succeed whenever the batch keeps its column count
/// (no fault in the canonical suite changes it).
fn assert_serving_contract(adapter: &FsGanAdapter, fs: &FsAdapter, batch: &Matrix, label: &str) {
    for guard in policies() {
        match adapter.try_reconstruct_batch_with(batch, None, &guard, InferPrecision::F64Exact) {
            Ok(recon) => {
                assert!(
                    recon.is_finite(),
                    "{label}/{:?}: reconstruction must be finite",
                    guard.policy
                );
            }
            Err(_) => assert!(
                matches!(guard.policy, InputPolicy::Reject),
                "{label}/{:?}: repairing policies must not fail on same-width batches",
                guard.policy
            ),
        }
        match adapter.try_predict_batch(batch, None, &guard) {
            Ok(pred) => assert!(pred.iter().all(|&p| p < adapter.num_classes())),
            Err(_) => assert!(matches!(guard.policy, InputPolicy::Reject)),
        }
        match fs.try_predict(batch, &guard) {
            Ok(pred) => assert!(pred.iter().all(|&p| p < adapter.num_classes())),
            Err(_) => assert!(matches!(guard.policy, InputPolicy::Reject)),
        }
    }
}

#[test]
fn serving_survives_corrupt_5gc_batches() {
    let bundle = Synth5gc::small().generate(41).unwrap();
    let mut rng = SeededRng::new(41 ^ 0xAB);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let cfg = AdapterConfig::quick();
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 43).unwrap();
    let fs = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 43).unwrap();

    for fault in Fault::canonical_suite() {
        let batch = fault.apply_to_matrix(bundle.target_test.features(), CORRUPTION_SEED);
        assert_serving_contract(&adapter, &fs, &batch, fault.name());
    }
}

#[test]
fn serving_survives_corrupt_5gipc_batches() {
    let bundle = Synth5gipc::small().generate(42).unwrap();
    let mut rng = SeededRng::new(42 ^ 0xAB);
    let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, 5, &mut rng).unwrap();
    let shots = bundle.target_pool.subset(&idx);
    let cfg = AdapterConfig::quick();
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 44).unwrap();
    let fs = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 44).unwrap();

    for fault in Fault::canonical_suite() {
        let batch = fault.apply_to_matrix(bundle.target_test.features(), CORRUPTION_SEED);
        assert_serving_contract(&adapter, &fs, &batch, fault.name());
    }
}

#[test]
fn fitting_survives_corrupt_shots() {
    let bundle = Synth5gc::small().generate(45).unwrap();
    let mut rng = SeededRng::new(45 ^ 0xAB);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let cfg = AdapterConfig::quick();
    let impute = GuardConfig::default().with_policy(InputPolicy::ImputeSourceMean);

    for fault in Fault::canonical_suite() {
        let corrupt = fault.apply(&shots, CORRUPTION_SEED).unwrap();
        // Under the repairing policy, fitting either succeeds with a
        // serviceable adapter or reports a typed failure (e.g. watchdog
        // divergence) — it never panics.
        match FsGanAdapter::try_fit(&bundle.source_train, &corrupt, &cfg, 47, &impute) {
            Ok(adapter) => {
                let pred = adapter
                    .try_predict_batch(bundle.target_test.features(), None, &impute)
                    .unwrap();
                assert!(pred.iter().all(|&p| p < adapter.num_classes()));
            }
            Err(e) => {
                assert!(
                    !matches!(e, FitError::CorruptShots { .. }),
                    "{}: impute policy should repair corrupt cells, got {e}",
                    fault.name()
                );
            }
        }
    }

    // The reject policy localizes non-finite training cells instead of
    // training on them.
    let nan_shots = Fault::NanCells { fraction: 0.05 }
        .apply(&shots, CORRUPTION_SEED)
        .unwrap();
    assert!(matches!(
        FsGanAdapter::try_fit(
            &bundle.source_train,
            &nan_shots,
            &cfg,
            47,
            &GuardConfig::default()
        ),
        Err(FitError::CorruptShots { .. })
    ));
    let nan_source = Dataset::new(
        Fault::InfCells { fraction: 0.02 }
            .apply_to_matrix(bundle.source_train.features(), CORRUPTION_SEED),
        bundle.source_train.labels().to_vec(),
        bundle.source_train.num_classes(),
    )
    .unwrap();
    assert!(matches!(
        FsGanAdapter::try_fit(&nan_source, &shots, &cfg, 47, &GuardConfig::default()),
        Err(FitError::CorruptSource { .. })
    ));
}

#[test]
fn separation_and_ci_reject_or_tolerate_corruption() {
    let bundle = Synth5gc::small().generate(48).unwrap();
    let mut rng = SeededRng::new(48 ^ 0xAB);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();

    for fault in Fault::canonical_suite() {
        let corrupt = fault.apply(&shots, CORRUPTION_SEED).unwrap();
        // Ok (the search tolerates the corruption, e.g. dead counters via
        // the ridge fallback) or a typed Err (non-finite cells) — no panic.
        let _ = FeatureSeparation::fit(&bundle.source_train, &corrupt, &FsConfig::default());

        let matrix = fault.apply_to_matrix(shots.features(), CORRUPTION_SEED);
        match FisherZ::new(&matrix) {
            Ok(test) => {
                // Constant columns and permutations are tolerated; every
                // p-value the test produces must still be a probability.
                use fsda::causal::ci::CondIndepTest;
                let p = test.pvalue(0, 1, &[2]).unwrap();
                assert!((0.0..=1.0).contains(&p), "{}: p={p}", fault.name());
            }
            Err(_) => {
                assert!(
                    !matrix.is_finite(),
                    "{}: FisherZ::new may only reject non-finite data",
                    fault.name()
                );
            }
        }
    }
}

#[test]
fn csv_ingestion_reports_typed_errors() {
    let bundle = Synth5gc::small().generate(49).unwrap();
    let mut rng = SeededRng::new(49 ^ 0xAB);
    let small = few_shot_subset(&bundle.target_pool, 5, &mut rng).unwrap();
    let mut buf = Vec::new();
    write_csv(&small, &mut buf).unwrap();
    let clean = String::from_utf8(buf).unwrap();

    assert!(read_csv(clean.as_bytes()).is_ok());
    for fault in CsvFault::all() {
        let broken = fault.apply(&clean, CORRUPTION_SEED);
        let err = read_csv(broken.as_bytes());
        assert!(err.is_err(), "{fault:?}: corrupt csv must not parse");
        // Errors are typed and printable (line numbers for row-level
        // faults); formatting must not panic either.
        let _ = format!("{}", err.unwrap_err());
    }
}
