//! Property-based tests for the guarded serving path: whatever batch a
//! caller throws at `try_reconstruct_batch_with`, the adapter returns a
//! typed error or a finite reconstruction — it never panics.

use std::cell::OnceCell;

use fsda_core::adapter::{AdapterConfig, FsGanAdapter};
use fsda_core::{GuardConfig, InferPrecision, InputPolicy, ServeError};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::Synth5gc;
use fsda_linalg::SeededRng;
use proptest::prelude::*;

thread_local! {
    /// One quick-budget adapter shared by every proptest case: fitting is
    /// the expensive part and the properties only exercise serving.
    static ADAPTER: OnceCell<FsGanAdapter> = const { OnceCell::new() };
}

fn with_adapter<T>(f: impl FnOnce(&FsGanAdapter) -> T) -> T {
    ADAPTER.with(|cell| {
        f(cell.get_or_init(|| {
            let bundle = Synth5gc::small().generate(77).expect("synthetic bundle");
            let mut rng = SeededRng::new(77 ^ 0xAB);
            let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).expect("shots");
            FsGanAdapter::fit(&bundle.source_train, &shots, &AdapterConfig::quick(), 79)
                .expect("clean fit")
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn try_reconstruct_batch_with_never_panics(
        seed in 0u64..1000,
        rows in 1usize..12,
        width_jitter in 0usize..3,
        policy in 0usize..3,
    ) {
        with_adapter(|adapter| -> Result<(), TestCaseError> {
        let d = adapter.separation().num_features();
        // Sometimes the wrong width, to drive the dimension check.
        let cols = match width_jitter {
            0 => d,
            1 => d.saturating_sub(1).max(1),
            _ => d + 1,
        };
        let mut rng = SeededRng::new(seed);
        let mut batch = rng.normal_matrix(rows, cols, 0.0, 50.0);
        for _ in 0..rng.index(5) {
            let (r, c) = (rng.index(rows), rng.index(cols));
            let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e18][rng.index(4)];
            batch.set(r, c, v);
        }
        let guard = GuardConfig::default().with_policy(
            [InputPolicy::Reject, InputPolicy::ImputeSourceMean, InputPolicy::Clamp][policy],
        );
        match adapter.try_reconstruct_batch_with(&batch, None, &guard, InferPrecision::F64Exact) {
            Ok(recon) => {
                prop_assert_eq!(recon.rows(), rows);
                prop_assert!(recon.is_finite());
            }
            Err(ServeError::DimensionMismatch { expected, got }) => {
                prop_assert_eq!(expected, d);
                prop_assert_eq!(got, cols);
                prop_assert!(cols != d);
            }
            Err(ServeError::NonFinite { row, col } | ServeError::OutOfRange { row, col, .. }) => {
                // Cell-level rejections only occur under the reject policy
                // and point at a real cell.
                prop_assert_eq!(policy, 0);
                prop_assert!(row < rows && col < cols);
            }
            Err(ServeError::NonFiniteOutput { .. }) => {}
        }
        // The guarded prediction path inherits the same contract.
        if let Ok(pred) = adapter.try_predict_batch(&batch, None, &guard) {
            prop_assert!(pred.iter().all(|&p| p < adapter.num_classes()));
        }
        Ok(())
        })?;
    }
}
