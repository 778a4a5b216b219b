//! The unified mitigation interface.
//!
//! The paper's central claim is that drift mitigation is *model-agnostic*:
//! separation, reconstruction, and classification are independent stages
//! that compose with any downstream classifier. This module gives every
//! method one end-to-end interface:
//!
//! - [`DriftMitigator`] is the uniform end-to-end interface — `fit`,
//!   `try_fit`, `predict`, `predict_batch`, `try_predict_batch`,
//!   `to_bytes`, `health` — implemented by [`crate::FsAdapter`],
//!   [`crate::FsGanAdapter`], and every baseline via
//!   [`BaselineMitigator`].
//! - [`registry`] turns a [`Method`] into a boxed mitigator
//!   ([`Method::build`]) and restores one from artifact bytes
//!   ([`restore`]), replacing per-call-site `match` dispatch.
//! - [`fit_common`] hoists the normalization preamble every baseline used
//!   to copy-paste.
//!
//! # Serving without naming types
//!
//! ```no_run
//! use fsda_core::adapter::AdapterConfig;
//! use fsda_core::pipeline::DriftMitigator;
//! use fsda_core::Method;
//! use fsda_data::fewshot::few_shot_subset;
//! use fsda_data::synth5gc::Synth5gc;
//! use fsda_linalg::SeededRng;
//!
//! let bundle = Synth5gc::small().generate(1)?;
//! let mut rng = SeededRng::new(2);
//! let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
//! let mut mitigator = Method::FsGan.build(&AdapterConfig::quick(), 3);
//! mitigator.fit(&bundle.source_train, &shots)?;
//! let bytes = mitigator.to_bytes()?;
//! let served = fsda_core::pipeline::restore(&bytes)?;
//! let pred = served.predict_batch(bundle.target_test.features(), None);
//! # let _ = pred;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseline;
pub mod fit_common;
pub(crate) mod observe;
pub mod registry;

pub use baseline::BaselineMitigator;
pub use registry::restore;

use crate::method::Method;
use crate::serve::{FitError, GuardConfig, ServeError};
use crate::Result;
use fsda_data::Dataset;
use fsda_linalg::Matrix;
use fsda_models::InferPrecision;

/// The uniform end-to-end interface of every drift-mitigation method.
///
/// A mitigator is built unfitted (via [`Method::build`] or a concrete
/// constructor), trained once with [`DriftMitigator::fit`] /
/// [`DriftMitigator::try_fit`], and then serves predictions on raw
/// (unnormalized) target batches. The trait is object-safe, so experiments,
/// serving, and persistence all operate on `Box<dyn DriftMitigator>`
/// without naming concrete types; [`restore`] brings an artifact back as
/// one.
///
/// The FS+GAN family is stochastic at inference, yet every prediction
/// entry point returns the same labels: [`DriftMitigator::predict`] and
/// [`DriftMitigator::predict_batch`] both average class probabilities over
/// `MC_DRAWS` generator draws with one independent noise seed per row and
/// draw, bit-identical at every thread count; `predict` is `predict_batch`
/// with the default thread count. Deterministic mitigators serve both from
/// the same code path.
///
/// The trait requires `Send + Sync`: a fitted mitigator is immutable at
/// serving time (all prediction entry points take `&self` and no
/// implementation uses interior mutability), so the multi-tenant server can
/// share one artifact across its shard threads and hot-swap it without
/// copying (see the `fsda-serve` crate).
pub trait DriftMitigator: std::fmt::Debug + Send + Sync {
    /// The [`Method`] this mitigator implements.
    fn method(&self) -> Method;

    /// Whether the mitigator has been fitted (or restored from an
    /// artifact).
    fn is_fitted(&self) -> bool;

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics when the mitigator has not been fitted.
    fn num_classes(&self) -> usize;

    /// Trains the mitigator from source data and the few target shots.
    ///
    /// # Errors
    ///
    /// Propagates separation, reconstruction, and training failures.
    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()>;

    /// Guarded variant of [`DriftMitigator::fit`]: validates both training
    /// sets against `guard.policy` before fitting.
    ///
    /// # Errors
    ///
    /// [`FitError::CorruptSource`] / [`FitError::CorruptShots`] localize
    /// the first non-finite training cell under
    /// [`crate::InputPolicy::Reject`]; everything the infallible path
    /// raises arrives as [`FitError::Core`].
    fn try_fit(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let (src, shots) = fit_common::sanitize_fit_pair(source, target_shots, guard.policy)?;
        self.fit(
            src.as_ref().unwrap_or(source),
            shots.as_ref().unwrap_or(target_shots),
        )?;
        Ok(())
    }

    /// Predicts labels for raw target features. Identical to
    /// [`DriftMitigator::predict_batch`] with the default thread count.
    ///
    /// # Panics
    ///
    /// Panics when the mitigator has not been fitted or on a column-count
    /// mismatch.
    fn predict(&self, features: &Matrix) -> Vec<usize>;

    /// Batched serving prediction. For the FS+GAN family this uses one
    /// independent noise seed per row and parallelizes over row chunks
    /// (bit-identical at every thread count); deterministic mitigators
    /// ignore `threads`.
    ///
    /// # Panics
    ///
    /// As [`DriftMitigator::predict`].
    fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        let _ = threads;
        self.predict(features)
    }

    /// Guarded variant of [`DriftMitigator::predict_batch`]: validates the
    /// batch (rejecting or repairing corrupt cells per `guard`) before
    /// prediction.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a column-count mismatch, and
    /// the localized [`ServeError`] of the first corrupt cell under
    /// [`crate::InputPolicy::Reject`].
    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> std::result::Result<Vec<usize>, ServeError>;

    /// [`DriftMitigator::predict_batch`] at an explicit numeric precision.
    ///
    /// [`InferPrecision::F64Exact`] (the default everywhere) must be
    /// bit-identical to `predict_batch`; [`InferPrecision::F32Fast`] lets
    /// mitigators with a compiled inference plan run the single-precision
    /// kernels, trading a small bounded divergence for throughput. The
    /// default implementation ignores the hint and serves the exact path,
    /// so baselines without a fast path stay correct.
    ///
    /// Every entry increments the
    /// `pipeline.predict.precision.{f64_exact,f32_fast}` counter.
    ///
    /// # Panics
    ///
    /// As [`DriftMitigator::predict_batch`].
    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        observe::note_precision(precision);
        self.predict_batch(features, threads)
    }

    /// [`DriftMitigator::try_predict_batch`] at an explicit numeric
    /// precision; the serving precision policy enters here. The default
    /// ignores the hint (exact path); see
    /// [`DriftMitigator::predict_batch_with`] for the contract.
    ///
    /// # Errors
    ///
    /// As [`DriftMitigator::try_predict_batch`].
    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        observe::note_precision(precision);
        self.try_predict_batch(features, threads, guard)
    }

    /// Serializes the fitted mitigator into a versioned artifact (see
    /// [`crate::persist`] for the container format). [`restore`] reverses
    /// this for every registered method.
    ///
    /// # Errors
    ///
    /// Fails when the mitigator has not been fitted or a component does not
    /// support snapshots.
    fn to_bytes(&self) -> Result<Vec<u8>>;

    /// The domain-variant feature columns this mitigator identified during
    /// fitting, when it performs feature separation (`FS`, `FS+GAN` and its
    /// reconstruction variants). Baselines that never look at the causal
    /// structure return `None` — which scenario scoring treats as "nothing
    /// detected", distinct from an empty detection.
    fn variant_features(&self) -> Option<Vec<usize>> {
        None
    }

    /// One-line health summary for experiment logs and serving dashboards.
    fn health(&self) -> String {
        format!(
            "pipeline health: method={} status={}",
            self.method().label(),
            if self.is_fitted() {
                "fitted"
            } else {
                "unfitted"
            }
        )
    }
}
