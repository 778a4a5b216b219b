//! Serving guardrails: input validation policies and typed errors for the
//! fallible serving entry points.
//!
//! Deployed pipelines ingest telemetry that the training code never saw:
//! collectors emit NaN for missed counters, overflow to Inf, or ship rows
//! whose values sit absurdly far outside the source support. The infallible
//! serving methods ([`crate::FsGanAdapter::reconstruct_batch_with`] and
//! friends) are garbage-in/garbage-out by contract; the `try_*` variants
//! accept a [`GuardConfig`] that either rejects such rows with a localized
//! [`ServeError`] or repairs them in place ([`InputPolicy::ImputeSourceMean`]
//! / [`InputPolicy::Clamp`]) before the batch reaches the generator.
//!
//! All range checks happen in *normalized* space: the source-fitted
//! normalizer maps the source support to `[-1, 1]`, so a normalized
//! magnitude above [`GuardConfig::max_abs_normalized`] means the raw value
//! sits that many half-ranges away from the source distribution — far
//! beyond anything drift produces, and a reliable corruption signal.

use crate::CoreError;
use fsda_data::normalize::Normalizer;
use fsda_linalg::Matrix;

/// What to do with a NaN/Inf or wildly out-of-range input cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputPolicy {
    /// Fail the whole batch with a localized [`ServeError`] (default).
    #[default]
    Reject,
    /// Replace the offending cell with the source-domain column center
    /// (the normalizer's per-column offset, which normalizes to `0.0`).
    ImputeSourceMean,
    /// Clamp the offending cell to the edge of the admissible range
    /// (`offset ± max_abs_normalized × scale` in raw units). NaN carries no
    /// direction to clamp toward and is imputed to the column center.
    Clamp,
}

/// Guardrail configuration for the `try_*` serving entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// How to handle corrupt cells.
    pub policy: InputPolicy,
    /// Largest admissible |value| in normalized space. Source data maps to
    /// `[-1, 1]`; drifted-but-genuine telemetry lands within a few units,
    /// so the permissive default of `1e6` only fires on actual corruption.
    pub max_abs_normalized: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            policy: InputPolicy::Reject,
            max_abs_normalized: 1e6,
        }
    }
}

impl GuardConfig {
    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: InputPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Errors raised by the fallible serving entry points, localized to the
/// first offending cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The batch has the wrong number of feature columns.
    DimensionMismatch {
        /// Feature count the pipeline was fitted with.
        expected: usize,
        /// Feature count of the offending batch.
        got: usize,
    },
    /// A NaN/Inf input cell under [`InputPolicy::Reject`].
    NonFinite {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
    },
    /// An input cell beyond the normalized-range limit under
    /// [`InputPolicy::Reject`].
    OutOfRange {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
        /// The cell's normalized value.
        value: f64,
        /// The configured limit it exceeded.
        limit: f64,
    },
    /// The pipeline itself produced a non-finite value — corrupt weights or
    /// a diverged reconstructor; the artifact should be retrained.
    NonFiniteOutput {
        /// Row of the offending output cell.
        row: usize,
        /// Column of the offending output cell.
        col: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} feature columns, got {got}")
            }
            ServeError::NonFinite { row, col } => {
                write!(f, "non-finite input at row {row}, column {col}")
            }
            ServeError::OutOfRange {
                row,
                col,
                value,
                limit,
            } => write!(
                f,
                "input at row {row}, column {col} normalizes to {value:.3e}, \
                 beyond the limit {limit:.3e}"
            ),
            ServeError::NonFiniteOutput { row, col } => {
                write!(
                    f,
                    "pipeline produced non-finite output at row {row}, column {col}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        CoreError::InvalidInput(e.to_string())
    }
}

/// Errors raised by the fallible training entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// A non-finite cell in the source training data under
    /// [`InputPolicy::Reject`].
    CorruptSource {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
    },
    /// A non-finite cell in the target shots under [`InputPolicy::Reject`].
    CorruptShots {
        /// Row of the offending cell.
        row: usize,
        /// Column of the offending cell.
        col: usize,
    },
    /// The reconstructor's guarded training diverged even after the
    /// watchdog exhausted its rollbacks; the pipeline is not serviceable.
    ReconstructionDiverged {
        /// Epoch (0-based) at which training gave up.
        epoch: usize,
    },
    /// Any other pipeline failure, unchanged from the infallible path.
    Core(CoreError),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::CorruptSource { row, col } => {
                write!(f, "non-finite source cell at row {row}, column {col}")
            }
            FitError::CorruptShots { row, col } => {
                write!(f, "non-finite target-shot cell at row {row}, column {col}")
            }
            FitError::ReconstructionDiverged { epoch } => {
                write!(f, "reconstructor training diverged at epoch {epoch}")
            }
            FitError::Core(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FitError {}

impl From<CoreError> for FitError {
    fn from(e: CoreError) -> Self {
        FitError::Core(e)
    }
}

impl From<FitError> for CoreError {
    fn from(e: FitError) -> Self {
        match e {
            FitError::Core(inner) => inner,
            other => CoreError::InvalidInput(other.to_string()),
        }
    }
}

/// Validates a serving batch against the source-fitted normalizer and the
/// guard policy. Returns `None` when the batch is already clean (the caller
/// keeps using its own reference — the hot path allocates nothing) or
/// `Some(repaired)` when cells were imputed/clamped.
///
/// # Errors
///
/// [`ServeError::DimensionMismatch`] on a column-count mismatch, and under
/// [`InputPolicy::Reject`] the localized [`ServeError::NonFinite`] /
/// [`ServeError::OutOfRange`] of the first offending cell.
pub(crate) fn sanitize_batch(
    features: &Matrix,
    normalizer: &Normalizer,
    guard: &GuardConfig,
) -> Result<Option<Matrix>, ServeError> {
    if features.cols() != normalizer.num_features() {
        return Err(rejected(ServeError::DimensionMismatch {
            expected: normalizer.num_features(),
            got: features.cols(),
        }));
    }
    let limit = guard.max_abs_normalized;
    let offset = normalizer.offset();
    let scale = normalizer.scale();
    let mut repaired: Option<Matrix> = None;
    // Repair tallies, emitted as aggregates once per batch; the clean path
    // (no corrupt cells) emits nothing.
    let mut imputed = 0u64;
    let mut clamped = 0u64;
    let mut repaired_rows = 0u64;
    let mut last_repaired_row = usize::MAX;
    for r in 0..features.rows() {
        for c in 0..features.cols() {
            let v = features.get(r, c);
            let fixed = if !v.is_finite() {
                match guard.policy {
                    InputPolicy::Reject => {
                        return Err(rejected(ServeError::NonFinite { row: r, col: c }))
                    }
                    InputPolicy::ImputeSourceMean => {
                        imputed += 1;
                        offset[c]
                    }
                    InputPolicy::Clamp => {
                        if v == f64::INFINITY {
                            clamped += 1;
                            offset[c] + limit * scale[c]
                        } else if v == f64::NEG_INFINITY {
                            clamped += 1;
                            offset[c] - limit * scale[c]
                        } else {
                            // NaN carries no direction; imputed, not clamped.
                            imputed += 1;
                            offset[c]
                        }
                    }
                }
            } else {
                let t = (v - offset[c]) / scale[c];
                if t.abs() <= limit {
                    continue;
                }
                match guard.policy {
                    InputPolicy::Reject => {
                        return Err(rejected(ServeError::OutOfRange {
                            row: r,
                            col: c,
                            value: t,
                            limit,
                        }))
                    }
                    InputPolicy::ImputeSourceMean => {
                        imputed += 1;
                        offset[c]
                    }
                    InputPolicy::Clamp => {
                        clamped += 1;
                        offset[c] + t.signum() * limit * scale[c]
                    }
                }
            };
            if r != last_repaired_row {
                last_repaired_row = r;
                repaired_rows += 1;
            }
            repaired
                .get_or_insert_with(|| features.clone())
                .set(r, c, fixed);
        }
    }
    if imputed + clamped > 0 {
        fsda_telemetry::with_recorder(|rec| {
            if imputed > 0 {
                rec.counter("serve.cells_imputed", imputed);
            }
            if clamped > 0 {
                rec.counter("serve.cells_clamped", clamped);
            }
            rec.counter("serve.rows_repaired", repaired_rows);
        });
    }
    Ok(repaired)
}

/// Counts a guarded-serving rejection before the error propagates; keeps
/// every `return Err(...)` site in [`sanitize_batch`] one expression.
pub(crate) fn rejected(e: ServeError) -> ServeError {
    fsda_telemetry::counter("serve.batches_rejected", 1);
    e
}

/// Fit-time variant of [`sanitize_batch`]: no normalizer exists yet, so
/// only non-finite cells are handled. Repair replaces a corrupt cell with
/// the mean of its column's finite entries (`0.0` when the whole column is
/// corrupt). Returns the location of the first corrupt cell under
/// [`InputPolicy::Reject`] as `Err((row, col))`.
pub(crate) fn sanitize_fit_features(
    features: &Matrix,
    policy: InputPolicy,
) -> Result<Option<Matrix>, (usize, usize)> {
    let mut repaired: Option<Matrix> = None;
    let mut col_means: Option<Vec<f64>> = None;
    for r in 0..features.rows() {
        for c in 0..features.cols() {
            if features.get(r, c).is_finite() {
                continue;
            }
            if policy == InputPolicy::Reject {
                return Err((r, c));
            }
            let means = col_means.get_or_insert_with(|| {
                (0..features.cols())
                    .map(|j| {
                        let col = features.col(j);
                        let finite: Vec<f64> =
                            col.iter().copied().filter(|v| v.is_finite()).collect();
                        if finite.is_empty() {
                            0.0
                        } else {
                            finite.iter().sum::<f64>() / finite.len() as f64
                        }
                    })
                    .collect()
            });
            let fill = means[c];
            repaired
                .get_or_insert_with(|| features.clone())
                .set(r, c, fill);
        }
    }
    Ok(repaired)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fsda_data::normalize::NormKind;

    fn norm() -> Normalizer {
        // Two columns, both spanning [0, 10] -> offset 5, scale 5.
        let train = Matrix::from_rows(&[&[0.0, 0.0], &[10.0, 10.0]]);
        Normalizer::fit(&train, NormKind::MinMaxSymmetric)
    }

    #[test]
    fn clean_batch_passes_without_allocation() {
        let batch = Matrix::from_rows(&[&[1.0, 2.0], &[9.0, 4.0]]);
        let out = sanitize_batch(&batch, &norm(), &GuardConfig::default()).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn dimension_mismatch_is_localized() {
        let batch = Matrix::zeros(2, 3);
        match sanitize_batch(&batch, &norm(), &GuardConfig::default()) {
            Err(ServeError::DimensionMismatch {
                expected: 2,
                got: 3,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reject_reports_first_bad_cell() {
        let batch = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, f64::NAN]]);
        match sanitize_batch(&batch, &norm(), &GuardConfig::default()) {
            Err(ServeError::NonFinite { row: 1, col: 1 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reject_flags_out_of_range() {
        let guard = GuardConfig {
            max_abs_normalized: 10.0,
            ..GuardConfig::default()
        };
        // 5 + 10*5 = 55 is the raw limit; 100 normalizes to 19.
        let batch = Matrix::from_rows(&[&[100.0, 2.0]]);
        match sanitize_batch(&batch, &norm(), &guard) {
            Err(ServeError::OutOfRange {
                row: 0,
                col: 0,
                value,
                limit,
            }) => {
                assert_eq!(limit, 10.0);
                assert!((value - 19.0).abs() < 1e-12);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn impute_replaces_with_column_center() {
        let guard = GuardConfig::default().with_policy(InputPolicy::ImputeSourceMean);
        let batch = Matrix::from_rows(&[&[f64::NAN, 2.0]]);
        let out = sanitize_batch(&batch, &norm(), &guard).unwrap().unwrap();
        assert_eq!(out.get(0, 0), 5.0);
        assert_eq!(out.get(0, 1), 2.0, "clean cells untouched");
    }

    #[test]
    fn clamp_respects_sign_and_limit() {
        let guard = GuardConfig {
            policy: InputPolicy::Clamp,
            max_abs_normalized: 2.0,
        };
        let batch = Matrix::from_rows(&[&[f64::INFINITY, f64::NEG_INFINITY], &[1e9, f64::NAN]]);
        let out = sanitize_batch(&batch, &norm(), &guard).unwrap().unwrap();
        assert_eq!(out.get(0, 0), 15.0); // 5 + 2*5
        assert_eq!(out.get(0, 1), -5.0); // 5 - 2*5
        assert_eq!(out.get(1, 0), 15.0); // finite but huge: clamped
        assert_eq!(out.get(1, 1), 5.0); // NaN: column center
    }

    #[test]
    fn fit_sanitizer_imputes_finite_column_mean() {
        let m = Matrix::from_rows(&[&[1.0, f64::NAN], &[3.0, 4.0]]);
        assert_eq!(sanitize_fit_features(&m, InputPolicy::Reject), Err((0, 1)));
        let out = sanitize_fit_features(&m, InputPolicy::ImputeSourceMean)
            .unwrap()
            .unwrap();
        assert_eq!(out.get(0, 1), 4.0, "mean of the finite entries");
        let clean = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert!(sanitize_fit_features(&clean, InputPolicy::Reject)
            .unwrap()
            .is_none());
    }

    #[test]
    fn errors_display_with_locations() {
        assert!(ServeError::NonFinite { row: 3, col: 7 }
            .to_string()
            .contains("row 3"));
        assert!(ServeError::DimensionMismatch {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains('4'));
        assert!(FitError::ReconstructionDiverged { epoch: 5 }
            .to_string()
            .contains('5'));
        let core: CoreError = FitError::CorruptShots { row: 1, col: 2 }.into();
        assert!(matches!(core, CoreError::InvalidInput(_)));
        let core: CoreError = FitError::Core(CoreError::Persist("x".into())).into();
        assert!(matches!(core, CoreError::Persist(_)));
    }
}
