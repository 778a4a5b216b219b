//! Reconstruction models for domain-variant features.
//!
//! Step 2 of the paper's framework: a conditional GAN, trained **only on
//! source-domain data**, learns `P(X_var | X_inv)` — how the domain-variant
//! features look given the invariant ones. At inference the generator maps
//! a target sample's variant features back into the source distribution, so
//! a classifier trained on source data with *all* features can be used
//! unchanged. Table II ablates the reconstruction family, so a VAE and a
//! vanilla autoencoder are provided behind the same [`Reconstructor`]
//! trait, plus the unconditioned-discriminator GAN variant (`FS+NoCond`).
//!
//! # Example
//!
//! ```
//! use fsda_linalg::{Matrix, SeededRng};
//! use fsda_gan::{InferPrecision, Reconstructor, autoencoder::{AeConfig, VanillaAe}};
//!
//! // x_var is a linear function of x_inv; the AE learns to reconstruct it.
//! let mut rng = SeededRng::new(0);
//! let x_inv = Matrix::from_fn(128, 2, |_, _| rng.normal(0.0, 1.0));
//! let x_var = Matrix::from_fn(128, 1, |r, _| 0.5 * x_inv.get(r, 0) - 0.3 * x_inv.get(r, 1));
//! let y = Matrix::zeros(128, 1);
//! let mut ae = VanillaAe::new(AeConfig { epochs: 200, ..AeConfig::default() }, 1);
//! ae.fit(&x_inv, &x_var, &y)?;
//! // One noise seed per row (the AE is deterministic and ignores them).
//! let seeds: Vec<u64> = (0..128).collect();
//! let recon = ae.reconstruct(&x_inv, &seeds, InferPrecision::F64Exact);
//! assert_eq!(recon.shape(), (128, 1));
//! # Ok::<(), fsda_gan::GanError>(())
//! ```

pub mod autoencoder;
pub mod cond_gan;
pub mod vae;

pub use cond_gan::{CondGan, CondGanConfig};
pub use fsda_nn::{InferPrecision, TrainOutcome, WatchdogConfig};

use autoencoder::AeConfig;
use fsda_linalg::{Matrix, SeededRng};
use fsda_nn::state::StateDict;
use fsda_nn::{InferPlan, Sequential};
use vae::VaeConfig;

/// Errors raised by reconstruction models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GanError {
    /// Mismatched shapes or empty inputs.
    InvalidInput(String),
    /// Reconstruction requested before training.
    NotFitted,
}

impl std::fmt::Display for GanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GanError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            GanError::NotFitted => write!(f, "model is not fitted"),
        }
    }
}

impl std::error::Error for GanError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GanError>;

/// A model reconstructing domain-variant features from invariant ones.
///
/// `fit` trains on source-domain samples only (the defining property of the
/// paper's approach); `reconstruct` generates source-like variant features
/// for arbitrary (e.g. target-domain) invariant features, one noise draw
/// per seed.
pub trait Reconstructor: Send + Sync {
    /// Trains on source data: invariant block, variant block, and one-hot
    /// labels (models that do not condition on labels ignore them).
    ///
    /// # Errors
    ///
    /// Returns [`GanError::InvalidInput`] when row counts disagree or any
    /// block is empty.
    fn fit(&mut self, x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix) -> Result<()>;

    /// Reconstructs variant features for `x_inv`, one generator draw per
    /// seed. `seeds` holds a whole number of `x_inv.rows()`-row draws,
    /// stacked draw-major: with `n = x_inv.rows()`, row `d·n + r` of the
    /// result is draw `d` of input row `r`, and its noise is seeded by
    /// `seeds[d·n + r]` alone. A row's output therefore depends only on
    /// its input row and its seed, never on how rows or draws are grouped
    /// into calls: a batch equals its rows reconstructed one at a time, and
    /// a stack of draws equals one call per draw. This is the contract the
    /// serving path relies on.
    ///
    /// [`InferPrecision::F64Exact`] is the exact path;
    /// [`InferPrecision::F32Fast`] may trade a small, bounded divergence for
    /// throughput (models with a compiled inference plan run the
    /// single-precision kernels). Models whose network input is
    /// `[x_inv | z]` compute the `x_inv` share of the first layer once for
    /// all draws; only the noise share is paid per draw.
    ///
    /// # Panics
    ///
    /// Panics when called before a successful [`Reconstructor::fit`], or
    /// when `seeds.len()` is not a whole number of `x_inv.rows()`-row
    /// draws.
    fn reconstruct(&self, x_inv: &Matrix, seeds: &[u64], precision: InferPrecision) -> Matrix;

    /// Short name for reports ("gan", "gan-nocond", "vae", "ae").
    fn name(&self) -> &'static str;

    /// How the last [`Reconstructor::fit`] ended, when the model tracks it
    /// with a divergence watchdog: `Converged`, `Recovered`, or `Diverged`.
    /// `None` before fit, for models without watchdog support, and for
    /// models restored from a snapshot (training history is not persisted).
    fn train_outcome(&self) -> Option<TrainOutcome> {
        None
    }

    /// Captures the fitted model as a self-describing [`ReconSnapshot`]
    /// (config + seed + dims + weights) that [`restore_reconstructor`]
    /// turns back into an equivalent model.
    ///
    /// # Errors
    ///
    /// Returns [`GanError::NotFitted`] before a successful fit and
    /// [`GanError::InvalidInput`] for models without snapshot support
    /// (the default).
    fn snapshot(&self) -> Result<ReconSnapshot> {
        Err(GanError::InvalidInput(format!(
            "reconstructor '{}' does not support snapshots",
            self.name()
        )))
    }
}

/// A serializable capture of a fitted reconstructor: enough to rebuild the
/// exact architecture (config + dims), plus its trained weights.
///
/// The training seed is carried for provenance; restoring overwrites every
/// parameter and buffer with the snapshot weights, so the rebuilt model
/// reconstructs bit-identically to the original.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconSnapshot {
    /// A fitted [`CondGan`] (conditional or the NoCond ablation).
    Gan {
        /// Architecture hyper-parameters.
        config: CondGanConfig,
        /// Training seed (provenance).
        seed: u64,
        /// `(invariant, variant)` feature dims recorded at fit.
        dims: (usize, usize),
        /// Generator weights and batch-norm running statistics.
        state: StateDict,
    },
    /// A fitted [`vae::Vae`].
    Vae {
        /// Architecture hyper-parameters.
        config: VaeConfig,
        /// Training seed (provenance).
        seed: u64,
        /// `(invariant, variant)` feature dims recorded at fit.
        dims: (usize, usize),
        /// Decoder weights.
        state: StateDict,
    },
    /// A fitted [`autoencoder::VanillaAe`].
    Ae {
        /// Architecture hyper-parameters.
        config: AeConfig,
        /// Training seed (provenance).
        seed: u64,
        /// `(invariant, variant)` feature dims recorded at fit.
        dims: (usize, usize),
        /// Network weights.
        state: StateDict,
    },
}

/// Rebuilds a fitted reconstructor from a [`ReconSnapshot`].
///
/// The architecture is reconstructed from the snapshot's config/dims and
/// every weight is overwritten with the snapshot state, so the returned
/// model's `reconstruct` output is bit-identical to the snapshotted one.
///
/// # Errors
///
/// Returns [`GanError::InvalidInput`] when the snapshot state does not
/// match the architecture its config describes (a corrupted or
/// hand-edited artifact).
pub fn restore_reconstructor(snapshot: &ReconSnapshot) -> Result<Box<dyn Reconstructor>> {
    match snapshot {
        ReconSnapshot::Gan {
            config,
            seed,
            dims,
            state,
        } => Ok(Box::new(CondGan::from_snapshot(
            config.clone(),
            *seed,
            *dims,
            state,
        )?)),
        ReconSnapshot::Vae {
            config,
            seed,
            dims,
            state,
        } => Ok(Box::new(vae::Vae::from_snapshot(
            config.clone(),
            *seed,
            *dims,
            state,
        )?)),
        ReconSnapshot::Ae {
            config,
            seed,
            dims,
            state,
        } => Ok(Box::new(autoencoder::VanillaAe::from_snapshot(
            config.clone(),
            *seed,
            *dims,
            state,
        )?)),
    }
}

/// Number of `rows`-row draws that `seeds` per-row seeds cover.
///
/// # Panics
///
/// Panics when `seeds` is not a whole number of draws.
pub(crate) fn draw_count(rows: usize, seeds: usize) -> usize {
    let draws = seeds.checked_div(rows).unwrap_or(0);
    assert_eq!(
        draws * rows,
        seeds,
        "reconstruct: {seeds} seeds are not a whole number of {rows}-row draws"
    );
    draws
}

/// Noise rows for per-row seeds: row `i` holds the first `dim` standard
/// normal draws of a fresh generator seeded with `seeds[i]`, so a row's
/// noise never depends on the rows drawn beside it.
pub(crate) fn seeded_noise(seeds: &[u64], dim: usize) -> Matrix {
    let mut z = Matrix::zeros(seeds.len(), dim);
    for (r, &seed) in seeds.iter().enumerate() {
        z.row_mut(r)
            .copy_from_slice(&SeededRng::new(seed).normal_vec(dim));
    }
    z
}

/// Forward pass of a network whose input is `[x_inv | z]`, where `z`
/// stacks `draws` noise blocks of `x_inv.rows()` rows draw-major. With a
/// compiled plan the `x_inv` share of the first layer is computed once for
/// every draw ([`InferPlan::infer_shared_prefix`]); without one, each
/// draw's input is assembled and run layer by layer (precision ignored).
/// Both give the bits of running `[x_inv | z_d]` draw by draw.
///
/// # Panics
///
/// Panics when `z.rows()` is not a whole number of draws.
pub(crate) fn forward_conditioned(
    plan: Option<&InferPlan>,
    net: &Sequential,
    x_inv: &Matrix,
    z: &Matrix,
    precision: InferPrecision,
) -> Matrix {
    let rows = x_inv.rows();
    draw_count(rows, z.rows());
    match plan {
        Some(plan) => plan.infer_shared_prefix(x_inv, z, precision),
        None => {
            let tiled = Matrix::from_fn(z.rows(), x_inv.cols(), |i, j| x_inv.get(i % rows, j));
            net.infer(&tiled.hstack(z).expect("one noise row per input row"))
        }
    }
}

/// Validates the common `fit` preconditions.
pub(crate) fn validate_fit(x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix) -> Result<()> {
    if x_inv.rows() == 0 {
        return Err(GanError::InvalidInput("no training samples".into()));
    }
    if x_inv.cols() == 0 || x_var.cols() == 0 {
        return Err(GanError::InvalidInput(
            "both invariant and variant blocks must be non-empty".into(),
        ));
    }
    if x_inv.rows() != x_var.rows() || x_inv.rows() != y_onehot.rows() {
        return Err(GanError::InvalidInput(format!(
            "row mismatch: inv {}, var {}, labels {}",
            x_inv.rows(),
            x_var.rows(),
            y_onehot.rows()
        )));
    }
    Ok(())
}

/// Test helper: `n` per-row noise seeds drawn from `seed`.
#[cfg(test)]
pub(crate) fn row_seeds(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SeededRng::new(seed);
    (0..n).map(|_| rng.next_seed()).collect()
}

/// Test helper: one exact draw of every row of `x_inv`, with per-row
/// seeds drawn from `seed`.
#[cfg(test)]
pub(crate) fn reconstruct_seeded(model: &dyn Reconstructor, x_inv: &Matrix, seed: u64) -> Matrix {
    model.reconstruct(
        x_inv,
        &row_seeds(x_inv.rows(), seed),
        InferPrecision::F64Exact,
    )
}

/// Test helper: the [`Reconstructor::reconstruct`] contract on a fitted
/// model, at both precisions. A stack of draws equals one call per draw;
/// a batch equals its rows reconstructed one at a time; a 0-row batch
/// gives `0 × d_var`; and a seed list that is not a whole number of draws
/// panics.
#[cfg(test)]
pub(crate) fn assert_reconstruct_contract(model: &dyn Reconstructor, x_inv: &Matrix) {
    let n = x_inv.rows();
    for precision in [InferPrecision::F64Exact, InferPrecision::F32Fast] {
        for draws in [1, 3] {
            let seeds = row_seeds(draws * n, 0x5EED ^ draws as u64);
            let stacked = model.reconstruct(x_inv, &seeds, precision);
            assert_eq!(stacked.rows(), seeds.len());
            for (d, draw_seeds) in seeds.chunks(n).enumerate() {
                let one = model.reconstruct(x_inv, draw_seeds, precision);
                for r in 0..n {
                    assert_eq!(stacked.row(d * n + r), one.row(r), "draw {d} row {r}");
                    let row =
                        model.reconstruct(&x_inv.select_rows(&[r]), &draw_seeds[r..=r], precision);
                    assert_eq!(row.row(0), one.row(r), "draw {d} row {r} alone");
                }
            }
        }
        let d_var = model.reconstruct(x_inv, &row_seeds(n, 1), precision).cols();
        let empty = model.reconstruct(&x_inv.select_rows(&[]), &[], precision);
        assert_eq!(empty.shape(), (0, d_var));
        let ragged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.reconstruct(&x_inv.select_rows(&[0, 0]), &row_seeds(3, 2), precision)
        }));
        assert!(ragged.is_err(), "a ragged seed list must panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!GanError::NotFitted.to_string().is_empty());
    }

    #[test]
    fn validate_catches_mismatches() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(2, 2);
        assert!(validate_fit(&a, &b, &a).is_err());
        assert!(validate_fit(
            &Matrix::zeros(0, 2),
            &Matrix::zeros(0, 2),
            &Matrix::zeros(0, 1)
        )
        .is_err());
        assert!(validate_fit(&a, &Matrix::zeros(3, 0), &a).is_err());
        assert!(validate_fit(&a, &a, &a).is_ok());
    }

    #[test]
    fn draw_count_rejects_ragged_seed_lists() {
        assert_eq!(draw_count(4, 12), 3);
        assert_eq!(draw_count(0, 0), 0);
        assert!(std::panic::catch_unwind(|| draw_count(4, 6)).is_err());
        assert!(std::panic::catch_unwind(|| draw_count(0, 2)).is_err());
    }
}
