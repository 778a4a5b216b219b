//! The full FS+GAN adapter (Fig. 1 of the paper): classifier trained on
//! **all** features of the source domain, served behind a [`Reconstructor`]
//! that maps each test sample's variant features back into the source
//! distribution at inference — no classifier retraining ever.

use super::{
    build_classifier, build_reconstructor, decode_meta, decode_separation, encode_meta, row_seed,
    AdapterConfig, DegradedMode, ReconKind,
};
use crate::fs::FeatureSeparation;
use crate::persist::{
    find_section, read_classifier_snapshot, read_container, read_recon_snapshot,
    write_classifier_snapshot, write_container, write_normalizer, write_recon_snapshot,
    write_separation, Decoder, Encoder, TAG_CLSF, TAG_FSEP, TAG_META, TAG_NORM, TAG_RECN,
};
use crate::pipeline::observe;
use crate::serve::{sanitize_batch, FitError, GuardConfig, ServeError};
use crate::{CoreError, Result};
use fsda_data::Dataset;
use fsda_gan::{restore_reconstructor, Reconstructor, TrainOutcome};
use fsda_linalg::par::{par_map, resolve_threads};
use fsda_linalg::Matrix;
use fsda_models::classifier::argmax_rows;
use fsda_models::restore_classifier;
use fsda_models::{Classifier, InferPrecision};

/// The trained components of an [`FsGanAdapter`], present only after `fit`.
struct FittedFsGan {
    separation: FeatureSeparation,
    reconstructor: Option<Box<dyn Reconstructor>>,
    classifier: Box<dyn Classifier>,
    num_classes: usize,
}

/// The full FS+GAN adapter (Fig. 1 of the paper).
pub struct FsGanAdapter {
    config: AdapterConfig,
    seed: u64,
    fitted: Option<FittedFsGan>,
}

/// Monte-Carlo draws averaged by every prediction entry point (the
/// general expectation the paper states before Eq. 10). The paper's M = 1
/// shortcut is justified only "for small noise vectors"; the default
/// generator draws a 15- (5GIPC-sized) or 30-dimensional (5GC-sized)
/// noise block, and a single draw leaks that sampling variance straight
/// into the served labels. The `mc_ablation` bench (EXPERIMENTS.md A1),
/// which draws noise per row as serving does, measures M = 9 against
/// M = 1: 81–82 % label agreement at noise 15 and 30, and macro-F1
/// gains of 5.3 and 4.8 points there (1.7–2.1 points even at noise 2
/// and 8). Eight draws sit next to that M = 9 reference. Only the
/// noise-dependent work grows with the draw count: each request is
/// normalized and split once, and the generator's first-layer product
/// over the invariant block is computed once for all draws; the noise
/// share of that layer, the rest of the generator, and the classifier
/// run per draw, stacked into shared batches. The reconstruction entry
/// points ([`FsGanAdapter::reconstruct_batch_with`],
/// [`FsGanAdapter::reconstruct_draw_with`]) still expose single draws —
/// callers that want samples get samples, but a *label* is a posterior
/// summary and is averaged.
pub const MC_DRAWS: u64 = 8;

/// Rows per Monte-Carlo batch: requests are split into row blocks of at
/// most this many rows, and a block's draws are stacked into classifier
/// batches up to this size (the generator plan groups its draws the same
/// way). Larger stacks gain nothing per row and grow the working set.
const MC_BATCH_ROWS: usize = 64;

/// `rows` split into at most `threads` contiguous `(start, end)` chunks.
fn row_chunks(rows: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = rows.div_ceil(threads).max(1);
    (0..rows)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(rows)))
        .collect()
}

/// The first non-finite cell of `x`, a draw-major stack of `n`-row draws
/// starting at draw `draw0` and request row `row0`, as `(draw, row, col)`
/// in (draw, row) order.
fn first_non_finite(x: &Matrix, n: usize, draw0: u64, row0: usize) -> Option<(u64, usize, usize)> {
    (0..x.rows()).find_map(|i| {
        let col = x.row(i).iter().position(|v| !v.is_finite())?;
        Some((draw0 + (i / n) as u64, row0 + i % n, col))
    })
}

impl std::fmt::Debug for FsGanAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fitted {
            Some(fitted) => f
                .debug_struct("FsGanAdapter")
                .field("variant_features", &fitted.separation.variant().len())
                .field(
                    "reconstructor",
                    &fitted
                        .reconstructor
                        .as_ref()
                        .map(|r| r.name())
                        .unwrap_or("none"),
                )
                .field("classifier", &fitted.classifier.name())
                .finish(),
            None => f
                .debug_struct("FsGanAdapter")
                .field("fitted", &false)
                .finish(),
        }
    }
}

impl FsGanAdapter {
    /// Creates an unfitted adapter; train it with
    /// [`DriftMitigator::fit`](crate::pipeline::DriftMitigator::fit).
    pub fn new(config: AdapterConfig, seed: u64) -> Self {
        FsGanAdapter {
            config,
            seed,
            fitted: None,
        }
    }

    /// Fits the full pipeline: FS, then the reconstructor on source data
    /// only, then the classifier on all normalized source features.
    ///
    /// When FS finds no variant features the reconstructor is skipped and
    /// prediction degenerates to plain source-trained classification (the
    /// correct behaviour when no drift is detectable).
    ///
    /// # Errors
    ///
    /// Propagates separation, reconstruction, and training failures.
    pub fn fit(
        source: &Dataset,
        target_shots: &Dataset,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
        adapter.fit_in_place(source, target_shots)?;
        Ok(adapter)
    }

    /// Trains this adapter's components from its stored config and seed.
    pub(crate) fn fit_in_place(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let stage = observe::start_stage();
        let separation = FeatureSeparation::fit(source, target_shots, &self.config.fs)?;
        observe::finish_stage(stage, "separation");
        self.fit_components(source, separation)
    }

    /// Fits the reconstructor + classifier behind a **precomputed**
    /// separation — the warm re-fit path: a drift controller that already
    /// re-separated through a [`crate::fs::SeparationCache`] skips the
    /// F-node search entirely and only pays for the source-side training.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidInput`] when the separation's
    /// feature space disagrees with `source`, and propagates reconstruction
    /// / training failures.
    pub fn fit_with_separation(
        source: &Dataset,
        separation: FeatureSeparation,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        if separation.num_features() != source.num_features() {
            return Err(crate::CoreError::InvalidInput(format!(
                "separation covers {} features, source has {}",
                separation.num_features(),
                source.num_features()
            )));
        }
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
        adapter.fit_components(source, separation)?;
        Ok(adapter)
    }

    /// The source-side training shared by [`fit_in_place`]
    /// (`FsGanAdapter::fit_in_place`) and
    /// [`FsGanAdapter::fit_with_separation`].
    fn fit_components(&mut self, source: &Dataset, separation: FeatureSeparation) -> Result<()> {
        let (inv, var) = separation.split_normalized(source.features());
        // Degenerate partitions (all-variant or all-invariant) skip the
        // reconstructor and serve as normalized pass-through; see
        // [`FsGanAdapter::degraded`].
        let reconstructor = if separation.variant().is_empty() || separation.invariant().is_empty()
        {
            None
        } else {
            let stage = observe::start_stage();
            let mut recon = build_reconstructor(
                self.config.recon,
                source.num_features(),
                self.seed ^ 0x6A17,
                &self.config.budget,
                self.config.watchdog,
            );
            recon.fit(&inv, &var, &source.one_hot_labels())?;
            observe::finish_stage(stage, "reconstruction");
            Some(recon)
        };
        // The network-management model: trained once, on source only, with
        // ALL features — never retrained afterwards.
        let normalized = separation.normalizer().transform(source.features());
        let stage = observe::start_stage();
        let mut classifier =
            build_classifier(self.config.classifier, self.seed, &self.config.budget);
        classifier.fit(&normalized, source.labels(), source.num_classes())?;
        observe::finish_stage(stage, "classifier");
        self.fitted = Some(FittedFsGan {
            separation,
            reconstructor,
            classifier,
            num_classes: source.num_classes(),
        });
        Ok(())
    }

    /// Guarded variant of [`FsGanAdapter::fit`]: validates both training
    /// sets against `guard.policy` before fitting (rejecting or repairing
    /// NaN/Inf cells) and fails when the reconstructor's watchdog reports
    /// divergence, so a successfully returned adapter is always
    /// serviceable.
    ///
    /// # Errors
    ///
    /// [`FitError::CorruptSource`] / [`FitError::CorruptShots`] localize
    /// the first non-finite training cell under [`crate::InputPolicy::Reject`];
    /// [`FitError::ReconstructionDiverged`] reports watchdog exhaustion;
    /// everything the infallible path raises arrives as [`FitError::Core`].
    pub fn try_fit(
        source: &Dataset,
        target_shots: &Dataset,
        config: &AdapterConfig,
        seed: u64,
        guard: &GuardConfig,
    ) -> std::result::Result<Self, FitError> {
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
        adapter.try_fit_in_place(source, target_shots, guard)?;
        Ok(adapter)
    }

    /// Guarded in-place training from the stored config and seed.
    pub(crate) fn try_fit_in_place(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let (src, shots) =
            crate::pipeline::fit_common::sanitize_fit_pair(source, target_shots, guard.policy)?;
        self.fit_in_place(
            src.as_ref().unwrap_or(source),
            shots.as_ref().unwrap_or(target_shots),
        )?;
        if let Some(TrainOutcome::Diverged { epoch }) = self.train_outcome() {
            return Err(FitError::ReconstructionDiverged { epoch });
        }
        Ok(())
    }

    fn fitted(&self) -> &FittedFsGan {
        match &self.fitted {
            Some(fitted) => fitted,
            None => panic!("FsGanAdapter: use before fit"),
        }
    }

    /// Whether the adapter has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// The configuration this adapter was built with.
    pub fn config(&self) -> &AdapterConfig {
        &self.config
    }

    /// The underlying feature separation.
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn separation(&self) -> &FeatureSeparation {
        &self.fitted().separation
    }

    /// The fitted network-management classifier (trained once, on all
    /// source features).
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn classifier(&self) -> &dyn Classifier {
        self.fitted().classifier.as_ref()
    }

    /// Name of the fitted reconstructor, `None` in degraded pass-through
    /// mode.
    pub fn reconstructor_name(&self) -> Option<&str> {
        self.fitted()
            .reconstructor
            .as_deref()
            .map(Reconstructor::name)
    }

    /// Whether this adapter serves in a degraded pass-through mode (no
    /// reconstructor), and why. `None` for a healthy pipeline.
    pub fn degraded(&self) -> Option<DegradedMode> {
        let fitted = self.fitted();
        if fitted.reconstructor.is_some() {
            None
        } else if fitted.separation.variant().is_empty() {
            Some(DegradedMode::NoVariantFeatures)
        } else {
            Some(DegradedMode::NoInvariantFeatures)
        }
    }

    /// How the reconstructor's guarded training ended. `None` when there is
    /// no reconstructor (degraded modes) or the adapter was restored from
    /// an artifact (training history is not persisted).
    pub fn train_outcome(&self) -> Option<TrainOutcome> {
        self.fitted()
            .reconstructor
            .as_ref()
            .and_then(|r| r.train_outcome())
    }

    /// Predicts labels for raw target features, averaging class
    /// probabilities over [`MC_DRAWS`] generator draws (Eq. 12 via the
    /// general expectation before Eq. 10). Identical to
    /// [`FsGanAdapter::predict_batch`] with the default thread count.
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        argmax_rows(&self.mc_proba_with(features, None, InferPrecision::F64Exact))
    }

    /// Monte-Carlo prediction with an explicit number of generator draws
    /// `m`, averaging class probabilities (the general Eq. before Eq. 10).
    /// Draws use the same per-row seeding as the batch serving path, so
    /// `m` = [`MC_DRAWS`] reproduces [`FsGanAdapter::predict`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn predict_mc(&self, features: &Matrix, m: usize) -> Vec<usize> {
        assert!(m > 0, "predict_mc: m must be >= 1");
        argmax_rows(&self.mc_proba_draws(features, None, InferPrecision::F64Exact, m as u64))
    }

    /// Class-probability predictions averaged over [`MC_DRAWS`] draws.
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        self.mc_proba_with(features, None, InferPrecision::F64Exact)
    }

    /// Mean class probabilities over [`MC_DRAWS`] reconstruction draws.
    fn mc_proba_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Matrix {
        self.mc_proba_draws(features, threads, precision, MC_DRAWS)
    }

    /// Infallible MC accumulation: the finite check is the accumulator's
    /// only error source, and it is disabled here.
    fn mc_proba_draws(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
        draws: u64,
    ) -> Matrix {
        match self.mc_proba_checked(features, threads, precision, draws, false) {
            Ok(probs) => probs,
            Err(e) => unreachable!("unchecked MC accumulation reported {e}"),
        }
    }

    /// The shared Monte-Carlo accumulator behind every prediction entry
    /// point: averages the classifier's probabilities over `draws`
    /// independent reconstruction draws (per-row seeded, so the result is
    /// chunking- and thread-count-invariant) and — when `check_finite` is
    /// set — fails with the guarded path's [`ServeError::NonFiniteOutput`]
    /// on the first non-finite reconstructed cell in (draw, row) order.
    /// Degraded (pass-through) adapters collapse to a single draw: without
    /// a reconstructor every draw is identical.
    ///
    /// Each thread's rows are processed in blocks of at most
    /// [`MC_BATCH_ROWS`]: a block is normalized and split once, all its
    /// draws are reconstructed in one call (the generator's invariant share
    /// computed once), and the draws are classified in stacked batches.
    /// Every draw's probabilities are summed in ascending draw order and
    /// scaled by `1 / draws`, so the result is bit-identical to
    /// classifying each draw separately and folding the draws one by one.
    fn mc_proba_checked(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
        draws: u64,
        check_finite: bool,
    ) -> std::result::Result<Matrix, ServeError> {
        let fitted = self.fitted();
        let rows = features.rows();
        if rows == 0 {
            let empty = fitted.separation.normalizer().transform(features);
            return Ok(fitted.classifier.predict_proba_with(&empty, precision));
        }
        let draws = if fitted.reconstructor.is_some() {
            draws.max(1)
        } else {
            1
        };
        let threads = resolve_threads(threads);
        let blocks = par_map(threads, &row_chunks(rows, threads), |_, &(start, end)| {
            (start..end)
                .step_by(MC_BATCH_ROWS)
                .map(|b0| {
                    let block = b0..(b0 + MC_BATCH_ROWS).min(end);
                    self.mc_block(features, block, precision, draws, check_finite)
                })
                .collect::<Vec<_>>()
        });
        let mut probs = Vec::new();
        let mut first_bad: Option<(u64, usize, usize)> = None;
        for block in blocks.into_iter().flatten() {
            match block {
                Ok(mean) => probs.extend(mean),
                Err(bad) => first_bad = Some(first_bad.map_or(bad, |b| b.min(bad))),
            }
        }
        match first_bad {
            Some((_, row, col)) => Err(ServeError::NonFiniteOutput { row, col }),
            None => Ok(Matrix::from_vec(rows, probs.len() / rows, probs)),
        }
    }

    /// One row block of [`FsGanAdapter::mc_proba_checked`]: the block's
    /// mean probabilities, row-major, or (when `check_finite` is set) its
    /// first non-finite reconstructed cell as `(draw, row, col)`. A batch
    /// of draws is checked before it is classified, so the classifier
    /// never sees a non-finite reconstruction.
    fn mc_block(
        &self,
        features: &Matrix,
        block: std::ops::Range<usize>,
        precision: InferPrecision,
        draws: u64,
        check_finite: bool,
    ) -> std::result::Result<Vec<f64>, (u64, usize, usize)> {
        let fitted = self.fitted();
        let separation = &fitted.separation;
        let n = block.len();
        let (inv, var_hats) = self.draw_block(features, block.clone(), 0..draws, precision);
        let per_batch = (MC_BATCH_ROWS / n).max(1) as u64;
        let mut sum: Option<Vec<f64>> = None;
        for first in (0..draws).step_by(per_batch as usize) {
            let last = (first + per_batch).min(draws);
            let stacked: Vec<usize> = (first as usize * n..last as usize * n).collect();
            let x = separation.reassemble(&inv, &var_hats.select_rows(&stacked));
            if check_finite {
                if let Some(bad) = first_non_finite(&x, n, first, block.start) {
                    return Err(bad);
                }
            }
            let probs = fitted.classifier.predict_proba_with(&x, precision);
            for draw in probs.as_slice().chunks((n * probs.cols()).max(1)) {
                match &mut sum {
                    None => sum = Some(draw.to_vec()),
                    Some(acc) => acc.iter_mut().zip(draw).for_each(|(a, &p)| *a += p),
                }
            }
        }
        let scale = 1.0 / draws as f64;
        let mut mean = sum.unwrap_or_default();
        mean.iter_mut().for_each(|v| *v *= scale);
        Ok(mean)
    }

    /// Base of draw `draw`'s per-row noise seeds.
    fn draw_base(&self, draw: u64) -> u64 {
        self.seed ^ 0x11FE ^ (draw << 32)
    }

    /// The row-block routine behind every reconstruction and Monte-Carlo
    /// entry point: rows `block` of `features` are normalized and split
    /// once, and draws `draws` of their variant block are reconstructed in
    /// one [`Reconstructor::reconstruct`] call, stacked draw-major. Returns
    /// `(invariant block, variant draws)`. Request row `row` of draw `d` is
    /// seeded by `row_seed(draw_base(d), row)`, so its bits depend only on
    /// the row and the draw, never on how rows are blocked or threaded.
    /// Without a reconstructor the normalized variant block passes through
    /// as the only draw.
    fn draw_block(
        &self,
        features: &Matrix,
        block: std::ops::Range<usize>,
        draws: std::ops::Range<u64>,
        precision: InferPrecision,
    ) -> (Matrix, Matrix) {
        let fitted = self.fitted();
        let idx: Vec<usize> = block.clone().collect();
        let block_rows = features.select_rows(&idx);
        let (inv, var) = fitted.separation.split_normalized(&block_rows);
        let var_hats = match &fitted.reconstructor {
            Some(recon) => {
                let seeds: Vec<u64> = draws
                    .flat_map(|d| {
                        let base = self.draw_base(d);
                        block.clone().map(move |row| row_seed(base, row as u64))
                    })
                    .collect();
                recon.reconstruct(&inv, &seeds, precision)
            }
            None => var,
        };
        (inv, var_hats)
    }

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn num_classes(&self) -> usize {
        self.fitted().num_classes
    }

    /// Transforms raw target features into source-like normalized samples
    /// (Eq. 10–11): invariant features pass through, variant features are
    /// reconstructed by one generator draw. Normalization and the
    /// generator forward pass are amortized over row chunks on the shared
    /// worker pool (`threads: None` uses every core).
    ///
    /// Every row has its own noise seed, derived from the adapter seed and
    /// the row index alone, so the output is **bit-identical for every
    /// thread count and chunking**, down to one row per chunk. This is
    /// draw 0 of the Monte-Carlo draws prediction averages.
    ///
    /// [`InferPrecision::F64Exact`] is the exact path;
    /// [`InferPrecision::F32Fast`] runs the reconstructor's compiled
    /// single-precision plan, trading a small bounded divergence for
    /// throughput. The separation/normalization arithmetic around the
    /// generator always stays in `f64`.
    ///
    /// This is the unguarded fast path: input is assumed validated.
    /// NaN/Inf cells propagate garbage-in/garbage-out into the output; use
    /// [`FsGanAdapter::try_reconstruct_batch_with`] on untrusted telemetry.
    ///
    /// # Panics
    ///
    /// Panics when `features` has a different column count than the fitted
    /// data.
    pub fn reconstruct_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Matrix {
        self.reconstruct_draw_with(features, threads, precision, 0)
    }

    /// Monte-Carlo draw `draw` of [`FsGanAdapter::reconstruct_batch_with`]:
    /// the same per-row (chunking-invariant) seeding with the noise stream
    /// offset by `draw`. Draw 0 is `reconstruct_batch_with`; prediction
    /// averages draws `0..`[`MC_DRAWS`]. One draw at a time is the
    /// reference the stacked prediction path is checked against.
    ///
    /// # Panics
    ///
    /// As [`FsGanAdapter::reconstruct_batch_with`].
    pub fn reconstruct_draw_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
        draw: u64,
    ) -> Matrix {
        let fitted = self.fitted();
        if features.rows() == 0 {
            return fitted.separation.normalizer().transform(features);
        }
        let threads = resolve_threads(threads);
        let rows = features.rows();
        let chunks = row_chunks(rows, threads);
        let parts = par_map(threads, &chunks, |_, &(start, end)| {
            let (inv, var_hat) = self.draw_block(features, start..end, draw..draw + 1, precision);
            fitted.separation.reassemble(&inv, &var_hat)
        });
        // Copy each chunk into a preallocated output instead of folding
        // with vstack, which cloned the first chunk and reallocated the
        // accumulator once per remaining chunk.
        let mut out = Matrix::zeros(rows, features.cols());
        for (part, &(start, end)) in parts.iter().zip(&chunks) {
            assert_eq!(part.rows(), end - start, "chunk row invariant");
            for (i, r) in (start..end).enumerate() {
                out.row_mut(r).copy_from_slice(part.row(i));
            }
        }
        out
    }

    /// Batched prediction: class probabilities averaged over [`MC_DRAWS`]
    /// per-row-seeded reconstruction draws, then one argmax. Like the
    /// reconstruction itself, the predictions are identical for every
    /// thread count.
    ///
    /// This is the unguarded fast path; it inherits the contract of
    /// [`FsGanAdapter::reconstruct_batch_with`]. Use
    /// [`FsGanAdapter::try_predict_batch`] on untrusted telemetry.
    ///
    /// # Panics
    ///
    /// Panics when `features` has a different column count than the fitted
    /// data.
    pub fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        self.predict_batch_with(features, threads, InferPrecision::F64Exact)
    }

    /// [`FsGanAdapter::predict_batch`] at an explicit numeric precision:
    /// both the reconstructor and the classifier forward passes run at
    /// `precision`. [`InferPrecision::F64Exact`] is bit-identical to
    /// `predict_batch`.
    ///
    /// # Panics
    ///
    /// As [`FsGanAdapter::predict_batch`].
    pub fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        argmax_rows(&self.mc_proba_with(features, threads, precision))
    }

    /// Guarded variant of [`FsGanAdapter::reconstruct_batch_with`]:
    /// validates the batch against the source-fitted normalizer and `guard`
    /// before reconstruction (rejecting or repairing corrupt cells), then
    /// verifies the output is fully finite. A clean batch takes the
    /// identical reconstruction path and returns bit-identical output. The
    /// input validation and the finite-output check are identical at both
    /// precisions; only the generator forward pass changes.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a column-count mismatch;
    /// [`ServeError::NonFinite`] / [`ServeError::OutOfRange`] localizing
    /// the first corrupt input cell under [`crate::InputPolicy::Reject`];
    /// [`ServeError::NonFiniteOutput`] when the pipeline itself emits a
    /// non-finite value (corrupt artifact or diverged reconstructor).
    pub fn try_reconstruct_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Matrix, ServeError> {
        let repaired = sanitize_batch(features, self.fitted().separation.normalizer(), guard)?;
        let clean = repaired.as_ref().unwrap_or(features);
        let out = self.reconstruct_batch_with(clean, threads, precision);
        match first_non_finite(&out, out.rows(), 0, 0) {
            Some((_, row, col)) => Err(ServeError::NonFiniteOutput { row, col }),
            None => Ok(out),
        }
    }

    /// Guarded variant of [`FsGanAdapter::predict_batch`]: the batch is
    /// validated (and possibly repaired) once, then every Monte-Carlo
    /// reconstruction draw is checked for finiteness before its
    /// probabilities enter the average, so predictions are never derived
    /// from non-finite reconstructions. A clean batch takes the identical
    /// Monte-Carlo path as `predict_batch` and returns the same labels.
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::try_reconstruct_batch_with`].
    pub fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        self.try_predict_batch_with(features, threads, guard, InferPrecision::F64Exact)
    }

    /// [`FsGanAdapter::try_predict_batch`] at an explicit numeric
    /// precision; both forward passes run at `precision`.
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::try_reconstruct_batch_with`].
    pub fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let repaired = sanitize_batch(features, self.fitted().separation.normalizer(), guard)?;
        let clean = repaired.as_ref().unwrap_or(features);
        Ok(argmax_rows(&self.mc_proba_checked(
            clean, threads, precision, MC_DRAWS, true,
        )?))
    }

    /// Serializes the fitted pipeline — FS partition with config
    /// provenance, normalizer statistics, reconstructor weights (including
    /// batch-norm running statistics), classifier state — into a versioned
    /// artifact (see [`crate::persist`] for the format).
    ///
    /// # Errors
    ///
    /// Fails when the classifier family does not support snapshots, or when
    /// the adapter has not been fitted.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let fitted = match &self.fitted {
            Some(fitted) => fitted,
            None => {
                return Err(CoreError::InvalidInput(
                    "FsGanAdapter: to_bytes before fit".into(),
                ))
            }
        };
        let mut fsep = Encoder::new();
        write_separation(&mut fsep, &fitted.separation);
        let mut norm = Encoder::new();
        write_normalizer(&mut norm, fitted.separation.normalizer());
        let mut recn = Encoder::new();
        match &fitted.reconstructor {
            Some(recon) => {
                recn.put_bool(true);
                write_recon_snapshot(&mut recn, &recon.snapshot()?);
            }
            None => recn.put_bool(false),
        }
        let mut clsf = Encoder::new();
        write_classifier_snapshot(&mut clsf, &fitted.classifier.snapshot()?);
        Ok(write_container(&[
            (
                TAG_META,
                encode_meta(super::ARTIFACT_FSGAN, self.seed, fitted.num_classes),
            ),
            (TAG_FSEP, fsep.into_bytes()),
            (TAG_NORM, norm.into_bytes()),
            (TAG_RECN, recn.into_bytes()),
            (TAG_CLSF, clsf.into_bytes()),
        ]))
    }

    /// Deserializes an artifact written by [`FsGanAdapter::to_bytes`]. The
    /// reloaded adapter reconstructs and predicts bit-identically to the
    /// one that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on structural problems (bad magic,
    /// wrong version, failed checksum, truncation, wrong artifact kind) and
    /// the component errors on semantically invalid state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let sections = read_container(bytes)?;
        let (kind, seed, num_classes) = decode_meta(&sections)?;
        if kind != super::ARTIFACT_FSGAN {
            return Err(CoreError::Persist(format!(
                "artifact kind {kind} is not an FS+GAN artifact"
            )));
        }
        let separation = decode_separation(&sections)?;
        let mut dec = Decoder::new(find_section(&sections, TAG_RECN)?);
        let reconstructor = if dec.take_bool()? {
            let snapshot = read_recon_snapshot(&mut dec)?;
            dec.expect_end()?;
            Some(restore_reconstructor(&snapshot)?)
        } else {
            dec.expect_end()?;
            None
        };
        let mut dec = Decoder::new(find_section(&sections, TAG_CLSF)?);
        let snapshot = read_classifier_snapshot(&mut dec)?;
        dec.expect_end()?;
        let classifier = restore_classifier(&snapshot)?;
        // Recover the reconstruction strategy from the restored model so a
        // reloaded artifact reports the same `Method` it was trained as.
        // Degraded (pass-through) artifacts carry no reconstructor and keep
        // the default GAN label.
        let recon = match reconstructor.as_deref().map(Reconstructor::name) {
            Some("gan-nocond") => ReconKind::GanNoCond,
            Some("vae") => ReconKind::Vae,
            Some("ae") => ReconKind::VanillaAe,
            _ => ReconKind::Gan,
        };
        Ok(FsGanAdapter {
            config: AdapterConfig {
                recon,
                ..AdapterConfig::default()
            },
            seed,
            fitted: Some(FittedFsGan {
                separation,
                reconstructor,
                classifier,
                num_classes,
            }),
        })
    }

    /// Writes the artifact produced by [`FsGanAdapter::to_bytes`] to disk.
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::to_bytes`], plus I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        std::fs::write(path.as_ref(), bytes)
            .map_err(|e| CoreError::Persist(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Reads and deserializes an artifact written by
    /// [`FsGanAdapter::save`].
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| CoreError::Persist(format!("read {}: {e}", path.as_ref().display())))?;
        FsGanAdapter::from_bytes(&bytes)
    }
}

impl crate::pipeline::DriftMitigator for FsGanAdapter {
    fn method(&self) -> crate::Method {
        match self.config.recon {
            super::ReconKind::Gan => crate::Method::FsGan,
            super::ReconKind::GanNoCond => crate::Method::FsNoCond,
            super::ReconKind::Vae => crate::Method::FsVae,
            super::ReconKind::VanillaAe => crate::Method::FsVanillaAe,
        }
    }

    fn is_fitted(&self) -> bool {
        FsGanAdapter::is_fitted(self)
    }

    fn num_classes(&self) -> usize {
        FsGanAdapter::num_classes(self)
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let _span = observe::call_span(observe::Call::Fit, self.method());
        self.fit_in_place(source, target_shots)
    }

    fn try_fit(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let _span = observe::call_span(observe::Call::Fit, self.method());
        self.try_fit_in_place(source, target_shots, guard)
    }

    fn predict(&self, features: &Matrix) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::Predict, self.method());
        FsGanAdapter::predict(self, features)
    }

    fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::PredictBatch, self.method());
        FsGanAdapter::predict_batch(self, features, threads)
    }

    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let _span = observe::call_span(observe::Call::TryPredictBatch, self.method());
        if fsda_telemetry::enabled() && self.is_fitted() && self.degraded().is_some() {
            fsda_telemetry::counter("serve.degraded_requests", 1);
        }
        FsGanAdapter::try_predict_batch(self, features, threads, guard)
    }

    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::PredictBatch, self.method());
        observe::note_precision(precision);
        FsGanAdapter::predict_batch_with(self, features, threads, precision)
    }

    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let _span = observe::call_span(observe::Call::TryPredictBatch, self.method());
        observe::note_precision(precision);
        if fsda_telemetry::enabled() && self.is_fitted() && self.degraded().is_some() {
            fsda_telemetry::counter("serve.degraded_requests", 1);
        }
        FsGanAdapter::try_predict_batch_with(self, features, threads, guard, precision)
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        FsGanAdapter::to_bytes(self)
    }

    fn variant_features(&self) -> Option<Vec<usize>> {
        self.is_fitted()
            .then(|| self.separation().variant().to_vec())
    }

    fn health(&self) -> String {
        let recon = self.reconstructor_name().unwrap_or("none (pass-through)");
        let outcome = match self.train_outcome() {
            Some(o) => o.to_string(),
            None => "n/a".into(),
        };
        let degraded = match self.degraded() {
            Some(mode) => format!("degraded: {mode}"),
            None => "healthy".to_string(),
        };
        format!("pipeline health: reconstructor={recon} training={outcome} status={degraded}")
    }
}
