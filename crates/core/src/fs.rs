//! The FS (feature separation) method: Section V-A of the paper.

use crate::{CoreError, Result};
use fsda_causal::fnode::{find_intervened_features, FnodeConfig};
use fsda_causal::warm::{find_intervened_features_warm, CiCache};
use fsda_data::normalize::{NormKind, Normalizer};
use fsda_data::Dataset;
use fsda_linalg::Matrix;

/// Configuration of the FS method.
#[derive(Debug, Clone, PartialEq)]
pub struct FsConfig {
    /// Significance level of the conditional-independence tests.
    pub alpha: f64,
    /// Maximum conditioning-set size in the F-node search.
    pub max_cond_size: usize,
    /// Cap on conditioning candidates per feature.
    pub max_candidates: usize,
    /// Run the F-node search's CI tests on a worker pool. The separation is
    /// bit-identical to the sequential path (see
    /// [`fsda_causal::fnode::FnodeConfig::parallel`]); only wall-clock
    /// changes.
    pub parallel: bool,
    /// Worker threads when `parallel` is set; `None` uses every available
    /// core.
    pub num_threads: Option<usize>,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            alpha: 0.01,
            max_cond_size: 1,
            max_candidates: 6,
            parallel: false,
            num_threads: None,
        }
    }
}

impl From<&FsConfig> for FnodeConfig {
    fn from(c: &FsConfig) -> Self {
        FnodeConfig {
            alpha: c.alpha,
            max_cond_size: c.max_cond_size,
            max_candidates: c.max_candidates,
            parallel: c.parallel,
            num_threads: c.num_threads,
        }
    }
}

/// Welch-z threshold of the marginal drift screen that runs after the
/// F-node search (see [`marginal_screen`]). At five shots per class the
/// false-positive probability per stable feature is below `1e-6`, while
/// drift propagated through one feature→feature edge at the strengths
/// the scenario DSL emits lands well above the threshold.
const MARGINAL_SCREEN_Z: f64 = 5.0;

/// Escalates conditionally-invariant features whose *marginal*
/// distribution still shifted into the variant set.
///
/// The F-node search answers a causal question — did this feature's
/// mechanism change? — but serving asks an operational one: the frozen
/// source classifier reads raw feature values, so a feature whose
/// mechanism is intact but whose causal parents drifted (drift
/// propagating through feature→feature edges) still poisons prediction.
/// Those features are exactly what the reconstructor exists to rebuild,
/// so any invariant column whose normalized Welch z against the target
/// shots exceeds [`MARGINAL_SCREEN_Z`] is moved to the variant side.
/// Each escalation bumps the `causal.fnode.marginal_escalated` counter.
fn marginal_screen(
    src_n: &Matrix,
    tgt_n: &Matrix,
    variant: &mut Vec<usize>,
    invariant: &mut Vec<usize>,
) {
    let moments = |m: &Matrix, c: usize| -> (f64, f64) {
        let n = m.rows() as f64;
        let mean = (0..m.rows()).map(|r| m.get(r, c)).sum::<f64>() / n;
        let var = (0..m.rows())
            .map(|r| (m.get(r, c) - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean, var)
    };
    let (n_s, n_t) = (src_n.rows() as f64, tgt_n.rows() as f64);
    let mut escalated = 0u64;
    invariant.retain(|&c| {
        let (m_s, v_s) = moments(src_n, c);
        let (m_t, v_t) = moments(tgt_n, c);
        let z = (m_s - m_t).abs() / (v_s / n_s + v_t / n_t).sqrt().max(1e-12);
        if z > MARGINAL_SCREEN_Z {
            variant.push(c);
            escalated += 1;
            false
        } else {
            true
        }
    });
    if escalated > 0 {
        variant.sort_unstable();
        fsda_telemetry::counter("causal.fnode.marginal_escalated", escalated);
    }
}

/// Shape of a fitted partition. The degenerate modes are legitimate
/// outcomes (no detectable drift, or drift touching everything) but force
/// the FS+GAN adapter into pass-through serving, so they are surfaced as a
/// diagnostic instead of being silently absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeparationMode {
    /// Both variant and invariant features exist: the full FS+GAN pipeline
    /// applies.
    Mixed,
    /// Every feature is invariant: no drift was detected, nothing to
    /// reconstruct.
    AllInvariant,
    /// Every feature is variant: the reconstructor has nothing to condition
    /// on.
    AllVariant,
}

impl std::fmt::Display for SeparationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeparationMode::Mixed => write!(f, "mixed"),
            SeparationMode::AllInvariant => write!(f, "all-invariant"),
            SeparationMode::AllVariant => write!(f, "all-variant"),
        }
    }
}

/// The result of feature separation: the variant/invariant partition, the
/// normalizer fitted on the source domain, the configuration that produced
/// it (provenance), and diagnostics.
#[derive(Debug, Clone)]
pub struct FeatureSeparation {
    variant: Vec<usize>,
    invariant: Vec<usize>,
    normalizer: Normalizer,
    tests_run: usize,
    num_features: usize,
    config: FsConfig,
}

impl FeatureSeparation {
    /// Runs feature separation: normalizes both domains with a source-fit
    /// `[-1, 1]` normalizer (the paper's preprocessing for its own
    /// methods), identifies the intervened features with the F-node
    /// search, then escalates marginally drifted survivors with
    /// a marginal drift screen so propagated drift cannot hide in the
    /// invariant block the classifier is served.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the domains have different
    /// feature counts, and propagates causal-discovery failures.
    pub fn fit(source: &Dataset, target_shots: &Dataset, config: &FsConfig) -> Result<Self> {
        if source.num_features() != target_shots.num_features() {
            return Err(CoreError::InvalidInput(format!(
                "source has {} features, target {}",
                source.num_features(),
                target_shots.num_features()
            )));
        }
        let normalizer = Normalizer::fit(source.features(), NormKind::MinMaxSymmetric);
        let src_n = normalizer.transform(source.features());
        let tgt_n = normalizer.transform(target_shots.features());
        let mut result = find_intervened_features(&src_n, &tgt_n, &config.into())?;
        marginal_screen(&src_n, &tgt_n, &mut result.variant, &mut result.invariant);
        Ok(FeatureSeparation {
            variant: result.variant,
            invariant: result.invariant,
            normalizer,
            tests_run: result.tests_run,
            num_features: source.num_features(),
            config: config.clone(),
        })
    }

    /// Rebuilds a separation from previously extracted parts (e.g. decoded
    /// from a persisted artifact).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] unless `variant` and `invariant`
    /// form an exact partition of the normalizer's feature columns — the
    /// invariant every separation produced by [`FeatureSeparation::fit`]
    /// satisfies.
    pub fn from_parts(
        variant: Vec<usize>,
        invariant: Vec<usize>,
        normalizer: Normalizer,
        tests_run: usize,
        config: FsConfig,
    ) -> Result<Self> {
        let num_features = normalizer.num_features();
        if variant.len() + invariant.len() != num_features {
            return Err(CoreError::InvalidInput(format!(
                "partition covers {} columns of {num_features}",
                variant.len() + invariant.len()
            )));
        }
        let mut seen = vec![false; num_features];
        for &c in variant.iter().chain(invariant.iter()) {
            if c >= num_features {
                return Err(CoreError::InvalidInput(format!(
                    "feature index {c} out of range for {num_features} features"
                )));
            }
            if seen[c] {
                return Err(CoreError::InvalidInput(format!(
                    "feature index {c} appears twice in the partition"
                )));
            }
            seen[c] = true;
        }
        Ok(FeatureSeparation {
            variant,
            invariant,
            normalizer,
            tests_run,
            num_features,
            config,
        })
    }

    /// The configuration this separation was fitted with (provenance).
    pub fn config(&self) -> &FsConfig {
        &self.config
    }

    /// Domain-variant feature columns (the identified intervention targets).
    pub fn variant(&self) -> &[usize] {
        &self.variant
    }

    /// Domain-invariant feature columns.
    pub fn invariant(&self) -> &[usize] {
        &self.invariant
    }

    /// The `[-1, 1]` normalizer fitted on the source domain.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Number of CI tests run (for the running-time analysis of §VI-D).
    pub fn tests_run(&self) -> usize {
        self.tests_run
    }

    /// Whether the partition is mixed or degenerate (see
    /// [`SeparationMode`]).
    pub fn mode(&self) -> SeparationMode {
        if self.variant.is_empty() {
            SeparationMode::AllInvariant
        } else if self.invariant.is_empty() {
            SeparationMode::AllVariant
        } else {
            SeparationMode::Mixed
        }
    }

    /// Total feature count.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Splits a (raw, unnormalized) feature matrix into normalized
    /// `(invariant, variant)` blocks.
    ///
    /// # Panics
    ///
    /// Panics if the column count disagrees with the fitted data.
    pub fn split_normalized(&self, features: &Matrix) -> (Matrix, Matrix) {
        let n = self.normalizer.transform(features);
        (n.select_cols(&self.invariant), n.select_cols(&self.variant))
    }

    /// Reassembles a full normalized feature matrix from invariant and
    /// variant blocks, restoring the original column order.
    ///
    /// `var_block` may also stack several draws of the variant block
    /// draw-major against one `inv_block` (Monte-Carlo reconstruction): its
    /// row `d·n + r` is paired with invariant row `r`, `n = inv_block.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if block shapes are inconsistent with the separation, or if
    /// `var_block` is not a whole number of `inv_block`-sized draws.
    pub fn reassemble(&self, inv_block: &Matrix, var_block: &Matrix) -> Matrix {
        assert_eq!(
            inv_block.cols(),
            self.invariant.len(),
            "invariant block width"
        );
        assert_eq!(var_block.cols(), self.variant.len(), "variant block width");
        let n = inv_block.rows();
        assert!(
            var_block.rows().is_multiple_of(n),
            "row mismatch: {} variant rows against {n} invariant rows",
            var_block.rows()
        );
        let mut out = Matrix::zeros(var_block.rows(), self.num_features);
        for r in 0..out.rows() {
            for (k, &c) in self.invariant.iter().enumerate() {
                out.set(r, c, inv_block.get(r % n, k));
            }
            for (k, &c) in self.variant.iter().enumerate() {
                out.set(r, c, var_block.get(r, k));
            }
        }
        out
    }

    /// Precision/recall of the separation against a known ground truth
    /// (only available with synthetic data). Returns `(precision, recall)`.
    pub fn score_against(&self, ground_truth_variant: &[usize]) -> (f64, f64) {
        let truth: std::collections::BTreeSet<usize> =
            ground_truth_variant.iter().copied().collect();
        let hits = self.variant.iter().filter(|c| truth.contains(c)).count() as f64;
        let precision = if self.variant.is_empty() {
            1.0
        } else {
            hits / self.variant.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            hits / truth.len() as f64
        };
        (precision, recall)
    }
}

/// Which search path a warm-capable separation actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPath {
    /// Cached sufficient statistics + previous-skeleton priority.
    Warm,
    /// Full recomputation over the stacked source+target data.
    Cold,
}

impl std::fmt::Display for SearchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchPath::Warm => write!(f, "warm"),
            SearchPath::Cold => write!(f, "cold"),
        }
    }
}

/// Reusable source-side state for repeated separations against a fixed
/// source domain: the fitted normalizer, the normalized source matrix (the
/// cold-fallback input), and the cached CI-test sufficient statistics
/// ([`fsda_causal::warm::CiCache`]). Build once per tenant, re-separate per
/// drift event — [`FeatureSeparation::fit_warm`] then costs
/// `O(n_window · d²)` instead of `O(n_src · d²)`.
#[derive(Debug, Clone)]
pub struct SeparationCache {
    normalizer: Normalizer,
    src_n: Matrix,
    ci: CiCache,
    config: FsConfig,
}

impl SeparationCache {
    /// Fits the normalizer on the source domain and folds the source rows
    /// into the CI cache.
    ///
    /// # Errors
    ///
    /// Propagates [`fsda_causal::warm::CiCache::new`] failures (tiny or
    /// corrupt source data).
    pub fn new(source: &Dataset, config: &FsConfig) -> Result<Self> {
        let normalizer = Normalizer::fit(source.features(), NormKind::MinMaxSymmetric);
        let src_n = normalizer.transform(source.features());
        let ci = CiCache::new(&src_n)?;
        Ok(SeparationCache {
            normalizer,
            src_n,
            ci,
            config: config.clone(),
        })
    }

    /// Feature count the cache was built over.
    pub fn num_features(&self) -> usize {
        self.ci.num_features()
    }

    /// Source rows folded into the cache.
    pub fn source_rows(&self) -> usize {
        self.ci.source_rows()
    }

    /// The FS configuration the cache separates with.
    pub fn config(&self) -> &FsConfig {
        &self.config
    }
}

impl FeatureSeparation {
    /// Re-runs feature separation against a fresh target window using the
    /// cached source-side state, warm-starting the F-node search from the
    /// previous variant set when one is given. Falls back to the cold
    /// search — same `O(n_src · d²)` contract as
    /// [`FeatureSeparation::fit`] — when the previous skeleton does not
    /// match the cached feature space (e.g. a stale controller handed over
    /// indices from a different deployment).
    ///
    /// Returns the separation together with the [`SearchPath`] actually
    /// taken, so callers can report warm-hit rates. Note the warm path is
    /// deterministic but not bit-identical to cold (see
    /// [`fsda_causal::warm`] for the floating-point caveat); hard input
    /// failures (corrupt window, width mismatch) are *not* masked by the
    /// fallback — they error on both paths.
    ///
    /// A previous variant set is accepted only when it is a well-formed
    /// subset of the cached feature space: every index in range, no
    /// duplicates. Anything else is a stale skeleton — each rejection
    /// bumps the `causal.fnode.warm_rejected` telemetry counter and the
    /// search runs cold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on a feature-count mismatch
    /// between the cache and the window, and propagates causal failures
    /// (non-finite cells, empty windows).
    pub fn fit_warm(
        cache: &SeparationCache,
        target_shots: &Dataset,
        prev_variant: Option<&[usize]>,
    ) -> Result<(Self, SearchPath)> {
        if target_shots.num_features() != cache.num_features() {
            return Err(CoreError::InvalidInput(format!(
                "cache has {} features, target {}",
                cache.num_features(),
                target_shots.num_features()
            )));
        }
        let tgt_n = cache.normalizer.transform(target_shots.features());
        let fnode_cfg: FnodeConfig = (&cache.config).into();
        let warm_applicable = match prev_variant {
            Some(prev) => {
                let mut seen = vec![false; cache.num_features()];
                let fresh = prev
                    .iter()
                    .all(|&x| x < cache.num_features() && !std::mem::replace(&mut seen[x], true));
                if !fresh {
                    fsda_telemetry::counter("causal.fnode.warm_rejected", 1);
                }
                fresh
            }
            None => false,
        };
        let (mut result, path) = if warm_applicable {
            let prev = prev_variant.unwrap_or(&[]);
            (
                find_intervened_features_warm(&cache.ci, &tgt_n, prev, &fnode_cfg)?,
                SearchPath::Warm,
            )
        } else {
            (
                find_intervened_features(&cache.src_n, &tgt_n, &fnode_cfg)?,
                SearchPath::Cold,
            )
        };
        marginal_screen(
            &cache.src_n,
            &tgt_n,
            &mut result.variant,
            &mut result.invariant,
        );
        Ok((
            FeatureSeparation {
                variant: result.variant,
                invariant: result.invariant,
                normalizer: cache.normalizer.clone(),
                tests_run: result.tests_run,
                num_features: cache.num_features(),
                config: cache.config.clone(),
            },
            path,
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fsda_data::fewshot::few_shot_subset;
    use fsda_data::synth5gc::Synth5gc;
    use fsda_linalg::SeededRng;

    fn separation(shots: usize, seed: u64) -> (FeatureSeparation, Vec<usize>) {
        let bundle = Synth5gc::small().generate(seed).unwrap();
        let mut rng = SeededRng::new(seed ^ 0xFF);
        let target = few_shot_subset(&bundle.target_pool, shots, &mut rng).unwrap();
        let fs =
            FeatureSeparation::fit(&bundle.source_train, &target, &FsConfig::default()).unwrap();
        (fs, bundle.ground_truth_variant)
    }

    #[test]
    fn detects_strong_interventions() {
        let (fs, truth) = separation(10, 1);
        let (precision, recall) = fs.score_against(&truth);
        assert!(precision > 0.7, "precision {precision}");
        assert!(
            recall > 0.5,
            "recall {recall} (strong + medium tiers detectable at 10 shots)"
        );
        assert!(fs.tests_run() > 0);
    }

    #[test]
    fn partition_is_complete() {
        let (fs, _) = separation(5, 2);
        assert_eq!(fs.variant().len() + fs.invariant().len(), fs.num_features());
        let mut all: Vec<usize> = fs.variant().iter().chain(fs.invariant()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), fs.num_features());
    }

    #[test]
    fn more_shots_detect_at_least_as_many() {
        let (fs1, _) = separation(1, 3);
        let (fs10, _) = separation(10, 3);
        assert!(
            fs10.variant().len() + 2 >= fs1.variant().len(),
            "10-shot should not detect materially fewer: {} vs {}",
            fs10.variant().len(),
            fs1.variant().len()
        );
    }

    #[test]
    fn split_and_reassemble_round_trip() {
        let (fs, _) = separation(5, 4);
        let bundle = Synth5gc::small().generate(4).unwrap();
        let x = bundle.target_test.features();
        let (inv, var) = fs.split_normalized(x);
        let back = fs.reassemble(&inv, &var);
        let direct = fs.normalizer().transform(x);
        assert!(back.try_sub(&direct).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn mismatched_features_error() {
        let bundle = Synth5gc::small().generate(5).unwrap();
        let narrow = bundle.target_pool.select_features(&[0, 1, 2]);
        assert!(matches!(
            FeatureSeparation::fit(&bundle.source_train, &narrow, &FsConfig::default()),
            Err(CoreError::InvalidInput(_))
        ));
    }

    #[test]
    fn from_parts_round_trips_a_fitted_separation() {
        let (fs, _) = separation(5, 7);
        let rebuilt = FeatureSeparation::from_parts(
            fs.variant().to_vec(),
            fs.invariant().to_vec(),
            fs.normalizer().clone(),
            fs.tests_run(),
            fs.config().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.variant(), fs.variant());
        assert_eq!(rebuilt.invariant(), fs.invariant());
        assert_eq!(rebuilt.num_features(), fs.num_features());
        assert_eq!(rebuilt.config(), fs.config());
    }

    #[test]
    fn from_parts_rejects_broken_partitions() {
        let (fs, _) = separation(5, 8);
        let norm = fs.normalizer().clone();
        let d = fs.num_features();
        // Incomplete cover.
        assert!(FeatureSeparation::from_parts(
            vec![0],
            vec![1],
            norm.clone(),
            0,
            FsConfig::default()
        )
        .is_err());
        // Duplicate column.
        let mut inv: Vec<usize> = (0..d).collect();
        inv[0] = 1;
        assert!(
            FeatureSeparation::from_parts(vec![], inv, norm.clone(), 0, FsConfig::default())
                .is_err()
        );
        // Out-of-range column.
        let mut inv: Vec<usize> = (0..d).collect();
        inv[0] = d + 5;
        assert!(FeatureSeparation::from_parts(vec![], inv, norm, 0, FsConfig::default()).is_err());
    }

    #[test]
    fn score_against_handles_edge_cases() {
        let (fs, _) = separation(5, 6);
        let (p, r) = fs.score_against(&[]);
        assert_eq!(r, 1.0);
        assert!(p <= 1.0);
    }

    #[test]
    fn fit_warm_matches_cold_partition() {
        let bundle = Synth5gc::small().generate(21).unwrap();
        let mut rng = SeededRng::new(22);
        let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
        let cfg = FsConfig::default();
        let cold = FeatureSeparation::fit(&bundle.source_train, &shots, &cfg).unwrap();
        let cache = SeparationCache::new(&bundle.source_train, &cfg).unwrap();
        assert_eq!(cache.num_features(), cold.num_features());
        assert_eq!(cache.source_rows(), bundle.source_train.len());

        // Warm from the cold skeleton: the steady-state re-detection. The
        // warm path is deterministic but not bit-identical to cold, so a
        // borderline feature may flip — the partitions must still agree on
        // all but a sliver of the feature space.
        let (warm, path) =
            FeatureSeparation::fit_warm(&cache, &shots, Some(cold.variant())).unwrap();
        assert_eq!(path, SearchPath::Warm);
        let warm_set: std::collections::BTreeSet<usize> = warm.variant().iter().copied().collect();
        let cold_set: std::collections::BTreeSet<usize> = cold.variant().iter().copied().collect();
        let flipped = warm_set.symmetric_difference(&cold_set).count();
        assert!(
            flipped <= 2,
            "warm and cold partitions diverged on {flipped} features: {warm_set:?} vs {cold_set:?}"
        );
        assert_eq!(warm.num_features(), cold.num_features());
        assert_eq!(
            warm.variant().len() + warm.invariant().len(),
            warm.num_features()
        );

        // No previous skeleton: the cache still avoids re-normalizing but
        // runs the cold search.
        let (cold2, path2) = FeatureSeparation::fit_warm(&cache, &shots, None).unwrap();
        assert_eq!(path2, SearchPath::Cold);
        assert_eq!(cold2.variant(), cold.variant());
    }

    #[test]
    fn fit_warm_falls_back_to_cold_on_stale_skeleton() {
        let recorder = std::sync::Arc::new(fsda_telemetry::InMemoryRecorder::new());
        fsda_telemetry::set_recorder(recorder.clone());
        let bundle = Synth5gc::small().generate(23).unwrap();
        let mut rng = SeededRng::new(24);
        let shots = few_shot_subset(&bundle.target_pool, 8, &mut rng).unwrap();
        let cache = SeparationCache::new(&bundle.source_train, &FsConfig::default()).unwrap();
        // A skeleton from some other feature space: indices out of range.
        let stale = vec![0, cache.num_features() + 3];
        let (fs, path) = FeatureSeparation::fit_warm(&cache, &shots, Some(&stale)).unwrap();
        assert_eq!(
            path,
            SearchPath::Cold,
            "mismatched skeleton must cold-start"
        );
        assert_eq!(fs.variant().len() + fs.invariant().len(), fs.num_features());
        // A duplicated index is also stale: it cannot have come from a
        // partition of this feature space.
        let dup = vec![1, 1];
        let (_, path) = FeatureSeparation::fit_warm(&cache, &shots, Some(&dup)).unwrap();
        assert_eq!(path, SearchPath::Cold, "duplicate skeleton must cold-start");
        // Both rejections were counted; a well-formed warm start and the
        // explicit cold path (`None`) are not.
        let (_, path) = FeatureSeparation::fit_warm(&cache, &shots, Some(&[0, 1])).unwrap();
        assert_eq!(path, SearchPath::Warm);
        FeatureSeparation::fit_warm(&cache, &shots, None).unwrap();
        fsda_telemetry::clear_recorder();
        assert_eq!(
            recorder
                .snapshot_now()
                .counter("causal.fnode.warm_rejected"),
            2
        );
    }

    #[test]
    fn fit_warm_rejects_mismatched_windows() {
        let bundle = Synth5gc::small().generate(25).unwrap();
        let cache = SeparationCache::new(&bundle.source_train, &FsConfig::default()).unwrap();
        let narrow = bundle.target_pool.select_features(&[0, 1, 2]);
        assert!(matches!(
            FeatureSeparation::fit_warm(&cache, &narrow, None),
            Err(CoreError::InvalidInput(_))
        ));
    }
}
