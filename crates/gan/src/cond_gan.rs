//! The conditional GAN of Section V-C, with CTGAN-style architecture.
//!
//! Generator: `[X_inv, Z] → two Dense-BatchNorm-ReLU blocks → tanh → X̂_var`.
//! Discriminator: `[X_inv, X_var, one-hot Y] → two Dense-LeakyReLU-Dropout
//! blocks → real/fake logit`. Both trained with Adam at `2e-4` and weight
//! decay `1e-6` (the paper's settings); the discriminator's label
//! conditioning can be disabled to obtain the `FS+NoCond` ablation of
//! Table II.

use crate::{
    forward_conditioned, seeded_noise, validate_fit, GanError, ReconSnapshot, Reconstructor, Result,
};
use fsda_linalg::{Matrix, SeededRng};
use fsda_nn::layer::{Activation, Dense, MixedActivation, OutputSpec};
use fsda_nn::loss::bce_with_logits;
use fsda_nn::norm::{BatchNorm1d, Dropout};
use fsda_nn::optim::{clip_grad_norm, Adam, Optimizer};
use fsda_nn::state::{export_state, load_state, StateDict};
use fsda_nn::train::BatchIter;
use fsda_nn::watchdog::{DivergenceWatchdog, WatchdogVerdict};
use fsda_nn::{InferPlan, InferPrecision, Sequential, TrainOutcome, WatchdogConfig};

/// Hyper-parameters of [`CondGan`].
#[derive(Debug, Clone, PartialEq)]
pub struct CondGanConfig {
    /// Noise-vector dimension (paper: 30 for 5GC, 15 for 5GIPC). The paper
    /// argues a small noise vector makes one draw (M = 1) enough; at the
    /// default 30 single draws still disagree on labels, so serving
    /// averages `MC_DRAWS` draws (see `fsda_core::adapter::fs_gan`).
    pub noise_dim: usize,
    /// Hidden width of generator and discriminator (paper: 256 / 128).
    pub hidden: usize,
    /// Training epochs (paper: 500).
    pub epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Learning rate for both networks (paper: 2e-4).
    pub learning_rate: f64,
    /// Weight decay (paper: 1e-6).
    pub weight_decay: f64,
    /// Discriminator dropout.
    pub dropout: f64,
    /// Condition the discriminator on the one-hot label (`false` gives the
    /// FS+NoCond ablation).
    pub condition_on_label: bool,
    /// Weight of an auxiliary reconstruction (MSE) term in the generator
    /// loss, pix2pix-style. The paper trains 500 epochs on a GPU; at this
    /// crate's smaller default budget the auxiliary term keeps generator
    /// training stable without changing what is learned (the adversarial
    /// term still shapes the conditional distribution). Set to 0.0 for the
    /// paper's pure adversarial objective.
    pub recon_weight: f64,
    /// Divergence-watchdog policy for the adversarial fit loop. Training
    /// behaviour — *not* part of the persisted artifact: restored models
    /// carry the default.
    pub watchdog: WatchdogConfig,
}

impl Default for CondGanConfig {
    fn default() -> Self {
        CondGanConfig {
            noise_dim: 30,
            hidden: 256,
            epochs: 300,
            batch_size: 64,
            learning_rate: 2e-4,
            weight_decay: 1e-6,
            dropout: 0.2,
            condition_on_label: true,
            recon_weight: 3.0,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl CondGanConfig {
    /// The paper's 5GC settings (442 features): noise 30, hidden 256.
    pub fn for_5gc() -> Self {
        Self::default()
    }

    /// The paper's 5GIPC settings (116 features): noise 15, hidden 128.
    pub fn for_5gipc() -> Self {
        CondGanConfig {
            noise_dim: 15,
            hidden: 128,
            ..Self::default()
        }
    }

    /// The FS+NoCond ablation: discriminator not conditioned on the label.
    pub fn without_label_conditioning(mut self) -> Self {
        self.condition_on_label = false;
        self
    }
}

/// The conditional GAN reconstructor.
pub struct CondGan {
    config: CondGanConfig,
    seed: u64,
    generator: Option<Sequential>,
    /// Compiled inference plan for the generator (rebuilt at fit and
    /// restore; never persisted). `None` only before fit.
    plan: Option<InferPlan>,
    dims: Option<(usize, usize)>, // (inv, var)
    /// Mean adversarial losses per epoch, for diagnostics.
    history: Vec<(f64, f64)>,
    /// How the last fit ended (None before fit / after snapshot restore).
    outcome: Option<TrainOutcome>,
}

impl std::fmt::Debug for CondGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CondGan")
            .field("config", &self.config)
            .field("fitted", &self.generator.is_some())
            .finish()
    }
}

impl CondGan {
    /// Creates an untrained GAN.
    pub fn new(config: CondGanConfig, seed: u64) -> Self {
        CondGan {
            config,
            seed,
            generator: None,
            plan: None,
            dims: None,
            history: Vec::new(),
            outcome: None,
        }
    }

    /// Per-epoch `(discriminator_loss, generator_loss)` history.
    pub fn loss_history(&self) -> &[(f64, f64)] {
        &self.history
    }

    /// Rebuilds a fitted GAN from a snapshot's config, dims, and generator
    /// weights. The generator architecture is rebuilt from the config and
    /// every parameter/buffer overwritten with the snapshot state.
    ///
    /// # Errors
    ///
    /// Returns [`GanError::InvalidInput`] when the state does not match
    /// the architecture the config describes.
    pub fn from_snapshot(
        config: CondGanConfig,
        seed: u64,
        dims: (usize, usize),
        state: &StateDict,
    ) -> Result<Self> {
        let mut gan = CondGan::new(config, seed);
        // Initializer draws are irrelevant: load_state overwrites every
        // weight, and inference never touches layer RNG state.
        let mut rng = SeededRng::new(seed);
        let mut gen = gan.build_generator(dims.0, dims.1, &mut rng);
        load_state(&mut gen, state).map_err(GanError::InvalidInput)?;
        gan.plan = InferPlan::compile(&gen).ok();
        gan.generator = Some(gen);
        gan.dims = Some(dims);
        Ok(gan)
    }

    /// The fitted generator, checked against the invariant-block width.
    fn fitted_generator(&self, x_inv: &Matrix) -> &Sequential {
        let gen = self
            .generator
            .as_ref()
            .expect("CondGan: reconstruct before fit");
        let (d_inv, _) = self.dims.expect("dims recorded at fit");
        assert_eq!(
            x_inv.cols(),
            d_inv,
            "CondGan: invariant-block width mismatch"
        );
        gen
    }

    fn build_generator(&self, d_inv: usize, d_var: usize, rng: &mut SeededRng) -> Sequential {
        let h = self.config.hidden;
        let mut g = Sequential::new();
        g.push(Dense::new(d_inv + self.config.noise_dim, h, rng));
        g.push(BatchNorm1d::new(h));
        g.push(Activation::relu());
        g.push(Dense::new(h, h, rng));
        g.push(BatchNorm1d::new(h));
        g.push(Activation::relu());
        g.push(Dense::new_xavier(h, d_var, rng));
        g.push(MixedActivation::new(
            OutputSpec::continuous(d_var),
            1.0,
            rng.fork(0x6A),
        ));
        g
    }

    fn build_discriminator(&self, in_dim: usize, rng: &mut SeededRng) -> Sequential {
        let h = self.config.hidden;
        let mut d = Sequential::new();
        d.push(Dense::new(in_dim, h, rng));
        d.push(Activation::leaky_relu());
        d.push(Dropout::new(self.config.dropout, rng.fork(0xD1)));
        d.push(Dense::new(h, h, rng));
        d.push(Activation::leaky_relu());
        d.push(Dropout::new(self.config.dropout, rng.fork(0xD2)));
        d.push(Dense::new(h, 1, rng));
        d
    }
}

impl Reconstructor for CondGan {
    fn fit(&mut self, x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix) -> Result<()> {
        validate_fit(x_inv, x_var, y_onehot)?;
        let _span = fsda_telemetry::SpanTimer::new("gan.cond_gan.fit.seconds");
        let (d_inv, d_var) = (x_inv.cols(), x_var.cols());
        let label_dim = if self.config.condition_on_label {
            y_onehot.cols()
        } else {
            0
        };
        let mut rng = SeededRng::new(self.seed);
        let mut gen = self.build_generator(d_inv, d_var, &mut rng);
        let mut disc = self.build_discriminator(d_inv + d_var + label_dim, &mut rng);
        let mut opt_g = Adam::for_gan();
        opt_g.set_learning_rate(self.config.learning_rate);
        let mut opt_d = Adam::for_gan();
        opt_d.set_learning_rate(self.config.learning_rate);
        let _ = self.config.weight_decay; // carried by Adam::for_gan (1e-6)

        let n = x_inv.rows();
        self.history.clear();
        let mut watchdog = DivergenceWatchdog::new(self.config.watchdog);
        for epoch in 0..self.config.epochs {
            let mut d_loss_sum = 0.0;
            let mut g_loss_sum = 0.0;
            let mut batches = 0usize;
            for batch in BatchIter::new(n, self.config.batch_size.min(n), &mut rng) {
                if batch.len() < 2 {
                    continue; // batch norm needs > 1 sample
                }
                let b = batch.len();
                let b_inv = x_inv.select_rows(&batch);
                let b_var = x_var.select_rows(&batch);
                let b_y = y_onehot.select_rows(&batch);

                // --- Discriminator step ------------------------------------
                let z = rng.normal_matrix(b, self.config.noise_dim, 0.0, 1.0);
                let g_in = b_inv.hstack(&z).expect("row counts match");
                let fake_var = gen.forward(&g_in, true);
                let real_in = concat_d_input(&b_inv, &b_var, &b_y, label_dim);
                let fake_in = concat_d_input(&b_inv, &fake_var, &b_y, label_dim);
                let ones = Matrix::filled(b, 1, 1.0);
                let zeros = Matrix::zeros(b, 1);

                disc.zero_grad();
                let real_logits = disc.forward(&real_in, true);
                let (loss_real, grad_real) = bce_with_logits(&real_logits, &ones);
                disc.backward(&grad_real);
                let fake_logits = disc.forward(&fake_in, true);
                let (loss_fake, grad_fake) = bce_with_logits(&fake_logits, &zeros);
                disc.backward(&grad_fake);
                if let Some(clip) = self.config.watchdog.grad_clip {
                    clip_grad_norm(&mut disc.params_mut(), clip);
                }
                opt_d.step(&mut disc.params_mut());
                d_loss_sum += loss_real + loss_fake;

                // --- Generator step -----------------------------------------
                let z = rng.normal_matrix(b, self.config.noise_dim, 0.0, 1.0);
                let g_in = b_inv.hstack(&z).expect("row counts match");
                gen.zero_grad();
                let fake_var = gen.forward(&g_in, true);
                let fake_in = concat_d_input(&b_inv, &fake_var, &b_y, label_dim);
                let logits = disc.forward(&fake_in, true);
                let (loss_g, grad) = bce_with_logits(&logits, &ones);
                disc.zero_grad(); // discard D's gradients from this pass
                let grad_d_in = disc.backward(&grad);
                let mut grad_fake_var =
                    grad_d_in.select_cols(&(d_inv..d_inv + d_var).collect::<Vec<_>>());
                if self.config.recon_weight > 0.0 {
                    let (_, grad_mse) = fsda_nn::loss::mse(&fake_var, &b_var);
                    grad_fake_var.axpy(self.config.recon_weight, &grad_mse);
                }
                gen.backward(&grad_fake_var);
                if let Some(clip) = self.config.watchdog.grad_clip {
                    clip_grad_norm(&mut gen.params_mut(), clip);
                }
                opt_g.step(&mut gen.params_mut());
                disc.zero_grad();
                g_loss_sum += loss_g;
                batches += 1;
            }
            if batches > 0 {
                self.history
                    .push((d_loss_sum / batches as f64, g_loss_sum / batches as f64));
            }
            // Guard both networks together: a NaN in either side's loss
            // poisons the other through the shared adversarial objective.
            let epoch_loss = d_loss_sum + g_loss_sum;
            match watchdog.observe(epoch, epoch_loss, &mut [&mut gen, &mut disc]) {
                WatchdogVerdict::Proceed | WatchdogVerdict::RolledBack => {}
                WatchdogVerdict::Abort => break,
            }
        }
        self.outcome = Some(watchdog.outcome());
        self.plan = InferPlan::compile(&gen).ok();
        self.generator = Some(gen);
        self.dims = Some((d_inv, d_var));
        Ok(())
    }

    fn reconstruct(&self, x_inv: &Matrix, seeds: &[u64], precision: InferPrecision) -> Matrix {
        let gen = self.fitted_generator(x_inv);
        let z = seeded_noise(seeds, self.config.noise_dim);
        forward_conditioned(self.plan.as_ref(), gen, x_inv, &z, precision)
    }

    fn name(&self) -> &'static str {
        if self.config.condition_on_label {
            "gan"
        } else {
            "gan-nocond"
        }
    }

    fn train_outcome(&self) -> Option<TrainOutcome> {
        self.outcome
    }

    fn snapshot(&self) -> Result<ReconSnapshot> {
        let gen = self.generator.as_ref().ok_or(GanError::NotFitted)?;
        Ok(ReconSnapshot::Gan {
            config: self.config.clone(),
            seed: self.seed,
            dims: self.dims.expect("dims recorded at fit"),
            state: export_state(gen),
        })
    }
}

fn concat_d_input(x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix, label_dim: usize) -> Matrix {
    let base = x_inv.hstack(x_var).expect("row counts match");
    if label_dim == 0 {
        base
    } else {
        base.hstack(y_onehot).expect("row counts match")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GanError;
    use fsda_linalg::stats::{mean, pearson};

    /// Source data where x_var = f(x_inv, class) + noise: two invariant
    /// features, one variant feature strongly tied to them.
    fn toy_source(n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let mut x_inv = Matrix::zeros(n, 2);
        let mut x_var = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 2);
        for r in 0..n {
            let class = usize::from(rng.bernoulli(0.5));
            let a = rng.normal(if class == 0 { -0.5 } else { 0.5 }, 0.3);
            let b = rng.normal(0.0, 0.3);
            x_inv.set(r, 0, a);
            x_inv.set(r, 1, b);
            x_var.set(
                r,
                0,
                (0.8 * a - 0.4 * b).tanh() * 0.9 + rng.normal(0.0, 0.05),
            );
            y.set(r, class, 1.0);
        }
        (x_inv, x_var, y)
    }

    fn quick_config() -> CondGanConfig {
        CondGanConfig {
            noise_dim: 4,
            hidden: 32,
            epochs: 60,
            ..CondGanConfig::default()
        }
    }

    #[test]
    fn reconstruction_correlates_with_truth() {
        let (x_inv, x_var, y) = toy_source(256, 1);
        let mut gan = CondGan::new(quick_config(), 2);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&gan, &x_inv, 3);
        let r = pearson(&recon.col(0), &x_var.col(0));
        assert!(
            r > 0.5,
            "GAN reconstruction should track the mechanism, r = {r}"
        );
    }

    #[test]
    fn reconstruction_is_deterministic_given_seed() {
        let (x_inv, x_var, y) = toy_source(128, 4);
        let mut gan = CondGan::new(quick_config(), 5);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&gan, &x_inv, 9),
            crate::reconstruct_seeded(&gan, &x_inv, 9)
        );
    }

    #[test]
    fn small_noise_makes_mc_samples_agree() {
        // The paper's M = 1 argument: with a small noise vector, different
        // Monte-Carlo draws give nearly identical reconstructions.
        let (x_inv, x_var, y) = toy_source(256, 6);
        let mut gan = CondGan::new(
            CondGanConfig {
                noise_dim: 2,
                ..quick_config()
            },
            7,
        );
        gan.fit(&x_inv, &x_var, &y).unwrap();
        let a = crate::reconstruct_seeded(&gan, &x_inv, 1);
        let b = crate::reconstruct_seeded(&gan, &x_inv, 2);
        let diff: f64 = a
            .try_sub(&b)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .sum::<f64>()
            / a.as_slice().len() as f64;
        let spread = fsda_linalg::stats::std_dev(&x_var.col(0));
        assert!(
            diff < 0.5 * spread,
            "MC spread {diff} should be small relative to data spread {spread}"
        );
    }

    #[test]
    fn output_is_bounded_by_tanh() {
        let (x_inv, x_var, y) = toy_source(128, 8);
        let mut gan = CondGan::new(quick_config(), 9);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        // Even far-out-of-distribution inputs produce bounded outputs —
        // this is what maps drifted samples back into the source range.
        let drifted = x_inv.map(|v| v + 10.0);
        let recon = crate::reconstruct_seeded(&gan, &drifted, 10);
        assert!(recon.max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn nocond_variant_has_distinct_name() {
        let gan = CondGan::new(quick_config().without_label_conditioning(), 1);
        assert_eq!(gan.name(), "gan-nocond");
        let cond = CondGan::new(quick_config(), 1);
        assert_eq!(cond.name(), "gan");
    }

    #[test]
    fn nocond_trains_and_reconstructs() {
        let (x_inv, x_var, y) = toy_source(128, 11);
        let mut gan = CondGan::new(quick_config().without_label_conditioning(), 12);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&gan, &x_inv, 13);
        assert_eq!(recon.shape(), (128, 1));
        assert!(recon.is_finite());
    }

    #[test]
    fn loss_history_is_recorded() {
        let (x_inv, x_var, y) = toy_source(64, 14);
        let mut gan = CondGan::new(
            CondGanConfig {
                epochs: 5,
                ..quick_config()
            },
            15,
        );
        gan.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(gan.loss_history().len(), 5);
        for &(d, g) in gan.loss_history() {
            assert!(d.is_finite() && g.is_finite());
        }
    }

    #[test]
    fn generated_marginal_matches_source_scale() {
        let (x_inv, x_var, y) = toy_source(256, 16);
        let mut gan = CondGan::new(quick_config(), 17);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&gan, &x_inv, 18);
        let m_real = mean(&x_var.col(0));
        let m_fake = mean(&recon.col(0));
        assert!(
            (m_real - m_fake).abs() < 0.4,
            "means: real {m_real}, fake {m_fake}"
        );
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let (x_inv, x_var, y) = toy_source(128, 20);
        let mut gan = CondGan::new(quick_config(), 21);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        let snap = gan.snapshot().unwrap();
        let restored = crate::restore_reconstructor(&snap).unwrap();
        assert_eq!(restored.name(), "gan");
        assert_eq!(
            crate::reconstruct_seeded(restored.as_ref(), &x_inv, 22),
            crate::reconstruct_seeded(&gan, &x_inv, 22)
        );
        // The restored model snapshots back to the same state.
        assert_eq!(restored.snapshot().unwrap(), snap);
    }

    #[test]
    fn snapshot_before_fit_is_not_fitted() {
        let gan = CondGan::new(quick_config(), 1);
        assert_eq!(gan.snapshot().unwrap_err(), GanError::NotFitted);
    }

    #[test]
    fn reconstruct_contract_holds() {
        let (x_inv, x_var, y) = toy_source(24, 25);
        for config in [quick_config(), quick_config().without_label_conditioning()] {
            let mut gan = CondGan::new(config, 26);
            gan.fit(&x_inv, &x_var, &y).unwrap();
            crate::assert_reconstruct_contract(&gan, &x_inv);
        }
    }

    #[test]
    fn healthy_fit_reports_converged() {
        let (x_inv, x_var, y) = toy_source(64, 30);
        let mut gan = CondGan::new(
            CondGanConfig {
                epochs: 3,
                ..quick_config()
            },
            31,
        );
        assert_eq!(gan.train_outcome(), None);
        gan.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(gan.train_outcome(), Some(fsda_nn::TrainOutcome::Converged));
    }

    #[test]
    fn nan_training_data_reports_diverged() {
        let (x_inv, mut x_var, y) = toy_source(64, 32);
        for r in 0..x_var.rows() {
            x_var.set(r, 0, f64::NAN);
        }
        let mut gan = CondGan::new(
            CondGanConfig {
                epochs: 10,
                ..quick_config()
            },
            33,
        );
        gan.fit(&x_inv, &x_var, &y).unwrap();
        match gan.train_outcome() {
            Some(fsda_nn::TrainOutcome::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn grad_clip_keeps_training_finite() {
        let (x_inv, x_var, y) = toy_source(64, 34);
        let mut gan = CondGan::new(
            CondGanConfig {
                epochs: 5,
                watchdog: fsda_nn::WatchdogConfig {
                    grad_clip: Some(1.0),
                    ..fsda_nn::WatchdogConfig::default()
                },
                ..quick_config()
            },
            35,
        );
        gan.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(gan.train_outcome(), Some(fsda_nn::TrainOutcome::Converged));
        assert!(crate::reconstruct_seeded(&gan, &x_inv, 36).is_finite());
    }

    #[test]
    fn watchdog_defaults_do_not_change_training() {
        // The default watchdog must be numerically inert on healthy runs:
        // guarded and unguarded training produce bit-identical generators.
        let (x_inv, x_var, y) = toy_source(64, 37);
        let cfg_on = CondGanConfig {
            epochs: 5,
            ..quick_config()
        };
        let cfg_off = CondGanConfig {
            watchdog: fsda_nn::WatchdogConfig {
                enabled: false,
                ..fsda_nn::WatchdogConfig::default()
            },
            ..cfg_on.clone()
        };
        let mut a = CondGan::new(cfg_on, 38);
        let mut b = CondGan::new(cfg_off, 38);
        a.fit(&x_inv, &x_var, &y).unwrap();
        b.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&a, &x_inv, 39),
            crate::reconstruct_seeded(&b, &x_inv, 39)
        );
    }

    #[test]
    fn rejects_invalid_input() {
        let mut gan = CondGan::new(quick_config(), 1);
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(2, 1);
        assert_eq!(
            gan.fit(&a, &b, &a).unwrap_err(),
            GanError::InvalidInput("row mismatch: inv 3, var 2, labels 3".into(),)
        );
    }
}
