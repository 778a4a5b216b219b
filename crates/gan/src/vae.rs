//! Conditional variational autoencoder reconstructor (the FS+VAE ablation
//! of Table II).
//!
//! Encoder: `[X_inv, X_var] → (mu, logvar)`; decoder: `[X_inv, z] → X̂_var`
//! with the same hidden architecture as the GAN generator. Trained with the
//! usual ELBO (MSE reconstruction + KL). At inference `z ~ N(0, I)` is
//! drawn, so the model plays the same role as the GAN generator.

use crate::{
    forward_conditioned, seeded_noise, validate_fit, GanError, ReconSnapshot, Reconstructor, Result,
};
use fsda_linalg::{Matrix, SeededRng};
use fsda_nn::layer::{Activation, Dense, MixedActivation, OutputSpec};
use fsda_nn::optim::{clip_grad_norm, Adam, Optimizer};
use fsda_nn::state::{export_state, load_state, StateDict};
use fsda_nn::train::BatchIter;
use fsda_nn::watchdog::{DivergenceWatchdog, WatchdogVerdict};
use fsda_nn::{InferPlan, InferPrecision, Sequential, TrainOutcome, WatchdogConfig};

/// Hyper-parameters of [`Vae`].
#[derive(Debug, Clone, PartialEq)]
pub struct VaeConfig {
    /// Latent dimension.
    pub latent_dim: usize,
    /// Hidden width (matches the GAN generator, per the paper).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// KL-term weight (beta).
    pub beta: f64,
    /// Divergence-watchdog policy for the fit loop. Training behaviour —
    /// *not* part of the persisted artifact: restored models carry the
    /// default.
    pub watchdog: WatchdogConfig,
}

impl Default for VaeConfig {
    fn default() -> Self {
        VaeConfig {
            latent_dim: 16,
            hidden: 256,
            epochs: 200,
            batch_size: 64,
            learning_rate: 1e-3,
            beta: 0.5,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// The conditional VAE reconstructor.
pub struct Vae {
    config: VaeConfig,
    seed: u64,
    decoder: Option<Sequential>,
    /// Compiled decoder plan (rebuilt at fit and restore; not persisted).
    plan: Option<InferPlan>,
    dims: Option<(usize, usize)>,
    outcome: Option<TrainOutcome>,
}

impl std::fmt::Debug for Vae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vae")
            .field("config", &self.config)
            .field("fitted", &self.decoder.is_some())
            .finish()
    }
}

impl Vae {
    /// Creates an untrained VAE.
    pub fn new(config: VaeConfig, seed: u64) -> Self {
        Vae {
            config,
            seed,
            decoder: None,
            plan: None,
            dims: None,
            outcome: None,
        }
    }

    /// The fitted decoder, checked against the invariant-block width.
    fn fitted_decoder(&self, x_inv: &Matrix) -> &Sequential {
        let decoder = self.decoder.as_ref().expect("Vae: reconstruct before fit");
        let (d_inv, _) = self.dims.expect("dims recorded at fit");
        assert_eq!(x_inv.cols(), d_inv, "Vae: invariant-block width mismatch");
        decoder
    }

    fn build_decoder(&self, d_inv: usize, d_var: usize, rng: &mut SeededRng) -> Sequential {
        let h = self.config.hidden;
        let zd = self.config.latent_dim;
        let mut decoder = Sequential::new();
        decoder.push(Dense::new(d_inv + zd, h, rng));
        decoder.push(Activation::relu());
        decoder.push(Dense::new(h, h, rng));
        decoder.push(Activation::relu());
        decoder.push(Dense::new_xavier(h, d_var, rng));
        decoder.push(MixedActivation::new(
            OutputSpec::continuous(d_var),
            1.0,
            rng.fork(0x7E),
        ));
        decoder
    }

    /// Rebuilds a fitted VAE from a snapshot's config, dims, and decoder
    /// weights (the encoder is a training-time object and is not kept).
    ///
    /// # Errors
    ///
    /// Returns [`GanError::InvalidInput`] when the state does not match
    /// the architecture the config describes.
    pub fn from_snapshot(
        config: VaeConfig,
        seed: u64,
        dims: (usize, usize),
        state: &StateDict,
    ) -> Result<Self> {
        let mut vae = Vae::new(config, seed);
        let mut rng = SeededRng::new(seed);
        let mut decoder = vae.build_decoder(dims.0, dims.1, &mut rng);
        load_state(&mut decoder, state).map_err(GanError::InvalidInput)?;
        vae.plan = InferPlan::compile(&decoder).ok();
        vae.decoder = Some(decoder);
        vae.dims = Some(dims);
        Ok(vae)
    }
}

impl Reconstructor for Vae {
    fn fit(&mut self, x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix) -> Result<()> {
        validate_fit(x_inv, x_var, y_onehot)?;
        let _span = fsda_telemetry::SpanTimer::new("gan.vae.fit.seconds");
        let (d_inv, d_var) = (x_inv.cols(), x_var.cols());
        let zd = self.config.latent_dim;
        let h = self.config.hidden;
        let mut rng = SeededRng::new(self.seed);

        // Encoder trunk -> 2*zd outputs (mu, logvar).
        let mut encoder = Sequential::new();
        encoder.push(Dense::new(d_inv + d_var, h, &mut rng));
        encoder.push(Activation::relu());
        encoder.push(Dense::new(h, 2 * zd, &mut rng));

        // Decoder mirrors the GAN generator.
        let mut decoder = self.build_decoder(d_inv, d_var, &mut rng);

        let mut opt = Adam::new(self.config.learning_rate);
        let mut watchdog = DivergenceWatchdog::new(self.config.watchdog);
        let n = x_inv.rows();
        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0;
            for batch in BatchIter::new(n, self.config.batch_size.min(n), &mut rng) {
                let b = batch.len();
                let b_inv = x_inv.select_rows(&batch);
                let b_var = x_var.select_rows(&batch);
                let enc_in = b_inv.hstack(&b_var).expect("rows match");
                let enc_out = encoder.forward(&enc_in, true);
                // Split mu / logvar.
                let mu = enc_out.select_cols(&(0..zd).collect::<Vec<_>>());
                let logvar = enc_out.select_cols(&(zd..2 * zd).collect::<Vec<_>>());
                // Reparameterize.
                let eps = rng.normal_matrix(b, zd, 0.0, 1.0);
                let mut z = mu.clone();
                for r in 0..b {
                    for c in 0..zd {
                        let std = (0.5 * logvar.get(r, c)).exp();
                        z.set(r, c, mu.get(r, c) + std * eps.get(r, c));
                    }
                }
                let dec_in = b_inv.hstack(&z).expect("rows match");
                let recon = decoder.forward(&dec_in, true);
                // MSE reconstruction gradient (and loss, for the watchdog).
                let count = (b * d_var) as f64;
                let mut grad_recon = Matrix::zeros(b, d_var);
                let mut recon_sq = 0.0;
                for r in 0..b {
                    for c in 0..d_var {
                        let diff = recon.get(r, c) - b_var.get(r, c);
                        recon_sq += diff * diff;
                        grad_recon.set(r, c, 2.0 * diff / count);
                    }
                }
                encoder.zero_grad();
                decoder.zero_grad();
                let grad_dec_in = decoder.backward(&grad_recon);
                // Gradient wrt z flows back through the reparameterization
                // into mu (identity) and logvar (0.5 * std * eps).
                let grad_z = grad_dec_in.select_cols(&(d_inv..d_inv + zd).collect::<Vec<_>>());
                let kl_scale = self.config.beta / (b * zd) as f64;
                let mut grad_enc_out = Matrix::zeros(b, 2 * zd);
                let mut kl_sum = 0.0;
                for r in 0..b {
                    for c in 0..zd {
                        let std = (0.5 * logvar.get(r, c)).exp();
                        kl_sum += -0.5
                            * (1.0 + logvar.get(r, c)
                                - mu.get(r, c) * mu.get(r, c)
                                - logvar.get(r, c).exp());
                        // Reconstruction path + KL path. KL = -0.5 * sum(1 +
                        // logvar - mu^2 - exp(logvar)); dKL/dmu = mu,
                        // dKL/dlogvar = 0.5 * (exp(logvar) - 1).
                        let g_mu = grad_z.get(r, c) + kl_scale * mu.get(r, c);
                        let g_logvar = grad_z.get(r, c) * 0.5 * std * eps.get(r, c)
                            + kl_scale * 0.5 * (logvar.get(r, c).exp() - 1.0);
                        grad_enc_out.set(r, c, g_mu);
                        grad_enc_out.set(r, zd + c, g_logvar);
                    }
                }
                encoder.backward(&grad_enc_out);
                let mut params = encoder.params_mut();
                params.extend(decoder.params_mut());
                if let Some(max_norm) = self.config.watchdog.grad_clip {
                    clip_grad_norm(&mut params, max_norm);
                }
                opt.step(&mut params);
                epoch_loss += recon_sq / count + self.config.beta * kl_sum / (b * zd) as f64;
            }
            match watchdog.observe(epoch, epoch_loss, &mut [&mut encoder, &mut decoder]) {
                WatchdogVerdict::Proceed | WatchdogVerdict::RolledBack => {}
                WatchdogVerdict::Abort => break,
            }
        }
        self.outcome = Some(watchdog.outcome());
        self.plan = InferPlan::compile(&decoder).ok();
        self.decoder = Some(decoder);
        self.dims = Some((d_inv, d_var));
        Ok(())
    }

    fn reconstruct(&self, x_inv: &Matrix, seeds: &[u64], precision: InferPrecision) -> Matrix {
        let decoder = self.fitted_decoder(x_inv);
        let z = seeded_noise(seeds, self.config.latent_dim);
        forward_conditioned(self.plan.as_ref(), decoder, x_inv, &z, precision)
    }

    fn name(&self) -> &'static str {
        "vae"
    }

    fn train_outcome(&self) -> Option<TrainOutcome> {
        self.outcome
    }

    fn snapshot(&self) -> Result<ReconSnapshot> {
        let decoder = self.decoder.as_ref().ok_or(GanError::NotFitted)?;
        Ok(ReconSnapshot::Vae {
            config: self.config.clone(),
            seed: self.seed,
            dims: self.dims.expect("dims recorded at fit"),
            state: export_state(decoder),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsda_linalg::stats::pearson;

    fn toy(n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let mut x_inv = Matrix::zeros(n, 2);
        let mut x_var = Matrix::zeros(n, 1);
        for r in 0..n {
            let a = rng.normal(0.0, 0.7);
            let b = rng.normal(0.0, 0.7);
            x_inv.set(r, 0, a);
            x_inv.set(r, 1, b);
            x_var.set(
                r,
                0,
                (0.7 * a + 0.3 * b).tanh() * 0.8 + rng.normal(0.0, 0.05),
            );
        }
        let y = Matrix::zeros(n, 1);
        (x_inv, x_var, y)
    }

    fn quick() -> VaeConfig {
        VaeConfig {
            hidden: 32,
            latent_dim: 4,
            epochs: 120,
            ..VaeConfig::default()
        }
    }

    #[test]
    fn reconstruction_tracks_mechanism() {
        let (x_inv, x_var, y) = toy(256, 1);
        let mut vae = Vae::new(quick(), 2);
        vae.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&vae, &x_inv, 3);
        let r = pearson(&recon.col(0), &x_var.col(0));
        assert!(
            r > 0.6,
            "VAE should reconstruct the conditional mean, r = {r}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x_inv, x_var, y) = toy(64, 4);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 10,
                ..quick()
            },
            5,
        );
        vae.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&vae, &x_inv, 6),
            crate::reconstruct_seeded(&vae, &x_inv, 6)
        );
    }

    #[test]
    fn output_is_bounded() {
        let (x_inv, x_var, y) = toy(64, 7);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 10,
                ..quick()
            },
            8,
        );
        vae.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&vae, &x_inv.map(|v| v + 100.0), 9);
        assert!(recon.max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn name_is_vae() {
        assert_eq!(Vae::new(quick(), 1).name(), "vae");
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let (x_inv, x_var, y) = toy(64, 10);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 10,
                ..quick()
            },
            11,
        );
        vae.fit(&x_inv, &x_var, &y).unwrap();
        let snap = vae.snapshot().unwrap();
        let restored = crate::restore_reconstructor(&snap).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(restored.as_ref(), &x_inv, 12),
            crate::reconstruct_seeded(&vae, &x_inv, 12)
        );
        assert_eq!(restored.snapshot().unwrap(), snap);
    }

    #[test]
    fn healthy_fit_reports_converged() {
        let (x_inv, x_var, y) = toy(64, 20);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 5,
                ..quick()
            },
            21,
        );
        assert!(vae.train_outcome().is_none());
        vae.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(vae.train_outcome(), Some(TrainOutcome::Converged));
    }

    #[test]
    fn nan_training_data_reports_diverged() {
        let (x_inv, _, y) = toy(64, 22);
        let x_var = Matrix::from_fn(64, 1, |_, _| f64::NAN);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 5,
                ..quick()
            },
            23,
        );
        vae.fit(&x_inv, &x_var, &y).unwrap();
        match vae.train_outcome() {
            Some(TrainOutcome::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_defaults_do_not_change_training() {
        let (x_inv, x_var, y) = toy(64, 24);
        let cfg = VaeConfig {
            epochs: 10,
            ..quick()
        };
        let mut guarded = Vae::new(cfg.clone(), 25);
        guarded.fit(&x_inv, &x_var, &y).unwrap();
        let mut unguarded = Vae::new(
            VaeConfig {
                watchdog: WatchdogConfig {
                    enabled: false,
                    ..WatchdogConfig::default()
                },
                ..cfg
            },
            25,
        );
        unguarded.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&guarded, &x_inv, 26),
            crate::reconstruct_seeded(&unguarded, &x_inv, 26)
        );
    }

    #[test]
    fn reconstruct_contract_holds() {
        let (x_inv, x_var, y) = toy(32, 13);
        let mut vae = Vae::new(
            VaeConfig {
                epochs: 10,
                ..quick()
            },
            14,
        );
        vae.fit(&x_inv, &x_var, &y).unwrap();
        crate::assert_reconstruct_contract(&vae, &x_inv);
    }
}
