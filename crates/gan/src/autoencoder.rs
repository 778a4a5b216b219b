//! Vanilla autoencoder reconstructor (the FS+VanillaAE ablation of
//! Table II): a deterministic bottleneck regressor from invariant to
//! variant features, trained with plain MSE.

use crate::{draw_count, validate_fit, GanError, ReconSnapshot, Reconstructor, Result};
use fsda_linalg::{Matrix, SeededRng};
use fsda_nn::layer::{Activation, Dense, MixedActivation, OutputSpec};
use fsda_nn::loss::mse;
use fsda_nn::optim::{clip_grad_norm, Adam, Optimizer};
use fsda_nn::state::{export_state, load_state, StateDict};
use fsda_nn::train::BatchIter;
use fsda_nn::watchdog::{DivergenceWatchdog, WatchdogVerdict};
use fsda_nn::{InferPlan, InferPrecision, Sequential, TrainOutcome, WatchdogConfig};

/// Hyper-parameters of [`VanillaAe`].
#[derive(Debug, Clone, PartialEq)]
pub struct AeConfig {
    /// Bottleneck width.
    pub bottleneck: usize,
    /// Hidden width (matches the GAN generator).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Divergence-watchdog policy for the fit loop. Training behaviour —
    /// *not* part of the persisted artifact: restored models carry the
    /// default.
    pub watchdog: WatchdogConfig,
}

impl Default for AeConfig {
    fn default() -> Self {
        AeConfig {
            bottleneck: 16,
            hidden: 256,
            epochs: 200,
            batch_size: 64,
            learning_rate: 1e-3,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// The vanilla-autoencoder reconstructor.
///
/// Unlike the GAN/VAE it is fully deterministic: the `seed` passed to
/// [`Reconstructor::reconstruct`] is ignored, which is precisely why it
/// cannot model the *distribution* `P(X_var | X_inv)` — only its mean —
/// and (per Table II) trails the GAN.
pub struct VanillaAe {
    config: AeConfig,
    seed: u64,
    net: Option<Sequential>,
    /// Compiled inference plan (rebuilt at fit and restore; not persisted).
    plan: Option<InferPlan>,
    dims: Option<(usize, usize)>,
    outcome: Option<TrainOutcome>,
}

impl std::fmt::Debug for VanillaAe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VanillaAe")
            .field("config", &self.config)
            .field("fitted", &self.net.is_some())
            .finish()
    }
}

impl VanillaAe {
    /// Creates an untrained autoencoder.
    pub fn new(config: AeConfig, seed: u64) -> Self {
        VanillaAe {
            config,
            seed,
            net: None,
            plan: None,
            dims: None,
            outcome: None,
        }
    }

    /// Runs the network: through the compiled plan when one exists
    /// (bit-identical at `F64Exact`), else layer by layer.
    fn run_net(&self, net: &Sequential, x: &Matrix, precision: InferPrecision) -> Matrix {
        match &self.plan {
            Some(plan) => plan.infer(x, precision),
            None => net.infer(x),
        }
    }

    fn build_net(&self, d_inv: usize, d_var: usize, rng: &mut SeededRng) -> Sequential {
        let h = self.config.hidden;
        let mut net = Sequential::new();
        net.push(Dense::new(d_inv, h, rng));
        net.push(Activation::relu());
        net.push(Dense::new(h, self.config.bottleneck, rng));
        net.push(Activation::relu());
        net.push(Dense::new(self.config.bottleneck, h, rng));
        net.push(Activation::relu());
        net.push(Dense::new_xavier(h, d_var, rng));
        net.push(MixedActivation::new(
            OutputSpec::continuous(d_var),
            1.0,
            rng.fork(0xAE),
        ));
        net
    }

    /// Rebuilds a fitted autoencoder from a snapshot's config, dims, and
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns [`GanError::InvalidInput`] when the state does not match
    /// the architecture the config describes.
    pub fn from_snapshot(
        config: AeConfig,
        seed: u64,
        dims: (usize, usize),
        state: &StateDict,
    ) -> Result<Self> {
        let mut ae = VanillaAe::new(config, seed);
        let mut rng = SeededRng::new(seed);
        let mut net = ae.build_net(dims.0, dims.1, &mut rng);
        load_state(&mut net, state).map_err(GanError::InvalidInput)?;
        ae.plan = InferPlan::compile(&net).ok();
        ae.net = Some(net);
        ae.dims = Some(dims);
        Ok(ae)
    }
}

impl Reconstructor for VanillaAe {
    fn fit(&mut self, x_inv: &Matrix, x_var: &Matrix, y_onehot: &Matrix) -> Result<()> {
        validate_fit(x_inv, x_var, y_onehot)?;
        let _span = fsda_telemetry::SpanTimer::new("gan.vanilla_ae.fit.seconds");
        let (d_inv, d_var) = (x_inv.cols(), x_var.cols());
        let mut rng = SeededRng::new(self.seed);
        let mut net = self.build_net(d_inv, d_var, &mut rng);

        let mut opt = Adam::new(self.config.learning_rate);
        let mut watchdog = DivergenceWatchdog::new(self.config.watchdog);
        let n = x_inv.rows();
        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0;
            for batch in BatchIter::new(n, self.config.batch_size.min(n), &mut rng) {
                let b_inv = x_inv.select_rows(&batch);
                let b_var = x_var.select_rows(&batch);
                let recon = net.forward(&b_inv, true);
                let (loss, grad) = mse(&recon, &b_var);
                net.zero_grad();
                net.backward(&grad);
                let mut params = net.params_mut();
                if let Some(max_norm) = self.config.watchdog.grad_clip {
                    clip_grad_norm(&mut params, max_norm);
                }
                opt.step(&mut params);
                epoch_loss += loss;
            }
            match watchdog.observe(epoch, epoch_loss, &mut [&mut net]) {
                WatchdogVerdict::Proceed | WatchdogVerdict::RolledBack => {}
                WatchdogVerdict::Abort => break,
            }
        }
        self.outcome = Some(watchdog.outcome());
        self.plan = InferPlan::compile(&net).ok();
        self.net = Some(net);
        self.dims = Some((d_inv, d_var));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ae"
    }

    fn train_outcome(&self) -> Option<TrainOutcome> {
        self.outcome
    }

    fn reconstruct(&self, x_inv: &Matrix, seeds: &[u64], precision: InferPrecision) -> Matrix {
        let net = self
            .net
            .as_ref()
            .expect("VanillaAe: reconstruct before fit");
        let (d_inv, _) = self.dims.expect("dims recorded at fit");
        assert_eq!(
            x_inv.cols(),
            d_inv,
            "VanillaAe: invariant-block width mismatch"
        );
        // Seeds do not enter the model: every draw is the same pass, so run
        // it once and repeat it.
        let draws = draw_count(x_inv.rows(), seeds.len());
        let once = self.run_net(net, x_inv, precision);
        Matrix::from_vec(seeds.len(), once.cols(), once.as_slice().repeat(draws))
    }

    fn snapshot(&self) -> Result<ReconSnapshot> {
        let net = self.net.as_ref().ok_or(GanError::NotFitted)?;
        Ok(ReconSnapshot::Ae {
            config: self.config.clone(),
            seed: self.seed,
            dims: self.dims.expect("dims recorded at fit"),
            state: export_state(net),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsda_linalg::stats::pearson;

    fn toy(n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let mut x_inv = Matrix::zeros(n, 3);
        let mut x_var = Matrix::zeros(n, 2);
        for r in 0..n {
            let a = rng.normal(0.0, 0.7);
            let b = rng.normal(0.0, 0.7);
            let c = rng.normal(0.0, 0.7);
            x_inv.set(r, 0, a);
            x_inv.set(r, 1, b);
            x_inv.set(r, 2, c);
            x_var.set(
                r,
                0,
                (0.6 * a - 0.2 * c).tanh() * 0.8 + rng.normal(0.0, 0.03),
            );
            x_var.set(r, 1, (0.5 * b).tanh() * 0.8 + rng.normal(0.0, 0.03));
        }
        let y = Matrix::zeros(n, 1);
        (x_inv, x_var, y)
    }

    #[test]
    fn learns_conditional_mean() {
        let (x_inv, x_var, y) = toy(256, 1);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 32,
                bottleneck: 8,
                epochs: 150,
                ..AeConfig::default()
            },
            2,
        );
        ae.fit(&x_inv, &x_var, &y).unwrap();
        let recon = crate::reconstruct_seeded(&ae, &x_inv, 0);
        for c in 0..2 {
            let r = pearson(&recon.col(c), &x_var.col(c));
            assert!(r > 0.8, "AE should fit the regression, col {c} r = {r}");
        }
    }

    #[test]
    fn seed_is_ignored_deterministic() {
        let (x_inv, x_var, y) = toy(64, 3);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 16,
                epochs: 10,
                ..AeConfig::default()
            },
            4,
        );
        ae.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&ae, &x_inv, 1),
            crate::reconstruct_seeded(&ae, &x_inv, 999)
        );
    }

    #[test]
    fn name_is_ae() {
        assert_eq!(VanillaAe::new(AeConfig::default(), 1).name(), "ae");
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let (x_inv, x_var, y) = toy(64, 5);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 16,
                epochs: 10,
                ..AeConfig::default()
            },
            6,
        );
        ae.fit(&x_inv, &x_var, &y).unwrap();
        let snap = ae.snapshot().unwrap();
        let restored = crate::restore_reconstructor(&snap).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(restored.as_ref(), &x_inv, 0),
            crate::reconstruct_seeded(&ae, &x_inv, 0)
        );
        assert_eq!(restored.snapshot().unwrap(), snap);
    }

    #[test]
    fn reconstruct_contract_holds() {
        let (x_inv, x_var, y) = toy(16, 10);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 16,
                epochs: 5,
                ..AeConfig::default()
            },
            11,
        );
        ae.fit(&x_inv, &x_var, &y).unwrap();
        crate::assert_reconstruct_contract(&ae, &x_inv);
    }

    #[test]
    fn healthy_fit_reports_converged() {
        let (x_inv, x_var, y) = toy(64, 9);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 16,
                epochs: 5,
                ..AeConfig::default()
            },
            10,
        );
        assert!(ae.train_outcome().is_none());
        ae.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(ae.train_outcome(), Some(TrainOutcome::Converged));
    }

    #[test]
    fn nan_training_data_reports_diverged() {
        let (x_inv, _, y) = toy(64, 11);
        let x_var = Matrix::from_fn(64, 2, |_, _| f64::NAN);
        let mut ae = VanillaAe::new(
            AeConfig {
                hidden: 16,
                epochs: 5,
                ..AeConfig::default()
            },
            12,
        );
        ae.fit(&x_inv, &x_var, &y).unwrap();
        match ae.train_outcome() {
            Some(TrainOutcome::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_defaults_do_not_change_training() {
        let (x_inv, x_var, y) = toy(64, 13);
        let cfg = AeConfig {
            hidden: 16,
            epochs: 10,
            ..AeConfig::default()
        };
        let mut guarded = VanillaAe::new(cfg.clone(), 14);
        guarded.fit(&x_inv, &x_var, &y).unwrap();
        let mut unguarded = VanillaAe::new(
            AeConfig {
                watchdog: WatchdogConfig {
                    enabled: false,
                    ..WatchdogConfig::default()
                },
                ..cfg
            },
            14,
        );
        unguarded.fit(&x_inv, &x_var, &y).unwrap();
        assert_eq!(
            crate::reconstruct_seeded(&guarded, &x_inv, 0),
            crate::reconstruct_seeded(&unguarded, &x_inv, 0)
        );
    }

    #[test]
    fn rejects_empty_blocks() {
        let mut ae = VanillaAe::new(AeConfig::default(), 1);
        let x = Matrix::zeros(4, 2);
        assert!(ae.fit(&x, &Matrix::zeros(4, 0), &x).is_err());
    }
}
