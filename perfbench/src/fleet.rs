//! What the workloads serve and re-fit: the 5GC tenant fleet, the drift
//! scenario stream, and the benchmark-owned decorators that time calls
//! into the artifact and the re-fit seam from outside.

use fsda::core::adapter::{build_classifier, AdapterConfig, Budget, MC_DRAWS};
use fsda::core::pipeline::restore;
use fsda::core::telemetry::InMemoryRecorder;
use fsda::core::{
    DriftMitigator, FitError, FsGanAdapter, GuardConfig, InferPrecision, Method, SearchPath,
    ServeError,
};
use fsda::data::fewshot::few_shot_subset;
use fsda::data::scenario::{CompiledScenario, ScenarioSpec};
use fsda::data::synth5gc::Synth5gc;
use fsda::data::Dataset;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::{Classifier, ClassifierKind};
use fsda::serve::{Refit, RefitRequest, Refitter, RegistryRefitter};
use std::hint::black_box;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A timed call: `(start, end)`.
pub type Interval = (Instant, Instant);

/// Source rows the fleet artifact is fitted on. Fewer than the paper's
/// 3645 keeps set-up short; serving cost depends on layer shapes only.
pub const FLEET_SOURCE_ROWS: usize = 800;
/// Fleet data and fit seeds: the fleet is the same for every run, only
/// the traffic follows `--seed`.
const FLEET_DATA_SEED: u64 = 5;
const FLEET_FIT_SEED: u64 = 11;
/// Declared set-up budget: one GAN epoch and one classifier epoch. Forward
/// cost depends on layer shapes, not on epochs.
fn setup_budget() -> Budget {
    Budget {
        nn_epochs: 1,
        gan_epochs: 1,
        threads: 1,
        ..Budget::quick()
    }
}

/// Rows per window request.
pub const WINDOW_ROWS: usize = 64;
/// Every how many service calls a traced run probes the stages.
const PROBE_EVERY: usize = 8;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a tap")
}

/// Per-tenant timing log, shared by every artifact version of the tenant.
#[derive(Default)]
pub struct Tap {
    /// Serving calls (`try_predict_batch_with`), in execution order.
    pub service: Mutex<Vec<Interval>>,
    /// Validation calls (`try_predict_batch`) made by the controller.
    pub validate: Mutex<Vec<Interval>>,
    /// `to_bytes` calls made by the controller.
    pub serialize: Mutex<Vec<Interval>>,
    /// Stage probes, traced runs only.
    pub probes: Mutex<Vec<ProbeRecord>>,
    /// Stage twin of the tenant's classifier; once set (traced runs),
    /// serving calls are probed.
    pub twin: OnceLock<Arc<dyn Classifier>>,
}

impl std::fmt::Debug for Tap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tap").finish_non_exhaustive()
    }
}

impl Tap {
    /// Takes the serving log and its probes, leaving them empty.
    pub fn drain_serving(&self) -> (Vec<Interval>, Vec<ProbeRecord>) {
        (
            std::mem::take(&mut *lock(&self.service)),
            std::mem::take(&mut *lock(&self.probes)),
        )
    }

    /// Takes the controller's validation and serialization logs.
    pub fn drain_control(&self) -> (Vec<Interval>, Vec<Interval>) {
        (
            std::mem::take(&mut *lock(&self.validate)),
            std::mem::take(&mut *lock(&self.serialize)),
        )
    }
}

/// The stages of one serving call, re-run on the same batch right after
/// it: the unguarded predict, and one Monte-Carlo draw split into its
/// public steps.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    /// Index of the probed call in [`Tap::service`].
    pub call: usize,
    /// Monte-Carlo draws the served predict averaged.
    pub draws: usize,
    /// `predict_batch` (no guard) on the batch.
    pub unguarded: Interval,
    /// `FeatureSeparation::split_normalized`.
    pub split: Interval,
    /// `reconstruct_batch_with`: one draw of split + generator + reassemble.
    pub reconstruct: Interval,
    /// `FeatureSeparation::reassemble`.
    pub reassemble: Interval,
    /// Classifier forward pass of a same-shaped stage twin.
    pub classify: Interval,
}

/// Re-runs a served call's stages through public entry points.
#[derive(Default)]
struct Probe {
    bytes: OnceLock<Option<FsGanAdapter>>,
}

impl Probe {
    fn run(
        &self,
        inner: &dyn DriftMitigator,
        twin: &dyn Classifier,
        x: &Matrix,
        call: usize,
    ) -> Option<ProbeRecord> {
        let adapter = self
            .bytes
            .get_or_init(|| {
                inner
                    .to_bytes()
                    .ok()
                    .and_then(|b| FsGanAdapter::from_bytes(&b).ok())
            })
            .as_ref()?;
        let exact = InferPrecision::F64Exact;
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            (t, Instant::now())
        };
        let unguarded = timed(&mut || {
            black_box(adapter.predict_batch(x, Some(1)));
        });
        let sep = adapter.separation();
        let mut blocks = None;
        let split = timed(&mut || blocks = Some(sep.split_normalized(x)));
        let (inv, var) = blocks.expect("split ran");
        let mut out = None;
        let reconstruct =
            timed(&mut || out = Some(adapter.reconstruct_batch_with(x, Some(1), exact)));
        let reassemble = timed(&mut || {
            black_box(sep.reassemble(&inv, &var));
        });
        let out = out.expect("reconstruction ran");
        let classify = timed(&mut || {
            black_box(twin.predict_proba_with(&out, exact));
        });
        Some(ProbeRecord {
            call,
            draws: if adapter.degraded().is_none() {
                MC_DRAWS as usize
            } else {
                1
            },
            unguarded,
            split,
            reconstruct,
            reassemble,
            classify,
        })
    }
}

/// Artifact decorator: times every call the server and the controller
/// make into the artifact, and in traced runs probes its stages.
pub struct Timed {
    inner: Box<dyn DriftMitigator>,
    tap: Arc<Tap>,
    probe: Probe,
}

impl std::fmt::Debug for Timed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed").field("inner", &self.inner).finish()
    }
}

impl Timed {
    /// Wraps `inner`, logging into `tap`.
    pub fn wrap(inner: Box<dyn DriftMitigator>, tap: &Arc<Tap>) -> Box<dyn DriftMitigator> {
        Box::new(Timed {
            inner,
            tap: Arc::clone(tap),
            probe: Probe::default(),
        })
    }

    fn log(&self, log: &Mutex<Vec<Interval>>, t0: Instant) -> usize {
        let mut log = lock(log);
        log.push((t0, Instant::now()));
        log.len() - 1
    }
}

impl DriftMitigator for Timed {
    fn method(&self) -> Method {
        self.inner.method()
    }
    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> fsda::core::Result<()> {
        self.inner.fit(source, target_shots)
    }
    fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.inner.predict(features)
    }
    fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        self.inner.predict_batch(features, threads)
    }
    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> Result<Vec<usize>, ServeError> {
        let t0 = Instant::now();
        let out = self.inner.try_predict_batch(features, threads, guard);
        self.log(&self.tap.validate, t0);
        out
    }
    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        self.inner.predict_batch_with(features, threads, precision)
    }
    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> Result<Vec<usize>, ServeError> {
        let t0 = Instant::now();
        let out = self
            .inner
            .try_predict_batch_with(features, threads, guard, precision);
        let call = self.log(&self.tap.service, t0);
        if let Some(twin) = self.tap.twin.get() {
            if call.is_multiple_of(PROBE_EVERY) {
                if let Some(rec) =
                    self.probe
                        .run(self.inner.as_ref(), twin.as_ref(), features, call)
                {
                    lock(&self.tap.probes).push(rec);
                }
            }
        }
        out
    }
    fn to_bytes(&self) -> fsda::core::Result<Vec<u8>> {
        let t0 = Instant::now();
        let out = self.inner.to_bytes();
        self.log(&self.tap.serialize, t0);
        out
    }
    fn variant_features(&self) -> Option<Vec<usize>> {
        self.inner.variant_features()
    }
    fn health(&self) -> String {
        self.inner.health()
    }
}

/// A classifier with the artifact classifier's shapes, for timing the
/// classifier forward pass the composite predict hides.
pub fn stage_twin(source: &Dataset, budget: &Budget) -> fsda::core::Result<Arc<dyn Classifier>> {
    let mut twin = build_classifier(ClassifierKind::Tnet, 1, budget);
    twin.fit(source.features(), source.labels(), source.num_classes())?;
    Ok(Arc::from(twin))
}

/// The 5GC tenant fleet: paper-shape data and one fitted FS+GAN artifact.
pub struct Fleet {
    /// Source split the artifact was fitted on.
    pub source: Dataset,
    /// Drifted target split the traffic is drawn from.
    pub target: Dataset,
    /// Persisted artifact every fleet tenant boots from.
    pub bytes: Arc<Vec<u8>>,
}

impl Fleet {
    /// Generates the data and fits and persists the artifact.
    pub fn build() -> Result<Fleet, Box<dyn std::error::Error + Send + Sync>> {
        let bundle = Synth5gc {
            source_total: FLEET_SOURCE_ROWS,
            ..Synth5gc::full()
        }
        .generate(FLEET_DATA_SEED)?;
        let mut rng = SeededRng::new(FLEET_DATA_SEED);
        let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
        let cfg = AdapterConfig {
            budget: setup_budget(),
            ..AdapterConfig::default()
        };
        let mut artifact = Method::FsGan.build(&cfg, FLEET_FIT_SEED);
        artifact.try_fit(&bundle.source_train, &shots, &GuardConfig::default())?;
        Ok(Fleet {
            bytes: Arc::new(artifact.to_bytes()?),
            source: bundle.source_train,
            target: bundle.target_test,
        })
    }

    /// Number of distinct window blocks in the target split.
    pub fn window_blocks(&self) -> usize {
        self.target.len() / WINDOW_ROWS
    }

    /// A stage twin of the fleet classifier.
    pub fn twin(&self) -> fsda::core::Result<Arc<dyn Classifier>> {
        stage_twin(&self.source, &setup_budget())
    }
}

/// The drift stream `serve_during_refit` replays: a 32-feature layered
/// SCM whose interventions ramp up over four gradual windows.
const SCENARIO: &str = "\
topology = layered
features = 32
classes = 4
variant = 6
strength = 2.4
schedule = gradual:4
source_samples = 240
seed = 9
";
/// Labelled rows per window the controller buffers (shots and validation
/// hold-back come from these).
pub const POOL_ROWS: usize = 160;
/// Unlabelled rows per window handed to `observe`.
pub const OBSERVE_ROWS: usize = 192;
/// Fresh labelled rows per window for scoring the adapted artifact: 52
/// window blocks.
pub const EVAL_ROWS: usize = 52 * WINDOW_ROWS;
/// Initial incumbent's fit budget (declared, reduced like the fleet's).
fn incumbent_budget() -> Budget {
    Budget {
        nn_epochs: 5,
        gan_epochs: 10,
        threads: 1,
        ..Budget::quick()
    }
}
/// Declared re-fit budget: half the library's quick budget (75 GAN and 10
/// classifier epochs), about two seconds per fit at this scenario's size,
/// so a stream with retried cycles still fits in one run.
pub fn refit_config() -> AdapterConfig {
    AdapterConfig {
        budget: Budget {
            nn_epochs: 10,
            gan_epochs: 75,
            threads: 1,
            ..Budget::quick()
        },
        ..AdapterConfig::default()
    }
}

/// One window of the stream.
pub struct StreamWindow {
    /// Labelled rows pushed into the controller's buffer.
    pub pool: Dataset,
    /// Unlabelled rows scored by `observe`.
    pub observe: Matrix,
    /// Fresh labelled rows for scoring the artifact after the cycle.
    pub eval: Dataset,
}

/// The scenario stream and its initial incumbent.
pub struct Stream {
    /// Source split, shared with the controller.
    pub source: Arc<Dataset>,
    /// The windows, in order.
    pub windows: Vec<StreamWindow>,
    /// Initial incumbent's persisted bytes.
    pub initial: Arc<Vec<u8>>,
    /// Few-shot samples per class the controller draws.
    pub shots: usize,
}

impl Stream {
    /// Compiles the scenario, generates every window, and fits the
    /// initial incumbent.
    pub fn build() -> Result<Stream, Box<dyn std::error::Error + Send + Sync>> {
        let spec = ScenarioSpec::parse(SCENARIO)?;
        let compiled: CompiledScenario = spec.compile()?;
        let data = compiled.generate(Some(1))?;
        let mut windows = Vec::new();
        for w in 0..compiled.window_fractions().len() {
            let all = compiled.generate_window(w, POOL_ROWS + OBSERVE_ROWS + EVAL_ROWS, Some(1))?;
            let range = |a: usize, b: usize| all.subset(&(a..b).collect::<Vec<_>>());
            windows.push(StreamWindow {
                pool: range(0, POOL_ROWS),
                observe: range(POOL_ROWS, POOL_ROWS + OBSERVE_ROWS)
                    .features()
                    .clone(),
                eval: range(POOL_ROWS + OBSERVE_ROWS, all.len()),
            });
        }
        let mut rng = SeededRng::new(spec.seed);
        let shots = few_shot_subset(&data.target_pool, spec.shots, &mut rng)?;
        let cfg = AdapterConfig {
            budget: incumbent_budget(),
            ..AdapterConfig::default()
        };
        let mut incumbent = Method::FsGan.build(&cfg, spec.seed);
        incumbent.try_fit(&data.source_train, &shots, &GuardConfig::default())?;
        Ok(Stream {
            initial: Arc::new(incumbent.to_bytes()?),
            source: Arc::new(data.source_train),
            windows,
            shots: spec.shots,
        })
    }

    /// A stage twin of the stream tenant's classifier.
    pub fn twin(&self) -> fsda::core::Result<Arc<dyn Classifier>> {
        stage_twin(&self.source, &incumbent_budget())
    }

    /// Restores the initial incumbent, wrapped for timing.
    pub fn initial_artifact(&self, tap: &Arc<Tap>) -> fsda::core::Result<Box<dyn DriftMitigator>> {
        Ok(Timed::wrap(restore(&self.initial)?, tap))
    }
}

/// One re-fit attempt as the refitter saw it.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The `refit` call.
    pub span: Interval,
    /// Shots the attempt was given (for the traced separation twin).
    pub shots: Dataset,
    /// Variant set it was warm-started from.
    pub prev_variant: Option<Vec<usize>>,
    /// Separation path, when the fit succeeded.
    pub path: Option<SearchPath>,
    /// The fit's own telemetry, traced runs only: GAN training seconds,
    /// classifier training seconds, GAN epochs.
    pub fit_telemetry: Option<(f64, f64, u64)>,
}

/// `Refitter` decorator around the registry refitter: times each attempt
/// and wraps each candidate in [`Timed`], so a swapped-in candidate logs
/// into the tenant's tap like the incumbent did.
pub struct TappedRefitter {
    inner: RegistryRefitter,
    tap: Arc<Tap>,
    /// Recorder the program's telemetry goes to, set for traced runs.
    pub recorder: OnceLock<Arc<InMemoryRecorder>>,
    /// Attempts so far.
    pub attempts: Mutex<Vec<Attempt>>,
}

impl TappedRefitter {
    /// Builds the registry refitter for FS+GAN over `source`.
    pub fn new(source: &Dataset, tap: &Arc<Tap>) -> fsda::core::Result<TappedRefitter> {
        Ok(TappedRefitter {
            inner: RegistryRefitter::new(
                Method::FsGan,
                refit_config(),
                GuardConfig::default(),
                source,
            )?,
            tap: Arc::clone(tap),
            recorder: OnceLock::new(),
            attempts: Mutex::new(Vec::new()),
        })
    }

    /// Takes the attempts recorded so far.
    pub fn drain(&self) -> Vec<Attempt> {
        std::mem::take(&mut *lock(&self.attempts))
    }
}

impl Refitter for TappedRefitter {
    fn refit(&self, request: RefitRequest) -> Result<Refit, FitError> {
        let shots = request.shots.clone();
        let prev_variant = request.prev_variant.clone();
        let t0 = Instant::now();
        let out = self.inner.refit(request);
        let span = (t0, Instant::now());
        // `fit_with_separation` hides the GAN/classifier split; the fit's
        // own telemetry has it. Attempts run one at a time, so everything
        // recorded since the last take belongs to this one.
        let fit_telemetry = self.recorder.get().map(|rec| {
            let snap = rec.take();
            let secs = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum);
            (
                secs("pipeline.fit.reconstruction.seconds"),
                secs("pipeline.fit.classifier.seconds"),
                snap.counter("nn.train.epochs"),
            )
        });
        lock(&self.attempts).push(Attempt {
            span,
            shots,
            prev_variant,
            path: out.as_ref().ok().map(|r| r.path),
            fit_telemetry,
        });
        out.map(|r| Refit {
            artifact: Timed::wrap(r.artifact, &self.tap),
            path: r.path,
        })
    }
}
