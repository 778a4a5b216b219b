//! The two workloads, their correctness checks, and the metrics they
//! report.

use crate::fleet::{
    refit_config, Attempt, Fleet, Interval, ProbeRecord, Stream, Tap, TappedRefitter, Timed,
    POOL_ROWS, WINDOW_ROWS,
};
use crate::load::{self, Driven, Kind, Mix, Outcome, Planned, Sent};
use crate::stats::{self, TAIL_SUPPORT};
use crate::trace::Trace;
use fsda::core::drift::{DriftConfig, DriftDetector};
use fsda::core::pipeline::restore;
use fsda::core::telemetry::{self, InMemoryRecorder};
use fsda::core::{FeatureSeparation, GuardConfig, SearchPath, SeparationCache};
use fsda::linalg::Matrix;
use fsda::models::metrics::macro_f1;
use fsda::serve::{ControlOutcome, ControllerConfig, DriftController, ServeConfig, TenantServer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Error = Box<dyn std::error::Error + Send + Sync>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// One shard: with the re-fit worker and the load generator it fills a
/// 2-core host.
const SHARDS: usize = 1;
/// Fleet tenants.
const FLEET_TENANTS: usize = 4;
/// Name of the tenant the drift controller supervises.
const ADAPTIVE: &str = "adaptive";
/// One request in this many is a 64-row window; the rest are alerts. An
/// assumed mix: nothing in the repository measures how often operators
/// send single alerts against aggregated windows.
const WINDOW_EVERY: usize = 6;
/// Fixed offered rate, requests per second over the fleet; an assumed
/// operating point, not a measured load. It keeps one shard about a third
/// busy (a window takes ≈ 48 ms, an alert ≈ 3.5 ms), so latency reads
/// mostly service time: near half busy, the alert median jumps between an
/// idle shard and a half-served window from run to run. At `--seconds 44`
/// the run holds the 1000 alerts and 200 windows its p99 and p95 need.
const FIXED_RATE: f64 = 32.0;
/// Alerts per second to the adaptive tenant in `serve_during_refit`; an
/// assumed rate, enough to keep every stream window's artifact served.
const ADAPTIVE_ALERT_RATE: f64 = 20.0;
/// Controller seed (shot draws and fit seeds). The drift stream is a fixed
/// scenario like the fleet; `--seed` drives the traffic. With this seed the
/// stream swaps on three windows and rejects one after three attempts.
const CONTROLLER_SEED: u64 = 1;

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: Some(SHARDS),
        // Deep queues: overload shows as latency and backlog, not refusals.
        shard_queue_capacity: 1 << 15,
        tenant_queue_capacity: 1 << 13,
        ..ServeConfig::default()
    }
}

fn controller_config(seed: u64, shots: usize) -> ControllerConfig {
    ControllerConfig {
        // Only the freshest window feeds each re-fit.
        buffer_capacity: 1,
        shots_per_class: shots,
        // Generous: a deadline that fires under load is a failure the
        // benchmark does not want to measure.
        attempt_deadline: Duration::from_secs(120),
        predict_threads: Some(1),
        seed,
        ..ControllerConfig::default()
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub traced: bool,
    /// Where the traced run's spans go.
    pub out_dir: std::path::PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests plus re-fit attempts.
    pub attempted: u64,
    /// Failed or refused requests plus failed or timed-out attempts.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Violations found by the checks.
    pub problems: Vec<String>,
}

/// Which rows a request carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rows {
    /// Fleet target rows: an alert row or a window block.
    Fleet(Kind, usize),
    /// Rows of a stream window's evaluation split.
    Eval(usize, Kind, usize),
}

impl Rows {
    fn kind(self) -> Kind {
        match self {
            Rows::Fleet(k, _) | Rows::Eval(_, k, _) => k,
        }
    }

    fn indices(self) -> Vec<usize> {
        let (kind, pick) = match self {
            Rows::Fleet(k, p) | Rows::Eval(_, k, p) => (k, p),
        };
        match kind {
            Kind::Alert => vec![pick],
            Kind::Window => (pick * WINDOW_ROWS..(pick + 1) * WINDOW_ROWS).collect(),
        }
    }
}

/// One request of any phase, with everything the checks and metrics need.
#[derive(Debug, Clone)]
struct Request {
    /// Start of the phase the `sent` times are relative to.
    start: Instant,
    tenant: usize,
    rows: Rows,
    sent: Sent,
    service: Option<Interval>,
    probe: Option<ProbeRecord>,
}

impl Request {
    fn served(&self) -> Option<(&[usize], u64)> {
        match &self.sent.outcome {
            Outcome::Served {
                predictions,
                version,
            } => Some((predictions, *version)),
            _ => None,
        }
    }
}

/// One open-loop serving phase.
#[derive(Debug)]
struct Phase {
    start: Instant,
    requests: Vec<Request>,
    pending: Vec<(f64, f64)>,
}

/// `capacity_rps` of the served requests among `requests`: requests per
/// second of the service time the artifact decorator measured.
fn capacity(requests: &[&Request]) -> f64 {
    stats::capacity_rps(
        &requests
            .iter()
            .filter(|r| r.served().is_some())
            .filter_map(|r| r.service.map(|s| (s.1 - s.0).as_secs_f64()))
            .collect::<Vec<_>>(),
    )
}

/// Everything a workload runs against.
struct Rig {
    server: Arc<TenantServer>,
    tenants: Vec<String>,
    taps: Vec<Arc<Tap>>,
    fleet: Option<Arc<Fleet>>,
    /// The stream's data, shared with the thread that replays it.
    data: Option<Arc<Stream>>,
    stream: Option<StreamRig>,
}

/// The drift controller's side of the rig.
struct StreamRig {
    stream: Arc<Stream>,
    tenant: usize,
    refitter: Arc<TappedRefitter>,
    controller: Option<DriftController>,
    config: ControllerConfig,
    /// Every version the adaptive tenant has served, with its bytes.
    versions: Vec<(u64, Arc<Vec<u8>>)>,
}

impl Rig {
    fn build(with_fleet: bool, with_stream: bool) -> Result<Rig, Error> {
        let mut tenants = Vec::new();
        let mut taps = Vec::new();
        let mut artifacts = Vec::new();
        let fleet = if with_fleet {
            let fleet = Fleet::build()?;
            for i in 0..FLEET_TENANTS {
                let tap = Arc::new(Tap::default());
                artifacts.push((
                    format!("fleet-{i}"),
                    Timed::wrap(restore(&fleet.bytes)?, &tap),
                ));
                tenants.push(format!("fleet-{i}"));
                taps.push(tap);
            }
            Some(Arc::new(fleet))
        } else {
            None
        };
        let stream = if with_stream {
            let stream = Arc::new(Stream::build()?);
            let tap = Arc::new(Tap::default());
            artifacts.push((ADAPTIVE.to_string(), stream.initial_artifact(&tap)?));
            tenants.push(ADAPTIVE.to_string());
            let refitter = Arc::new(TappedRefitter::new(&stream.source, &tap)?);
            taps.push(tap);
            Some((stream, refitter))
        } else {
            None
        };
        let server = Arc::new(TenantServer::from_artifacts(artifacts, serve_config())?);
        let stream = match stream {
            Some((stream, refitter)) => {
                let config = controller_config(CONTROLLER_SEED, stream.shots);
                let controller = DriftController::new(
                    ADAPTIVE,
                    Arc::clone(&server),
                    Arc::clone(&stream.source),
                    stream.initial.to_vec(),
                    refitter.clone(),
                    config.clone(),
                )?;
                let initial = Arc::clone(&stream.initial);
                Some(StreamRig {
                    stream,
                    tenant: tenants.len() - 1,
                    refitter,
                    controller: Some(controller),
                    config,
                    versions: vec![(1, initial)],
                })
            }
            None => None,
        };
        Ok(Rig {
            server,
            tenants,
            taps,
            fleet,
            data: stream.as_ref().map(|s| Arc::clone(&s.stream)),
            stream,
        })
    }

    fn shutdown(self) {
        drop(self.stream);
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.shutdown();
        }
    }

    fn batch(&self, rows: Rows) -> Matrix {
        let idx = rows.indices();
        match rows {
            Rows::Fleet(..) => self
                .fleet
                .as_ref()
                .expect("fleet rows need the fleet")
                .target
                .features()
                .select_rows(&idx),
            Rows::Eval(w, ..) => self
                .data
                .as_ref()
                .expect("eval rows need the stream")
                .windows[w]
                .eval
                .features()
                .select_rows(&idx),
        }
    }

    fn labels(&self, rows: Rows) -> Vec<usize> {
        let labels = match rows {
            Rows::Fleet(..) => self.fleet.as_ref().expect("fleet").target.labels(),
            Rows::Eval(w, ..) => self.data.as_ref().expect("stream").windows[w].eval.labels(),
        };
        rows.indices().into_iter().map(|i| labels[i]).collect()
    }

    fn num_classes(&self, rows: Rows) -> usize {
        match rows {
            Rows::Fleet(..) => self.fleet.as_ref().expect("fleet").target.num_classes(),
            Rows::Eval(..) => self.data.as_ref().expect("stream").source.num_classes(),
        }
    }

    /// The bytes of artifact `version` of tenant `tenant`.
    fn artifact(&self, tenant: usize, version: u64) -> Option<Arc<Vec<u8>>> {
        match &self.stream {
            Some(s) if s.tenant == tenant => s
                .versions
                .iter()
                .find(|(v, _)| *v == version)
                .map(|(_, b)| Arc::clone(b)),
            _ if version == 1 => self.fleet.as_ref().map(|f| Arc::clone(&f.bytes)),
            _ => None,
        }
    }
}

/// Builds the rig `SETUP_REPS` times; returns the last and the median
/// set-up time. Every build must persist the same artifact bytes: the fits
/// are seeded, and the served labels are checked against these bytes, so
/// equal bytes make the served and adapted outputs repeat across runs.
fn setup(
    with_fleet: bool,
    with_stream: bool,
    problems: &mut Vec<String>,
) -> Result<(Rig, f64), Error> {
    let bytes = |r: &Rig| {
        (
            r.fleet.as_ref().map(|f| Arc::clone(&f.bytes)),
            r.data.as_ref().map(|s| Arc::clone(&s.initial)),
        )
    };
    let mut times = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        let before = rig.take().map(|old| {
            let b = bytes(&old);
            Rig::shutdown(old);
            b
        });
        let t = Instant::now();
        let next = Rig::build(with_fleet, with_stream)?;
        times.push(t.elapsed().as_secs_f64());
        if before.is_some_and(|b| b != bytes(&next)) {
            problems.push("two set-ups persisted different artifact bytes".into());
        }
        rig = Some(next);
    }
    Ok((rig.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Drives one open-loop phase and matches every admitted request with the
/// service call that served it. `current` names the stream window the
/// adaptive tenant's alerts are drawn from.
fn run_phase(
    rig: &Rig,
    plan: &[Planned],
    current: &AtomicUsize,
    problems: &mut Vec<String>,
) -> Phase {
    let before: Vec<_> = rig
        .tenants
        .iter()
        .map(|t| rig.server.stats(t).ok())
        .collect();
    let mut rows = Vec::with_capacity(plan.len());
    let Driven {
        start,
        sent,
        pending,
    } = load::drive(&rig.server, &rig.tenants, plan, |_, p| {
        let r = if p.tenant < FLEET_TENANTS {
            Rows::Fleet(p.kind, p.pick)
        } else {
            Rows::Eval(current.load(Ordering::SeqCst), p.kind, p.pick)
        };
        rows.push(r);
        rig.batch(r)
    });
    let mut requests: Vec<Request> = plan
        .iter()
        .zip(sent)
        .zip(rows)
        .map(|((p, sent), rows)| Request {
            start,
            tenant: p.tenant,
            rows,
            sent,
            service: None,
            probe: None,
        })
        .collect();
    for (ti, name) in rig.tenants.iter().enumerate() {
        let (service, probes) = rig.taps[ti].drain_serving();
        let admitted: Vec<usize> = (0..requests.len())
            .filter(|&i| {
                requests[i].tenant == ti && !matches!(requests[i].sent.outcome, Outcome::Refused)
            })
            .collect();
        let refused = requests
            .iter()
            .filter(|r| r.tenant == ti && matches!(r.sent.outcome, Outcome::Refused))
            .count();
        if admitted.len() != service.len() {
            problems.push(format!(
                "{name}: {} admitted requests but {} service calls",
                admitted.len(),
                service.len()
            ));
        }
        for (&i, s) in admitted.iter().zip(&service) {
            requests[i].service = Some(*s);
        }
        for p in probes {
            if let Some(&i) = admitted.get(p.call) {
                requests[i].probe = Some(p);
            }
        }
        if let (Some(b), Ok(a)) = (&before[ti], rig.server.stats(name)) {
            let (adm, rej) = (a.admitted - b.admitted, a.rejected - b.rejected);
            if adm != admitted.len() as u64 || rej != refused as u64 {
                problems.push(format!(
                    "{name}: server counted {adm} admitted / {rej} refused, benchmark {} / {refused}",
                    admitted.len()
                ));
            }
        }
    }
    Phase {
        start,
        requests,
        pending,
    }
}

fn fleet_mix() -> Mix {
    Mix {
        rate: FIXED_RATE,
        tenants: (0..FLEET_TENANTS).collect(),
        window_every: WINDOW_EVERY,
        alert_picks: 0,
        window_picks: 0,
    }
}

/// An artifact (by the address of its bytes) and the rows sent to it.
type CheckKey = (usize, Rows);

/// Checks every served response against `predict_batch` of the artifact
/// version it names, restored from that version's bytes. Identical
/// `(artifact, rows)` pairs are recomputed once; the work is split over
/// two threads.
fn verify(rig: &Rig, requests: &[&Request], problems: &mut Vec<String>) {
    let mut work: HashMap<CheckKey, (Arc<Vec<u8>>, Vec<usize>)> = HashMap::new();
    for r in requests {
        let Some((_, version)) = r.served() else {
            continue;
        };
        match rig.artifact(r.tenant, version) {
            Some(bytes) => {
                let key = (Arc::as_ptr(&bytes) as usize, r.rows);
                work.entry(key).or_insert_with(|| (bytes, Vec::new()));
            }
            None => problems.push(format!(
                "{}: response names unknown artifact version {version}",
                rig.tenants[r.tenant]
            )),
        }
    }
    let mut items: Vec<_> = work.into_iter().collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let chunk = items.len().div_ceil(threads).max(1);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut restored: HashMap<usize, Box<dyn fsda::core::DriftMitigator>> =
                        HashMap::new();
                    let mut errors = Vec::new();
                    for ((ptr, rows), (bytes, out)) in part.iter_mut() {
                        let artifact = match restored.entry(*ptr) {
                            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                            std::collections::hash_map::Entry::Vacant(v) => match restore(bytes) {
                                Ok(a) => v.insert(a),
                                Err(e) => {
                                    errors.push(format!("artifact failed to restore: {e}"));
                                    continue;
                                }
                            },
                        };
                        *out = artifact.predict_batch(&rig.batch(*rows), Some(1));
                    }
                    errors
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    problems.extend(failures);
    let expected: HashMap<CheckKey, Vec<usize>> =
        items.into_iter().map(|(k, (_, v))| (k, v)).collect();
    let mut mismatches = 0;
    for r in requests {
        let Some((got, version)) = r.served() else {
            continue;
        };
        let Some(bytes) = rig.artifact(r.tenant, version) else {
            continue;
        };
        if expected
            .get(&(Arc::as_ptr(&bytes) as usize, r.rows))
            .map(Vec::as_slice)
            != Some(got)
        {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} responses differ from predict_batch of the version they name"
        ));
    }
}

/// Macro-F1 of the served labels of `requests` against the true labels.
fn served_f1(rig: &Rig, requests: &[&Request]) -> f64 {
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    let mut classes = 0;
    for r in requests {
        if let Some((got, _)) = r.served() {
            truth.extend(rig.labels(r.rows));
            pred.extend_from_slice(got);
            classes = rig.num_classes(r.rows);
        }
    }
    macro_f1(&truth, &pred, classes)
}

fn tail(sample: Vec<f64>, p: u32, what: &str, problems: &mut Vec<String>) -> f64 {
    let sorted = stats::sorted(sample.into_iter().filter(|l| l.is_finite()).collect());
    stats::percentile(&sorted, p, TAIL_SUPPORT).unwrap_or_else(|| {
        problems.push(format!(
            "{what}: p{p} needs {TAIL_SUPPORT} samples beyond it, have {} samples",
            sorted.len()
        ));
        f64::NAN
    })
}

/// The latency metrics over `requests`, each from its due time.
fn latency_metrics(requests: &[&Request], problems: &mut Vec<String>) -> [(String, f64); 4] {
    let of = |kind: Kind| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| r.rows.kind() == kind && r.served().is_some())
            .map(|r| r.sent.latency_ms())
            .collect()
    };
    let (alerts, windows) = (of(Kind::Alert), of(Kind::Window));
    [
        ("alert_p50_ms".into(), stats::median(&alerts)),
        ("alert_p99_ms".into(), tail(alerts, 99, "alert", problems)),
        ("window_p50_ms".into(), stats::median(&windows)),
        (
            "window_p95_ms".into(),
            tail(windows, 95, "window", problems),
        ),
    ]
}

fn misses(requests: &[&Request]) -> u64 {
    requests.iter().filter(|r| r.served().is_none()).count() as u64
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One `push_window` + `observe` cycle of the stream.
#[derive(Debug, Clone)]
struct Cycle {
    rep: usize,
    window: usize,
    push: Interval,
    observe: Interval,
    outcome: &'static str,
    attempts: usize,
    failed_attempts: usize,
    detect_to_swap: Option<f64>,
    bytes_after: Arc<Vec<u8>>,
    refits: Vec<Attempt>,
    twin: Option<CycleTwin>,
}

/// A separation re-run on an attempt's shots: `(ms, CI tests, variant
/// features, warm path)`.
type SeparationTwin = (f64, usize, usize, bool);

/// Traced-run measurements of a cycle's hidden stages.
#[derive(Debug, Clone, Default)]
struct CycleTwin {
    score_ms: f64,
    restore_ms: f64,
    incumbent_predict_ms: f64,
    /// Per attempt: `(ms, ci tests, variant features, warm)`.
    separations: Vec<SeparationTwin>,
}

/// What the traced run adds to the stream: twins of the stages `observe`
/// hides.
struct StreamTwins {
    cache: SeparationCache,
    detector: DriftDetector,
}

#[derive(Debug, Default)]
struct StreamRun {
    cycles: Vec<Cycle>,
    /// Complete repetitions.
    reps: usize,
    /// Sum of `push_window` + `observe` time per complete repetition.
    stream_s: Vec<f64>,
}

impl StreamRun {
    /// Cycles of the first repetition, which every later one repeats.
    fn first(&self) -> impl Iterator<Item = &Cycle> {
        self.cycles.iter().filter(|c| c.rep == 0)
    }
}

/// Replays the drift stream, cycle after cycle, until `stop` is set and at
/// least one repetition is complete; the cycle running when `stop` is set
/// finishes, so re-fits overlap the traffic to its end. Each repetition
/// after the first republishes the initial incumbent through
/// `TenantServer::swap` and starts a fresh controller.
fn run_streams(
    rig: &mut Rig,
    stop: &AtomicBool,
    current: &AtomicUsize,
    twins: Option<&StreamTwins>,
    problems: &mut Vec<String>,
) -> Result<StreamRun, Error> {
    let mut run = StreamRun::default();
    'reps: loop {
        let sr = rig.stream.as_mut().expect("stream rig");
        let mut controller = match sr.controller.take() {
            Some(c) => c,
            None => {
                let tap = &rig.taps[sr.tenant];
                let out = rig
                    .server
                    .swap(ADAPTIVE, sr.stream.initial_artifact(tap)?)?;
                sr.versions
                    .push((out.new_version, Arc::clone(&sr.stream.initial)));
                DriftController::new(
                    ADAPTIVE,
                    Arc::clone(&rig.server),
                    Arc::clone(&sr.stream.source),
                    sr.stream.initial.to_vec(),
                    sr.refitter.clone(),
                    sr.config.clone(),
                )?
            }
        };
        let mut rep_s = 0.0;
        for w in 0..sr.stream.windows.len() {
            if run.reps > 0 && stop.load(Ordering::SeqCst) {
                break 'reps;
            }
            let sr = rig.stream.as_mut().expect("stream rig");
            current.store(w, Ordering::SeqCst);
            let window = &sr.stream.windows[w];
            let bytes_before = Arc::new(controller.last_good_artifact().to_vec());
            let t0 = Instant::now();
            controller.push_window(window.pool.clone())?;
            let t1 = Instant::now();
            let outcome = controller.observe(&window.observe);
            let t2 = Instant::now();
            rep_s += (t2 - t0).as_secs_f64();
            let (name, attempts, failed, d2s) = match &outcome {
                ControlOutcome::NoDrift(_) => ("no_drift", 0, 0, None),
                ControlOutcome::Swapped(s) => {
                    let bytes = Arc::new(controller.last_good_artifact().to_vec());
                    sr.versions.push((s.version, bytes));
                    (
                        "swapped",
                        s.attempts,
                        0,
                        Some(s.detect_to_swap.as_secs_f64()),
                    )
                }
                ControlOutcome::Rejected(r) => ("rejected", r.attempts, 0, None),
                ControlOutcome::Failed(f) => ("failed", f.attempts, f.attempts, None),
                ControlOutcome::BreakerOpen { .. } => ("breaker_open", 0, 0, None),
                ControlOutcome::CorruptWindow(_) => ("corrupt_window", 0, 0, None),
            };
            if matches!(name, "breaker_open" | "corrupt_window") {
                problems.push(format!("window {w}: unexpected outcome {name}"));
            }
            let refits = sr.refitter.drain();
            let twin =
                twins.map(|t| cycle_twin(t, &sr.stream, w, &refits, &bytes_before, attempts > 0));
            let cycle = Cycle {
                rep: run.reps,
                window: w,
                push: (t0, t1),
                observe: (t1, t2),
                outcome: name,
                attempts,
                failed_attempts: failed,
                detect_to_swap: d2s,
                bytes_after: Arc::new(controller.last_good_artifact().to_vec()),
                refits,
                twin,
            };
            run.cycles.push(cycle);
        }
        run.stream_s.push(rep_s);
        run.reps += 1;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    // Every repetition replays the same inputs with the same seeds, so it
    // must make the same decisions and publish the same bytes.
    let first: Vec<_> = run.first().collect();
    for c in run.cycles.iter().filter(|c| c.rep > 0) {
        let f = first[c.window];
        if c.outcome != f.outcome || c.attempts != f.attempts || c.bytes_after != f.bytes_after {
            problems.push(format!(
                "repetition {} window {} diverged from the first repetition",
                c.rep, c.window
            ));
        }
    }
    Ok(run)
}

fn cycle_twin(
    t: &StreamTwins,
    stream: &Stream,
    w: usize,
    refits: &[Attempt],
    bytes_before: &[u8],
    readapted: bool,
) -> CycleTwin {
    let window = &stream.windows[w];
    let t0 = Instant::now();
    let _ = std::hint::black_box(t.detector.try_score(&window.observe));
    let score_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (mut restore_ms, mut incumbent_predict_ms) = (0.0, 0.0);
    if readapted {
        // The controller's hold-back: the trailing quarter of the window.
        let hold =
            (POOL_ROWS as f64 * ControllerConfig::default().holdback_fraction).round() as usize;
        let val = window
            .pool
            .subset(&((POOL_ROWS - hold)..POOL_ROWS).collect::<Vec<_>>());
        let t0 = Instant::now();
        if let Ok(incumbent) = restore(bytes_before) {
            restore_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let _ = std::hint::black_box(incumbent.try_predict_batch(
                val.features(),
                Some(1),
                &GuardConfig::default(),
            ));
            incumbent_predict_ms = t1.elapsed().as_secs_f64() * 1e3;
        }
    }
    let separations = refits
        .iter()
        .filter_map(|a| {
            let t0 = Instant::now();
            let (sep, path) =
                FeatureSeparation::fit_warm(&t.cache, &a.shots, a.prev_variant.as_deref()).ok()?;
            Some((
                t0.elapsed().as_secs_f64() * 1e3,
                sep.tests_run(),
                sep.variant().len(),
                path == SearchPath::Warm,
            ))
        })
        .collect();
    CycleTwin {
        score_ms,
        restore_ms,
        incumbent_predict_ms,
        separations,
    }
}

/// Evaluation blocks `adapted_macro_f1` scores per window (832 rows).
const ADAPTED_BLOCKS: usize = 13;

/// Macro-F1 of each window's post-cycle artifact on that window's fresh
/// labelled rows (the first [`ADAPTED_BLOCKS`] 64-row blocks, predicted
/// block by block as they are served), averaged over the windows of the
/// first repetition; later repetitions publish the same bytes.
fn adapted_f1(rig: &Rig, run: &StreamRun) -> Result<f64, Error> {
    let sr = rig.stream.as_ref().expect("stream rig");
    let mut f1s = Vec::new();
    for c in run.first() {
        let artifact = restore(&c.bytes_after)?;
        let eval = &sr.stream.windows[c.window].eval;
        let rows = ADAPTED_BLOCKS * WINDOW_ROWS;
        let mut pred = Vec::with_capacity(rows);
        for b in 0..ADAPTED_BLOCKS {
            let idx: Vec<usize> = (b * WINDOW_ROWS..(b + 1) * WINDOW_ROWS).collect();
            pred.extend(artifact.predict_batch(&eval.features().select_rows(&idx), Some(1)));
        }
        f1s.push(macro_f1(&eval.labels()[..rows], &pred, eval.num_classes()));
    }
    Ok(stats::mean(&f1s))
}

/// The latency metrics that are reported but not gated: on a 2-vCPU host
/// whose speed alternates over minutes, ten seeds of `serve_mix` spread
/// `alert_p50_ms` by 23%, `alert_p99_ms` by 22% and `window_p95_ms` by 34%
/// (quartile distance over median), so no bound the benchmark may set
/// holds them. `window_p50_ms` spread 10% and is gated.
const UNGATED: [&str; 3] = ["alert_p50_ms", "alert_p99_ms", "window_p95_ms"];

/// Adds the end-to-end metrics to `metrics`, and prints the ungated
/// latencies beside them.
fn push_e2e(
    metrics: &mut Vec<(String, f64, &'static str)>,
    setup_s: f64,
    lat: [(String, f64); 4],
    capacity: f64,
    f1: f64,
) {
    metrics.push(("setup_s".into(), setup_s, "s"));
    for (name, v) in lat {
        if UNGATED.contains(&name.as_str()) {
            eprintln!("  {name:<38} {v:>14.4} ms (reported, not gated)");
        } else {
            metrics.push((name, v, "ms"));
        }
    }
    metrics.push(("capacity_rps".into(), capacity, "1/s"));
    metrics.push(("served_macro_f1".into(), f1, "ratio"));
    metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
}

/// The end-to-end numbers of one pass, for the trace-overhead comparison.
#[derive(Debug, Default, Clone)]
struct PassE2e {
    alert_p50_ms: f64,
    window_p50_ms: f64,
    stream_s: Option<f64>,
}

impl PassE2e {
    fn overhead_pct(&self, traced: &PassE2e) -> f64 {
        let mut rel = vec![
            traced.alert_p50_ms / self.alert_p50_ms - 1.0,
            traced.window_p50_ms / self.window_p50_ms - 1.0,
        ];
        if let (Some(a), Some(b)) = (self.stream_s, traced.stream_s) {
            rel.push(b / a - 1.0);
        }
        100.0 * stats::mean(&rel)
    }
}

fn pass_e2e(requests: &[&Request], stream: Option<&StreamRun>) -> PassE2e {
    let med = |kind: Kind| {
        stats::median(
            &requests
                .iter()
                .filter(|r| r.rows.kind() == kind && r.served().is_some())
                .map(|r| r.sent.latency_ms())
                .collect::<Vec<_>>(),
        )
    };
    PassE2e {
        alert_p50_ms: med(Kind::Alert),
        window_p50_ms: med(Kind::Window),
        stream_s: stream.map(|s| stats::median(&s.stream_s)),
    }
}

/// Turns on the traced run's instruments: the program's telemetry into an
/// in-memory recorder, and stage probes on every tenant.
fn start_tracing(rig: &Rig) -> Result<Option<StreamTwins>, Error> {
    let recorder = Arc::new(InMemoryRecorder::new());
    telemetry::set_recorder(recorder.clone());
    for (ti, tap) in rig.taps.iter().enumerate() {
        let twin = match &rig.stream {
            Some(sr) if sr.tenant == ti => sr.stream.twin()?,
            _ => rig.fleet.as_ref().expect("fleet").twin()?,
        };
        let _ = tap.twin.set(twin);
    }
    if let Some(sr) = &rig.stream {
        let _ = sr.refitter.recorder.set(recorder);
    }
    Ok(match &rig.stream {
        Some(sr) => Some(StreamTwins {
            cache: SeparationCache::new(&sr.stream.source, &refit_config().fs)?,
            detector: DriftDetector::fit(sr.stream.source.features(), DriftConfig::default()),
        }),
        None => None,
    })
}

/// `serve_mix`: the fleet traffic at the fixed rate.
fn serve_mix_pass(rig: &Rig, seed: u64, seconds: f64, problems: &mut Vec<String>) -> Phase {
    let fleet = rig.fleet.as_ref().expect("fleet");
    let mix = Mix {
        alert_picks: fleet.target.len(),
        window_picks: fleet.window_blocks(),
        ..fleet_mix()
    };
    let plan = load::schedule(seed, &mix, seconds);
    run_phase(rig, &plan, &AtomicUsize::new(0), problems)
}

/// `serve_during_refit`: fixed-rate fleet traffic plus alerts to the
/// adaptive tenant, while the drift stream re-fits it.
fn during_refit_pass(
    rig: &mut Rig,
    seed: u64,
    seconds: f64,
    twins: Option<&StreamTwins>,
    problems: &mut Vec<String>,
) -> Result<(Phase, StreamRun), Error> {
    let fleet = rig.fleet.as_ref().expect("fleet");
    let sr = rig.stream.as_ref().expect("stream");
    let mix = Mix {
        alert_picks: fleet.target.len(),
        window_picks: fleet.window_blocks(),
        ..fleet_mix()
    };
    let adaptive = Mix {
        rate: ADAPTIVE_ALERT_RATE,
        tenants: vec![sr.tenant],
        window_every: 0,
        alert_picks: sr.stream.windows[0].eval.len(),
        window_picks: 1,
    };
    let plan = load::merge(
        load::schedule(seed, &mix, seconds),
        load::schedule(seed ^ 0x5EED, &adaptive, seconds),
    );
    let current = AtomicUsize::new(0);
    // The stream thread owns the controller's side of the rig; traffic
    // reads the rest. The version map is merged back before verification.
    let mut stream_rig = Rig {
        server: Arc::clone(&rig.server),
        tenants: rig.tenants.clone(),
        taps: rig.taps.clone(),
        fleet: None,
        data: rig.data.clone(),
        stream: rig.stream.take(),
    };
    let stop = AtomicBool::new(false);
    let mut stream_problems = Vec::new();
    let traffic_rig: &Rig = rig;
    let (phase, run) = std::thread::scope(|scope| {
        let (current, stop) = (&current, &stop);
        let stream_problems = &mut stream_problems;
        let handle = scope.spawn(move || {
            let run = run_streams(&mut stream_rig, stop, current, twins, stream_problems);
            (run, stream_rig.stream)
        });
        let phase = run_phase(traffic_rig, &plan, current, problems);
        stop.store(true, Ordering::SeqCst);
        let (run, stream) = handle.join().expect("stream thread panicked");
        (phase, (run, stream))
    });
    let (run, stream) = run;
    rig.stream = stream;
    problems.extend(stream_problems);
    Ok((phase, run?))
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.server.admit_us", "us"),
    ("serve.server.queue_wait_p50_ms", "ms"),
    ("serve.server.queue_wait_p99_ms", "ms"),
    ("serve.server.service_ms.alert", "ms"),
    ("serve.server.service_ms.window", "ms"),
    ("serve.server.max_pending", "count"),
    ("serve.server.admitted", "count"),
    ("serve.server.rejected", "count"),
    ("serve.server.fail_frac", "ratio"),
    ("bench.load.lateness_p50_ms", "ms"),
    ("bench.load.lateness_max_ms", "ms"),
    ("core.adapter.guard_ms", "ms"),
    ("core.adapter.mc_draws", "count"),
    ("core.adapter.unattributed_ms", "ms"),
    ("core.fs.split_ms", "ms"),
    ("core.fs.reassemble_ms", "ms"),
    ("gan.forward_ms", "ms"),
    ("gan.train_s", "s"),
    ("gan.epochs", "count"),
    ("gan.train_ms_per_epoch", "ms"),
    ("models.forward_ms", "ms"),
    ("models.train_s", "s"),
    ("linalg.flops_per_row", "flop"),
    ("linalg.bytes_per_row", "B"),
    ("linalg.gflops", "GFLOP/s"),
    ("causal.separation_ms", "ms"),
    ("causal.ci_tests", "count"),
    ("causal.variant_features", "count"),
    ("causal.warm_share", "ratio"),
    ("core.drift.score_ms", "ms"),
    ("core.persist.to_bytes_ms", "ms"),
    ("core.persist.restore_ms", "ms"),
    ("core.persist.artifact_kb", "KiB"),
    ("serve.controller.validate_ms", "ms"),
    ("serve.controller.attempts_per_swap", "count"),
    ("serve.controller.cycle_coverage", "ratio"),
    ("serve.controller.detect_to_swap_s", "s"),
    ("serve.controller.stream_s", "s"),
    ("serve.controller.adapted_macro_f1", "ratio"),
    ("serve.controller.swaps", "count"),
    ("serve.hotswap.swap_us", "us"),
    ("serve.hotswap.retired", "count"),
    ("telemetry.trace_overhead_pct", "%"),
];

/// Per-layer values by name; a layer a workload does no work in reads 0.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), self.0.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    }
}

fn ms(iv: Interval) -> f64 {
    (iv.1 - iv.0).as_secs_f64() * 1e3
}

/// Layer shapes of an FS+GAN artifact over `features` columns with
/// `variant` reconstructed ones: `(multiply-adds, activations, weights)`
/// per row and draw, generator plus classifier, as the adapter builds them.
fn shapes(features: usize, variant: usize, classes: usize) -> (f64, f64, f64) {
    let gan = if features > 250 {
        fsda::gan::CondGanConfig::for_5gc()
    } else {
        fsda::gan::CondGanConfig::for_5gipc()
    };
    let h = gan.hidden;
    let gen = [
        (features - variant + gan.noise_dim, h),
        (h, h),
        (h, variant),
    ];
    let t = fsda::models::tnet::TnetConfig::default().hidden;
    let cls = [(features, t), (t, t), (t, classes)];
    let layers = gen.iter().chain(&cls);
    let macs: usize = layers.clone().map(|(i, o)| i * o).sum();
    let acts: usize = layers.clone().map(|(i, o)| i + o).sum();
    let weights: usize = layers.map(|(i, o)| i * o + o).sum();
    (macs as f64, acts as f64, weights as f64)
}

/// Serving-layer metrics and spans from one traced pass.
fn serving_layers(
    layers: &mut Layers,
    trace: &mut Trace,
    requests: &[&Request],
    pending: f64,
    shape: (usize, usize, usize),
) {
    for (i, r) in requests.iter().enumerate() {
        let at = |s: f64| r.start + Duration::from_secs_f64(s);
        let id = i as u64;
        let root = trace.add(None, "request", at(r.sent.due), at(r.sent.done), id);
        trace.add(
            Some(root),
            "serve.server.admit",
            at(r.sent.submit),
            at(r.sent.admitted),
            id,
        );
        if let Some(s) = r.service {
            trace.add(
                Some(root),
                "serve.server.queue",
                at(r.sent.admitted),
                s.0,
                id,
            );
            trace.add(Some(root), "core.adapter.service", s.0, s.1, id);
        }
        if let Some(p) = &r.probe {
            let probe = trace.add(Some(root), "probe", p.unguarded.0, p.classify.1, id);
            trace.add(
                Some(probe),
                "probe.unguarded_predict",
                p.unguarded.0,
                p.unguarded.1,
                id,
            );
            trace.add(Some(probe), "core.fs.split", p.split.0, p.split.1, id);
            trace.add(
                Some(probe),
                "gan.reconstruct_draw",
                p.reconstruct.0,
                p.reconstruct.1,
                id,
            );
            trace.add(
                Some(probe),
                "core.fs.reassemble",
                p.reassemble.0,
                p.reassemble.1,
                id,
            );
            trace.add(
                Some(probe),
                "models.forward",
                p.classify.0,
                p.classify.1,
                id,
            );
        }
    }
    let served: Vec<&&Request> = requests.iter().filter(|r| r.served().is_some()).collect();
    let of = |kind: Kind| served.iter().filter(move |r| r.rows.kind() == kind);
    let service = |kind: Kind| -> Vec<f64> { of(kind).filter_map(|r| r.service.map(ms)).collect() };
    let queue: Vec<f64> = served
        .iter()
        .filter_map(|r| r.service.map(|s| r.sent.latency_ms() - ms(s)))
        .collect();
    let queue = stats::sorted(queue);
    let late = stats::sorted(
        requests
            .iter()
            .map(|r| (r.sent.submit - r.sent.due) * 1e3)
            .collect(),
    );
    layers.set(
        "serve.server.admit_us",
        stats::median(
            &requests
                .iter()
                .map(|r| (r.sent.admitted - r.sent.submit) * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    layers.set("serve.server.queue_wait_p50_ms", stats::median(&queue));
    layers.set(
        "serve.server.queue_wait_p99_ms",
        stats::percentile(&queue, 99, TAIL_SUPPORT)
            .or_else(|| stats::percentile(&queue, 99, 0))
            .unwrap_or(0.0),
    );
    layers.set(
        "serve.server.service_ms.alert",
        stats::median(&service(Kind::Alert)),
    );
    layers.set(
        "serve.server.service_ms.window",
        stats::median(&service(Kind::Window)),
    );
    layers.set("serve.server.max_pending", pending);
    layers.set("bench.load.lateness_p50_ms", stats::median(&late));
    layers.set(
        "bench.load.lateness_max_ms",
        late.last().copied().unwrap_or(0.0),
    );

    // Stage decomposition from the probed calls. Means, so that the stages
    // and the remainder add up to the probed calls' mean service time.
    let probed = |kind: Kind| -> Vec<(&ProbeRecord, f64)> {
        of(kind)
            .filter_map(|r| Some((r.probe.as_ref()?, ms(r.service?))))
            .collect()
    };
    let alerts = probed(Kind::Alert);
    let windows = probed(Kind::Window);
    let guard = |(p, s): &(&ProbeRecord, f64)| s - ms(p.unguarded);
    layers.set(
        "core.adapter.guard_ms",
        stats::mean(&alerts.iter().map(guard).collect::<Vec<_>>()),
    );
    let draws = |p: &ProbeRecord| p.draws as f64;
    let gen = |p: &ProbeRecord| ms(p.reconstruct) - ms(p.split) - ms(p.reassemble);
    let mean_w = |f: &dyn Fn(&(&ProbeRecord, f64)) -> f64| {
        stats::mean(&windows.iter().map(f).collect::<Vec<_>>())
    };
    let mc = stats::median(
        &alerts
            .iter()
            .chain(&windows)
            .map(|(p, _)| draws(p))
            .collect::<Vec<_>>(),
    );
    layers.set("core.adapter.mc_draws", mc);
    let split = mean_w(&|(p, _)| draws(p) * ms(p.split));
    let reassemble = mean_w(&|(p, _)| draws(p) * ms(p.reassemble));
    let forward = mean_w(&|(p, _)| draws(p) * gen(p));
    let classify = mean_w(&|(p, _)| draws(p) * ms(p.classify));
    let window_guard = mean_w(&guard);
    let window_service = mean_w(&|(_, s)| *s);
    let unattributed = window_service - window_guard - split - forward - reassemble - classify;
    layers.set("core.fs.split_ms", split);
    layers.set("core.fs.reassemble_ms", reassemble);
    layers.set("gan.forward_ms", forward);
    layers.set("models.forward_ms", classify);
    layers.set("core.adapter.unattributed_ms", unattributed);
    let (features, variant, classes) = shape;
    let (macs, acts, weights) = shapes(features, variant, classes);
    let flops_per_row = 2.0 * macs * mc;
    layers.set("linalg.flops_per_row", flops_per_row);
    layers.set(
        "linalg.bytes_per_row",
        8.0 * mc * (acts + weights / WINDOW_ROWS as f64),
    );
    if forward + classify > 0.0 {
        layers.set(
            "linalg.gflops",
            flops_per_row * WINDOW_ROWS as f64 / ((forward + classify) * 1e-3) / 1e9,
        );
    }
    eprintln!(
        "  window service {window_service:.3} ms (mean of {} probed) = guard {window_guard:.3} \
         + split {split:.3} + gan {forward:.3} + reassemble {reassemble:.3} + classifier \
         {classify:.3} + unattributed {unattributed:.3}; flops/row and bytes/row are computed \
         from layer shapes x {mc} draws",
        windows.len()
    );
}

/// Re-fit-layer metrics and spans from one traced stream pass.
fn stream_layers(
    layers: &mut Layers,
    trace: &mut Trace,
    rig: &Rig,
    run: &StreamRun,
    validate: &[Interval],
    serialize: &[Interval],
) -> Result<(), Error> {
    let within = |iv: &Interval, c: &Cycle| iv.0 >= c.observe.0 && iv.1 <= c.observe.1;
    let (mut fits, mut recon, mut cls, mut epochs) = (0usize, 0.0, 0.0, 0u64);
    let mut seps = Vec::new();
    let (mut scores, mut restores, mut validates, mut coverage, mut publish, mut d2s) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut attempts, mut swaps) = (0usize, 0usize);
    let mut kb = Vec::new();
    for (ci, c) in run.cycles.iter().enumerate() {
        let id = 1_000_000 + ci as u64;
        let root = trace.add(None, "cycle", c.push.0, c.observe.1, id);
        trace.add(
            Some(root),
            "serve.controller.push_window",
            c.push.0,
            c.push.1,
            id,
        );
        let obs = trace.add(
            Some(root),
            "serve.controller.observe",
            c.observe.0,
            c.observe.1,
            id,
        );
        let twin = c.twin.clone().unwrap_or_default();
        scores.push(twin.score_ms);
        attempts += c.attempts;
        fits += c.refits.iter().filter(|a| a.path.is_some()).count();
        seps.extend(twin.separations.iter().copied());
        let mut refit_ms = 0.0;
        let mut sep_ms = twin.separations.iter().map(|s| s.0);
        for a in &c.refits {
            refit_ms += ms(a.span);
            let at = trace.add(Some(obs), "serve.controller.refit", a.span.0, a.span.1, id);
            // Placed from measured durations in the fit's own order:
            // separation first, then the GAN, the classifier last.
            let (s0, s1) = a.span;
            let clip = |t: Option<Instant>| t.unwrap_or(s0).clamp(s0, s1);
            if let Some(sep) = sep_ms.next() {
                let end = clip(s0.checked_add(Duration::from_secs_f64(sep * 1e-3)));
                trace.add(Some(at), "causal.separation(twin)", s0, end, id);
            }
            if let Some((gan_s, cls_s, n)) = a.fit_telemetry {
                recon += gan_s;
                cls += cls_s;
                epochs += n;
                let cls_start = clip(s1.checked_sub(Duration::from_secs_f64(cls_s)));
                let gan_start = clip(cls_start.checked_sub(Duration::from_secs_f64(gan_s)));
                trace.add(Some(at), "gan.train", gan_start, cls_start, id);
                trace.add(Some(at), "models.train", cls_start, s1, id);
            }
        }
        let v: Vec<&Interval> = validate.iter().filter(|iv| within(iv, c)).collect();
        let s: Vec<&Interval> = serialize.iter().filter(|iv| within(iv, c)).collect();
        for iv in &v {
            trace.add(Some(obs), "serve.controller.validate", iv.0, iv.1, id);
        }
        for iv in &s {
            trace.add(Some(obs), "core.persist.to_bytes", iv.0, iv.1, id);
        }
        let incumbent = twin.restore_ms + twin.incumbent_predict_ms;
        if c.attempts > 0 {
            restores.push(twin.restore_ms);
            validates.push(v.iter().map(|iv| ms(**iv)).sum::<f64>() + incumbent);
        }
        if let (Some(d), Some(last)) = (c.detect_to_swap, s.last()) {
            swaps += 1;
            kb.push(c.bytes_after.len() as f64 / 1024.0);
            let tail = ms((last.1, c.observe.1));
            trace.add(Some(obs), "serve.hotswap.publish", last.1, c.observe.1, id);
            publish.push(tail * 1e3);
            let staged = refit_ms
                + v.iter().map(|iv| ms(**iv)).sum::<f64>()
                + s.iter().map(|iv| ms(**iv)).sum::<f64>()
                + tail
                + incumbent;
            coverage.push(staged / (d * 1e3));
            d2s.push(d);
        }
    }
    let per_fit = |x: f64| if fits > 0 { x / fits as f64 } else { 0.0 };
    layers.set("gan.train_s", per_fit(recon));
    layers.set("gan.epochs", per_fit(epochs as f64));
    if epochs > 0 {
        layers.set("gan.train_ms_per_epoch", recon * 1e3 / epochs as f64);
    }
    layers.set("models.train_s", per_fit(cls));
    let col =
        |f: &dyn Fn(&SeparationTwin) -> f64| stats::mean(&seps.iter().map(f).collect::<Vec<_>>());
    layers.set("causal.separation_ms", col(&|s| s.0));
    layers.set("causal.ci_tests", col(&|s| s.1 as f64));
    layers.set("causal.variant_features", col(&|s| s.2 as f64));
    layers.set("causal.warm_share", col(&|s| f64::from(u8::from(s.3))));
    layers.set("core.drift.score_ms", stats::mean(&scores));
    layers.set(
        "core.persist.to_bytes_ms",
        stats::mean(&serialize.iter().map(|iv| ms(*iv)).collect::<Vec<_>>()),
    );
    layers.set("core.persist.restore_ms", stats::mean(&restores));
    layers.set("core.persist.artifact_kb", stats::mean(&kb));
    layers.set("serve.controller.validate_ms", stats::mean(&validates));
    if swaps > 0 {
        layers.set(
            "serve.controller.attempts_per_swap",
            attempts as f64 / swaps as f64,
        );
    }
    layers.set("serve.controller.cycle_coverage", stats::mean(&coverage));
    layers.set("serve.controller.detect_to_swap_s", stats::median(&d2s));
    layers.set("serve.controller.stream_s", stats::median(&run.stream_s));
    layers.set("serve.controller.adapted_macro_f1", adapted_f1(rig, run)?);
    layers.set(
        "serve.controller.swaps",
        run.first().filter(|c| c.detect_to_swap.is_some()).count() as f64,
    );
    layers.set("serve.hotswap.swap_us", stats::mean(&publish));
    if let Ok(st) = rig.server.stats(ADAPTIVE) {
        layers.set("serve.hotswap.retired", st.retired_artifacts as f64);
    }
    Ok(())
}

fn server_counts(
    layers: &mut Layers,
    rig: &Rig,
    requests: &[&Request],
    failed_attempts: usize,
    attempts: usize,
) {
    let (mut admitted, mut rejected) = (0, 0);
    for t in &rig.tenants {
        if let Ok(s) = rig.server.stats(t) {
            admitted += s.admitted;
            rejected += s.rejected;
        }
    }
    layers.set("serve.server.admitted", admitted as f64);
    layers.set("serve.server.rejected", rejected as f64);
    let total = requests.len() + attempts;
    if total > 0 {
        layers.set(
            "serve.server.fail_frac",
            (misses(requests) as usize + failed_attempts) as f64 / total as f64,
        );
    }
}

/// Persistence timings of the fleet artifact (median of three).
fn fleet_persist(layers: &mut Layers, fleet: &Fleet) -> Result<(), Error> {
    let (mut to_bytes, mut restores) = (vec![], vec![]);
    for _ in 0..3 {
        let t = Instant::now();
        let a = restore(&fleet.bytes)?;
        restores.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(a.to_bytes()?);
        to_bytes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.set("core.persist.to_bytes_ms", stats::median(&to_bytes));
    layers.set("core.persist.restore_ms", stats::median(&restores));
    layers.set(
        "core.persist.artifact_kb",
        fleet.bytes.len() as f64 / 1024.0,
    );
    Ok(())
}

fn fleet_shape(fleet: &Fleet) -> Result<(usize, usize, usize), Error> {
    let a = restore(&fleet.bytes)?;
    Ok((
        fleet.target.num_features(),
        a.variant_features().map_or(0, |v| v.len()),
        fleet.target.num_classes(),
    ))
}

fn finish_trace(settings: &Settings, trace: &Trace) -> Result<(), Error> {
    let path = settings.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        settings.workload, settings.seed
    ));
    trace.write_jsonl(&path)?;
    eprintln!(
        "  {} spans written to {}",
        trace.spans().len(),
        path.display()
    );
    eprintln!(
        "  {:<34} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (n, total, own)) in trace.self_times() {
        eprintln!(
            "  {name:<34} {n:>7} {:>12.2} {:>12.2}",
            total / 1e3,
            own / 1e3
        );
    }
    Ok(())
}

/// Runs the workload named in `settings`.
pub fn run(settings: &Settings) -> Result<Report, Error> {
    let report = match settings.workload.as_str() {
        "serve_mix" => serve_mix(settings)?,
        "serve_during_refit" => serve_during_refit(settings)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    telemetry::clear_recorder();
    Ok(report)
}

fn max_pending(phase: &Phase) -> f64 {
    phase.pending.iter().map(|x| x.1).fold(0.0, f64::max)
}

/// The fleet tenants' requests of a phase: the `serve_mix` traffic.
fn fleet_requests(phase: &Phase) -> Vec<&Request> {
    phase
        .requests
        .iter()
        .filter(|r| r.tenant < FLEET_TENANTS)
        .collect()
}

fn serve_mix(s: &Settings) -> Result<Report, Error> {
    let mut problems = Vec::new();
    let (rig, setup_s) = setup(true, false, &mut problems)?;
    let fleet = Arc::clone(rig.fleet.as_ref().expect("fleet"));
    let mut metrics = Vec::new();
    let first_s = if s.traced { s.seconds / 3.0 } else { s.seconds };
    let phase = serve_mix_pass(&rig, s.seed, first_s, &mut problems);
    let traced_phase: Phase;
    let mut all: Vec<&Request> = phase.requests.iter().collect();
    let f1 = served_f1(&rig, &all);
    if s.traced {
        let reference = pass_e2e(&all, None);
        start_tracing(&rig)?;
        traced_phase = serve_mix_pass(&rig, s.seed, s.seconds * 2.0 / 3.0, &mut problems);
        telemetry::clear_recorder();
        let traced: Vec<&Request> = traced_phase.requests.iter().collect();
        let mut layers = Layers::default();
        let mut trace = Trace::new(traced_phase.start);
        serving_layers(
            &mut layers,
            &mut trace,
            &traced,
            max_pending(&traced_phase),
            fleet_shape(&fleet)?,
        );
        fleet_persist(&mut layers, &fleet)?;
        server_counts(&mut layers, &rig, &traced, 0, 0);
        let overhead = reference.overhead_pct(&pass_e2e(&traced, None));
        layers.set("telemetry.trace_overhead_pct", overhead);
        finish_trace(s, &trace)?;
        metrics = layers.into_metrics();
        all.extend(traced);
    } else {
        let lat = latency_metrics(&all, &mut problems);
        let capacity = capacity(&all);
        eprintln!(
            "  shard utilization at {FIXED_RATE} requests/s: {:.3}",
            FIXED_RATE / capacity
        );
        push_e2e(&mut metrics, setup_s, lat, capacity, f1);
    }
    verify(&rig, &all, &mut problems);
    let report = Report {
        correct: false,
        attempted: all.len() as u64,
        failed: misses(&all),
        metrics,
        problems,
    };
    rig.shutdown();
    Ok(report)
}

/// Re-fit attempts and failed or timed-out attempts of a stream run.
fn refit_counts(run: &StreamRun) -> (usize, usize) {
    (
        run.cycles.iter().map(|c| c.attempts).sum(),
        run.cycles.iter().map(|c| c.failed_attempts).sum(),
    )
}

fn print_stream(rig: &Rig, run: &StreamRun) -> Result<(), Error> {
    for c in run.first() {
        eprintln!(
            "  window {}: {} after {} attempt(s), observe {:.3} s{}",
            c.window,
            c.outcome,
            c.attempts,
            ms(c.observe) / 1e3,
            c.detect_to_swap
                .map_or(String::new(), |d| format!(", detect->swap {d:.3} s"))
        );
    }
    eprintln!(
        "  {} complete repetition(s), stream {:.3} s (median), adapted macro-F1 {:.4}",
        run.reps,
        stats::median(&run.stream_s),
        adapted_f1(rig, run)?
    );
    Ok(())
}

fn serve_during_refit(s: &Settings) -> Result<Report, Error> {
    let mut problems = Vec::new();
    let (mut rig, setup_s) = setup(true, true, &mut problems)?;
    let fleet = Arc::clone(rig.fleet.as_ref().expect("fleet"));
    let mut metrics = Vec::new();
    let first_s = if s.traced { s.seconds / 3.0 } else { s.seconds };
    let (phase, run) = during_refit_pass(&mut rig, s.seed, first_s, None, &mut problems)?;
    let (mut attempts, mut failed) = refit_counts(&run);
    // The serve_mix traffic's numbers; the adaptive tenant's alerts load
    // the shard but are a different shape, so they are checked and
    // counted, not mixed into the latency, capacity or quality metrics.
    let fleet_first = fleet_requests(&phase);
    let f1 = served_f1(&rig, &fleet_first);
    let traced_phase: Phase;
    let mut all: Vec<&Request> = phase.requests.iter().collect();
    if s.traced {
        let reference = pass_e2e(&fleet_first, Some(&run));
        let tenant = rig.stream.as_ref().expect("stream").tenant;
        let _ = rig.taps[tenant].drain_control();
        let twins = start_tracing(&rig)?;
        let (tp, traced) = during_refit_pass(
            &mut rig,
            s.seed,
            s.seconds * 2.0 / 3.0,
            twins.as_ref(),
            &mut problems,
        )?;
        telemetry::clear_recorder();
        traced_phase = tp;
        let published = |r: &StreamRun| -> Vec<Arc<Vec<u8>>> {
            r.first().map(|c| Arc::clone(&c.bytes_after)).collect()
        };
        if published(&run) != published(&traced) {
            problems.push("the traced stream published other bytes than the untraced one".into());
        }
        let (validate, serialize) = rig.taps[tenant].drain_control();
        let treq: Vec<&Request> = traced_phase.requests.iter().collect();
        let mut layers = Layers::default();
        let mut trace = Trace::new(traced_phase.start);
        serving_layers(
            &mut layers,
            &mut trace,
            &fleet_requests(&traced_phase),
            max_pending(&traced_phase),
            fleet_shape(&fleet)?,
        );
        stream_layers(
            &mut layers,
            &mut trace,
            &rig,
            &traced,
            &validate,
            &serialize,
        )?;
        let (a, f) = refit_counts(&traced);
        attempts += a;
        failed += f;
        server_counts(&mut layers, &rig, &treq, f, a);
        let overhead =
            reference.overhead_pct(&pass_e2e(&fleet_requests(&traced_phase), Some(&traced)));
        layers.set("telemetry.trace_overhead_pct", overhead);
        finish_trace(s, &trace)?;
        metrics = layers.into_metrics();
        all.extend(treq);
    } else {
        let lat = latency_metrics(&fleet_first, &mut problems);
        push_e2e(&mut metrics, setup_s, lat, capacity(&fleet_first), f1);
        print_stream(&rig, &run)?;
    }
    verify(&rig, &all, &mut problems);
    let report = Report {
        correct: false,
        attempted: (all.len() + attempts) as u64,
        failed: misses(&all) + failed as u64,
        metrics,
        problems,
    };
    rig.shutdown();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the benchmark prints are the ones its manifest
    /// declares, in both modes.
    #[test]
    fn metrics_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = |name: &str| manifest.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in PER_LAYER {
            assert!(declared(name), "{name} is not in BENCHMARK.json");
        }
        let mut e2e = Vec::new();
        let lat = [
            "alert_p50_ms",
            "alert_p99_ms",
            "window_p50_ms",
            "window_p95_ms",
        ]
        .map(|n| (n.to_string(), 1.0));
        push_e2e(&mut e2e, 1.0, lat, 1.0, 1.0);
        for (name, ..) in &e2e {
            assert!(declared(name), "{name} is not in BENCHMARK.json");
        }
        let metrics = manifest.matches("\"better\": ").count();
        assert_eq!(metrics, e2e.len() + PER_LAYER.len(), "undeclared metrics");
    }
}
