//! The open-loop load generator: a seeded arrival schedule, and a driver
//! that submits each request at its due time and observes completions.

use fsda::linalg::{Matrix, SeededRng};
use fsda::serve::{TenantResponse, TenantServer, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Request shape: a 1-row alert or a 64-row window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One row: per-request overhead dominates.
    Alert,
    /// A 64-row window: GEMM work dominates.
    Window,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due time, seconds after the phase starts.
    pub due: f64,
    /// Index into the phase's tenant list.
    pub tenant: usize,
    /// Alert or window.
    pub kind: Kind,
    /// Which rows: a row index for an alert, a block index for a window.
    pub pick: usize,
}

/// An offered load over some tenants: alerts as a Poisson process,
/// windows on a fixed period, in a fixed ratio.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Mean arrivals per second, alerts and windows together.
    pub rate: f64,
    /// Tenant indices requests are spread over, uniformly.
    pub tenants: Vec<usize>,
    /// One request in every `window_every` is a window; 0 sends only
    /// alerts.
    pub window_every: usize,
    /// Number of distinct alert rows to draw from.
    pub alert_picks: usize,
    /// Number of distinct window blocks to draw from.
    pub window_picks: usize,
}

/// The arrival schedule of `mix` over `seconds`, a pure function of `seed`.
///
/// Alerts are events: a Poisson process conditioned on its count, i.e. a
/// fixed number of arrival times drawn uniformly and sorted. Windows are
/// telemetry aggregates that close on a period: one per period, each
/// jittered by up to a quarter period, so two windows are never closer
/// than half a period. Fixing both counts keeps every run's sample sizes,
/// and so the support of its tail percentiles, the same; keeping windows
/// apart keeps the latency tail from hinging on how often a seed happens
/// to bunch them.
pub fn schedule(seed: u64, mix: &Mix, seconds: f64) -> Vec<Planned> {
    let mut rng = SeededRng::new(seed);
    let total = (mix.rate * seconds).round() as usize;
    let windows = total.checked_div(mix.window_every).unwrap_or(0);
    let period = seconds / windows.max(1) as f64;
    let mut out: Vec<Planned> = Vec::with_capacity(total);
    for k in 0..windows {
        let due = (k as f64 + 0.5 + rng.uniform_range(-0.25, 0.25)) * period;
        out.push(Planned {
            due,
            tenant: mix.tenants[rng.index(mix.tenants.len())],
            kind: Kind::Window,
            pick: rng.index(mix.window_picks),
        });
    }
    for _ in windows..total {
        out.push(Planned {
            due: rng.uniform() * seconds,
            tenant: mix.tenants[rng.index(mix.tenants.len())],
            kind: Kind::Alert,
            pick: rng.index(mix.alert_picks),
        });
    }
    out.sort_by(|x, y| x.due.total_cmp(&y.due));
    out
}

/// Merges two schedules by due time (stable: `a` first on ties).
pub fn merge(a: Vec<Planned>, b: Vec<Planned>) -> Vec<Planned> {
    let mut out: Vec<Planned> = a.into_iter().chain(b).collect();
    out.sort_by(|x, y| x.due.total_cmp(&y.due));
    out
}

/// How one request ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Served: the labels and the artifact version that produced them.
    Served {
        /// Predicted labels, one per row.
        predictions: Vec<usize>,
        /// Artifact version named by the response.
        version: u64,
    },
    /// Admitted but the server returned an error.
    Failed,
    /// Refused at admission.
    Refused,
}

/// The timeline of one request, in seconds after the phase start.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When it was due.
    pub due: f64,
    /// When `submit` was called.
    pub submit: f64,
    /// When `submit` returned.
    pub admitted: f64,
    /// When its completion was observed.
    pub done: f64,
    /// Result.
    pub outcome: Outcome,
}

impl Sent {
    /// Latency from the due time, in ms; infinite for a miss.
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Served { .. } => (self.done - self.due) * 1e3,
            Outcome::Failed | Outcome::Refused => f64::INFINITY,
        }
    }
}

/// The result of driving one schedule.
#[derive(Debug)]
pub struct Driven {
    /// Phase start.
    pub start: Instant,
    /// One entry per planned request, in schedule order.
    pub sent: Vec<Sent>,
    /// `(seconds, server.pending())` after each submission.
    pub pending: Vec<(f64, f64)>,
}

fn response(result: Result<TenantResponse, fsda::serve::RequestError>) -> Outcome {
    match result {
        Ok(r) => Outcome::Served {
            predictions: r.predictions,
            version: r.artifact_version,
        },
        Err(_) => Outcome::Failed,
    }
}

/// Drives `plan` open loop against `server`: each request is built by
/// `batch` ahead of its due time, submitted at the due time regardless of
/// earlier completions, and observed by one collector thread per shard.
/// A shard completes its requests in submission order, so a collector that
/// waits on its shard's tickets in order observes every completion as it
/// happens. Uses `1 + shards` threads.
pub fn drive(
    server: &TenantServer,
    tenants: &[String],
    plan: &[Planned],
    mut batch: impl FnMut(usize, &Planned) -> Matrix,
) -> Driven {
    let shard_of: Vec<usize> = tenants
        .iter()
        .map(|t| server.stats(t).map(|s| s.shard).unwrap_or(0))
        .collect();
    let start = Instant::now();
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let mut sent: Vec<Sent> = Vec::with_capacity(plan.len());
    let mut pending = Vec::with_capacity(plan.len());
    let collected = std::thread::scope(|scope| {
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..server.shards() {
            let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
            txs.push(tx);
            handles.push(scope.spawn(move || {
                let mut done = Vec::new();
                for (idx, ticket) in rx {
                    let outcome = response(ticket.wait());
                    done.push((idx, start.elapsed().as_secs_f64(), outcome));
                }
                done
            }));
        }
        for (idx, p) in plan.iter().enumerate() {
            let x = batch(idx, p);
            let due = start + Duration::from_secs_f64(p.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit = Instant::now();
            let result = server.submit(&tenants[p.tenant], x);
            let admitted = Instant::now();
            pending.push((secs(admitted), server.pending() as f64));
            let refused = match result {
                Ok(ticket) => {
                    txs[shard_of[p.tenant]]
                        .send((idx, ticket))
                        .expect("collector threads outlive the generator");
                    false
                }
                Err(_) => true,
            };
            sent.push(Sent {
                due: p.due,
                submit: secs(submit),
                admitted: secs(admitted),
                done: secs(admitted),
                outcome: if refused {
                    Outcome::Refused
                } else {
                    Outcome::Failed
                },
            });
        }
        drop(txs);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("collector thread panicked"))
            .collect::<Vec<_>>()
    });
    for (idx, done, outcome) in collected {
        sent[idx].done = done;
        sent[idx].outcome = outcome;
    }
    Driven {
        start,
        sent,
        pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            rate: 100.0,
            tenants: vec![0, 1, 2, 3],
            window_every: 6,
            alert_picks: 873,
            window_picks: 13,
        }
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, &mix(), 30.0);
        assert_eq!(a, schedule(7, &mix(), 30.0));
        assert_ne!(a, schedule(8, &mix(), 30.0));
        assert_eq!(a.len(), 3000);
    }

    #[test]
    fn schedule_matches_the_offered_mix() {
        let plan = schedule(3, &mix(), 60.0);
        assert_eq!(plan.len(), 6000);
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(plan.iter().all(|p| (0.0..60.0).contains(&p.due)));
        // Alerts arrive uniformly: each tenth of the run holds about a tenth.
        let alerts: Vec<&Planned> = plan.iter().filter(|p| p.kind == Kind::Alert).collect();
        assert_eq!(alerts.len(), 5000);
        for d in 0..10 {
            let lo = d as f64 * 6.0;
            let k = alerts
                .iter()
                .filter(|p| p.due >= lo && p.due < lo + 6.0)
                .count();
            assert!((k as f64 / 5000.0 - 0.1).abs() < 0.015, "decile {d}: {k}");
        }
        // Windows: one per period, never closer than half a period.
        let windows: Vec<f64> = plan
            .iter()
            .filter(|p| p.kind == Kind::Window)
            .map(|p| p.due)
            .collect();
        assert_eq!(windows.len(), 1000);
        assert!(windows
            .windows(2)
            .all(|w| w[1] - w[0] >= 0.5 * 0.06 - 1e-12));
        for t in 0..4 {
            let share = plan.iter().filter(|p| p.tenant == t).count() as f64 / 6000.0;
            assert!((share - 0.25).abs() < 0.03);
        }
        assert!(plan.iter().all(|p| match p.kind {
            Kind::Alert => p.pick < 873,
            Kind::Window => p.pick < 13,
        }));
    }

    #[test]
    fn merge_orders_by_due_time() {
        let mut other = mix();
        other.tenants = vec![4];
        other.window_every = 0;
        let a = schedule(1, &mix(), 5.0);
        let b = schedule(2, &other, 5.0);
        let merged = merge(a.clone(), b.clone());
        assert_eq!(merged.len(), a.len() + b.len());
        assert!(merged.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(merged, merge(a, b));
    }
}
