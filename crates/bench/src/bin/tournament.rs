//! Cross-method tournament: every registry method on every cell of a
//! scenario-DSL grid, ranked by mean macro-F1.
//!
//! Where `scenario_sweep` stress-tests the FS front-end against ground
//! truth, the tournament stress-tests the paper's *claim*: that the
//! source-only-trained FS+GAN pipeline holds up against methods that are
//! allowed to train on the target shots — including the adversarial
//! adaptation baselines (DANN, SCL, FADA, FMAA). All 18 registry methods
//! run on every cell of a topology × strength × schedule grid via
//! [`fsda_core::sweep::run_scenario_cell`]; per-method mean macro-F1 and
//! dense ranks go to `BENCH_tournament.json`, and CI gates that FsGan's
//! mean stays in the top 3. Ranking runs over the cells inside the
//! paper's operating envelope; chain/mixed-topology cells, whose
//! feature→feature edges propagate drift beyond the intervention sites,
//! are played and recorded as out-of-model diagnostics (see
//! [`build_grid`] and `docs/TOURNAMENT.md`).
//!
//! Cells derive their seeds from the grid position and run
//! single-threaded inside, so the tournament is bit-identical at any
//! thread count; every run re-runs a prefix sequentially and checks exact
//! equality. After writing the JSON the binary gates its own results (see
//! [`rank_gate`]) and exits non-zero on a violation.
//!
//! `cargo run -p fsda-bench --release --bin tournament [-- --quick]
//!  [--threads N]`

use fsda_bench::harness::{enforce, has_flag, mean_of, run_grid, Json};
use fsda_core::adapter::AdapterConfig;
use fsda_core::Method;
use fsda_data::scenario::{ScenarioSpec, Schedule, Topology};
use fsda_models::ClassifierKind;

/// CI gate: FsGan's dense rank by mean macro-F1 must stay within this.
const TARGET_FSGAN_RANK: usize = 3;

/// Shots per cell. The tournament plays in the paper's few-shot regime
/// (k ≤ 5): the whole claim is about what source-only training buys when
/// labelled target data is *scarce*, so handing the adversarial
/// baselines a large shot budget would change the question, not
/// stress-test the answer.
const SHOTS: usize = 5;

/// Leading cells the determinism spot-check re-runs sequentially.
const SPOT_CHECK: usize = 2;

/// One method's place on the leaderboard.
struct Standing {
    slug: &'static str,
    mean_macro_f1: f64,
    rank: usize,
}

/// The tournament grid: topology × strength tier × drift schedule.
///
/// **Ranked cells** stay inside the paper's operating envelope: star and
/// layered topologies, where features are children of latents only, so
/// drift lives exactly at the intervention sites the F-node search
/// identifies — the assumption the FS+GAN pipeline (and the paper's
/// testbeds) are built on. Strengths stay in the regime a few-shot
/// window can detect at all.
///
/// **Diagnostic cells** deliberately leave that envelope — chain and
/// mixed topologies propagate interventions through feature→feature
/// mechanisms, so *every* feature's marginal can drift. They are played
/// and recorded (`in_model: false`) because the failure mode is real
/// and worth watching, but they rank nothing: a method's score there
/// measures the substrate's distance from the paper's assumptions, not
/// the method (see `docs/TOURNAMENT.md`).
///
/// Quick mode covers every axis with a latin-square of the ranked grid
/// plus one diagnostic per out-of-model topology; full mode is the
/// cartesian product. Returns the specs, ranked cells first, and how many
/// are ranked.
fn build_grid(quick: bool) -> (Vec<ScenarioSpec>, usize) {
    let ranked = [Topology::Star, Topology::Layered];
    let strengths = [2.4, 1.6];
    let schedules = [Schedule::Abrupt, Schedule::Gradual { windows: 4 }];
    let mut grid = Vec::new();
    if quick {
        grid.push(ScenarioSpec::default().with_topology(Topology::Star));
        grid.push(
            ScenarioSpec::default()
                .with_topology(Topology::Layered)
                .with_schedule(Schedule::Gradual { windows: 4 }),
        );
        grid.push(
            ScenarioSpec::default()
                .with_topology(Topology::Star)
                .with_strength(1.6)
                .with_schedule(Schedule::Gradual { windows: 4 }),
        );
        grid.push(
            ScenarioSpec::default()
                .with_topology(Topology::Layered)
                .with_strength(1.6),
        );
    } else {
        for topology in ranked {
            for strength in strengths {
                for schedule in schedules {
                    grid.push(
                        ScenarioSpec::default()
                            .with_topology(topology)
                            .with_strength(strength)
                            .with_schedule(schedule),
                    );
                }
            }
        }
    }
    let ranked_len = grid.len();
    for topology in [Topology::Chain, Topology::Mixed] {
        grid.push(ScenarioSpec::default().with_topology(topology));
        if !quick {
            grid.push(
                ScenarioSpec::default()
                    .with_topology(topology)
                    .with_schedule(Schedule::Gradual { windows: 4 }),
            );
        }
    }
    let grid = grid
        .into_iter()
        .map(|spec| spec.with_shots(SHOTS))
        .collect();
    (grid, ranked_len)
}

/// Dense ranks over mean macro-F1, descending: the best method is rank 1
/// and exact ties share a rank without gapping the next one.
fn dense_ranks(means: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..means.len()).collect();
    order.sort_by(|&a, &b| means[b].total_cmp(&means[a]));
    let mut ranks = vec![0usize; means.len()];
    let mut rank = 0usize;
    let mut prev = f64::INFINITY;
    for &i in &order {
        if means[i] != prev {
            rank += 1;
            prev = means[i];
        }
        ranks[i] = rank;
    }
    ranks
}

/// The CI gate on the tournament's results. Failure texts are the
/// contract CI logs show.
fn rank_gate(standings: &[Standing], ranked_cells: usize, identical: bool) -> Result<(), String> {
    if standings.len() < 18 {
        return Err(format!(
            "registry shrank: only {} methods competed",
            standings.len()
        ));
    }
    let rank_of = |slug: &str| standings.iter().find(|s| s.slug == slug).map(|s| s.rank);
    for slug in ["fada", "fmaa", "fs_gan", "fs", "src_only"] {
        if rank_of(slug).is_none() {
            return Err(format!("method {slug} missing from the tournament"));
        }
    }
    let mut by_rank: Vec<&Standing> = standings.iter().collect();
    by_rank.sort_by_key(|s| s.rank);
    let ranks: Vec<usize> = by_rank.iter().map(|s| s.rank).collect();
    if ranks[0] != 1 || ranks.windows(2).any(|w| w[1] - w[0] > 1) {
        return Err(format!("ranks are not dense from 1: {ranks:?}"));
    }
    for w in by_rank.windows(2) {
        let (a, b) = (w[0].mean_macro_f1, w[1].mean_macro_f1);
        if !(a.is_finite() && b.is_finite()) {
            return Err("non-finite mean macro-F1".into());
        }
        if a < b {
            return Err("ranks disagree with the means they claim to order".into());
        }
    }
    if !identical {
        return Err("parallel tournament diverged from sequential re-run".into());
    }
    if ranked_cells < 4 {
        return Err(format!("ranked grid shrank to {ranked_cells} cells"));
    }
    let rank = rank_of("fs_gan").unwrap_or(usize::MAX);
    if rank > TARGET_FSGAN_RANK {
        return Err(format!(
            "fs_gan rank {rank} fell off the podium (gate <= {TARGET_FSGAN_RANK})"
        ));
    }
    Ok(())
}

fn main() {
    let quick = has_flag("--quick");
    let (grid, ranked_count) = build_grid(quick);
    let mode = if quick { "quick" } else { "full" };
    println!(
        "tournament ({mode}): {ranked_count} ranked + {} diagnostic cells",
        grid.len() - ranked_count
    );
    // The paper's network-management model is a neural classifier; the
    // MLP is also what the model-specific baselines embed against, so
    // every method competes on the model family the claim is about. The
    // default (paper-scale) budget is deliberate: the tournament ranks
    // methods, and rankings under a starved budget measure convergence
    // speed, not the methods themselves.
    let config = AdapterConfig::default().with_classifier(ClassifierKind::Mlp);
    let run = run_grid(grid, 0x70AA_1EB1, &Method::ALL, &config, SPOT_CHECK);

    // Only in-model cells rank; diagnostics are recorded but never
    // scored (see build_grid).
    let ranked_cells = &run.cells[..ranked_count];
    let means: Vec<f64> = (0..Method::ALL.len())
        .map(|j| mean_of(ranked_cells, |c| Some(c[j].macro_f1)))
        .collect();
    let ranks = dense_ranks(&means);
    let standings: Vec<Standing> = Method::ALL
        .iter()
        .enumerate()
        .map(|(j, m)| Standing {
            slug: m.slug(),
            mean_macro_f1: means[j],
            rank: ranks[j],
        })
        .collect();

    // Leaderboard, best first.
    let mut order: Vec<&Standing> = standings.iter().collect();
    order.sort_by(|a, b| b.mean_macro_f1.total_cmp(&a.mean_macro_f1));
    println!("{:>4} {:<12} {:>12}", "rank", "method", "mean_f1");
    for s in &order {
        println!("{:>4} {:<12} {:>12.3}", s.rank, s.slug, s.mean_macro_f1);
    }
    let fsgan_rank = standings
        .iter()
        .find(|s| s.slug == Method::FsGan.slug())
        .expect("FsGan is registered")
        .rank;
    println!(
        "\nfsgan rank {fsgan_rank} of {} (gate: <= {TARGET_FSGAN_RANK})",
        Method::ALL.len()
    );

    let cells = run
        .specs
        .iter()
        .zip(&run.cells)
        .enumerate()
        .map(|(id, (spec, cell))| {
            Json::object()
                .field("id", id)
                .field("topology", spec.topology.to_string())
                .field("strength", spec.strength)
                .field("schedule", spec.schedule.to_string())
                .field("seed", spec.seed)
                .field("in_model", id < ranked_count)
                .field(
                    "macro_f1",
                    cell.iter().fold(Json::object(), |o, out| {
                        o.field(out.method.slug(), out.macro_f1)
                    }),
                )
        });
    let methods = standings.iter().fold(Json::object(), |o, s| {
        o.field(
            s.slug,
            Json::object()
                .field("mean_macro_f1", s.mean_macro_f1)
                .field("rank", s.rank),
        )
    });
    Json::object()
        .field("mode", mode)
        .field("threads", run.threads)
        .field("elapsed_s", run.elapsed_s)
        .field(
            "description",
            "cross-method tournament: all registry methods fit and scored on \
             every cell of a topology x strength x schedule scenario grid; \
             per-method mean macro-F1 with dense ranks (1 = best, ties share a \
             rank) over the in-model cells; cells with in_model=false leave the \
             paper's operating envelope (drift propagating through \
             feature-to-feature edges) and are recorded as diagnostics without \
             ranking anything; cells are pure functions of their spec so the \
             tournament is bit-identical at any thread count",
        )
        .field("cells", cells.collect::<Json>())
        .field("methods", methods)
        .field(
            "summary",
            Json::object()
                .field("num_methods", Method::ALL.len())
                .field("num_cells", run.cells.len())
                .field("num_ranked_cells", ranked_count)
                .field("fsgan_rank", fsgan_rank)
                .field("target_fsgan_rank", TARGET_FSGAN_RANK)
                .field("determinism_checked_cells", run.checked)
                .field("determinism_bit_identical", run.identical),
        )
        .write_bench("BENCH_tournament.json");
    enforce(rank_gate(&standings, ranked_count, run.identical));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ranks_share_ties_without_gaps() {
        assert_eq!(dense_ranks(&[0.5, 0.9, 0.5, 0.7, 0.9]), vec![3, 1, 3, 2, 1]);
    }

    #[test]
    fn rank_gate_passes_a_podium_finish_and_fails_fourth_place() {
        // Every registry method, best first, fs_gan placed at `rank`.
        let standings = |rank: usize| -> Vec<Standing> {
            let mut slugs: Vec<&'static str> = Method::ALL.iter().map(|m| m.slug()).collect();
            slugs.retain(|&s| s != "fs_gan");
            slugs.insert(rank - 1, "fs_gan");
            (1..)
                .zip(slugs)
                .map(|(rank, slug)| Standing {
                    slug,
                    mean_macro_f1: 1.0 / rank as f64,
                    rank,
                })
                .collect()
        };
        assert_eq!(rank_gate(&standings(3), 4, true), Ok(()));
        let fourth = "fs_gan rank 4 fell off the podium (gate <= 3)";
        assert_eq!(rank_gate(&standings(4), 4, true), Err(fourth.into()));
        let diverged = "parallel tournament diverged from sequential re-run";
        assert_eq!(rank_gate(&standings(1), 4, false), Err(diverged.into()));
    }
}
