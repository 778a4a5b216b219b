//! Scenario fuzzing sweep: hundreds of generated drift scenarios, each
//! scored against its recorded ground truth.
//!
//! The sweep builds a grid of `fsda_data::scenario` specs spanning
//! topology family, feature count, intervention-set size, strength tier,
//! drift schedule, label shift, and adversarially-correlated variant
//! features, then fans the cells across the `fsda_linalg::par` pool. Every
//! cell is a pure function of its spec (per-cell derived seeds, inner
//! generation and prediction single-threaded), so the sweep is
//! **bit-identical at any thread count**; every run re-runs a prefix of
//! cells sequentially and checks exact equality.
//!
//! Per cell and registry method, the runner records end-to-end macro-F1
//! on the drifted test set plus — for feature-separating methods — FS
//! recall/precision against the scenario's known intervention set. The
//! binary gates its own results after writing them: at least 18 cells,
//! every macro-F1 in [0, 1], FS recall reported on every cell, the
//! spot-check bit-identical, and mean FS recall over the easy cells
//! (strong, abrupt, no label shift, no adversarial coupling) >= 0.9. A
//! violation exits non-zero.
//!
//! Writes `BENCH_scenarios.json` at the repository root and prints a
//! summary table.
//!
//! `cargo run -p fsda-bench --release --bin scenario_sweep [-- --quick]
//!  [--threads N]`

use fsda_bench::harness::{enforce, has_flag, mean_of, run_grid, GridRun, Json};
use fsda_core::adapter::AdapterConfig;
use fsda_core::sweep::CellOutcome;
use fsda_core::Method;
use fsda_data::scenario::{ScenarioSpec, Schedule, Topology};
use fsda_models::ClassifierKind;

/// Registry methods every cell runs: the paper's FS front-end and the
/// unmitigated source-only baseline it must beat.
const METHODS: [Method; 2] = [Method::Fs, Method::SrcOnly];

/// Easy-cell threshold on the strength axis (strong tier).
const EASY_STRENGTH: f64 = 2.0;

/// CI gate: mean FS recall over easy cells.
const TARGET_EASY_RECALL: f64 = 0.9;

/// Leading cells the determinism spot-check re-runs sequentially.
const SPOT_CHECK: usize = 8;

fn is_easy(spec: &ScenarioSpec) -> bool {
    spec.strength >= EASY_STRENGTH
        && spec.schedule == Schedule::Abrupt
        && spec.adversarial == 0
        && spec.label_shift == 0.0
}

/// The sweep grid. Full mode is a cartesian core of
/// topology x features x variant x strength x schedule x label-shift plus
/// adversarial and seasonal extension blocks (>= 200 cells); quick mode is
/// a ~20-cell diagonal with at least one cell per axis value.
fn build_grid(quick: bool) -> Vec<ScenarioSpec> {
    let mut grid = Vec::new();
    if quick {
        for topology in Topology::ALL {
            for strength in [2.4, 0.5] {
                grid.push(
                    ScenarioSpec::default()
                        .with_topology(topology)
                        .with_strength(strength),
                );
            }
            grid.push(
                ScenarioSpec::default()
                    .with_topology(topology)
                    .with_schedule(Schedule::Gradual { windows: 4 }),
            );
            grid.push(
                ScenarioSpec::default()
                    .with_topology(topology)
                    .with_label_shift(0.3),
            );
        }
        grid.push(ScenarioSpec::default().with_variant(8).with_adversarial(2));
        grid.push(
            ScenarioSpec::default()
                .with_topology(Topology::Chain)
                .with_variant(8)
                .with_adversarial(2),
        );
        grid.push(ScenarioSpec::default().with_schedule(Schedule::Seasonal { period: 5 }));
        grid.push(
            ScenarioSpec::default()
                .with_topology(Topology::Mixed)
                .with_schedule(Schedule::Seasonal { period: 5 }),
        );
    } else {
        for topology in Topology::ALL {
            for features in [24, 48] {
                for variant in [4, 8] {
                    for strength in [2.4, 1.0, 0.5] {
                        for schedule in [Schedule::Abrupt, Schedule::Gradual { windows: 4 }] {
                            for label_shift in [0.0, 0.3] {
                                grid.push(
                                    ScenarioSpec::default()
                                        .with_topology(topology)
                                        .with_features(features)
                                        .with_variant(variant)
                                        .with_strength(strength)
                                        .with_schedule(schedule)
                                        .with_label_shift(label_shift),
                                );
                            }
                        }
                    }
                }
                // Adversarially-coupled variants, on the otherwise-easy
                // corner so their effect is isolated.
                for variant in [4, 8] {
                    grid.push(
                        ScenarioSpec::default()
                            .with_topology(topology)
                            .with_features(features)
                            .with_variant(variant)
                            .with_adversarial(2),
                    );
                }
            }
            // Recurring/seasonal drift block.
            grid.push(
                ScenarioSpec::default()
                    .with_topology(topology)
                    .with_schedule(Schedule::Seasonal { period: 5 }),
            );
        }
    }
    grid
}

/// FS feature-shift recall on one cell (`METHODS[0]` is FS).
fn fs_recall(cell: &[CellOutcome]) -> Option<f64> {
    cell[0].recovery.map(|r| r.recall)
}

/// FS feature-shift precision on one cell.
fn fs_precision(cell: &[CellOutcome]) -> Option<f64> {
    cell[0].recovery.map(|r| r.precision)
}

/// The CI gate on the sweep's results. Failure texts are the contract CI
/// logs show.
fn recovery_gate(run: &GridRun, easy_recall: f64) -> Result<(), String> {
    if run.cells.len() < 18 {
        return Err(format!("smoke sweep too small: {} cells", run.cells.len()));
    }
    for (id, cell) in run.cells.iter().enumerate() {
        for out in cell {
            if !(0.0..=1.0).contains(&out.macro_f1) {
                return Err(format!(
                    "cell {id} {}: bad macro_f1 {}",
                    out.method.slug(),
                    out.macro_f1
                ));
            }
        }
        if !cell
            .iter()
            .any(|out| out.method == Method::Fs && out.recovery.is_some())
        {
            return Err(format!("cell {id}: FS must report feature-shift recall"));
        }
    }
    if !run.identical {
        return Err("parallel sweep diverged from sequential re-run".into());
    }
    if !(TARGET_EASY_RECALL..).contains(&easy_recall) {
        return Err(format!(
            "easy-cell FS recall {easy_recall:.3} fell below {TARGET_EASY_RECALL:?}"
        ));
    }
    Ok(())
}

fn main() {
    let quick = has_flag("--quick");
    let grid = build_grid(quick);
    let mode = if quick { "quick" } else { "full" };
    println!("scenario_sweep ({mode})");
    let config = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let run = run_grid(grid, 0x5CE7_A210, &METHODS, &config, SPOT_CHECK);
    let cells: Vec<(&ScenarioSpec, &Vec<CellOutcome>)> = run.specs.iter().zip(&run.cells).collect();

    // Summary table: FS recall/precision and per-method F1 by topology x
    // strength tier.
    println!(
        "{:<9} {:>9} {:>6} {:>10} {:>10} {:>9} {:>9}",
        "topology", "strength", "cells", "fs_recall", "fs_prec", "f1(fs)", "f1(src)"
    );
    for topology in Topology::ALL {
        for strength in [2.4, 1.0, 0.5] {
            let group: Vec<&[CellOutcome]> = cells
                .iter()
                .filter(|(spec, _)| spec.topology == topology && spec.strength == strength)
                .map(|(_, cell)| cell.as_slice())
                .collect();
            if group.is_empty() {
                continue;
            }
            println!(
                "{:<9} {:>9.1} {:>6} {:>10.3} {:>10.3} {:>9.3} {:>9.3}",
                topology.to_string(),
                strength,
                group.len(),
                mean_of(&group, |c| fs_recall(c)),
                mean_of(&group, |c| fs_precision(c)),
                mean_of(&group, |c| Some(c[0].macro_f1)),
                mean_of(&group, |c| Some(c[1].macro_f1)),
            );
        }
    }

    let easy: Vec<&[CellOutcome]> = cells
        .iter()
        .filter(|(spec, _)| is_easy(spec))
        .map(|(_, cell)| cell.as_slice())
        .collect();
    let easy_recall = mean_of(&easy, |c| fs_recall(c));
    let easy_precision = mean_of(&easy, |c| fs_precision(c));
    println!(
        "\neasy cells (strength >= {EASY_STRENGTH}, abrupt, no label shift, no adversarial): \
         {} of {} | mean FS recall {easy_recall:.3} (target >= {TARGET_EASY_RECALL}), \
         precision {easy_precision:.3}",
        easy.len(),
        cells.len()
    );

    let cell_json = |(id, (spec, cell)): (usize, &(&ScenarioSpec, &Vec<CellOutcome>))| {
        let methods = cell.iter().fold(Json::object(), |methods, out| {
            methods.field(
                out.method.slug(),
                Json::object()
                    .field("macro_f1", out.macro_f1)
                    .field("fs_precision", out.recovery.map(|r| r.precision))
                    .field("fs_recall", out.recovery.map(|r| r.recall))
                    .field("detected", out.detected_variant.as_ref().map(Vec::len)),
            )
        });
        Json::object()
            .field("id", id)
            .field("topology", spec.topology.to_string())
            .field("features", spec.features)
            .field("variant", spec.variant)
            .field("adversarial", spec.adversarial)
            .field("strength", spec.strength)
            .field("schedule", spec.schedule.to_string())
            .field("label_shift", spec.label_shift)
            .field("seed", spec.seed)
            .field("easy", is_easy(spec))
            .field("methods", methods)
    };
    let summary = METHODS
        .iter()
        .enumerate()
        .fold(
            Json::object()
                .field("num_cells", cells.len())
                .field("easy_cells", easy.len())
                .field("mean_easy_fs_recall", easy_recall)
                .field("mean_easy_fs_precision", easy_precision)
                .field("target_easy_fs_recall", TARGET_EASY_RECALL),
            |summary, (j, m)| {
                let f1 = mean_of(&run.cells, |c| Some(c[j].macro_f1));
                summary.field(&format!("mean_macro_f1_{}", m.slug()), f1)
            },
        )
        .field("determinism_checked_cells", run.checked)
        .field("determinism_bit_identical", run.identical);
    Json::object()
        .field("mode", mode)
        .field("threads", run.threads)
        .field(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("elapsed_s", run.elapsed_s)
        .field(
            "methods",
            METHODS.iter().map(|m| m.slug()).collect::<Json>(),
        )
        .field(
            "description",
            "drift-scenario fuzzing sweep over the SCM generators: every cell \
             compiles a declarative scenario spec with recorded ground-truth \
             intervention targets, fits each method on the generated source + \
             few shots, and scores end-to-end macro-F1 plus FS recall/precision \
             against the known target set; cells are pure functions of their \
             spec and the sweep is bit-identical at any thread count",
        )
        .field(
            "cells",
            cells.iter().enumerate().map(cell_json).collect::<Json>(),
        )
        .field("summary", summary)
        .write_bench("BENCH_scenarios.json");
    enforce(recovery_gate(&run, easy_recall));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsda_causal::score::score_target_recovery;

    #[test]
    fn recovery_gate_passes_a_healthy_sweep_and_fails_a_broken_one() {
        let cell: Vec<CellOutcome> = METHODS
            .iter()
            .map(|&method| CellOutcome {
                method,
                macro_f1: 0.8,
                detected_variant: Some(vec![1]),
                recovery: Some(score_target_recovery(&[1], &[1])),
            })
            .collect();
        let mut run = GridRun {
            specs: vec![ScenarioSpec::default(); 18],
            cells: vec![cell; 18],
            threads: 1,
            elapsed_s: 1.0,
            checked: SPOT_CHECK,
            identical: true,
        };
        assert_eq!(recovery_gate(&run, 0.95), Ok(()));
        let low = "easy-cell FS recall 0.850 fell below 0.9";
        assert_eq!(recovery_gate(&run, 0.85), Err(low.into()));
        // A grid with no easy cells has a NaN mean recall: fail closed.
        let none = "easy-cell FS recall NaN fell below 0.9";
        assert_eq!(recovery_gate(&run, f64::NAN), Err(none.into()));
        run.cells[3][1].macro_f1 = f64::NAN;
        let bad = "cell 3 src_only: bad macro_f1 NaN";
        assert_eq!(recovery_gate(&run, 0.95), Err(bad.into()));
    }
}
