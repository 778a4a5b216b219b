//! Shared harness for the table-regeneration benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (see `DESIGN.md` §5 for the index). Each bench prints the
//! paper-reported value next to the measured one. By default the benches
//! run **scaled-down** (small synthetic presets, reduced training budget,
//! few repeats) so `cargo bench` finishes in minutes; set `FSDA_FULL=1`
//! for paper-scale datasets and budgets, and `FSDA_REPEATS=n` to override
//! the repeat count (the paper uses 20).

pub mod harness;

use fsda_core::adapter::Budget;
use fsda_core::experiment::{ExperimentConfig, Scenario};
use fsda_data::synth5gc::Synth5gc;
use fsda_data::synth5gipc::{Synth5gipc, ThreeDomainBundle, NUM_GROUPS};

/// Scale knobs read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Paper-scale datasets and budgets (`FSDA_FULL=1`).
    pub full: bool,
    /// Repeats per cell (`FSDA_REPEATS`, default 2 scaled / 5 full).
    pub repeats: usize,
    /// Base seed (`FSDA_SEED`, default 0).
    pub seed: u64,
}

impl BenchScale {
    /// Reads `FSDA_FULL`, `FSDA_REPEATS`, and `FSDA_SEED`.
    pub fn from_env() -> Self {
        let full = std::env::var("FSDA_FULL")
            .map(|v| v != "0")
            .unwrap_or(false);
        let repeats = std::env::var("FSDA_REPEATS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if full { 5 } else { 1 });
        let seed = std::env::var("FSDA_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        BenchScale {
            full,
            repeats,
            seed,
        }
    }

    /// The training budget for this scale.
    pub fn budget(&self) -> Budget {
        if self.full {
            Budget::full()
        } else {
            Budget::quick()
        }
    }

    /// Experiment configuration with the paper's 1/5/10-shot sweep.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            shots: vec![1, 5, 10],
            repeats: self.repeats,
            budget: self.budget(),
            seed: self.seed,
            parallel: true,
        }
    }

    /// Banner describing the scale, printed at the top of each bench.
    pub fn banner(&self) -> String {
        if self.full {
            format!(
                "scale: FULL (paper-scale datasets, full budget, {} repeats; paper uses 20)",
                self.repeats
            )
        } else {
            format!(
                "scale: reduced (small synthetic presets, quick budget, {} repeats) — \
                 set FSDA_FULL=1 for paper scale",
                self.repeats
            )
        }
    }
}

/// Builds the 5GC scenario plus its ground-truth variant set.
///
/// # Panics
///
/// Panics if generation fails (indicates a configuration bug).
pub fn scenario_5gc(scale: &BenchScale, seed: u64) -> (Scenario, Vec<usize>) {
    let gen = if scale.full {
        Synth5gc::full()
    } else {
        Synth5gc::small()
    };
    let b = gen.generate(seed).expect("5GC generation");
    (
        Scenario {
            name: "5GC".into(),
            source: b.source_train,
            target_pool: b.target_pool,
            pool_groups: None,
            num_groups: 16,
            target_test: b.target_test,
        },
        b.ground_truth_variant,
    )
}

/// Builds the 5GIPC scenario (fault-type few-shot groups) plus its
/// ground-truth variant set.
///
/// # Panics
///
/// Panics if generation fails.
pub fn scenario_5gipc(scale: &BenchScale, seed: u64) -> (Scenario, Vec<usize>) {
    let gen = if scale.full {
        Synth5gipc::full()
    } else {
        Synth5gipc::small()
    };
    let b = gen.generate(seed).expect("5GIPC generation");
    (
        Scenario {
            name: "5GIPC".into(),
            source: b.source_train,
            target_pool: b.target_pool,
            pool_groups: Some(b.target_pool_groups),
            num_groups: NUM_GROUPS,
            target_test: b.target_test,
        },
        b.ground_truth_variant,
    )
}

/// Builds the three-domain 5GIPC bundle for Table III.
///
/// # Panics
///
/// Panics if generation fails.
pub fn three_domain_5gipc(scale: &BenchScale, seed: u64) -> ThreeDomainBundle {
    let gen = if scale.full {
        Synth5gipc::full()
    } else {
        Synth5gipc::small()
    };
    gen.generate_three_domain(seed)
        .expect("5GIPC three-domain generation")
}

/// The values the paper reports, for side-by-side printing.
pub mod paper {
    use fsda_core::method::Method;

    /// Classifier-column order of the tables: TNet, MLP, RF, XGB.
    pub const COLS: usize = 4;

    /// Table I, 5GC block: `(method, [[k1 cols], [k5 cols], [k10 cols]])`.
    /// Model-specific methods repeat their single value across columns.
    pub const TABLE1_5GC: [(Method, [[f64; 4]; 3]); 13] = [
        (
            Method::FsGan,
            [
                [89.7, 89.6, 84.5, 83.6],
                [93.1, 92.5, 89.2, 89.3],
                [93.4, 92.7, 89.3, 89.6],
            ],
        ),
        (
            Method::Fs,
            [
                [86.8, 86.4, 81.7, 81.0],
                [88.2, 86.7, 82.0, 82.1],
                [88.6, 87.4, 82.5, 82.9],
            ],
        ),
        (
            Method::Cmt,
            [
                [63.7, 61.0, 57.6, 58.1],
                [71.8, 70.3, 68.6, 68.1],
                [76.2, 74.5, 71.7, 71.5],
            ],
        ),
        (
            Method::Icd,
            [
                [34.2, 35.7, 32.9, 32.8],
                [65.8, 63.2, 62.6, 62.5],
                [74.9, 72.0, 71.3, 71.3],
            ],
        ),
        (
            Method::SrcOnly,
            [
                [10.6, 11.8, 22.4, 22.6],
                [10.6, 11.8, 22.4, 22.6],
                [10.6, 11.8, 22.4, 22.6],
            ],
        ),
        (
            Method::TarOnly,
            [
                [16.5, 15.6, 25.6, 26.0],
                [56.1, 54.5, 57.3, 57.5],
                [60.8, 59.2, 59.4, 59.5],
            ],
        ),
        (
            Method::SourceAndTarget,
            [
                [37.0, 35.4, 32.3, 32.7],
                [59.5, 58.8, 61.5, 61.6],
                [66.0, 64.2, 63.7, 64.1],
            ],
        ),
        (
            Method::FineTune,
            [
                [37.8, 37.8, 37.8, 37.8],
                [56.5, 56.5, 56.5, 56.5],
                [64.5, 64.5, 64.5, 64.5],
            ],
        ),
        (
            Method::Coral,
            [
                [38.5, 37.9, 36.3, 36.4],
                [64.7, 62.5, 62.1, 62.2],
                [70.9, 69.5, 69.2, 69.6],
            ],
        ),
        (Method::Dann, [[33.6; 4], [61.9; 4], [71.3; 4]]),
        (Method::Scl, [[31.7; 4], [60.4; 4], [71.6; 4]]),
        (Method::MatchNet, [[43.8; 4], [68.9; 4], [72.3; 4]]),
        (Method::ProtoNet, [[45.4; 4], [65.3; 4], [70.8; 4]]),
    ];

    /// Table I, 5GIPC block.
    pub const TABLE1_5GIPC: [(Method, [[f64; 4]; 3]); 13] = [
        (
            Method::FsGan,
            [
                [80.5, 79.0, 80.2, 79.7],
                [85.5, 85.0, 85.8, 85.5],
                [86.1, 85.7, 86.5, 86.3],
            ],
        ),
        (
            Method::Fs,
            [
                [76.5, 75.8, 76.3, 76.1],
                [81.3, 80.8, 81.2, 80.9],
                [82.5, 82.0, 82.7, 82.4],
            ],
        ),
        (
            Method::Cmt,
            [
                [70.3, 69.5, 70.2, 70.0],
                [73.2, 72.5, 73.3, 72.9],
                [74.1, 73.7, 74.2, 74.0],
            ],
        ),
        (
            Method::Icd,
            [
                [66.8, 65.8, 66.3, 65.9],
                [71.5, 71.4, 71.8, 71.4],
                [74.0, 72.5, 73.3, 73.2],
            ],
        ),
        (
            Method::SrcOnly,
            [
                [51.3, 51.6, 53.5, 53.7],
                [51.3, 51.6, 53.5, 53.6],
                [51.3, 51.6, 53.5, 53.6],
            ],
        ),
        (
            Method::TarOnly,
            [
                [56.2, 55.5, 55.8, 55.6],
                [59.2, 58.8, 59.5, 59.3],
                [62.5, 62.0, 62.3, 62.1],
            ],
        ),
        (
            Method::SourceAndTarget,
            [
                [61.6, 61.0, 61.7, 61.3],
                [64.8, 64.3, 65.0, 64.7],
                [67.7, 67.0, 67.2, 67.3],
            ],
        ),
        (Method::FineTune, [[58.2; 4], [61.0; 4], [63.2; 4]]),
        (
            Method::Coral,
            [
                [66.2, 65.8, 66.2, 65.8],
                [68.5, 68.0, 67.8, 68.3],
                [70.5, 69.8, 70.3, 70.2],
            ],
        ),
        (Method::Dann, [[70.7; 4], [75.8; 4], [78.0; 4]]),
        (Method::Scl, [[69.8; 4], [75.7; 4], [77.8; 4]]),
        (Method::MatchNet, [[68.5; 4], [70.8; 4], [72.7; 4]]),
        (Method::ProtoNet, [[70.7; 4], [73.5; 4], [74.8; 4]]),
    ];

    /// Table II (TNet column): `(label, 5GC [k1,k5,k10], 5GIPC [k1,k5,k10])`.
    pub const TABLE2: [(&str, [f64; 3], [f64; 3]); 4] = [
        ("FS+GAN", [89.7, 93.1, 93.4], [80.5, 85.5, 86.1]),
        ("FS+NoCond", [89.3, 91.7, 93.0], [80.5, 84.1, 84.9]),
        ("FS+VAE", [88.4, 90.1, 91.3], [79.3, 82.8, 83.0]),
        ("FS+VanillaAE", [87.6, 89.1, 89.5], [77.4, 81.6, 83.0]),
    ];

    /// Table III (TNet): rows FS+GAN_1 / FS+GAN_2, cells
    /// `[target1 @ k1/k5/k10, target2 @ k1/k5/k10]`.
    pub const TABLE3: [(&str, [f64; 3], [f64; 3]); 2] = [
        ("FS+GAN_1", [78.6, 83.8, 85.0], [74.8, 79.1, 80.2]),
        ("FS+GAN_2", [74.4, 79.5, 81.7], [76.7, 84.1, 85.3]),
    ];

    /// §VI-C: variant-feature counts found by FS at 1/5/10 shots.
    pub const VARIANT_COUNTS_5GC: [usize; 3] = [35, 68, 75];
    /// §VI-C: 5GIPC variant-feature counts.
    pub const VARIANT_COUNTS_5GIPC: [usize; 3] = [23, 31, 37];
    /// §VI-C: maximum F1 deviation across random target selections.
    pub const VARIANCE_BOUND: f64 = 2.6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        // No env override in tests: reduced scale.
        let s = BenchScale {
            full: false,
            repeats: 1,
            seed: 0,
        };
        assert_eq!(s.budget().nn_epochs, Budget::quick().nn_epochs);
        assert!(s.banner().contains("reduced"));
        let f = BenchScale {
            full: true,
            repeats: 5,
            seed: 0,
        };
        assert!(f.banner().contains("FULL"));
    }

    #[test]
    fn scenarios_build() {
        let s = BenchScale {
            full: false,
            repeats: 1,
            seed: 0,
        };
        let (gc, truth) = scenario_5gc(&s, 1);
        assert_eq!(gc.target_test.num_classes(), 16);
        assert!(!truth.is_empty());
        let (ipc, truth2) = scenario_5gipc(&s, 1);
        assert_eq!(ipc.target_test.num_classes(), 2);
        assert!(ipc.pool_groups.is_some());
        assert!(!truth2.is_empty());
    }

    #[test]
    fn paper_tables_have_consistent_shapes() {
        assert_eq!(paper::TABLE1_5GC.len(), 13);
        assert_eq!(paper::TABLE1_5GIPC.len(), 13);
        for (m, grid) in paper::TABLE1_5GC.iter() {
            let _ = m.label();
            for ks in grid {
                for &v in ks {
                    assert!((0.0..=100.0).contains(&v));
                }
            }
        }
    }
}
