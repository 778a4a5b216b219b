//! Plumbing shared by the bench binaries: the scenario-grid runner behind
//! `scenario_sweep` and `tournament`, the JSON writer every `BENCH_*.json`
//! goes through, and the exit path of the CI gates each binary enforces on
//! its own results.

use fsda_core::adapter::AdapterConfig;
use fsda_core::sweep::{run_scenario_cell, CellOutcome};
use fsda_core::Method;
use fsda_data::fewshot::few_shot_subset;
use fsda_data::scenario::ScenarioSpec;
use fsda_linalg::par::{par_map, resolve_threads};
use fsda_linalg::SeededRng;
use fsda_telemetry::Value;
use std::time::Instant;

/// Splitmix64 finalizer for per-cell seed derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean of `f` over the items where it is defined; NaN if it is defined
/// on none.
pub fn mean_of<T>(items: &[T], f: impl Fn(&T) -> Option<f64>) -> f64 {
    mean(&items.iter().filter_map(f).collect::<Vec<f64>>())
}

/// Median, averaging the two middle values of an even-length slice (as
/// python's `statistics.median`); NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Whether `flag` was passed on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The value after `--threads` on the command line, else the host's
/// parallelism.
fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let requested = args.windows(2).find(|w| w[0] == "--threads");
    resolve_threads(requested.and_then(|w| w[1].parse().ok()))
}

/// Ends the process with exit status 1 and the gate's failure text on
/// stderr when the gate failed. Binaries call it after writing their JSON,
/// so a failing run still leaves its numbers behind.
pub fn enforce(gate: Result<(), String>) {
    if let Err(message) = gate {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

/// A scenario grid after it ran.
pub struct GridRun {
    /// The grid's specs, each carrying the seed derived from its position.
    pub specs: Vec<ScenarioSpec>,
    /// Per-cell outcomes in spec order, in `methods` order within a cell.
    pub cells: Vec<Vec<CellOutcome>>,
    /// Worker threads the cells fanned out on (`--threads N`, else the
    /// host's parallelism).
    pub threads: usize,
    /// Wall time of the pooled run.
    pub elapsed_s: f64,
    /// Leading cells re-run sequentially by the determinism spot-check.
    pub checked: usize,
    /// Whether every re-run cell matched the pooled run exactly.
    pub identical: bool,
}

/// Runs every method on every cell of a scenario grid.
///
/// Cell `i` gets the seed `mix(base_seed + i)`; shots and method seeds
/// derive from it, and everything inside a cell (generation, the FS
/// search, training, prediction) runs single-threaded, so a cell is a
/// pure function of its grid position and parallelism lives only at the
/// `par_map` fan-out over cells, on `--threads N` workers (default: the
/// host's parallelism). The first `spot_check` cells are then re-run
/// sequentially and compared with the pooled results.
///
/// # Panics
///
/// Panics if a spec does not compile or a cell fails to generate or fit
/// (a bug in the grid definition).
pub fn run_grid(
    specs: Vec<ScenarioSpec>,
    base_seed: u64,
    methods: &[Method],
    config: &AdapterConfig,
    spot_check: usize,
) -> GridRun {
    let specs: Vec<ScenarioSpec> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.with_seed(mix(base_seed + i as u64)))
        .collect();
    let mut config = config.clone();
    config.fs.parallel = false;
    config.budget.threads = 1;
    let run_cell = |_: usize, spec: &ScenarioSpec| -> Vec<CellOutcome> {
        let data = spec
            .compile()
            .expect("grid specs are valid")
            .generate(Some(1))
            .expect("scenario generation");
        let mut shot_rng = SeededRng::new(mix(spec.seed ^ 0x5807));
        let shots =
            few_shot_subset(&data.target_pool, spec.shots, &mut shot_rng).expect("few-shot draw");
        methods
            .iter()
            .map(|&method| {
                run_scenario_cell(
                    method,
                    &data.source_train,
                    &shots,
                    &data.target_test,
                    &data.ground_truth_variant,
                    &config,
                    mix(spec.seed ^ method as u64),
                )
                .expect("cell run")
            })
            .collect()
    };

    let threads = threads_arg();
    println!(
        "{} cells x {} methods on {threads} thread(s)\n",
        specs.len(),
        methods.len()
    );
    let start = Instant::now();
    let cells = par_map(threads, &specs, run_cell);
    let elapsed_s = start.elapsed().as_secs_f64();
    println!(
        "ran {} cells in {elapsed_s:.1}s ({:.2}s/cell)\n",
        cells.len(),
        elapsed_s / cells.len().max(1) as f64
    );

    let checked = cells.len().min(spot_check);
    let again = par_map(1, &specs[..checked], run_cell);
    // Debug prints every f64 at round-trip precision, so equal text means
    // equal bits (NaN payloads aside).
    let identical = format!("{:?}", &cells[..checked]) == format!("{again:?}");
    println!(
        "determinism spot-check: {checked} cells at 1 vs {threads} thread(s), \
         bit-identical: {identical}\n"
    );
    GridRun {
        specs,
        cells,
        threads,
        elapsed_s,
        checked,
        identical,
    }
}

/// Declares bench records: structs whose fields are JSON scalars, each with
/// a `From<&Record>` for [`Json`] that writes every field under its own
/// name, in declaration order.
#[macro_export]
macro_rules! json_record {
    ($($(#[$meta:meta])* struct $name:ident { $($field:ident: $ty:ty,)* })*) => {$(
        $(#[$meta])*
        struct $name {
            $($field: $ty,)*
        }

        impl From<&$name> for $crate::harness::Json {
            fn from(r: &$name) -> Self {
                $crate::harness::Json::object()$(.field(stringify!($field), r.$field))*
            }
        }
    )*};
}

/// A JSON document under construction. Scalars are telemetry [`Value`]s,
/// so strings are escaped and non-finite floats written as `null` by the
/// code the telemetry sinks use.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A number, string or boolean.
    Scalar(Value),
    /// An unsigned integer; [`Value::Int`] would clamp one above
    /// `i64::MAX` (a mixed seed, say).
    U64(u64),
    /// An array.
    Array(Vec<Json>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Json)>),
}

macro_rules! scalar_into_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Scalar(v.into())
            }
        }
    )*};
}
scalar_into_json!(usize, f64, bool, &str, String);

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends `key: value` to this object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        let Json::Object(fields) = &mut self else {
            panic!("Json::field on a non-object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// Renders the document with two-space indentation. A container whose
    /// children are all scalars stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Scalar(v) => return out.push_str(&v.to_json()),
            Json::U64(v) => return out.push_str(&v.to_string()),
            Json::Array(items) => ('[', ']', items.iter().map(|j| (None, j)).collect()),
            Json::Object(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, j)| (Some(&**k), j)).collect(),
            ),
        };
        let multiline = items
            .iter()
            .any(|(_, j)| matches!(j, Json::Array(_) | Json::Object(_)));
        let pad = if multiline {
            format!("\n{}", "  ".repeat(indent + 1))
        } else {
            String::new()
        };
        out.push(open);
        for (i, (key, item)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            out.push_str(&pad);
            if let Some(key) = key {
                out.push_str(&Value::from(*key).to_json());
                out.push_str(": ");
            }
            item.render_into(out, indent + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
        out.push(close);
    }

    /// Writes the document to `file_name` at the repository root, whatever
    /// the current directory, and prints the path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_bench(&self, file_name: &str) {
        let path = format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings_and_writes_non_finite_floats_as_null() {
        let doc = Json::object()
            .field("a\"b", "line\nbreak \\ tab\t\u{1}")
            .field("none", None::<f64>)
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY)
            .field("neg_inf", f64::NEG_INFINITY)
            .field("floats", 2.0);
        assert_eq!(
            doc.render(),
            "{\"a\\\"b\": \"line\\nbreak \\\\ tab\\t\\u0001\", \"none\": null, \
             \"nan\": null, \"inf\": null, \"neg_inf\": null, \"floats\": 2.0}\n"
        );
    }

    #[test]
    fn json_nests_arrays_and_objects() {
        let doc = Json::object().field("seed", u64::MAX).field(
            "cells",
            vec![
                Json::object().field("id", 0usize).field("ok", true),
                Json::object().field("empty", Vec::<bool>::new()),
            ],
        );
        assert_eq!(
            doc.render(),
            "{\n  \"seed\": 18446744073709551615,\n  \"cells\": [\n    \
             {\"id\": 0, \"ok\": true},\n    {\n      \"empty\": []\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
