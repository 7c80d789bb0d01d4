//! Shared experiment infrastructure: result tables, CSV output, and the
//! generic "execute an A2A or X2Y schema on the engine" jobs used by
//! several figures and by the cost-model referee.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use mrassign_core::exact::SearchBudget;
use mrassign_core::{MappingSchema, X2ySchema};
use mrassign_simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, Job, JobMetrics, Mapper,
    Reducer, SpillCodec,
};

/// Experiment scale: `Smoke` keeps tests fast; `Full` produces the numbers
/// recorded in `docs/EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny parameters for CI smoke tests.
    Smoke,
    /// The recorded configuration.
    Full,
}

impl Scale {
    /// Picks `smoke` or `full` by scale.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// An experiment binary's arguments, strictly parsed. `--smoke` picks
/// [`Scale::Smoke`]; each binary names the value flags it takes besides:
/// `budget` where it runs an exact search, or the engine knobs
/// ([`ClusterConfig::KNOBS`]) where it executes jobs. Any other argument
/// is rejected with the accepted flags listed, so a typo can never quietly
/// run the default configuration, and a flag given twice is rejected as
/// `mrassign` rejects it, so neither value quietly wins.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// The selected experiment scale.
    pub scale: Scale,
    /// `--budget`: the node budget of the experiment's exact searches.
    pub budget: Option<SearchBudget>,
    /// The default cluster with each `--<knob>` applied, validated: the
    /// base that the job-running figures extend with their cost model.
    /// No knob changes a recorded number.
    pub cluster: ClusterConfig,
}

impl ExperimentArgs {
    /// Parses `args`, taking `--smoke` and `--<flag> <value>` for each
    /// flag in `accepted`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<ExperimentArgs, String> {
        let mut parsed = ExperimentArgs {
            scale: Scale::Full,
            budget: None,
            cluster: ClusterConfig::default(),
        };
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            // Values are consumed below, so every `arg` here is a flag (or
            // a stray word, rejected on sight).
            if seen.contains(&arg.as_str()) {
                return Err(format!("flag {arg} given twice"));
            }
            seen.push(arg);
            if arg == "--smoke" {
                parsed.scale = Scale::Smoke;
                continue;
            }
            let Some(flag) = arg
                .strip_prefix("--")
                .filter(|flag| accepted.contains(flag))
            else {
                let expected: Vec<String> = std::iter::once(&"smoke")
                    .chain(accepted)
                    .map(|flag| format!("--{flag}"))
                    .collect();
                return Err(format!(
                    "unknown flag `{arg}` (expected {})",
                    expected.join(", ")
                ));
            };
            let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
            let set = match flag {
                "budget" => value.parse().map(|budget| parsed.budget = Some(budget)),
                knob => parsed.cluster.set_knob(knob, value),
            };
            set.map_err(|e| format!("--{flag}: {e}"))?;
        }
        parsed.cluster.validate().map_err(|e| e.to_string())?;
        Ok(parsed)
    }

    /// Parses the process arguments as [`ExperimentArgs::parse`] does; on
    /// an error, prints it and exits with status 1.
    pub fn from_env(accepted: &[&str]) -> ExperimentArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExperimentArgs::parse(&args, accepted).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    }
}

/// A rectangular result table with aligned stdout printing and CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn push_row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV to `results/<name>.csv` (relative to the
    /// workspace root) and returns the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut content = self.header.join(",");
        content.push('\n');
        for row in &self.rows {
            content.push_str(&row.join(","));
            content.push('\n');
        }
        std::fs::write(&path, content)?;
        Ok(path)
    }
}

/// The workspace `results/` directory (next to the top-level `Cargo.toml`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the workspace root")
        .join("results")
}

/// Prints a table and persists its CSV — the tail of every experiment
/// binary.
pub fn finish(table: &Table, csv_name: &str) {
    print!("{}", table.render());
    match table.write_csv(csv_name) {
        Ok(path) => println!("\n[written] {}", path.display()),
        Err(e) => eprintln!("failed to write CSV: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Schema execution on the simulated engine
// ---------------------------------------------------------------------------

/// A sized, routed input blob; the payload is simulated (only its size
/// travels), which is exactly what byte accounting needs.
#[derive(Clone, Hash)]
pub struct Blob {
    /// Input id.
    pub id: u32,
    /// Input size in bytes.
    pub bytes: u64,
    /// Reducer targets from the compiled schema.
    pub targets: Vec<usize>,
}

impl ByteSized for Blob {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Shuffled value: input id plus simulated payload size.
#[derive(Clone)]
pub struct BlobPayload {
    /// Originating input id.
    pub id: u32,
    /// Simulated payload bytes.
    pub bytes: u64,
}

impl ByteSized for BlobPayload {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

impl SpillCodec for BlobPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.bytes.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(BlobPayload {
            id: u32::decode(bytes)?,
            bytes: u64::decode(bytes)?,
        })
    }
}

struct ReplicateBlobs;

impl Mapper for ReplicateBlobs {
    type In = Blob;
    type Key = u64;
    type Value = BlobPayload;
    fn map(&self, input: &Blob, emit: &mut Emitter<u64, BlobPayload>) {
        for &t in &input.targets {
            emit.emit(
                t as u64,
                BlobPayload {
                    id: input.id,
                    bytes: input.bytes,
                },
            );
        }
    }
}

/// Pairwise work proportional to the co-resident byte volume — a stand-in
/// for any all-pairs computation at a reducer.
struct PairwiseWork;

impl Reducer for PairwiseWork {
    type Key = u64;
    type Value = BlobPayload;
    type Out = u64;
    fn reduce(&self, _key: &u64, values: &[BlobPayload], out: &mut Vec<u64>) {
        out.push(values.len() as u64 * values.len().saturating_sub(1) as u64 / 2);
    }
}

/// Executes an A2A mapping schema on the simulated engine and returns the
/// job metrics: one map task per input, in id order. Capacity is enforced:
/// a valid schema cannot trip it.
pub fn execute_a2a_schema(
    weights: &[u64],
    schema: &MappingSchema,
    q: u64,
    cluster: ClusterConfig,
) -> JobMetrics {
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    for (rid, r) in schema.reducers().enumerate() {
        for id in r {
            routes[id as usize].push(rid);
        }
    }
    execute_routes(weights, routes, schema.reducer_count(), q, cluster)
}

/// Executes an X2Y mapping schema on the simulated engine and returns the
/// job metrics: one map task per input, the X inputs first and then the Y
/// inputs, which is the order the planner's cost model schedules them in.
/// Capacity is enforced, as for [`execute_a2a_schema`].
pub fn execute_x2y_schema(
    x_weights: &[u64],
    y_weights: &[u64],
    schema: &X2ySchema,
    q: u64,
    cluster: ClusterConfig,
) -> JobMetrics {
    let weights = [x_weights, y_weights].concat();
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    for (rid, r) in schema.reducers().enumerate() {
        for &id in r.x {
            routes[id as usize].push(rid);
        }
        for &id in r.y {
            routes[x_weights.len() + id as usize].push(rid);
        }
    }
    execute_routes(&weights, routes, schema.reducer_count(), q, cluster)
}

/// Runs one map task per input `i`, of `weights[i]` bytes, that sends a
/// copy to each reducer in `routes[i]`, over `reducers` reducers under
/// `CapacityPolicy::Enforce(q)`. No reducers means no job.
fn execute_routes(
    weights: &[u64],
    routes: Vec<Vec<usize>>,
    reducers: usize,
    q: u64,
    cluster: ClusterConfig,
) -> JobMetrics {
    if reducers == 0 {
        return JobMetrics::default();
    }
    let blobs: Vec<Blob> = weights
        .iter()
        .zip(routes)
        .enumerate()
        .map(|(i, (&bytes, targets))| Blob {
            id: i as u32,
            bytes,
            targets,
        })
        .collect();
    let job = Job::new(
        ReplicateBlobs,
        PairwiseWork,
        DirectRouter,
        reducers,
        cluster,
    )
    .capacity(CapacityPolicy::Enforce(q));
    job.run(&blobs)
        .expect("valid schema execution cannot violate capacity")
        .metrics
}

/// Formats a ratio with three decimals, tolerating a zero denominator.
pub fn ratio(num: u128, den: u128) -> String {
    if den == 0 {
        "inf".to_string()
    } else {
        format!("{:.3}", num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrassign_core::{a2a, InputSet};
    use mrassign_simmr::{FaultPlan, FinalizeMode, ShuffleMode};

    #[test]
    fn table_render_aligns_and_counts() {
        let mut t = Table::new("demo", &["a", "long_header", "c"]);
        t.push_row(&[&1, &"xy", &3.5]);
        t.push_row(&[&22, &"z", &0.25]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("long_header"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and rows share the same width.
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(&[&1]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(&[&1, &2]);
        let path = t.write_csv("smoke_common_csv").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn execute_schema_agrees_with_schema_loads() {
        let weights: Vec<u64> = (0..60).map(|i| 5 + i % 20).collect();
        let inputs = InputSet::from_weights(weights.clone());
        let q = 60;
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        let metrics = execute_a2a_schema(&weights, &schema, q, ClusterConfig::default());
        assert_eq!(metrics.reducer_value_bytes, schema.loads(&inputs));
        assert!(metrics.max_reducer_load() <= q);
    }

    fn to_args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    /// `--smoke`, `--budget` and every engine knob parse into the scale,
    /// the budget and the base cluster; no argument means full scale and
    /// the default cluster.
    #[test]
    fn experiment_args_parse_engine_knobs_and_budget() {
        let args = to_args(&[
            "--smoke",
            "--threads",
            "3",
            "--shuffle",
            "pipelined",
            "--finalize",
            "stealing",
            "--retries",
            "5",
            "--faults",
            "seed:7,rate:0.05",
            "--memory-budget",
            "4096",
            "--checkpoint-dir",
            "ckpt",
        ]);
        let parsed = ExperimentArgs::parse(&args, &ClusterConfig::KNOBS).unwrap();
        assert_eq!(parsed.scale, Scale::Smoke);
        assert_eq!(
            parsed.cluster,
            ClusterConfig {
                map_threads: 3,
                shuffle: ShuffleMode::Pipelined,
                finalize_mode: FinalizeMode::Stealing,
                retry_budget: 5,
                fault_plan: Some(FaultPlan::seeded(7, 0.05)),
                memory_budget: Some(4096),
                checkpoint_dir: Some("ckpt".into()),
                ..ClusterConfig::default()
            }
        );
        assert_eq!(
            ExperimentArgs::parse(&to_args(&["--smoke", "--budget", "5000"]), &["budget"]).unwrap(),
            ExperimentArgs {
                scale: Scale::Smoke,
                budget: Some(SearchBudget::nodes(5000)),
                cluster: ClusterConfig::default(),
            }
        );
        for accepted in [&[][..], &["budget"], &ClusterConfig::KNOBS] {
            assert_eq!(
                ExperimentArgs::parse(&[], accepted).unwrap(),
                ExperimentArgs {
                    scale: Scale::Full,
                    budget: None,
                    cluster: ClusterConfig::default(),
                }
            );
        }
    }

    /// A misspelled engine-knob flag, a knob without its value, a bad
    /// value and a repeated flag are rejected instead of quietly running
    /// the default configuration or the last value. A bad value's message
    /// is the parser's, prefixed with the flag.
    #[test]
    fn exec_knobs_reject_typos_instead_of_ignoring_them() {
        let knobs = &ClusterConfig::KNOBS[..];
        for bad in [
            &["--shufle", "pipelined"][..],
            &["--shuffle=pipelined"],
            &["--shuffle", "mystery"],
            &["--threads"],
            &["--finalize"],
            &["--finalize", "mystery"],
            &["--finalise", "stealing"],
            &["--retries"],
            &["--retries", "many"],
            &["--retrys", "3"],
            &["--faults"],
            &["--faults", "seed:7,rat:0.05"],
            &["--fault", "seed:7,rate:0.05"],
            &["--memory-budget"],
            &["--memory-budget", "lots"],
            &["--memory-budgets", "4096"],
            &["--memory-budget", "0"],
            &["--checkpoint-dir", ""],
            &["--budget", "5000"],
            &["--threads", "2", "--threads", "4"],
            &["--threads", "2", "--threads", "2"],
            &["--smoke", "--retries", "1", "--smoke"],
        ] {
            assert!(
                ExperimentArgs::parse(&to_args(bad), knobs).is_err(),
                "{bad:?}"
            );
        }
        let err = |bad: &[&str]| ExperimentArgs::parse(&to_args(bad), knobs).unwrap_err();
        assert_eq!(
            err(&["--shuffle", "streaming"]),
            "--shuffle: unknown shuffle mode `streaming` (expected materialized|pipelined)"
        );
        assert_eq!(
            err(&["--shufle", "pipelined"]),
            "unknown flag `--shufle` (expected --smoke, --threads, --shuffle, --finalize, \
             --retries, --faults, --memory-budget, --checkpoint-dir)"
        );
        assert_eq!(
            err(&["--smoke", "--threads", "2", "--threads", "4"]),
            "flag --threads given twice"
        );
    }

    /// A table binary's flags: `--smoke` alone parses, and a misspelled or
    /// misplaced flag, a stray word, a missing, malformed or zero node
    /// budget and a repeated flag are rejected with a message naming it.
    #[test]
    fn table_args_parse_and_reject() {
        assert_eq!(
            ExperimentArgs::parse(&to_args(&["--smoke"]), &[]).unwrap(),
            ExperimentArgs {
                scale: Scale::Smoke,
                budget: None,
                cluster: ClusterConfig::default(),
            }
        );
        for (accepted, bad) in [
            (&[][..], &["--smok"][..]),
            (&[], &["--budget", "9"]),
            (&[], &["--threads", "2"]),
            (&[], &["stray"]),
            (&["budget"], &["--budget", "many"]),
            (&["budget"], &["--budget"]),
            (&["budget"], &["--budget", "0"]),
            (&["budget"], &["--budget", "9", "--budget", "10"]),
            (&[], &["--smoke", "--smoke"]),
        ] {
            assert!(
                ExperimentArgs::parse(&to_args(bad), accepted).is_err(),
                "{bad:?}"
            );
        }
        let err = |accepted: &[&str], bad: &[&str]| {
            ExperimentArgs::parse(&to_args(bad), accepted).unwrap_err()
        };
        assert_eq!(
            err(&[], &["--budget", "9"]),
            "unknown flag `--budget` (expected --smoke)"
        );
        assert!(err(&["budget"], &["--budget", "many"])
            .starts_with("--budget: `many` is not a node budget"));
        assert_eq!(
            err(&["budget"], &["--budget", "9", "--smoke", "--budget", "9"]),
            "flag --budget given twice"
        );
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3, 2), "1.500");
        assert_eq!(ratio(1, 0), "inf");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Smoke.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
