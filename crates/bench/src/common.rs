//! Shared experiment infrastructure: result tables, CSV output, and the
//! generic "execute an A2A or X2Y schema on the engine" jobs used by
//! several figures and by the cost-model referee.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use mrassign_core::{MappingSchema, X2ySchema};
use mrassign_simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, FaultPlan, FinalizeMode, Job,
    JobMetrics, Mapper, Reducer, ShuffleMode, SpillCodec,
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

/// Engine knobs shared by every job-executing experiment binary: how many
/// OS threads the map phase uses, which shuffle mode the engine runs, how
/// the pipelined engine schedules its finalize, and the fault-injection
/// pair (retry budget + seeded fault schedule). None of them changes any
/// recorded number — results and deterministic metrics are identical
/// across all of them, faults included, because retries replay
/// deterministic tasks — so they are safe to flip in CI to keep every
/// engine path exercised.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecKnobs {
    /// OS threads for map execution (`0`/`1` = sequential).
    pub map_threads: usize,
    /// Shuffle execution mode.
    pub shuffle: ShuffleMode,
    /// Finalize scheduling for the pipelined engine (inert otherwise).
    pub finalize: FinalizeMode,
    /// Per-task retry budget override (`None` keeps the engine default).
    pub retries: Option<u32>,
    /// Seeded transient-fault schedule to inject (`None` = fault-free).
    pub faults: Option<FaultPlan>,
    /// Per-consumer-group byte budget for buffered shuffle runs; above it
    /// the pipelined engine spills sorted runs to disk (`None` =
    /// unbounded, never spills).
    pub memory_budget: Option<u64>,
}

impl ExecKnobs {
    /// Parses `--threads <n>`, `--shuffle
    /// materialized|pipelined`, `--finalize static|stealing`,
    /// `--retries <n>`, `--faults seed:7,rate:0.05`, and
    /// `--memory-budget <bytes>` from a binary's argument list. `--smoke`
    /// is the experiment binaries' scale flag, so it passes through; any
    /// *other* `--flag` is rejected rather than silently ignored — a typo
    /// must not quietly revert CI to the default engine path.
    pub fn from_args(args: &[String]) -> Result<ExecKnobs, String> {
        let mut knobs = ExecKnobs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let value = it.next().ok_or("--threads needs a value")?;
                    knobs.map_threads = value
                        .parse()
                        .map_err(|_| format!("cannot parse `{value}` as a thread count"))?;
                }
                "--shuffle" => {
                    let value = it.next().ok_or("--shuffle needs a value")?;
                    knobs.shuffle = value.parse()?;
                }
                "--finalize" => {
                    let value = it.next().ok_or("--finalize needs a value")?;
                    knobs.finalize = value.parse()?;
                }
                "--retries" => {
                    let value = it.next().ok_or("--retries needs a value")?;
                    knobs.retries = Some(
                        value
                            .parse()
                            .map_err(|_| format!("cannot parse `{value}` as a retry budget"))?,
                    );
                }
                "--faults" => {
                    let value = it.next().ok_or("--faults needs a value")?;
                    knobs.faults = Some(value.parse()?);
                }
                "--memory-budget" => {
                    let value = it.next().ok_or("--memory-budget needs a value")?;
                    knobs.memory_budget = Some(
                        value
                            .parse()
                            .map_err(|_| format!("cannot parse `{value}` as a byte budget"))?,
                    );
                }
                "--smoke" => {}
                other if other.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --smoke, --threads <n>, --shuffle materialized|pipelined, --finalize static|stealing, --retries <n>, --faults <spec>, --memory-budget <bytes>)"
                    ));
                }
                _ => {}
            }
        }
        Ok(knobs)
    }

    /// Applies the knobs to a cluster configuration.
    pub fn apply(&self, mut cluster: ClusterConfig) -> ClusterConfig {
        cluster.map_threads = self.map_threads.max(1);
        cluster.shuffle = self.shuffle;
        cluster.finalize_mode = self.finalize;
        if let Some(budget) = self.retries {
            cluster.retry_budget = budget;
        }
        cluster.fault_plan = self.faults.clone();
        cluster.memory_budget = self.memory_budget;
        cluster
    }
}

/// Strictly parsed arguments for the experiment binaries that do not
/// execute jobs (those take [`ExecKnobs`] instead): `--smoke` picks
/// [`Scale::Smoke`], and — where the experiment runs an exact search —
/// `--budget <nodes>` overrides its node budget. Unknown flags are
/// rejected with the accepted candidates named, so a typo can never
/// silently fall back to the default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableArgs {
    /// The selected experiment scale.
    pub scale: Scale,
    /// Node-budget override for exact searches, when the binary allows it.
    pub budget: Option<u64>,
}

impl TableArgs {
    /// Parses a binary's argument list. `allow_budget` says whether this
    /// experiment accepts `--budget <nodes>`.
    pub fn from_args(args: &[String], allow_budget: bool) -> Result<TableArgs, String> {
        let expected = if allow_budget {
            "--smoke, --budget <nodes>"
        } else {
            "--smoke"
        };
        let mut parsed = TableArgs {
            scale: Scale::Full,
            budget: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.scale = Scale::Smoke,
                "--budget" if allow_budget => {
                    let value = it.next().ok_or("--budget needs a value")?;
                    let nodes: u64 = value.parse().map_err(|_| {
                        format!("cannot parse `{value}` as a node budget (expected a positive integer, e.g. --budget 2000000)")
                    })?;
                    if nodes == 0 {
                        return Err("a node budget of 0 can never certify anything".into());
                    }
                    parsed.budget = Some(nodes);
                }
                other => {
                    return Err(format!("unknown flag `{other}` (expected {expected})"));
                }
            }
        }
        Ok(parsed)
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

    #[test]
    fn exec_knobs_parse_and_apply() {
        let args: Vec<String> = [
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
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let knobs = ExecKnobs::from_args(&args).unwrap();
        assert_eq!(knobs.map_threads, 3);
        assert_eq!(knobs.shuffle, ShuffleMode::Pipelined);
        assert_eq!(knobs.finalize, FinalizeMode::Stealing);
        assert_eq!(knobs.retries, Some(5));
        assert_eq!(knobs.memory_budget, Some(4096));
        let cluster = knobs.apply(ClusterConfig::default());
        assert_eq!(cluster.map_threads, 3);
        assert_eq!(cluster.shuffle, ShuffleMode::Pipelined);
        assert_eq!(cluster.finalize_mode, FinalizeMode::Stealing);
        assert_eq!(cluster.retry_budget, 5);
        assert_eq!(cluster.memory_budget, Some(4096));
        let plan = cluster.fault_plan.expect("--faults must apply");
        assert_eq!(plan.seed, 7);
        assert!((plan.map_rate - 0.05).abs() < 1e-12);
        assert!((plan.reduce_rate - 0.05).abs() < 1e-12);
        assert_eq!(
            ExecKnobs::from_args(&[]).unwrap(),
            ExecKnobs {
                map_threads: 0,
                shuffle: ShuffleMode::Materialized,
                finalize: FinalizeMode::Static,
                retries: None,
                faults: None,
                memory_budget: None,
            }
        );
    }

    #[test]
    fn exec_knobs_reject_typos_instead_of_ignoring_them() {
        for bad in [
            vec!["--shufle", "pipelined"],
            vec!["--shuffle=pipelined"],
            vec!["--shuffle", "mystery"],
            vec!["--threads"],
            vec!["--finalize"],
            vec!["--finalize", "mystery"],
            vec!["--finalise", "stealing"],
            vec!["--retries"],
            vec!["--retries", "many"],
            vec!["--retrys", "3"],
            vec!["--faults"],
            vec!["--faults", "seed:7,rat:0.05"],
            vec!["--fault", "seed:7,rate:0.05"],
            vec!["--memory-budget"],
            vec!["--memory-budget", "lots"],
            vec!["--memory-budgets", "4096"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(ExecKnobs::from_args(&args).is_err(), "{bad:?}");
        }
        // The removed streaming shuffle is rejected by name.
        let args: Vec<String> = ["--shuffle", "streaming"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            ExecKnobs::from_args(&args).unwrap_err(),
            "unknown shuffle mode `streaming` (expected materialized|pipelined)"
        );
    }

    #[test]
    fn table_args_parse_and_reject() {
        let to_args = |xs: &[&str]| -> Vec<String> { xs.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            TableArgs::from_args(&[], true).unwrap(),
            TableArgs {
                scale: Scale::Full,
                budget: None
            }
        );
        assert_eq!(
            TableArgs::from_args(&to_args(&["--smoke", "--budget", "5000"]), true).unwrap(),
            TableArgs {
                scale: Scale::Smoke,
                budget: Some(5000)
            }
        );
        // Unknown flags and malformed budgets name the accepted candidates.
        let err = TableArgs::from_args(&to_args(&["--smok"]), false).unwrap_err();
        assert!(err.contains("--smoke"), "{err}");
        let err = TableArgs::from_args(&to_args(&["--budget", "9"]), false).unwrap_err();
        assert!(
            err.contains("--smoke") && !err.contains("--budget <nodes>"),
            "{err}"
        );
        let err = TableArgs::from_args(&to_args(&["--budget", "many"]), true).unwrap_err();
        assert!(err.contains("node budget"), "{err}");
        assert!(TableArgs::from_args(&to_args(&["--budget"]), true).is_err());
        assert!(TableArgs::from_args(&to_args(&["--budget", "0"]), true).is_err());
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
