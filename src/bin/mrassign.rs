//! `mrassign` — command-line front end for the mapping-schema library.
//!
//! ```text
//! mrassign gen  --dist uniform:10:100 --m 1000 --seed 7 [--out weights.txt]
//! mrassign a2a  --weights weights.txt --q 200 [--algo <a2a solver>] [--budget <nodes>] [--routes]
//! mrassign x2y  --x xs.txt --y ys.txt --q 200 [--algo <x2y solver>] [--budget <nodes>] [--routes]
//! mrassign plan --weights weights.txt [--workers 16] [--candidates 10]
//!               [--objective makespan|comm:<slowdown>] [--algo <a2a solver>] [--budget <nodes>]
//!               [--threads <n>]
//! mrassign dag  [--workload marginals|skewjoin] [--jobs 4] [--tenants 2] [--pool 2]
//!               [--rows 200] [--seed 42] [--repeat 1] [--stage-cache <bytes>] [--threads <n>]
//!               [--shuffle materialized|pipelined] [--finalize static|stealing]
//!               [--retries <n>] [--faults seed:7,rate:0.05] [--memory-budget <bytes>]
//!               [--checkpoint-dir <dir>]
//! ```
//!
//! Solver names come from the registry in `mrassign_core::solver`
//! (`mrassign a2a --algo nonsense` lists them). `--algo exact` runs the
//! branch-and-bound optimal solver; `--budget` caps its node count (it is
//! rejected with any other solver) and the summary gains a `search:` line
//! with the node/prune/memo statistics and whether optimality was
//! certified. `plan` scores each candidate capacity's schema through the
//! `--workers` cluster's cost model without running the engine, so it
//! takes no engine knobs; `--threads` sets how many threads its q-frontier
//! sweep runs on, the calling one included, without changing the plan.
//!
//! The engine knobs belong to `dag`, which runs the engine for every
//! stage; `ClusterConfig::KNOBS` names them and `ClusterConfig::set_knob`
//! parses each. `--threads` sets the engine's map threads, `--shuffle` picks
//! its shuffle mode (`pipelined` runs the overlapped stage-graph engine),
//! and `--finalize` picks the pipelined engine's finalize scheduler
//! (`stealing` lets idle consumer threads take completed partitions off
//! hot ones) — none of them changes any output, only wall-clock time and
//! peak memory. `--faults` injects a seeded transient-fault schedule
//! (keys: `seed`, `rate`, `map-rate`, `reduce-rate`) and `--retries` sets
//! the per-task retry budget; because retries replay deterministic
//! tasks, these don't change the outputs either — they exist to smoke the
//! fault-tolerance layer end to end. `--memory-budget` caps the bytes of
//! sorted run data each pipelined consumer group may buffer before
//! sealing runs to disk (the out-of-core shuffle path); like every engine
//! knob it trades memory for I/O without changing a single output byte.
//! `--checkpoint-dir` makes the engine persist the map side's accounting
//! and every finalized reduce partition under the given directory, keyed
//! by a fingerprint of the job's semantic configuration and workload;
//! re-running the same command against the same directory resumes,
//! replaying committed partitions from disk bit-identically (a fully
//! committed round runs no map task at all) and re-executing only the
//! rest — the recovery path for `--faults` kill lists (`kill-map:`,
//! `kill-reduce:`), which panic a worker mid-task.
//!
//! `mrassign dag` drives the multi-round stage-graph scheduler: it
//! submits `--jobs` copies of a chained-MapReduce workload (`marginals`
//! — the two-round data-cube marginals pipeline — or `skewjoin` — the
//! statistics + join rounds of the skew join) from `--tenants` simulated
//! tenants to one shared `--pool`-worker job server, re-runs every job
//! hand-chained as a referee, verifies the outputs are bit-identical,
//! and prints per-job stage metrics plus the fair-share table. All the
//! engine knobs above apply to every stage of every round; the referee
//! runs without `--checkpoint-dir`, so it recomputes every partition
//! instead of replaying the ones the DAG run persisted. `--repeat`
//! submits every job graph that many times; with `--stage-cache <bytes>`
//! the server keeps a fingerprint-keyed intermediate store of that
//! capacity, so repeat rounds are served from cache, execute strictly
//! fewer stages, and still verify bit-identical against the referee; the
//! summary then ends with a `stage cache: hits …` line.
//!
//! Weight files hold one integer per line; `#` starts a comment. All
//! commands print a human-readable summary; `--routes` additionally dumps
//! `reducer <tab> input,input,...` lines for piping into a real job
//! submitter. A flag the command does not accept (a typo such as
//! `--shufle`) is an error naming the flag and the flags it accepts.

use std::collections::HashMap;
use std::process::ExitCode;

use mrassign::core::exact::{self, SearchBudget, SearchStats};
use mrassign::core::solver::{a2a_solver, a2a_solver_names, x2y_solver, x2y_solver_names};
use mrassign::core::{
    a2a, bounds, stats::SchemaStats, x2y, A2aReducer, AssignmentSolver, InputSet, X2yInstance,
};
use mrassign::dag::marginals::{marginals_graph, run_marginals_chained, MarginalsConfig};
use mrassign::dag::{DagMetrics, JobServer};
use mrassign::joins::{run_skew_join_chained, skew_join_graph, SkewDagConfig};
use mrassign::planner::{plan_a2a_with, Objective, PlannerConfig};
use mrassign::simmr::ClusterConfig;
use mrassign::workloads::cube::{generate_cube, CubeSpec};
use mrassign::workloads::{generate_relation_pair, RelationSpec, SizeDistribution};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mrassign gen  --dist <spec> --m <n> [--seed <s>] [--out <file>]
  mrassign a2a  --weights <file> --q <n> [--algo <a2a solver>] [--budget <nodes>] [--routes]
  mrassign x2y  --x <file> --y <file> --q <n> [--algo <x2y solver>] [--budget <nodes>] [--routes]
  mrassign plan --weights <file> [--workers <n>] [--candidates <n>] [--objective makespan|comm:<slowdown>]
                [--algo <a2a solver>] [--budget <nodes>] [--threads <n>]
  mrassign dag  [--workload marginals|skewjoin] [--jobs <n>] [--tenants <n>] [--pool <n>] [--rows <n>]
                [--seed <s>] [--repeat <n>] [--stage-cache <bytes>] [--threads <n>]
                [--shuffle materialized|pipelined] [--finalize static|stealing]
                [--retries <n>] [--faults <spec>] [--memory-budget <bytes>] [--checkpoint-dir <dir>]

distribution specs: const:<w> | uniform:<lo>:<hi> | zipf:<ranks>:<exp>:<max> | bimodal:<small>:<big>:<frac> | boundary:<q>
a2a solvers: auto | one-reducer | grouping | pairing | bigsmall | bigsmall-shared | exact
x2y solvers: auto | one-reducer | grid | grid-optimized | bighandling | exact
--budget applies to --algo exact only: positive branch-and-bound node cap, e.g. --budget 2000000
--faults injects seeded transient faults: comma-separated seed:<u64>, rate:<f64>, map-rate:<f64>, reduce-rate:<f64>,
         kill-map:<i[+i...]>, kill-reduce:<i[+i...]> (kill lists abort the process mid-task to exercise resume)
--memory-budget caps buffered shuffle bytes per consumer group (pipelined engine spills sorted runs to disk above it)
--checkpoint-dir persists each finalized reduce partition; re-running the same job against the same dir
         resumes, re-executing only partitions that never committed
--stage-cache gives the dag job server a fingerprint-keyed intermediate store of that many bytes
         and --repeat resubmits every dag job that many times, so repeat rounds are served from the
         store instead of re-executing";

type Command = fn(&HashMap<String, String>) -> Result<String, String>;

/// Executes a parsed command line; returns the printable result.
fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    // Every flag each command reads, space-separated, then the engine
    // knobs it takes, so a misspelled flag fails by name instead of being
    // ignored.
    let (flags, knobs, cmd): (&str, &[&str], Command) = match command.as_str() {
        "gen" => ("dist m seed out", &[], cmd_gen),
        "a2a" => ("weights q algo budget routes", &[], cmd_a2a),
        "x2y" => ("x y q algo budget routes", &[], cmd_x2y),
        "plan" => (
            "weights workers candidates objective algo budget threads",
            &[],
            cmd_plan,
        ),
        "dag" => (
            "workload jobs tenants pool rows seed repeat stage-cache",
            &ClusterConfig::KNOBS,
            cmd_dag,
        ),
        other => return Err(format!("unknown command `{other}`")),
    };
    let accepted: Vec<&str> = flags
        .split_whitespace()
        .chain(knobs.iter().copied())
        .collect();
    cmd(&parse_flags(rest, &accepted)?)
}

/// Parses `--key value` pairs plus bare `--flag` booleans, rejecting any
/// flag not in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{arg}`"));
        };
        if !accepted.contains(&key) {
            let names: Vec<String> = accepted.iter().map(|name| format!("--{name}")).collect();
            return Err(format!(
                "unknown flag --{key} (accepted: {})",
                names.join(", ")
            ));
        }
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("cannot parse `{value}` as {what}"))
}

/// Parses a distribution spec like `uniform:10:100`.
fn parse_dist(spec: &str) -> Result<SizeDistribution, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["const", w] => Ok(SizeDistribution::Constant(parse_num(w, "a weight")?)),
        ["uniform", lo, hi] => Ok(SizeDistribution::Uniform {
            lo: parse_num(lo, "a weight")?,
            hi: parse_num(hi, "a weight")?,
        }),
        ["zipf", ranks, exp, max] => Ok(SizeDistribution::Zipf {
            ranks: parse_num(ranks, "a rank count")?,
            exponent: parse_num(exp, "an exponent")?,
            max_size: parse_num(max, "a weight")?,
        }),
        ["bimodal", small, big, frac] => Ok(SizeDistribution::Bimodal {
            small: parse_num(small, "a weight")?,
            big: parse_num(big, "a weight")?,
            big_fraction: parse_num(frac, "a fraction")?,
        }),
        ["boundary", q] => Ok(SizeDistribution::Boundary {
            q: parse_num(q, "a capacity")?,
        }),
        _ => Err(format!("unknown distribution spec `{spec}`")),
    }
}

/// Parses a weights file: one integer per line, `#` comments, blanks ok.
fn parse_weights(content: &str) -> Result<Vec<u64>, String> {
    let mut weights = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        weights.push(
            line.parse()
                .map_err(|_| format!("line {}: `{line}` is not a weight", lineno + 1))?,
        );
    }
    Ok(weights)
}

fn load_weights(path: &str) -> Result<Vec<u64>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_weights(&content)
}

fn parse_a2a_algo(name: &str) -> Result<a2a::A2aAlgorithm, String> {
    a2a_solver(name).ok_or_else(|| {
        format!(
            "unknown a2a solver `{name}` (registered: {})",
            a2a_solver_names().join(", ")
        )
    })
}

fn parse_x2y_algo(name: &str) -> Result<x2y::X2yAlgorithm, String> {
    x2y_solver(name).ok_or_else(|| {
        format!(
            "unknown x2y solver `{name}` (registered: {})",
            x2y_solver_names().join(", ")
        )
    })
}

/// Parses the optional `--budget <nodes>` flag and checks it only rides
/// along with `--algo exact` (`algo_name` is the resolved solver name).
fn parse_budget(
    flags: &HashMap<String, String>,
    algo_name: &str,
) -> Result<Option<SearchBudget>, String> {
    let Some(value) = flags.get("budget") else {
        return Ok(None);
    };
    if algo_name != "exact" {
        return Err(format!(
            "--budget only applies to --algo exact (got --algo {algo_name})"
        ));
    }
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("--budget: {e}"))
}

/// Renders the `search:` summary line for exact-solver runs.
fn render_search_stats(stats: &SearchStats, optimal: bool) -> String {
    format!(
        "search:          {} nodes, {} bound prunes, {} dominance prunes, {} memo hits, \
         certified optimal: {optimal}{}",
        stats.nodes,
        stats.pruned_bound,
        stats.pruned_dominance,
        stats.memo_hits,
        if stats.exhausted {
            " (budget exhausted)"
        } else {
            ""
        },
    )
}

fn parse_objective(spec: &str) -> Result<Objective, String> {
    if spec == "makespan" {
        return Ok(Objective::MinimizeMakespan);
    }
    if let Some(slowdown) = spec.strip_prefix("comm:") {
        return Ok(Objective::MinimizeCommunicationWithin {
            slowdown: parse_num(slowdown, "a slowdown factor")?,
        });
    }
    Err(format!("unknown objective `{spec}`"))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<String, String> {
    let dist = parse_dist(required(flags, "dist")?)?;
    let m: usize = parse_num(required(flags, "m")?, "a count")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "a seed"))
        .transpose()?
        .unwrap_or(0);
    let weights = dist.sample_many(m, seed);
    let body: String = weights.iter().map(|w| format!("{w}\n")).collect();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("wrote {m} weights from {} to {path}", dist.label()))
        }
        None => Ok(body.trim_end().to_string()),
    }
}

fn cmd_a2a(flags: &HashMap<String, String>) -> Result<String, String> {
    let weights = load_weights(required(flags, "weights")?)?;
    let q: u64 = parse_num(required(flags, "q")?, "a capacity")?;
    let algo = parse_a2a_algo(flags.get("algo").map(String::as_str).unwrap_or("auto"))?;
    let budget = parse_budget(flags, algo.name())?;
    let inputs = InputSet::from_weights(weights);
    let (schema, search_line) = if let a2a::A2aAlgorithm::Exact(default_budget) = algo {
        let result = exact::a2a_exact(&inputs, q, budget.unwrap_or(default_budget))
            .map_err(|e| e.to_string())?;
        let line = render_search_stats(&result.stats, result.optimal);
        (result.schema, Some(line))
    } else {
        (algo.solve(&inputs, q).map_err(|e| e.to_string())?, None)
    };
    schema.validate_a2a(&inputs, q).map_err(|e| e.to_string())?;
    let stats = SchemaStats::for_a2a(&schema, &inputs, q);

    let mut out = format!(
        "A2A schema: m = {}, q = {q}\n\
         reducers:        {} (lower bound {})\n\
         communication:   {} (lower bound {})\n\
         replication:     {:.3} copies per weight unit\n\
         max load:        {} / {q}",
        inputs.len(),
        stats.reducers,
        bounds::a2a_reducer_lb(&inputs, q),
        stats.communication,
        bounds::a2a_comm_lb(&inputs, q),
        stats.replication_rate(),
        stats.max_load,
    );
    if let Some(line) = search_line {
        out.push('\n');
        out.push_str(&line);
    }
    if flags.contains_key("routes") {
        out.push('\n');
        out.push_str(&render_routes(schema.reducers()));
    }
    Ok(out)
}

fn cmd_x2y(flags: &HashMap<String, String>) -> Result<String, String> {
    let x = load_weights(required(flags, "x")?)?;
    let y = load_weights(required(flags, "y")?)?;
    let q: u64 = parse_num(required(flags, "q")?, "a capacity")?;
    let algo = parse_x2y_algo(flags.get("algo").map(String::as_str).unwrap_or("auto"))?;
    let budget = parse_budget(flags, algo.name())?;
    let inst = X2yInstance::from_weights(x, y);
    let (schema, search_line) = if let x2y::X2yAlgorithm::Exact(default_budget) = algo {
        let result = exact::x2y_exact(&inst, q, budget.unwrap_or(default_budget))
            .map_err(|e| e.to_string())?;
        let line = render_search_stats(&result.stats, result.optimal);
        (result.schema, Some(line))
    } else {
        (algo.solve(&inst, q).map_err(|e| e.to_string())?, None)
    };
    schema.validate(&inst, q).map_err(|e| e.to_string())?;
    let stats = SchemaStats::for_x2y(&schema, &inst, q);

    let mut out = format!(
        "X2Y schema: |X| = {}, |Y| = {}, q = {q}\n\
         reducers:        {} (lower bound {})\n\
         communication:   {} (lower bound {})\n\
         max load:        {} / {q}",
        inst.x.len(),
        inst.y.len(),
        stats.reducers,
        bounds::x2y_reducer_lb(&inst, q),
        stats.communication,
        bounds::x2y_comm_lb(&inst, q),
        stats.max_load,
    );
    if let Some(line) = search_line {
        out.push('\n');
        out.push_str(&line);
    }
    if flags.contains_key("routes") {
        out.push('\n');
        for (rid, r) in schema.reducers().enumerate() {
            out.push_str(&format!(
                "{rid}\tx:{}\ty:{}\n",
                join_ids(r.x.iter().copied()),
                join_ids(r.y.iter().copied())
            ));
        }
    }
    Ok(out)
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<String, String> {
    let weights = load_weights(required(flags, "weights")?)?;
    let workers: usize = flags
        .get("workers")
        .map(|s| parse_num(s, "a worker count"))
        .transpose()?
        .unwrap_or(8);
    let candidates: usize = flags
        .get("candidates")
        .map(|s| parse_num(s, "a candidate count"))
        .transpose()?
        .unwrap_or(10);
    let objective = parse_objective(
        flags
            .get("objective")
            .map(String::as_str)
            .unwrap_or("makespan"),
    )?;
    let mut algo = parse_a2a_algo(flags.get("algo").map(String::as_str).unwrap_or("auto"))?;
    if let Some(budget) = parse_budget(flags, algo.name())? {
        algo = a2a::A2aAlgorithm::Exact(budget);
    }
    let threads: usize = match flags.get("threads") {
        Some(s) => parse_num(s, "a thread count")?,
        None => PlannerConfig::default().threads,
    };
    // The planner reads only the cluster's cost model; validating here
    // turns `--workers 0` into a flag error.
    let cluster = ClusterConfig {
        workers,
        ..ClusterConfig::default()
    };
    cluster.validate().map_err(|e| e.to_string())?;

    let plan = plan_a2a_with(
        algo,
        &weights,
        &PlannerConfig {
            cluster,
            candidates,
            objective,
            threads,
            ..PlannerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    let mut out = String::from("q          reducers  comm            makespan_s  speedup\n");
    for c in &plan.frontier {
        let marker = if c.q == plan.best.q {
            "  <== chosen"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<10} {:<9} {:<15} {:<11.3} {:<7.2}{marker}\n",
            c.q, c.reducers, c.communication, c.makespan, c.speedup
        ));
    }
    out.push_str(&format!(
        "\nrecommended capacity: q = {} ({} reducers, {:.3}s simulated makespan)",
        plan.best.q, plan.best.reducers, plan.best.makespan
    ));
    Ok(out)
}

/// The default cluster with every engine knob given as a flag applied,
/// validated, so a bad combination (e.g. a fault rate outside [0, 1])
/// maps to a flag error rather than failing mid-run.
fn parse_engine_cluster(flags: &HashMap<String, String>) -> Result<ClusterConfig, String> {
    let mut cluster = ClusterConfig::default();
    for knob in ClusterConfig::KNOBS {
        if let Some(value) = flags.get(knob) {
            cluster
                .set_knob(knob, value)
                .map_err(|e| format!("--{knob}: {e}"))?;
        }
    }
    cluster.validate().map_err(|e| e.to_string())?;
    Ok(cluster)
}

/// One job line of the `dag` summary: output size, wall time, queueing
/// behavior, and the per-stage wall breakdown.
fn render_dag_job(i: usize, tenant: &str, outputs: usize, what: &str, m: &DagMetrics) -> String {
    let stages: Vec<String> = m
        .stages
        .iter()
        .map(|s| format!("{} {:.4}s", s.stage, s.wall_seconds))
        .collect();
    let cached = if m.cache_hits > 0 {
        format!(", {} stage(s) from cache", m.cache_hits)
    } else {
        String::new()
    };
    format!(
        "job {i} [{tenant}, prio {:+}]: {outputs} {what}, wall {:.4}s, queue wait {:.4}s, \
         max dispatch gap {}{cached} | {}\n",
        m.priority,
        m.wall_seconds,
        m.queue_wait_seconds(),
        m.max_dispatch_gap(),
        stages.join(", "),
    )
}

fn cmd_dag(flags: &HashMap<String, String>) -> Result<String, String> {
    let workload = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("marginals");
    let jobs: usize = flags
        .get("jobs")
        .map(|s| parse_num(s, "a job count"))
        .transpose()?
        .unwrap_or(4);
    let tenants: usize = flags
        .get("tenants")
        .map(|s| parse_num(s, "a tenant count"))
        .transpose()?
        .unwrap_or(2);
    let pool: usize = flags
        .get("pool")
        .map(|s| parse_num(s, "a pool size"))
        .transpose()?
        .unwrap_or(2);
    let rows: usize = flags
        .get("rows")
        .map(|s| parse_num(s, "a row count"))
        .transpose()?
        .unwrap_or(200);
    let seed: u64 = flags
        .get("seed")
        .map(|s| parse_num(s, "a seed"))
        .transpose()?
        .unwrap_or(42);
    let repeat: usize = flags
        .get("repeat")
        .map(|s| parse_num(s, "a repeat count"))
        .transpose()?
        .unwrap_or(1);
    for (flag, value) in [
        ("jobs", jobs),
        ("tenants", tenants),
        ("pool", pool),
        ("rows", rows),
        ("repeat", repeat),
    ] {
        if value == 0 {
            return Err(format!("--{flag} must be at least 1"));
        }
    }
    // Without `--stage-cache` the server runs store-less and every
    // submission executes.
    let stage_cache: Option<u64> = flags
        .get("stage-cache")
        .map(|s| parse_num(s, "a stage-cache capacity in bytes"))
        .transpose()?;
    let cluster = parse_engine_cluster(flags)?;
    // The hand-chained referee recomputes every partition: under the DAG
    // run's checkpoint dir it would replay what that run persisted and so
    // compare the checkpoint with itself.
    let referee_cluster = ClusterConfig {
        checkpoint_dir: None,
        ..cluster.clone()
    };

    let mut out = format!(
        "DAG: workload = {workload}, {jobs} job(s) × {repeat} round(s) from {tenants} tenant(s) \
         on a {pool}-worker pool{}\n",
        match stage_cache {
            Some(bytes) => format!(", stage cache {bytes} bytes"),
            None => String::new(),
        }
    );
    let server = match stage_cache {
        Some(bytes) => JobServer::with_stage_cache(pool, bytes),
        None => JobServer::new(pool),
    };
    let tenant_of = |i: usize| format!("tenant-{}", i % tenants);
    // Rotate priorities so the fair-share scheduler has something to
    // weigh against data readiness.
    let priority_of = |i: usize| (i % 3) as i32 - 1;

    match workload {
        "marginals" => {
            let cfg = MarginalsConfig {
                first_cluster: cluster.clone(),
                second_cluster: cluster,
                ..MarginalsConfig::default()
            };
            let referee_cfg = MarginalsConfig {
                first_cluster: referee_cluster.clone(),
                second_cluster: referee_cluster,
                ..cfg.clone()
            };
            let inputs: Vec<_> = (0..jobs)
                .map(|i| {
                    generate_cube(
                        &CubeSpec {
                            n_tuples: rows,
                            ..CubeSpec::default()
                        },
                        seed + i as u64,
                    )
                })
                .collect();
            for round in 0..repeat {
                let handles: Vec<_> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, tuples)| {
                        let (graph, sink) = marginals_graph(tuples, &cfg);
                        (
                            i,
                            server.submit(&tenant_of(i), priority_of(i), graph, &sink),
                        )
                    })
                    .collect();
                for (i, handle) in handles {
                    let result = handle.join().map_err(|e| e.to_string())?;
                    let referee = run_marginals_chained(&inputs[i], &referee_cfg)
                        .map_err(|e| e.to_string())?;
                    if result.output != referee.marginals {
                        return Err(format!(
                            "job {i} round {round}: DAG output diverged from the referee"
                        ));
                    }
                    out.push_str(&render_dag_job(
                        round * jobs + i,
                        &tenant_of(i),
                        result.output.len(),
                        "marginals",
                        &result.metrics,
                    ));
                }
            }
        }
        "skewjoin" => {
            let cfg = SkewDagConfig {
                stats_cluster: cluster.clone(),
                join_cluster: cluster,
                ..SkewDagConfig::default()
            };
            let referee_cfg = SkewDagConfig {
                stats_cluster: referee_cluster.clone(),
                join_cluster: referee_cluster,
                ..cfg.clone()
            };
            let inputs: Vec<_> = (0..jobs)
                .map(|i| {
                    generate_relation_pair(
                        &RelationSpec {
                            x_tuples: rows,
                            y_tuples: rows,
                            n_keys: (rows as u32 / 10).max(4),
                            skew: 1.1,
                            payload: SizeDistribution::Uniform { lo: 8, hi: 40 },
                        },
                        seed + i as u64,
                    )
                })
                .collect();
            for round in 0..repeat {
                let handles: Vec<_> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, pair)| {
                        let (graph, sink) = skew_join_graph(pair, &cfg);
                        (
                            i,
                            server.submit(&tenant_of(i), priority_of(i), graph, &sink),
                        )
                    })
                    .collect();
                for (i, handle) in handles {
                    let result = handle.join().map_err(|e| e.to_string())?;
                    let (referee, _) = run_skew_join_chained(&inputs[i], &referee_cfg)
                        .map_err(|e| e.to_string())?;
                    if result.output.output != referee.output {
                        return Err(format!(
                            "job {i} round {round}: DAG output diverged from the referee"
                        ));
                    }
                    out.push_str(&render_dag_job(
                        round * jobs + i,
                        &tenant_of(i),
                        result.output.output.len(),
                        &format!(
                            "joined triples ({} heavy keys, {} reducers)",
                            result.output.heavy_keys, result.output.reducers
                        ),
                        &result.metrics,
                    ));
                }
            }
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected marginals or skewjoin)"
            ));
        }
    }

    let shares = server.fair_share();
    let cache_stats = server.stage_cache_stats();
    server.shutdown();
    out.push_str(
        "\nfair share:\ntenant          submitted  completed  stages  cached  service_s\n",
    );
    for s in &shares {
        out.push_str(&format!(
            "{:<15} {:<10} {:<10} {:<7} {:<7} {:.4}\n",
            s.tenant,
            s.jobs_submitted,
            s.jobs_completed,
            s.stages_dispatched,
            s.stages_from_cache,
            s.service_seconds
        ));
    }
    if let Some(stats) = cache_stats {
        out.push_str(&format!(
            "\nstage cache: hits {}, misses {}, evictions {} \
             ({} entries, {}/{} bytes)\n",
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.entries,
            stats.used_bytes,
            stats.capacity_bytes
        ));
    }
    let total = jobs * repeat;
    out.push_str(&format!(
        "\nverified: all {total} DAG output(s) bit-identical to the hand-chained referee"
    ));
    Ok(out)
}

fn render_routes<'a>(reducers: impl Iterator<Item = A2aReducer<'a>>) -> String {
    let mut out = String::new();
    for (rid, r) in reducers.enumerate() {
        out.push_str(&format!("{rid}\t{}\n", join_ids(r)));
    }
    out
}

fn join_ids(ids: impl IntoIterator<Item = u32>) -> String {
    ids.into_iter()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_flag_lookup() {
        let flags: HashMap<String, String> =
            [("q".to_string(), "5".to_string())].into_iter().collect();
        assert_eq!(required(&flags, "q").unwrap(), "5");
        assert!(required(&flags, "missing").is_err());
    }

    #[test]
    fn parse_flags_handles_values_and_booleans() {
        let args: Vec<String> = ["--q", "200", "--routes", "--algo", "auto"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_flags(&args, &["q", "routes", "algo"]).unwrap();
        assert_eq!(parsed["q"], "200");
        assert_eq!(parsed["routes"], "true");
        assert_eq!(parsed["algo"], "auto");
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_duplicates() {
        let args: Vec<String> = ["stray"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args, &["q"]).is_err());
        let args: Vec<String> = ["--q", "1", "--q", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_flags(&args, &["q"]).is_err());
    }

    #[test]
    fn parse_dist_all_forms() {
        assert_eq!(
            parse_dist("const:7").unwrap(),
            SizeDistribution::Constant(7)
        );
        assert_eq!(
            parse_dist("uniform:1:9").unwrap(),
            SizeDistribution::Uniform { lo: 1, hi: 9 }
        );
        assert!(matches!(
            parse_dist("zipf:10:1.5:100").unwrap(),
            SizeDistribution::Zipf { ranks: 10, .. }
        ));
        assert!(matches!(
            parse_dist("bimodal:1:9:0.25").unwrap(),
            SizeDistribution::Bimodal { big: 9, .. }
        ));
        assert_eq!(
            parse_dist("boundary:40").unwrap(),
            SizeDistribution::Boundary { q: 40 }
        );
        assert!(parse_dist("nonsense").is_err());
        assert!(parse_dist("uniform:1").is_err());
        assert!(parse_dist("boundary:x").is_err());
    }

    #[test]
    fn parse_weights_skips_comments_and_blanks() {
        let parsed = parse_weights("10\n# comment\n\n20 # trailing\n30\n").unwrap();
        assert_eq!(parsed, vec![10, 20, 30]);
        assert!(parse_weights("ten").is_err());
    }

    #[test]
    fn gen_without_out_prints_weights() {
        let out = run(&[
            "gen".into(),
            "--dist".into(),
            "const:5".into(),
            "--m".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(out, "5\n5\n5");
    }

    #[test]
    fn a2a_command_end_to_end() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.txt");
        std::fs::write(&path, "10\n20\n30\n40\n").unwrap();
        let out = run(&[
            "a2a".into(),
            "--weights".into(),
            path.to_str().unwrap().into(),
            "--q".into(),
            "100".into(),
            "--routes".into(),
        ])
        .unwrap();
        assert!(out.contains("reducers:"));
        assert!(out.contains("0\t")); // routes dumped
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn x2y_command_end_to_end() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (xp, yp) = (dir.join("xs.txt"), dir.join("ys.txt"));
        std::fs::write(&xp, "10\n20\n").unwrap();
        std::fs::write(&yp, "5\n15\n25\n").unwrap();
        let out = run(&[
            "x2y".into(),
            "--x".into(),
            xp.to_str().unwrap().into(),
            "--y".into(),
            yp.to_str().unwrap().into(),
            "--q".into(),
            "60".into(),
        ])
        .unwrap();
        assert!(out.contains("X2Y schema"));
        std::fs::remove_file(xp).unwrap();
        std::fs::remove_file(yp).unwrap();
    }

    #[test]
    fn plan_command_recommends_a_capacity() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan-weights.txt");
        let body: String = (0..50).map(|i| format!("{}\n", 30 + i % 20)).collect();
        std::fs::write(&path, body).unwrap();
        let out = run(&[
            "plan".into(),
            "--weights".into(),
            path.to_str().unwrap().into(),
            "--candidates".into(),
            "5".into(),
        ])
        .unwrap();
        assert!(out.contains("recommended capacity"));
        assert!(out.contains("<== chosen"));
        let err = run(&[
            "plan".into(),
            "--weights".into(),
            path.to_str().unwrap().into(),
            "--workers".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert_eq!(err, "cluster configured with zero workers");
        std::fs::remove_file(path).unwrap();
    }

    /// `--threads` never moves the plan. The engine knobs are not `plan`
    /// flags: it scores its candidates without running the engine, so a
    /// knob passed to it fails by name instead of being ignored.
    #[test]
    fn plan_honors_threads_and_shuffle_flags() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan-knobs-weights.txt");
        let body: String = (0..50).map(|i| format!("{}\n", 30 + i % 20)).collect();
        std::fs::write(&path, body).unwrap();
        let base = |extra: &[&str]| {
            let mut args: Vec<String> = [
                "plan",
                "--weights",
                path.to_str().unwrap(),
                "--candidates",
                "5",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            run(&args)
        };
        let reference = base(&[]).unwrap();
        assert_eq!(reference, base(&["--threads", "4"]).unwrap());
        assert_eq!(reference, base(&["--threads", "2"]).unwrap());
        for knob in [["--shuffle", "pipelined"], ["--finalize", "stealing"]] {
            let err = base(&knob).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag {} ", knob[0])),
                "{err}"
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A malformed shuffle mode or memory budget on `dag` is rejected with
    /// the knob named, before any job runs: the removed streaming shuffle,
    /// a zero budget and an unparsable one. A bad value's message is
    /// `ClusterConfig::set_knob`'s, prefixed with the flag.
    #[test]
    fn dag_rejects_malformed_shuffle_and_memory_budget() {
        let dag = |extra: &[&str]| {
            let mut args: Vec<String> = ["dag", "--jobs", "1", "--rows", "20"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            run(&args)
        };
        assert_eq!(
            dag(&["--shuffle", "streaming"]).unwrap_err(),
            "--shuffle: unknown shuffle mode `streaming` (expected materialized|pipelined)"
        );
        let err = dag(&["--memory-budget", "0"]).unwrap_err();
        assert!(err.contains("memory_budget"), "{err}");
        let err = dag(&["--memory-budget", "lots"]).unwrap_err();
        assert!(
            err.starts_with("--memory-budget: cannot parse `lots`"),
            "{err}"
        );
    }

    /// Malformed fault-injection flags on `dag` fail loudly instead of
    /// silently running fault-free: a typoed or out-of-range `--faults`
    /// key and an unparsable `--retries`.
    #[test]
    fn dag_rejects_malformed_fault_flags() {
        let dag = |extra: &[&str]| {
            let mut args: Vec<String> = ["dag", "--jobs", "1", "--rows", "20"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            run(&args)
        };
        let err = dag(&["--faults", "seed:7,rat:0.05"]).unwrap_err();
        assert!(err.contains("rat"), "typoed key must be named: {err}");
        let err = dag(&["--faults", "seed:7,rate:1.5"]).unwrap_err();
        assert!(
            err.contains("[0, 1]"),
            "out-of-range rate must be rejected: {err}"
        );
        let err = dag(&["--retries", "many"]).unwrap_err();
        assert!(err.starts_with("--retries: cannot parse `many`"), "{err}");
    }

    #[test]
    fn solver_names_resolve_through_the_registry() {
        for name in [
            "auto",
            "grouping",
            "pairing",
            "bigsmall",
            "bigsmall-shared",
            "exact",
        ] {
            assert!(parse_a2a_algo(name).is_ok(), "{name}");
        }
        for name in ["auto", "grid", "grid-optimized", "bighandling", "exact"] {
            assert!(parse_x2y_algo(name).is_ok(), "{name}");
        }
        assert!(parse_a2a_algo("grid").is_err());
        assert!(parse_x2y_algo("grouping").is_err());
    }

    #[test]
    fn unknown_algo_errors_name_every_candidate() {
        let err = parse_a2a_algo("bogus").unwrap_err();
        for name in [
            "auto",
            "one-reducer",
            "grouping",
            "pairing",
            "bigsmall",
            "exact",
        ] {
            assert!(err.contains(name), "`{name}` missing from: {err}");
        }
        let err = parse_x2y_algo("bogus").unwrap_err();
        for name in [
            "auto",
            "one-reducer",
            "grid",
            "grid-optimized",
            "bighandling",
            "exact",
        ] {
            assert!(err.contains(name), "`{name}` missing from: {err}");
        }
    }

    #[test]
    fn budget_flag_parses_and_is_guarded() {
        let flags = |pairs: &[(&str, &str)]| -> HashMap<String, String> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        // No --budget: fine with any solver.
        assert_eq!(parse_budget(&flags(&[]), "auto").unwrap(), None);
        // --budget with exact: parsed into a nodes-only budget.
        assert_eq!(
            parse_budget(&flags(&[("budget", "1234")]), "exact").unwrap(),
            Some(SearchBudget::nodes(1234))
        );
        // --budget with a heuristic solver is rejected, naming the rule.
        let err = parse_budget(&flags(&[("budget", "1234")]), "auto").unwrap_err();
        assert!(err.contains("--algo exact"), "{err}");
        // Malformed and useless budgets are rejected with guidance.
        let err = parse_budget(&flags(&[("budget", "lots")]), "exact").unwrap_err();
        assert!(err.contains("node budget"), "{err}");
        assert!(parse_budget(&flags(&[("budget", "0")]), "exact").is_err());
    }

    #[test]
    fn a2a_exact_command_prints_search_stats() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exact-weights.txt");
        std::fs::write(&path, "4\n4\n3\n3\n2\n2\n").unwrap();
        let out = run(&[
            "a2a".into(),
            "--weights".into(),
            path.to_str().unwrap().into(),
            "--q".into(),
            "9".into(),
            "--algo".into(),
            "exact".into(),
            "--budget".into(),
            "1000000".into(),
        ])
        .unwrap();
        assert!(out.contains("search:"), "{out}");
        assert!(out.contains("certified optimal: true"), "{out}");
        std::fs::remove_file(path).unwrap();

        let (xp, yp) = (dir.join("exact-x.txt"), dir.join("exact-y.txt"));
        std::fs::write(&xp, "3\n2\n2\n").unwrap();
        std::fs::write(&yp, "3\n2\n").unwrap();
        let out = run(&[
            "x2y".into(),
            "--x".into(),
            xp.to_str().unwrap().into(),
            "--y".into(),
            yp.to_str().unwrap().into(),
            "--q".into(),
            "7".into(),
            "--algo".into(),
            "exact".into(),
        ])
        .unwrap();
        assert!(out.contains("search:"), "{out}");
        std::fs::remove_file(xp).unwrap();
        std::fs::remove_file(yp).unwrap();
    }

    #[test]
    fn budget_with_heuristic_algo_is_rejected_end_to_end() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("budget-guard-weights.txt");
        std::fs::write(&path, "4\n4\n3\n").unwrap();
        // `plan` sweeps q itself, so only `a2a` takes `--q`.
        for (cmd, q) in [("a2a", &["--q", "9"][..]), ("plan", &[][..])] {
            let args: Vec<String> = [cmd, "--weights", path.to_str().unwrap()]
                .iter()
                .chain(q)
                .chain(&["--budget", "5000"])
                .map(|s| s.to_string())
                .collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains("--algo exact"), "{cmd}: {err}");
        }
        std::fs::remove_file(path).unwrap();
    }

    /// `mrassign dag` runs both workloads end to end on a shared pool,
    /// self-verifies against the hand-chained referee, and reports the
    /// fair-share table for every tenant.
    #[test]
    fn dag_command_end_to_end() {
        let base = ["dag", "--jobs", "3", "--rows", "80", "--pool", "2"];
        for workload in ["marginals", "skewjoin"] {
            let mut args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
            args.extend(["--workload".to_string(), workload.to_string()]);
            let out = run(&args).unwrap();
            assert!(out.contains("job 0 [tenant-0"), "{workload}: {out}");
            assert!(out.contains("job 2 [tenant-0"), "{workload}: {out}");
            assert!(out.contains("tenant-1"), "{workload}: {out}");
            assert!(out.contains("fair share:"), "{workload}: {out}");
            assert!(
                out.contains("verified: all 3 DAG output(s)"),
                "{workload}: {out}"
            );
        }
    }

    /// The engine knobs reach every DAG stage: the job lines (outputs and
    /// stage structure) are identical across engines, and a seeded fault
    /// plan absorbed by retries is invisible in the verified outputs.
    #[test]
    fn dag_command_honors_engine_knobs() {
        let base = |extra: &[&str]| {
            let mut args: Vec<String> = ["dag", "--jobs", "2", "--rows", "60"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            run(&args)
        };
        let reference = base(&[]).unwrap();
        for knobs in [
            &["--shuffle", "pipelined", "--threads", "2"][..],
            &["--shuffle", "pipelined", "--finalize", "stealing"][..],
            &[
                "--shuffle",
                "pipelined",
                "--memory-budget",
                "4096",
                "--retries",
                "8",
                "--faults",
                "seed:23,rate:0.2",
            ][..],
        ] {
            let out = base(knobs).unwrap();
            assert!(
                out.contains("verified: all 2 DAG output(s)"),
                "{knobs:?}: {out}"
            );
            // Same jobs, same outputs: every line up to the timing fields
            // must match; compare the verified counts per job line.
            assert_eq!(reference.lines().count(), out.lines().count(), "{knobs:?}");
        }
        let err = base(&["--workload", "mystery"]).unwrap_err();
        assert!(err.contains("marginals or skewjoin"), "{err}");
        let err = base(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = base(&["--faults", "seed:7,seed:9"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    /// `--repeat` with `--stage-cache` serves repeat rounds from the
    /// intermediate store: the summary reports the hit counter, the
    /// cached job lines say so, and every round still verifies
    /// bit-identical against the hand-chained referee.
    #[test]
    fn dag_command_repeat_hits_the_stage_cache() {
        for workload in ["marginals", "skewjoin"] {
            let args: Vec<String> = [
                "dag",
                "--jobs",
                "2",
                "--rows",
                "60",
                "--repeat",
                "2",
                "--stage-cache",
                "4194304",
                "--workload",
                workload,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let out = run(&args).unwrap();
            assert!(
                out.contains("verified: all 4 DAG output(s)"),
                "{workload}: {out}"
            );
            assert!(out.contains("stage cache: hits 2"), "{workload}: {out}");
            assert!(out.contains("from cache"), "{workload}: {out}");
        }
        // Without a store, repeats re-execute and no cache line prints.
        let args: Vec<String> = ["dag", "--jobs", "1", "--rows", "60", "--repeat", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args).unwrap();
        assert!(!out.contains("stage cache:"), "{out}");
        assert!(out.contains("verified: all 2 DAG output(s)"), "{out}");
    }

    #[test]
    fn unknown_command_and_objectives_error() {
        assert!(run(&["bogus".into()]).is_err());
        assert!(parse_objective("makespan").is_ok());
        assert!(matches!(
            parse_objective("comm:2.0").unwrap(),
            Objective::MinimizeCommunicationWithin { .. }
        ));
        assert!(parse_objective("speed").is_err());
    }

    /// A misspelled flag fails the command, naming the flag and the flags
    /// the command accepts, instead of running with its default.
    #[test]
    fn misspelled_flags_are_rejected_by_name() {
        let args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        for (argv, listed) in [
            (
                &["plan", "--weights", "w.txt", "--thread", "4"][..],
                "--threads",
            ),
            (
                &["plan", "--weights", "w.txt", "--worker", "8"],
                "--workers",
            ),
            (
                &["plan", "--weights", "w.txt", "--candidate", "5"],
                "--candidates",
            ),
            (&["dag", "--shufle", "pipelined"], "--shuffle"),
            (&["dag", "--jobs", "2", "--retry", "3"], "--retries"),
        ] {
            let typo = argv[argv.len() - 2];
            let err = run(&args(argv)).unwrap_err();
            assert!(err.starts_with(&format!("unknown flag {typo} ")), "{err}");
            assert!(
                err.contains(&format!("{listed},")) || err.ends_with(&format!("{listed})")),
                "the accepted flags are listed: {err}"
            );
        }
        // `plan` sweeps q itself, and neither `plan` nor `a2a` runs the
        // engine.
        let err = run(&args(&["plan", "--weights", "w.txt", "--q", "9"])).unwrap_err();
        assert!(err.starts_with("unknown flag --q "), "{err}");
        for command in [&["plan", "--weights", "w.txt"][..], &["a2a", "--q", "9"]] {
            let argv = [command, &["--shuffle", "pipelined"]].concat();
            let err = run(&args(&argv)).unwrap_err();
            assert!(err.starts_with("unknown flag --shuffle "), "{err}");
        }
    }

    /// Every flag the usage text documents for a command is accepted by
    /// that command. Each flag is passed twice, so the command fails on
    /// the duplicate instead of running.
    #[test]
    fn every_documented_flag_parses() {
        let mut command = "";
        let mut checked = 0;
        for line in USAGE.lines().skip(1).take_while(|line| !line.is_empty()) {
            if let Some(rest) = line.trim_start().strip_prefix("mrassign ") {
                command = rest.split_whitespace().next().unwrap();
            }
            for tail in line.split("--").skip(1) {
                let flag: String = tail
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                let flag = format!("--{flag}");
                let argv = [command, &flag, "1", &flag, "1"].map(String::from);
                let err = run(&argv).unwrap_err();
                assert_eq!(err, format!("flag {flag} given twice"), "{command}");
                checked += 1;
            }
        }
        assert!(checked > 30, "the usage text lists every command's flags");
    }

    #[test]
    fn infeasible_instances_surface_as_errors() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("infeasible.txt");
        std::fs::write(&path, "90\n90\n").unwrap();
        let err = run(&[
            "a2a".into(),
            "--weights".into(),
            path.to_str().unwrap().into(),
            "--q".into(),
            "100".into(),
        ])
        .unwrap_err();
        assert!(err.contains("no mapping schema exists"));
        std::fs::remove_file(path).unwrap();
    }

    /// Weights whose largest pair sums past `u64::MAX` are infeasible at
    /// every capacity: `plan` and `x2y` name the pair instead of planning
    /// a wrapped-around capacity, dividing by zero, or overflowing the
    /// stack.
    #[test]
    fn overflowing_weights_are_named_errors() {
        let dir = std::env::temp_dir().join("mrassign-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let saturated = format!("weigh {} together", u64::MAX);
        for (name, body) in [
            ("overflow-max.txt", format!("{}\n5\n", u64::MAX)),
            ("overflow-half.txt", format!("{0}\n{0}\n", 1u64 << 63)),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let err = run(&[
                "plan".into(),
                "--weights".into(),
                path.to_str().unwrap().into(),
            ])
            .unwrap_err();
            assert!(err.contains(&saturated), "{name}: {err}");
            std::fs::remove_file(path).unwrap();
        }
        let (xp, yp) = (dir.join("overflow-x.txt"), dir.join("overflow-y.txt"));
        std::fs::write(&xp, format!("{}\n", u64::MAX)).unwrap();
        std::fs::write(&yp, "5\n").unwrap();
        let err = run(&[
            "x2y".into(),
            "--x".into(),
            xp.to_str().unwrap().into(),
            "--y".into(),
            yp.to_str().unwrap().into(),
            "--q".into(),
            "4".into(),
        ])
        .unwrap_err();
        assert!(err.contains(&saturated), "{err}");
        std::fs::remove_file(xp).unwrap();
        std::fs::remove_file(yp).unwrap();
    }
}
