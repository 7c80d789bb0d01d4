//! Repository automation, invoked as `cargo xtask <command>` (the alias
//! lives in `.cargo/config.toml`).
//!
//! The one command is the paired benchmark gate:
//!
//! ```text
//! cargo xtask ab --base <rev> [--workload <name>] [--seconds <s>]
//! ```
//!
//! It checks `<rev>` out, detached, in the `git worktree` `target/ab/base`,
//! builds `perfbench` (the benchmark `BENCHMARK.json` declares) offline
//! there and in the working tree, and runs the two builds in [`PAIRS`]
//! pairs on each workload of `BENCHMARK.json`, or only on the one named,
//! for `--seconds` per run (default: its `run_seconds`). Which side runs
//! first alternates from pair to pair. Both runs of a pair take the same
//! seed, and each pair a different one. The last line a run prints is its
//! JSON result.
//!
//! For each end-to-end metric the report shows both medians, their ratio,
//! the base's interquartile range (IQR) as a share of its median, and the
//! change's wins, losses and ties. The command exits non-zero when
//!
//! * a run exits non-zero, a change run prints `correct: false`, or the
//!   change fails a larger share of ops than the base; or
//! * a metric is `worse`: its change median is worse than the base median
//!   by more than the metric's `bound` (above `base·(1 + bound)` when
//!   lower is better, below `base·(1 − bound)` when higher is better) and
//!   the change loses at least [`LOSSES_TO_FAIL`] pairs.
//!
//! A metric whose base IQR exceeds its bound is `unresolved`: the runs
//! spread too widely to judge a median against the bound, so it is `worse`
//! only if every change run is worse than every base run.
//!
//! The worktree, and with it the base's `perfbench` build, is reused by
//! the next invocation; `git worktree remove --force target/ab/base`
//! deletes it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Pairs of runs per workload.
const PAIRS: usize = 10;
/// Pairs a change must lose, with its median worse than the bound, for a
/// metric to fail.
const LOSSES_TO_FAIL: usize = 8;
const USAGE: &str = "usage: cargo xtask ab --base <rev> [--workload <name>] [--seconds <s>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.split_first() {
        Some((command, rest)) if command == "ab" => ab(&AbArgs::parse(rest)?),
        Some((other, _)) => Err(format!("unknown command `{other}` (expected ab); {USAGE}")),
        None => Err(USAGE.into()),
    }
}

struct AbArgs {
    base: String,
    workload: Option<String>,
    seconds: Option<f64>,
}

impl AbArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut base, mut workload, mut seconds) = (None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let slot = match flag.as_str() {
                "--base" => &mut base,
                "--workload" => &mut workload,
                "--seconds" => &mut seconds,
                other => return Err(format!("unknown flag `{other}`; {USAGE}")),
            };
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if slot.replace(value.clone()).is_some() {
                return Err(format!("flag {flag} given twice"));
            }
        }
        let seconds = seconds
            .map(|s| match s.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
                _ => Err(format!("--seconds takes a positive number, not `{s}`")),
            })
            .transpose()?;
        Ok(AbArgs {
            base: base.ok_or_else(|| format!("--base <rev> is required; {USAGE}"))?,
            workload,
            seconds,
        })
    }
}

/// What the gate reads of `BENCHMARK.json`.
struct Benchmark {
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Benchmark {
    fn parse(raw: &str) -> Result<Self, String> {
        let json = Json::parse(raw)?;
        let workloads = json.get("workloads")?.arr()?.iter();
        let metrics = json.get("end_to_end")?.arr()?.iter();
        Ok(Benchmark {
            run_seconds: json.get("run_seconds")?.num()?,
            workloads: workloads
                .map(|w| Ok(w.get("name")?.str()?.to_string()))
                .collect::<Result<_, String>>()?,
            metrics: metrics
                .map(|m| {
                    Ok(Metric {
                        name: m.get("name")?.str()?.to_string(),
                        higher_is_better: match m.get("better")?.str()? {
                            "higher" => true,
                            "lower" => false,
                            other => {
                                return Err(format!("`better` is `{other}`, not higher|lower"))
                            }
                        },
                        bound: m.get("bound")?.num()?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// One end-to-end metric and its bound, a fraction of the base median.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// How one metric's change runs compare with its base runs.
#[derive(Debug)]
struct Comparison {
    base_median: f64,
    change_median: f64,
    /// The base's IQR over its median.
    base_spread: f64,
    wins: usize,
    losses: usize,
    ties: usize,
    verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    /// The base spreads wider than the bound, and the runs overlap.
    Unresolved,
    /// Fails the gate.
    Worse,
}

impl Metric {
    /// Compares paired runs: `base[i]` and `change[i]` took the same seed.
    fn compare(&self, base: &[f64], change: &[f64]) -> Comparison {
        // `a` is worse than `b`. Values a rounding error apart tie, as a
        // per-op mean of the same bytes over different op counts does.
        let worse = |a: f64, b: f64| {
            let by = if self.higher_is_better { b - a } else { a - b };
            by > 1e-9 * b.abs()
        };
        let pairs = || base.iter().zip(change);
        let losses = pairs().filter(|&(&b, &c)| worse(c, b)).count();
        let wins = pairs().filter(|&(&b, &c)| worse(b, c)).count();
        let (base_median, change_median) = (quantile(base, 0.5), quantile(change, 0.5));
        let iqr = quantile(base, 0.75) - quantile(base, 0.25);
        let base_spread = if iqr == 0.0 {
            0.0
        } else {
            iqr / base_median.abs()
        };
        let limit = if self.higher_is_better {
            base_median * (1.0 - self.bound)
        } else {
            base_median * (1.0 + self.bound)
        };
        let verdict = if base_spread > self.bound {
            if change.iter().all(|&c| base.iter().all(|&b| worse(c, b))) {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            }
        } else if worse(change_median, limit) && losses >= LOSSES_TO_FAIL {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        Comparison {
            base_median,
            change_median,
            base_spread,
            wins,
            losses,
            ties: base.len() - wins - losses,
            verdict,
        }
    }
}

/// The `p`-quantile of `values`, interpolating between order statistics.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
    lo + (hi - lo) * at.fract()
}

/// One `perfbench` run's result line, its metrics in `BENCHMARK.json`'s
/// order.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    values: Vec<f64>,
}

impl RunResult {
    fn parse(line: &str, metrics: &[Metric]) -> Result<Self, String> {
        let json = Json::parse(line)?;
        Ok(RunResult {
            correct: json.get("correct")?.bool()?,
            attempted: json.get("attempted")?.num()?,
            failed: json.get("failed")?.num()?,
            values: metrics
                .iter()
                .map(|m| json.get("metrics")?.get(&m.name)?.get("value")?.num())
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One side of the comparison: a checkout and its `perfbench` binary.
struct Side {
    name: &'static str,
    dir: PathBuf,
    bin: PathBuf,
}

impl Side {
    /// Builds `perfbench` in the checkout at `dir`, offline.
    fn build(name: &'static str, dir: PathBuf) -> Result<Self, String> {
        println!("ab: building perfbench in {}", dir.display());
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["build", "--quiet", "--release", "--offline"])
            .args(["--manifest-path", "perfbench/Cargo.toml"])
            .current_dir(&dir)
            // Each checkout's binary must land in its own `perfbench/target`.
            .env_remove("CARGO_TARGET_DIR")
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the {name}'s perfbench failed ({status})"));
        }
        let bin = dir.join("perfbench/target/release/perfbench");
        Ok(Side { name, dir, bin })
    }

    /// Runs one workload from the checkout's root, where `perfbench` puts
    /// its scratch directory, and parses its last line.
    fn run(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        metrics: &[Metric],
    ) -> Result<RunResult, String> {
        let out = Command::new(&self.bin)
            .args(["--workload", workload, "--trace", "0"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .current_dir(&self.dir)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = match stdout.lines().rev().find(|l| !l.trim().is_empty()) {
            Some(line) if out.status.success() => RunResult::parse(line, metrics),
            _ => Err(format!(
                "exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )),
        };
        result.map_err(|e| format!("{workload}, {} run, seed {seed}: {e}", self.name))
    }
}

fn ab(args: &AbArgs) -> Result<(), String> {
    let started = Instant::now();
    let root = workspace_root();
    let raw = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let bench = Benchmark::parse(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = match &args.workload {
        Some(name) if bench.workloads.contains(name) => vec![name.clone()],
        Some(name) => {
            return Err(format!(
                "unknown workload `{name}` (BENCHMARK.json has {})",
                bench.workloads.join(", ")
            ))
        }
        None => bench.workloads.clone(),
    };
    let seconds = args.seconds.unwrap_or(bench.run_seconds);

    let (base_dir, sha) = checkout(&root, &args.base)?;
    let sides = [Side::build("base", base_dir)?, Side::build("change", root)?];
    println!(
        "ab: base {} ({sha:.10}) vs the working tree, {PAIRS} pairs of {seconds} s runs per workload",
        args.base
    );
    let mut failures = Vec::new();
    for workload in &workloads {
        let mut runs: [Vec<RunResult>; 2] = Default::default();
        for pair in 0..PAIRS {
            let seed = pair as u64 + 1;
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            println!(
                "  {workload} pair {}/{PAIRS}, seed {seed}, {} first",
                pair + 1,
                sides[order[0]].name
            );
            for side in order {
                let result = sides[side].run(workload, seed, seconds, &bench.metrics)?;
                runs[side].push(result);
            }
        }
        failures.extend(report(workload, &bench.metrics, &runs[0], &runs[1]));
    }
    println!("ab: done in {:.0} s", started.elapsed().as_secs_f64());
    if failures.is_empty() {
        println!("ab: no run failed and no metric is worse than its bound");
        Ok(())
    } else {
        Err(format!(
            "the change fails the gate: {}",
            failures.join("; ")
        ))
    }
}

/// Prints one workload's table and returns what in it fails the gate.
fn report(
    workload: &str,
    metrics: &[Metric],
    base: &[RunResult],
    change: &[RunResult],
) -> Vec<String> {
    let mut failures: Vec<String> = (1..)
        .zip(change)
        .filter(|(_, run)| !run.correct)
        .map(|(seed, _)| format!("{workload}: the change's seed-{seed} run printed correct: false"))
        .collect();
    let failed_share = |runs: &[RunResult]| {
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
    };
    let (base_share, change_share) = (failed_share(base), failed_share(change));
    if change_share > base_share {
        failures.push(format!(
            "{workload}: the change fails {:.3}% of ops, the base {:.3}%",
            change_share * 100.0,
            base_share * 100.0
        ));
    }

    println!(
        "{workload:<9} {:<18} {:>12} {:>12} {:>7} {:>9} {:>8}  verdict",
        "metric", "base median", "change", "ratio", "base IQR", "W/L/T"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let values = |runs: &[RunResult]| runs.iter().map(|r| r.values[i]).collect::<Vec<_>>();
        let c = metric.compare(&values(base), &values(change));
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved (base IQR exceeds bound)",
            Verdict::Worse => "worse",
        };
        println!(
            "{:<9} {:<18} {:>12} {:>12} {:>7.3} {:>8.1}% {:>8}  {verdict}",
            "",
            metric.name,
            significant(c.base_median),
            significant(c.change_median),
            c.change_median / c.base_median,
            c.base_spread * 100.0,
            format!("{}/{}/{}", c.wins, c.losses, c.ties),
        );
        if c.verdict == Verdict::Worse {
            failures.push(format!("{workload} {} is worse", metric.name));
        }
    }
    failures
}

/// `v` with four significant digits.
fn significant(v: f64) -> String {
    let digits = if v == 0.0 || !v.is_finite() {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).clamp(0, 8) as usize
    };
    format!("{v:.digits$}")
}

/// Checks `rev` out, detached, in the worktree `target/ab/base`. Returns
/// the worktree and the commit's hash.
fn checkout(root: &Path, rev: &str) -> Result<(PathBuf, String), String> {
    let sha = git(
        root,
        &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
    )?;
    let dir = root.join("target/ab/base");
    let reused = dir.join(".git").is_file()
        && git(&dir, &["checkout", "--quiet", "--force", "--detach", &sha]).is_ok();
    if !reused {
        // Missing, or stale: say, restored from a cache into a fresh clone
        // that never registered it.
        let path = dir.to_str().ok_or("the workspace path is not UTF-8")?;
        let _ = std::fs::remove_dir_all(&dir);
        git(root, &["worktree", "prune"])?;
        git(
            root,
            &["worktree", "add", "--quiet", "--detach", path, &sha],
        )?;
    }
    Ok((dir, sha))
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "`git {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The workspace root (one level above this crate's manifest).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

/// A JSON value: enough of JSON for `BENCHMARK.json` and `perfbench`'s
/// result line. A number, `true`, `false` or `null` stays the bare token it
/// was, so a number is anything `f64` parses, `perfbench`'s `NaN` and
/// `inf` included.
#[derive(Debug)]
enum Json {
    Token(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(raw: &str) -> Result<Json, String> {
        let mut parser = Parser {
            s: raw.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.at < raw.len() {
            return Err(parser.expected("the end of the text"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Result<&Json, String> {
        let Json::Obj(fields) = self else {
            return Err(format!("expected an object holding `{key}`"));
        };
        let field = fields.iter().find(|(k, _)| k == key);
        field
            .map(|(_, v)| v)
            .ok_or_else(|| format!("no field `{key}`"))
    }

    fn num(&self) -> Result<f64, String> {
        match self {
            Json::Token(t) => t
                .parse()
                .map_err(|_| format!("expected a number, found `{t}`")),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    fn bool(&self) -> Result<bool, String> {
        match self {
            Json::Token(t) if t == "true" || t == "false" => Ok(t == "true"),
            other => Err(format!("expected true or false, found {other:?}")),
        }
    }

    fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skips white space, then `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let found = self.s.get(self.at) == Some(&c);
        self.at += usize::from(found);
        found
    }

    fn expected(&self, what: &str) -> String {
        format!("expected {what} at byte {}", self.at)
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat(b'{') {
            let mut fields = Vec::new();
            while !self.eat(b'}') {
                if !fields.is_empty() && !self.eat(b',') {
                    return Err(self.expected("`,` or `}`"));
                }
                let key = self.string()?;
                if !self.eat(b':') {
                    return Err(self.expected("`:`"));
                }
                fields.push((key, self.value()?));
            }
            return Ok(Json::Obj(fields));
        }
        if self.eat(b'[') {
            let mut items = Vec::new();
            while !self.eat(b']') {
                if !items.is_empty() && !self.eat(b',') {
                    return Err(self.expected("`,` or `]`"));
                }
                items.push(self.value()?);
            }
            return Ok(Json::Arr(items));
        }
        if self.s.get(self.at) == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || b"+-.".contains(&c))
        {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.expected("a value"));
        }
        let token = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII");
        Ok(Json::Token(token.to_string()))
    }

    /// A string with the escapes `\"`, `\\` and `\/`.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.expected("a string"));
        }
        let mut bytes = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return Err(self.expected("a closing `\"`")),
                Some(b'"') => break,
                Some(b'\\') => match self.s.get(self.at + 1) {
                    Some(&c) if b"\"\\/".contains(&c) => {
                        bytes.push(c);
                        self.at += 1;
                    }
                    _ => return Err(self.expected("one of the escapes \\\" \\\\ \\/")),
                },
                Some(&c) => bytes.push(c),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(bytes).map_err(|_| self.expected("UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn flag_validation() {
        assert!(run(&[]).is_err());
        let err = run(&strings(&["bench-check"])).unwrap_err();
        assert!(err.contains("unknown command `bench-check`"), "{err}");
        let parse = |args: &[&str]| AbArgs::parse(&strings(args)).err().unwrap_or_default();
        assert!(parse(&["--workload", "plan"]).contains("--base"));
        assert!(parse(&["--base", "HEAD", "--bench", "dag"]).contains("unknown flag `--bench`"));
        assert!(parse(&["--base"]).contains("--base needs a value"));
        assert!(parse(&["--base", "a", "--base", "b"]).contains("--base given twice"));
        for bad in ["0", "-1", "NaN", "inf", "soon"] {
            let err = parse(&["--base", "HEAD", "--seconds", bad]);
            assert!(err.contains("positive number"), "{bad}: {err}");
        }
        let ok = AbArgs::parse(&strings(&[
            "--base",
            "main",
            "--seconds",
            "2",
            "--workload",
            "dag",
        ]))
        .unwrap();
        assert_eq!(
            (ok.base.as_str(), ok.workload.as_deref(), ok.seconds),
            ("main", Some("dag"), Some(2.0))
        );
    }

    /// The repository's own `BENCHMARK.json` reads as the gate expects.
    #[test]
    fn reads_the_committed_benchmark() {
        let raw = std::fs::read_to_string(workspace_root().join("BENCHMARK.json")).unwrap();
        let bench = Benchmark::parse(&raw).unwrap();
        assert_eq!(bench.workloads, ["plan", "shuffle", "dag", "resume"]);
        assert_eq!(bench.run_seconds, 25.0);
        let ops = &bench.metrics[0];
        assert_eq!(
            (ops.name.as_str(), ops.higher_is_better, ops.bound),
            ("ops_per_s", true, 0.25)
        );
        assert!(bench.metrics[1..]
            .iter()
            .all(|m| !m.higher_is_better && m.bound > 0.0));
    }

    #[test]
    fn rejects_malformed_files() {
        for (raw, why) in [
            ("", "a value"),
            ("{\"run_seconds\": 25", "`,` or `}`"),
            ("{\"run_seconds\": 25} x", "the end of the text"),
            ("[1 2]", "`,` or `]`"),
            ("{\"a\" 1}", "`:`"),
            ("\"\\u0041\"", "escapes"),
            ("{\"workloads\": [], \"end_to_end\": []}", "no field `run_seconds`"),
            ("{\"run_seconds\": \"25\", \"workloads\": [], \"end_to_end\": []}", "expected a number"),
            (
                "{\"run_seconds\": 1, \"workloads\": [], \"end_to_end\": [{\"name\": \"x\", \"better\": \"more\", \"bound\": 0.1}]}",
                "`better` is `more`",
            ),
        ] {
            let err = Benchmark::parse(raw).err().unwrap_or_default();
            assert!(err.contains(why), "{raw}: {err}");
        }
    }

    #[test]
    fn parses_a_perfbench_result_line() {
        let metrics = [("ops_per_s", true), ("op_p50_ms", false)].map(|(name, higher)| Metric {
            name: name.into(),
            ..metric(higher, 0.25)
        });
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
                    {\"ops_per_s\": {\"value\": 28.5, \"unit\": \"1/s\"}, \
                    \"op_p50_ms\": {\"value\": NaN, \"unit\": \"ms\"}}}";
        let run = RunResult::parse(line, &metrics).unwrap();
        assert!(run.correct);
        assert_eq!(
            (run.attempted, run.failed, run.values[0]),
            (12.0, 0.0, 28.5)
        );
        assert!(run.values[1].is_nan());
        let missing = RunResult::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            &metrics,
        );
        assert_eq!(missing.err().unwrap(), "no field `ops_per_s`");
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_count() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0,
        ];
        let lower = metric(false, 0.25);
        let higher = metric(true, 0.25);

        // The same runs, or runs a rounding error apart: all ties.
        let same = lower.compare(&base, &base);
        assert_eq!(
            (same.wins, same.losses, same.ties, same.verdict),
            (0, 0, 10, Verdict::Ok)
        );
        let next: Vec<f64> = base
            .iter()
            .map(|v| f64::from_bits(v.to_bits() + 1))
            .collect();
        assert_eq!(higher.compare(&base, &next).ties, 10);
        assert_eq!(lower.compare(&next, &base).ties, 10);

        // 30% slower on every pair: worse in either direction.
        let slower: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(lower.compare(&base, &slower).verdict, Verdict::Worse);
        let fewer: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        let c = higher.compare(&base, &fewer);
        assert_eq!((c.losses, c.verdict), (10, Verdict::Worse));

        // Within the bound, or better: ok.
        let within: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(lower.compare(&base, &within).verdict, Verdict::Ok);
        assert_eq!(higher.compare(&base, &slower).verdict, Verdict::Ok);

        // Median beyond the bound but only 7 pairs lost: ok.
        let mut seven = slower.clone();
        for i in [0, 1, 2] {
            seven[i] = base[i] * 0.9;
        }
        let c = lower.compare(&base, &seven);
        assert_eq!((c.wins, c.losses, c.verdict), (3, 7, Verdict::Ok));
        seven[2] = base[2] * 1.3;
        assert_eq!(lower.compare(&base, &seven).verdict, Verdict::Worse);
    }

    #[test]
    fn a_spread_beyond_the_bound_fails_only_on_separation() {
        let base = [10.0, 20.0, 30.0, 40.0, 10.0, 20.0, 30.0, 40.0, 10.0, 40.0];
        let lower = metric(false, 0.25);
        let c = lower.compare(&base, &base);
        assert!(c.base_spread > 0.25, "{c:?}");
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Twice the median, but overlapping the base: still unresolved.
        let doubled: Vec<f64> = base.iter().map(|v| v * 2.0).collect();
        assert_eq!(lower.compare(&base, &doubled).verdict, Verdict::Unresolved);
        // Every change run above every base run: worse.
        let apart: Vec<f64> = base.iter().map(|v| v + 40.0).collect();
        assert_eq!(lower.compare(&base, &apart).verdict, Verdict::Worse);
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(significant(28.4412), "28.44");
        assert_eq!(significant(0.0123456), "0.01235");
        assert_eq!(significant(456.0), "456.0");
        assert_eq!(significant(12345.6), "12346");
        assert_eq!(significant(0.0), "0");
    }
}
