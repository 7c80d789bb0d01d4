//! Shared machinery: the closed-loop driver, the in-memory span recorder,
//! percentile helpers, host probes and the result printer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Input size of a run: `Full` is what the benchmark measures, `Tiny` is
/// the smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What every workload's set-up receives.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    /// Private scratch directory for spill runs and checkpoint sessions;
    /// created before set-up and removed when the run ends.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A sub-seed for input `stream`, so each generated input of a
    /// workload is independent of the others yet fixed by `--seed`.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        splitmix(self.seed ^ splitmix(stream.wrapping_add(0x5eed)))
    }

    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What one completed op reports back to the loop.
pub struct OpResult {
    /// Time of the system calls the op is made of (reference checks and
    /// clean-up are excluded).
    pub latency: Duration,
    /// Σ `JobMetrics::bytes_shuffled` over every engine job the op ran.
    pub shuffled_bytes: u64,
}

/// One benchmark workload: set up once, then driven op by op.
pub trait Workload {
    /// Runs one op. `Err` (or a panic) counts the op as failed; the
    /// recorder is a no-op unless the run is traced.
    fn op(&mut self, rec: &mut Recorder) -> Result<OpResult, String>;

    /// Run-level invariants checked after the loop (e.g. "LRU eviction
    /// happened"); an `Err` makes the run incorrect.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics derived from a traced phase's recorder.
    fn layers(&self, rec: &Recorder, out: &mut Metrics);

    /// `(comm_over_lb, reducers_over_lb)` of the chosen schemas, for the
    /// workloads that plan one.
    fn schema_quality(&self) -> Option<(f64, f64)> {
        None
    }
}

/// A timed span or a sampled value, tagged with the op it belongs to.
struct Sample {
    op: u64,
    layer: &'static str,
    name: String,
    /// Milliseconds for spans; the raw value for sampled values.
    value: f64,
    is_span: bool,
}

/// In-memory trace of a run: spans (`layer/name` → duration) and sampled
/// values, appended by the workloads and written out once the run ends.
/// Disabled recorders drop everything, so untraced ops pay one branch.
pub struct Recorder {
    enabled: bool,
    op: u64,
    samples: Vec<Sample>,
    /// Time spent in probes: extra calls a traced op makes only to
    /// measure a layer (solver re-calls, baseline runs, codec timing).
    probe_time: Duration,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            op: 0,
            samples: Vec::new(),
            probe_time: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn next_op(&mut self) {
        self.op += 1;
    }

    /// Records a span of `dur` under `layer/name`.
    pub fn span(&mut self, layer: &'static str, name: &str, dur: Duration) {
        if self.enabled {
            self.samples.push(Sample {
                op: self.op,
                layer,
                name: name.to_string(),
                value: dur.as_secs_f64() * 1e3,
                is_span: true,
            });
        }
    }

    /// Runs the probe `f`, recording its time as a span of `layer/name`.
    /// Probe time is kept out of the traced loop's throughput, so the
    /// tracing overhead compares like with like.
    pub fn probe<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        self.probe_time += took;
        self.span(layer, name, took);
        out
    }

    /// Records a sampled value (a counter or ratio a layer returned).
    pub fn value(&mut self, layer: &'static str, name: &str, value: f64) {
        if self.enabled {
            self.samples.push(Sample {
                op: self.op,
                layer,
                name: name.to_string(),
                value,
                is_span: false,
            });
        }
    }

    /// Every recorded span duration (ms) or value under `name`.
    pub fn all(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .collect()
    }

    pub fn median(&self, name: &str) -> f64 {
        median(&self.all(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.all(name).iter().sum()
    }

    pub fn max(&self, name: &str) -> f64 {
        self.all(name).into_iter().fold(0.0, f64::max)
    }

    /// Σ over the run of `name`, divided by the traced op count.
    pub fn per_op(&self, name: &str) -> f64 {
        self.sum(name) / self.op.max(1) as f64
    }

    /// Σ of every span recorded under `layer`, in ms.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.is_span && s.layer == layer)
            .map(|s| s.value)
            .sum()
    }

    /// Writes the trace as tab-separated `op layer name kind value` rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("op\tlayer\tname\tkind\tvalue\n");
        for s in &self.samples {
            let kind = if s.is_span { "span_ms" } else { "value" };
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{kind}\t{}",
                s.op, s.layer, s.name, s.value
            );
        }
        std::fs::write(path, text)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ratio with a named base; 0 when the base is 0 (the layer did not run).
pub fn ratio(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        value / base
    } else {
        0.0
    }
}

/// Set while an op runs a job that is *meant* to die (the `kill-reduce`
/// run of `resume`), so the panic hook stays quiet for it.
pub static EXPECTED_PANIC: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that silences expected kill panics and reports
/// every other panic as usual.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !EXPECTED_PANIC.load(Ordering::Relaxed) {
            default(info);
        }
    }));
}

/// What a closed loop measured.
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub latencies_ms: Vec<f64>,
    pub shuffled_bytes: u64,
    pub first_error: Option<String>,
}

impl LoopStats {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// Drives `workload` op by op from one client thread until `seconds` have
/// passed and at least `min_ops` ops ran (capped at three times `seconds`
/// so a slow host still ends in time). The reported wall excludes probe
/// time.
pub fn closed_loop(
    workload: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    min_ops: u64,
) -> LoopStats {
    let mut stats = LoopStats {
        attempted: 0,
        failed: 0,
        wall: Duration::ZERO,
        latencies_ms: Vec::new(),
        shuffled_bytes: 0,
        first_error: None,
    };
    let probes_before = rec.probe_time;
    let started = Instant::now();
    let hard_stop = Duration::from_secs_f64(seconds * 3.0);
    loop {
        let elapsed = started.elapsed();
        if elapsed >= hard_stop || (elapsed.as_secs_f64() >= seconds && stats.attempted >= min_ops)
        {
            break;
        }
        rec.next_op();
        stats.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.op(rec)))
            .unwrap_or_else(|panic| Err(format!("op panicked: {}", panic_text(panic.as_ref()))));
        match outcome {
            Ok(op) => {
                let ms = op.latency.as_secs_f64() * 1e3;
                stats.latencies_ms.push(ms);
                stats.shuffled_bytes += op.shuffled_bytes;
                rec.span("op", "op", op.latency);
            }
            Err(e) => {
                stats.failed += 1;
                stats.first_error.get_or_insert(e);
            }
        }
    }
    stats.wall = started.elapsed() - (rec.probe_time - probes_before);
    stats
}

/// Best-effort text of a panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Named metrics with units, printed in insertion-independent (sorted)
/// order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        // A non-finite value cannot be written as JSON; a layer that did
        // not run reports 0 instead.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Human-readable table, one `name value unit` line per metric.
    pub fn print_table(&self, heading: &str) {
        println!("{heading}");
        for (name, (value, unit)) in &self.values {
            println!("  {name:<36} {value:>14.6} {unit}");
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether `dir` lives on a tmpfs mount (longest mount-point prefix in
/// `/proc/self/mounts`).
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = fields.next()?;
            let fstype = fields.next()?;
            dir.starts_with(point)
                .then_some((point.len(), fstype == "tmpfs"))
        })
        .max_by_key(|(len, _)| *len)
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// Every file left anywhere under `dir` (spill runs, checkpoint parts,
/// manifests, `job-*` sessions), for the no-leftovers check.
pub fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name().to_string_lossy().starts_with("job-") {
                    found.push(path.clone());
                }
                stack.push(path);
            } else {
                found.push(path);
            }
        }
    }
    found
}
