//! The discrete-event cluster model: workers, task costs, and phase
//! makespans.
//!
//! The paper's tradeoff (ii) — reducer capacity vs. *parallelism* — needs a
//! notion of time. We model a cluster of `workers` identical machines;
//! each map or reduce task has a simulated duration derived from the bytes
//! it processes, tasks are scheduled greedily longest-first (LPT) onto the
//! least-loaded worker, and a phase's makespan is the maximum worker
//! finishing time. The shuffle is modeled as a shared network pipe.
//!
//! The model is deliberately simple — the quantities the paper reasons
//! about (few big reducers ⇒ long reduce phase; many small reducers ⇒ more
//! communication but shorter reduce phase) emerge directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;

/// Which execution stage a fault-injection key refers to: map tasks are
/// indexed by input position, reduce tasks by reducer partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultStage {
    /// A map task (index = input position).
    Map,
    /// A reduce task (index = reducer partition).
    Reduce,
}

impl FaultStage {
    /// Stable name used in error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::Map => "map",
            FaultStage::Reduce => "reduce",
        }
    }
}

/// What happens when a task exhausts its retry budget
/// ([`ClusterConfig::retry_budget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DlqMode {
    /// Abort the job with [`SimError::RetriesExhausted`] naming the task —
    /// the classic "job killed by a poison record" behavior.
    #[default]
    Fail,
    /// Capture the task in the job's dead-letter queue and keep going: the
    /// job completes, the poisoned task contributes nothing, and
    /// [`crate::JobOutput::dlq`] reports exactly which tasks died.
    Capture,
}

/// A deterministic, seeded fault-injection schedule.
///
/// Whether a given task *attempt* fails is a pure function of
/// `(seed, stage, task index, attempt)` — a fresh [`StdRng`] is derived per
/// key, so replays are exactly reproducible: re-running a failed task sees
/// the same schedule, and two engines executing the same logical task (in
/// any order, on any thread) reach the same verdict. That is what lets the
/// differential suite demand bit-identical [`crate::JobOutput`]s from
/// faulted runs.
///
/// Beyond the rate-based transient faults, a plan can name *poisoned*
/// tasks (fail on every attempt — the dead-letter-queue workload) and
/// *killed* tasks (their attempt takes the worker down — the
/// kill-and-resume workload).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the per-(stage, task, attempt) failure schedule.
    pub seed: u64,
    /// Probability that a given map task attempt fails. Must be a finite
    /// probability in `[0, 1]` (validated).
    pub map_rate: f64,
    /// Probability that a given reduce task attempt fails. Must be a
    /// finite probability in `[0, 1]` (validated).
    pub reduce_rate: f64,
    /// Map task indices that fail on *every* attempt — poison inputs.
    pub poison_map_tasks: Vec<usize>,
    /// Reducer partitions whose reduce fails on every attempt.
    pub poison_reduce_tasks: Vec<usize>,
    /// Map task indices whose first attempt *kills the worker process
    /// model*: the verdict path panics instead of returning, simulating a
    /// machine death mid-task. The panic unwinds through the engine's RAII
    /// guards (no deadlock) and surfaces at the thread join — the job dies
    /// the way a real job tracker sees a lost worker. Pair with
    /// [`crate::ClusterConfig::checkpoint_dir`] to test kill-and-resume.
    pub kill_map_tasks: Vec<usize>,
    /// Reducer partitions whose finalize kills the worker. See
    /// [`FaultPlan::kill_map_tasks`].
    pub kill_reduce_tasks: Vec<usize>,
}

impl FaultPlan {
    /// A uniform transient-fault plan: every map and reduce attempt fails
    /// independently with probability `rate`, under `seed`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            map_rate: rate,
            reduce_rate: rate,
            ..FaultPlan::default()
        }
    }

    fn poison(&self, stage: FaultStage) -> &[usize] {
        match stage {
            FaultStage::Map => &self.poison_map_tasks,
            FaultStage::Reduce => &self.poison_reduce_tasks,
        }
    }

    /// Whether `stage`/`index` is on a kill list — its attempt must take
    /// the worker down instead of failing softly.
    pub fn kills(&self, stage: FaultStage, index: usize) -> bool {
        let list = match stage {
            FaultStage::Map => &self.kill_map_tasks,
            FaultStage::Reduce => &self.kill_reduce_tasks,
        };
        list.contains(&index)
    }

    /// Whether attempt number `attempt` (0-based) of the given task fails.
    ///
    /// Deterministic in `(seed, stage, index, attempt)` alone — independent
    /// of thread interleaving, shuffle mode, and which engine replays the
    /// task — which is the property every retry/replay guarantee in this
    /// crate rests on.
    pub fn fires(&self, stage: FaultStage, index: usize, attempt: u32) -> bool {
        if self.poison(stage).contains(&index) {
            return true;
        }
        let rate = match stage {
            FaultStage::Map => self.map_rate,
            FaultStage::Reduce => self.reduce_rate,
        };
        if rate <= 0.0 {
            return false;
        }
        // Sequential multiply-add combining (not XOR) so no component can
        // cancel another; SplitMix64 inside `seed_from_u64` finishes the
        // mixing. One cheap RNG per key keeps draws independent across
        // (stage, task, attempt) without any shared stream to order.
        let stage_tag: u64 = match stage {
            FaultStage::Map => 0x6d61_7000,
            FaultStage::Reduce => 0x7265_6400,
        };
        let mut key = self.seed ^ stage_tag;
        key = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64);
        key = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        StdRng::seed_from_u64(key).random_bool(rate)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    /// Parses the `--faults` / `MRASSIGN_FAULTS` spec grammar:
    /// comma-separated `key:value` pairs, e.g. `seed:7,rate:0.05`.
    /// Accepted keys: `seed`, `rate` (sets both stages), `map-rate`,
    /// `reduce-rate`, and the process-kill lists `kill-map` /
    /// `kill-reduce` (`+`-separated task indices, e.g. `kill-reduce:2+5`).
    /// Unknown keys, malformed values, and a key repeated by name fail
    /// loudly — silently letting the last duplicate win would hide typos
    /// in long specs. (`rate` alongside `map-rate` / `reduce-rate` is
    /// *not* a duplicate: the later key refines one stage, a documented
    /// layering.)
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        const VOCAB: &str = "seed:<u64>, rate:<f64>, map-rate:<f64>, reduce-rate:<f64>, \
                             kill-map:<idx[+idx…]>, kill-reduce:<idx[+idx…]>";
        fn kill_list(key: &str, value: &str) -> Result<Vec<usize>, String> {
            value
                .split('+')
                .map(|idx| {
                    idx.parse()
                        .map_err(|e| format!("fault {key} index `{idx}`: {e}"))
                })
                .collect()
        }
        if spec.trim().is_empty() {
            return Err(format!("empty fault spec (expected {VOCAB})"));
        }
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec part `{part}` is not key:value ({VOCAB})"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate fault spec key `{key}` ({VOCAB})"));
            }
            seen.push(key);
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault seed `{value}`: {e}"))?;
                }
                "rate" => {
                    let rate: f64 = value
                        .parse()
                        .map_err(|e| format!("fault rate `{value}`: {e}"))?;
                    plan.map_rate = rate;
                    plan.reduce_rate = rate;
                }
                "map-rate" => {
                    plan.map_rate = value
                        .parse()
                        .map_err(|e| format!("fault map-rate `{value}`: {e}"))?;
                }
                "reduce-rate" => {
                    plan.reduce_rate = value
                        .parse()
                        .map_err(|e| format!("fault reduce-rate `{value}`: {e}"))?;
                }
                "kill-map" => plan.kill_map_tasks = kill_list(key, value)?,
                "kill-reduce" => plan.kill_reduce_tasks = kill_list(key, value)?,
                other => {
                    return Err(format!(
                        "unknown fault spec key `{other}` (expected {VOCAB})"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// How the engine moves map output into reducer partitions.
///
/// Both modes produce bit-identical [`crate::JobOutput`]s (outputs and
/// the deterministic metrics subset); they differ only in peak memory and
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleMode {
    /// Materialize every reducer partition in memory before the reduce
    /// phase starts, then reduce the partitions one at a time on the
    /// calling thread — the classic layout, and the reference every other
    /// engine cell is compared against. It ignores
    /// [`ClusterConfig::memory_budget`], and its serial reduce makes it
    /// the slower mode on reduce-heavy jobs: on a 2-vCPU host a
    /// 1,000-document similarity join at 21 reducers took 804 ms here and
    /// 523 ms pipelined.
    #[default]
    Materialized,
    /// Overlap the shuffle with the map phase, then reduce in parallel:
    /// mapper threads emit partition-tagged record blocks into bounded
    /// channels ([`crate::pipeline::CHANNEL_DEPTH`] blocks each) while
    /// per-reducer-group consumer threads drain and buffer them, spilling
    /// to disk over [`ClusterConfig::memory_budget`]. After one barrier —
    /// every mapper and consumer joined, the capacity policy applied —
    /// one thread per consumer group finalizes the partitions, in the
    /// order [`ClusterConfig::finalize_mode`] picks. Determinism is
    /// preserved by tagging every record with its map task and sorting
    /// each partition by task at finalize. See [`crate::pipeline`] for
    /// the stage graph.
    Pipelined,
}

impl ShuffleMode {
    /// Every mode, in the order the `--shuffle` grammar lists them.
    pub const ALL: [ShuffleMode; 2] = [ShuffleMode::Materialized, ShuffleMode::Pipelined];

    /// The name accepted by every `--shuffle` flag. [`std::str::FromStr`]
    /// parses and reports errors through this list, so adding a mode here
    /// is enough to extend the flag vocabulary everywhere.
    pub fn name(self) -> &'static str {
        match self {
            ShuffleMode::Materialized => "materialized",
            ShuffleMode::Pipelined => "pipelined",
        }
    }
}

impl std::str::FromStr for ShuffleMode {
    type Err = String;

    /// Parses the mode names used by every `--shuffle` flag (CLI and
    /// experiment binaries), so the vocabulary lives in one place.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        ShuffleMode::ALL
            .into_iter()
            .find(|mode| mode.name() == name)
            .ok_or_else(|| {
                let expected: Vec<&str> = ShuffleMode::ALL.map(ShuffleMode::name).to_vec();
                format!(
                    "unknown shuffle mode `{name}` (expected {})",
                    expected.join("|")
                )
            })
    }
}

/// How the pipelined engine assigns partition finalization (the per
/// partition sort + reduce) to its finalize threads, one per consumer
/// group, once every mapper and consumer has joined.
///
/// Purely an execution-time choice: outputs and the deterministic metrics
/// subset are bit-identical across modes (finalized partitions are slotted
/// by partition index regardless of which thread processed them); only
/// [`crate::PipelineMetrics`]' finalize counters differ. Ignored by the
/// materialized shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FinalizeMode {
    /// Finalize thread g takes exactly the contiguous partition range
    /// consumer group g drained, in ascending order. Under a hot reducer
    /// that thread serializes its whole range while the others idle —
    /// the skew pathology the paper's load-balancing thesis warns about.
    #[default]
    Static,
    /// Every finalize thread takes the next partition of one order —
    /// buffered bytes descending, the lower partition first on ties, the
    /// LPT rule of [`Schedule::lpt_order`] — so a hot partition's
    /// neighbors migrate to idle threads.
    Stealing,
}

impl FinalizeMode {
    /// Every mode, in the order the `--finalize` grammar lists them.
    pub const ALL: [FinalizeMode; 2] = [FinalizeMode::Static, FinalizeMode::Stealing];

    /// The name accepted by every `--finalize` flag and the
    /// `MRASSIGN_FINALIZE` env var; [`std::str::FromStr`] parses and
    /// reports errors through this list.
    pub fn name(self) -> &'static str {
        match self {
            FinalizeMode::Static => "static",
            FinalizeMode::Stealing => "stealing",
        }
    }
}

impl std::str::FromStr for FinalizeMode {
    type Err = String;

    /// Parses the mode names used by every `--finalize` flag, so a typo
    /// fails loudly instead of silently reverting to the default.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        FinalizeMode::ALL
            .into_iter()
            .find(|mode| mode.name() == name)
            .ok_or_else(|| {
                let expected: Vec<&str> = FinalizeMode::ALL.map(FinalizeMode::name).to_vec();
                format!(
                    "unknown finalize mode `{name}` (expected {})",
                    expected.join("|")
                )
            })
    }
}

/// Simulated cluster parameters.
///
/// Rates are bytes per simulated second. Defaults approximate a small
/// commodity cluster and, more importantly, make the map/shuffle/reduce
/// terms comparable in magnitude so tradeoffs are visible.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of identical workers executing tasks.
    pub workers: usize,
    /// Map-side processing rate (bytes/second/worker).
    pub map_rate: f64,
    /// Reduce-side processing rate (bytes/second/worker).
    pub reduce_rate: f64,
    /// Aggregate shuffle bandwidth for the whole cluster (bytes/second).
    pub network_bandwidth: f64,
    /// Fixed per-task scheduling overhead (seconds); models task startup
    /// and is what penalizes "one reducer per pair" schemes.
    pub task_overhead: f64,
    /// Number of OS threads used to *actually* execute map tasks. Purely a
    /// wall-clock optimization; simulated time ignores it.
    pub map_threads: usize,
    /// How the shuffle is executed; purely a memory/wall-clock choice —
    /// outputs and the deterministic metrics subset are identical across
    /// modes.
    pub shuffle: ShuffleMode,
    /// [`ShuffleMode::Pipelined`]: the order its finalize threads take
    /// the partitions in. See [`FinalizeMode`].
    pub finalize_mode: FinalizeMode,
    /// [`ShuffleMode::Pipelined`]: out-of-core memory budget, in
    /// [`ByteSized`](crate::ByteSized) bytes of buffered records **per
    /// consumer group** while it drains (total drain residency is
    /// therefore bounded by `budget × consumer groups`). When a group's
    /// buffered records exceed the budget after a block lands, it seals
    /// its largest partition buffers to temp files until back under
    /// budget. Finalize reads a partition's spilled runs back whole, so it
    /// holds one whole partition per consumer thread: the budget does not
    /// bound that. `None` (the default) keeps every record in memory;
    /// `Some(0)` is rejected by [`ClusterConfig::validate`]. Outputs are
    /// bit-identical at any budget — only wall-clock and the spill
    /// counters in [`crate::PipelineMetrics`] change. The budget is
    /// enforced at block granularity (a map task's records for a partition
    /// never span two spill files), so a single oversized block may
    /// transiently exceed it before being spilled whole.
    pub memory_budget: Option<u64>,
    /// Directory spill temp files are created in; `None` (the default)
    /// uses the OS temp dir. Files are named uniquely per process and
    /// deleted when their run drops — on success, error, and panic
    /// unwinds alike.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Checkpoint/resume root. `None` (the default) disables
    /// checkpointing. When set, every finalized reducer partition's output
    /// is persisted under this directory (partition files in the spill
    /// record format, committed tmp-write → fsync → rename, then recorded
    /// in a versioned, checksummed manifest keyed by a deterministic job
    /// fingerprint of config + workload). A later run of the *same* job
    /// over the same inputs detects the manifest, verifies it, replays
    /// only the missing partitions, and merges the checkpointed outputs
    /// bit-identically into [`crate::JobOutput`] — a corrupt or
    /// mismatched manifest falls back to a fresh run with a warning,
    /// never a panic. `checkpoint_hits`/`checkpoint_misses` in
    /// [`crate::PipelineMetrics`] report what was skipped. On job start
    /// the directory is swept for orphaned temp files left by killed
    /// processes (dead PID in the filename, or stale by age).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Maximum *retries* per task (attempts = `retry_budget + 1`) when a
    /// [`FaultPlan`] injects failures. With no plan configured the budget
    /// is inert. Failed attempts are replayed deterministically — mappers
    /// and routers are deterministic by contract, so a retried task
    /// re-emits exactly what the never-failed run would have.
    pub retry_budget: u32,
    /// What happens when a task exhausts `retry_budget`. See [`DlqMode`].
    pub dlq_mode: DlqMode,
    /// The seeded fault-injection schedule; `None` (the default) injects
    /// nothing and leaves every engine path byte-for-byte on the
    /// fault-free fast path.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 8,
            map_rate: 128.0 * 1024.0 * 1024.0,
            reduce_rate: 64.0 * 1024.0 * 1024.0,
            network_bandwidth: 256.0 * 1024.0 * 1024.0,
            task_overhead: 0.05,
            map_threads: 1,
            shuffle: ShuffleMode::Materialized,
            finalize_mode: FinalizeMode::Static,
            memory_budget: None,
            spill_dir: None,
            checkpoint_dir: None,
            retry_budget: 0,
            dlq_mode: DlqMode::Fail,
            fault_plan: None,
        }
    }
}

impl ClusterConfig {
    /// A single-worker configuration, useful for computing serial time.
    pub fn serial() -> Self {
        ClusterConfig {
            workers: 1,
            map_threads: 1,
            ..ClusterConfig::default()
        }
    }

    /// Validates the configuration before a run: at least one worker, any
    /// `memory_budget` of at least 1, a non-empty `checkpoint_dir`, finite
    /// time/rate knobs, and fault rates in `0..=1`. The knobs are checked
    /// regardless of the configured [`ShuffleMode`] — a zero budget is
    /// always a misconfiguration, and a NaN/infinite rate would poison
    /// every derived task cost — catching either here names the knob
    /// instead of failing mid-job.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 {
            return Err(SimError::NoWorkers);
        }
        if self.memory_budget == Some(0) {
            // A zero budget would demand spilling every block before it
            // can even be buffered; `None` is the way to say "unbounded".
            return Err(SimError::InvalidKnob {
                knob: "memory_budget",
            });
        }
        if self
            .checkpoint_dir
            .as_deref()
            .is_some_and(|dir| dir.as_os_str().is_empty())
        {
            // `Some("")` is a flag-plumbing bug, not a request for the
            // current directory; `None` is how "no checkpointing" is said.
            return Err(SimError::InvalidKnob {
                knob: "checkpoint_dir",
            });
        }
        for (knob, value) in [
            ("map_rate", self.map_rate),
            ("reduce_rate", self.reduce_rate),
            ("network_bandwidth", self.network_bandwidth),
            ("task_overhead", self.task_overhead),
        ] {
            if !value.is_finite() {
                return Err(SimError::NonFiniteKnob { knob });
            }
        }
        if let Some(plan) = &self.fault_plan {
            for (knob, rate) in [
                ("fault_plan.map_rate", plan.map_rate),
                ("fault_plan.reduce_rate", plan.reduce_rate),
            ] {
                if !rate.is_finite() {
                    return Err(SimError::NonFiniteKnob { knob });
                }
                if !(0.0..=1.0).contains(&rate) {
                    return Err(SimError::FaultRateOutOfRange { knob });
                }
            }
        }
        Ok(())
    }

    /// Simulated duration of a map task over `bytes` input bytes.
    pub fn map_task_seconds(&self, bytes: u64) -> f64 {
        self.task_overhead + bytes as f64 / self.map_rate
    }

    /// Simulated duration of a reduce task over `bytes` of reducer input.
    pub fn reduce_task_seconds(&self, bytes: u64) -> f64 {
        self.task_overhead + bytes as f64 / self.reduce_rate
    }

    /// Simulated duration of shuffling `bytes` across the shared pipe.
    pub fn shuffle_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.network_bandwidth
    }
}

/// The simulated cost of one task, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost(pub f64);

/// The result of scheduling one phase's tasks onto the workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Finishing time of each worker (seconds).
    pub worker_finish: Vec<f64>,
    /// The phase makespan: `worker_finish` maximum.
    pub makespan: f64,
    /// Total task-seconds scheduled (serial time of the phase).
    pub total_work: f64,
}

impl Schedule {
    /// Schedules `tasks` on `workers` machines with the LPT greedy rule:
    /// sort tasks longest-first, always give the next task to the
    /// least-loaded worker. LPT is a 4/3-approximation of the optimal
    /// makespan, and more to the point it is what a real scheduler's
    /// outcome looks like for independent tasks.
    pub fn lpt(tasks: &[TaskCost], workers: usize) -> Schedule {
        assert!(workers > 0, "Schedule::lpt requires at least one worker");
        let order = Schedule::lpt_order(tasks);

        // Binary heap of (load, worker) would need ordered floats; with the
        // small worker counts used here a linear argmin scan is simpler and
        // never the bottleneck (tasks dominate).
        let mut finish = vec![0.0f64; workers];
        for &t in &order {
            let (idx, _) = finish
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one worker");
            finish[idx] += tasks[t].0;
        }
        let makespan = finish.iter().cloned().fold(0.0, f64::max);
        let total_work = tasks.iter().map(|t| t.0).sum();
        Schedule {
            worker_finish: finish,
            makespan,
            total_work,
        }
    }

    /// Task indices in the order the LPT rule considers them: longest
    /// first, lowest index on ties (so the rank is reproducible). This is
    /// the ranking [`Schedule::lpt`] schedules by. The pipelined engine's
    /// stealing finalize orders partitions by the same rule over their
    /// buffered bytes: largest first, lower partition on ties.
    /// `total_cmp` keeps it panic-free even for NaN or infinite costs
    /// (validation rejects the knobs that would produce them, but a
    /// direct caller must get an order, not a panic).
    pub fn lpt_order(tasks: &[TaskCost]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by(|&a, &b| tasks[b].0.total_cmp(&tasks[a].0).then(a.cmp(&b)));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ClusterConfig::default().validate().unwrap();
        ClusterConfig::serial().validate().unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = ClusterConfig {
            workers: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(SimError::NoWorkers));
    }

    /// `Some(0)` is a contradiction (spill everything before buffering
    /// anything); `None` is how "unbounded" is spelled. Rejected by name;
    /// any positive budget validates.
    #[test]
    fn zero_memory_budget_rejected_by_name() {
        let cfg = ClusterConfig {
            memory_budget: Some(0),
            ..ClusterConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SimError::InvalidKnob {
                knob: "memory_budget"
            })
        );
        let cfg = ClusterConfig {
            memory_budget: Some(1),
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(ClusterConfig::default().memory_budget, None);
    }

    /// The latent panic this PR closes: a NaN (or infinite) time knob used
    /// to pass validation and reach `Schedule::lpt`'s
    /// `partial_cmp(...).expect` as a mid-job panic. Each non-finite knob
    /// is now rejected by name before the job starts.
    #[test]
    fn non_finite_time_knobs_rejected_by_name() {
        type Setter = fn(&mut ClusterConfig, f64);
        let cases: [(&str, Setter); 4] = [
            ("map_rate", |c, v| c.map_rate = v),
            ("reduce_rate", |c, v| c.reduce_rate = v),
            ("network_bandwidth", |c, v| c.network_bandwidth = v),
            ("task_overhead", |c, v| c.task_overhead = v),
        ];
        for (knob, set) in cases {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut cfg = ClusterConfig::default();
                set(&mut cfg, bad);
                assert_eq!(
                    cfg.validate(),
                    Err(SimError::NonFiniteKnob { knob }),
                    "{knob} = {bad}"
                );
            }
        }
    }

    /// Defense in depth for direct callers: even with a NaN or infinite
    /// task cost (which validation now keeps out of jobs), `lpt` schedules
    /// deterministically via `total_cmp` instead of panicking.
    #[test]
    fn lpt_tolerates_non_finite_costs_without_panicking() {
        let tasks = vec![
            TaskCost(f64::NAN),
            TaskCost(1.0),
            TaskCost(f64::INFINITY),
            TaskCost(2.0),
        ];
        let s = Schedule::lpt(&tasks, 2);
        assert_eq!(s.worker_finish.len(), 2);
        // `total_cmp` is a total order, so even garbage-in schedules are
        // bit-for-bit reproducible across calls (NaN propagates into the
        // loads, hence the bit comparison rather than `==`).
        let a = Schedule::lpt(&tasks, 2);
        let bits = |sched: &Schedule| -> Vec<u64> {
            sched.worker_finish.iter().map(|f| f.to_bits()).collect()
        };
        assert_eq!(bits(&s), bits(&a));
    }

    #[test]
    fn shuffle_mode_names_round_trip() {
        for mode in ShuffleMode::ALL {
            assert_eq!(mode.name().parse::<ShuffleMode>(), Ok(mode));
        }
        // The error names every accepted mode, straight from `ALL`.
        let err = "mystery".parse::<ShuffleMode>().unwrap_err();
        for mode in ShuffleMode::ALL {
            assert!(err.contains(mode.name()), "{err}");
        }
        // The deleted streaming shuffle is rejected by name, not silently
        // mapped to a surviving engine.
        assert_eq!(
            "streaming".parse::<ShuffleMode>(),
            Err("unknown shuffle mode `streaming` (expected materialized|pipelined)".to_string())
        );
    }

    #[test]
    fn finalize_mode_names_round_trip() {
        for mode in FinalizeMode::ALL {
            assert_eq!(mode.name().parse::<FinalizeMode>(), Ok(mode));
        }
        assert_eq!(FinalizeMode::default(), FinalizeMode::Static);
        let err = "mystery".parse::<FinalizeMode>().unwrap_err();
        for mode in FinalizeMode::ALL {
            assert!(err.contains(mode.name()), "{err}");
        }
    }

    /// The fault schedule is a pure function of (seed, stage, index,
    /// attempt): replays agree, seeds decorrelate, and extreme rates
    /// behave like constants.
    #[test]
    fn fault_plan_fires_deterministically() {
        let plan = FaultPlan::seeded(7, 0.5);
        for stage in [FaultStage::Map, FaultStage::Reduce] {
            for index in 0..64 {
                for attempt in 0..4 {
                    assert_eq!(
                        plan.fires(stage, index, attempt),
                        plan.fires(stage, index, attempt),
                        "replay must agree: {stage:?} {index} {attempt}"
                    );
                }
            }
        }
        let never = FaultPlan::seeded(7, 0.0);
        let always = FaultPlan::seeded(7, 1.0);
        for index in 0..64 {
            assert!(!never.fires(FaultStage::Map, index, 0));
            assert!(always.fires(FaultStage::Reduce, index, 0));
        }
        // The rate is actually a rate: at 0.5, both outcomes occur.
        let hits = (0..256)
            .filter(|&i| plan.fires(FaultStage::Map, i, 0))
            .count();
        assert!((64..192).contains(&hits), "0.5-rate plan hit {hits}/256");
        // Attempts draw independently: some task that fails attempt 0
        // passes attempt 1 (the whole point of a retry).
        assert!((0..256)
            .any(|i| { plan.fires(FaultStage::Map, i, 0) && !plan.fires(FaultStage::Map, i, 1) }));
    }

    #[test]
    fn fault_plan_poison_lists() {
        let plan = FaultPlan {
            poison_map_tasks: vec![3],
            poison_reduce_tasks: vec![1],
            ..FaultPlan::default()
        };
        // Poison beats any rate (here zero) on every attempt.
        for attempt in 0..16 {
            assert!(plan.fires(FaultStage::Map, 3, attempt));
            assert!(plan.fires(FaultStage::Reduce, 1, attempt));
        }
        assert!(!plan.fires(FaultStage::Map, 4, 0));
    }

    #[test]
    fn fault_spec_parses_and_rejects_typos() {
        let plan: FaultPlan = "seed:7,rate:0.05".parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.map_rate - 0.05).abs() < 1e-12);
        assert!((plan.reduce_rate - 0.05).abs() < 1e-12);
        let split: FaultPlan = "map-rate:0.1,reduce-rate:0.2".parse().unwrap();
        assert!((split.map_rate - 0.1).abs() < 1e-12);
        assert!((split.reduce_rate - 0.2).abs() < 1e-12);
        for bad in ["", "seed:7,chaos:0.5", "seed", "rate:lots"] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.contains("seed") || err.contains("rate"), "{bad}: {err}");
        }
    }

    /// The kill lists ride the same spec grammar as every other fault
    /// knob, with `+`-separated indices (the comma is taken by the pair
    /// separator), and `kills()` consults exactly the right list.
    #[test]
    fn fault_spec_parses_kill_lists() {
        let plan: FaultPlan = "seed:7,kill-map:3,kill-reduce:2+5".parse().unwrap();
        assert_eq!(plan.kill_map_tasks, vec![3]);
        assert_eq!(plan.kill_reduce_tasks, vec![2, 5]);
        assert!(plan.kills(FaultStage::Map, 3));
        assert!(!plan.kills(FaultStage::Reduce, 3));
        assert!(plan.kills(FaultStage::Reduce, 5));
        let err = "kill-map:banana".parse::<FaultPlan>().unwrap_err();
        assert!(err.contains("kill-map"), "{err}");
        let err = "kill-map:1,kill-map:2".parse::<FaultPlan>().unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    /// An empty checkpoint path is a plumbing bug (`Some("")` from a flag
    /// with a missing value), rejected by name like every other knob.
    #[test]
    fn empty_checkpoint_dir_rejected_by_name() {
        let cfg = ClusterConfig {
            checkpoint_dir: Some(std::path::PathBuf::new()),
            ..ClusterConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(SimError::InvalidKnob {
                knob: "checkpoint_dir"
            })
        );
        let cfg = ClusterConfig {
            checkpoint_dir: Some(std::path::PathBuf::from("ckpt")),
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(ClusterConfig::default().checkpoint_dir, None);
    }

    /// A repeated key is a typo, not a request for last-wins semantics.
    #[test]
    fn fault_spec_rejects_duplicate_keys() {
        for dup in [
            "seed:1,seed:2",
            "rate:0.1,rate:0.2",
            "map-rate:0.1,rate:0.2,map-rate:0.3",
            "seed:1,reduce-rate:0.1,reduce-rate:0.1",
        ] {
            let err = dup.parse::<FaultPlan>().unwrap_err();
            assert!(err.contains("duplicate"), "{dup}: {err}");
        }
        // `rate` plus a stage-specific refinement is layering, not a
        // duplicate: `rate` seeds both stages, `map-rate` then overrides
        // one of them.
        let plan: FaultPlan = "rate:0.1,map-rate:0.3".parse().unwrap();
        assert!((plan.map_rate - 0.3).abs() < 1e-12);
        assert!((plan.reduce_rate - 0.1).abs() < 1e-12);
    }

    /// Fault rates are validated like every other knob: by name, before
    /// the job starts.
    #[test]
    fn fault_rates_validated_by_name() {
        let mk = |map_rate, reduce_rate| ClusterConfig {
            fault_plan: Some(FaultPlan {
                map_rate,
                reduce_rate,
                ..FaultPlan::default()
            }),
            ..ClusterConfig::default()
        };
        assert_eq!(
            mk(f64::NAN, 0.0).validate(),
            Err(SimError::NonFiniteKnob {
                knob: "fault_plan.map_rate"
            })
        );
        assert_eq!(
            mk(0.0, 1.5).validate(),
            Err(SimError::FaultRateOutOfRange {
                knob: "fault_plan.reduce_rate"
            })
        );
        assert_eq!(
            mk(-0.1, 0.0).validate(),
            Err(SimError::FaultRateOutOfRange {
                knob: "fault_plan.map_rate"
            })
        );
        mk(0.0, 1.0).validate().unwrap();
        // The retry/dlq knobs are valid in every combination.
        ClusterConfig {
            retry_budget: 3,
            dlq_mode: DlqMode::Capture,
            fault_plan: Some(FaultPlan::seeded(1, 0.5)),
            ..ClusterConfig::default()
        }
        .validate()
        .unwrap();
    }

    /// `lpt_order` is the rank `lpt` schedules by: longest first, index
    /// ascending on ties, and `lpt` built on top of it is unchanged.
    #[test]
    fn lpt_order_ranks_longest_first() {
        let tasks = vec![TaskCost(2.0), TaskCost(5.0), TaskCost(2.0), TaskCost(9.0)];
        assert_eq!(Schedule::lpt_order(&tasks), vec![3, 1, 0, 2]);
        assert_eq!(Schedule::lpt_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn task_costs_scale_with_bytes() {
        let cfg = ClusterConfig {
            task_overhead: 1.0,
            map_rate: 100.0,
            reduce_rate: 50.0,
            network_bandwidth: 10.0,
            ..Default::default()
        };
        assert!((cfg.map_task_seconds(200) - 3.0).abs() < 1e-12);
        assert!((cfg.reduce_task_seconds(200) - 5.0).abs() < 1e-12);
        assert!((cfg.shuffle_seconds(200) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_balances_equal_tasks() {
        let tasks = vec![TaskCost(1.0); 8];
        let s = Schedule::lpt(&tasks, 4);
        assert!((s.makespan - 2.0).abs() < 1e-12);
        assert!((s.total_work - 8.0).abs() < 1e-12);
        assert!(s.worker_finish.iter().all(|&f| (f - 2.0).abs() < 1e-12));
    }

    #[test]
    fn lpt_handles_skewed_tasks() {
        // One long task dominates: makespan equals its duration.
        let tasks = vec![TaskCost(10.0), TaskCost(1.0), TaskCost(1.0), TaskCost(1.0)];
        let s = Schedule::lpt(&tasks, 4);
        assert!((s.makespan - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_single_worker_is_serial() {
        let tasks = vec![TaskCost(2.0), TaskCost(3.0), TaskCost(5.0)];
        let s = Schedule::lpt(&tasks, 1);
        assert!((s.makespan - 10.0).abs() < 1e-12);
        assert!((s.makespan - s.total_work).abs() < 1e-12);
    }

    #[test]
    fn lpt_no_tasks_is_zero() {
        let s = Schedule::lpt(&[], 4);
        assert_eq!(s.makespan, 0.0);
        assert_eq!(s.total_work, 0.0);
    }

    #[test]
    fn lpt_makespan_at_least_average_and_max() {
        let tasks: Vec<TaskCost> = (1..=13).map(|i| TaskCost(i as f64)).collect();
        let workers = 3;
        let s = Schedule::lpt(&tasks, workers);
        let total: f64 = (1..=13).map(|i| i as f64).sum();
        assert!(s.makespan >= total / workers as f64 - 1e-9);
        assert!(s.makespan >= 13.0 - 1e-9);
        // And within the LPT guarantee of 4/3 OPT + ... vs the trivial LB.
        let lb = (total / workers as f64).max(13.0);
        assert!(s.makespan <= lb * 4.0 / 3.0 + 1e-9);
    }
}
