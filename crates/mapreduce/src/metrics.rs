//! Per-job accounting: the quantities the paper's tradeoffs are stated in.

use crate::cluster::{ClusterConfig, Schedule};

/// Execution-dependent counters from the overlapped
/// [`ShuffleMode::Pipelined`](crate::ShuffleMode::Pipelined) engine.
///
/// Unlike every other field of [`JobMetrics`], these quantify *how* the
/// run was executed — how much reduce-side work overlapped live map tasks,
/// how full the bounded channels got, and the real wall-clock span of each
/// phase — and therefore legitimately vary between runs and thread counts.
/// Apart from the checkpoint counters and `orphans_reclaimed`, which
/// [`Job::run`](crate::Job::run) fills in under either engine, they are
/// all zero under the materialized shuffle. Differential tests that
/// assert bit-identical metrics across modes must compare
/// [`JobMetrics::deterministic`], which masks this struct out.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineMetrics {
    /// Blocks consumed by a reduce-side consumer while at least one map
    /// task was still in flight — the overlap the pipelined engine exists
    /// to create. Zero means the run degenerated to strict passes.
    pub map_reduce_overlap_blocks: u64,
    /// Highest number of blocks sent into the stage channels and not yet
    /// taken in by their consumer at one time. Back-pressure bounds this
    /// by [`CHANNEL_DEPTH`](crate::pipeline::CHANNEL_DEPTH)` ×
    /// consumer_groups`.
    pub peak_inflight_blocks: u64,
    /// Total partition-tagged blocks that flowed mapper → consumer.
    pub blocks_sent: u64,
    /// Number of reducer-group consumer threads the run used.
    pub consumer_groups: u64,
    /// Partitions finalized by a finalize thread other than the one of
    /// the consumer group that drained them — always zero under
    /// [`FinalizeMode::Static`](crate::FinalizeMode::Static); under
    /// [`FinalizeMode::Stealing`](crate::FinalizeMode::Stealing) it counts
    /// how much finalize work migrated off hot consumer groups.
    pub stolen_partitions: u64,
    /// Wall-clock span of the map stage (first task start → last task end).
    pub map_wall_seconds: f64,
    /// Wall-clock span of the reduce finalization stage across its threads.
    pub reduce_wall_seconds: f64,
    /// Per-finalize-thread span (seconds), one thread per consumer group
    /// and indexed by group. Every thread starts at the map barrier, so
    /// under a hot reducer with static finalize one entry dwarfs the
    /// rest; stealing flattens the profile.
    pub finalize_group_seconds: Vec<f64>,
    /// Finalize imbalance: max per-group finalize span over the mean span
    /// (≥ 1.0 for a pipelined run; 1.0 is perfectly balanced). Zero under
    /// the materialized shuffle, which never finalizes concurrently.
    pub finalize_imbalance: f64,
    /// Wall-clock span of the whole pipelined run.
    pub wall_seconds: f64,
    /// Partition buffers sealed and spilled to disk under
    /// [`ClusterConfig::memory_budget`](crate::ClusterConfig::memory_budget)
    /// (zero when unbudgeted or nothing exceeded the budget).
    pub spilled_runs: u64,
    /// Total [`ByteSized`](crate::ByteSized) bytes of spilled records —
    /// the budget's own accounting unit, not physical file bytes.
    pub spilled_bytes: u64,
    /// Highest buffered residency any single consumer group reached while
    /// draining, *after* budget enforcement — always `≤ memory_budget`
    /// when one is set (a block may transiently exceed the budget before
    /// being spilled whole; this counter samples the steady state the
    /// group settles back to).
    pub peak_buffered_bytes: u64,
    /// Most sources any single partition's finalize read: its spilled
    /// runs, plus its resident buffer if that is nonempty.
    pub merge_fanin: u64,
    /// Nonempty reducer partitions served from a verified checkpoint an
    /// earlier run of the same job committed (see
    /// [`ClusterConfig::checkpoint_dir`](crate::ClusterConfig::checkpoint_dir)):
    /// no copy was shipped to them and no reduce ran for them. Zero when
    /// checkpointing is off or the run started cold.
    pub checkpoint_hits: u64,
    /// Nonempty reducer partitions executed while checkpointing was
    /// enabled, and committed unless dead-lettered — the work a crash
    /// right now would *not* lose again. Each nonempty partition counts
    /// once, as a hit or a miss, so with checkpointing on
    /// `checkpoint_hits + checkpoint_misses == nonempty_reducers`.
    pub checkpoint_misses: u64,
    /// Checkpoint state found but rejected: a manifest prefix (truncated,
    /// bit-flipped, version- or fingerprint-mismatched), or a committed
    /// partition file or map record that fails verification. Each
    /// rejection falls back to re-execution with a warning on stderr;
    /// this counter makes the fallback observable to tests and
    /// dashboards.
    pub checkpoint_invalid: u64,
    /// Spill/checkpoint temp files whose RAII delete failed (the engine
    /// keeps going — a vanished temp dir must not turn cleanup into a
    /// second failure — but a leak is now observable, not invisible).
    pub spill_delete_errors: u64,
    /// Orphaned spill/checkpoint temp files from dead processes reclaimed
    /// by the startup sweep of the checkpoint directory.
    pub orphans_reclaimed: u64,
}

/// Fault-tolerance counters: retries burned and dead-letter-queue size.
///
/// Like [`PipelineMetrics`], these quantify *how* a run executed rather
/// than *what* it computed: the whole point of the retry machinery is
/// that a faulted run's [`JobMetrics::deterministic`] stays bit-identical
/// to the fault-free run, so every counter here is masked out of that
/// comparison. Across engine cells, though, a faulted run's counters
/// agree: both shuffle modes walk each task's attempt loop once per
/// run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMetrics {
    /// Injected map-task faults that were absorbed by a retry.
    pub map_retries: u64,
    /// Injected reduce-task faults that were absorbed by a retry.
    pub reduce_retries: u64,
    /// Entries in the job's dead-letter queue (equals
    /// `JobOutput::dlq.len()`; only nonzero under
    /// [`crate::DlqMode::Capture`]).
    pub dlq_len: u64,
}

impl FaultMetrics {
    /// Total injected faults absorbed by retries across both stages.
    pub fn retries(&self) -> u64 {
        self.map_retries + self.reduce_retries
    }
}

/// Metrics collected while running one simulated job.
///
/// * **Communication cost** (`bytes_shuffled`) is the paper's central
///   quantity: total bytes moved from the map phase to the reduce phase,
///   counting every routed copy (key bytes + value bytes).
/// * **Reducer load** (`reducer_value_bytes`) counts value bytes only,
///   matching the paper's reducer-capacity definition ("an upper bound on
///   the sum of the sizes of the values assigned to the reducer").
/// * **Makespans** come from the discrete-event cluster model and quantify
///   parallelism (tradeoff ii).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobMetrics {
    /// Number of input records fed to the map phase.
    pub inputs: usize,
    /// Total bytes of the inputs.
    pub input_bytes: u64,
    /// Key-value pairs produced by mappers (before routing fan-out).
    pub records_emitted: u64,
    /// Key-value pair *copies* after routing (≥ `records_emitted` when a
    /// schema replicates inputs; the paper's replication rate is
    /// `records_shuffled / records_emitted`).
    pub records_shuffled: u64,
    /// Communication cost: bytes of every routed copy (keys + values).
    pub bytes_shuffled: u64,
    /// Number of reducer partitions configured.
    pub reducers: usize,
    /// Value bytes received per reducer partition (the paper's load).
    pub reducer_value_bytes: Vec<u64>,
    /// Number of reducers that received at least one record.
    pub nonempty_reducers: usize,
    /// Configured reducer capacity `q`, if any.
    pub capacity: Option<u64>,
    /// Reducers whose value bytes exceeded `q` (only populated under
    /// [`crate::CapacityPolicy::Record`]).
    pub capacity_violations: Vec<usize>,
    /// Distinct keys reduced, across all partitions.
    pub distinct_keys: u64,
    /// Output records produced by the reduce phase.
    pub outputs: usize,
    /// Simulated map-phase makespan (seconds).
    pub map_makespan: f64,
    /// Simulated shuffle duration (seconds).
    pub shuffle_seconds: f64,
    /// Simulated reduce-phase makespan (seconds).
    pub reduce_makespan: f64,
    /// Simulated serial execution time (all work on one worker, seconds).
    pub serial_seconds: f64,
    /// Overlap/back-pressure counters from the pipelined engine (zero
    /// under the materialized shuffle; execution-dependent, see
    /// [`PipelineMetrics`]).
    pub pipeline: PipelineMetrics,
    /// Retry/DLQ counters from the fault-tolerance layer
    /// (all zero without a [`crate::FaultPlan`]; execution-dependent,
    /// see [`FaultMetrics`]).
    pub faults: FaultMetrics,
}

impl JobMetrics {
    /// The deterministic subset of the metrics: everything except the
    /// execution-dependent [`PipelineMetrics`] and [`FaultMetrics`]. This
    /// is the value that is bit-identical across shuffle modes, thread
    /// counts, fault schedules, and runs — the contract the differential
    /// test harness pins.
    pub fn deterministic(&self) -> JobMetrics {
        JobMetrics {
            pipeline: PipelineMetrics::default(),
            faults: FaultMetrics::default(),
            ..self.clone()
        }
    }

    /// The cluster cost model: fills the simulated-time fields from the
    /// two phases' schedules and from `bytes_shuffled`, which must already
    /// be set. [`Job::run`](crate::Job::run) calls it with the LPT
    /// schedules of its map and reduce tasks; a caller that knows a job's
    /// task costs without running it (the capacity planner) gets the same
    /// times from the same schedules.
    pub fn simulate(&mut self, config: &ClusterConfig, map: &Schedule, reduce: &Schedule) {
        self.map_makespan = map.makespan;
        self.reduce_makespan = reduce.makespan;
        self.shuffle_seconds = config.shuffle_seconds(self.bytes_shuffled);
        self.serial_seconds = map.total_work + reduce.total_work + self.shuffle_seconds;
    }

    /// End-to-end simulated duration: map + shuffle + reduce.
    pub fn total_seconds(&self) -> f64 {
        self.map_makespan + self.shuffle_seconds + self.reduce_makespan
    }

    /// Speedup over serial execution; the paper's parallelism measure.
    ///
    /// Returns 1.0 for degenerate zero-duration jobs.
    pub fn speedup(&self) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            1.0
        } else {
            self.serial_seconds / total
        }
    }

    /// Replication rate: average number of reducer copies per emitted
    /// record. 1.0 when nothing was emitted.
    pub fn replication_rate(&self) -> f64 {
        if self.records_emitted == 0 {
            1.0
        } else {
            self.records_shuffled as f64 / self.records_emitted as f64
        }
    }

    /// The largest reducer load in value bytes (0 when no reducers).
    pub fn max_reducer_load(&self) -> u64 {
        self.reducer_value_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max reducer load over mean nonzero load (1.0 when
    /// perfectly balanced; large under skew). Returns 1.0 if no reducer
    /// received data. The loads are summed in `u128`, so loads whose sum
    /// exceeds `u64::MAX` still average correctly.
    pub fn load_imbalance(&self) -> f64 {
        let nonzero: Vec<u64> = self
            .reducer_value_bytes
            .iter()
            .copied()
            .filter(|&b| b > 0)
            .collect();
        if nonzero.is_empty() {
            return 1.0;
        }
        let total: u128 = nonzero.iter().map(|&b| u128::from(b)).sum();
        let mean = total as f64 / nonzero.len() as f64;
        self.max_reducer_load() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobMetrics {
        JobMetrics {
            inputs: 4,
            input_bytes: 400,
            records_emitted: 10,
            records_shuffled: 25,
            bytes_shuffled: 2_500,
            reducers: 4,
            reducer_value_bytes: vec![100, 300, 0, 100],
            nonempty_reducers: 3,
            capacity: Some(512),
            capacity_violations: vec![],
            distinct_keys: 5,
            outputs: 5,
            map_makespan: 1.0,
            shuffle_seconds: 0.5,
            reduce_makespan: 0.5,
            serial_seconds: 6.0,
            pipeline: PipelineMetrics::default(),
            faults: FaultMetrics::default(),
        }
    }

    #[test]
    fn totals_and_speedup() {
        let m = sample();
        assert!((m.total_seconds() - 2.0).abs() < 1e-12);
        assert!((m.speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn replication_rate_counts_fanout() {
        let m = sample();
        assert!((m.replication_rate() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_job_has_unit_ratios() {
        let m = JobMetrics::default();
        assert_eq!(m.speedup(), 1.0);
        assert_eq!(m.replication_rate(), 1.0);
        assert_eq!(m.max_reducer_load(), 0);
        assert_eq!(m.load_imbalance(), 1.0);
    }

    #[test]
    fn deterministic_masks_only_the_pipeline_counters() {
        let mut a = sample();
        let mut b = sample();
        a.pipeline.map_reduce_overlap_blocks = 17;
        a.pipeline.peak_inflight_blocks = 4;
        a.pipeline.wall_seconds = 0.25;
        a.pipeline.stolen_partitions = 3;
        a.pipeline.finalize_group_seconds = vec![0.5, 0.1];
        a.pipeline.finalize_imbalance = 1.7;
        a.pipeline.spilled_runs = 2;
        a.pipeline.spilled_bytes = 9_000;
        a.pipeline.peak_buffered_bytes = 4_096;
        a.pipeline.merge_fanin = 5;
        a.pipeline.checkpoint_hits = 3;
        a.pipeline.checkpoint_misses = 1;
        a.pipeline.checkpoint_invalid = 1;
        a.pipeline.spill_delete_errors = 2;
        a.pipeline.orphans_reclaimed = 1;
        b.pipeline.consumer_groups = 2;
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
        // Everything else still participates in equality.
        b.bytes_shuffled += 1;
        assert_ne!(a.deterministic(), b.deterministic());
    }

    /// The cross-mode contract stays metric-stable under fault injection:
    /// every fault/retry counter is excluded from `deterministic()`, so a
    /// faulted run compares equal to the fault-free run even though it
    /// burned retries or dead-lettered tasks.
    #[test]
    fn deterministic_masks_the_fault_counters() {
        let mut faulted = sample();
        let clean = sample();
        faulted.faults = FaultMetrics {
            map_retries: 5,
            reduce_retries: 2,
            dlq_len: 4,
        };
        assert_eq!(faulted.faults.retries(), 7);
        assert_ne!(faulted, clean);
        assert_eq!(faulted.deterministic(), clean.deterministic());
        // Masking faults must not hide a genuine output divergence.
        faulted.distinct_keys += 1;
        assert_ne!(faulted.deterministic(), clean.deterministic());
    }

    #[test]
    fn load_statistics() {
        let m = sample();
        assert_eq!(m.max_reducer_load(), 300);
        // Nonzero loads: 100, 300, 100 → mean 166.67, imbalance 1.8.
        assert!((m.load_imbalance() - 1.8).abs() < 1e-9);
    }
}
