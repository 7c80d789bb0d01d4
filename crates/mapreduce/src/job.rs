//! The job runner: map → shuffle → reduce with full accounting.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::checkpoint::{self, CheckpointSession, Fingerprint};
use crate::cluster::{ClusterConfig, DlqMode, FaultStage, Schedule, ShuffleMode, TaskCost};
use crate::error::SimError;
use crate::fnv::FnvBuildHasher;
use crate::metrics::JobMetrics;
use crate::record::ByteSized;
use crate::router::Router;
use crate::sink::{NullSink, PartitionSink};
use crate::traits::{Emitter, Mapper, Reducer};

/// Key-value pairs produced by one map invocation.
pub(crate) type MapOutput<M> = Vec<(<M as Mapper>::Key, <M as Mapper>::Value)>;

/// What every path's reduce side hands back, built one partition at a
/// time by [`Job::accept_partitions`] in ascending partition order:
/// outputs in (partition, key, arrival) order, per-nonempty-partition
/// reduce costs, and the dead-letter queue.
pub(crate) struct Reduced<Out> {
    pub(crate) outputs: Vec<Out>,
    pub(crate) costs: Vec<TaskCost>,
    pub(crate) dlq: Vec<DlqEntry>,
}

/// One reducer partition's load as the map side routed it: the copies,
/// their value bytes (the paper's reducer load) and their key + value
/// bytes (what the shuffle moves and the reduce task's cost is billed
/// on). Copies the checkpoint makes unnecessary to ship still count.
/// Every count saturates at `u64::MAX` instead of wrapping, as the
/// planner's cost model does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PartitionLoad {
    pub(crate) records: u64,
    pub(crate) value_bytes: u64,
    pub(crate) total_bytes: u64,
}

impl PartitionLoad {
    /// Counts one routed copy.
    pub(crate) fn add(&mut self, key_bytes: u64, value_bytes: u64) {
        self.merge(&PartitionLoad {
            records: 1,
            value_bytes,
            total_bytes: key_bytes.saturating_add(value_bytes),
        });
    }

    /// Folds in another share of the same partition's load.
    pub(crate) fn merge(&mut self, other: &PartitionLoad) {
        self.records = self.records.saturating_add(other.records);
        self.value_bytes = self.value_bytes.saturating_add(other.value_bytes);
        self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);
    }
}

/// Ships one routed record to each target in `shipped`, in order: a clone
/// for every target but the last, which takes the record itself. A record
/// bound for one partition is thus moved end to end, and the only copies
/// made are the replication the router asked for.
pub(crate) fn fan_out<K: Clone, V: Clone>(
    key: K,
    value: V,
    shipped: impl Iterator<Item = usize>,
    mut ship: impl FnMut(usize, K, V),
) {
    let mut shipped = shipped.peekable();
    while let Some(target) = shipped.next() {
        if shipped.peek().is_none() {
            ship(target, key, value);
            return;
        }
        ship(target, key.clone(), value.clone());
    }
}

/// The index ranges of the runs of equal keys in `keys`, in order. With
/// `keys` sorted, each run holds every copy of one key.
fn key_runs<K: Eq>(keys: &[K]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let first = keys.get(start)?;
        let len = keys[start..].iter().take_while(|&key| key == first).count();
        start += len;
        Some(start - len..start)
    })
}

/// The map side's deterministic accounting, complete at the map barrier:
/// everything the metrics, the capacity policy and the reduce side need
/// from the map phase. Both engines build one. A checkpointed run commits
/// it once as the map record, and a rerun whose every nonempty partition
/// is committed replays the job from it without running a map task. It
/// holds no simulated time: [`JobMetrics::simulate`] derives those from
/// these counts and the cluster config, as a fresh run does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MapSummary {
    pub(crate) records_emitted: u64,
    pub(crate) map_retries: u64,
    /// Map-stage dead-letter entries, sorted by task index.
    pub(crate) dlq: Vec<DlqEntry>,
    /// One load per reducer partition. Records and bytes shuffled are
    /// their sums.
    pub(crate) loads: Vec<PartitionLoad>,
}

impl MapSummary {
    /// The summary of no map task, over `n_reducers` partitions.
    pub(crate) fn new(n_reducers: usize) -> Self {
        MapSummary {
            records_emitted: 0,
            map_retries: 0,
            dlq: Vec::new(),
            loads: vec![PartitionLoad::default(); n_reducers],
        }
    }

    /// Folds in another map thread's share of the same job's map side.
    pub(crate) fn merge(&mut self, other: MapSummary) {
        self.records_emitted += other.records_emitted;
        self.map_retries += other.map_retries;
        self.dlq.extend(other.dlq);
        self.dlq.sort();
        for (total, load) in self.loads.iter_mut().zip(&other.loads) {
            total.merge(load);
        }
    }
}

/// One reducer partition's finished reduce task, as [`Job::reduce_task`]
/// hands it back. Carries the fault-layer disposition too: a
/// dead-lettered partition has `dlq_attempts` set (and no outputs), a
/// failed one carries `failed`.
pub(crate) struct FinalizedPartition<Out> {
    pub(crate) partition: usize,
    pub(crate) distinct_keys: u64,
    pub(crate) outputs: Vec<Out>,
    /// `Some(attempts)` when the partition exhausted its retry budget
    /// under [`DlqMode::Capture`].
    pub(crate) dlq_attempts: Option<u32>,
    /// The `RetriesExhausted` error under [`DlqMode::Fail`], or the error
    /// the engine's record supplier returned (a [`SimError::SpillIo`]
    /// from streaming a spilled run back).
    pub(crate) failed: Option<SimError>,
    /// Injected faults this partition's task absorbed.
    pub(crate) retries: u64,
}

impl<Out> FinalizedPartition<Out> {
    /// A partition with known outputs and no fault disposition: one
    /// served from the checkpoint, or a task before it runs.
    pub(crate) fn new(partition: usize, outputs: Vec<Out>, distinct_keys: u64) -> Self {
        FinalizedPartition {
            partition,
            distinct_keys,
            outputs,
            dlq_attempts: None,
            failed: None,
            retries: 0,
        }
    }
}

/// One dead-lettered task: a unit of work that exhausted its retry budget
/// under [`DlqMode::Capture`] and was dropped from the job instead of
/// failing it. Entries are reported sorted by (stage, index), so the DLQ
/// itself is deterministic and identical across shuffle modes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DlqEntry {
    /// Which stage the exhausted task belonged to.
    pub stage: FaultStage,
    /// Map task index (input index) or reducer partition.
    pub index: usize,
    /// Total attempts made before giving up (the retry budget plus one).
    pub attempts: u32,
}

/// How the fault-injection layer disposed of one task: run it (after
/// `retries` absorbed failures), drop it to the DLQ, or fail the job.
pub(crate) enum TaskVerdict {
    /// Some attempt under the budget survived; run the task for real.
    Run { retries: u32 },
    /// Every attempt failed and `dlq_mode` is `Capture`: dead-letter it.
    Dropped { retries: u32, attempts: u32 },
    /// Every attempt failed and `dlq_mode` is `Fail`: abort the job.
    Failed { error: SimError, retries: u32 },
}

/// Outcome of one map task after the attempt loop.
pub(crate) enum MapResolution<M: Mapper> {
    /// The task succeeded (possibly after retries) and emitted `pairs`.
    Done(MapOutput<M>),
    /// The task exhausted its budget under `Capture`; its records are
    /// dropped consistently in every shuffle mode.
    Dropped { attempts: u32 },
    /// The task exhausted its budget under `Fail`.
    Failed(SimError),
}

/// What to do about the reducer capacity `q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPolicy {
    /// No capacity accounting (classic MapReduce).
    Unlimited,
    /// Abort the job if any reducer's value bytes exceed `q` — the paper's
    /// hard constraint; a correct mapping schema never triggers it.
    Enforce(u64),
    /// Record violations in the metrics but keep running — used to show
    /// *why* naive schemes fail (e.g. hash joins under heavy hitters).
    Record(u64),
}

/// Everything a finished job returns: real outputs plus the metrics the
/// experiments plot.
#[derive(Debug, Clone)]
pub struct JobOutput<Out> {
    /// Reduce-phase outputs, in deterministic (reducer, key) order.
    pub outputs: Vec<Out>,
    /// Byte, record, and simulated-time accounting.
    pub metrics: JobMetrics,
    /// Dead-letter queue: tasks that exhausted their retry budget under
    /// [`DlqMode::Capture`], sorted by (stage, index). Empty without a
    /// fault plan or when every fault was absorbed by a retry.
    pub dlq: Vec<DlqEntry>,
}

/// A configured simulated MapReduce job.
///
/// Type parameters: `M` mapper, `R` reducer (sharing the mapper's key/value
/// types), `Rt` router. See the crate docs for a complete example.
#[derive(Debug, Clone)]
pub struct Job<M, R, Rt> {
    pub(crate) mapper: M,
    pub(crate) reducer: R,
    pub(crate) router: Rt,
    pub(crate) n_reducers: usize,
    pub(crate) config: ClusterConfig,
    pub(crate) capacity: CapacityPolicy,
}

impl<M, R, Rt> Job<M, R, Rt>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
    Rt: Router<M::Key>,
{
    /// Creates a job with unlimited reducer capacity.
    pub fn new(
        mapper: M,
        reducer: R,
        router: Rt,
        n_reducers: usize,
        config: ClusterConfig,
    ) -> Self {
        Job {
            mapper,
            reducer,
            router,
            n_reducers,
            config,
            capacity: CapacityPolicy::Unlimited,
        }
    }

    /// Sets the capacity policy (builder style).
    pub fn capacity(mut self, policy: CapacityPolicy) -> Self {
        self.capacity = policy;
        self
    }

    /// Number of reducer partitions this job shuffles into.
    pub fn n_reducers(&self) -> usize {
        self.n_reducers
    }

    /// Runs the job over `inputs`.
    ///
    /// Deterministic: outputs are ordered by (reducer partition, key,
    /// arrival order), and the deterministic metrics subset is identical
    /// across runs, thread counts, and [`ShuffleMode`]s.
    pub fn run(&self, inputs: &[M::In]) -> Result<JobOutput<R::Out>, SimError> {
        self.run_with_sink(inputs, &NullSink)
    }

    /// Runs the job, additionally announcing each finalized reduce
    /// partition through `sink` the moment it commits (ascending
    /// partition order — see [`PartitionSink`] for the full contract).
    /// The returned [`JobOutput`] is bit-identical to [`Job::run`]'s:
    /// the sink is a tap on the intermediate-data path, not a fork in
    /// it.
    pub fn run_with_sink(
        &self,
        inputs: &[M::In],
        sink: &dyn PartitionSink<R::Out>,
    ) -> Result<JobOutput<R::Out>, SimError> {
        self.config.validate()?;
        if self.n_reducers == 0 {
            return Err(SimError::NoReducers);
        }

        // Checkpointing: sweep crash leftovers, then open (or resume) the
        // session for this job's fingerprint. Everything output-affecting
        // goes into the fingerprint; see `checkpoint::Fingerprint`.
        let mut orphans_reclaimed = 0u64;
        let ckpt_session: Option<CheckpointSession<R::Out>> = match &self.config.checkpoint_dir {
            Some(base) => {
                const ORPHAN_MAX_AGE: std::time::Duration =
                    std::time::Duration::from_secs(24 * 60 * 60);
                orphans_reclaimed += checkpoint::sweep_orphans(base, ORPHAN_MAX_AGE);
                if let Some(spill_dir) = &self.config.spill_dir {
                    orphans_reclaimed += checkpoint::sweep_orphans(spill_dir, ORPHAN_MAX_AGE);
                }
                let fingerprint = Fingerprint::compute(
                    &self.config,
                    self.n_reducers,
                    &self.capacity,
                    std::any::type_name::<(M, R, Rt)>(),
                    inputs.iter(),
                );
                let session = CheckpointSession::open(base, fingerprint, self.n_reducers)?;
                if session.committed() > 0 {
                    eprintln!(
                        "mrassign: resuming from checkpoint: {} partition(s) already committed",
                        session.committed()
                    );
                }
                Some(session)
            }
            None => None,
        };
        let ckpt = ckpt_session.as_ref();

        let mut metrics = JobMetrics {
            inputs: inputs.len(),
            input_bytes: inputs
                .iter()
                .map(ByteSized::size_bytes)
                .fold(0, u64::saturating_add),
            reducers: self.n_reducers,
            capacity: match self.capacity {
                CapacityPolicy::Unlimited => None,
                CapacityPolicy::Enforce(q) | CapacityPolicy::Record(q) => Some(q),
            },
            ..JobMetrics::default()
        };
        let map_costs: Vec<TaskCost> = inputs
            .iter()
            .map(|input| TaskCost(self.config.map_task_seconds(self.mapper.cost_bytes(input))))
            .collect();

        let mut reduced = match ckpt.and_then(CheckpointSession::replayable) {
            // The checkpoint holds the map record and every nonempty
            // partition, all verified: serve the job from it without
            // running a map task, the shuffle or a reduce.
            Some(summary) => {
                self.apply_map_summary(summary, ckpt, &mut metrics)?;
                self.accept_partitions(summary, ckpt, &mut metrics, sink, |p| {
                    unreachable!("a replayable checkpoint verified nonempty partition {p}")
                })?
            }
            None => match self.config.shuffle {
                ShuffleMode::Materialized => {
                    self.run_materialized(inputs, &mut metrics, ckpt, sink)?
                }
                ShuffleMode::Pipelined => self.run_pipelined(inputs, &mut metrics, ckpt, sink)?,
            },
        };
        // Folded after the dispatch because the pipelined engine rebuilds
        // `metrics.pipeline` wholesale.
        if let Some(session) = ckpt {
            session.fold_into(&mut metrics.pipeline);
        }
        metrics.pipeline.orphans_reclaimed += orphans_reclaimed;
        metrics.outputs = reduced.outputs.len();
        reduced.dlq.sort();
        metrics.faults.dlq_len = reduced.dlq.len() as u64;

        metrics.simulate(
            &self.config,
            &Schedule::lpt(&map_costs, self.config.workers),
            &Schedule::lpt(&reduced.costs, self.config.workers),
        );

        Ok(JobOutput {
            outputs: reduced.outputs,
            metrics,
            dlq: reduced.dlq,
        })
    }

    /// Disposes of one task under the fault plan: kills the worker if the
    /// task is on a kill list, else walks the attempt loop until an
    /// attempt survives or the retry budget is gone.
    ///
    /// Check-first by design: a fault preempts the attempt *before* any
    /// user code runs, so injected failures flow through `Result` values
    /// and never unwind — the pipelined engine's unwind paths stay
    /// reserved for true user-code panics.
    pub(crate) fn fault_verdict(&self, stage: FaultStage, index: usize) -> TaskVerdict {
        let Some(plan) = &self.config.fault_plan else {
            return TaskVerdict::Run { retries: 0 };
        };
        // Process-level fault injection: a kill is worker *death*, not a
        // transient task failure — it unwinds instead of flowing through
        // `Result`, exactly like a real crash, and the pipelined engine's
        // unwind paths (channel endpoints dropping with their thread,
        // finalize threads that share nothing but their take order) absorb
        // it so sibling threads drain instead of deadlocking. Tests kill a
        // job mid-run, then re-run the same checkpoint dir without the
        // kill list (the job fingerprint excludes it) to prove resume
        // skips the completed partitions.
        if plan.kills(stage, index) {
            panic!(
                "fault injection: worker killed during {} task {index}",
                stage.name()
            );
        }
        let budget = self.config.retry_budget;
        let mut attempt = 0u32;
        loop {
            if !plan.fires(stage, index, attempt) {
                return TaskVerdict::Run { retries: attempt };
            }
            if attempt >= budget {
                let attempts = budget + 1;
                return match self.config.dlq_mode {
                    DlqMode::Capture => TaskVerdict::Dropped {
                        retries: budget,
                        attempts,
                    },
                    DlqMode::Fail => TaskVerdict::Failed {
                        error: SimError::RetriesExhausted {
                            stage,
                            index,
                            attempts,
                        },
                        retries: budget,
                    },
                };
            }
            attempt += 1;
        }
    }

    /// Runs the attempt loop for one map task and, if an attempt survives,
    /// the task itself. Returns the resolution plus the retries burned.
    fn resolve_map_task(&self, index: usize, input: &M::In) -> (MapResolution<M>, u64) {
        match self.fault_verdict(FaultStage::Map, index) {
            TaskVerdict::Run { retries } => {
                (MapResolution::Done(self.map_one(input)), u64::from(retries))
            }
            TaskVerdict::Dropped { retries, attempts } => {
                (MapResolution::Dropped { attempts }, u64::from(retries))
            }
            TaskVerdict::Failed { error, retries } => {
                (MapResolution::Failed(error), u64::from(retries))
            }
        }
    }

    /// Classic shuffle: every partition materialized in memory, then reduced
    /// in partition order.
    fn run_materialized(
        &self,
        inputs: &[M::In],
        metrics: &mut JobMetrics,
        ckpt: Option<&CheckpointSession<R::Out>>,
        sink: &dyn PartitionSink<R::Out>,
    ) -> Result<Reduced<R::Out>, SimError> {
        let (map_results, map_retries) = self.run_map_phase(inputs);
        let served = self.served_mask(ckpt);
        let mut summary = MapSummary {
            map_retries,
            ..MapSummary::new(self.n_reducers)
        };
        let mut partitions: Vec<Vec<(M::Key, M::Value)>> =
            (0..self.n_reducers).map(|_| Vec::new()).collect();
        let mut targets: Vec<usize> = Vec::new();

        // Walking resolutions in task order keeps error precedence
        // identical across modes: the lowest task with either an exhausted
        // budget or a routing error decides the job's error.
        for (index, resolution) in map_results.into_iter().enumerate() {
            let pairs = match resolution {
                MapResolution::Done(pairs) => pairs,
                MapResolution::Dropped { attempts } => {
                    summary.dlq.push(DlqEntry {
                        stage: FaultStage::Map,
                        index,
                        attempts,
                    });
                    continue;
                }
                MapResolution::Failed(error) => return Err(error),
            };
            summary.records_emitted += pairs.len() as u64;
            for (key, value) in pairs {
                self.route_into(&key, &mut targets)?;
                let key_bytes = key.size_bytes();
                let value_bytes = value.size_bytes();
                for &t in &targets {
                    summary.loads[t].add(key_bytes, value_bytes);
                }
                let shipped = targets.iter().copied().filter(|&t| !served[t]);
                fan_out(key, value, shipped, |t, key, value| {
                    partitions[t].push((key, value));
                });
            }
        }
        self.apply_map_summary(&summary, ckpt, metrics)?;

        // Each partition is accepted (and so reaches the sink) the moment
        // its task finishes, so a kill at partition k lands after every
        // nonempty partition below k has committed.
        self.accept_partitions(&summary, ckpt, metrics, sink, |r| {
            let records = std::mem::take(&mut partitions[r]);
            self.reduce_task(r, ckpt, || Ok(records))
        })
    }

    /// Which partitions `ckpt` verified. The engines count the copies
    /// routed to them but never ship them, and accept their committed
    /// outputs instead of reducing them.
    pub(crate) fn served_mask(&self, ckpt: Option<&CheckpointSession<R::Out>>) -> Vec<bool> {
        ckpt.map_or_else(
            || vec![false; self.n_reducers],
            |session| session.verified().to_vec(),
        )
    }

    /// One reducer partition's reduce task, shared by both engines:
    /// reduce fault verdict → reduce → checkpoint commit. A partition the
    /// checkpoint serves never gets here, so no verdict fires for it.
    ///
    /// `records` supplies the partition's records in arrival order and is
    /// called only when the task really runs; an error from it fails the
    /// partition. Retry and error side effects are left to the caller.
    pub(crate) fn reduce_task(
        &self,
        partition: usize,
        ckpt: Option<&CheckpointSession<R::Out>>,
        records: impl FnOnce() -> Result<Vec<(M::Key, M::Value)>, SimError>,
    ) -> FinalizedPartition<R::Out> {
        let mut part = FinalizedPartition::new(partition, Vec::new(), 0);
        let mut fresh = false;
        match self.fault_verdict(FaultStage::Reduce, partition) {
            TaskVerdict::Run { retries } => {
                part.retries = u64::from(retries);
                match records() {
                    Ok(records) => {
                        part.distinct_keys = self.reduce_partition(records, &mut part.outputs);
                        fresh = true;
                    }
                    Err(error) => part.failed = Some(error),
                }
            }
            TaskVerdict::Dropped { retries, attempts } => {
                part.retries = u64::from(retries);
                part.dlq_attempts = Some(attempts);
            }
            TaskVerdict::Failed { error, retries } => {
                part.retries = u64::from(retries);
                part.failed = Some(error);
            }
        }
        // Only fresh work is persisted: dead-lettered and failed
        // partitions are not committed.
        if let Some(session) = ckpt.filter(|_| fresh) {
            session.record(partition, &part.outputs, part.distinct_keys);
        }
        part
    }

    /// Accepts every nonempty partition into the job in ascending order —
    /// the step both engines and a checkpoint replay share, and the sink's
    /// ordering contract. A partition the checkpoint verified is served
    /// from it and counts as a hit; any other comes from `execute`, the
    /// engine's own task for it, and counts as a miss.
    ///
    /// A failed partition returns its error. A dead-lettered one counts as
    /// nonempty (data reached it) but adds only its DLQ entry; any other
    /// adds its reduce cost and distinct keys, goes to the sink, and
    /// appends its outputs.
    pub(crate) fn accept_partitions(
        &self,
        summary: &MapSummary,
        ckpt: Option<&CheckpointSession<R::Out>>,
        metrics: &mut JobMetrics,
        sink: &dyn PartitionSink<R::Out>,
        mut execute: impl FnMut(usize) -> FinalizedPartition<R::Out>,
    ) -> Result<Reduced<R::Out>, SimError> {
        let mut reduced = Reduced {
            outputs: Vec::new(),
            costs: Vec::new(),
            dlq: summary.dlq.clone(),
        };
        for (p, load) in summary.loads.iter().enumerate() {
            if load.records == 0 {
                continue;
            }
            let part = match ckpt.and_then(|session| session.lookup(p)) {
                Some((outputs, distinct_keys)) => {
                    FinalizedPartition::new(p, outputs, distinct_keys)
                }
                None => execute(p),
            };
            metrics.faults.reduce_retries += part.retries;
            if let Some(error) = part.failed {
                return Err(error);
            }
            metrics.nonempty_reducers += 1;
            if let Some(attempts) = part.dlq_attempts {
                reduced.dlq.push(DlqEntry {
                    stage: FaultStage::Reduce,
                    index: p,
                    attempts,
                });
                continue;
            }
            metrics.distinct_keys += part.distinct_keys;
            reduced
                .costs
                .push(TaskCost(self.config.reduce_task_seconds(load.total_bytes)));
            sink.partition(p, &part.outputs, part.distinct_keys);
            reduced.outputs.extend(part.outputs);
        }
        Ok(reduced)
    }

    /// Routes `key`, leaving the sorted, deduplicated, range-checked target
    /// list in `targets` (reused across calls to avoid allocation).
    pub(crate) fn route_into(
        &self,
        key: &M::Key,
        targets: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        targets.clear();
        self.router.route(key, self.n_reducers, targets);
        targets.sort_unstable();
        targets.dedup();
        for &t in targets.iter() {
            if t >= self.n_reducers {
                return Err(SimError::RouteOutOfRange {
                    target: t,
                    n_reducers: self.n_reducers,
                });
            }
        }
        Ok(())
    }

    /// The map barrier, one step for both engines and a checkpoint
    /// replay: commits the map side's accounting as the map record (a
    /// no-op when the session already holds one), books it into
    /// `metrics` and applies the capacity policy to the per-reducer
    /// loads. Every caller runs it before any partition is reduced, so a
    /// job that breaks its capacity reduces and commits nothing.
    pub(crate) fn apply_map_summary(
        &self,
        summary: &MapSummary,
        ckpt: Option<&CheckpointSession<R::Out>>,
        metrics: &mut JobMetrics,
    ) -> Result<(), SimError> {
        if let Some(session) = ckpt {
            session.record_map(summary);
        }
        metrics.records_emitted = summary.records_emitted;
        let mut shuffled = PartitionLoad::default();
        for load in &summary.loads {
            shuffled.merge(load);
        }
        metrics.records_shuffled = shuffled.records;
        metrics.bytes_shuffled = shuffled.total_bytes;
        metrics.faults.map_retries = summary.map_retries;
        metrics.reducer_value_bytes = summary.loads.iter().map(|l| l.value_bytes).collect();
        match self.capacity {
            CapacityPolicy::Unlimited => {}
            CapacityPolicy::Enforce(q) => {
                for (r, &load) in metrics.reducer_value_bytes.iter().enumerate() {
                    if load > q {
                        return Err(SimError::CapacityExceeded {
                            reducer: r,
                            load,
                            capacity: q,
                        });
                    }
                }
            }
            CapacityPolicy::Record(q) => {
                metrics.capacity_violations = metrics
                    .reducer_value_bytes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &load)| load > q)
                    .map(|(r, _)| r)
                    .collect();
            }
        }
        Ok(())
    }

    /// Reduces one partition: group by key (stable sort keeps same-key
    /// values in arrival order, so reduce() sees a deterministic value
    /// list), then split the keys from the values, so each key's values
    /// are a borrowed slice and no record is cloned. Returns the number
    /// of distinct keys reduced — callers fold it into their metrics,
    /// which lets the pipelined engine call this from consumer threads
    /// without sharing a `JobMetrics`.
    pub(crate) fn reduce_partition(
        &self,
        mut partition: Vec<(M::Key, M::Value)>,
        outputs: &mut Vec<R::Out>,
    ) -> u64 {
        partition.sort_by(|a, b| a.0.cmp(&b.0));
        let (keys, values): (Vec<M::Key>, Vec<M::Value>) = partition.into_iter().unzip();
        let mut distinct_keys = 0;
        for run in key_runs(&keys) {
            distinct_keys += 1;
            self.reducer.reduce(&keys[run.start], &values[run], outputs);
        }
        distinct_keys
    }

    /// The materialized shuffle's map phase: every task goes through the
    /// fault layer's attempt loop and, if an attempt survives, `map_one` —
    /// on `config.map_threads` OS threads when there are several. (With
    /// no fault plan the verdict is an immediate `Run`.) Resolutions are
    /// slotted by input index, so ordering, and therefore all downstream
    /// accounting, is independent of thread interleaving. Returns the
    /// per-task resolutions plus the total retries burned.
    fn run_map_phase(&self, inputs: &[M::In]) -> (Vec<MapResolution<M>>, u64) {
        let threads = self.config.map_threads.max(1);
        if threads == 1 || inputs.len() < 2 {
            let mut retries = 0u64;
            let resolutions = inputs
                .iter()
                .enumerate()
                .map(|(index, input)| {
                    let (resolution, r) = self.resolve_map_task(index, input);
                    retries += r;
                    resolution
                })
                .collect();
            return (resolutions, retries);
        }

        let slots: Mutex<Vec<Option<MapResolution<M>>>> =
            Mutex::new((0..inputs.len()).map(|_| None).collect());
        let retries = AtomicU64::new(0);
        let chunk = inputs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, chunk_inputs) in inputs.chunks(chunk).enumerate() {
                let slots = &slots;
                let retries = &retries;
                let job = &self;
                scope.spawn(move || {
                    let base = t * chunk;
                    // Map the whole chunk locally, then take the lock once.
                    let mut local: Vec<(usize, MapResolution<M>)> =
                        Vec::with_capacity(chunk_inputs.len());
                    let mut local_retries = 0u64;
                    for (off, input) in chunk_inputs.iter().enumerate() {
                        let (resolution, r) = job.resolve_map_task(base + off, input);
                        local_retries += r;
                        local.push((base + off, resolution));
                    }
                    retries.fetch_add(local_retries, Ordering::Relaxed);
                    let mut guard = slots.lock().expect("map slot lock poisoned");
                    for (idx, resolution) in local {
                        guard[idx] = Some(resolution);
                    }
                });
            }
        });
        let resolutions = slots
            .into_inner()
            .expect("map slot lock poisoned")
            .into_iter()
            .map(|slot| slot.expect("every map slot filled"))
            .collect();
        (resolutions, retries.into_inner())
    }

    /// One map task: emit, then group the pairs by key and apply the
    /// optional map-side combiner to each key emitted at least twice, in
    /// ascending key order. Each key's values keep their emission order,
    /// so reducers observe identical value lists whether or not a
    /// combiner is configured. A task of fewer than
    /// [`HASH_GROUPING_MIN_PAIRS`] pairs groups by a stable sort, a larger
    /// one by hash; both make the same `combine` calls and return the
    /// same pairs. Every surviving pair, or a key's combined value, is
    /// moved into the output once.
    pub(crate) fn map_one(&self, input: &M::In) -> MapOutput<M> {
        let mut emitter = Emitter::new();
        self.mapper.map(input, &mut emitter);
        let pairs = emitter.into_pairs();
        if pairs.len() < HASH_GROUPING_MIN_PAIRS {
            group_by_sort(&self.mapper, pairs)
        } else {
            group_by_hash(&self.mapper, pairs)
        }
    }
}

/// Pairs a map task must emit before [`Job::map_one`] groups them by hash
/// instead of a stable sort: the measured crossover. Timed one task at a
/// time on a 2-vCPU host, sort and hash alternating, medians of 41
/// batches: with word count's `String` keys (a Zipf vocabulary of 400)
/// the hash path took 1.15× the sort's time at 256 pairs, 1.00× at 384,
/// 0.99× at 512, 0.86× at 768 and 0.62× at 17k; on a 3-pair task it took
/// 3.2×. `u64` keys compare so cheaply that hashing never won up to 17k
/// pairs (1.03–1.13× with 90% of the pairs on one key, 1.09–1.72× on Zipf
/// keys).
const HASH_GROUPING_MIN_PAIRS: usize = 512;

/// Groups a task's pairs by a stable sort on the key, then combines.
fn group_by_sort<M: Mapper>(mapper: &M, mut pairs: MapOutput<M>) -> MapOutput<M> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    // The combiner only sees keys emitted at least twice: with no
    // repeated key, the sorted pairs are the output.
    if !pairs.windows(2).any(|w| w[0].0 == w[1].0) {
        return pairs;
    }
    let (keys, values): (Vec<M::Key>, Vec<M::Value>) = pairs.into_iter().unzip();
    let runs: Vec<usize> = key_runs(&keys).map(|run| run.len()).collect();
    combine_runs(mapper, keys, values, runs)
}

/// Groups a task's pairs by hash into the order [`group_by_sort`]'s
/// stable sort leaves them in, then combines. One pass numbers each key's
/// group by first appearance, only the distinct keys are sorted, and a
/// counting scatter lays out, in key order, the index of every pair,
/// each key's in emission order. The pairs are then moved out in that
/// order, once each.
fn group_by_hash<M: Mapper>(mapper: &M, pairs: MapOutput<M>) -> MapOutput<M> {
    let n = pairs.len();
    let mut group_of: Vec<usize> = Vec::with_capacity(n);
    // Per group, in order of first appearance: that first pair's index,
    // and how many pairs share its key.
    let mut firsts: Vec<usize> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    // FNV-1a, not std's keyed SipHash: a 17k-pair word-count task grouped
    // in 14% less time with it. Keys crafted to collide under FNV-1a can
    // slow a task down, but never change its output, which follows the
    // keys' order, not their hashes.
    let mut groups: HashMap<&M::Key, usize, FnvBuildHasher> = HashMap::default();
    // A pair whose key equals the previous pair's joins its group without
    // hashing, which makes a skewed task's hot key cheap.
    let mut last: Option<(&M::Key, usize)> = None;
    for (i, (key, _)) in pairs.iter().enumerate() {
        let g = match last {
            Some((previous, g)) if previous == key => g,
            _ => *groups.entry(key).or_insert_with(|| {
                firsts.push(i);
                sizes.push(0);
                firsts.len() - 1
            }),
        };
        last = Some((key, g));
        sizes[g] += 1;
        group_of.push(g);
    }
    drop(groups);
    let mut order: Vec<usize> = (0..firsts.len()).collect();
    order.sort_unstable_by(|&a, &b| pairs[firsts[a]].0.cmp(&pairs[firsts[b]].0));
    // Each group's next free position in key order.
    let mut next = vec![0; firsts.len()];
    let mut at = 0;
    for &g in &order {
        next[g] = at;
        at += sizes[g];
    }
    let mut source = vec![0; n];
    for (i, g) in group_of.into_iter().enumerate() {
        source[next[g]] = i;
        next[g] += 1;
    }
    let mut slots: Vec<Option<(M::Key, M::Value)>> = pairs.into_iter().map(Some).collect();
    let sorted = source
        .into_iter()
        .map(|i| slots[i].take().expect("each pair is laid out once"));
    // The combiner only sees keys emitted at least twice.
    if firsts.len() == n {
        return sorted.collect();
    }
    let (keys, values): (Vec<M::Key>, Vec<M::Value>) = sorted.unzip();
    let runs: Vec<usize> = order.iter().map(|&g| sizes[g]).collect();
    combine_runs(mapper, keys, values, runs)
}

/// Applies `mapper`'s combiner to grouped pairs: `keys` and `values` hold
/// consecutive runs of one key each, of the lengths in `runs`. Each run
/// of two or more is offered to `combine` as a borrowed value slice, in
/// run order; then each pair, or a run's first key with its combined
/// value, is moved into the output once.
fn combine_runs<M: Mapper>(
    mapper: &M,
    keys: Vec<M::Key>,
    values: Vec<M::Value>,
    runs: Vec<usize>,
) -> MapOutput<M> {
    let mut start = 0;
    let verdicts: Vec<Option<M::Value>> = runs
        .iter()
        .map(|&len| {
            let run = start..start + len;
            start += len;
            if len >= 2 {
                mapper.combine(&keys[run.start], &values[run])
            } else {
                None
            }
        })
        .collect();
    let mut combined: MapOutput<M> = Vec::with_capacity(keys.len());
    let (mut keys, mut values) = (keys.into_iter(), values.into_iter());
    for (len, merged) in runs.into_iter().zip(verdicts) {
        let mut run_keys = keys.by_ref().take(len);
        let run_values = values.by_ref().take(len);
        match merged {
            Some(value) => {
                let key = run_keys.next().expect("a run holds at least one key");
                combined.push((key, value));
                run_keys.for_each(drop);
                run_values.for_each(drop);
            }
            None => combined.extend(run_keys.zip(run_values)),
        }
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{BroadcastRouter, HashRouter, TableRouter};

    /// Identity mapper: key = input id, value = payload bytes.
    struct IdentityMapper;
    impl Mapper for IdentityMapper {
        type In = (u64, String);
        type Key = u64;
        type Value = String;
        fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, String>) {
            emit.emit(input.0, input.1.clone());
        }
    }

    /// Concatenating reducer, for observing grouped values.
    struct ConcatReducer;
    impl Reducer for ConcatReducer {
        type Key = u64;
        type Value = String;
        type Out = (u64, String);
        fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
            out.push((*key, values.concat()));
        }
    }

    fn sample_inputs() -> Vec<(u64, String)> {
        vec![
            (1, "aa".to_string()),
            (2, "bbb".to_string()),
            (1, "c".to_string()),
            (3, "dddd".to_string()),
        ]
    }

    #[test]
    fn groups_values_by_key_in_arrival_order() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig::default(),
        );
        let result = job.run(&sample_inputs()).unwrap();
        let mut outputs = result.outputs;
        outputs.sort();
        assert_eq!(
            outputs,
            vec![
                (1, "aac".to_string()),
                (2, "bbb".to_string()),
                (3, "dddd".to_string())
            ]
        );
        assert_eq!(result.metrics.distinct_keys, 3);
        assert_eq!(result.metrics.records_emitted, 4);
        assert_eq!(result.metrics.records_shuffled, 4);
    }

    #[test]
    fn zero_reducers_is_an_error() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            0,
            ClusterConfig::default(),
        );
        assert_eq!(job.run(&sample_inputs()).unwrap_err(), SimError::NoReducers);
    }

    #[test]
    fn broadcast_multiplies_communication() {
        let n_red = 5;
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            BroadcastRouter,
            n_red,
            ClusterConfig::default(),
        );
        let result = job.run(&sample_inputs()).unwrap();
        assert_eq!(result.metrics.records_shuffled, 4 * n_red as u64);
        assert!((result.metrics.replication_rate() - n_red as f64).abs() < 1e-12);
        // Broadcast reduces every key in every partition: 3 keys × 5.
        assert_eq!(result.metrics.distinct_keys, 15);
    }

    #[test]
    fn enforce_capacity_aborts_on_overload() {
        // All four values (2+3+1+4 = 10 bytes) go to one reducer.
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            TableRouter::new([(1u64, vec![0]), (2, vec![0]), (3, vec![0])]),
            1,
            ClusterConfig::default(),
        )
        .capacity(CapacityPolicy::Enforce(9));
        match job.run(&sample_inputs()) {
            Err(SimError::CapacityExceeded {
                reducer: 0,
                load: 10,
                capacity: 9,
            }) => {}
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn record_capacity_keeps_running() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            TableRouter::new([(1u64, vec![0]), (2, vec![0]), (3, vec![0])]),
            1,
            ClusterConfig::default(),
        )
        .capacity(CapacityPolicy::Record(9));
        let result = job.run(&sample_inputs()).unwrap();
        assert_eq!(result.metrics.capacity_violations, vec![0]);
        assert_eq!(result.outputs.len(), 3);
    }

    #[test]
    fn capacity_within_bounds_passes_enforcement() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig::default(),
        )
        .capacity(CapacityPolicy::Enforce(1_000));
        let result = job.run(&sample_inputs()).unwrap();
        assert!(result.metrics.capacity_violations.is_empty());
    }

    #[test]
    fn out_of_range_route_is_an_error() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            TableRouter::new([(1u64, vec![7])]),
            2,
            ClusterConfig::default(),
        );
        assert_eq!(
            job.run(&sample_inputs()[..1]).unwrap_err(),
            SimError::RouteOutOfRange {
                target: 7,
                n_reducers: 2
            }
        );
    }

    #[test]
    fn duplicate_route_targets_are_deduplicated() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            TableRouter::new([(1u64, vec![0, 0, 1, 1, 0])]),
            2,
            ClusterConfig::default(),
        );
        let result = job.run(&sample_inputs()[..1]).unwrap();
        assert_eq!(result.metrics.records_shuffled, 2);
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let inputs: Vec<(u64, String)> =
            (0..200).map(|i| (i % 17, format!("payload-{i}"))).collect();
        let seq_job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            8,
            ClusterConfig {
                map_threads: 1,
                ..Default::default()
            },
        );
        let par_job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            8,
            ClusterConfig {
                map_threads: 4,
                ..Default::default()
            },
        );
        let a = seq_job.run(&inputs).unwrap();
        let b = par_job.run(&inputs).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.bytes_shuffled, b.metrics.bytes_shuffled);
        assert_eq!(a.metrics.reducer_value_bytes, b.metrics.reducer_value_bytes);
    }

    #[test]
    fn simulated_times_are_positive_and_consistent() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig::default(),
        );
        let m = job.run(&sample_inputs()).unwrap().metrics;
        assert!(m.map_makespan > 0.0);
        assert!(m.reduce_makespan > 0.0);
        assert!(m.total_seconds() <= m.serial_seconds + 1e-9);
        assert!(m.speedup() >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let job = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig::default(),
        );
        let result = job.run(&[]).unwrap();
        assert_eq!(result.outputs.len(), 0);
        assert_eq!(result.metrics.bytes_shuffled, 0);
        assert_eq!(result.metrics.total_seconds(), 0.0);
    }

    #[test]
    fn more_workers_never_slow_the_job() {
        let inputs: Vec<(u64, String)> = (0..64).map(|i| (i, "x".repeat(100))).collect();
        let mk = |workers| {
            Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                16,
                ClusterConfig {
                    workers,
                    ..Default::default()
                },
            )
            .run(&inputs)
            .unwrap()
            .metrics
            .total_seconds()
        };
        let t1 = mk(1);
        let t4 = mk(4);
        let t16 = mk(16);
        assert!(t4 <= t1 + 1e-9);
        assert!(t16 <= t4 + 1e-9);
    }
}

#[cfg(test)]
mod combiner_tests {
    use super::*;
    use crate::router::HashRouter;
    use crate::traits::{Emitter, Mapper, Reducer};

    /// Word-count-style mapper with a summing combiner.
    struct CountingMapper {
        combine_enabled: bool,
    }

    impl Mapper for CountingMapper {
        type In = String;
        type Key = String;
        type Value = u64;
        fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
            for word in line.split_whitespace() {
                emit.emit(word.to_string(), 1);
            }
        }
        fn combine(&self, _key: &String, values: &[u64]) -> Option<u64> {
            self.combine_enabled.then(|| values.iter().sum())
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        type Key = String;
        type Value = u64;
        type Out = (String, u64);
        fn reduce(&self, key: &String, values: &[u64], out: &mut Vec<(String, u64)>) {
            out.push((key.clone(), values.iter().sum()));
        }
    }

    fn repetitive_lines() -> Vec<String> {
        vec![
            "a a a a b".to_string(),
            "b b a a a".to_string(),
            "c a c a c".to_string(),
        ]
    }

    fn run_counting(combine_enabled: bool) -> JobOutput<(String, u64)> {
        Job::new(
            CountingMapper { combine_enabled },
            SumReducer,
            HashRouter::new(),
            4,
            ClusterConfig::default(),
        )
        .run(&repetitive_lines())
        .unwrap()
    }

    #[test]
    fn combiner_preserves_outputs() {
        let mut with = run_counting(true).outputs;
        let mut without = run_counting(false).outputs;
        with.sort();
        without.sort();
        assert_eq!(with, without);
        assert_eq!(
            with,
            vec![
                ("a".to_string(), 9),
                ("b".to_string(), 3),
                ("c".to_string(), 3)
            ]
        );
    }

    #[test]
    fn combiner_reduces_communication() {
        let with = run_counting(true).metrics;
        let without = run_counting(false).metrics;
        // 15 words shrink to one record per (task, distinct word): 6.
        assert_eq!(without.records_shuffled, 15);
        assert_eq!(with.records_shuffled, 6);
        assert!(with.bytes_shuffled < without.bytes_shuffled);
    }

    #[test]
    fn combiner_agrees_across_shuffle_modes() {
        use crate::cluster::ShuffleMode;
        let run = |shuffle| {
            Job::new(
                CountingMapper {
                    combine_enabled: true,
                },
                SumReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle,
                    ..ClusterConfig::default()
                },
            )
            .run(&repetitive_lines())
            .unwrap()
        };
        let m = run(ShuffleMode::Materialized);
        let p = run(ShuffleMode::Pipelined);
        assert_eq!(m.outputs, p.outputs);
        assert_eq!(m.metrics.deterministic(), p.metrics.deterministic());
    }

    #[test]
    fn combiner_is_per_task_not_global() {
        // "a" appears in all three lines: three combined records, one per
        // map task — combining never crosses task boundaries.
        let with = run_counting(true);
        assert_eq!(
            with.metrics.records_shuffled, 6,
            "a in 3 tasks + b in 2 tasks + c in 1 task = 6 combined records"
        );
    }

    /// A combiner may merge some keys of a task and keep others: each
    /// key's run comes out in key order, either as its one combined value
    /// or as every pair in emission order.
    #[test]
    fn combiner_verdicts_mix_within_one_task() {
        struct Selective;
        impl Mapper for Selective {
            type In = String;
            type Key = String;
            type Value = u64;
            fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
                for (position, word) in line.split_whitespace().enumerate() {
                    emit.emit(word.to_string(), position as u64);
                }
            }
            fn combine(&self, key: &String, values: &[u64]) -> Option<u64> {
                (key != "b").then(|| values.iter().sum())
            }
        }
        let job = Job::new(
            Selective,
            SumReducer,
            HashRouter::new(),
            2,
            ClusterConfig::default(),
        );
        let pairs = job.map_one(&"b a c b a b d".to_string());
        let expected = [("a", 5), ("b", 0), ("b", 3), ("b", 5), ("c", 2), ("d", 6)];
        let expected: Vec<(String, u64)> = expected
            .iter()
            .map(|&(key, value)| (key.to_string(), value))
            .collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn single_emission_skips_combiner_path() {
        struct OneShot;
        impl Mapper for OneShot {
            type In = String;
            type Key = String;
            type Value = u64;
            fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
                emit.emit(line.clone(), 1);
            }
            fn combine(&self, _k: &String, _v: &[u64]) -> Option<u64> {
                panic!("combine must not be called for single emissions");
            }
        }
        let job = Job::new(
            OneShot,
            SumReducer,
            HashRouter::new(),
            2,
            ClusterConfig::default(),
        );
        let out = job.run(&["x".to_string(), "y".to_string()]).unwrap();
        assert_eq!(out.outputs.len(), 2);
    }
}

/// The referee for [`Job::map_one`]'s hash grouping: on random emissions,
/// on both sides of [`HASH_GROUPING_MIN_PAIRS`], `group_by_hash` must
/// return exactly what the stable sort of `group_by_sort` returns and
/// make the same `combine` calls, with the same keys and value slices, in
/// the same order.
#[cfg(test)]
mod grouping_referee {
    use super::*;
    use crate::spill::SpillCodec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A combiner that logs every call and merges only some keys: a key
    /// whose first value is divisible by 3 keeps its pairs.
    struct Logged<K> {
        calls: Mutex<Vec<(K, Vec<u64>)>>,
    }

    impl<K> Logged<K> {
        fn new() -> Self {
            Logged {
                calls: Mutex::new(Vec::new()),
            }
        }
        fn calls(self) -> Vec<(K, Vec<u64>)> {
            self.calls.into_inner().expect("call log poisoned")
        }
    }

    impl<K> Mapper for Logged<K>
    where
        K: Ord + std::hash::Hash + Clone + Send + ByteSized + SpillCodec,
    {
        type In = u64;
        type Key = K;
        type Value = u64;
        fn map(&self, _input: &u64, _emit: &mut Emitter<K, u64>) {
            unreachable!("the referee groups emissions it builds itself")
        }
        fn combine(&self, key: &K, values: &[u64]) -> Option<u64> {
            let mut calls = self.calls.lock().expect("call log poisoned");
            calls.push((key.clone(), values.to_vec()));
            (!values[0].is_multiple_of(3)).then(|| values.iter().sum())
        }
    }

    /// Key shapes: many ties over a few keys, every key distinct, one key.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        TieHeavy,
        Distinct,
        AllEqual,
    }

    /// `n` random emissions of the given shape, as raw key numbers.
    fn emissions(shape: Shape, n: usize, rng: &mut StdRng) -> Vec<(u64, u64)> {
        let mut keys: Vec<u64> = match shape {
            Shape::TieHeavy => (0..n).map(|_| rng.random_range(0..12)).collect(),
            Shape::Distinct => (0..n as u64).map(|k| k * 7919 % 100_003).collect(),
            Shape::AllEqual => vec![42; n],
        };
        // Shuffle so that neither path meets pre-sorted keys.
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.random_range(0..=i));
        }
        keys.into_iter()
            .map(|key| (key, rng.random_range(0..1_000)))
            .collect()
    }

    /// Runs both paths on `pairs` and compares outputs and combine logs.
    fn assert_paths_agree<K>(pairs: Vec<(K, u64)>, label: &str)
    where
        K: Ord + std::hash::Hash + Clone + Send + ByteSized + SpillCodec + std::fmt::Debug,
    {
        let (by_sort, by_hash) = (Logged::new(), Logged::new());
        let sorted = group_by_sort(&by_sort, pairs.clone());
        let hashed = group_by_hash(&by_hash, pairs);
        assert_eq!(hashed, sorted, "{label}: outputs");
        assert_eq!(by_hash.calls(), by_sort.calls(), "{label}: combine calls");
    }

    #[test]
    fn hash_grouping_matches_the_stable_sort() {
        let cutoff = HASH_GROUPING_MIN_PAIRS;
        let sizes = [
            0,
            1,
            2,
            3,
            17,
            cutoff.saturating_sub(1),
            cutoff,
            cutoff + 1,
            4000,
        ];
        let mut rng = StdRng::seed_from_u64(19);
        for shape in [Shape::TieHeavy, Shape::Distinct, Shape::AllEqual] {
            for n in sizes {
                for round in 0..3 {
                    let raw = emissions(shape, n, &mut rng);
                    let label = format!("{shape:?} × {n} pairs × round {round}");
                    assert_paths_agree(raw.clone(), &format!("u64 keys, {label}"));
                    // Strings sort differently from the numbers they
                    // spell ("k10" < "k9"), and share prefixes.
                    let strings = raw
                        .into_iter()
                        .map(|(key, value)| (format!("k{key}"), value))
                        .collect();
                    assert_paths_agree(strings, &format!("String keys, {label}"));
                }
            }
        }
    }

    /// `map_one` takes the hash path from the cutoff on and the sort path
    /// below it; either way it returns what the sort path returns and
    /// makes the same `combine` calls.
    #[test]
    fn map_one_agrees_with_the_sort_path_around_the_cutoff() {
        struct Words(Logged<String>);
        impl Mapper for Words {
            type In = u64;
            type Key = String;
            type Value = u64;
            fn map(&self, n: &u64, emit: &mut Emitter<String, u64>) {
                for i in 0..*n {
                    emit.emit(format!("w{}", i * i % 37), i);
                }
            }
            fn combine(&self, key: &String, values: &[u64]) -> Option<u64> {
                self.0.combine(key, values)
            }
        }
        struct Sum;
        impl Reducer for Sum {
            type Key = String;
            type Value = u64;
            type Out = u64;
            fn reduce(&self, _key: &String, values: &[u64], out: &mut Vec<u64>) {
                out.push(values.iter().sum());
            }
        }
        let job = Job::new(
            Words(Logged::new()),
            Sum,
            crate::router::HashRouter::new(),
            1,
            ClusterConfig::default(),
        );
        let cutoff = HASH_GROUPING_MIN_PAIRS as u64;
        for n in [cutoff.saturating_sub(1), cutoff, cutoff + 1, 5 * cutoff] {
            let mut emitter = Emitter::new();
            job.mapper.map(&n, &mut emitter);
            let referee = Words(Logged::new());
            assert_eq!(
                job.map_one(&n),
                group_by_sort(&referee, emitter.into_pairs()),
                "{n} pairs: outputs"
            );
            let calls = std::mem::take(&mut *job.mapper.0.calls.lock().unwrap());
            assert_eq!(calls, referee.0.calls(), "{n} pairs: combine calls");
        }
    }
}
