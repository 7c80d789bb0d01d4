//! The overlapped pipeline engine behind [`ShuffleMode::Pipelined`].
//!
//! The materialized mode runs map → shuffle → reduce as strict phases:
//! the first reduce byte is processed only after the last map task
//! finishes.
//! This module replaces the passes with a **stage graph of scoped worker
//! threads connected by bounded MPSC channels** (`std::sync::mpsc::
//! sync_channel`, no external runtime — the engine stays dependency-free
//! and offline-friendly):
//!
//! ```text
//!   inputs ──► task queue (atomic cursor)
//!                │ pulled dynamically
//!      ┌─────────┼─────────┐
//!   mapper 1  mapper 2 … mapper T          T = map_threads
//!      │  map_one → route → partition-tagged Block { seq, records }
//!      │  (per-partition loads of every copy, folded in at retirement;
//!      │   the last mapper out commits a checkpoint's map record)
//!      └───┬────────┬──────┘
//!     bounded channel per consumer group (buffer = pipeline_depth − 1)
//!          │        │        ◄── back-pressure: a full channel blocks
//!          ▼        ▼            the sender until the consumer drains
//!   consumer 1 … consumer G               G = min(T, n_reducers)
//!      │  task-tagged records buffered per partition (overlaps live
//!      │  map tasks — the pipelining)
//!      │  … channels close when every mapper drops its senders …
//!      │  finalize: one stable sort by task per partition, group, reduce
//!      │  (static: own range only; stealing: shared LPT finalize queue)
//!      ▼
//!   per-partition outputs, slotted and concatenated in partition order
//! ```
//!
//! **Overlap.** While mapper threads are still producing, consumer threads
//! already drain blocks, account their bytes and buffer them per
//! partition (spilling under a budget) — the shuffle overlaps the map
//! phase the way a real MapReduce copy phase shadows its mappers.
//! `reduce()` itself must still wait for its partition to be complete
//! (any map task may yet route a record anywhere — that barrier is
//! inherent to correct MapReduce semantics), but it runs concurrently
//! across consumer groups the moment the channels close.
//! [`PipelineMetrics`] reports how much overlap a run actually achieved.
//!
//! **Back-pressure.** Every channel buffers
//! [`ClusterConfig::pipeline_depth`] − 1 blocks and a full channel blocks
//! its sender, so depth 1 is a rendezvous: a send returns only once the
//! consumer takes the block. A sender raises the in-flight gauge after
//! its send returns and the consumer lowers it right after `recv`, so
//! each channel counts at most `pipeline_depth` blocks sent and not yet
//! taken in (its buffer plus the block its consumer just received), and
//! the recorded `peak_inflight_blocks` is bounded by
//! `pipeline_depth × consumer groups`. Buffered records are bounded
//! separately by [`ClusterConfig::memory_budget`]: while a group drains,
//! it seals its largest partition buffer to disk whenever its residency
//! exceeds the budget. Finalize reads a partition's spilled runs back
//! whole, so each consumer thread holds one whole partition while it
//! sorts and reduces it — as a reducer in the paper's model receives
//! every input its outputs need.
//!
//! **Determinism.** Mappers pull tasks dynamically, so blocks arrive at a
//! consumer in arbitrary order — but every block carries the index of the
//! map task that produced it, and the consumer appends each record to its
//! partition's buffer tagged with that index. A map task sends one block
//! per group, so a task's records for one partition sit together in one
//! buffer, in emission order. Finalize appends the partition's spilled
//! runs to its resident buffer and restores exact (task, emission) order
//! with one stable sort by task. Combined with commutative per-partition
//! load accounting on the map side, the engine produces outputs and a
//! deterministic metrics subset bit-identical to
//! [`ShuffleMode::Materialized`], for every thread count, pipeline depth,
//! budget and [`FinalizeMode`]; only [`PipelineMetrics`] varies run to
//! run.
//!
//! **Finalize scheduling.** Once the channels close, each completed
//! partition still needs its sort + reduce. Both modes wrap each one in
//! the same finalize item and run it through the same function; the mode
//! only decides which thread takes an item. Under
//! [`FinalizeMode::Static`] every consumer finalizes exactly the
//! contiguous range it drained, in ascending partition order — which
//! serializes a hot group's whole range on one thread while its peers
//! idle, precisely the skew pathology the paper's load-balancing thesis
//! targets. Under
//! [`FinalizeMode::Stealing`] consumers publish their completed
//! partitions into a shared `FinalizeQueue` (popped
//! largest-bytes-first, the LPT rule the simulated scheduler itself
//! uses) and then *all* consumer threads steal work from it until the
//! queue is dry. Outputs stay slotted by partition index, so the
//! `JobOutput` is bit-identical either way; `stolen_partitions` and the
//! per-group finalize spans in [`PipelineMetrics`] record how much work
//! migrated.
//!
//! **Error paths.** A routing error does not tear the pipeline down
//! mid-flight: the offending task records its error keyed by task index
//! (the *lowest* index wins, matching the error the sequential pass would
//! have hit first), mappers skip later tasks, consumers keep draining
//! until the channels close — nobody blocks on a full channel, no thread
//! leaks (all are scoped), and the job returns the same [`SimError`] the
//! materialized mode returns. Capacity enforcement runs after the map stage
//! completes, on the same totals, in the same reducer order. *Panics* in
//! user code propagate rather than deadlock, because every channel
//! endpoint is owned by one thread and drops as that thread unwinds: an
//! unwinding mapper's senders drop, so `recv` still ends once every
//! mapper is gone, and an unwinding consumer's receiver drops, so every
//! send to it — including one blocked on its full channel — returns
//! `Err` and the mapper drops the block. The scope join then re-raises
//! the panic, exactly as the materialized mode does.
//!
//! **Checkpoint resume.** With a checkpoint session, mappers still count
//! every routed copy in the per-partition loads, so every deterministic
//! metric is recomputed, but they never clone or send a copy bound for a
//! partition the session verified. Such a partition is never finalized;
//! reassembly accepts its committed outputs in its place. The last mapper
//! thread to retire from a map phase without error commits the map
//! record before its senders drop, so the record precedes every partition
//! commit of the run.
//!
//! **Fault tolerance.** With a [`crate::FaultPlan`] configured, every map
//! task and finalize runs the fault-layer attempt loop first
//! (`Job::fault_verdict`): injected faults are *check-first* — they
//! preempt the attempt before any user code runs and flow through
//! `Result` values, never unwinding — so the unwind paths above stay
//! reserved for true user-code panics. A task that exhausts its budget is
//! dead-lettered (capture mode) or recorded as the job error keyed by the
//! lowest task index / partition, matching the sequential pass. Every map
//! task and every partition's finalize runs exactly once, on one thread.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::checkpoint::CheckpointSession;
use crate::cluster::{FaultStage, FinalizeMode};
use crate::error::SimError;
use crate::job::{
    fan_out, DlqEntry, FinalizedPartition, Job, MapSummary, PartitionLoad, Reduced, TaskVerdict,
};
use crate::metrics::{JobMetrics, PipelineMetrics};
use crate::record::ByteSized;
use crate::router::Router;
use crate::sink::PartitionSink;
use crate::spill::{self, SpillCodec, SpillError, SpilledRun};
use crate::traits::{Mapper, Reducer};

#[cfg(doc)]
use crate::cluster::{ClusterConfig, ShuffleMode};

/// Gauge of blocks sent into the stage channels and not yet taken in by
/// their consumers, with a high-water mark (see the module docs for why
/// the count per channel is at most `pipeline_depth`). A `recv` can lower
/// the gauge before the matching raise lands, so it is signed and may lag
/// the true count but never exceeds it. The block a consumer takes in was
/// itself in flight, so lowering records at least 1: a run that moved any
/// block reports a peak of at least one.
#[derive(Default)]
struct InflightGauge {
    current: AtomicI64,
    peak: AtomicI64,
}

impl InflightGauge {
    fn raise(&self) {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn lower(&self) {
        let before = self.current.fetch_sub(1, Ordering::Relaxed);
        self.peak.fetch_max(before.max(1), Ordering::Relaxed);
    }
}

/// The shared work-stealing finalize queue of [`FinalizeMode::Stealing`]:
/// consumers publish `(priority, item)` pairs as their channels close and
/// every consumer thread steals the highest-priority (largest-bytes)
/// pending item — LPT over finalize tasks, so a hot partition's neighbors
/// migrate to idle threads instead of queueing behind it. Equal
/// priorities pop in publish order, and a consumer publishes its range in
/// ascending partition order, so within a batch ties go to the lower
/// partition, as `Schedule::lpt_order` ranks them.
///
/// `steal` blocks while the queue is empty but publishers remain, and
/// returns `None` once every publisher finished and the queue drained —
/// or immediately after [`FinalizeQueue::abort`], which a panicking
/// consumer's [`FinalizePublisherGuard`] triggers so its peers drain out
/// instead of waiting forever on a publisher that will never arrive.
struct FinalizeQueue<T> {
    state: Mutex<FinalizeQueueInner<T>>,
    work_ready: Condvar,
}

struct FinalizeQueueInner<T> {
    items: Vec<(u64, T)>,
    publishers: usize,
    aborted: bool,
}

impl<T> FinalizeQueue<T> {
    fn new(publishers: usize) -> Self {
        FinalizeQueue {
            state: Mutex::new(FinalizeQueueInner {
                items: Vec::new(),
                publishers,
                aborted: false,
            }),
            work_ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FinalizeQueueInner<T>> {
        // Tolerate poisoning: the abort path runs mid-unwind and must not
        // double-panic; normal paths never panic while holding this lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, batch: Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let mut state = self.lock();
        state.items.extend(batch);
        drop(state);
        self.work_ready.notify_all();
    }

    /// Counts one publisher down; the last one wakes every stealer so it
    /// can observe end-of-work instead of waiting forever.
    fn finish_publishing(&self) {
        let mut state = self.lock();
        state.publishers -= 1;
        let done = state.publishers == 0;
        drop(state);
        if done {
            self.work_ready.notify_all();
        }
    }

    /// Poisons the queue (a consumer is unwinding): stealers drain out
    /// with `None` immediately. The job re-raises the panic at join.
    fn abort(&self) {
        self.lock().aborted = true;
        self.work_ready.notify_all();
    }

    fn steal(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if state.aborted {
                return None;
            }
            // Largest priority first; earliest-published wins ties so the
            // pop order is reproducible for equal-sized partitions.
            let mut best: Option<(usize, u64)> = None;
            for (idx, &(priority, _)) in state.items.iter().enumerate() {
                if best.is_none_or(|(_, b)| priority > b) {
                    best = Some((idx, priority));
                }
            }
            if let Some((idx, _)) = best {
                // `remove`, not `swap_remove`: the items behind `idx` must
                // keep their publish order for the tie rule above.
                return Some(state.items.remove(idx).1);
            }
            if state.publishers == 0 {
                return None;
            }
            state = self
                .work_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Ties a consumer thread to the finalize queue for the duration of its
/// finalize phase. Dropping it *without* [`FinalizePublisherGuard::finish`]
/// means the consumer is unwinding before it could publish — the guard
/// aborts the queue so sibling consumers blocked in `steal` drain out
/// (as a dropped receiver does for the stage channels).
struct FinalizePublisherGuard<'a, T> {
    queue: &'a FinalizeQueue<T>,
    finished: bool,
}

impl<'a, T> FinalizePublisherGuard<'a, T> {
    fn new(queue: &'a FinalizeQueue<T>) -> Self {
        FinalizePublisherGuard {
            queue,
            finished: false,
        }
    }

    fn finish(&mut self) {
        self.finished = true;
        self.queue.finish_publishing();
    }
}

impl<T> Drop for FinalizePublisherGuard<'_, T> {
    fn drop(&mut self) {
        if !self.finished {
            self.queue.abort();
        }
    }
}

/// A record tagged with its destination reducer partition (mapper side).
type Tagged<M> = (usize, <M as Mapper>::Key, <M as Mapper>::Value);

/// A record tagged with the index of the map task that produced it
/// (consumer side, awaiting the finalize sort).
type Seqed<M> = (usize, <M as Mapper>::Key, <M as Mapper>::Value);

/// One map task's records for one consumer group, tagged with the reducer
/// partition of every record and the producing task's index (`seq`) for
/// deterministic reassembly.
struct Block<K, V> {
    seq: usize,
    records: Vec<(usize, K, V)>,
}

/// One completed partition's buffer, queued for a (possibly stolen)
/// finalize. `owner` is the consumer group that drained it, which is what
/// `stolen_partitions` is counted against. The buffer owns its
/// [`SpilledRun`]s, so whichever thread finalizes it reads back the temp
/// files the owner sealed, and they are deleted when it is done.
struct FinalizeItem<M: Mapper> {
    partition: usize,
    owner: usize,
    buffer: PartitionBuffer<M>,
}

/// One partition's buffered state while its consumer drains: the resident
/// task-tagged records in arrival order, their `ByteSized` total (the
/// spill policy's ranking key), and the buffers already sealed to disk.
/// Sealing moves the whole resident buffer to one file, after a whole
/// block, so a task's records for the partition never span two sources.
struct PartitionBuffer<M: Mapper> {
    records: Vec<Seqed<M>>,
    resident_bytes: u64,
    spilled: Vec<SpilledRun>,
}

impl<M: Mapper> PartitionBuffer<M> {
    /// Whether any record reached this partition. Copies for a partition
    /// the checkpoint serves are never shipped, so such a partition stays
    /// empty here and is never finalized.
    fn is_empty(&self) -> bool {
        self.records.is_empty() && self.spilled.is_empty()
    }

    /// Key + value bytes buffered here, resident or spilled — the LPT
    /// priority of the partition's finalize. Saturates like every byte
    /// counter of the engine.
    fn bytes(&self) -> u64 {
        self.spilled
            .iter()
            .map(|run| run.bytes)
            .fold(self.resident_bytes, u64::saturating_add)
    }
}

/// Everything one consumer hands back: the partitions this *thread*
/// finalized (its own under static finalize; whatever it stole under
/// stealing), plus the group's overlap observation and finalize
/// wall-clock span.
struct GroupResult<Out> {
    finalized: Vec<FinalizedPartition<Out>>,
    overlap_blocks: u64,
    stolen: u64,
    finalize_start: f64,
    finalize_end: f64,
    spilled_runs: u64,
    spilled_bytes: u64,
    /// Highest buffered residency this group reached after each block's
    /// budget enforcement (the per-group bound `memory_budget` states).
    peak_buffered: u64,
    /// Most sources (spilled runs, plus the resident buffer if nonempty)
    /// one of this thread's finalizes read.
    merge_fanin: u64,
}

/// Restores a partition's arrival order — ascending map task, each
/// task's records in emission order, the order the materialized pass
/// produces — and strips the task tags. Each spilled run is read back
/// whole and appended to the resident records, then dropped, which
/// deletes its file; one stable sort by task then orders the lot. A
/// task's records for the partition sit contiguously in one source, so
/// the stable sort keeps their emission order. Disk and decode errors
/// surface as values for the caller to lift into [`SimError::SpillIo`].
fn restore_order<K: SpillCodec, V: SpillCodec>(
    mut records: Vec<(usize, K, V)>,
    spilled: Vec<SpilledRun>,
) -> Result<Vec<(K, V)>, SpillError> {
    records.reserve(spilled.iter().map(|run| run.records as usize).sum());
    for run in spilled {
        records.append(&mut spill::read_run(&run)?);
    }
    records.sort_by_key(|&(seq, _, _)| seq);
    Ok(records
        .into_iter()
        .map(|(_, key, value)| (key, value))
        .collect())
}

/// Shared mutable state of one pipelined run (everything the stages
/// coordinate through besides the channels themselves).
struct Coordination {
    /// Next input index to map — the dynamic task queue.
    next_task: AtomicUsize,
    /// Map tasks whose map + route work is complete — incremented
    /// *before* the task's blocks are sent, so `< n_inputs` means real
    /// map work is still in flight, which is exactly what the overlap
    /// counter samples (a final task's own blocks are not overlap).
    tasks_done: AtomicUsize,
    /// Lowest task index that hit a routing error or exhausted its retry
    /// budget (`usize::MAX` = none); mappers skip tasks above it so the
    /// pipeline drains fast.
    error_seq: AtomicUsize,
    /// The error carried by `error_seq`'s task.
    first_error: Mutex<Option<SimError>>,
    /// Lowest reducer partition whose finalize exhausted its retry budget
    /// under `Fail` mode — checked after the map error and capacity, the
    /// same precedence the sequential pass applies.
    reduce_error: Mutex<Option<(usize, SimError)>>,
    records_emitted: AtomicU64,
    blocks_sent: AtomicU64,
    map_retries: AtomicU64,
    /// Map-stage dead-letter entries (reduce-stage ones travel through
    /// [`FinalizedPartition`] so they stay slotted by partition).
    dlq: Mutex<Vec<DlqEntry>>,
    /// Per-partition loads of every resolved map task, shipped copies or
    /// not; each mapper thread folds its share in as it retires.
    loads: Mutex<Vec<PartitionLoad>>,
    /// Mapper threads still running. The one that retires it to zero
    /// observes every map task resolved.
    mappers_left: AtomicUsize,
    gauge: InflightGauge,
}

impl Coordination {
    fn new(n_reducers: usize, n_mappers: usize) -> Self {
        Coordination {
            next_task: AtomicUsize::new(0),
            tasks_done: AtomicUsize::new(0),
            error_seq: AtomicUsize::new(usize::MAX),
            first_error: Mutex::new(None),
            reduce_error: Mutex::new(None),
            records_emitted: AtomicU64::new(0),
            blocks_sent: AtomicU64::new(0),
            map_retries: AtomicU64::new(0),
            dlq: Mutex::new(Vec::new()),
            loads: Mutex::new(vec![PartitionLoad::default(); n_reducers]),
            mappers_left: AtomicUsize::new(n_mappers),
            gauge: InflightGauge::default(),
        }
    }

    /// The map side's accounting so far — complete once every mapper
    /// thread retired.
    fn map_summary(&self) -> MapSummary {
        let mut dlq = self.dlq.lock().expect("dlq slot poisoned").clone();
        dlq.sort();
        MapSummary {
            records_emitted: self.records_emitted.load(Ordering::Relaxed),
            map_retries: self.map_retries.load(Ordering::Relaxed),
            dlq,
            loads: self.loads.lock().expect("load totals poisoned").clone(),
        }
    }

    /// Records a routing error, keeping the one from the lowest task
    /// index — the error the sequential pass would have reported.
    fn record_error(&self, task: usize, error: SimError) {
        let mut slot = self.first_error.lock().expect("error slot poisoned");
        let current = self.error_seq.load(Ordering::Relaxed);
        if task < current || slot.is_none() {
            *slot = Some(error);
        }
        self.error_seq.fetch_min(task, Ordering::Relaxed);
    }

    /// Records a reduce-stage exhaustion, keeping the lowest partition —
    /// the error the sequential pass, walking partitions in ascending
    /// order, would have reported first.
    fn record_reduce_error(&self, partition: usize, error: SimError) {
        let mut slot = self
            .reduce_error
            .lock()
            .expect("reduce error slot poisoned");
        match &*slot {
            Some((current, _)) if *current <= partition => {}
            _ => *slot = Some((partition, error)),
        }
    }
}

/// One mapper thread's side of the stage graph: what it reads, its sender
/// into every consumer group, and its share of the per-partition loads
/// (only the map tasks this thread resolved count).
struct MapWorker<'a, M: Mapper> {
    inputs: &'a [M::In],
    per_group: usize,
    /// Partitions the checkpoint serves: their copies are counted in
    /// `loads` but never shipped.
    served: &'a [bool],
    channels: Vec<SyncSender<Block<M::Key, M::Value>>>,
    loads: Vec<PartitionLoad>,
}

impl<M, R, Rt> Job<M, R, Rt>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
    Rt: Router<M::Key>,
{
    /// Runs the overlapped pipeline described in the [module docs](self).
    ///
    /// Returns the reduce outputs in (partition, key, arrival) order and
    /// the per-nonempty-partition reduce costs in partition order —
    /// bit-identical to [`Job::run_materialized`]'s — and fills
    /// `metrics.pipeline` with the run's overlap counters.
    pub(crate) fn run_pipelined(
        &self,
        inputs: &[M::In],
        metrics: &mut JobMetrics,
        ckpt: Option<&CheckpointSession<R::Out>>,
        sink: &dyn PartitionSink<R::Out>,
    ) -> Result<Reduced<R::Out>, SimError> {
        let n_inputs = inputs.len();
        let n_mappers = self.config.map_threads.max(1);
        // Groups own contiguous partition ranges of `per_group`. The
        // second div_ceil drops groups the rounding left empty (e.g. 5
        // reducers over 4 groups is 3 groups of 2, not 4).
        let group_target = n_mappers.min(self.n_reducers).max(1);
        let per_group = self.n_reducers.div_ceil(group_target);
        let n_groups = self.n_reducers.div_ceil(per_group);
        let depth = self.config.pipeline_depth;
        let served = self.served_mask(ckpt);

        // A buffer of `depth − 1` blocks (a rendezvous at depth 1) plus the
        // block a consumer has just received keeps at most `depth` blocks
        // per channel in flight — the bound the gauge reports.
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_groups)
            .map(|_| sync_channel::<Block<M::Key, M::Value>>(depth - 1))
            .unzip();
        let finalize_queue: FinalizeQueue<FinalizeItem<M>> = FinalizeQueue::new(n_groups);
        let coord = Coordination::new(self.n_reducers, n_mappers);
        // Spill temp files report failed RAII deletes here; sampled into
        // `PipelineMetrics::spill_delete_errors` once every spilled run
        // has dropped — which the scope join guarantees.
        let delete_errors = Arc::new(AtomicU64::new(0));
        let epoch = Instant::now();

        let (map_wall, group_results) = std::thread::scope(|scope| {
            let consumer_handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(g, channel)| {
                    let finalize_queue = &finalize_queue;
                    let coord = &coord;
                    let delete_errors = &delete_errors;
                    let job = self;
                    scope.spawn(move || {
                        job.consume_group(
                            g,
                            per_group,
                            n_inputs,
                            channel,
                            finalize_queue,
                            coord,
                            &epoch,
                            ckpt,
                            delete_errors,
                        )
                    })
                })
                .collect();

            // Every mapper owns clones of the senders, so once the
            // originals drop here a consumer's `recv` ends when the last
            // mapper exits or unwinds.
            let mapper_handles: Vec<_> = (0..n_mappers)
                .map(|_| {
                    let mut worker = MapWorker {
                        inputs,
                        per_group,
                        served: &served,
                        channels: senders.clone(),
                        loads: vec![PartitionLoad::default(); self.n_reducers],
                    };
                    let coord = &coord;
                    let job = self;
                    scope.spawn(move || {
                        job.map_stage(&mut worker, coord);
                        let map_end = epoch.elapsed().as_secs_f64();
                        job.retire_mapper(worker, coord, ckpt);
                        map_end
                    })
                })
                .collect();
            drop(senders);

            let map_wall = mapper_handles
                .into_iter()
                .map(|h| h.join().expect("pipeline mapper panicked"))
                .fold(0.0f64, f64::max);
            let group_results: Vec<GroupResult<R::Out>> = consumer_handles
                .into_iter()
                .map(|h| h.join().expect("pipeline consumer panicked"))
                .collect();
            (map_wall, group_results)
        });

        if let Some(error) = coord
            .first_error
            .lock()
            .expect("error slot poisoned")
            .take()
        {
            return Err(error);
        }
        let summary = coord.map_summary();
        self.apply_map_summary(&summary, metrics)?;

        // Reduce-stage exhaustion under `Fail` mode: checked after the map
        // error and capacity, lowest partition first — the precedence the
        // sequential pass applies by construction.
        if let Some((_, error)) = coord
            .reduce_error
            .lock()
            .expect("reduce error slot poisoned")
            .take()
        {
            return Err(error);
        }

        // Finalized partitions carry their own index because under
        // stealing any thread may have finalized any partition; they are
        // accepted in partition order, exactly like the materialized pass
        // walks its partitions.
        let mut slotted: Vec<Option<FinalizedPartition<R::Out>>> =
            (0..self.n_reducers).map(|_| None).collect();
        let mut overlap_blocks = 0u64;
        let mut stolen_partitions = 0u64;
        let mut finalize_start = f64::INFINITY;
        let mut finalize_end = 0.0f64;
        let mut finalize_group_seconds = Vec::with_capacity(group_results.len());
        let mut spilled_runs = 0u64;
        let mut spilled_bytes = 0u64;
        // The budget is per consumer group, so the metric is the worst
        // single group's residency — the value the bound is stated over.
        let mut peak_buffered_bytes = 0u64;
        let mut merge_fanin = 0u64;
        for group in group_results {
            overlap_blocks += group.overlap_blocks;
            stolen_partitions += group.stolen;
            finalize_start = finalize_start.min(group.finalize_start);
            finalize_end = finalize_end.max(group.finalize_end);
            finalize_group_seconds.push((group.finalize_end - group.finalize_start).max(0.0));
            spilled_runs += group.spilled_runs;
            spilled_bytes = spilled_bytes.saturating_add(group.spilled_bytes);
            peak_buffered_bytes = peak_buffered_bytes.max(group.peak_buffered);
            merge_fanin = merge_fanin.max(group.merge_fanin);
            for part in group.finalized {
                let p = part.partition;
                slotted[p] = Some(part);
            }
        }
        // The sink contract promises ascending partition order, so
        // acceptance happens here — during deterministic reassembly — not
        // at the consumer threads' out-of-order finalize times.
        let reduced = self.accept_partitions(&summary, ckpt, metrics, sink, |p| {
            slotted[p]
                .take()
                .expect("every nonempty partition the checkpoint does not serve finalized")
        })?;
        let max_span = finalize_group_seconds.iter().cloned().fold(0.0, f64::max);
        let mean_span =
            finalize_group_seconds.iter().sum::<f64>() / finalize_group_seconds.len().max(1) as f64;
        metrics.pipeline = PipelineMetrics {
            map_reduce_overlap_blocks: overlap_blocks,
            peak_inflight_blocks: u64::try_from(coord.gauge.peak.load(Ordering::Relaxed))
                .expect("the peak starts at 0 and only rises"),
            blocks_sent: coord.blocks_sent.load(Ordering::Relaxed),
            consumer_groups: n_groups as u64,
            stolen_partitions,
            map_wall_seconds: map_wall,
            reduce_wall_seconds: (finalize_end - finalize_start).max(0.0),
            finalize_group_seconds,
            finalize_imbalance: if mean_span > 0.0 {
                max_span / mean_span
            } else {
                1.0
            },
            wall_seconds: epoch.elapsed().as_secs_f64(),
            spilled_runs,
            spilled_bytes,
            peak_buffered_bytes,
            merge_fanin,
            // Checkpoint counters live on the session and are folded in
            // by `Job::run` after this literal, uniformly across modes.
            checkpoint_hits: 0,
            checkpoint_misses: 0,
            checkpoint_invalid: 0,
            spill_delete_errors: delete_errors.load(Ordering::Relaxed),
            orphans_reclaimed: 0,
        };
        Ok(reduced)
    }

    /// One mapper worker: pull tasks from the shared cursor, map and route
    /// them, and push partition-tagged blocks into the group channels.
    fn map_stage(&self, worker: &mut MapWorker<'_, M>, coord: &Coordination) {
        loop {
            let task = coord.next_task.fetch_add(1, Ordering::Relaxed);
            if task >= worker.inputs.len() {
                break;
            }
            // A lower task already failed: its error wins whatever this
            // task would do, so skip the work and let the pipeline drain.
            if task > coord.error_seq.load(Ordering::Relaxed) {
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.execute_map_task(task, worker, coord);
        }
    }

    /// Retires a mapper thread once it runs out of tasks: folds its loads
    /// into the totals and, if it is the last one out of a map phase
    /// without error, commits the map record. The record thus lands after
    /// every map task resolved and before the worker's senders drop —
    /// before any consumer can finalize, let alone commit, a partition.
    fn retire_mapper(
        &self,
        worker: MapWorker<'_, M>,
        coord: &Coordination,
        ckpt: Option<&CheckpointSession<R::Out>>,
    ) {
        let mut totals = coord.loads.lock().expect("load totals poisoned");
        for (total, load) in totals.iter_mut().zip(&worker.loads) {
            total.merge(load);
        }
        drop(totals);
        // AcqRel: the last mapper acquires every peer's release, so it
        // sees their loads, counters and any recorded error.
        let last = coord.mappers_left.fetch_sub(1, Ordering::AcqRel) == 1;
        let clean = coord.error_seq.load(Ordering::Relaxed) == usize::MAX;
        if let Some(session) = ckpt.filter(|_| last && clean) {
            session.record_map(&coord.map_summary());
        }
    }

    /// Runs one map task end to end: the fault-layer attempt loop, then
    /// (if an attempt survives) map + route, counting its metrics and
    /// loads and sending its blocks — or recording its error or
    /// dead-lettering it.
    fn execute_map_task(&self, task: usize, worker: &mut MapWorker<'_, M>, coord: &Coordination) {
        match self.fault_verdict(FaultStage::Map, task) {
            TaskVerdict::Run { retries } => {
                let pairs = self.map_one(&worker.inputs[task]);
                coord
                    .map_retries
                    .fetch_add(u64::from(retries), Ordering::Relaxed);
                coord
                    .records_emitted
                    .fetch_add(pairs.len() as u64, Ordering::Relaxed);
                let mut targets: Vec<usize> = Vec::new();
                let mut per_group_records: Vec<Vec<Tagged<M>>> =
                    (0..worker.channels.len()).map(|_| Vec::new()).collect();
                for (key, value) in pairs {
                    if let Err(error) = self.route_into(&key, &mut targets) {
                        coord.record_error(task, error);
                        coord.tasks_done.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let key_bytes = key.size_bytes();
                    let value_bytes = value.size_bytes();
                    for &t in &targets {
                        worker.loads[t].add(key_bytes, value_bytes);
                    }
                    let shipped = targets.iter().copied().filter(|&t| !worker.served[t]);
                    fan_out(key, value, shipped, |t, key, value| {
                        per_group_records[t / worker.per_group].push((t, key, value));
                    });
                }
                // This task's *map* work (map + route) is finished; only
                // the shuffle hand-off remains. Count it done before the
                // sends so the consumers' overlap sampling stays honest —
                // a block from the final map task must never count as
                // overlap when no map work remains.
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
                for (g, records) in per_group_records.into_iter().enumerate() {
                    if records.is_empty() {
                        continue;
                    }
                    coord.blocks_sent.fetch_add(1, Ordering::Relaxed);
                    // A failed send means the consumer died; its panic
                    // re-raises at the scope join, so drop the block.
                    if worker.channels[g]
                        .send(Block { seq: task, records })
                        .is_ok()
                    {
                        coord.gauge.raise();
                    }
                }
            }
            TaskVerdict::Dropped { retries, attempts } => {
                coord
                    .map_retries
                    .fetch_add(u64::from(retries), Ordering::Relaxed);
                coord.dlq.lock().expect("dlq slot poisoned").push(DlqEntry {
                    stage: FaultStage::Map,
                    index: task,
                    attempts,
                });
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
            }
            TaskVerdict::Failed { error, retries } => {
                coord
                    .map_retries
                    .fetch_add(u64::from(retries), Ordering::Relaxed);
                coord.record_error(task, error);
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One consumer worker: drain the group's channel (accounting bytes
    /// and buffering task-tagged records per owned partition, concurrently
    /// with live mappers), then — once every mapper is gone — finalize:
    /// sort each partition back into arrival order and reduce it, either
    /// for the owned range only ([`FinalizeMode::Static`]) or by stealing
    /// completed partitions from the shared queue
    /// ([`FinalizeMode::Stealing`]).
    #[allow(clippy::too_many_arguments)]
    fn consume_group(
        &self,
        group: usize,
        per_group: usize,
        n_inputs: usize,
        channel: Receiver<Block<M::Key, M::Value>>,
        finalize_queue: &FinalizeQueue<FinalizeItem<M>>,
        coord: &Coordination,
        epoch: &Instant,
        ckpt: Option<&CheckpointSession<R::Out>>,
        delete_errors: &Arc<AtomicU64>,
    ) -> GroupResult<R::Out> {
        // Registered *before* the drain: if user code panics while this
        // consumer is still draining (a `ByteSized` impl), the guard
        // aborts the finalize queue so sibling consumers stealing from it
        // drain out instead of waiting forever for this publisher.
        let mut publisher = (self.config.finalize_mode == FinalizeMode::Stealing)
            .then(|| FinalizePublisherGuard::new(finalize_queue));
        let lo = group * per_group;
        let hi = (lo + per_group).min(self.n_reducers);
        let n_local = hi - lo;
        let mut parts: Vec<PartitionBuffer<M>> = (0..n_local)
            .map(|_| PartitionBuffer {
                records: Vec::new(),
                resident_bytes: 0,
                spilled: Vec::new(),
            })
            .collect();
        let mut overlap_blocks = 0u64;
        // Out-of-core accounting: `buffered` is the group's resident
        // bytes (`ByteSized`, the budget's unit, saturating like every
        // byte counter), enforced after each whole block so a task's
        // records for a partition never span two sources. A spill
        // failure records its `SpillIo` (lowest partition wins, like
        // every reduce-stage error) and falls back to unbounded buffering
        // so the pipeline still drains — the job is failing anyway.
        let budget = self.config.memory_budget;
        let spill_dir = spill::resolve_dir(self.config.spill_dir.as_deref());
        let mut buffered = 0u64;
        let mut peak_buffered = 0u64;
        let mut spilled_runs = 0u64;
        let mut spilled_bytes = 0u64;
        let mut spill_failed = false;

        while let Ok(block) = channel.recv() {
            coord.gauge.lower();
            if coord.tasks_done.load(Ordering::Relaxed) < n_inputs {
                overlap_blocks += 1;
            }
            let seq = block.seq;
            for (p, key, value) in block.records {
                let bytes = key.size_bytes().saturating_add(value.size_bytes());
                buffered = buffered.saturating_add(bytes);
                let buf = &mut parts[p - lo];
                buf.resident_bytes = buf.resident_bytes.saturating_add(bytes);
                buf.records.push((seq, key, value));
            }
            // Seal-and-spill: largest resident partition buffer first
            // (fewest files for the most relief), repeating until back
            // under budget.
            while !spill_failed && budget.is_some_and(|b| buffered > b) {
                let mut largest = (0, 0);
                for (local, buf) in parts.iter().enumerate() {
                    if buf.resident_bytes > largest.1 {
                        largest = (local, buf.resident_bytes);
                    }
                }
                let (local, bytes) = largest;
                if bytes == 0 {
                    break;
                }
                let buf = &mut parts[local];
                match spill::write_run(
                    &spill_dir,
                    &buf.records,
                    bytes,
                    Some(Arc::clone(delete_errors)),
                ) {
                    Ok(sealed) => {
                        buffered = buffered.saturating_sub(bytes);
                        spilled_runs += 1;
                        spilled_bytes = spilled_bytes.saturating_add(bytes);
                        buf.spilled.push(sealed);
                        buf.records = Vec::new();
                        buf.resident_bytes = 0;
                    }
                    Err(error) => {
                        coord.record_reduce_error(lo + local, error.at(lo + local));
                        spill_failed = true;
                    }
                }
            }
            peak_buffered = peak_buffered.max(buffered);
        }

        // End-of-stream: the map stage is complete. Finalize (skipped
        // when a routing error is pending — the run returns that error
        // and discards everything, so reducing would be wasted work;
        // draining above still happened, which is what keeps blocked
        // mappers from deadlocking). Empty partitions never finalize:
        // they produce no outputs and no reduce task in any mode. Nor do
        // partitions the checkpoint serves: no copy was shipped to them.
        let finalize_start = epoch.elapsed().as_secs_f64();
        let mut finalized: Vec<FinalizedPartition<R::Out>> = Vec::new();
        let mut stolen = 0u64;
        let mut merge_fanin = 0u64;
        let clean = coord.error_seq.load(Ordering::Relaxed) == usize::MAX;
        // Both modes finalize the same items, in ascending partition
        // order; the mode only decides which thread takes each one.
        let items: Vec<(u64, FinalizeItem<M>)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, buf)| clean && !buf.is_empty())
            .map(|(local, buffer)| {
                let item = FinalizeItem {
                    partition: lo + local,
                    owner: group,
                    buffer,
                };
                (item.buffer.bytes(), item)
            })
            .collect();
        let mut finalize = |item: FinalizeItem<M>| {
            if item.owner != group {
                stolen += 1;
            }
            let (part, fanin) = self.finalize_item(item, coord, ckpt);
            merge_fanin = merge_fanin.max(fanin);
            finalized.push(part);
        };
        match self.config.finalize_mode {
            // The owner never touches the shared queue, so its partitions
            // commit in ascending order: a kill at partition k lands after
            // every lower partition of the group committed.
            FinalizeMode::Static => {
                for (_, item) in items {
                    finalize(item);
                }
            }
            FinalizeMode::Stealing => {
                finalize_queue.publish(items);
                publisher
                    .as_mut()
                    .expect("guard registered for stealing mode before the drain")
                    .finish();
                while let Some(item) = finalize_queue.steal() {
                    finalize(item);
                }
            }
        }
        GroupResult {
            finalized,
            overlap_blocks,
            stolen,
            finalize_start,
            finalize_end: epoch.elapsed().as_secs_f64(),
            spilled_runs,
            spilled_bytes,
            peak_buffered,
            merge_fanin,
        }
    }

    /// Finalizes one partition's item — the unit of work both finalize
    /// modes schedule — through the shared [`Job::reduce_task`]:
    /// [`restore_order`] supplies the records from the resident buffer and
    /// the spilled runs, so it runs only when the task does. Returns the
    /// partition with its error recorded, and how many sources it read
    /// (0 when the task did not run). Spilled runs the task did not read
    /// drop, deleting their temp files, on return.
    fn finalize_item(
        &self,
        item: FinalizeItem<M>,
        coord: &Coordination,
        ckpt: Option<&CheckpointSession<R::Out>>,
    ) -> (FinalizedPartition<R::Out>, u64) {
        let FinalizeItem {
            partition, buffer, ..
        } = item;
        let mut fanin = 0;
        let part = self.reduce_task(partition, ckpt, || {
            fanin = buffer.spilled.len() as u64 + u64::from(!buffer.records.is_empty());
            // A disk or decode failure reading a spilled run back is an
            // infrastructure error, not a task fault: it bypasses the DLQ
            // and surfaces as the job error (lowest partition wins).
            restore_order(buffer.records, buffer.spilled).map_err(|error| error.at(partition))
        });
        if let Some(error) = part.failed.clone() {
            coord.record_reduce_error(partition, error);
        }
        (part, fanin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DlqMode, FaultPlan, FinalizeMode, ShuffleMode};
    use crate::job::CapacityPolicy;
    use crate::router::{HashRouter, TableRouter};
    use crate::traits::Emitter;

    struct IdentityMapper;
    impl Mapper for IdentityMapper {
        type In = (u64, String);
        type Key = u64;
        type Value = String;
        fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, String>) {
            emit.emit(input.0, input.1.clone());
        }
    }

    /// Order-sensitive reducer: concatenation exposes any block reorder.
    struct ConcatReducer;
    impl Reducer for ConcatReducer {
        type Key = u64;
        type Value = String;
        type Out = (u64, String);
        fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
            out.push((*key, values.concat()));
        }
    }

    fn inputs(n: u64) -> Vec<(u64, String)> {
        (0..n).map(|i| (i % 13, format!("v{i}-"))).collect()
    }

    fn run(
        shuffle: ShuffleMode,
        map_threads: usize,
        depth: usize,
        n_red: usize,
    ) -> crate::JobOutput<(u64, String)> {
        Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            n_red,
            ClusterConfig {
                shuffle,
                map_threads,
                pipeline_depth: depth,
                ..ClusterConfig::default()
            },
        )
        .run(&inputs(300))
        .unwrap()
    }

    fn tagged(records: &[(usize, u64, &str)]) -> Vec<(usize, u64, String)> {
        records
            .iter()
            .map(|&(seq, k, v)| (seq, k, v.to_string()))
            .collect()
    }

    fn untagged(records: &[(u64, &str)]) -> Vec<(u64, String)> {
        records.iter().map(|&(k, v)| (k, v.to_string())).collect()
    }

    /// `restore_order` returns ascending task order, each task's records
    /// in emission order, whichever source held them and in whatever
    /// order they arrived — and reads every spilled run back and deletes
    /// it.
    #[test]
    fn restore_order_sorts_by_task_whatever_the_arrival_order() {
        let dir = std::env::temp_dir().join(format!(
            "mrassign-restore-order-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create test temp dir");
        let spill = |records: &[(usize, u64, &str)]| {
            spill::write_run(&dir, &tagged(records), 1, None).expect("spill writes")
        };
        // Tasks arrive out of order within each source and across them;
        // task 2 emitted three records here, keys unsorted, and the
        // resident buffer holds tasks below every spilled run's.
        let resident = tagged(&[
            (7, 4, "d"),
            (0, 1, "a"),
            (2, 9, "b"),
            (2, 3, "c"),
            (2, 1, "x"),
        ]);
        let runs = vec![
            spill(&[(5, 6, "f"), (1, 5, "e")]),
            spill(&[(3, 7, "g"), (6, 2, "h")]),
        ];
        let expected = untagged(&[
            (1, "a"),
            (5, "e"),
            (9, "b"),
            (3, "c"),
            (1, "x"),
            (7, "g"),
            (6, "f"),
            (2, "h"),
            (4, "d"),
        ]);
        assert_eq!(restore_order(resident, runs).unwrap(), expected);
        // A lone source, resident or spilled, and no source at all.
        let lone = [(4, 9, "z"), (4, 7, "w"), (1, 8, "y")];
        let expected = untagged(&[(8, "y"), (9, "z"), (7, "w")]);
        assert_eq!(restore_order(tagged(&lone), Vec::new()).unwrap(), expected);
        assert_eq!(
            restore_order(Vec::new(), vec![spill(&lone)]).unwrap(),
            expected
        );
        assert_eq!(
            restore_order::<u64, String>(Vec::new(), Vec::new()).unwrap(),
            vec![]
        );
        std::fs::remove_dir(&dir).expect("no spill file outlives its run");
    }

    /// The finalize queue pops largest-priority first, blocks until the
    /// last publisher finishes, and signals end-of-work with `None`.
    #[test]
    fn finalize_queue_is_lpt_ordered_and_terminates() {
        let queue: FinalizeQueue<&str> = FinalizeQueue::new(2);
        queue.publish(vec![(5, "small"), (50, "big")]);
        queue.finish_publishing();
        let stolen = std::thread::scope(|scope| {
            let stealer = scope.spawn(|| {
                let mut seen = Vec::new();
                while let Some(item) = queue.steal() {
                    seen.push(item);
                }
                seen
            });
            // The stealer drains the first batch and then *waits* for the
            // second publisher rather than exiting early.
            queue.publish(vec![(20, "late")]);
            queue.finish_publishing();
            stealer.join().unwrap()
        });
        assert_eq!(stolen[0], "big", "largest bytes pop first");
        assert_eq!(stolen.len(), 3);
    }

    /// Equal priorities pop in publish order. A `swap_remove` pop moved
    /// the last item into the popped slot, so a, b, c, d came out
    /// a, d, c, b.
    #[test]
    fn finalize_queue_pops_equal_priorities_in_publish_order() {
        let queue: FinalizeQueue<&str> = FinalizeQueue::new(1);
        queue.publish(vec![(7, "a"), (7, "b"), (7, "c"), (7, "d")]);
        queue.finish_publishing();
        let popped: Vec<&str> = std::iter::from_fn(|| queue.steal()).collect();
        assert_eq!(popped, ["a", "b", "c", "d"]);
    }

    #[test]
    fn pipelined_matches_materialized_bit_for_bit() {
        let reference = run(ShuffleMode::Materialized, 1, 4, 20);
        for (threads, depth) in [(1, 1), (2, 1), (4, 3), (3, 8)] {
            let pipelined = run(ShuffleMode::Pipelined, threads, depth, 20);
            assert_eq!(
                reference.outputs, pipelined.outputs,
                "t={threads} d={depth}"
            );
            assert_eq!(
                reference.metrics.deterministic(),
                pipelined.metrics.deterministic(),
                "t={threads} d={depth}"
            );
            let p = &pipelined.metrics.pipeline;
            assert!(p.consumer_groups >= 1);
            assert!(p.blocks_sent >= 1);
            assert!(p.peak_inflight_blocks >= 1);
            assert!(p.peak_inflight_blocks <= depth as u64 * p.consumer_groups);
        }
    }

    /// The work-stealing finalize is a pure scheduling choice: outputs
    /// and deterministic metrics stay bit-identical to the materialized
    /// pass for every thread count and depth, and static finalize never
    /// reports stolen partitions.
    #[test]
    fn stealing_finalize_matches_materialized_bit_for_bit() {
        let reference = run(ShuffleMode::Materialized, 1, 4, 20);
        for (threads, depth) in [(1, 1), (2, 1), (4, 3), (3, 8)] {
            for finalize in FinalizeMode::ALL {
                let pipelined = Job::new(
                    IdentityMapper,
                    ConcatReducer,
                    HashRouter::new(),
                    20,
                    ClusterConfig {
                        shuffle: ShuffleMode::Pipelined,
                        map_threads: threads,
                        pipeline_depth: depth,
                        finalize_mode: finalize,
                        ..ClusterConfig::default()
                    },
                )
                .run(&inputs(300))
                .unwrap();
                assert_eq!(
                    reference.outputs, pipelined.outputs,
                    "t={threads} d={depth} {finalize:?}"
                );
                assert_eq!(
                    reference.metrics.deterministic(),
                    pipelined.metrics.deterministic(),
                    "t={threads} d={depth} {finalize:?}"
                );
                let p = &pipelined.metrics.pipeline;
                if finalize == FinalizeMode::Static {
                    assert_eq!(p.stolen_partitions, 0, "static finalize never steals");
                }
                assert_eq!(p.finalize_group_seconds.len() as u64, p.consumer_groups);
                assert!(p.finalize_imbalance >= 1.0, "max/mean span is at least 1");
            }
        }
    }

    /// PR 5 overlap-counter bugfix, pinned deterministically: a single
    /// map task's own blocks can never be overlap (its map work is
    /// complete before the blocks are handed to the shuffle, and no other
    /// map work exists), so the counter must read exactly zero — at every
    /// thread count and depth. Before the fix the mapper counted the task
    /// done only *after* sending, so this block raced to 1.
    #[test]
    fn single_task_blocks_never_count_as_overlap() {
        for (threads, depth) in [(1, 1), (4, 1), (2, 3)] {
            let out = Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle: ShuffleMode::Pipelined,
                    map_threads: threads,
                    pipeline_depth: depth,
                    ..ClusterConfig::default()
                },
            )
            .run(&inputs(1))
            .unwrap();
            let p = &out.metrics.pipeline;
            assert_eq!(p.blocks_sent, 1, "one task, one key, one block");
            assert_eq!(
                p.map_reduce_overlap_blocks, 0,
                "t={threads} d={depth}: the final (only) task's block is not overlap"
            );
        }
    }

    #[test]
    fn single_reducer_single_depth_does_not_deadlock() {
        let reference = run(ShuffleMode::Materialized, 1, 1, 1);
        let pipelined = run(ShuffleMode::Pipelined, 4, 1, 1);
        assert_eq!(reference.outputs, pipelined.outputs);
        assert_eq!(
            reference.metrics.deterministic(),
            pipelined.metrics.deterministic()
        );
    }

    #[test]
    fn pipelined_empty_input_runs_cleanly() {
        let out = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                ..ClusterConfig::default()
            },
        )
        .run(&[])
        .unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.bytes_shuffled, 0);
        assert_eq!(out.metrics.pipeline.blocks_sent, 0);
    }

    /// A routing error mid-pipeline drains cleanly and surfaces the error
    /// the sequential pass would have hit first: input 7 routes out of
    /// range, every earlier input is fine.
    #[test]
    fn mid_pipeline_route_error_drains_and_matches_pass_modes() {
        let mut table: Vec<(u64, Vec<usize>)> =
            (0..13).map(|k| (k, vec![k as usize % 3])).collect();
        table[7].1 = vec![9]; // out of range for 3 reducers
        let mk = |shuffle, map_threads, finalize_mode| {
            Job::new(
                IdentityMapper,
                ConcatReducer,
                TableRouter::new(table.clone()),
                3,
                ClusterConfig {
                    shuffle,
                    map_threads,
                    pipeline_depth: 1,
                    finalize_mode,
                    ..ClusterConfig::default()
                },
            )
            .run(&inputs(300))
            .unwrap_err()
        };
        let expected = mk(ShuffleMode::Materialized, 1, FinalizeMode::Static);
        assert_eq!(
            expected,
            SimError::RouteOutOfRange {
                target: 9,
                n_reducers: 3
            }
        );
        for threads in [1, 2, 4] {
            for finalize in FinalizeMode::ALL {
                assert_eq!(expected, mk(ShuffleMode::Pipelined, threads, finalize));
            }
        }
    }

    /// A panic in user map code must propagate out of `Job::run` like the
    /// materialized mode propagates it — not deadlock the stage graph. The
    /// test completing at all is the real assertion (a regression hangs
    /// until the harness timeout); depth 1 with several mappers maximizes
    /// the chance that peers are blocked on full channels when the panic
    /// hits.
    #[test]
    fn mapper_panic_propagates_instead_of_deadlocking() {
        struct ExplodingMapper;
        impl Mapper for ExplodingMapper {
            type In = (u64, String);
            type Key = u64;
            type Value = String;
            fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, String>) {
                assert!(input.0 != 7, "synthetic mapper failure");
                emit.emit(input.0, input.1.clone());
            }
        }
        let job = Job::new(
            ExplodingMapper,
            ConcatReducer,
            HashRouter::new(),
            4,
            ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: 3,
                pipeline_depth: 1,
                ..ClusterConfig::default()
            },
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(300))));
        assert!(result.is_err(), "the mapper panic must surface");
    }

    /// Same contract for the reduce side: a panicking reducer unwinds
    /// through the consumer thread and out of `Job::run` — under *both*
    /// finalize modes. The stealing case is the canary for the
    /// [`FinalizePublisherGuard`]: the panicking consumer must abort the
    /// shared queue so its siblings drain out instead of waiting forever
    /// for a publisher that will never finish.
    #[test]
    fn reducer_panic_propagates_instead_of_deadlocking() {
        struct ExplodingReducer;
        impl Reducer for ExplodingReducer {
            type Key = u64;
            type Value = String;
            type Out = ();
            fn reduce(&self, key: &u64, _values: &[String], _out: &mut Vec<()>) {
                assert!(*key != 3, "synthetic reducer failure");
            }
        }
        for finalize_mode in FinalizeMode::ALL {
            let job = Job::new(
                IdentityMapper,
                ExplodingReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle: ShuffleMode::Pipelined,
                    map_threads: 2,
                    pipeline_depth: 1,
                    finalize_mode,
                    ..ClusterConfig::default()
                },
            );
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(300))));
            assert!(
                result.is_err(),
                "{finalize_mode:?}: the reducer panic must surface"
            );
        }
    }

    /// A panic in a user `ByteSized` impl *while a consumer is still
    /// draining* must not deadlock the stealing finalize: the panicking
    /// consumer never publishes, so without the pre-drain
    /// [`FinalizePublisherGuard`] its siblings would wait on the queue
    /// forever. Every value is sized once map-side then once
    /// consumer-side, so the 2N-th sizing call is always consumer-side —
    /// panicking there pins the drain-phase unwind path deterministically.
    #[test]
    fn consumer_drain_panic_aborts_the_stealing_queue() {
        const N: u64 = 120;
        static CALLS: AtomicU64 = AtomicU64::new(0);

        #[derive(Clone)]
        struct CountedPayload;
        impl crate::record::ByteSized for CountedPayload {
            fn size_bytes(&self) -> u64 {
                let call = CALLS.fetch_add(1, Ordering::Relaxed);
                assert!(call != 2 * N - 1, "synthetic consumer-drain failure");
                4
            }
        }
        impl SpillCodec for CountedPayload {
            fn encode(&self, _buf: &mut Vec<u8>) {}
            fn decode(_bytes: &mut &[u8]) -> Option<Self> {
                Some(CountedPayload)
            }
        }

        struct PayloadMapper;
        impl Mapper for PayloadMapper {
            type In = (u64, String);
            type Key = u64;
            type Value = CountedPayload;
            fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, CountedPayload>) {
                emit.emit(input.0, CountedPayload);
            }
        }

        struct NullReducer;
        impl Reducer for NullReducer {
            type Key = u64;
            type Value = CountedPayload;
            type Out = ();
            fn reduce(&self, _key: &u64, _values: &[CountedPayload], _out: &mut Vec<()>) {}
        }

        let job = Job::new(
            PayloadMapper,
            NullReducer,
            HashRouter::new(),
            4,
            ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: 2,
                pipeline_depth: 1,
                finalize_mode: FinalizeMode::Stealing,
                ..ClusterConfig::default()
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(N))));
        assert!(result.is_err(), "the drain-phase panic must surface");
    }

    /// Satellite-c regression: a *retryable* injected reduce fault flows
    /// through `fault_verdict` as a value, never unwinds, and therefore
    /// must not trip the [`FinalizePublisherGuard`] abort path the way a
    /// true user panic does. Before the check-first design, an injected
    /// fault that unwound through a stealing consumer aborted the shared
    /// queue and poisoned its siblings; here the run must complete
    /// cleanly, bit-identical to the fault-free reference, with the
    /// retries visible only in the masked fault counters.
    #[test]
    fn injected_reduce_faults_do_not_trip_the_publisher_guard() {
        let reference = run(ShuffleMode::Materialized, 1, 4, 8);
        for finalize_mode in FinalizeMode::ALL {
            for threads in [1, 2, 4] {
                let out = Job::new(
                    IdentityMapper,
                    ConcatReducer,
                    HashRouter::new(),
                    8,
                    ClusterConfig {
                        shuffle: ShuffleMode::Pipelined,
                        map_threads: threads,
                        pipeline_depth: 1,
                        finalize_mode,
                        retry_budget: 8,
                        fault_plan: Some(FaultPlan {
                            reduce_rate: 0.5,
                            ..FaultPlan::seeded(11, 0.0)
                        }),
                        ..ClusterConfig::default()
                    },
                )
                .run(&inputs(300))
                .unwrap_or_else(|e| panic!("{finalize_mode:?} t={threads}: {e}"));
                assert_eq!(
                    reference.outputs, out.outputs,
                    "{finalize_mode:?} t={threads}"
                );
                assert_eq!(
                    reference.metrics.deterministic(),
                    out.metrics.deterministic(),
                    "{finalize_mode:?} t={threads}"
                );
                assert!(
                    out.metrics.faults.reduce_retries > 0,
                    "{finalize_mode:?} t={threads}: seed 11 at rate 0.5 must fire"
                );
                assert!(out.dlq.is_empty(), "budget 8 absorbs every fault");
            }
        }
    }

    /// Exhausting the retry budget in [`DlqMode::Fail`] surfaces a clean
    /// `SimError::RetriesExhausted` naming the task — a `Result`, not a
    /// panic — and the error is identical across every shuffle and
    /// finalize mode, like the other cross-mode error-precedence
    /// contracts.
    #[test]
    fn exhausted_retries_fail_cleanly_not_via_panic() {
        let plan = FaultPlan {
            poison_reduce_tasks: vec![2],
            ..FaultPlan::default()
        };
        let mk = |shuffle, threads, finalize_mode| {
            let job = Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle,
                    map_threads: threads,
                    pipeline_depth: 1,
                    finalize_mode,
                    retry_budget: 2,
                    fault_plan: Some(plan.clone()),
                    ..ClusterConfig::default()
                },
            );
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(300))))
                .expect("retry exhaustion must be an error value, not a panic")
                .unwrap_err()
        };
        let expected = SimError::RetriesExhausted {
            stage: crate::cluster::FaultStage::Reduce,
            index: 2,
            attempts: 3,
        };
        assert_eq!(
            expected,
            mk(ShuffleMode::Materialized, 1, FinalizeMode::Static)
        );
        assert_eq!(
            expected,
            mk(ShuffleMode::Materialized, 2, FinalizeMode::Static)
        );
        for finalize in FinalizeMode::ALL {
            for threads in [1, 2, 4] {
                assert_eq!(expected, mk(ShuffleMode::Pipelined, threads, finalize));
            }
        }
    }

    /// Poisoned tasks land in the dead-letter queue under
    /// [`DlqMode::Capture`] — exactly the poisoned tasks, in every mode,
    /// with the same sorted entries — and the rest of the job completes.
    #[test]
    fn capture_mode_dead_letters_identically_across_modes() {
        let plan = FaultPlan {
            poison_map_tasks: vec![5],
            poison_reduce_tasks: vec![2],
            ..FaultPlan::default()
        };
        let mk = |shuffle, threads, finalize_mode| {
            Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle,
                    map_threads: threads,
                    pipeline_depth: 1,
                    finalize_mode,
                    retry_budget: 2,
                    dlq_mode: DlqMode::Capture,
                    fault_plan: Some(plan.clone()),
                    ..ClusterConfig::default()
                },
            )
            .run(&inputs(300))
            .unwrap()
        };
        let reference = mk(ShuffleMode::Materialized, 1, FinalizeMode::Static);
        let entries: Vec<_> = reference
            .dlq
            .iter()
            .map(|e| (e.stage, e.index, e.attempts))
            .collect();
        assert_eq!(
            entries,
            vec![
                (crate::cluster::FaultStage::Map, 5, 3),
                (crate::cluster::FaultStage::Reduce, 2, 3),
            ]
        );
        assert_eq!(reference.metrics.faults.dlq_len, 2);
        for threads in [1, 2, 4] {
            for finalize in FinalizeMode::ALL {
                let out = mk(ShuffleMode::Pipelined, threads, finalize);
                assert_eq!(reference.dlq, out.dlq, "t={threads} {finalize:?}");
                assert_eq!(reference.outputs, out.outputs, "t={threads} {finalize:?}");
                assert_eq!(
                    reference.metrics.deterministic(),
                    out.metrics.deterministic(),
                    "t={threads} {finalize:?}"
                );
            }
            let out = mk(ShuffleMode::Materialized, threads, FinalizeMode::Static);
            assert_eq!(reference.dlq, out.dlq, "materialized t={threads}");
            assert_eq!(reference.outputs, out.outputs, "materialized t={threads}");
            assert_eq!(
                reference.metrics.deterministic(),
                out.metrics.deterministic(),
                "materialized t={threads}"
            );
        }
    }

    /// The tentpole contract: a tight memory budget forces runs to disk
    /// (`spilled_runs > 0`, residency capped at the budget) yet outputs
    /// and deterministic metrics stay bit-identical to the unbounded
    /// materialized pass — for every finalize mode and thread count.
    #[test]
    fn tight_budget_spills_and_stays_bit_identical() {
        let reference = run(ShuffleMode::Materialized, 1, 4, 8);
        for finalize_mode in FinalizeMode::ALL {
            for threads in [1, 2, 4] {
                let out = Job::new(
                    IdentityMapper,
                    ConcatReducer,
                    HashRouter::new(),
                    8,
                    ClusterConfig {
                        shuffle: ShuffleMode::Pipelined,
                        map_threads: threads,
                        pipeline_depth: 4,
                        finalize_mode,
                        memory_budget: Some(64),
                        ..ClusterConfig::default()
                    },
                )
                .run(&inputs(300))
                .unwrap();
                let label = format!("{finalize_mode:?} t={threads}");
                assert_eq!(reference.outputs, out.outputs, "{label}");
                assert_eq!(
                    reference.metrics.deterministic(),
                    out.metrics.deterministic(),
                    "{label}"
                );
                let p = &out.metrics.pipeline;
                assert!(p.spilled_runs > 0, "{label}: 64 bytes must force spills");
                assert!(p.spilled_bytes > 0, "{label}");
                assert!(
                    p.peak_buffered_bytes <= 64,
                    "{label}: residency {} exceeds the budget",
                    p.peak_buffered_bytes
                );
                assert!(p.merge_fanin >= 1, "{label}");
            }
        }
    }

    /// An unbudgeted run never spills and reports its true residency —
    /// and a budget larger than that residency behaves identically.
    #[test]
    fn generous_budget_never_spills() {
        let unbounded = run(ShuffleMode::Pipelined, 2, 4, 8);
        let p = &unbounded.metrics.pipeline;
        assert_eq!(p.spilled_runs, 0);
        assert_eq!(p.spilled_bytes, 0);
        assert!(p.peak_buffered_bytes > 0, "residency is tracked unbudgeted");
        let roomy = Job::new(
            IdentityMapper,
            ConcatReducer,
            HashRouter::new(),
            8,
            ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: 1,
                pipeline_depth: 4,
                memory_budget: Some(u64::MAX),
                ..ClusterConfig::default()
            },
        )
        .run(&inputs(300))
        .unwrap();
        assert_eq!(roomy.metrics.pipeline.spilled_runs, 0);
        assert_eq!(unbounded.outputs, roomy.outputs);
    }

    /// An unwritable spill directory surfaces as `SimError::SpillIo`
    /// naming the lowest affected partition — an error value, never a
    /// panic — and the pipeline still drains (no deadlock) under both
    /// finalize modes.
    #[test]
    fn unwritable_spill_dir_fails_with_spill_io() {
        let dir = std::path::PathBuf::from("/nonexistent-mrassign-spill-dir/sub");
        for finalize_mode in FinalizeMode::ALL {
            let job = Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                8,
                ClusterConfig {
                    shuffle: ShuffleMode::Pipelined,
                    map_threads: 2,
                    pipeline_depth: 2,
                    finalize_mode,
                    memory_budget: Some(64),
                    spill_dir: Some(dir.clone()),
                    ..ClusterConfig::default()
                },
            );
            let error =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(300))))
                    .expect("spill failures are error values, not panics")
                    .unwrap_err();
            match error {
                SimError::SpillIo {
                    path, source: _, ..
                } => {
                    assert!(
                        path.contains("mrassign-spill-"),
                        "{finalize_mode:?}: {path}"
                    );
                }
                other => panic!("{finalize_mode:?}: expected SpillIo, got {other:?}"),
            }
        }
    }

    /// Capacity enforcement aborts with the identical error across modes:
    /// the lowest overloaded reducer, checked after the full accounting.
    #[test]
    fn enforce_violation_identical_across_modes() {
        let mk = |shuffle| {
            Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle,
                    map_threads: 2,
                    ..ClusterConfig::default()
                },
            )
            .capacity(CapacityPolicy::Enforce(10))
            .run(&inputs(100))
            .unwrap_err()
        };
        let expected = mk(ShuffleMode::Materialized);
        assert!(matches!(expected, SimError::CapacityExceeded { .. }));
        assert_eq!(expected, mk(ShuffleMode::Pipelined));
    }
}
