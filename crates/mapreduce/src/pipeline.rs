//! The pipelined engine behind [`ShuffleMode::Pipelined`].
//!
//! The materialized mode runs map → shuffle → reduce as strict phases:
//! the first record is routed only after the last map task finishes, and
//! partitions reduce one at a time. This module overlaps the shuffle with
//! the map phase through a **stage graph of scoped worker threads
//! connected by bounded MPSC channels** (`std::sync::mpsc::sync_channel`,
//! no external runtime — the engine stays dependency-free and
//! offline-friendly), then reduces the partitions in parallel after one
//! barrier:
//!
//! ```text
//!   inputs ──► task queue (atomic cursor)
//!                │ pulled dynamically
//!      ┌─────────┼─────────┐
//!   mapper 1  mapper 2 … mapper T          T = map_threads
//!      │  map_one → route → partition-tagged Block { seq, records }
//!      │  (each thread keeps its own share of the map accounting)
//!      └───┬────────┬──────┘
//!     bounded channel per consumer group (buffer = CHANNEL_DEPTH − 1)
//!          │        │        ◄── back-pressure: a full channel blocks
//!          ▼        ▼            the sender until the consumer drains
//!   consumer 1 … consumer G               G = min(T, n_reducers)
//!      │  task-tagged records buffered per partition, spilled under a
//!      │  budget (overlaps live map tasks — the pipelining)
//!      ▼
//!   ══ barrier: every mapper and consumer joined ══
//!      lowest map error → map record → capacity policy
//!      │
//!   finalize on G threads (the caller + G − 1 scoped threads):
//!      one stable sort by task per partition, group, reduce
//!      (static: thread g takes group g's range, ascending;
//!       stealing: every thread takes the next of one LPT order)
//!      ▼
//!   per-partition outputs, accepted in partition order
//! ```
//!
//! **Overlap.** While mapper threads are still producing, consumer threads
//! already drain blocks, account their bytes and buffer them per
//! partition (spilling under a budget) — the shuffle overlaps the map
//! phase the way a real MapReduce copy phase shadows its mappers.
//! `reduce()` itself waits for the barrier: any map task may yet route a
//! record anywhere, and the loads the capacity policy judges are complete
//! only there. [`PipelineMetrics`] reports how much overlap a run
//! actually achieved.
//!
//! **Back-pressure.** Every channel buffers [`CHANNEL_DEPTH`] − 1 blocks
//! and a full channel blocks its sender. A sender raises the in-flight
//! gauge after its send returns and the consumer lowers it right after
//! `recv`, so each channel counts at most `CHANNEL_DEPTH` blocks sent and
//! not yet taken in (its buffer plus the block its consumer just
//! received), and the recorded `peak_inflight_blocks` is bounded by
//! `CHANNEL_DEPTH × consumer groups`. Buffered records are bounded
//! separately by [`ClusterConfig::memory_budget`]: while a group drains,
//! it seals its largest partition buffer to disk whenever its residency
//! exceeds the budget. Finalize reads a partition's spilled runs back
//! whole, so each finalize thread holds one whole partition while it
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
//! with one stable sort by task. Each mapper thread's share of the
//! per-partition loads merges commutatively at the barrier, so the engine
//! produces outputs and a deterministic metrics subset bit-identical to
//! [`ShuffleMode::Materialized`], for every thread count, budget and
//! [`FinalizeMode`]; only [`PipelineMetrics`] varies run to run.
//!
//! **Finalize scheduling.** At the barrier the calling thread holds every
//! nonempty partition buffer, and what the largest-first rule ranks by is
//! complete. It finalizes them on one thread per consumer group: itself
//! plus G − 1 scoped threads. Every partition's finalize is the same
//! function; the mode only decides the order threads take partitions in
//! (`finalize_queues`). Under [`FinalizeMode::Static`] thread g finalizes
//! the contiguous range group g drained, in ascending partition order —
//! which serializes a hot group's whole range on one thread while its
//! peers idle, precisely the skew pathology the paper's load-balancing
//! thesis targets. Under [`FinalizeMode::Stealing`] every thread takes
//! the next partition of one order: buffered bytes descending, the lower
//! partition first on ties — the LPT rule `Schedule::lpt_order` applies
//! to simulated tasks. Outputs stay slotted by partition index, so the
//! `JobOutput` is bit-identical either way; `stolen_partitions` and the
//! per-group finalize spans in [`PipelineMetrics`] record how much work
//! migrated.
//!
//! **Error paths.** A routing error does not tear the pipeline down
//! mid-flight: the mapper thread keeps the error of its lowest failing
//! task, mappers skip tasks above the lowest failing index, consumers
//! keep draining until the channels close — nobody blocks on a full
//! channel, no thread leaks (all are scoped) — and at the barrier the
//! lowest task's error wins, the error the sequential pass would have hit
//! first. Capacity enforcement follows on the same totals, in the same
//! reducer order, before any partition is reduced or committed. Reduce
//! failures then surface in ascending partition order, where a partition
//! whose spill write failed reports that failure instead of reducing.
//! *Panics* in user code propagate rather than deadlock, because every
//! channel endpoint is owned by one thread and drops as that thread
//! unwinds: an unwinding mapper's senders drop, so `recv` still ends once
//! every mapper is gone, and an unwinding consumer's receiver drops, so
//! every send to it — including one blocked on its full channel — returns
//! `Err` and the mapper drops the block. Finalize threads share nothing
//! but their take order, so a panicking reducer blocks no peer. The scope
//! joins then re-raise the panic, exactly as the materialized mode does.
//!
//! **Checkpoint resume.** With a checkpoint session, mappers still count
//! every routed copy in the per-partition loads, so every deterministic
//! metric is recomputed, but they never clone or send a copy bound for a
//! partition the session verified. Such a partition is never finalized;
//! reassembly accepts its committed outputs in its place. The calling
//! thread commits the map record at the barrier, before any finalize
//! thread starts, so the record precedes every partition commit of the
//! run.
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

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::checkpoint::CheckpointSession;
use crate::cluster::{FaultStage, FinalizeMode};
use crate::error::SimError;
use crate::job::{fan_out, DlqEntry, FinalizedPartition, Job, MapSummary, Reduced, TaskVerdict};
use crate::metrics::{JobMetrics, PipelineMetrics};
use crate::record::ByteSized;
use crate::router::Router;
use crate::sink::PartitionSink;
use crate::spill::{self, SpillCodec, SpillError, SpilledRun};
use crate::traits::{Mapper, Reducer};

#[cfg(doc)]
use crate::cluster::{ClusterConfig, ShuffleMode};

/// Blocks one mapper → consumer channel holds in flight: it buffers
/// `CHANNEL_DEPTH − 1` blocks, and its consumer holds the one it just
/// received. [`PipelineMetrics::peak_inflight_blocks`] is therefore at
/// most `CHANNEL_DEPTH × consumer groups`.
pub const CHANNEL_DEPTH: usize = 4;

/// Gauge of blocks sent into the stage channels and not yet taken in by
/// their consumers, with a high-water mark (see the module docs for why
/// the count per channel is at most [`CHANNEL_DEPTH`]). A `recv` can
/// lower the gauge before the matching raise lands, so it is signed and
/// may lag the true count but never exceeds it. The block a consumer
/// takes in was itself in flight, so lowering records at least 1: a run
/// that moved any block reports a peak of at least one.
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

/// One partition's buffered state while its consumer drains: the resident
/// task-tagged records in arrival order, their `ByteSized` total (the
/// spill policy's ranking key), and the buffers already sealed to disk.
/// Sealing moves the whole resident buffer to one file, after a whole
/// block, so a task's records for the partition never span two sources.
/// The buffer owns its [`SpilledRun`]s, so whichever thread finalizes it
/// reads back the temp files its consumer sealed, and they are deleted
/// when it is done.
struct PartitionBuffer<M: Mapper> {
    records: Vec<Seqed<M>>,
    resident_bytes: u64,
    spilled: Vec<SpilledRun>,
    /// A spill write that failed for this partition: its finalize reports
    /// this error instead of reducing.
    spill_error: Option<SimError>,
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

/// What one consumer thread hands back at the barrier: its group's
/// nonempty partition buffers in ascending partition order, and what
/// draining them took.
struct Drained<M: Mapper> {
    partitions: Vec<(usize, PartitionBuffer<M>)>,
    overlap_blocks: u64,
    spilled_runs: u64,
    spilled_bytes: u64,
    /// Highest buffered residency this group reached after each block's
    /// budget enforcement (the per-group bound `memory_budget` states).
    peak_buffered: u64,
}

/// What one finalize thread hands back: the partitions it finalized, how
/// many of them another group drained, its wall-clock span, and the most
/// sources (spilled runs, plus the resident buffer if nonempty) one of
/// its finalizes read.
struct FinalizeSpan<Out> {
    finalized: Vec<FinalizedPartition<Out>>,
    stolen: u64,
    start: f64,
    end: f64,
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

/// The order the finalize threads take the drained partitions in. `items`
/// come in ascending partition order, and `bytes` ranks one. Under
/// [`FinalizeMode::Static`] there is one queue per consumer group: the
/// group's own range, ascending. Under [`FinalizeMode::Stealing`] there
/// is one queue that every thread takes from: bytes descending, the lower
/// partition first on ties, as `Schedule::lpt_order` ranks tasks.
fn finalize_queues<T>(
    mode: FinalizeMode,
    mut items: Vec<(usize, T)>,
    bytes: impl Fn(&T) -> u64,
    per_group: usize,
    n_groups: usize,
) -> Vec<Vec<(usize, T)>> {
    match mode {
        FinalizeMode::Static => {
            let mut queues: Vec<Vec<(usize, T)>> = (0..n_groups).map(|_| Vec::new()).collect();
            for (partition, item) in items {
                queues[partition / per_group].push((partition, item));
            }
            queues
        }
        FinalizeMode::Stealing => {
            items.sort_by_key(|(partition, item)| (Reverse(bytes(item)), *partition));
            vec![items]
        }
    }
}

/// What the mapper and consumer threads share besides the channels.
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
    gauge: InflightGauge,
}

/// What one mapper thread hands back at the barrier: its share of the map
/// summary (only the tasks this thread resolved count), the blocks it
/// sent, and its lowest failing task with that task's error.
struct MapShare {
    summary: MapSummary,
    blocks_sent: u64,
    error: Option<(usize, SimError)>,
}

/// One mapper thread's side of the stage graph: what it reads, its sender
/// into every consumer group, and its [`MapShare`].
struct MapWorker<'a, M: Mapper> {
    inputs: &'a [M::In],
    per_group: usize,
    /// Partitions the checkpoint serves: their copies are counted in the
    /// loads but never shipped.
    served: &'a [bool],
    channels: Vec<SyncSender<Block<M::Key, M::Value>>>,
    share: MapShare,
}

impl<M: Mapper> MapWorker<'_, M> {
    /// Records a failing task and lets every mapper skip the tasks above
    /// it. A thread takes its tasks in ascending order, so its first
    /// failure is its lowest.
    fn fail(&mut self, task: usize, error: SimError, coord: &Coordination) {
        self.share.error.get_or_insert((task, error));
        coord.error_seq.fetch_min(task, Ordering::Relaxed);
    }
}

impl<M, R, Rt> Job<M, R, Rt>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
    Rt: Router<M::Key>,
{
    /// Runs the pipelined engine described in the [module docs](self).
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
        let served = self.served_mask(ckpt);

        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_groups)
            .map(|_| sync_channel::<Block<M::Key, M::Value>>(CHANNEL_DEPTH - 1))
            .unzip();
        let coord = Coordination {
            next_task: AtomicUsize::new(0),
            tasks_done: AtomicUsize::new(0),
            error_seq: AtomicUsize::new(usize::MAX),
            gauge: InflightGauge::default(),
        };
        // Spill temp files report failed RAII deletes here; sampled into
        // `PipelineMetrics::spill_delete_errors` once every spilled run
        // has dropped — which the finalize scope's join guarantees.
        let delete_errors = Arc::new(AtomicU64::new(0));
        let epoch = Instant::now();

        let (mut shares, drained) = std::thread::scope(|scope| {
            let consumers: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(g, channel)| {
                    let partitions = g * per_group..((g + 1) * per_group).min(self.n_reducers);
                    let (coord, delete_errors, job) = (&coord, &delete_errors, self);
                    scope.spawn(move || {
                        job.drain_group(partitions, n_inputs, channel, coord, delete_errors)
                    })
                })
                .collect();

            // Every mapper owns clones of the senders, so once the
            // originals drop here a consumer's `recv` ends when the last
            // mapper exits or unwinds.
            let mappers: Vec<_> = (0..n_mappers)
                .map(|_| {
                    let worker = MapWorker {
                        inputs,
                        per_group,
                        served: &served,
                        channels: senders.clone(),
                        share: MapShare {
                            summary: MapSummary::new(self.n_reducers),
                            blocks_sent: 0,
                            error: None,
                        },
                    };
                    let (coord, job) = (&coord, self);
                    scope.spawn(move || {
                        let share = job.map_stage(worker, coord);
                        (share, epoch.elapsed().as_secs_f64())
                    })
                })
                .collect();
            drop(senders);

            let shares: Vec<(MapShare, f64)> = mappers
                .into_iter()
                .map(|h| h.join().expect("pipeline mapper panicked"))
                .collect();
            let drained: Vec<Drained<M>> = consumers
                .into_iter()
                .map(|h| h.join().expect("pipeline consumer panicked"))
                .collect();
            (shares, drained)
        });

        // The barrier: every map task is resolved and every shipped copy
        // is buffered. The lowest failing task's error wins, then the
        // capacity policy — both before any partition is reduced.
        if let Some((_, error)) = shares
            .iter_mut()
            .filter_map(|(share, _)| share.error.take())
            .min_by_key(|&(task, _)| task)
        {
            return Err(error);
        }
        let mut summary = MapSummary::new(self.n_reducers);
        let mut pipeline = PipelineMetrics {
            consumer_groups: n_groups as u64,
            ..PipelineMetrics::default()
        };
        for (share, map_end) in shares {
            summary.merge(share.summary);
            pipeline.blocks_sent += share.blocks_sent;
            pipeline.map_wall_seconds = pipeline.map_wall_seconds.max(map_end);
        }
        self.apply_map_summary(&summary, ckpt, metrics)?;

        let mut partitions = Vec::new();
        for group in drained {
            pipeline.map_reduce_overlap_blocks += group.overlap_blocks;
            pipeline.spilled_runs += group.spilled_runs;
            pipeline.spilled_bytes = pipeline.spilled_bytes.saturating_add(group.spilled_bytes);
            // The budget is per consumer group, so the metric is the worst
            // single group's residency — the value the bound is stated over.
            pipeline.peak_buffered_bytes = pipeline.peak_buffered_bytes.max(group.peak_buffered);
            partitions.extend(group.partitions);
        }

        // Finalized partitions carry their own index because under
        // stealing any thread may have finalized any partition; they are
        // accepted in partition order, exactly like the materialized pass
        // walks its partitions.
        let mut slotted: Vec<Option<FinalizedPartition<R::Out>>> =
            (0..self.n_reducers).map(|_| None).collect();
        let (mut finalize_start, mut finalize_end) = (f64::INFINITY, 0.0f64);
        for span in self.finalize_groups(partitions, per_group, n_groups, ckpt, &epoch) {
            pipeline.stolen_partitions += span.stolen;
            pipeline.merge_fanin = pipeline.merge_fanin.max(span.merge_fanin);
            pipeline
                .finalize_group_seconds
                .push((span.end - span.start).max(0.0));
            finalize_start = finalize_start.min(span.start);
            finalize_end = finalize_end.max(span.end);
            for part in span.finalized {
                let p = part.partition;
                slotted[p] = Some(part);
            }
        }
        // The sink contract promises ascending partition order, so
        // acceptance happens here, not at the finalize threads'
        // out-of-order finish times. The first failed partition, the
        // lowest, is the job's error.
        let reduced = self.accept_partitions(&summary, ckpt, metrics, sink, |p| {
            slotted[p]
                .take()
                .expect("every nonempty partition the checkpoint does not serve finalized")
        })?;
        let spans = &pipeline.finalize_group_seconds;
        let max_span = spans.iter().cloned().fold(0.0, f64::max);
        let mean_span = spans.iter().sum::<f64>() / spans.len().max(1) as f64;
        pipeline.finalize_imbalance = if mean_span > 0.0 {
            max_span / mean_span
        } else {
            1.0
        };
        pipeline.reduce_wall_seconds = (finalize_end - finalize_start).max(0.0);
        pipeline.peak_inflight_blocks = u64::try_from(coord.gauge.peak.load(Ordering::Relaxed))
            .expect("the peak starts at 0 and only rises");
        pipeline.spill_delete_errors = delete_errors.load(Ordering::Relaxed);
        pipeline.wall_seconds = epoch.elapsed().as_secs_f64();
        // Checkpoint counters live on the session and are folded in by
        // `Job::run` after this, uniformly across modes.
        metrics.pipeline = pipeline;
        Ok(reduced)
    }

    /// One mapper thread: pull tasks from the shared cursor, map and route
    /// them, and push partition-tagged blocks into the group channels.
    /// Returns the thread's share once the tasks run out; its senders drop
    /// here, so the consumers see the end of its stream.
    fn map_stage(&self, mut worker: MapWorker<'_, M>, coord: &Coordination) -> MapShare {
        loop {
            let task = coord.next_task.fetch_add(1, Ordering::Relaxed);
            if task >= worker.inputs.len() {
                return worker.share;
            }
            // A lower task already failed: its error wins whatever this
            // task would do, so skip the work and let the pipeline drain.
            if task > coord.error_seq.load(Ordering::Relaxed) {
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.execute_map_task(task, &mut worker, coord);
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
                let summary = &mut worker.share.summary;
                summary.map_retries += u64::from(retries);
                summary.records_emitted += pairs.len() as u64;
                let mut targets: Vec<usize> = Vec::new();
                let mut per_group_records: Vec<Vec<Tagged<M>>> =
                    (0..worker.channels.len()).map(|_| Vec::new()).collect();
                for (key, value) in pairs {
                    if let Err(error) = self.route_into(&key, &mut targets) {
                        worker.fail(task, error, coord);
                        coord.tasks_done.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let key_bytes = key.size_bytes();
                    let value_bytes = value.size_bytes();
                    for &t in &targets {
                        worker.share.summary.loads[t].add(key_bytes, value_bytes);
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
                    worker.share.blocks_sent += 1;
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
                let summary = &mut worker.share.summary;
                summary.map_retries += u64::from(retries);
                summary.dlq.push(DlqEntry {
                    stage: FaultStage::Map,
                    index: task,
                    attempts,
                });
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
            }
            TaskVerdict::Failed { error, retries } => {
                worker.share.summary.map_retries += u64::from(retries);
                worker.fail(task, error, coord);
                coord.tasks_done.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One consumer thread: drains its group's channel until every mapper
    /// is gone, concurrently with live mappers — accounting bytes,
    /// buffering task-tagged records per partition of `partitions`, and
    /// sealing buffers to disk under the budget. Hands the nonempty
    /// buffers back for the finalize that follows the barrier.
    fn drain_group(
        &self,
        partitions: Range<usize>,
        n_inputs: usize,
        channel: Receiver<Block<M::Key, M::Value>>,
        coord: &Coordination,
        delete_errors: &Arc<AtomicU64>,
    ) -> Drained<M> {
        let lo = partitions.start;
        let mut parts: Vec<PartitionBuffer<M>> = partitions
            .map(|_| PartitionBuffer {
                records: Vec::new(),
                resident_bytes: 0,
                spilled: Vec::new(),
                spill_error: None,
            })
            .collect();
        let mut drained = Drained {
            partitions: Vec::new(),
            overlap_blocks: 0,
            spilled_runs: 0,
            spilled_bytes: 0,
            peak_buffered: 0,
        };
        // Out-of-core accounting: `buffered` is the group's resident
        // bytes (`ByteSized`, the budget's unit, saturating like every
        // byte counter), enforced after each whole block so a task's
        // records for a partition never span two sources. A spill
        // failure fails its partition and falls back to unbounded
        // buffering so the pipeline still drains — the job is failing
        // anyway.
        let budget = self.config.memory_budget;
        let spill_dir = spill::resolve_dir(self.config.spill_dir.as_deref());
        let mut buffered = 0u64;
        let mut spill_failed = false;

        while let Ok(block) = channel.recv() {
            coord.gauge.lower();
            if coord.tasks_done.load(Ordering::Relaxed) < n_inputs {
                drained.overlap_blocks += 1;
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
                        drained.spilled_runs += 1;
                        drained.spilled_bytes = drained.spilled_bytes.saturating_add(bytes);
                        buf.spilled.push(sealed);
                        buf.records = Vec::new();
                        buf.resident_bytes = 0;
                    }
                    Err(error) => {
                        buf.spill_error = Some(error.at(lo + local));
                        spill_failed = true;
                    }
                }
            }
            drained.peak_buffered = drained.peak_buffered.max(buffered);
        }

        // Empty partitions never finalize: they produce no outputs and no
        // reduce task in any mode. Nor do partitions the checkpoint
        // serves: no copy was shipped to them.
        drained.partitions = parts
            .into_iter()
            .enumerate()
            .filter(|(_, buf)| !buf.is_empty())
            .map(|(local, buf)| (lo + local, buf))
            .collect();
        drained
    }

    /// Finalizes the drained partitions on one thread per consumer group:
    /// the calling thread as group 0 plus `n_groups − 1` scoped threads,
    /// each taking partitions in [`finalize_queues`] order until its
    /// queue is dry. Returns one span per group, in group order.
    fn finalize_groups(
        &self,
        partitions: Vec<(usize, PartitionBuffer<M>)>,
        per_group: usize,
        n_groups: usize,
        ckpt: Option<&CheckpointSession<R::Out>>,
        epoch: &Instant,
    ) -> Vec<FinalizeSpan<R::Out>> {
        let queues: Vec<_> = finalize_queues(
            self.config.finalize_mode,
            partitions,
            PartitionBuffer::bytes,
            per_group,
            n_groups,
        )
        .into_iter()
        .map(|queue| Mutex::new(queue.into_iter()))
        .collect();
        let run = |group: usize| {
            // One queue per group under static finalize, one that every
            // group shares under stealing.
            let queue = &queues[group % queues.len()];
            // Taking through a closure drops the guard before the
            // partition is finalized, so peers only wait for the take.
            let next = || {
                queue
                    .lock()
                    .expect("no thread panics holding a queue")
                    .next()
            };
            let mut span = FinalizeSpan {
                finalized: Vec::new(),
                stolen: 0,
                start: epoch.elapsed().as_secs_f64(),
                end: 0.0,
                merge_fanin: 0,
            };
            while let Some((partition, buffer)) = next() {
                span.stolen += u64::from(partition / per_group != group);
                let (part, fanin) = self.finalize_partition(partition, buffer, ckpt);
                span.merge_fanin = span.merge_fanin.max(fanin);
                span.finalized.push(part);
            }
            span.end = epoch.elapsed().as_secs_f64();
            span
        };
        std::thread::scope(|scope| {
            let run = &run;
            let peers: Vec<_> = (1..n_groups)
                .map(|group| scope.spawn(move || run(group)))
                .collect();
            let mut spans = vec![run(0)];
            spans.extend(
                peers
                    .into_iter()
                    .map(|h| h.join().expect("pipeline finalize thread panicked")),
            );
            spans
        })
    }

    /// Finalizes one partition through the shared [`Job::reduce_task`]:
    /// [`restore_order`] supplies the records from the resident buffer and
    /// the spilled runs, so it runs only when the task does. A partition
    /// whose spill write failed fails with that error without reducing.
    /// Returns the partition and how many sources it read (0 when the task
    /// did not run). Spilled runs the task did not read drop, deleting
    /// their temp files, on return.
    fn finalize_partition(
        &self,
        partition: usize,
        buffer: PartitionBuffer<M>,
        ckpt: Option<&CheckpointSession<R::Out>>,
    ) -> (FinalizedPartition<R::Out>, u64) {
        if let Some(error) = buffer.spill_error {
            let mut part = FinalizedPartition::new(partition, Vec::new(), 0);
            part.failed = Some(error);
            return (part, 0);
        }
        let mut fanin = 0;
        let part = self.reduce_task(partition, ckpt, || {
            fanin = buffer.spilled.len() as u64 + u64::from(!buffer.records.is_empty());
            // A disk or decode failure reading a spilled run back is an
            // infrastructure error, not a task fault: it bypasses the DLQ
            // and surfaces as the job error (lowest partition wins).
            restore_order(buffer.records, buffer.spilled).map_err(|error| error.at(partition))
        });
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

        // Many records per task, laid out as a spill leaves them: the
        // earlier tasks appended from runs after the later tasks still
        // resident. Only a stable sort keeps each task's emission order
        // here; an unstable one happened to keep it at 8 per task but
        // not at 64.
        let task = |task: usize| -> Vec<(usize, u64, String)> {
            (0..72u64)
                .map(|i| (task, i % 5, format!("t{task}-{i}")))
                .collect()
        };
        let resident: Vec<_> = [5, 3].into_iter().flat_map(task).collect();
        let runs = [[4, 1], [0, 2]].map(|tasks| {
            let run: Vec<_> = tasks.into_iter().flat_map(task).collect();
            spill::write_run(&dir, &run, 1, None).expect("spill writes")
        });
        let expected: Vec<(u64, String)> = (0..6)
            .flat_map(task)
            .map(|(_, key, value)| (key, value))
            .collect();
        assert_eq!(restore_order(resident, runs.into()).unwrap(), expected);
        std::fs::remove_dir(&dir).expect("no spill file outlives its run");
    }

    /// The finalize order, pinned: under stealing one queue ranks the
    /// partitions by bytes descending, the lower partition first on
    /// ties, however many groups take from it; under static each group's
    /// thread takes its own range in ascending order.
    #[test]
    fn finalize_queues_rank_by_bytes_when_stealing_and_by_range_when_static() {
        let order = |mode, per_group, n_groups| -> Vec<Vec<usize>> {
            let bytes_per_partition = vec![(0, 5u64), (1, 9), (2, 9), (3, 50)];
            finalize_queues(
                mode,
                bytes_per_partition,
                |&bytes| bytes,
                per_group,
                n_groups,
            )
            .into_iter()
            .map(|queue| queue.into_iter().map(|(partition, _)| partition).collect())
            .collect()
        };
        assert_eq!(order(FinalizeMode::Stealing, 4, 1), [vec![3, 1, 2, 0]]);
        assert_eq!(order(FinalizeMode::Static, 4, 1), [vec![0, 1, 2, 3]]);
        assert_eq!(order(FinalizeMode::Static, 2, 2), [vec![0, 1], vec![2, 3]]);
        assert_eq!(order(FinalizeMode::Stealing, 2, 2), [vec![3, 1, 2, 0]]);
    }

    #[test]
    fn pipelined_matches_materialized_bit_for_bit() {
        let reference = run(ShuffleMode::Materialized, 1, 20);
        for threads in [1, 2, 4, 3] {
            let pipelined = run(ShuffleMode::Pipelined, threads, 20);
            assert_eq!(reference.outputs, pipelined.outputs, "t={threads}");
            assert_eq!(
                reference.metrics.deterministic(),
                pipelined.metrics.deterministic(),
                "t={threads}"
            );
            let p = &pipelined.metrics.pipeline;
            assert!(p.consumer_groups >= 1);
            assert!(p.blocks_sent >= 1);
            assert!(p.peak_inflight_blocks >= 1);
            assert!(p.peak_inflight_blocks <= CHANNEL_DEPTH as u64 * p.consumer_groups);
        }
    }

    /// The work-stealing finalize is a pure scheduling choice: outputs
    /// and deterministic metrics stay bit-identical to the materialized
    /// pass for every thread count, and static finalize never reports
    /// stolen partitions.
    #[test]
    fn stealing_finalize_matches_materialized_bit_for_bit() {
        let reference = run(ShuffleMode::Materialized, 1, 20);
        for threads in [1, 2, 4, 3] {
            for finalize in FinalizeMode::ALL {
                let pipelined = Job::new(
                    IdentityMapper,
                    ConcatReducer,
                    HashRouter::new(),
                    20,
                    ClusterConfig {
                        shuffle: ShuffleMode::Pipelined,
                        map_threads: threads,
                        finalize_mode: finalize,
                        ..ClusterConfig::default()
                    },
                )
                .run(&inputs(300))
                .unwrap();
                assert_eq!(
                    reference.outputs, pipelined.outputs,
                    "t={threads} {finalize:?}"
                );
                assert_eq!(
                    reference.metrics.deterministic(),
                    pipelined.metrics.deterministic(),
                    "t={threads} {finalize:?}"
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
    /// thread count. Before the fix the mapper counted the task
    /// done only *after* sending, so this block raced to 1.
    #[test]
    fn single_task_blocks_never_count_as_overlap() {
        for threads in [1, 4, 2] {
            let out = Job::new(
                IdentityMapper,
                ConcatReducer,
                HashRouter::new(),
                4,
                ClusterConfig {
                    shuffle: ShuffleMode::Pipelined,
                    map_threads: threads,
                    ..ClusterConfig::default()
                },
            )
            .run(&inputs(1))
            .unwrap();
            let p = &out.metrics.pipeline;
            assert_eq!(p.blocks_sent, 1, "one task, one key, one block");
            assert_eq!(
                p.map_reduce_overlap_blocks, 0,
                "t={threads}: the final (only) task's block is not overlap"
            );
        }
    }

    /// One reducer is one consumer group that four mappers feed through
    /// one channel: the most senders a channel can have in this suite.
    #[test]
    fn single_reducer_single_depth_does_not_deadlock() {
        let reference = run(ShuffleMode::Materialized, 1, 1);
        let pipelined = run(ShuffleMode::Pipelined, 4, 1);
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
    /// until the harness timeout); several mappers over few reducers make
    /// it likely that peers are blocked on full channels when the panic
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
                ..ClusterConfig::default()
            },
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(300))));
        assert!(result.is_err(), "the mapper panic must surface");
    }

    /// Same contract for the reduce side: a panicking reducer unwinds
    /// through its finalize thread and out of `Job::run` — under *both*
    /// finalize modes, whether the panic hits the calling thread or a
    /// peer, and however many partitions the other threads still take.
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
    /// draining* must surface before the stealing finalize ever starts:
    /// the consumer's receiver drops, the mappers' sends to it fail, and
    /// the barrier's join re-raises the panic. Every value is sized once
    /// map-side then once consumer-side, so the 2N-th sizing call is
    /// always consumer-side — panicking there pins the drain-phase unwind
    /// path deterministically.
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
                finalize_mode: FinalizeMode::Stealing,
                ..ClusterConfig::default()
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs(N))));
        assert!(result.is_err(), "the drain-phase panic must surface");
    }

    /// A *retryable* injected reduce fault flows through `fault_verdict`
    /// as a value and never unwinds a finalize thread the way a true user
    /// panic does: the run completes cleanly under both finalize modes,
    /// bit-identical to the fault-free reference, with the retries
    /// visible only in the masked fault counters.
    #[test]
    fn injected_reduce_faults_complete_bit_identically() {
        let reference = run(ShuffleMode::Materialized, 1, 8);
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
        let reference = run(ShuffleMode::Materialized, 1, 8);
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
        let unbounded = run(ShuffleMode::Pipelined, 2, 8);
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
