//! The stage graph: typed edges over type-erased payloads.
//!
//! A [`StageGraph`] describes a multi-round MapReduce computation as a DAG
//! of **stages**. Each stage is either a *source* (a value materialized at
//! build time) or a *task* (a closure from its dependencies' outputs to its
//! own output, usually wrapping one [`Job::run`] round via
//! [`StageCtx::run_job`]). Edges are typed at the API surface — a
//! [`StageHandle<T>`] can only be wired into a stage whose closure takes
//! `&T` — while the runtime representation is a type-erased
//! `Arc<dyn Any + Send + Sync>` so heterogeneous rounds (tuples → key
//! statistics → routed tuples → join output) coexist in one graph.
//!
//! Readiness rule: a task stage becomes *ready* the moment every
//! dependency's output is materialized; sources are materialized at
//! submission. The scheduler (see [`crate::server`]) dispatches ready
//! stages onto the shared cluster pool; a stage boundary is therefore just
//! a materialized output set, exactly like the engine's finalized
//! partitions — no stage ever observes a partial upstream result.
//!
//! Every engine knob applies *per stage*: each `run_job` call carries its
//! own [`mrassign_simmr::ClusterConfig`] (shuffle mode, finalize mode,
//! memory budget, fault plan, retries, DLQ), and the stage's
//! engine metrics and dead-letter entries are recorded under the stage's
//! name in [`DagMetrics`] / [`StageDlqEntry`].

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};

use mrassign_simmr::{
    decode_partition, encode_partition, DlqEntry, Job, JobMetrics, JobOutput, Mapper,
    PartitionSink, Reducer, Router, SimError, SpillCodec,
};

use crate::metrics::DagMetrics;
use crate::server::JobServer;

/// Type-erased stage output flowing along graph edges.
pub(crate) type Payload = Arc<dyn Any + Send + Sync>;

/// Distinguishes handles from different graphs; wiring a handle into a
/// graph it does not belong to is a programming error caught at build time.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(0);

/// A typed reference to one stage's output within a [`StageGraph`].
///
/// Obtained from [`StageGraph::source`] / [`StageGraph::stage`] and
/// consumed by later `stage*` calls or as the sink of [`StageGraph::run`]. The type parameter is compile-time only;
/// handles are `Copy`.
#[derive(Debug)]
pub struct StageHandle<T> {
    pub(crate) graph: u64,
    pub(crate) index: usize,
    marker: PhantomData<fn() -> T>,
}

impl<T> Clone for StageHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for StageHandle<T> {}

/// Why a stage failed: an engine error from a [`Job::run`] round, or an
/// arbitrary stage-level failure (planning, validation, ...). Stage
/// closures return this; the scheduler attaches the stage name and
/// surfaces a [`DagError`].
#[derive(Debug, Clone, PartialEq)]
pub enum StageFailure {
    /// The simulated engine failed inside the stage.
    Sim(SimError),
    /// The stage failed outside the engine; carried as text so
    /// [`DagError`] stays `Clone + PartialEq` across arbitrary stage
    /// logic.
    Message(String),
}

impl From<SimError> for StageFailure {
    fn from(e: SimError) -> Self {
        StageFailure::Sim(e)
    }
}

impl From<String> for StageFailure {
    fn from(message: String) -> Self {
        StageFailure::Message(message)
    }
}

impl From<&str> for StageFailure {
    fn from(message: &str) -> Self {
        StageFailure::Message(message.to_string())
    }
}

/// A DAG run failed. The stage *name* identifies which round died — the
/// contract the fault-composition property tests pin (`RetriesExhausted`
/// from round 2 must blame round 2, not the graph).
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// A stage's engine round failed with `source`.
    Stage {
        /// Name of the failed stage.
        stage: String,
        /// The engine error.
        source: SimError,
    },
    /// A stage failed outside the engine (planning, validation, ...).
    StageFailed {
        /// Name of the failed stage.
        stage: String,
        /// Failure description.
        message: String,
    },
}

impl DagError {
    /// The name of the stage that failed.
    pub fn stage(&self) -> &str {
        match self {
            DagError::Stage { stage, .. } | DagError::StageFailed { stage, .. } => stage,
        }
    }

    /// Wraps a stage's [`StageFailure`] under its stage name — what the
    /// scheduler does when a stage body errors. Public so hand-chained
    /// referees can produce errors that compare equal to the DAG's.
    pub fn from_failure(stage: &str, failure: StageFailure) -> Self {
        match failure {
            StageFailure::Sim(source) => DagError::Stage {
                stage: stage.to_string(),
                source,
            },
            StageFailure::Message(message) => DagError::StageFailed {
                stage: stage.to_string(),
                message,
            },
        }
    }
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::Stage { stage, source } => write!(f, "stage `{stage}` failed: {source}"),
            DagError::StageFailed { stage, message } => {
                write!(f, "stage `{stage}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for DagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DagError::Stage { source, .. } => Some(source),
            DagError::StageFailed { .. } => None,
        }
    }
}

/// A dead-letter entry attributed to the stage whose engine round dropped
/// the task — the DAG-level analogue of [`mrassign_simmr::JobOutput::dlq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDlqEntry {
    /// The stage whose round dead-lettered the task.
    pub stage: String,
    /// The engine's entry (task stage, index, attempts).
    pub entry: DlqEntry,
}

/// Per-stage execution context handed to task closures.
///
/// Stages run engine rounds through [`StageCtx::run_job`] /
/// [`StageCtx::run_job_full`] so the round's [`JobMetrics`] and
/// dead-letter entries are recorded under the stage's name; everything the
/// closure computes without the context (pure transforms like planning)
/// needs no bookkeeping.
pub struct StageCtx {
    pub(crate) stage: String,
    pub(crate) jobs: Vec<JobMetrics>,
    pub(crate) dlq: Vec<StageDlqEntry>,
    pub(crate) stream_batches: u64,
    pub(crate) stream_batches_early: u64,
}

impl StageCtx {
    pub(crate) fn new(stage: &str) -> Self {
        StageCtx {
            stage: stage.to_string(),
            jobs: Vec::new(),
            dlq: Vec::new(),
            stream_batches: 0,
            stream_batches_early: 0,
        }
    }

    /// Runs one engine round inside this stage and returns its outputs.
    ///
    /// The round's metrics land in
    /// [`StageMetrics::jobs`](crate::StageMetrics::jobs) and its DLQ
    /// entries are re-attributed to this stage; an engine error becomes
    /// [`DagError::Stage`] naming this stage.
    pub fn run_job<M, R, Rt>(
        &mut self,
        job: &Job<M, R, Rt>,
        inputs: &[M::In],
    ) -> Result<Vec<R::Out>, StageFailure>
    where
        M: Mapper + Sync,
        M::Key: Ord + std::hash::Hash + Clone + Send + Sync + SpillCodec,
        M::Value: Clone + Send + Sync + SpillCodec,
        M::In: Sync,
        R: Reducer<Key = M::Key, Value = M::Value> + Sync,
        R::Out: Send,
        Rt: Router<M::Key>,
    {
        self.run_job_full(job, inputs).map(|out| out.outputs)
    }

    /// Like [`StageCtx::run_job`] but returns the whole [`JobOutput`], so a
    /// stage can thread the round's metrics into its own output value (the
    /// differential harness compares those against the hand-chained runs).
    pub fn run_job_full<M, R, Rt>(
        &mut self,
        job: &Job<M, R, Rt>,
        inputs: &[M::In],
    ) -> Result<JobOutput<R::Out>, StageFailure>
    where
        M: Mapper + Sync,
        M::Key: Ord + std::hash::Hash + Clone + Send + Sync + SpillCodec,
        M::Value: Clone + Send + Sync + SpillCodec,
        M::In: Sync,
        R: Reducer<Key = M::Key, Value = M::Value> + Sync,
        R::Out: Send,
        Rt: Router<M::Key>,
    {
        let out = job.run(inputs)?;
        self.jobs.push(out.metrics.clone());
        self.dlq.extend(out.dlq.iter().map(|entry| StageDlqEntry {
            stage: self.stage.clone(),
            entry: entry.clone(),
        }));
        Ok(out)
    }

    /// Like [`StageCtx::run_job_full`] but hands every finalized reduce
    /// partition to `sink` as it commits — the producer half of a streamed
    /// edge passes the edge's [`StreamTx`] here, so the downstream stage
    /// consumes partitions while this round is still finalizing later
    /// ones. Bookkeeping is identical to [`StageCtx::run_job_full`].
    pub fn run_job_streamed<M, R, Rt>(
        &mut self,
        job: &Job<M, R, Rt>,
        inputs: &[M::In],
        sink: &dyn PartitionSink<R::Out>,
    ) -> Result<JobOutput<R::Out>, StageFailure>
    where
        M: Mapper + Sync,
        M::Key: Ord + std::hash::Hash + Clone + Send + Sync + SpillCodec,
        M::Value: Clone + Send + Sync + SpillCodec,
        M::In: Sync,
        R: Reducer<Key = M::Key, Value = M::Value> + Sync,
        R::Out: Send,
        Rt: Router<M::Key>,
    {
        let out = job.run_with_sink(inputs, sink)?;
        self.jobs.push(out.metrics.clone());
        self.dlq.extend(out.dlq.iter().map(|entry| StageDlqEntry {
            stage: self.stage.clone(),
            entry: entry.clone(),
        }));
        Ok(out)
    }
}

/// Bounded hand-off depth of a streamed edge: how many committed
/// partition batches may sit between producer and consumer before the
/// producer's next commit blocks. The small bound is what *forces*
/// overlap — with `P` nonempty partitions streamed, the consumer must
/// have received at least `P - STREAM_DEPTH` of them before the producer
/// could finish, which is the deterministic floor the streaming tests
/// assert through [`crate::StageMetrics::stream_batches_early`].
pub const STREAM_DEPTH: usize = 2;

/// Shared accounting of one streamed edge.
#[derive(Default)]
struct StreamShared {
    /// Set by the producer after its round returns, before the commit
    /// value is published — batches received while this is still `false`
    /// provably overlapped the upstream round.
    closed: AtomicBool,
    batches: AtomicU64,
    early: AtomicU64,
}

/// The producer-side handle of a streamed edge: a [`PartitionSink`] that
/// encodes each committed partition with the engine's shared
/// [`SpillCodec`] framing (the same bytes a checkpoint would persist) and
/// hands it downstream over a bounded channel.
///
/// The producer half of [`StageGraph::streamed_stage`] receives one of
/// these and typically passes it straight to
/// [`StageCtx::run_job_streamed`].
pub struct StreamTx<T> {
    tx: Mutex<Option<SyncSender<Vec<u8>>>>,
    /// First encode failure, surfaced as the producer stage's failure —
    /// the sink trait itself is infallible.
    error: Mutex<Option<String>>,
    marker: PhantomData<fn(T)>,
}

impl<T> StreamTx<T> {
    /// Drops the sender so the consumer's receive loop terminates.
    fn close(&self) {
        self.tx.lock().expect("stream sender poisoned").take();
    }

    fn take_error(&self) -> Option<String> {
        self.error
            .lock()
            .expect("stream error slot poisoned")
            .take()
    }
}

impl<T: SpillCodec> PartitionSink<T> for StreamTx<T> {
    fn partition(&self, _partition: usize, outputs: &[T], distinct_keys: u64) {
        let bytes = match encode_partition(outputs, distinct_keys) {
            Ok(bytes) => bytes,
            Err(reason) => {
                let mut slot = self.error.lock().expect("stream error slot poisoned");
                slot.get_or_insert(reason);
                return;
            }
        };
        // A send error means the consumer is gone (it failed and dropped
        // its receiver); the producer keeps running and its own result
        // stands — the consumer stage reports the failure.
        if let Some(tx) = self.tx.lock().expect("stream sender poisoned").as_ref() {
            let _ = tx.send(bytes);
        }
    }
}

/// What the consumer thread hands back to the consumer stage.
struct ConsumerDone<O> {
    output: O,
    jobs: Vec<JobMetrics>,
    dlq: Vec<StageDlqEntry>,
}

/// The consumer thread's join handle on a streamed edge.
type ConsumerHandle<O> = std::thread::JoinHandle<Result<ConsumerDone<O>, StageFailure>>;

/// The producer stage's payload on a streamed edge: the running consumer
/// thread plus the edge's overlap counters. Never cacheable — it is a
/// one-shot live handle, which is why streamed producers contribute key
/// material to the stage-key chain without being servable themselves.
struct StreamLink<O> {
    handle: Mutex<Option<ConsumerHandle<O>>>,
    shared: Arc<StreamShared>,
}

/// A task stage's executable body.
pub(crate) type StageFn =
    Arc<dyn Fn(&mut StageCtx, &[Payload]) -> Result<Payload, StageFailure> + Send + Sync>;

/// Measures a stage's type-erased payload in bytes for the intermediate
/// store's capacity accounting.
pub(crate) type SizeFn = Arc<dyn Fn(&Payload) -> u64 + Send + Sync>;

pub(crate) enum StageKind {
    /// Materialized at submission; never dispatched.
    Source(Payload),
    /// Dispatched once every dependency is materialized.
    Task(StageFn),
}

pub(crate) struct StageNode {
    pub(crate) name: String,
    pub(crate) deps: Vec<usize>,
    pub(crate) kind: StageKind,
    /// Stage-local key material folded into the stage-key chain. `None`
    /// makes this stage — and everything downstream — keyless, so a graph
    /// is only cacheable along edges that declared their identity.
    pub(crate) key_seed: Option<u64>,
    /// Whether a server's intermediate store may serve and admit this
    /// stage's payload. Keyed-but-uncacheable stages exist: the producer
    /// half of a streamed edge contributes its key material to the chain
    /// while its own payload (a live stream handle) must never be reused.
    pub(crate) cacheable: bool,
    /// Sizer for capacity accounting; present exactly when `cacheable`.
    pub(crate) sizer: Option<SizeFn>,
}

/// A DAG of chained MapReduce rounds (and pure transforms between them).
///
/// Build stages with [`StageGraph::source`] / [`StageGraph::stage`]; run
/// the whole graph locally with [`StageGraph::run`] or submit it to a
/// shared [`JobServer`]. Cycles are impossible by construction:
/// a stage can only depend on handles that already exist.
pub struct StageGraph {
    pub(crate) id: u64,
    pub(crate) stages: Vec<StageNode>,
}

impl Default for StageGraph {
    fn default() -> Self {
        StageGraph::new()
    }
}

impl StageGraph {
    /// An empty graph.
    pub fn new() -> Self {
        StageGraph {
            id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            stages: Vec::new(),
        }
    }

    /// Number of stages (sources included).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the graph has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    fn handle<T>(&self, index: usize) -> StageHandle<T> {
        StageHandle {
            graph: self.id,
            index,
            marker: PhantomData,
        }
    }

    fn check_dep(&self, dep_graph: u64, dep_index: usize) {
        assert_eq!(
            dep_graph, self.id,
            "stage handle belongs to a different StageGraph"
        );
        assert!(dep_index < self.stages.len(), "stage handle out of range");
    }

    /// Adds a source stage: a value materialized the moment the graph is
    /// submitted (round-0 input data).
    pub fn source<T: Send + Sync + 'static>(&mut self, name: &str, value: T) -> StageHandle<T> {
        self.stages.push(StageNode {
            name: name.to_string(),
            deps: Vec::new(),
            kind: StageKind::Source(Arc::new(value)),
            key_seed: None,
            cacheable: false,
            sizer: None,
        });
        self.handle(self.stages.len() - 1)
    }

    /// Like [`StageGraph::source`], but declares the source's content
    /// identity: `content_key` (typically
    /// [`mrassign_simmr::input_content_hash`] over the value) seeds the
    /// stage-key chain, making downstream cache-marked stages addressable
    /// in a server's intermediate store. Two graphs built over sources
    /// with equal content keys share cached intermediates.
    pub fn source_hashed<T: Send + Sync + 'static>(
        &mut self,
        name: &str,
        value: T,
        content_key: u64,
    ) -> StageHandle<T> {
        self.stages.push(StageNode {
            name: name.to_string(),
            deps: Vec::new(),
            kind: StageKind::Source(Arc::new(value)),
            key_seed: Some(content_key),
            cacheable: false,
            sizer: None,
        });
        self.handle(self.stages.len() - 1)
    }

    /// Adds a task stage with one dependency. `f` runs once `dep`'s output
    /// is materialized; its engine rounds go through the [`StageCtx`].
    pub fn stage<A, O, F>(&mut self, name: &str, dep: &StageHandle<A>, f: F) -> StageHandle<O>
    where
        A: Send + Sync + 'static,
        O: Send + Sync + 'static,
        F: Fn(&mut StageCtx, &A) -> Result<O, StageFailure> + Send + Sync + 'static,
    {
        self.check_dep(dep.graph, dep.index);
        let run: StageFn = Arc::new(move |ctx, inputs| {
            let a = inputs[0]
                .downcast_ref::<A>()
                .expect("typed stage handle guarantees the payload type");
            f(ctx, a).map(|out| Arc::new(out) as Payload)
        });
        self.stages.push(StageNode {
            name: name.to_string(),
            deps: vec![dep.index],
            kind: StageKind::Task(run),
            key_seed: None,
            cacheable: false,
            sizer: None,
        });
        self.handle(self.stages.len() - 1)
    }

    /// Declares a task stage's output cacheable in a server's intermediate
    /// store (see [`crate::JobServer::with_stage_cache`]).
    ///
    /// `key_material` is the stage's own identity contribution — fold in
    /// everything the stage's body depends on besides its graph inputs
    /// (engine config via [`mrassign_simmr::job_semantic_hash`], workload
    /// parameters, …). The server derives the stage's full key by chaining
    /// the stage name, this material, and every dependency's key; a stage
    /// whose dependency chain contains an undeclared (keyless) stage stays
    /// uncacheable. `size` measures the output for capacity accounting.
    ///
    /// The caller asserts the stage body is a pure, deterministic function
    /// of its dependencies and `key_material`; the store trusts that
    /// assertion, exactly like the engine's checkpoint fingerprint trusts
    /// [`mrassign_simmr::ClusterConfig`] to describe the job. A stage
    /// submitted as a job's **sink** is never served or admitted (its
    /// output must be uniquely owned for the join to unwrap), so marking
    /// the sink is allowed but has no effect.
    ///
    /// # Panics
    /// If the handle belongs to a different graph or names a source stage
    /// (sources declare identity via [`StageGraph::source_hashed`]).
    pub fn mark_cached<T, F>(&mut self, handle: &StageHandle<T>, key_material: u64, size: F)
    where
        T: Send + Sync + 'static,
        F: Fn(&T) -> u64 + Send + Sync + 'static,
    {
        self.check_dep(handle.graph, handle.index);
        let node = &mut self.stages[handle.index];
        assert!(
            matches!(node.kind, StageKind::Task(_)),
            "mark_cached targets task stages; sources declare identity via source_hashed"
        );
        node.key_seed = Some(key_material);
        node.cacheable = true;
        node.sizer = Some(Arc::new(move |payload: &Payload| {
            let value = payload
                .downcast_ref::<T>()
                .expect("typed stage handle guarantees the payload type");
            size(value)
        }));
    }

    /// Adds a **streamed edge**: a producer/consumer stage pair whose
    /// hand-off is incremental instead of materialized-then-dispatched.
    ///
    /// The producer runs on the pool like any task stage; `produce`
    /// receives the dependency's value and a [`StreamTx`] and typically
    /// drives one engine round through [`StageCtx::run_job_streamed`], so
    /// every finalized reduce partition is encoded (engine [`SpillCodec`]
    /// framing — the same bytes a checkpoint would persist) and handed
    /// downstream the moment it commits, over a channel bounded at
    /// [`STREAM_DEPTH`] batches. A dedicated consumer thread — started at
    /// producer dispatch, i.e. *before* the producer's round completes —
    /// decodes and accumulates batches as they land, then applies
    /// `consume` to the producer's committed value `P` and the records
    /// (in partition order, bit-identical to the producer round's own
    /// output order). The consumer *stage* joins that thread, re-homes
    /// its engine metrics and DLQ entries under `consumer_name`, and
    /// reports the overlap in
    /// [`StageMetrics::stream_batches`](crate::StageMetrics) /
    /// [`stream_batches_early`](crate::StageMetrics::stream_batches_early).
    ///
    /// Failure is attributed precisely: a `produce` failure names the
    /// producer stage and the consumer thread ends without a commit; a
    /// `consume` (or decode) failure names the consumer stage while the
    /// producer's success stands. Neither side can deadlock — dropping
    /// either channel end unblocks the other.
    ///
    /// `producer_key` optionally declares the producer's identity in the
    /// stage-key chain (see [`StageGraph::mark_cached`]); the producer's
    /// own payload is a live stream handle and is never cached, but its
    /// key material lets a cache-marked consumer be served — in which
    /// case the producer is never dispatched at all.
    pub fn streamed_stage<A, T, P, O, FP, FC>(
        &mut self,
        producer_name: &str,
        consumer_name: &str,
        dep: &StageHandle<A>,
        producer_key: Option<u64>,
        produce: FP,
        consume: FC,
    ) -> StageHandle<O>
    where
        A: Send + Sync + 'static,
        T: SpillCodec + Send + 'static,
        P: Send + 'static,
        O: Send + Sync + 'static,
        FP: Fn(&mut StageCtx, &A, &StreamTx<T>) -> Result<P, StageFailure> + Send + Sync + 'static,
        FC: Fn(&mut StageCtx, P, Vec<T>) -> Result<O, StageFailure> + Send + Sync + 'static,
    {
        self.check_dep(dep.graph, dep.index);
        let consume = Arc::new(consume);
        let consumer = consumer_name.to_string();
        let producer_body: StageFn = Arc::new(move |ctx, inputs| {
            let a = inputs[0]
                .downcast_ref::<A>()
                .expect("typed stage handle guarantees the payload type");
            let (tx, rx) = sync_channel::<Vec<u8>>(STREAM_DEPTH);
            let shared = Arc::new(StreamShared::default());
            let commit: Arc<Mutex<Option<P>>> = Arc::new(Mutex::new(None));
            let stream_tx = StreamTx {
                tx: Mutex::new(Some(tx)),
                error: Mutex::new(None),
                marker: PhantomData,
            };
            let thread = {
                let shared = Arc::clone(&shared);
                let commit = Arc::clone(&commit);
                let consume = Arc::clone(&consume);
                let consumer = consumer.clone();
                std::thread::spawn(move || -> Result<ConsumerDone<O>, StageFailure> {
                    let mut records: Vec<T> = Vec::new();
                    while let Ok(bytes) = rx.recv() {
                        shared.batches.fetch_add(1, Ordering::Relaxed);
                        if !shared.closed.load(Ordering::Acquire) {
                            shared.early.fetch_add(1, Ordering::Relaxed);
                        }
                        // An Err return drops `rx`, which unblocks any
                        // in-flight producer send — no deadlock.
                        let (mut batch, _distinct) = decode_partition::<T>(&bytes)
                            .map_err(|r| StageFailure::Message(format!("streamed batch {r}")))?;
                        records.append(&mut batch);
                    }
                    let value = commit
                        .lock()
                        .expect("stream commit slot poisoned")
                        .take()
                        .ok_or_else(|| {
                            StageFailure::Message(
                                "upstream producer failed before committing its stream".to_string(),
                            )
                        })?;
                    let mut cctx = StageCtx::new(&consumer);
                    let output = consume(&mut cctx, value, records)?;
                    Ok(ConsumerDone {
                        output,
                        jobs: cctx.jobs,
                        dlq: cctx.dlq,
                    })
                })
            };
            match produce(ctx, a, &stream_tx) {
                Ok(value) => {
                    if let Some(reason) = stream_tx.take_error() {
                        stream_tx.close();
                        return Err(StageFailure::Message(reason));
                    }
                    // Close order matters: flag first, then the commit
                    // value, then the channel — the consumer drains the
                    // channel before reading the commit slot.
                    shared.closed.store(true, Ordering::Release);
                    *commit.lock().expect("stream commit slot poisoned") = Some(value);
                    stream_tx.close();
                    Ok(Arc::new(StreamLink {
                        handle: Mutex::new(Some(thread)),
                        shared,
                    }) as Payload)
                }
                Err(failure) => {
                    // No commit: the consumer thread ends with its own
                    // "producer failed" error, which nobody will join —
                    // this stage's failure already fails the job.
                    stream_tx.close();
                    Err(failure)
                }
            }
        });
        self.stages.push(StageNode {
            name: producer_name.to_string(),
            deps: vec![dep.index],
            kind: StageKind::Task(producer_body),
            key_seed: producer_key,
            cacheable: false,
            sizer: None,
        });
        let producer_index = self.stages.len() - 1;

        let consumer_body: StageFn = Arc::new(move |ctx, inputs| {
            let link = inputs[0]
                .downcast_ref::<StreamLink<O>>()
                .expect("streamed consumer's sole dependency is its producer");
            let thread = link
                .handle
                .lock()
                .expect("stream link poisoned")
                .take()
                .expect("a streamed edge is consumed exactly once");
            let done = thread
                .join()
                .map_err(|_| StageFailure::Message("streamed consumer panicked".to_string()))??;
            ctx.jobs.extend(done.jobs);
            ctx.dlq.extend(done.dlq);
            ctx.stream_batches = link.shared.batches.load(Ordering::Relaxed);
            ctx.stream_batches_early = link.shared.early.load(Ordering::Relaxed);
            Ok(Arc::new(done.output) as Payload)
        });
        self.stages.push(StageNode {
            name: consumer_name.to_string(),
            deps: vec![producer_index],
            kind: StageKind::Task(consumer_body),
            key_seed: None,
            cacheable: false,
            sizer: None,
        });
        self.handle(self.stages.len() - 1)
    }

    /// Runs the whole graph on a private single-thread pool and returns
    /// the sink stage's output. Shorthand for [`StageGraph::run_on`].
    pub fn run<T: Send + Sync + 'static>(
        self,
        sink: &StageHandle<T>,
    ) -> Result<DagOutput<T>, DagError> {
        self.run_on(1, sink)
    }

    /// Runs the whole graph on a private pool of `threads` workers. The
    /// pool governs *stage-level* concurrency; each engine round still
    /// parallelizes internally per its own `ClusterConfig::map_threads`.
    pub fn run_on<T: Send + Sync + 'static>(
        self,
        threads: usize,
        sink: &StageHandle<T>,
    ) -> Result<DagOutput<T>, DagError> {
        let server = JobServer::new(threads);
        let handle = server.submit("local", 0, self, sink);
        let result = handle.join();
        server.shutdown();
        result
    }
}

/// Everything a completed DAG run returns: the sink stage's value, the
/// DAG-level metrics, and the dead-letter entries of every stage.
#[derive(Debug, Clone)]
pub struct DagOutput<T> {
    /// The sink stage's output value.
    pub output: T,
    /// Stage wall-clocks, queue waits, dispatch accounting, and each
    /// stage's engine metrics. Execution-dependent (like
    /// [`mrassign_simmr::PipelineMetrics`]): never part of cross-mode
    /// bit-identity comparisons.
    pub metrics: DagMetrics,
    /// Dead-letter entries across all stages, sorted by (stage index,
    /// task stage, task index) so the order is deterministic whatever the
    /// dispatch interleaving was.
    pub dlq: Vec<StageDlqEntry>,
}
