//! Chained MapReduce rounds as a scheduled DAG, plus a multi-tenant job
//! server over one shared cluster pool.
//!
//! The EDBT 2015 paper's algorithms are single-round mapping schemas, but
//! its motivating applications — skew joins, marginals — are *chains* of
//! rounds. This crate supplies the missing control plane:
//!
//! * [`StageGraph`] — typed stage edges over materialized intermediate
//!   sets; each task stage wraps engine rounds via [`StageCtx::run_job`],
//!   so every engine knob (shuffle mode, finalize mode, memory budget,
//!   fault plan, retries, DLQ) applies **per stage**;
//! * a topological scheduler — stages dispatch exactly when every
//!   dependency output is materialized, onto a shared worker pool;
//! * [`JobServer`] — an admission queue accepting concurrent jobs from
//!   many tenants, scheduling ready stages by (fair-share span, priority,
//!   FIFO) with per-tenant [`TenantShare`] accounting;
//! * [`DagMetrics`] — per-stage wall-clocks, queue waits, and dispatch
//!   slots ([`StageMetrics::dispatch_gap`] is the bounded-wait quantity
//!   the starvation property test asserts on);
//! * a fingerprint-keyed **intermediate stage store**
//!   ([`JobServer::with_stage_cache`]) — stages opted in via
//!   [`StageGraph::mark_cached`] are admitted into a capacity-bounded,
//!   LRU-evicted per-server cache keyed by the engine's deterministic
//!   fingerprint chain extended with stage identity; a repeat submission
//!   over identical sources is served from the store and executes
//!   strictly fewer stages, bit-identically, without billing the tenant's
//!   fair-share span ([`TenantShare::stages_from_cache`]);
//! * **streaming edges** ([`StageGraph::streamed_stage`]) — the upstream
//!   round hands finalized reduce partitions to the downstream stage as
//!   they commit (via the engine's
//!   [`PartitionSink`](mrassign_simmr::PartitionSink)), over a bounded
//!   channel of [`STREAM_DEPTH`] encoded batches;
//!   [`StageMetrics::stream_batches_early`] counts batches the consumer
//!   popped before the producer committed — direct evidence the
//!   downstream stage started before the upstream one finished;
//! * [`marginals`] — the two-round marginals workload (Afrati, Sharma,
//!   Ullman, "Computing Marginals Using MapReduce") ported onto the DAG,
//!   with a hand-chained referee for differential testing. The skew join's
//!   two rounds are ported in `mrassign_joins::skewdag`.
//!
//! Scheduling never changes results: stages are deterministic functions of
//! their materialized inputs, so a graph's output is bit-identical whether
//! it runs on one worker or many, locally via [`StageGraph::run`] or
//! through a contended [`JobServer`] — the `dag_modes` differential
//! harness pins exactly that across every engine execution mode.

pub mod graph;
pub mod marginals;
pub mod metrics;
pub mod server;
pub mod store;

pub use graph::{
    DagError, DagOutput, StageCtx, StageDlqEntry, StageFailure, StageGraph, StageHandle, StreamTx,
    STREAM_DEPTH,
};
pub use metrics::{DagMetrics, StageMetrics, TenantShare};
pub use server::{JobHandle, JobServer};
pub use store::StoreStats;
