//! A deterministic, simulated MapReduce engine.
//!
//! *Assignment of Different-Sized Inputs in MapReduce* (Afrati et al., EDBT
//! 2015) studies MapReduce algorithms at the level of the model: inputs have
//! sizes, a **reducer** is one application of the reduce function to a key
//! and its value list, every reducer has the same **capacity** `q` bounding
//! the summed size of the values assigned to it, and the **communication
//! cost** is the total amount of data moved from the map phase to the reduce
//! phase. This crate implements that model as an executable substrate:
//!
//! * a typed [`Mapper`] → shuffle → [`Reducer`] pipeline that really computes
//!   outputs (the joins built on top produce actual join results),
//! * [`Router`]s deciding which reducer(s) each key-value pair is sent to —
//!   including multi-target routing, which is what a *mapping schema*
//!   compiles to (one input replicated to several reducers),
//! * byte-level accounting: communication cost, per-reducer load, and
//!   replication rate, with reducer-capacity enforcement per the paper,
//! * a discrete-event [`cluster`](ClusterConfig) model (workers, task
//!   scheduling, phase makespans) so the capacity↔parallelism tradeoff can
//!   be *measured* rather than argued,
//! * optional real parallelism for the map phase (std scoped threads)
//!   that never changes results or metrics, only wall-clock time,
//! * two shuffle engines sharing one reduce-task path (fault verdict,
//!   reduce, checkpoint commit) and one in-order accept step (checkpoint
//!   serve, sink hand-off):
//!   the default [`ShuffleMode::Materialized`] reference, and an
//!   overlapped [`ShuffleMode::Pipelined`] engine (see [`pipeline`])
//!   whose mapper and consumer stages run concurrently over bounded
//!   channels, reporting how much map/shuffle/reduce overlap a run
//!   achieved in [`PipelineMetrics`],
//! * an out-of-core path for the pipelined shuffle: under a validated
//!   [`ClusterConfig::memory_budget`] each consumer group bounds what it
//!   holds while it drains by sealing its largest partition buffer to a
//!   temp file in the checkpoint's partition framing (see
//!   [`encode_partition`] and [`SpillCodec`]); finalize reads a
//!   partition's runs back whole, so it holds one whole partition per
//!   consumer thread, and outputs stay bit-identical to the unbounded
//!   run at any budget,
//! * a fault-tolerance layer: a seeded, deterministic [`FaultPlan`]
//!   injects per-(stage, task, attempt) transient failures; per-task
//!   retry budgets replay the deterministic tasks; and tasks that exhaust
//!   the budget land in a dead-letter queue
//!   ([`JobOutput::dlq`]) under [`DlqMode::Capture`] instead of failing
//!   the job,
//! * checkpoint/resume: under a validated
//!   [`ClusterConfig::checkpoint_dir`] the map side's accounting (once,
//!   at the map barrier) and every finalized partition's outputs are
//!   persisted (tmp write → fsync → rename → checksummed manifest append,
//!   under a lock on the manifest itself) keyed by a deterministic job
//!   fingerprint. A restarted job — including one killed mid-run by the
//!   [`FaultPlan`]'s process-level `kill-map:`/`kill-reduce:` verdicts —
//!   verifies every committed file up front. With everything committed
//!   it is served from disk without running the engine; otherwise it
//!   maps again, ships only the copies bound for missing partitions, and
//!   merges the checkpointed outputs back bit-identically
//!   ([`PipelineMetrics::checkpoint_hits`] counts the skips).
//!
//! Everything is deterministic: same inputs, same config ⇒ bit-identical
//! outputs and metrics, regardless of thread count — and, because retries
//! replay deterministic tasks, regardless of injected faults. (The
//! carve-outs are [`JobMetrics::pipeline`] and [`JobMetrics::faults`],
//! which measure *how* a run executed — compare
//! [`JobMetrics::deterministic`] across modes.)
//!
//! # Example: word count with capacity accounting
//!
//! ```
//! use mrassign_simmr::{ClusterConfig, HashRouter, Job, Mapper, Reducer, Emitter};
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type In = String;
//!     type Key = String;
//!     type Value = u64;
//!     fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
//!         for word in line.split_whitespace() {
//!             emit.emit(word.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Count;
//! impl Reducer for Count {
//!     type Key = String;
//!     type Value = u64;
//!     type Out = (String, u64);
//!     fn reduce(&self, key: &String, values: &[u64], out: &mut Vec<(String, u64)>) {
//!         out.push((key.clone(), values.iter().sum()));
//!     }
//! }
//!
//! let lines = vec!["a b a".to_string(), "b c".to_string()];
//! let job = Job::new(Tokenize, Count, HashRouter::new(), 4, ClusterConfig::default());
//! let result = job.run(&lines).unwrap();
//! let mut counts = result.outputs;
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
//! assert!(result.metrics.bytes_shuffled > 0);
//! ```

mod checkpoint;
mod cluster;
mod error;
mod fnv;
mod job;
mod metrics;
pub mod pipeline;
mod record;
mod router;
pub mod sink;
mod spill;
mod traits;

pub use checkpoint::{input_content_hash, job_semantic_hash};
pub use cluster::{
    ClusterConfig, DlqMode, FaultPlan, FaultStage, FinalizeMode, Schedule, ShuffleMode, TaskCost,
};
pub use error::SimError;
pub use fnv::{fnv1a, fold_hash};
pub use job::{CapacityPolicy, DlqEntry, Job, JobOutput};
pub use metrics::{FaultMetrics, JobMetrics, PipelineMetrics};
pub use record::ByteSized;
pub use router::{BroadcastRouter, DirectRouter, HashRouter, Router, TableRouter};
pub use sink::{decode_partition, encode_partition, NullSink, PartitionSink};
pub use spill::SpillCodec;
pub use traits::{Emitter, Mapper, Reducer};
