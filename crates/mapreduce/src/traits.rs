//! The user-facing computation traits: [`Mapper`] and [`Reducer`], plus the
//! [`Emitter`] handed to map functions.

use std::hash::Hash;

use crate::record::ByteSized;
use crate::spill::SpillCodec;

/// Collects the key-value pairs produced by one map invocation.
///
/// Wrapping the output vector (rather than exposing it) lets the engine
/// count emissions and bytes at the single point where they happen.
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    pub(crate) fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emits one intermediate key-value pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far by this map invocation.
    pub fn emitted(&self) -> usize {
        self.pairs.len()
    }

    pub(crate) fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }
}

/// The map side of a job: turns one input into intermediate key-value pairs.
///
/// Implementations must be deterministic ([`Job`](crate::Job) may invoke
/// them from worker threads, and determinism is what keeps metrics
/// reproducible). `Sync` is required for the same reason.
pub trait Mapper: Sync {
    /// Input record type. `Hash` because the checkpoint fingerprint
    /// (see [`ClusterConfig::checkpoint_dir`](crate::ClusterConfig::checkpoint_dir))
    /// folds input *content* into the job identity — equal sizes with
    /// different contents must not share a checkpoint session.
    type In: ByteSized + Hash + Sync;
    /// Intermediate key. The engines move each record from emit to
    /// reduce; `Clone` is used only to fan a record out to a router's
    /// extra targets (the last target takes the record itself, so a
    /// single-target route never clones). `Send` because the engines
    /// move records across threads: map output to the shuffle, and a
    /// completed partition to the consumer that finalizes it;
    /// [`SpillCodec`] because under a
    /// [`memory_budget`](crate::ClusterConfig::memory_budget) the engine
    /// seals partition buffers of `(key, value)` records to temp files
    /// and reads them back at finalize.
    type Key: Ord + Hash + Clone + Send + ByteSized + SpillCodec;
    /// Intermediate value. `Clone + Send + SpillCodec` for the same
    /// reasons as the key: `Clone` only for a router's extra targets.
    type Value: Clone + Send + ByteSized + SpillCodec;

    /// Produces intermediate pairs for `input`.
    fn map(&self, input: &Self::In, emit: &mut Emitter<Self::Key, Self::Value>);

    /// Simulated CPU bytes processed by mapping `input`; defaults to the
    /// input's size. Override when map work is not proportional to input
    /// size.
    fn cost_bytes(&self, input: &Self::In) -> u64 {
        input.size_bytes()
    }

    /// Optional map-side **combiner**: called once per key on the pairs a
    /// single map invocation emitted, before the shuffle, for every key
    /// emitted at least twice. The calls come in ascending key order, and
    /// `key` is the first copy of the key the task emitted. `values`
    /// borrows the task's own values in emission order; nothing is cloned
    /// to build it. Returning `Some(v)` replaces that key's values with
    /// the single combined `v`, cutting communication; the default `None`
    /// disables combining and ships the values themselves.
    ///
    /// Only sound for reduce functions that are associative and
    /// commutative over their value lists (sums, mins, unions) — exactly
    /// the classic MapReduce combiner contract. Mapping-schema jobs do
    /// *not* use combiners: their values are the input payloads themselves.
    fn combine(&self, _key: &Self::Key, _values: &[Self::Value]) -> Option<Self::Value> {
        None
    }
}

/// The reduce side of a job: one invocation per (reducer partition, key).
///
/// This matches the paper's definition — "a reducer is an application of
/// the reduce function to a single key and its associated list of values".
pub trait Reducer: Sync {
    /// Intermediate key (must match the mapper's).
    type Key: Ord + Hash + Clone + ByteSized;
    /// Intermediate value (must match the mapper's).
    type Value: Clone + ByteSized;
    /// Final output record. `Send` because the pipelined engine applies
    /// reduce functions on consumer threads and hands the outputs back;
    /// [`SpillCodec`] because under a
    /// [`checkpoint_dir`](crate::ClusterConfig::checkpoint_dir) the engine
    /// persists each finalized partition's outputs to disk and decodes
    /// them back on resume.
    type Out: Send + SpillCodec;

    /// Reduces one key and its value list, appending results to `out`.
    fn reduce(&self, key: &Self::Key, values: &[Self::Value], out: &mut Vec<Self::Out>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_counts_and_returns_pairs() {
        let mut e: Emitter<u64, u64> = Emitter::new();
        assert_eq!(e.emitted(), 0);
        e.emit(1, 10);
        e.emit(2, 20);
        assert_eq!(e.emitted(), 2);
        assert_eq!(e.into_pairs(), vec![(1, 10), (2, 20)]);
    }
}
