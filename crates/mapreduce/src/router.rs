//! Routing of intermediate keys to reducer partitions.
//!
//! A conventional MapReduce partitioner sends each key to exactly one
//! reducer. The mapping schemas of Afrati et al. need more: an input may be
//! *replicated* to several reducers so that every required pair of inputs
//! meets somewhere. [`Router`] therefore yields a **set** of targets per
//! key; [`TableRouter`] is the bridge from a computed mapping schema to the
//! engine ("input i goes to reducers {3, 17, 21}"), while [`HashRouter`]
//! and [`BroadcastRouter`] provide the classic baselines the experiments
//! compare against.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::fnv::Fnv1a;

/// Decides which reducer partition(s) receive a key.
///
/// `route` appends targets to `targets` (cleared by the engine between
/// calls). Duplicate targets are deduplicated by the engine; out-of-range
/// targets abort the job with [`crate::SimError::RouteOutOfRange`].
pub trait Router<K>: Sync {
    /// Appends the reducer indices (in `0..n_reducers`) that must receive
    /// `key`.
    fn route(&self, key: &K, n_reducers: usize, targets: &mut Vec<usize>);
}

/// Classic single-target hash partitioning (the MapReduce default).
///
/// Uses FNV-1a with a fixed offset basis over the key's `std::hash` stream,
/// so partition decisions are stable across runs and processes (unlike
/// `RandomState`, which reseeds per process).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

impl HashRouter {
    /// Creates a hash router.
    pub fn new() -> Self {
        HashRouter
    }

    fn bucket<K: Hash>(&self, key: &K, n: usize) -> usize {
        let mut h = Fnv1a::default();
        key.hash(&mut h);
        (h.finish() % n as u64) as usize
    }
}

impl<K: Hash> Router<K> for HashRouter {
    fn route(&self, key: &K, n_reducers: usize, targets: &mut Vec<usize>) {
        targets.push(self.bucket(key, n_reducers));
    }
}

/// Sends every key to every reducer — the broadcast-join baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastRouter;

impl<K> Router<K> for BroadcastRouter {
    fn route(&self, _key: &K, n_reducers: usize, targets: &mut Vec<usize>) {
        targets.extend(0..n_reducers);
    }
}

/// Interprets the key itself as the reducer index.
///
/// This is how a *mapping schema* executes: the planner computes each
/// input's reducer targets, the mapper emits one copy of the input per
/// target with the target index as the key, and this router delivers it.
/// Keys at or above `n_reducers` are reported as routing errors by the
/// engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectRouter;

impl Router<u64> for DirectRouter {
    fn route(&self, key: &u64, _n_reducers: usize, targets: &mut Vec<usize>) {
        targets.push(*key as usize);
    }
}

impl Router<usize> for DirectRouter {
    fn route(&self, key: &usize, _n_reducers: usize, targets: &mut Vec<usize>) {
        targets.push(*key);
    }
}

/// Routes keys by explicit lookup table — the compiled form of a mapping
/// schema. Keys absent from the table are dropped.
#[derive(Debug, Clone)]
pub struct TableRouter<K> {
    table: HashMap<K, Vec<usize>>,
}

impl<K: Hash + Eq> TableRouter<K> {
    /// Builds a router from `(key, targets)` entries: unlisted keys are
    /// dropped (their pairs are covered elsewhere).
    pub fn new(entries: impl IntoIterator<Item = (K, Vec<usize>)>) -> Self {
        TableRouter {
            table: entries.into_iter().collect(),
        }
    }

    /// Number of keys with explicit routes.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no explicit routes.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl<K: Hash + Eq + Sync> Router<K> for TableRouter<K> {
    fn route(&self, key: &K, _n_reducers: usize, targets: &mut Vec<usize>) {
        if let Some(list) = self.table.get(key) {
            targets.extend_from_slice(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_router_is_deterministic_and_in_range() {
        let r = HashRouter::new();
        for key in 0u64..500 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            r.route(&key, 7, &mut a);
            r.route(&key, 7, &mut b);
            assert_eq!(a, b);
            assert_eq!(a.len(), 1);
            assert!(a[0] < 7);
        }
    }

    #[test]
    fn hash_router_spreads_keys() {
        let r = HashRouter::new();
        let mut counts = [0usize; 8];
        for key in 0u64..8000 {
            let mut t = Vec::new();
            r.route(&key, 8, &mut t);
            counts[t[0]] += 1;
        }
        // Each bucket should get a meaningful share (no empty bucket).
        assert!(counts.iter().all(|&c| c > 500), "{counts:?}");
    }

    #[test]
    fn direct_router_uses_key_as_target() {
        let r = DirectRouter;
        let mut t = Vec::new();
        r.route(&3u64, 5, &mut t);
        assert_eq!(t, vec![3]);
        t.clear();
        r.route(&7usize, 5, &mut t);
        assert_eq!(t, vec![7]); // out of range: engine reports the error
    }

    #[test]
    fn broadcast_targets_everything() {
        let r = BroadcastRouter;
        let mut t = Vec::new();
        r.route(&42u64, 5, &mut t);
        assert_eq!(t, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn table_router_uses_listed_routes() {
        let r = TableRouter::new([(1u64, vec![0, 2]), (2, vec![1])]);
        let mut t = Vec::new();
        r.route(&1, 3, &mut t);
        assert_eq!(t, vec![0, 2]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn table_router_without_fallback_drops_unknown() {
        let r = TableRouter::new([(1u64, vec![0])]);
        let mut t = Vec::new();
        r.route(&99, 3, &mut t);
        assert!(t.is_empty());
    }
}
