//! The fingerprint-keyed intermediate store: a per-server, capacity-bounded
//! cache of materialized stage outputs.
//!
//! A [`crate::JobServer`] built with
//! [`with_stage_cache`](crate::JobServer::with_stage_cache) owns one
//! `StageStore` (crate-private). Stages opt in via
//! [`StageGraph::mark_cached`](crate::StageGraph::mark_cached); at
//! submission the server derives each opted-in stage's **stage key** — the
//! stage name's [`mrassign_simmr::fnv1a`] folded
//! ([`mrassign_simmr::fold_hash`]) with the stage's semantic seed and
//! every upstream stage's key, rooted at its sources'
//! [`mrassign_simmr::input_content_hash`] — and serves a hit by
//! materializing the stored payload instead of enqueueing the stage (or
//! any stage that only exists to feed it). Two submissions over identical sources therefore share
//! intermediates bit-identically: the payload served *is* the `Arc` the
//! first run produced.
//!
//! The store is capacity-bounded in bytes (as reported by the stage's
//! registered sizer) and evicts least-recently-used entries; an entry
//! larger than the whole capacity is simply not admitted. Eviction only
//! ever costs recomputation, never correctness — a missing key is an
//! ordinary miss.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::graph::{Payload, StageDlqEntry};

/// One cached stage output: the payload plus the dead-letter entries the
/// producing run attributed to the stage and its (now skippable) upstream
/// chain, so a served hit reproduces the full `DagOutput` — values *and*
/// DLQ — bit-identically.
#[derive(Clone)]
pub(crate) struct StoredStage {
    pub(crate) payload: Payload,
    pub(crate) dlq: Vec<StageDlqEntry>,
}

struct StoreEntry {
    payload: Payload,
    dlq: Vec<StageDlqEntry>,
    bytes: u64,
    /// Logical LRU clock value of the last hit or insert.
    last_used: u64,
}

struct StoreInner {
    entries: HashMap<u64, StoreEntry>,
    clock: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// Point-in-time counters of a server's stage store, from
/// [`JobServer::stage_cache_stats`](crate::JobServer::stage_cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (sum of the entries' sized payloads).
    pub used_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Submissions served from the store (stage granularity).
    pub hits: u64,
    /// Cacheable stages that had to execute because their key was absent.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries admitted (inserts and refreshes).
    pub insertions: u64,
}

/// The capacity-bounded, LRU-evicted stage-output cache. See the module
/// docs; constructed only by
/// [`JobServer::with_stage_cache`](crate::JobServer::with_stage_cache).
pub(crate) struct StageStore {
    capacity: u64,
    inner: Mutex<StoreInner>,
}

impl StageStore {
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        StageStore {
            capacity: capacity_bytes,
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                clock: 0,
                used_bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                insertions: 0,
            }),
        }
    }

    /// Looks a key up without touching any counter or the LRU clock. The
    /// server peeks every candidate first and only *commits* to the subset
    /// the sink actually needs (serving a downstream stage prunes its
    /// upstream chain, whose own candidates must then count as nothing).
    pub(crate) fn peek(&self, key: u64) -> Option<StoredStage> {
        let inner = self.inner.lock().expect("stage store poisoned");
        inner.entries.get(&key).map(|e| StoredStage {
            payload: Arc::clone(&e.payload),
            dlq: e.dlq.clone(),
        })
    }

    /// Commits a hit for `key`: counts it and bumps the entry's LRU slot.
    /// The entry may have been evicted between peek and commit (another
    /// insert racing in); the hit still counts — the payload was already
    /// cloned out.
    pub(crate) fn note_hit(&self, key: u64) {
        let mut inner = self.inner.lock().expect("stage store poisoned");
        inner.hits += 1;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.last_used = clock;
        }
    }

    /// Counts one miss: a cacheable stage that has to execute.
    pub(crate) fn note_miss(&self) {
        self.inner.lock().expect("stage store poisoned").misses += 1;
    }

    /// Admits (or refreshes) an entry, evicting least-recently-used
    /// entries until it fits. Returns how many entries were evicted. An
    /// entry larger than the whole capacity is not admitted — recompute is
    /// always a correct fallback, so the store never over-commits.
    pub(crate) fn insert(
        &self,
        key: u64,
        payload: Payload,
        bytes: u64,
        dlq: Vec<StageDlqEntry>,
    ) -> u64 {
        if bytes > self.capacity {
            return 0;
        }
        let mut inner = self.inner.lock().expect("stage store poisoned");
        if let Some(old) = inner.entries.remove(&key) {
            inner.used_bytes -= old.bytes;
        }
        let mut evicted = 0;
        while inner.used_bytes + bytes > self.capacity {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
                .expect("used_bytes > 0 implies a resident entry");
            let old = inner.entries.remove(&lru).expect("key came from the map");
            inner.used_bytes -= old.bytes;
            evicted += 1;
        }
        inner.clock += 1;
        let last_used = inner.clock;
        inner.entries.insert(
            key,
            StoreEntry {
                payload,
                dlq,
                bytes,
                last_used,
            },
        );
        inner.used_bytes += bytes;
        inner.evictions += evicted;
        inner.insertions += 1;
        evicted
    }

    pub(crate) fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("stage store poisoned");
        StoreStats {
            entries: inner.entries.len(),
            used_bytes: inner.used_bytes,
            capacity_bytes: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            insertions: inner.insertions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn payload(v: u64) -> Payload {
        Arc::new(v)
    }

    fn value(s: &StoredStage) -> u64 {
        *s.payload.downcast_ref::<u64>().expect("u64 payload")
    }

    #[test]
    fn insert_peek_roundtrip_and_counters() {
        let store = StageStore::new(1_000);
        assert!(store.peek(1).is_none());
        store.note_miss();
        assert_eq!(store.insert(1, payload(10), 100, Vec::new()), 0);
        let hit = store.peek(1).expect("resident");
        assert_eq!(value(&hit), 10);
        store.note_hit(1);
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.used_bytes, 100);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_hit() {
        let store = StageStore::new(250);
        store.insert(1, payload(1), 100, Vec::new());
        store.insert(2, payload(2), 100, Vec::new());
        // Touch 1 so 2 becomes the LRU entry.
        store.note_hit(1);
        let evicted = store.insert(3, payload(3), 100, Vec::new());
        assert_eq!(evicted, 1);
        assert!(store.peek(1).is_some(), "recently hit entry survives");
        assert!(store.peek(2).is_none(), "LRU entry evicted");
        assert!(store.peek(3).is_some());
        assert_eq!(store.stats().used_bytes, 200);
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let store = StageStore::new(50);
        assert_eq!(store.insert(1, payload(1), 51, Vec::new()), 0);
        assert!(store.peek(1).is_none());
        assert_eq!(store.stats().entries, 0);
        // Exactly capacity fits.
        assert_eq!(store.insert(2, payload(2), 50, Vec::new()), 0);
        assert!(store.peek(2).is_some());
    }

    #[test]
    fn refresh_replaces_without_double_counting_bytes() {
        let store = StageStore::new(300);
        store.insert(1, payload(1), 200, Vec::new());
        store.insert(1, payload(9), 250, Vec::new());
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.used_bytes, 250);
        assert_eq!(stats.insertions, 2);
        assert_eq!(value(&store.peek(1).expect("resident")), 9);
    }
}
