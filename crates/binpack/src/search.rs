//! Shared branch-and-bound search infrastructure: budgets, statistics, and
//! a bounded memo (transposition) table.
//!
//! Two exact searches in this workspace walk exponential trees —
//! [`crate::exact::pack_exact`] here and the pair-cover search behind the
//! A2A and X2Y exact solvers in `mrassign-core` — and both need the same
//! scaffolding:
//!
//! * [`SearchBudget`] caps the walk by **nodes**, so NP-hard instances
//!   degrade into "best found so far" instead of hanging a planner or a CI
//!   job, and a search's outcome never depends on the machine;
//! * [`SearchStats`] reports where the tree went: nodes expanded, prunes by
//!   dominance and by lower bound, memo hits, and whether the budget ran
//!   out — the honest companion to any "optimal" claim;
//! * [`BoundedMemo`] is a segmented-LRU transposition table keyed on a
//!   canonical encoding of the search state, so states reachable along
//!   several branch orders are expanded once.

use std::collections::HashMap;
use std::hash::Hash;

/// Resource cap for an exact search: a node count, so every search is
/// deterministic.
///
/// A search that exhausts it stops expanding and returns the best
/// incumbent with [`SearchStats::exhausted`] set; it never silently claims
/// optimality. `From<u64>` keeps call sites like
/// `pack_exact(&w, cap, 100_000)` working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum branch-and-bound nodes to expand.
    pub nodes: u64,
}

impl SearchBudget {
    /// Default node cap: enough to certify every instance the experiment
    /// suite labels "small" in well under a second, small enough that a
    /// planner sweep hitting a hard instance stays interactive.
    pub const DEFAULT_NODES: u64 = 2_000_000;

    /// A budget of `nodes` nodes.
    pub const fn nodes(nodes: u64) -> Self {
        SearchBudget { nodes }
    }
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget::nodes(Self::DEFAULT_NODES)
    }
}

impl From<u64> for SearchBudget {
    fn from(nodes: u64) -> Self {
        SearchBudget::nodes(nodes)
    }
}

impl std::str::FromStr for SearchBudget {
    type Err = String;

    /// Parses the `--budget` value of every front end: a positive node
    /// count. Zero is rejected, since it can never certify anything.
    fn from_str(value: &str) -> Result<Self, Self::Err> {
        match value.parse() {
            Ok(nodes) if nodes > 0 => Ok(SearchBudget::nodes(nodes)),
            _ => Err(format!(
                "`{value}` is not a node budget: expected a positive count of \
                 branch-and-bound nodes, e.g. 2000000"
            )),
        }
    }
}

/// What an exact search did, reported alongside its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Subtrees skipped because a dominance/symmetry rule proved an
    /// explored sibling at least as good.
    pub pruned_dominance: u64,
    /// Subtrees cut by a completion lower bound meeting the incumbent.
    pub pruned_bound: u64,
    /// Nodes answered from the memo table instead of re-expansion.
    pub memo_hits: u64,
    /// Whether the [`SearchBudget`] ran out before the search certified
    /// optimality. Never true on a certified result.
    pub exhausted: bool,
}

/// Budget bookkeeping for a search loop: counts nodes against the
/// budget.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: SearchBudget,
    nodes: u64,
}

impl BudgetMeter {
    /// Starts metering against `budget`.
    pub fn new(budget: SearchBudget) -> Self {
        BudgetMeter { budget, nodes: 0 }
    }

    /// Accounts one node; returns `false` when the budget is spent (the
    /// caller must stop expanding and mark the search exhausted). A failing
    /// tick does not count a node.
    pub fn tick(&mut self) -> bool {
        if self.nodes >= self.budget.nodes {
            return false;
        }
        self.nodes += 1;
        true
    }

    /// Nodes expanded so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }
}

/// A bounded transposition table with segmented-LRU eviction.
///
/// Entries live in a *hot* map; when it fills to half the capacity the hot
/// map is demoted to *cold* and the previous cold generation is dropped, so
/// the table holds at most `capacity` entries and anything not touched for
/// two generations ages out. Lookups promote cold hits back to hot. This is
/// the classic two-generation approximation of LRU — O(1) per operation,
/// no intrusive lists.
///
/// Values are search outcomes to be *minimized* (e.g. "fewest bins open
/// when this state was fully explored"): [`BoundedMemo::insert_min`] keeps
/// the smallest value per key, and a revisit with a value no smaller than
/// the stored one can be pruned.
#[derive(Debug)]
pub struct BoundedMemo<K, V> {
    hot: HashMap<K, V>,
    cold: HashMap<K, V>,
    half_capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Copy + Ord> BoundedMemo<K, V> {
    /// Creates a table holding at most `capacity` entries (min 2).
    pub fn new(capacity: usize) -> Self {
        let half_capacity = (capacity / 2).max(1);
        BoundedMemo {
            hot: HashMap::with_capacity(half_capacity),
            cold: HashMap::new(),
            half_capacity,
        }
    }

    /// Looks up `key`, promoting a cold hit into the hot generation.
    pub fn get(&mut self, key: &K) -> Option<V> {
        if let Some(&v) = self.hot.get(key) {
            return Some(v);
        }
        if let Some((k, v)) = self.cold.remove_entry(key) {
            self.rotate_if_full();
            self.hot.insert(k, v);
            return Some(v);
        }
        None
    }

    /// Records `value` for `key`, keeping the minimum on collision.
    pub fn insert_min(&mut self, key: K, value: V) {
        if let Some(existing) = self.hot.get_mut(&key) {
            *existing = (*existing).min(value);
            return;
        }
        if let Some(&cold_v) = self.cold.get(&key) {
            // Promote with the combined minimum; the cold copy will age out.
            self.rotate_if_full();
            self.hot.insert(key, cold_v.min(value));
            return;
        }
        self.rotate_if_full();
        self.hot.insert(key, value);
    }

    /// Drops every entry (capacity is kept). Iterative-deepening searches
    /// clear the table between target depths: an entry proved under a
    /// tighter cutoff says nothing about a looser one.
    pub fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }

    /// Number of live entries across both generations.
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.cold.is_empty()
    }

    fn rotate_if_full(&mut self) {
        if self.hot.len() >= self.half_capacity {
            self.cold = std::mem::take(&mut self.hot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_u64_is_nodes_only() {
        let b: SearchBudget = 42u64.into();
        assert_eq!(b, SearchBudget::nodes(42));
        assert_eq!(SearchBudget::default().nodes, SearchBudget::DEFAULT_NODES);
    }

    /// A budget parses from a positive node count only, with one message
    /// for every other value.
    #[test]
    fn budget_parses_a_positive_node_count() {
        assert_eq!("5000".parse(), Ok(SearchBudget::nodes(5000)));
        for bad in ["0", "many", "-3", "", "1e6"] {
            assert_eq!(
                bad.parse::<SearchBudget>(),
                Err(format!(
                    "`{bad}` is not a node budget: expected a positive count of \
                     branch-and-bound nodes, e.g. 2000000"
                ))
            );
        }
    }

    #[test]
    fn meter_counts_and_cuts_at_node_budget() {
        let mut m = BudgetMeter::new(SearchBudget::nodes(3));
        assert!(m.tick());
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick());
        assert!(!m.tick(), "stays exhausted");
        assert_eq!(m.nodes(), 3);
    }

    #[test]
    fn memo_keeps_minimum_per_key() {
        let mut memo: BoundedMemo<u32, usize> = BoundedMemo::new(16);
        memo.insert_min(7, 5);
        memo.insert_min(7, 9);
        assert_eq!(memo.get(&7), Some(5));
        memo.insert_min(7, 2);
        assert_eq!(memo.get(&7), Some(2));
    }

    #[test]
    fn memo_evicts_oldest_generation() {
        let mut memo: BoundedMemo<u32, usize> = BoundedMemo::new(4);
        // half_capacity = 2: keys 0,1 fill hot, then 2,3 rotate them cold,
        // then 4,5 drop generation {0,1}.
        for k in 0..6 {
            memo.insert_min(k, k as usize);
        }
        assert!(memo.len() <= 4);
        assert_eq!(memo.get(&0), None);
        assert_eq!(memo.get(&5), Some(5));
    }

    #[test]
    fn memo_promotes_cold_hits() {
        let mut memo: BoundedMemo<u32, usize> = BoundedMemo::new(4);
        memo.insert_min(1, 1);
        memo.insert_min(2, 2); // rotation: {1,2} go cold
        assert_eq!(memo.get(&1), Some(1)); // promoted back to hot
        memo.insert_min(3, 3);
        memo.insert_min(4, 4);
        // 1 was promoted, so it survives the rotation that evicted 2.
        assert_eq!(memo.get(&1), Some(1));
    }
}
