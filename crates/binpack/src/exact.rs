//! Exact bin packing by branch-and-bound, for certifying heuristic quality
//! on small instances.
//!
//! The search places items in decreasing weight order. At each node the
//! current largest unplaced item is tried in every open bin with a
//! *distinct* residual capacity (identical residuals are interchangeable,
//! so only one representative is branched on) and in one fresh bin. On top
//! of that skeleton sit four reductions:
//!
//! * **bound pruning** — the continuous completion bound: a node needs at
//!   least `⌈(remaining − open residual) / capacity⌉` additional bins;
//! * **exact-fit dominance** — an item that exactly fills some open bin is
//!   placed there and nowhere else (swapping it out of any optimal
//!   completion into the exact-fit bin never costs a bin);
//! * **equal-item symmetry breaking** — items of equal weight are
//!   interchangeable, so their bin indices are forced non-decreasing along
//!   the placement order and permuted twins are explored once;
//! * **memoization** — the future of a node depends only on
//!   `(depth, multiset of residuals)`; a [`BoundedMemo`] keyed on that
//!   state prunes re-derivations reached along a different branch order.
//!
//! A [`SearchBudget`] (a node count) keeps worst cases
//! bounded; [`ExactResult::stats`] records whether the returned packing is
//! certified optimal (search exhausted or matched the [`crate::bounds::l2`]
//! lower bound) or merely the best found in budget, plus where the tree was
//! cut.

use crate::bounds;
use crate::error::PackError;
use crate::fit::{pack, FitPolicy};
use crate::packing::{Bin, ItemId, Packing};
use crate::search::{BoundedMemo, BudgetMeter, SearchBudget, SearchStats};

/// Entries the exact packer's memo table holds before segmented-LRU
/// eviction kicks in. Each entry is a residual multiset (a short `Vec<u64>`),
/// so the table tops out around tens of MB.
const MEMO_CAPACITY: usize = 1 << 20;

/// Outcome of an exact packing attempt.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The best packing found (optimal when `optimal` is true).
    pub packing: Packing,
    /// Whether optimality was certified within the search budget.
    pub optimal: bool,
    /// Where the search spent its budget.
    pub stats: SearchStats,
}

struct Search<'a> {
    weights: &'a [u64],
    /// Item ids sorted by decreasing weight.
    order: Vec<ItemId>,
    capacity: u64,
    /// Suffix sums of ordered weights: `remaining[i]` = weight of items i...
    remaining: Vec<u64>,
    best_bins: usize,
    best_assignment: Option<Vec<usize>>,
    meter: BudgetMeter,
    stats: SearchStats,
}

impl Search<'_> {
    /// `bins` holds residual capacities; `assignment[k]` is the bin of the
    /// k-th ordered item placed so far. `prev_forced` says the item at
    /// `depth − 1` was placed by the exact-fit rule rather than by a
    /// branching choice — such placements must not anchor the equal-item
    /// chain below, because the exchange argument behind exact fitting
    /// reorders equal items freely.
    fn run(
        &mut self,
        depth: usize,
        bins: &mut Vec<u64>,
        assignment: &mut Vec<usize>,
        prev_forced: bool,
        memo: &mut BoundedMemo<Vec<u64>, usize>,
    ) {
        if !self.meter.tick() {
            self.stats.exhausted = true;
            return;
        }

        if depth == self.order.len() {
            if bins.len() < self.best_bins {
                self.best_bins = bins.len();
                self.best_assignment = Some(assignment.clone());
            }
            return;
        }
        // Completion bound: remaining weight must fit into open residuals
        // plus new bins.
        let open_residual: u64 = bins.iter().sum();
        let overflow = self.remaining[depth].saturating_sub(open_residual);
        let extra = overflow.div_ceil(self.capacity) as usize;
        if bins.len() + extra >= self.best_bins {
            self.stats.pruned_bound += 1;
            return;
        }

        let w = self.weights[self.order[depth] as usize];

        // Equal items are interchangeable: force non-decreasing bin indices
        // along consecutive *free* placements, so permutations of
        // equal-weight items across bins are explored once. (Any packing
        // can be rewritten into this canonical form by swapping the full
        // assignments of the two equal items, which never changes a bin's
        // load.)
        let min_bin =
            if depth > 0 && !prev_forced && self.weights[self.order[depth - 1] as usize] == w {
                assignment[depth - 1]
            } else {
                0
            };

        // Exact-fit dominance: if the item exactly fills some open bin,
        // that placement dominates every alternative — take it alone.
        // (Exchange argument: in any completion placing this item
        // elsewhere, swap it with the future content of the exact-fit
        // residual; loads only move between bins that stay within
        // capacity, and the bin count is unchanged.) The rule only fires
        // when no equal-item chain is active, so the two reductions never
        // constrain the same placement against each other.
        if min_bin == 0 {
            if let Some(fit) = (0..bins.len()).find(|&b| bins[b] == w) {
                self.stats.pruned_dominance += 1;
                bins[fit] = 0;
                assignment.push(fit);
                self.run(depth + 1, bins, assignment, true, memo);
                assignment.pop();
                bins[fit] = w;
                return;
            }
        }

        // The rest of the subtree depends only on (depth, residual
        // multiset) — but only when no equal-item restriction is active,
        // because `min_bin` is a bin *index*, which the multiset forgets.
        let memo_key = if min_bin == 0 {
            let mut key: Vec<u64> = Vec::with_capacity(bins.len() + 1);
            key.push(depth as u64);
            key.extend_from_slice(bins);
            key[1..].sort_unstable();
            Some(key)
        } else {
            None
        };
        if let Some(key) = &memo_key {
            if let Some(seen_with) = memo.get(key) {
                if seen_with <= bins.len() {
                    // A previous, fully explored visit reached this exact
                    // future with at least as few bins open; anything
                    // reachable from here was already tried at least as
                    // cheaply.
                    self.stats.memo_hits += 1;
                    return;
                }
            }
        }
        let exhausted_before = self.stats.exhausted;

        // Try each distinct residual once, largest residual first (tends to
        // reach good solutions quickly, tightening the bound early). Ties
        // keep the smallest bin index so the equal-item restriction above
        // stays maximally permissive for the next item.
        let mut tried: Vec<u64> = Vec::with_capacity(bins.len());
        let mut candidates: Vec<usize> = (min_bin..bins.len()).filter(|&b| bins[b] >= w).collect();
        candidates.sort_by(|&a, &b| bins[b].cmp(&bins[a]).then(a.cmp(&b)));
        for b in candidates {
            if tried.contains(&bins[b]) {
                self.stats.pruned_dominance += 1;
                continue;
            }
            tried.push(bins[b]);
            bins[b] -= w;
            assignment.push(b);
            self.run(depth + 1, bins, assignment, false, memo);
            assignment.pop();
            bins[b] += w;
        }

        // One fresh bin (all fresh bins are symmetric).
        if bins.len() + 1 < self.best_bins {
            bins.push(self.capacity - w);
            assignment.push(bins.len() - 1);
            self.run(depth + 1, bins, assignment, false, memo);
            assignment.pop();
            bins.pop();
        }

        // Memoize only fully explored subtrees: a budget-truncated visit
        // proves nothing about this state.
        if let Some(key) = memo_key {
            if self.stats.exhausted == exhausted_before {
                memo.insert_min(key, bins.len());
            }
        }
    }
}

/// Packs `weights` into the provably minimum number of capacity-`capacity`
/// bins within the given [`SearchBudget`] (a plain `u64` is a nodes-only
/// budget).
///
/// Starts from the first-fit-decreasing solution, so the result is never
/// worse than FFD. If FFD already matches the Martello–Toth lower bound the
/// search is skipped entirely and the result is certified optimal.
///
/// # Example
///
/// ```
/// use mrassign_binpack::exact::pack_exact;
/// // FFD needs 4 bins here; the optimum is 3 (7+3, 6+4, 5+5).
/// let r = pack_exact(&[7, 6, 5, 5, 4, 3], 10, 100_000).unwrap();
/// assert!(r.optimal);
/// assert_eq!(r.packing.bin_count(), 3);
/// ```
pub fn pack_exact(
    weights: &[u64],
    capacity: u64,
    budget: impl Into<SearchBudget>,
) -> Result<ExactResult, PackError> {
    let budget = budget.into();
    let ffd = pack(weights, capacity, FitPolicy::FirstFitDecreasing)?;
    let lb = bounds::l2(weights, capacity);
    if ffd.bin_count() <= lb {
        return Ok(ExactResult {
            packing: ffd,
            optimal: true,
            stats: SearchStats::default(),
        });
    }

    let mut order: Vec<ItemId> = (0..weights.len() as u32).collect();
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut remaining = vec![0u64; order.len() + 1];
    for i in (0..order.len()).rev() {
        remaining[i] = remaining[i + 1] + weights[order[i] as usize];
    }

    let mut search = Search {
        weights,
        order,
        capacity,
        remaining,
        best_bins: ffd.bin_count(),
        best_assignment: None,
        meter: BudgetMeter::new(budget),
        stats: SearchStats::default(),
    };
    let mut memo = BoundedMemo::new(MEMO_CAPACITY);
    search.run(0, &mut Vec::new(), &mut Vec::new(), false, &mut memo);
    search.stats.nodes = search.meter.nodes();

    let packing = match &search.best_assignment {
        None => ffd,
        Some(assignment) => {
            let mut bins: Vec<Bin> = (0..search.best_bins).map(|_| Bin::new()).collect();
            for (k, &b) in assignment.iter().enumerate() {
                let id = search.order[k];
                bins[b].push(id, weights[id as usize]);
            }
            bins.retain(|b| !b.is_empty());
            Packing::from_bins(capacity, bins)
        }
    };
    let optimal = !search.stats.exhausted || packing.bin_count() <= lb;
    if optimal {
        search.stats.exhausted = false;
    }
    Ok(ExactResult {
        packing,
        optimal,
        stats: search.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_better_than_ffd() {
        // weights 5,5,4,4,3,3 cap 12: FFD = [5,5],[4,4,3],[3] = 3 bins;
        // optimum = [5,4,3],[5,4,3] = 2 bins.
        let weights = [5, 5, 4, 4, 3, 3];
        let ffd = pack(&weights, 12, FitPolicy::FirstFitDecreasing).unwrap();
        assert_eq!(ffd.bin_count(), 3);
        let r = pack_exact(&weights, 12, 1_000_000).unwrap();
        assert!(r.optimal);
        assert_eq!(r.packing.bin_count(), 2);
        r.packing.validate(&weights).unwrap();
    }

    #[test]
    fn trivial_instances_skip_search() {
        let r = pack_exact(&[1, 1, 1], 10, 10).unwrap();
        assert!(r.optimal);
        assert_eq!(r.stats.nodes, 0);
        assert_eq!(r.packing.bin_count(), 1);
    }

    #[test]
    fn empty_instance() {
        let r = pack_exact(&[], 10, 10).unwrap();
        assert!(r.optimal);
        assert_eq!(r.packing.bin_count(), 0);
    }

    #[test]
    fn oversized_item_errors() {
        assert!(matches!(
            pack_exact(&[11], 10, 10),
            Err(PackError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_returns_ffd_quality_or_better_and_is_flagged() {
        let weights: Vec<u64> = (0..24).map(|i| 3 + (i * 7) % 11).collect();
        let ffd = pack(&weights, 20, FitPolicy::FirstFitDecreasing).unwrap();
        let r = pack_exact(&weights, 20, 5).unwrap();
        assert!(r.packing.bin_count() <= ffd.bin_count());
        r.packing.validate(&weights).unwrap();
        if !r.optimal {
            assert!(r.stats.exhausted, "uncertified result must say why");
        }
    }

    #[test]
    fn certified_results_never_report_exhaustion() {
        let r = pack_exact(&[5, 5, 4, 4, 3, 3], 12, 1_000_000).unwrap();
        assert!(r.optimal);
        assert!(!r.stats.exhausted);
    }

    #[test]
    fn optimum_never_below_l2() {
        let cases: &[(&[u64], u64)] = &[
            (&[6, 6, 6, 4, 4, 4], 10),
            (&[7, 7, 6, 4], 10),
            (&[5, 5, 5, 5, 5], 10),
            (&[9, 2, 2, 2, 2, 2], 11),
        ];
        for &(weights, cap) in cases {
            let r = pack_exact(weights, cap, 1_000_000).unwrap();
            assert!(r.optimal, "budget too small for {weights:?}");
            assert!(r.packing.bin_count() >= bounds::l2(weights, cap));
            r.packing.validate(weights).unwrap();
        }
    }

    #[test]
    fn exact_matches_brute_force_on_tiny_instances() {
        // Brute force: try all assignments of n items to at most n bins.
        fn brute(weights: &[u64], cap: u64) -> usize {
            let n = weights.len();
            let mut best = n;
            let mut assignment = vec![0usize; n];
            loop {
                let bins_used = assignment.iter().copied().max().map_or(0, |m| m + 1);
                let mut loads = vec![0u64; bins_used];
                for (i, &b) in assignment.iter().enumerate() {
                    loads[b] += weights[i];
                }
                if loads.iter().all(|&l| l <= cap) {
                    best = best.min(bins_used);
                }
                // Odometer over assignments with at most n bins.
                let mut i = 0;
                loop {
                    if i == n {
                        return best.max(usize::from(n > 0));
                    }
                    assignment[i] += 1;
                    if assignment[i] < n {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
            }
        }
        let cases: &[(&[u64], u64)] = &[
            (&[3, 3, 3, 3], 6),
            (&[5, 4, 3, 2], 7),
            (&[2, 2, 2, 9], 9),
            (&[1, 2, 3, 4, 5], 5),
            (&[4, 4, 4, 2, 2, 2], 6),
            (&[7, 3, 7, 3, 6, 4], 10),
        ];
        for &(weights, cap) in cases {
            let r = pack_exact(weights, cap, 1_000_000).unwrap();
            assert!(r.optimal);
            assert_eq!(
                r.packing.bin_count(),
                brute(weights, cap),
                "mismatch on {weights:?} cap {cap}"
            );
        }
    }

    #[test]
    fn pruning_statistics_are_populated_on_hard_instances() {
        // A Falkenauer-style triplet instance: FFD is suboptimal and the
        // tree has plenty of equal-weight symmetry for the rules to cut.
        let weights: Vec<u64> = vec![10, 10, 10, 10, 7, 7, 7, 7, 3, 3, 3, 3, 5, 5, 5, 5];
        let r = pack_exact(&weights, 20, 5_000_000).unwrap();
        assert!(r.optimal);
        assert!(r.stats.nodes > 0);
        assert!(
            r.stats.pruned_dominance > 0 || r.stats.pruned_bound > 0,
            "stats: {:?}",
            r.stats
        );
    }
}
