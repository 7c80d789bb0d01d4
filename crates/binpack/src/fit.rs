use std::collections::BTreeSet;

use crate::error::PackError;
use crate::packing::{Bin, ItemId, Packing};
use crate::segtree::MaxSegTree;

/// The classic one-dimensional bin-packing heuristics.
///
/// The *decreasing* variants run the corresponding online rule over the
/// items in [`DecreasingOrder`] (weight descending, ties by ascending item
/// id, so packings are deterministic); they are the policies the paper's
/// mapping-schema algorithms use by default (first-fit decreasing). The
/// online rules take the items in id order. Ties between equally good bins
/// go to the lowest bin index, except under worst fit, where they go to the
/// highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitPolicy {
    /// Keep one open bin; start a new bin when the next item does not fit.
    NextFit,
    /// Place each item in the lowest-indexed bin it fits in.
    FirstFit,
    /// Place each item in the feasible bin with the least residual capacity.
    BestFit,
    /// Place each item in the feasible bin with the most residual capacity.
    WorstFit,
    /// First-fit over items sorted by decreasing weight.
    FirstFitDecreasing,
    /// Best-fit over items sorted by decreasing weight.
    BestFitDecreasing,
}

impl FitPolicy {
    /// All policies, in a stable order (used by the packing-ablation
    /// experiment).
    pub const ALL: [FitPolicy; 6] = [
        FitPolicy::NextFit,
        FitPolicy::FirstFit,
        FitPolicy::BestFit,
        FitPolicy::WorstFit,
        FitPolicy::FirstFitDecreasing,
        FitPolicy::BestFitDecreasing,
    ];

    /// Short stable name for CSV output.
    pub fn name(self) -> &'static str {
        match self {
            FitPolicy::NextFit => "NF",
            FitPolicy::FirstFit => "FF",
            FitPolicy::BestFit => "BF",
            FitPolicy::WorstFit => "WF",
            FitPolicy::FirstFitDecreasing => "FFD",
            FitPolicy::BestFitDecreasing => "BFD",
        }
    }

    fn is_decreasing(self) -> bool {
        matches!(
            self,
            FitPolicy::FirstFitDecreasing | FitPolicy::BestFitDecreasing
        )
    }
}

/// Item ids sorted by weight descending, ties by ascending id: the order the
/// decreasing policies pack in.
///
/// It is always a permutation of `0..len`, so packing in it places every
/// item exactly once whatever weights it was sorted by. Sorting once and
/// handing the order to [`pack_sorted`] saves the sort when one instance is
/// packed at many capacities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecreasingOrder(Vec<ItemId>);

impl DecreasingOrder {
    /// Sorts the ids of `weights`.
    pub fn of(weights: &[u64]) -> Self {
        let mut ids: Vec<ItemId> = (0..weights.len() as ItemId).collect();
        ids.sort_unstable_by(|&a, &b| {
            weights[b as usize]
                .cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });
        DecreasingOrder(ids)
    }

    /// The ids, heaviest first.
    pub fn ids(&self) -> &[ItemId] {
        &self.0
    }
}

/// Packs `weights` into bins of `capacity` using `policy`.
///
/// Item ids in the resulting [`Packing`] are indices into `weights`. Fails
/// with [`PackError::ItemTooLarge`] if any single weight exceeds `capacity`
/// (no packing exists) and [`PackError::ZeroCapacity`] if `capacity == 0`.
///
/// Zero-weight items are legal and are placed like any other item. The
/// decreasing policies sort the items first and then run as
/// [`pack_sorted`]; callers packing one instance at many capacities should
/// sort once with [`DecreasingOrder::of`] and call that instead.
///
/// First fit finds each item's bin in `O(log k)` for `k` open bins, and
/// best and worst fit in `O(log k)` through an ordered set, so a pack costs
/// `O(n log k)` after the sort.
///
/// # Example
///
/// ```
/// use mrassign_binpack::{pack, FitPolicy};
/// let p = pack(&[5, 5, 5, 5], 10, FitPolicy::FirstFit).unwrap();
/// assert_eq!(p.bin_count(), 2);
/// ```
pub fn pack(weights: &[u64], capacity: u64, policy: FitPolicy) -> Result<Packing, PackError> {
    if policy.is_decreasing() {
        pack_sorted(weights, capacity, policy, &DecreasingOrder::of(weights))
    } else {
        fit(weights, capacity, policy, 0..weights.len() as ItemId)
    }
}

/// [`pack`] with the decreasing order of `weights` sorted by the caller: the
/// decreasing policies pack in `order`, and the online policies ignore it.
///
/// With `order == DecreasingOrder::of(weights)` this returns exactly what
/// [`pack`] returns; an order sorted by other weights still yields a valid
/// packing, since every order is a permutation of the item ids.
///
/// # Panics
///
/// If `order` does not rank exactly `weights.len()` items.
pub fn pack_sorted(
    weights: &[u64],
    capacity: u64,
    policy: FitPolicy,
    order: &DecreasingOrder,
) -> Result<Packing, PackError> {
    assert_eq!(
        order.ids().len(),
        weights.len(),
        "a decreasing order ranks every weight exactly once"
    );
    if policy.is_decreasing() {
        fit(weights, capacity, policy, order.ids().iter().copied())
    } else {
        fit(weights, capacity, policy, 0..weights.len() as ItemId)
    }
}

/// Packs `weights` as [`pack`] does and returns only the bin membership
/// lists, moved out of the packing; a convenience for callers (like the
/// mapping-schema algorithms) that immediately convert bins into input
/// groups.
pub fn pack_into_bins(
    weights: &[u64],
    capacity: u64,
    policy: FitPolicy,
) -> Result<Vec<Vec<ItemId>>, PackError> {
    pack(weights, capacity, policy).map(Packing::into_item_lists)
}

/// Runs `policy`'s online rule over the items in `order`, after checking
/// that every item fits in a bin.
fn fit(
    weights: &[u64],
    capacity: u64,
    policy: FitPolicy,
    order: impl Iterator<Item = ItemId>,
) -> Result<Packing, PackError> {
    if capacity == 0 {
        return Err(PackError::ZeroCapacity);
    }
    if let Some((idx, &w)) = weights.iter().enumerate().find(|&(_, &w)| w > capacity) {
        return Err(PackError::ItemTooLarge {
            id: idx as ItemId,
            weight: w,
            capacity,
        });
    }
    Ok(match policy {
        FitPolicy::NextFit => next_fit(weights, capacity, order),
        FitPolicy::FirstFit | FitPolicy::FirstFitDecreasing => first_fit(weights, capacity, order),
        FitPolicy::BestFit | FitPolicy::BestFitDecreasing => {
            best_or_worst_fit(weights, capacity, order, true)
        }
        FitPolicy::WorstFit => best_or_worst_fit(weights, capacity, order, false),
    })
}

fn next_fit(weights: &[u64], capacity: u64, order: impl Iterator<Item = ItemId>) -> Packing {
    let mut packing = Packing::new(capacity);
    let mut current = Bin::new();
    for id in order {
        let w = weights[id as usize];
        // Compare with the residual: `load + w` can wrap near `u64::MAX`.
        if w > capacity - current.load() {
            packing.push_bin(std::mem::replace(&mut current, Bin::new()));
        }
        current.push(id, w);
    }
    if !current.is_empty() {
        packing.push_bin(current);
    }
    packing
}

fn first_fit(weights: &[u64], capacity: u64, order: impl Iterator<Item = ItemId>) -> Packing {
    let mut packing = Packing::new(capacity);
    // One leaf per open bin; leaf value = residual capacity.
    let mut residuals = MaxSegTree::new();
    for id in order {
        let w = weights[id as usize];
        let bin_idx = match residuals.leftmost_at_least(w) {
            Some(b) => {
                residuals.set(b, residuals.get(b) - w);
                b
            }
            None => {
                packing.push_bin(Bin::new());
                residuals.push(capacity - w)
            }
        };
        packing.bin_mut(bin_idx).push(id, w);
    }
    packing
}

fn best_or_worst_fit(
    weights: &[u64],
    capacity: u64,
    order: impl Iterator<Item = ItemId>,
    best: bool,
) -> Packing {
    let mut packing = Packing::new(capacity);
    // Ordered set of (residual, bin index): range queries pick the tightest
    // (best-fit) or loosest (worst-fit) feasible bin in O(log k).
    let mut by_residual: BTreeSet<(u64, usize)> = BTreeSet::new();
    for id in order {
        let w = weights[id as usize];
        let chosen = if best {
            by_residual.range((w, 0)..).next().copied()
        } else {
            // Worst fit: the largest residual, provided it fits.
            by_residual.last().copied().filter(|&(r, _)| r >= w)
        };
        let (residual, bin_idx) = match chosen {
            Some(entry) => {
                by_residual.remove(&entry);
                entry
            }
            None => {
                packing.push_bin(Bin::new());
                (capacity, packing.bin_count() - 1)
            }
        };
        by_residual.insert((residual - w, bin_idx));
        packing.bin_mut(bin_idx).push(id, w);
    }
    packing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_capacity() {
        assert_eq!(
            pack(&[1], 0, FitPolicy::FirstFit),
            Err(PackError::ZeroCapacity)
        );
    }

    #[test]
    fn rejects_oversized_item() {
        assert_eq!(
            pack(&[3, 11, 2], 10, FitPolicy::BestFit),
            Err(PackError::ItemTooLarge {
                id: 1,
                weight: 11,
                capacity: 10
            })
        );
    }

    #[test]
    fn empty_input_yields_empty_packing() {
        for policy in FitPolicy::ALL {
            let p = pack(&[], 10, policy).unwrap();
            assert_eq!(p.bin_count(), 0, "{}", policy.name());
            p.validate(&[]).unwrap();
        }
    }

    #[test]
    fn item_exactly_at_capacity_gets_own_bin() {
        let p = pack(&[10, 10], 10, FitPolicy::FirstFit).unwrap();
        assert_eq!(p.bin_count(), 2);
        p.validate(&[10, 10]).unwrap();
    }

    #[test]
    fn next_fit_never_looks_back() {
        // 6 then 5 opens bin 2; the final 4 fits in bin 2 but NOT bin 1,
        // and next-fit only looks at the last bin, so it lands in bin 2.
        let p = pack(&[6, 5, 4], 10, FitPolicy::NextFit).unwrap();
        assert_eq!(p.bin_count(), 2);
        assert_eq!(p.bins()[1].items(), &[1, 2]);
    }

    /// `load + w` wraps near `u64::MAX`, so next fit compares `w` with the
    /// residual; the wrapped sum would put both items in one bin of load 3.
    #[test]
    fn next_fit_compares_with_the_residual_not_a_wrapping_sum() {
        let weights = [u64::MAX - 1, 5];
        let p = pack(&weights, u64::MAX, FitPolicy::NextFit).unwrap();
        assert_eq!(p.bin_count(), 2);
        assert_eq!(p.bins()[0].load(), u64::MAX - 1);
        p.validate(&weights).unwrap();
    }

    #[test]
    fn first_fit_reuses_earliest_bin() {
        // Bins after 6,5: [6], [5]. Item 4 fits in bin 0 (residual 4).
        let p = pack(&[6, 5, 4], 10, FitPolicy::FirstFit).unwrap();
        assert_eq!(p.bin_count(), 2);
        assert_eq!(p.bins()[0].items(), &[0, 2]);
    }

    #[test]
    fn best_fit_picks_tightest_bin() {
        // Bins after 7,5: residuals [3, 5]. Item 3 goes to the residual-3 bin.
        let p = pack(&[7, 5, 3], 10, FitPolicy::BestFit).unwrap();
        assert_eq!(p.bins()[0].items(), &[0, 2]);
    }

    #[test]
    fn worst_fit_picks_loosest_bin() {
        // Bins after 7,5: residuals [3, 5]. Item 3 goes to the residual-5 bin.
        let p = pack(&[7, 5, 3], 10, FitPolicy::WorstFit).unwrap();
        assert_eq!(p.bins()[1].items(), &[1, 2]);
    }

    #[test]
    fn ffd_beats_ff_on_classic_instance() {
        // Classic: FF on this order wastes space; FFD is optimal.
        let weights = [4, 4, 4, 6, 6, 6];
        let ff = pack(&weights, 10, FitPolicy::FirstFit).unwrap();
        let ffd = pack(&weights, 10, FitPolicy::FirstFitDecreasing).unwrap();
        assert_eq!(ffd.bin_count(), 3);
        assert!(ff.bin_count() >= ffd.bin_count());
    }

    #[test]
    fn ffd_is_deterministic_under_ties() {
        let weights = [5, 5, 5, 5, 5, 5];
        let a = pack(&weights, 10, FitPolicy::FirstFitDecreasing).unwrap();
        let b = pack(&weights, 10, FitPolicy::FirstFitDecreasing).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.bins()[0].items(), &[0, 1]);
    }

    #[test]
    fn zero_weight_items_are_placed() {
        let p = pack(&[0, 0, 5], 5, FitPolicy::BestFitDecreasing).unwrap();
        p.validate(&[0, 0, 5]).unwrap();
        let placed: usize = p.bins().iter().map(Bin::len).sum();
        assert_eq!(placed, 3);
    }

    #[test]
    fn all_policies_produce_valid_packings_on_mixed_instance() {
        let weights = [9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 1, 1, 2, 9, 4];
        for policy in FitPolicy::ALL {
            let p = pack(&weights, 10, policy).unwrap();
            p.validate(&weights).unwrap();
        }
    }

    #[test]
    fn pack_into_bins_matches_pack() {
        let weights = [6, 5, 4, 3];
        let p = pack(&weights, 10, FitPolicy::FirstFit).unwrap();
        let bins = pack_into_bins(&weights, 10, FitPolicy::FirstFit).unwrap();
        let expected: Vec<Vec<ItemId>> = p.bins().iter().map(|b| b.items().to_vec()).collect();
        assert_eq!(bins, expected);
    }

    #[test]
    fn policy_names_are_unique() {
        let mut names: Vec<_> = FitPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FitPolicy::ALL.len());
    }
}
