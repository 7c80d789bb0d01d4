//! The weighted-input model: input sets for A2A and two-sided instances for
//! X2Y.

use mrassign_binpack::{DecreasingOrder, FitPolicy, PackError, Packing};

/// Identifier of an input: its index in the instance's weight list.
pub type InputId = u32;

/// The size of an input, in the same unit as the reducer capacity `q`
/// (bytes throughout this workspace).
pub type Weight = u64;

/// A set of sized inputs — one instance of the A2A mapping-schema problem
/// (together with a capacity `q`).
///
/// The inputs are sorted by decreasing weight once, at construction: the
/// order statistics read that order, and the decreasing fit policies pack
/// in it at every capacity instead of sorting again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSet {
    weights: Vec<Weight>,
    total: u128,
    order: DecreasingOrder,
}

impl InputSet {
    /// Builds an input set from its weights; ids are the indices.
    pub fn from_weights(weights: Vec<Weight>) -> Self {
        let total = weights.iter().map(|&w| w as u128).sum();
        let order = DecreasingOrder::of(&weights);
        InputSet {
            weights,
            total,
            order,
        }
    }

    /// Number of inputs `m`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the instance has no inputs.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of input `id`.
    pub fn weight(&self, id: InputId) -> Weight {
        self.weights[id as usize]
    }

    /// All weights, indexed by input id.
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Total weight `W = Σ w_i`.
    pub fn total_weight(&self) -> u128 {
        self.total
    }

    /// The ids sorted by weight descending, ties by ascending id.
    pub fn decreasing(&self) -> &DecreasingOrder {
        &self.order
    }

    /// The largest weight, or 0 for an empty set.
    pub fn max_weight(&self) -> Weight {
        self.order.ids().first().map_or(0, |&id| self.weight(id))
    }

    /// The two largest weights `(w₍₁₎, w₍₂₎)`, or `None` if fewer than two
    /// inputs exist. Drives the A2A feasibility test: a schema exists iff
    /// `w₍₁₎ + w₍₂₎ ≤ q`.
    pub fn two_largest(&self) -> Option<(Weight, Weight)> {
        match self.order.ids() {
            [first, second, ..] => Some((self.weight(*first), self.weight(*second))),
            _ => None,
        }
    }

    /// Whether all inputs share one weight (the paper's "equal-sized"
    /// special case, where the grouping algorithm of Afrati–Ullman applies).
    pub fn all_equal(&self) -> bool {
        match self.order.ids() {
            [heaviest, .., lightest] => self.weight(*heaviest) == self.weight(*lightest),
            _ => true,
        }
    }

    /// Sum of products over unordered pairs, `P = Σ_{i<j} w_i·w_j`,
    /// computed as `(W² − Σw_i²)/2`. This is the "pair weight" a mapping
    /// schema must cover and the numerator of the reducer lower bound.
    ///
    /// Saturates at `u128::MAX` for astronomically heavy instances; every
    /// consumer uses `P` inside a *lower* bound, which saturation only
    /// makes more conservative, never unsound.
    pub fn pair_weight(&self) -> u128 {
        let sum_sq = self
            .weights
            .iter()
            .map(|&w| (w as u128).saturating_mul(w as u128))
            .fold(0u128, u128::saturating_add);
        self.total.saturating_mul(self.total).saturating_sub(sum_sq) / 2
    }

    /// Ids of inputs strictly heavier than `threshold` — the paper's "big"
    /// inputs for threshold `⌊q/2⌋` — in ascending order.
    pub fn heavier_than(&self, threshold: Weight) -> Vec<InputId> {
        let ids = self.order.ids();
        let mut heavier = ids[..ids.partition_point(|&id| self.weight(id) > threshold)].to_vec();
        heavier.sort_unstable();
        heavier
    }

    /// The inputs weighing at most `threshold` (the complement of
    /// [`InputSet::heavier_than`]) as an instance of their own, renumbered
    /// in ascending id order, together with each one's id in `self`.
    pub fn at_most(&self, threshold: Weight) -> (InputSet, Vec<InputId>) {
        let ids: Vec<InputId> = (0..self.len() as InputId)
            .filter(|&id| self.weight(id) <= threshold)
            .collect();
        let weights = ids.iter().map(|&id| self.weight(id)).collect();
        (InputSet::from_weights(weights), ids)
    }

    /// Packs the inputs into bins of `capacity` with `policy`, as lists of
    /// input ids; the decreasing policies pack in the stored order.
    pub fn pack_into_bins(
        &self,
        capacity: Weight,
        policy: FitPolicy,
    ) -> Result<Vec<Vec<InputId>>, PackError> {
        mrassign_binpack::pack_sorted(&self.weights, capacity, policy, &self.order)
            .map(Packing::into_item_lists)
    }
}

/// An instance of the X2Y mapping-schema problem: two disjoint input sets
/// whose cross pairs must all meet (plus a capacity `q` supplied to the
/// algorithms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct X2yInstance {
    /// The X side (e.g. the X-tuples of one heavy hitter in a skew join).
    pub x: InputSet,
    /// The Y side.
    pub y: InputSet,
}

impl X2yInstance {
    /// Builds an instance from the two weight lists.
    pub fn from_weights(x: Vec<Weight>, y: Vec<Weight>) -> Self {
        X2yInstance {
            x: InputSet::from_weights(x),
            y: InputSet::from_weights(y),
        }
    }

    /// Number of required cross pairs `|X|·|Y|`.
    pub fn pair_count(&self) -> u128 {
        self.x.len() as u128 * self.y.len() as u128
    }

    /// Cross-pair weight `W_X · W_Y`, the X2Y analogue of
    /// [`InputSet::pair_weight`]. Saturates like `pair_weight` does.
    pub fn cross_pair_weight(&self) -> u128 {
        self.x.total_weight().saturating_mul(self.y.total_weight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = InputSet::from_weights(vec![3, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.weight(2), 4);
        assert_eq!(s.total_weight(), 14);
        assert_eq!(s.max_weight(), 5);
    }

    #[test]
    fn two_largest_handles_duplicates() {
        assert_eq!(
            InputSet::from_weights(vec![5, 5, 1]).two_largest(),
            Some((5, 5))
        );
        assert_eq!(
            InputSet::from_weights(vec![2, 9]).two_largest(),
            Some((9, 2))
        );
        assert_eq!(InputSet::from_weights(vec![7]).two_largest(), None);
        assert_eq!(InputSet::from_weights(vec![]).two_largest(), None);
    }

    #[test]
    fn all_equal_detection() {
        assert!(InputSet::from_weights(vec![4, 4, 4]).all_equal());
        assert!(!InputSet::from_weights(vec![4, 4, 5]).all_equal());
        assert!(InputSet::from_weights(vec![]).all_equal());
        assert!(InputSet::from_weights(vec![9]).all_equal());
    }

    #[test]
    fn pair_weight_matches_naive_sum() {
        let s = InputSet::from_weights(vec![3, 1, 4, 1, 5]);
        let naive: u128 = {
            let w = s.weights();
            let mut acc = 0u128;
            for i in 0..w.len() {
                for j in i + 1..w.len() {
                    acc += w[i] as u128 * w[j] as u128;
                }
            }
            acc
        };
        assert_eq!(s.pair_weight(), naive);
    }

    #[test]
    fn pair_weight_edge_cases() {
        assert_eq!(InputSet::from_weights(vec![]).pair_weight(), 0);
        assert_eq!(InputSet::from_weights(vec![7]).pair_weight(), 0);
        assert_eq!(InputSet::from_weights(vec![3, 4]).pair_weight(), 12);
    }

    #[test]
    fn pair_weight_survives_large_inputs() {
        // 1000 inputs of 2^32 each: W² = (2^42)² = 2^84 — needs u128.
        let s = InputSet::from_weights(vec![1 << 32; 1000]);
        let w = 1u128 << 32;
        assert_eq!(s.pair_weight(), w * w * (1000 * 999 / 2));
    }

    #[test]
    fn heavier_than_selects_big_inputs() {
        let s = InputSet::from_weights(vec![10, 51, 50, 90]);
        assert_eq!(s.heavier_than(50), vec![1, 3]);
        assert_eq!(s.heavier_than(100), Vec::<InputId>::new());
    }

    #[test]
    fn x2y_instance_counts() {
        let inst = X2yInstance::from_weights(vec![2, 3], vec![4, 5, 6]);
        assert_eq!(inst.pair_count(), 6);
        assert_eq!(inst.cross_pair_weight(), 5 * 15);
    }
}
