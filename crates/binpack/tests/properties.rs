//! Property-based tests for the bin-packing substrate: for arbitrary
//! feasible instances, every heuristic produces a valid packing whose size
//! respects the lower bounds and known worst-case guarantees, and picks
//! exactly the bins a naive reference of its rule picks.

use std::cmp::Reverse;

use mrassign_binpack::{
    bounds, exact::pack_exact, pack, pack_sorted, DecreasingOrder, FitPolicy, PackError,
};
use proptest::prelude::*;

/// Instances whose items all fit individually: weights in [0, cap].
fn feasible_instance() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (2u64..=100).prop_flat_map(|cap| (proptest::collection::vec(0..=cap, 0..60), Just(cap)))
}

proptest! {
    #[test]
    fn every_policy_yields_valid_packing((weights, cap) in feasible_instance()) {
        for policy in FitPolicy::ALL {
            let packing = pack(&weights, cap, policy).unwrap();
            prop_assert_eq!(packing.validate(&weights), Ok(()));
        }
    }

    #[test]
    fn bin_count_respects_lower_bounds((weights, cap) in feasible_instance()) {
        let l1 = bounds::l1(&weights, cap);
        let l2 = bounds::l2(&weights, cap);
        prop_assert!(l2 >= l1);
        for policy in FitPolicy::ALL {
            let packing = pack(&weights, cap, policy).unwrap();
            prop_assert!(packing.bin_count() >= l2,
                "policy {} used {} bins < L2 {}", policy.name(), packing.bin_count(), l2);
        }
    }

    #[test]
    fn any_fit_policies_meet_2x_guarantee((weights, cap) in feasible_instance()) {
        // Every any-fit heuristic (FF, BF, and the decreasing variants; NF
        // too) uses < 2·OPT + 1 bins because no two bins are ≤ half full.
        let l1 = bounds::l1(&weights, cap);
        for policy in FitPolicy::ALL {
            let packing = pack(&weights, cap, policy).unwrap();
            prop_assert!(packing.bin_count() <= 2 * l1.max(1),
                "policy {} used {} bins vs L1 {}", policy.name(), packing.bin_count(), l1);
        }
    }

    #[test]
    fn first_fit_decreasing_beats_plain_first_fit_rarely_loses(
        (weights, cap) in feasible_instance()
    ) {
        // FFD ≤ FF + small constant is not a theorem, but FFD is never worse
        // than 11/9·OPT + 1 while FF can be 1.7·OPT; empirically FFD ≤ FF on
        // the vast majority of instances. We assert the proven FFD bound via
        // L1 (OPT ≥ L1): FFD ≤ 11/9·OPT + 1 ≤ 11/9·(FF bins) + 1.
        let ffd = pack(&weights, cap, FitPolicy::FirstFitDecreasing).unwrap();
        let opt_lb = bounds::l2(&weights, cap).max(1);
        // Guaranteed: FFD ≤ (11/9)·OPT + 6/9; with OPT ≥ L2 unknown upward,
        // check against the weaker certified statement FFD·9 ≤ 11·OPT + 6
        // only when the exact optimum is cheap to compute.
        if weights.len() <= 12 {
            let exact = pack_exact(&weights, cap, 2_000_000).unwrap();
            if exact.optimal {
                let opt = exact.packing.bin_count();
                prop_assert!(9 * ffd.bin_count() <= 11 * opt + 6,
                    "FFD {} vs OPT {}", ffd.bin_count(), opt);
                prop_assert!(opt >= opt_lb.min(opt));
            }
        }
    }

    #[test]
    fn exact_is_never_worse_than_heuristics((weights, cap) in feasible_instance()) {
        if weights.len() <= 10 {
            let exact = pack_exact(&weights, cap, 2_000_000).unwrap();
            exact.packing.validate(&weights).unwrap();
            for policy in FitPolicy::ALL {
                let h = pack(&weights, cap, policy).unwrap();
                prop_assert!(exact.packing.bin_count() <= h.bin_count());
            }
            if exact.optimal {
                prop_assert!(exact.packing.bin_count() >= bounds::l2(&weights, cap));
            }
        }
    }

    #[test]
    fn oversized_items_always_rejected(cap in 1u64..1000, excess in 1u64..1000) {
        let weights = [cap + excess];
        for policy in FitPolicy::ALL {
            prop_assert_eq!(
                pack(&weights, cap, policy),
                Err(PackError::ItemTooLarge { id: 0, weight: cap + excess, capacity: cap })
            );
        }
    }

    #[test]
    fn packing_preserves_total_weight((weights, cap) in feasible_instance()) {
        let total: u64 = weights.iter().sum();
        for policy in FitPolicy::ALL {
            let packing = pack(&weights, cap, policy).unwrap();
            prop_assert_eq!(packing.total_load(), total);
        }
    }

    #[test]
    fn next_fit_is_within_2x_of_l1((weights, cap) in feasible_instance()) {
        // Classic: NF ≤ 2·OPT − 1 for nonempty instances.
        let nf = pack(&weights, cap, FitPolicy::NextFit).unwrap();
        let l1 = bounds::l1(&weights, cap);
        if l1 > 0 {
            prop_assert!(nf.bin_count() <= 2 * l1);
        }
    }
}

/// The bins `policy` builds, as `(items, load)` in creation order, computed
/// from each rule's definition: the decreasing policies stable-sort the ids
/// by weight (heaviest first, so ties keep ascending id), and every rule
/// scans the open bins linearly. Ties between equally good bins go to the
/// lowest index, except under worst fit, where they go to the highest.
fn reference(weights: &[u64], cap: u64, policy: FitPolicy) -> Vec<(Vec<u32>, u64)> {
    let mut order: Vec<u32> = (0..weights.len() as u32).collect();
    if matches!(
        policy,
        FitPolicy::FirstFitDecreasing | FitPolicy::BestFitDecreasing
    ) {
        order.sort_by_key(|&id| Reverse(weights[id as usize]));
    }
    let mut bins: Vec<Vec<u32>> = Vec::new();
    let mut residuals: Vec<u64> = Vec::new();
    for id in order {
        let w = weights[id as usize];
        let feasible = || (0..residuals.len()).filter(|&b| residuals[b] >= w);
        let chosen = match policy {
            FitPolicy::NextFit => residuals
                .len()
                .checked_sub(1)
                .filter(|&b| residuals[b] >= w),
            FitPolicy::FirstFit | FitPolicy::FirstFitDecreasing => {
                residuals.iter().position(|&r| r >= w)
            }
            // `min_by_key` keeps the first minimum, `max_by_key` the last
            // maximum.
            FitPolicy::BestFit | FitPolicy::BestFitDecreasing => {
                feasible().min_by_key(|&b| residuals[b])
            }
            FitPolicy::WorstFit => feasible().max_by_key(|&b| residuals[b]),
        };
        let b = chosen.unwrap_or_else(|| {
            bins.push(Vec::new());
            residuals.push(cap);
            bins.len() - 1
        });
        bins[b].push(id);
        residuals[b] -= w;
    }
    bins.into_iter()
        .zip(residuals)
        .map(|(items, residual)| (items, cap - residual))
        .collect()
}

/// Instances for the referee, each with every item ≤ the capacity: random
/// weights with zeros, tie-heavy weights from five values, weights all above
/// capacity/2 (one bin per item, up to ~5,000 bins), and capacities near
/// `u64::MAX`, where a sum of two weights can wrap.
fn referee_instance() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (0u8..5, 1u64..=1_000).prop_flat_map(|(shape, cap)| {
        let weights = match shape {
            0 => proptest::collection::vec(0..=cap, 0..60).boxed(),
            1 => proptest::collection::vec(0..=cap, 0..2_000).boxed(),
            2 => {
                let values = [0, cap / 4, cap / 3, cap / 2, cap];
                proptest::collection::vec((0usize..5).prop_map(move |v| values[v]), 0..600).boxed()
            }
            3 => proptest::collection::vec(cap / 2 + 1..=cap, 0..5_000).boxed(),
            _ => {
                let values = [
                    0,
                    1,
                    5,
                    u64::MAX / 2,
                    u64::MAX / 2 + 1,
                    u64::MAX - 1,
                    u64::MAX,
                ];
                proptest::collection::vec((0usize..7).prop_map(move |v| values[v]), 0..40).boxed()
            }
        };
        let cap = if shape == 4 { u64::MAX } else { cap };
        (weights, Just(cap))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_policy_packs_exactly_the_reference_bins((weights, cap) in referee_instance()) {
        let order = DecreasingOrder::of(&weights);
        for policy in FitPolicy::ALL {
            let packing = pack(&weights, cap, policy).unwrap();
            let bins: Vec<(Vec<u32>, u64)> = packing
                .bins()
                .iter()
                .map(|bin| (bin.items().to_vec(), bin.load()))
                .collect();
            prop_assert!(
                bins == reference(&weights, cap, policy),
                "policy {} on {} items at capacity {cap}",
                policy.name(),
                weights.len()
            );
            prop_assert_eq!(pack_sorted(&weights, cap, policy, &order), Ok(packing));
        }
    }
}
