//! Property-based tests: every algorithm, on arbitrary feasible instances,
//! produces a schema that independently validates; bounds never exceed
//! achieved values; exact solvers never lose to heuristics.

use mrassign_binpack::FitPolicy;
use mrassign_core::{a2a, bounds, exact, stats::SchemaStats, x2y, InputSet, X2yInstance};
use proptest::prelude::*;

/// Feasible A2A instances: weights ≤ ⌊q/2⌋ guarantee any two fit, with an
/// optional single big input ≤ q − max_small.
fn feasible_a2a() -> impl Strategy<Value = (InputSet, u64)> {
    (4u64..=120, any::<bool>()).prop_flat_map(|(q, with_big)| {
        let smalls = proptest::collection::vec(0..=q / 2, 0..40);
        (smalls, Just(q), Just(with_big)).prop_flat_map(|(smalls, q, with_big)| {
            let max_small = smalls.iter().copied().max().unwrap_or(0);
            let big = if with_big && q / 2 < q - max_small {
                ((q / 2 + 1)..=(q - max_small)).prop_map(Some).boxed()
            } else {
                Just(None).boxed()
            };
            (Just(smalls), big, Just(q)).prop_map(|(mut weights, big, q)| {
                if let Some(b) = big {
                    weights.push(b);
                }
                (InputSet::from_weights(weights), q)
            })
        })
    })
}

/// Feasible X2Y instances: both sides ≤ ⌊q/2⌋.
fn feasible_x2y() -> impl Strategy<Value = (X2yInstance, u64)> {
    (4u64..=120).prop_flat_map(|q| {
        (
            proptest::collection::vec(0..=q / 2, 0..25),
            proptest::collection::vec(0..=q / 2, 0..25),
            Just(q),
        )
            .prop_map(|(x, y, q)| (X2yInstance::from_weights(x, y), q))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a2a_auto_always_valid((inputs, q) in feasible_a2a()) {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        prop_assert_eq!(schema.validate_a2a(&inputs, q), Ok(()));
    }

    #[test]
    fn a2a_forced_algorithms_valid_in_regime((inputs, q) in feasible_a2a()) {
        // Big-small always applies to feasible instances.
        for shared in [false, true] {
            let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: shared,
            }).unwrap();
            prop_assert_eq!(schema.validate_a2a(&inputs, q), Ok(()));
        }
        // Pairing applies when no input exceeds ⌊q/2⌋.
        if inputs.heavier_than(q / 2).is_empty() {
            for policy in FitPolicy::ALL {
                let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::BinPackPairing(policy)).unwrap();
                prop_assert_eq!(schema.validate_a2a(&inputs, q), Ok(()));
            }
        }
    }

    #[test]
    fn a2a_reducer_count_respects_lower_bound((inputs, q) in feasible_a2a()) {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        if inputs.len() >= 2 {
            prop_assert!(schema.reducer_count() >= bounds::a2a_reducer_lb(&inputs, q));
        }
    }

    #[test]
    fn a2a_communication_respects_lower_bound((inputs, q) in feasible_a2a()) {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        prop_assert!(schema.communication_cost(&inputs) >= bounds::a2a_comm_lb(&inputs, q));
    }

    #[test]
    fn a2a_stats_internally_consistent((inputs, q) in feasible_a2a()) {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        let stats = SchemaStats::for_a2a(&schema, &inputs, q);
        let loads = schema.loads(&inputs);
        prop_assert_eq!(stats.communication, loads.iter().map(|&l| l as u128).sum::<u128>());
        prop_assert!(stats.max_load <= q);
        prop_assert!(stats.replication_rate() >= 1.0 - 1e-9 || inputs.is_empty() || schema.reducer_count() == 0);
    }

    #[test]
    fn a2a_exact_never_worse_than_heuristic((inputs, q) in feasible_a2a()) {
        if inputs.len() <= 7 {
            let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
            let exact = exact::a2a_exact(&inputs, q, 300_000).unwrap();
            exact.schema.validate_a2a(&inputs, q).unwrap();
            prop_assert!(exact.schema.reducer_count() <= heuristic.reducer_count());
            if exact.optimal && inputs.len() >= 2 {
                prop_assert!(exact.schema.reducer_count() >= bounds::a2a_reducer_lb(&inputs, q).min(exact.schema.reducer_count()));
                // Two-reducer theorem: an optimum of exactly 2 is impossible.
                prop_assert_ne!(exact.schema.reducer_count(), 2);
            }
        }
    }

    #[test]
    fn x2y_auto_always_valid((inst, q) in feasible_x2y()) {
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
        prop_assert_eq!(schema.validate(&inst, q), Ok(()));
    }

    #[test]
    fn x2y_grid_variants_valid((inst, q) in feasible_x2y()) {
        for algo in [
            x2y::X2yAlgorithm::Grid(FitPolicy::FirstFitDecreasing),
            x2y::X2yAlgorithm::GridOptimized(FitPolicy::FirstFitDecreasing),
            x2y::X2yAlgorithm::BigHandling(FitPolicy::FirstFitDecreasing),
        ] {
            let schema = x2y::solve(&inst, q, algo).unwrap();
            prop_assert_eq!(schema.validate(&inst, q), Ok(()));
        }
    }

    #[test]
    fn x2y_optimized_grid_never_worse((inst, q) in feasible_x2y()) {
        let balanced = x2y::solve(&inst, q, x2y::X2yAlgorithm::Grid(FitPolicy::FirstFitDecreasing)).unwrap();
        let optimized = x2y::solve(&inst, q, x2y::X2yAlgorithm::GridOptimized(FitPolicy::FirstFitDecreasing)).unwrap();
        prop_assert!(optimized.reducer_count() <= balanced.reducer_count());
    }

    #[test]
    fn x2y_reducer_count_respects_lower_bound((inst, q) in feasible_x2y()) {
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
        if !inst.x.is_empty() && !inst.y.is_empty() {
            prop_assert!(schema.reducer_count() >= bounds::x2y_reducer_lb(&inst, q));
        }
    }

    #[test]
    fn x2y_exact_never_worse_than_heuristic((inst, q) in feasible_x2y()) {
        if inst.x.len() <= 4 && inst.y.len() <= 4 {
            let heuristic = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
            let exact = exact::x2y_exact(&inst, q, 300_000).unwrap();
            exact.schema.validate(&inst, q).unwrap();
            prop_assert!(exact.schema.reducer_count() <= heuristic.reducer_count());
        }
    }

    #[test]
    fn x2y_two_reducer_dp_agrees_with_exact((inst, q) in feasible_x2y()) {
        if inst.x.len() <= 4 && inst.y.len() <= 4 && !inst.x.is_empty() && !inst.y.is_empty() {
            let dp = exact::x2y_two_reducers(&inst, q);
            let ex = exact::x2y_exact(&inst, q, 300_000).unwrap();
            if let Some(schema) = &dp {
                schema.validate(&inst, q).unwrap();
                prop_assert!(schema.reducer_count() <= 2);
            }
            if ex.optimal {
                prop_assert_eq!(dp.is_some(), ex.schema.reducer_count() <= 2,
                    "DP {:?} vs exact z={}", dp.map(|s| s.reducer_count()), ex.schema.reducer_count());
            }
        }
    }

    #[test]
    fn infeasible_a2a_always_rejected(q in 2u64..100, extra in 1u64..50) {
        // Two inputs that cannot meet.
        let w = q / 2 + extra.min(q);
        let inputs = InputSet::from_weights(vec![w.min(q), (q + 1).saturating_sub(w.min(q)).max(q/2 + 1)]);
        if inputs.weights()[0] + inputs.weights()[1] > q {
            prop_assert!(a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).is_err());
        }
    }

    #[test]
    fn a2a_two_reducer_structure_theorem((inputs, q) in feasible_a2a()) {
        // If the exact optimum needs more than one reducer, it needs ≥ 3.
        prop_assert_eq!(
            exact::a2a_two_reducer_feasible(&inputs, q),
            inputs.len() < 2 || inputs.total_weight() <= q as u128
        );
    }
}

/// The table2 PARTITION-tight family: alternating 5s and 8s under q = 21.
fn tight_family(m: usize) -> InputSet {
    InputSet::from_weights((0..m as u64).map(|i| 5 + (i * 3) % 6).collect())
}

#[test]
fn a2a_search_budget_is_monotone() {
    // More nodes ⇒ the returned reducer count never worsens, node usage
    // never exceeds the budget, and certification never regresses.
    let instances = [tight_family(10), tight_family(11)];
    for inputs in &instances {
        let mut last_count = usize::MAX;
        let mut was_optimal = false;
        for budget in [50u64, 500, 5_000, 50_000, 500_000, 5_000_000] {
            let r = exact::a2a_exact(inputs, 21, budget).unwrap();
            r.schema.validate_a2a(inputs, 21).unwrap();
            assert!(r.stats.nodes <= budget);
            assert!(
                r.schema.reducer_count() <= last_count,
                "budget {budget} worsened the incumbent: {} > {last_count}",
                r.schema.reducer_count()
            );
            assert!(
                !was_optimal || r.optimal,
                "certification regressed at {budget}"
            );
            last_count = r.schema.reducer_count();
            was_optimal = r.optimal;
        }
        assert!(
            was_optimal,
            "the largest budget must certify these instances"
        );
    }
}

#[test]
fn budget_exhaustion_is_flagged_never_silently_optimal() {
    // m = 13 of the tight family needs far more than 2M nodes to certify:
    // the solver must say so via `optimal: false` + `stats.exhausted`,
    // and hand back the (valid) heuristic schema.
    let inputs = tight_family(13);
    let r = exact::a2a_exact(&inputs, 21, 2_000_000u64).unwrap();
    assert!(!r.optimal);
    assert!(
        r.stats.exhausted,
        "an uncertified result must be flagged exhausted"
    );
    assert_eq!(r.stats.nodes, 2_000_000);
    r.schema.validate_a2a(&inputs, 21).unwrap();

    // A certified result must never carry the exhausted flag.
    let certified = exact::a2a_exact(&tight_family(11), 21, 5_000_000u64).unwrap();
    assert!(certified.optimal);
    assert!(!certified.stats.exhausted);
}

#[test]
fn x2y_search_budget_is_monotone_and_flags_exhaustion() {
    let inst = X2yInstance::from_weights(vec![5, 8, 5, 8, 5, 8], vec![8, 5, 8, 5, 8]);
    let q = 21;
    let mut last_count = usize::MAX;
    let mut was_optimal = false;
    for budget in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let r = exact::x2y_exact(&inst, q, budget).unwrap();
        r.schema.validate(&inst, q).unwrap();
        assert!(r.stats.nodes <= budget);
        assert!(r.schema.reducer_count() <= last_count);
        assert!(!was_optimal || r.optimal);
        assert_eq!(r.optimal, !r.stats.exhausted || r.stats.nodes == 0);
        last_count = r.schema.reducer_count();
        was_optimal = r.optimal;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a2a_budget_monotone_on_random_instances((inputs, q) in feasible_a2a()) {
        if inputs.len() <= 8 {
            let small = exact::a2a_exact(&inputs, q, 2_000u64).unwrap();
            let large = exact::a2a_exact(&inputs, q, 200_000u64).unwrap();
            prop_assert!(large.schema.reducer_count() <= small.schema.reducer_count());
            prop_assert!(!small.optimal || large.optimal);
            // Exhaustion and certification are mutually exclusive reports.
            prop_assert!(!(small.optimal && small.stats.exhausted));
            prop_assert!(!(large.optimal && large.stats.exhausted));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn x2y_constructions_cover_exactly_once((inst, q) in feasible_x2y()) {
        for algo in [
            x2y::X2yAlgorithm::Auto,
            x2y::X2yAlgorithm::Grid(FitPolicy::FirstFitDecreasing),
            x2y::X2yAlgorithm::GridOptimized(FitPolicy::FirstFitDecreasing),
            x2y::X2yAlgorithm::BigHandling(FitPolicy::FirstFitDecreasing),
        ] {
            let schema = x2y::solve(&inst, q, algo).unwrap();
            if !inst.x.is_empty() && !inst.y.is_empty() {
                prop_assert!(schema.covers_exactly_once(&inst),
                    "{algo:?} produced multiply-covered pairs");
            }
        }
    }
}

/// Weight sets for the order statistics: random, tie-heavy (three distinct
/// weights), empty, and one-element.
fn weight_set() -> impl Strategy<Value = Vec<u64>> {
    (0u8..4).prop_flat_map(|shape| match shape {
        0 => proptest::collection::vec(0u64..1_000, 0..80).boxed(),
        1 => proptest::collection::vec(0u64..3, 0..80).boxed(),
        2 => Just(Vec::new()).boxed(),
        _ => proptest::collection::vec(any::<u64>(), 1).boxed(),
    })
}

/// Ids heaviest first, ties by ascending id, by a stable sort.
fn sorted_ids(weights: &[u64]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..weights.len() as u32).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(weights[id as usize]));
    ids
}

/// Every threshold at which `heavier_than` changes on `weights`, plus the
/// extremes.
fn thresholds(weights: &[u64]) -> Vec<u64> {
    let mut thresholds: Vec<u64> = weights
        .iter()
        .flat_map(|&w| [w.saturating_sub(1), w])
        .chain([0, u64::MAX])
        .collect();
    thresholds.sort_unstable();
    thresholds.dedup();
    thresholds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn order_statistics_match_their_linear_definitions(weights in weight_set()) {
        let inputs = InputSet::from_weights(weights.clone());
        let mut descending = weights.clone();
        descending.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(
            inputs.two_largest(),
            (weights.len() >= 2).then(|| (descending[0], descending[1]))
        );
        prop_assert_eq!(inputs.max_weight(), weights.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(inputs.all_equal(), weights.windows(2).all(|w| w[0] == w[1]));
        for threshold in thresholds(&weights) {
            // Ascending ids: `.first()` names the input in regime errors.
            let heavier: Vec<u32> = (0..weights.len() as u32)
                .filter(|&id| weights[id as usize] > threshold)
                .collect();
            prop_assert_eq!(inputs.heavier_than(threshold), heavier);
        }
    }

    #[test]
    fn stored_order_is_a_fresh_sort(weights in weight_set()) {
        let inputs = InputSet::from_weights(weights.clone());
        prop_assert_eq!(inputs.decreasing().ids(), &sorted_ids(&weights)[..]);
        prop_assert_eq!(inputs.clone().decreasing().ids(), &sorted_ids(&weights)[..]);
        // `big_small` and `big_handling` pack their smalls (the inputs at
        // most ⌊q/2⌋) as this sub-instance.
        for threshold in thresholds(&weights) {
            let (smalls, ids) = inputs.at_most(threshold);
            let expected: Vec<u32> = (0..weights.len() as u32)
                .filter(|&id| weights[id as usize] <= threshold)
                .collect();
            prop_assert_eq!(&ids, &expected);
            let small_weights: Vec<u64> = ids.iter().map(|&id| weights[id as usize]).collect();
            prop_assert_eq!(smalls.weights(), &small_weights[..]);
            prop_assert_eq!(smalls.decreasing().ids(), &sorted_ids(&small_weights)[..]);
        }
    }
}

/// Instances in the pairing regime of `bin_pack_pairing` and `grid`: every
/// weight at most `⌊q/2⌋`, on both X2Y sides. `max_inputs` caps each side.
fn pairing_regime(max_inputs: usize) -> impl Strategy<Value = (Vec<u64>, Vec<u64>, u64)> {
    (4u64..=120).prop_flat_map(move |q| {
        (
            proptest::collection::vec(0..=q / 2, 2..=max_inputs),
            proptest::collection::vec(0..=q / 2, 1..=max_inputs),
            Just(q),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The groups the solver docs describe are the schema's own: the A2A
    /// pairing schema groups exactly the first-fit-decreasing bins at
    /// `⌊q/2⌋` and has one reducer per pair of them (`Auto` builds it for
    /// unequal weights), and the balanced grid groups X and Y exactly as
    /// their FFD bins at `⌊q/2⌋` and `q − ⌊q/2⌋`, one reducer per pair.
    #[test]
    fn heuristics_group_their_ffd_bins((x, y, q) in pairing_regime(40)) {
        let ffd = FitPolicy::FirstFitDecreasing;
        let inputs = InputSet::from_weights(x.clone());
        let bins = inputs.pack_into_bins(q / 2, ffd).unwrap();
        let k = bins.len();
        let mut algos = vec![a2a::A2aAlgorithm::BinPackPairing(ffd)];
        if !inputs.all_equal() {
            algos.push(a2a::A2aAlgorithm::Auto);
        }
        for algo in algos {
            let schema = a2a::solve(&inputs, q, algo).unwrap();
            if inputs.total_weight() > q as u128 {
                // Two bins fit one reducer, so k ≥ 3 here.
                prop_assert_eq!(schema.groups(), &bins[..], "{:?}", algo);
                prop_assert_eq!(schema.reducer_count(), k * (k - 1) / 2);
            } else {
                // Everything fits one reducer: one group of every input.
                prop_assert_eq!(schema.groups().len(), 1);
                prop_assert_eq!(schema.reducer_count(), 1);
            }
        }

        let inst = X2yInstance::from_weights(x, y);
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Grid(ffd)).unwrap();
        let x_bins = inst.x.pack_into_bins(q / 2, ffd).unwrap();
        let y_bins = inst.y.pack_into_bins(q - q / 2, ffd).unwrap();
        prop_assert_eq!(schema.x_groups(), &x_bins[..]);
        prop_assert_eq!(schema.y_groups(), &y_bins[..]);
        prop_assert_eq!(schema.reducer_count(), x_bins.len() * y_bins.len());
    }

    /// The 11/9 claim of `bin_pack_pairing` and `grid`: first-fit-decreasing
    /// packs into at most `11/9·OPT + 6/9` bins (Dósa's tight bound), so the
    /// group count `k` obeys `9·k ≤ 11·OPT + 6` wherever the exact packer
    /// certifies the optimum, for the A2A groups and both grid sides.
    #[test]
    fn ffd_group_counts_stay_within_eleven_ninths((x, y, q) in pairing_regime(12)) {
        let ffd = FitPolicy::FirstFitDecreasing;
        let inst = X2yInstance::from_weights(x, y);
        let grid = x2y::solve(&inst, q, x2y::X2yAlgorithm::Grid(ffd)).unwrap();
        let mut group_counts = vec![
            (&inst.x, q / 2, grid.x_groups().len()),
            (&inst.y, q - q / 2, grid.y_groups().len()),
        ];
        if inst.x.total_weight() > q as u128 {
            let pairing = a2a::solve(&inst.x, q, a2a::A2aAlgorithm::BinPackPairing(ffd)).unwrap();
            group_counts.push((&inst.x, q / 2, pairing.groups().len()));
        }
        for (side, capacity, k) in group_counts {
            let exact = mrassign_binpack::exact::pack_exact(side.weights(), capacity, 200_000)
                .unwrap();
            if exact.optimal {
                let opt = exact.packing.bin_count();
                prop_assert!(
                    9 * k <= 11 * opt + 6,
                    "k = {k} bins against OPT = {opt} for {:?} at capacity {capacity}",
                    side.weights()
                );
            }
        }
    }
}

/// Any instance at any capacity q ≥ 1, feasible or not: weights run to
/// q + 1, so some inputs may not fit a reducer even alone.
fn any_capacity_and_weights(max_inputs: usize) -> impl Strategy<Value = (Vec<u64>, Vec<u64>, u64)> {
    (1u64..=60).prop_flat_map(move |q| {
        (
            proptest::collection::vec(0..=q + 1, 0..max_inputs),
            proptest::collection::vec(0..=q + 1, 0..max_inputs),
            Just(q),
        )
    })
}

/// A bound as a reducer count, saturating as the reducer bounds do.
fn saturate(bound: u128) -> usize {
    bound.try_into().unwrap_or(usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The replication bound `max r` never binds in `a2a_reducer_lb` or
    /// `x2y_reducer_lb`: `⌈C_lb/q⌉ ≥ max r` whenever some weight is
    /// positive (with every weight 0, every `r` is 1, the bounds' last
    /// term). So both functions return what they returned when they still
    /// took `max r` as a term of their own.
    #[test]
    fn communication_bound_dominates_every_replication_bound(
        (a, b, q) in any_capacity_and_weights(10)
    ) {
        let inputs = InputSet::from_weights(a.clone());
        if inputs.len() >= 2 {
            let max_r = (0..inputs.len())
                .map(|i| bounds::a2a_replication_lb(&inputs, q, i as u32))
                .max()
                .unwrap();
            let comm = bounds::a2a_comm_lb(&inputs, q).div_ceil(q as u128);
            if inputs.total_weight() > 0 {
                prop_assert!(saturate(comm) >= saturate(max_r), "A2A {a:?} at q = {q}");
            } else {
                prop_assert_eq!(max_r, 1);
            }
            let lb = bounds::a2a_reducer_lb(&inputs, q);
            prop_assert_eq!(lb, lb.max(saturate(max_r)), "A2A {a:?} at q = {q}");
        }

        let inst = X2yInstance::from_weights(a.clone(), b.clone());
        if !inst.x.is_empty() && !inst.y.is_empty() {
            let max_r = (0..inst.x.len() as u32)
                .map(|x| bounds::x2y_replication_lb_x(&inst, q, x))
                .chain((0..inst.y.len() as u32).map(|y| bounds::x2y_replication_lb_y(&inst, q, y)))
                .max()
                .unwrap();
            let comm = bounds::x2y_comm_lb(&inst, q).div_ceil(q as u128);
            if inst.x.total_weight() + inst.y.total_weight() > 0 {
                prop_assert!(saturate(comm) >= saturate(max_r), "X2Y {a:?} × {b:?} at q = {q}");
            } else {
                prop_assert_eq!(max_r, 1);
            }
            let lb = bounds::x2y_reducer_lb(&inst, q);
            prop_assert_eq!(lb, lb.max(saturate(max_r)), "X2Y {a:?} × {b:?} at q = {q}");
        }
    }
}
