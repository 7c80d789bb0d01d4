//! Named adversarial constructions: instances engineered to stress one
//! specific code path or theorem. Each test documents why its instance is
//! nasty; together they pin behaviour that the random property tests only
//! hit occasionally.

use mrassign_binpack::FitPolicy;
use mrassign_core::{a2a, bounds, exact, x2y, InputSet, SchemaError, X2yInstance};

/// FFD's classic worst-case family (weights around capacity/4 ± ε) makes
/// the packer use 11/9 of the optimal bins; the pairing schema must still
/// validate and stay within ~(11/9)² ≈ 1.5 of the bound-driven reducer
/// count.
#[test]
fn ffd_worst_case_family_still_validates() {
    // Capacity 404; weights 101+ε, 101−2ε, 202+ε style groups.
    let q = 808u64; // bins of ⌊q/2⌋ = 404
    let mut weights = Vec::new();
    for _ in 0..6 {
        weights.extend_from_slice(&[203, 102, 101, 99, 99]);
    }
    let inputs = InputSet::from_weights(weights);
    let schema = a2a::solve(
        &inputs,
        q,
        a2a::A2aAlgorithm::BinPackPairing(FitPolicy::FirstFitDecreasing),
    )
    .unwrap();
    schema.validate_a2a(&inputs, q).unwrap();
    let lb = bounds::a2a_reducer_lb(&inputs, q);
    assert!(schema.reducer_count() <= 3 * lb.max(1));
}

/// Weights exactly at the ⌊q/2⌋ boundary: two must share a reducer
/// perfectly with zero slack. Off-by-one here breaks capacity or coverage.
#[test]
fn boundary_weights_exactly_half_q() {
    for q in [10u64, 11] {
        let half = q / 2;
        let inputs = InputSet::from_weights(vec![half; 8]);
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        schema.validate_a2a(&inputs, q).unwrap();
        let loads = schema.loads(&inputs);
        assert!(loads.iter().all(|&l| l <= q));
    }
}

/// A big input at exactly ⌊q/2⌋ + 1 — the smallest weight that routes an
/// instance into big+small handling rather than plain pairing.
#[test]
fn smallest_possible_big_input() {
    let q = 100u64;
    let mut weights = vec![51]; // just over ⌊q/2⌋ = 50
    weights.extend(std::iter::repeat_n(10u64, 30));
    let inputs = InputSet::from_weights(weights);
    // Pairing must reject it...
    assert!(matches!(
        a2a::solve(
            &inputs,
            q,
            a2a::A2aAlgorithm::BinPackPairing(FitPolicy::FirstFitDecreasing)
        ),
        Err(SchemaError::RegimeViolation {
            id: 0,
            weight: 51,
            limit: 50
        })
    ));
    // ...while Auto dispatches to big+small and succeeds.
    let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
    schema.validate_a2a(&inputs, q).unwrap();
}

/// The grouping algorithm with an odd q/w ratio: ⌊q/2w⌋ rounds down and
/// wastes capacity; the schema must remain valid (not optimal).
#[test]
fn grouping_with_odd_capacity_ratio() {
    // w = 2, q = 10: g = ⌊10/4⌋ = 2 inputs per group (4 weight ≤ 5).
    let inputs = InputSet::from_weights(vec![2; 15]);
    let schema = a2a::solve(&inputs, 10, a2a::A2aAlgorithm::GroupingEqual).unwrap();
    schema.validate_a2a(&inputs, 10).unwrap();
    // 8 groups → C(8,2) = 28 reducers.
    assert_eq!(schema.reducer_count(), 28);
    // Tighter: a reducer fits g = 5 inputs → z ≥ ⌈C(15,2)/C(5,2)⌉ = 11.
    assert_eq!(bounds::a2a_reducer_lb_equal(15, 2, 10), Some(11));
}

/// Zero-weight inputs still participate in coverage: they must meet every
/// other input even though they cost nothing.
#[test]
fn zero_weight_inputs_are_covered() {
    let inputs = InputSet::from_weights(vec![0, 0, 0, 5, 5]);
    let schema = a2a::solve(&inputs, 10, a2a::A2aAlgorithm::Auto).unwrap();
    schema.validate_a2a(&inputs, 10).unwrap();
    // Replications of the zero-weight inputs are all ≥ 1.
    let rep = schema.replication(inputs.len());
    assert!(rep.iter().all(|&r| r >= 1));
}

/// m = 2 with weights that exactly fill q: the single-reducer schema is
/// forced and unique.
#[test]
fn exact_fit_pair() {
    let inputs = InputSet::from_weights(vec![60, 40]);
    let schema = a2a::solve(&inputs, 100, a2a::A2aAlgorithm::Auto).unwrap();
    assert_eq!(schema.reducer_count(), 1);
    let exact = exact::a2a_exact(&inputs, 100, 1000).unwrap();
    assert!(exact.optimal);
    assert_eq!(exact.schema.reducer_count(), 1);
}

/// An instance where one extra unit of capacity halves the reducer count:
/// capacity cliffs are real and the solver must not smooth over them.
#[test]
fn capacity_cliff_at_group_boundary() {
    let inputs = InputSet::from_weights(vec![10; 40]);
    // q = 39: g = ⌊39/20⌋ = 1 input per group → C(40,2) = 780 reducers.
    let tight = a2a::solve(&inputs, 39, a2a::A2aAlgorithm::GroupingEqual).unwrap();
    // q = 40: g = 2 inputs per group → C(20,2) = 190 reducers.
    let roomy = a2a::solve(&inputs, 40, a2a::A2aAlgorithm::GroupingEqual).unwrap();
    assert_eq!(tight.reducer_count(), 780);
    assert_eq!(roomy.reducer_count(), 190);
}

/// X2Y with singleton sides: the grid degenerates to bins × 1 and must
/// not emit empty reducers.
#[test]
fn x2y_singleton_sides() {
    let inst = X2yInstance::from_weights(vec![3], vec![2; 20]);
    let schema = x2y::solve(&inst, 10, x2y::X2yAlgorithm::Auto).unwrap();
    schema.validate(&inst, 10).unwrap();
    assert!(schema
        .reducers()
        .all(|r| !r.x.is_empty() && !r.y.is_empty()));
}

/// X2Y where the only feasible split is maximally lopsided: max_x = q − 1
/// forces every Y bin to capacity 1.
#[test]
fn x2y_forced_lopsided_split() {
    let inst = X2yInstance::from_weights(vec![9, 1, 1], vec![1; 6]);
    let q = 10;
    let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
    schema.validate(&inst, q).unwrap();
    // The big x (weight 9) can meet only one unit of Y per reducer.
    let (rx, _) = schema.replication(&inst);
    assert!(
        rx[0] >= 6,
        "big x must appear in ≥ 6 reducers, got {}",
        rx[0]
    );
    assert_eq!(
        bounds::x2y_replication_lb_x(&inst, q, 0),
        6,
        "lower bound agrees"
    );
}

/// The A2A exact solver on a covering-design instance with known optimum:
/// 9 unit inputs at q = 3 is the affine plane of order 3 — exactly 12
/// triples cover all 36 pairs.
#[test]
fn exact_solver_finds_affine_plane() {
    let inputs = InputSet::from_weights(vec![1; 9]);
    let result = exact::a2a_exact(&inputs, 3, 50_000_000).unwrap();
    assert!(result.optimal, "search must complete");
    assert_eq!(
        result.schema.reducer_count(),
        12,
        "the resolvable 2-(9,3,1) design uses 12 blocks"
    );
    result.schema.validate_a2a(&inputs, 3).unwrap();
}

/// Infeasibility is detected no matter where the two offending inputs sit.
#[test]
fn infeasibility_position_independent() {
    for pos in 0..5 {
        let mut weights = vec![1u64; 5];
        weights[pos] = 60;
        weights[(pos + 2) % 5] = 50;
        let inputs = InputSet::from_weights(weights);
        let err = a2a::solve(&inputs, 100, a2a::A2aAlgorithm::Auto).unwrap_err();
        assert!(
            matches!(err, SchemaError::Infeasible { combined: 110, .. }),
            "pos {pos}: {err:?}"
        );
    }
}

/// Heuristic monotonicity: growing q never increases the Auto schema's
/// communication on this fixed instance family (a regression guard for
/// dispatch boundaries between regimes).
#[test]
fn communication_monotone_in_capacity() {
    let inputs = InputSet::from_weights((0..60).map(|i| 5 + (i * 7) % 20).collect());
    let mut last = u128::MAX;
    for q in [50u64, 80, 130, 210, 340, 550, 890, 1440] {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        schema.validate_a2a(&inputs, q).unwrap();
        let comm = schema.communication_cost(&inputs);
        assert!(
            comm <= last,
            "communication rose from {last} to {comm} at q = {q}"
        );
        last = comm;
    }
}

/// The pre-pruning frontier, pinned. The seed branch-and-bound exhausted a
/// 50M-node budget on the alternating-5/8 family at m = 11 *without*
/// certifying (measured on the seed implementation: 50,000,000 nodes,
/// `certified = false`). The reworked search must certify the same
/// instance with at least 10× fewer nodes — it currently needs ~10k.
#[test]
fn pruned_search_certifies_m11_with_10x_fewer_nodes_than_the_seed() {
    let inputs = InputSet::from_weights((0..11u64).map(|i| 5 + (i * 3) % 6).collect());
    let r = exact::a2a_exact(&inputs, 21, 50_000_000u64).unwrap();
    assert!(r.optimal, "stats: {:?}", r.stats);
    assert!(
        r.stats.nodes <= 5_000_000,
        "pruning regressed: {} nodes on the m=11 tight family (seed: 50M, uncertified)",
        r.stats.nodes
    );
    assert_eq!(r.schema.reducer_count(), 18);
    r.schema.validate_a2a(&inputs, 21).unwrap();
}

/// The iterative-deepening certificate is two-sided: refuting the target
/// below the optimum is what certifies. Cross-check the m = 11 optimum
/// against the generic lower bound (17, from communication) — the search
/// proves 17 impossible, which no counting bound can.
#[test]
fn m11_tight_family_optimum_exceeds_the_counting_bound() {
    let inputs = InputSet::from_weights((0..11u64).map(|i| 5 + (i * 3) % 6).collect());
    assert_eq!(bounds::a2a_reducer_lb(&inputs, 21), 17);
    let r = exact::a2a_exact(&inputs, 21, 50_000_000u64).unwrap();
    assert!(r.optimal);
    assert_eq!(r.schema.reducer_count(), 18);
}

/// Weights near u64::MAX would overflow the searches' u128 pair-weight
/// accounting (pair products ≈ 2^126 summed); such instances must take the
/// no-search fallback — a valid heuristic schema, never a panic and never
/// a fabricated certificate from wrapped bounds.
#[test]
fn astronomical_weights_skip_the_search_without_overflow() {
    let w = u64::MAX / 4;
    let inputs = InputSet::from_weights(vec![w; 6]);
    let q = u64::MAX / 2 + 2; // any pair fits: feasible
    let r = exact::a2a_exact(&inputs, q, 1_000_000u64).unwrap();
    r.schema.validate_a2a(&inputs, q).unwrap();
    assert_eq!(r.stats.nodes, 0, "the search must not start");
    assert!(!r.stats.exhausted);
    let inst = X2yInstance::from_weights(vec![w; 3], vec![w; 3]);
    let rx = exact::x2y_exact(&inst, q, 1_000_000u64).unwrap();
    rx.schema.validate(&inst, q).unwrap();
    assert_eq!(rx.stats.nodes, 0);
}
