//! Algorithms for the **A2A (all-to-all) mapping schema problem**: assign
//! every pair of inputs to at least one common reducer of capacity `q`,
//! using as few reducers as possible.
//!
//! The problem is NP-complete (see [`crate::exact`] for the hardness
//! witnesses), so the paper gives a toolbox of per-regime approximation
//! algorithms, all implemented here:
//!
//! | regime | algorithm | entry point |
//! |---|---|---|
//! | `W ≤ q` | everything in one reducer (optimal) | [`one_reducer`] |
//! | equal sizes | group inputs into `⌊q/2w⌋`-input groups, one reducer per group pair | [`grouping_equal`] |
//! | all sizes ≤ `⌊q/2⌋` | bin-pack into `⌊q/2⌋`-capacity bins, one reducer per bin pair | [`bin_pack_pairing`] |
//! | one big input (> `⌊q/2⌋`) | big input crossed with `(q−w_big)`-bins of the smalls, plus a schema over the smalls | [`big_small`] |
//!
//! [`solve`] dispatches by regime. Every algorithm returns a schema that
//! passes [`crate::MappingSchema::validate_a2a`]; infeasible instances are
//! rejected with [`SchemaError::Infeasible`] before any work.
//!
//! The structure of all these algorithms follows one observation from the
//! paper: if inputs are bundled into *groups* of weight at most `q/2`, a
//! reducer can host any two groups, and assigning every pair of groups to
//! a reducer covers every pair of inputs. Quality then reduces to how few
//! groups the bundling step produces — which is bin packing. The schema
//! stores exactly this structure ([`MappingSchema::groups`], one or two
//! hosted groups per reducer): each algorithm moves its bins in once and
//! adds a pair of group indices per reducer, copying no input ids.

use mrassign_binpack::FitPolicy;

use crate::bounds::a2a_feasible;
use crate::error::SchemaError;
use crate::exact::SearchBudget;
use crate::input::{InputId, InputSet, Weight};
use crate::schema::MappingSchema;

/// Strategy selector for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A2aAlgorithm {
    /// Pick automatically: one reducer if everything fits, the grouping
    /// algorithm for equal sizes, big+small handling when a big input
    /// exists, bin-pack-and-pair otherwise.
    Auto,
    /// Force the single-reducer schema (errors if `W > q`).
    OneReducer,
    /// Force the equal-size grouping algorithm (errors on unequal sizes).
    GroupingEqual,
    /// Force bin-pack-and-pair with the given packing policy (errors on
    /// inputs above `⌊q/2⌋` unless everything fits in one reducer).
    BinPackPairing(FitPolicy),
    /// Force big+small handling. `shared_bins` selects the ablation
    /// variant that reuses the big input's bins for small-small coverage
    /// instead of packing the smalls a second time.
    BigSmall {
        /// Packing policy for both packing steps.
        policy: FitPolicy,
        /// Reuse the `(q − w_big)`-capacity bins as pairing groups.
        shared_bins: bool,
    },
    /// The branch-and-bound exact solver ([`crate::exact::a2a_exact`])
    /// under the given [`SearchBudget`]. Returns the optimal schema when
    /// the search certifies within budget, the best heuristic schema
    /// otherwise; callers needing the certificate and
    /// [`crate::exact::SearchStats`] should use [`crate::exact`] directly.
    Exact(SearchBudget),
}

/// Computes an A2A mapping schema for `inputs` under capacity `q` using the
/// chosen algorithm.
///
/// # Errors
///
/// [`SchemaError::Infeasible`] when no schema exists (two inputs exceed `q`
/// together), [`SchemaError::RegimeViolation`] when a forced algorithm's
/// size regime is violated, [`SchemaError::ZeroCapacity`] for `q == 0`.
pub fn solve(
    inputs: &InputSet,
    q: Weight,
    algorithm: A2aAlgorithm,
) -> Result<MappingSchema, SchemaError> {
    a2a_feasible(inputs, q)?;
    if inputs.len() < 2 {
        return Ok(trivial_schema(inputs, q));
    }
    match algorithm {
        A2aAlgorithm::Auto => {
            if inputs.total_weight() <= q as u128 {
                one_reducer(inputs, q)
            } else if inputs.all_equal() {
                grouping_equal(inputs, q)
            } else if !inputs.heavier_than(q / 2).is_empty() {
                big_small(inputs, q, FitPolicy::FirstFitDecreasing, false)
            } else {
                bin_pack_pairing(inputs, q, FitPolicy::FirstFitDecreasing)
            }
        }
        A2aAlgorithm::OneReducer => one_reducer(inputs, q),
        A2aAlgorithm::GroupingEqual => grouping_equal(inputs, q),
        A2aAlgorithm::BinPackPairing(policy) => bin_pack_pairing(inputs, q, policy),
        A2aAlgorithm::BigSmall {
            policy,
            shared_bins,
        } => big_small(inputs, q, policy, shared_bins),
        A2aAlgorithm::Exact(budget) => crate::exact::a2a_exact(inputs, q, budget).map(|r| r.schema),
    }
}

/// Schema for instances with fewer than two inputs: a lone input that fits
/// gets one reducer (harmless and convenient for executing the schema);
/// otherwise the schema is empty — there are no pairs to cover.
fn trivial_schema(inputs: &InputSet, q: Weight) -> MappingSchema {
    let mut schema = MappingSchema::new();
    if inputs.len() == 1 && inputs.weight(0) <= q {
        schema.push_reducer(vec![0]);
    }
    schema
}

/// The `W ≤ q` regime: one reducer holding every input. Optimal — no
/// schema uses fewer than one reducer, and communication equals `W`, the
/// minimum possible.
pub fn one_reducer(inputs: &InputSet, q: Weight) -> Result<MappingSchema, SchemaError> {
    a2a_feasible(inputs, q)?;
    if inputs.len() < 2 {
        return Ok(trivial_schema(inputs, q));
    }
    let total = inputs.total_weight();
    if total > q as u128 {
        // Report the mismatch in regime terms: the "limit" is q on total
        // weight; name input 0 as representative.
        return Err(SchemaError::RegimeViolation {
            id: 0,
            weight: total.min(u64::MAX as u128) as u64,
            limit: q,
        });
    }
    Ok(MappingSchema::from_reducers(vec![(0..inputs.len()
        as InputId)
        .collect()]))
}

/// The equal-size regime (Afrati–Ullman grouping): split the `m` inputs of
/// weight `w` into consecutive groups of `g = ⌊q/2w⌋` inputs (group weight
/// ≤ `q/2`), and assign every pair of groups to one reducer.
///
/// Every cross-group pair meets in its groups' reducer; every within-group
/// pair meets wherever the group appears (each group pairs with at least
/// one other group because `W > q` here). Uses `C(k, 2)` reducers for
/// `k = ⌈m/g⌉` groups. Against the pair-counting lower bound
/// `C(m,2)/C(c,2)` with `c = ⌊q/w⌋` ([`crate::bounds::a2a_reducer_lb_equal`]),
/// that ratio tends to `c(c−1)/2g²` as `m` grows. At even `c`, `g = c/2`
/// and the ratio tends to `2(c−1)/c`, below 2. At odd `c`, `g = (c−1)/2`
/// and it tends to `2c/(c−1)`, above 2: 3 at `c = 3`, 2.5 at `c = 5`,
/// 2.2 at `c = 11`.
pub fn grouping_equal(inputs: &InputSet, q: Weight) -> Result<MappingSchema, SchemaError> {
    a2a_feasible(inputs, q)?;
    if inputs.len() < 2 {
        return Ok(trivial_schema(inputs, q));
    }
    if !inputs.all_equal() {
        // Name the first deviating input.
        let w0 = inputs.weight(0);
        let deviant = (1..inputs.len())
            .find(|&i| inputs.weight(i as InputId) != w0)
            .expect("unequal instance has a deviating input");
        return Err(SchemaError::RegimeViolation {
            id: deviant as InputId,
            weight: inputs.weight(deviant as InputId),
            limit: w0,
        });
    }
    if inputs.total_weight() <= q as u128 {
        return one_reducer(inputs, q);
    }
    let w = inputs.weight(0);
    debug_assert!(w > 0, "W > q ≥ 1 with equal weights implies w > 0");
    // Feasibility gives 2w ≤ q, so g ≥ 1.
    let g = (q / (2 * w)) as usize;
    let groups: Vec<Vec<InputId>> = (0..inputs.len() as InputId)
        .collect::<Vec<_>>()
        .chunks(g)
        .map(|c| c.to_vec())
        .collect();
    Ok(pair_groups(groups))
}

/// The `w_i ≤ ⌊q/2⌋` regime: bin-pack all inputs into bins of capacity
/// `⌊q/2⌋` using `policy`, then assign every pair of bins to one reducer.
/// Two bins fit together (`2·⌊q/2⌋ ≤ q`), cross-bin pairs meet in their
/// bins' reducer, and within-bin pairs meet wherever the bin appears.
///
/// With `k` bins this uses `C(k, 2)` reducers; since first-fit-decreasing
/// keeps `k` within 11/9 of the fewest possible `⌊q/2⌋`-bins, the reducer
/// count stays within a constant factor of optimal (measured in the
/// experiments against [`crate::bounds::a2a_reducer_lb`]).
pub fn bin_pack_pairing(
    inputs: &InputSet,
    q: Weight,
    policy: FitPolicy,
) -> Result<MappingSchema, SchemaError> {
    a2a_feasible(inputs, q)?;
    if inputs.len() < 2 {
        return Ok(trivial_schema(inputs, q));
    }
    if inputs.total_weight() <= q as u128 {
        return one_reducer(inputs, q);
    }
    let half = q / 2;
    if let Some(&big) = inputs.heavier_than(half).first() {
        return Err(SchemaError::RegimeViolation {
            id: big,
            weight: inputs.weight(big),
            limit: half,
        });
    }
    let bins = inputs
        .pack_into_bins(half, policy)
        .expect("regime checked: every weight ≤ ⌊q/2⌋ and ⌊q/2⌋ ≥ 1");
    Ok(pair_groups(bins))
}

/// The big-input regime: at most one input can exceed `⌊q/2⌋` in a feasible
/// instance (two such inputs would not fit together). That big input `b`
/// must meet every small, so the smalls are packed into bins of capacity
/// `q − w_b` and each bin joins `b` in a reducer. Small-small pairs are
/// covered by a second, independent schema over the smalls:
///
/// * `shared_bins = false` (default): re-pack the smalls into `⌊q/2⌋` bins
///   and pair those — fewer, fuller bins, so fewer pairing reducers;
/// * `shared_bins = true` (ablation): reuse the `(q − w_b)` bins as pairing
///   groups — skips the second packing, but as `w_b → q` the bins multiply
///   and the `C(k,2)` pairing term explodes. The `fig7` experiment
///   quantifies exactly this.
pub fn big_small(
    inputs: &InputSet,
    q: Weight,
    policy: FitPolicy,
    shared_bins: bool,
) -> Result<MappingSchema, SchemaError> {
    a2a_feasible(inputs, q)?;
    if inputs.len() < 2 {
        return Ok(trivial_schema(inputs, q));
    }
    if inputs.total_weight() <= q as u128 {
        return one_reducer(inputs, q);
    }
    let half = q / 2;
    let bigs = inputs.heavier_than(half);
    let Some(&big) = bigs.first() else {
        // No big input: the plain pairing algorithm covers this instance.
        return bin_pack_pairing(inputs, q, policy);
    };
    debug_assert!(
        bigs.len() == 1,
        "feasible instances have at most one input above ⌊q/2⌋"
    );

    let w_big = inputs.weight(big);
    // The one big input is the only one above ⌊q/2⌋. Both phases pack this
    // sub-instance of the smalls, sorted once.
    let (small_inputs, smalls) = inputs.at_most(half);
    let cap_big = q - w_big;
    // w_big == q would force every other input to weigh 0 (feasibility),
    // so W == q and the one-reducer return above has already been taken.
    debug_assert!(cap_big > 0, "w_big == q implies W <= q");

    // Phase 1: big × smalls. The big input is a group of its own, and each
    // (q − w_big)-bin of smalls, in original ids, shares a reducer with it.
    let big_bins = small_inputs
        .pack_into_bins(cap_big, policy)
        .expect("feasibility: every small ≤ q − w_big");
    let to_original = |local: InputId| smalls[local as usize];
    let mut schema = MappingSchema::new();
    let big_group = schema.add_groups([vec![big]]).start;
    let bins = schema.add_groups(big_bins.into_iter().map(|mut bin| {
        for id in &mut bin {
            *id = to_original(*id);
        }
        bin
    }));
    schema.host_with(big_group, bins.clone());

    // Phase 2: small × small.
    if shared_bins {
        // Reuse phase-1 bins as groups. Two bins fit in one reducer:
        // 2(q − w_big) ≤ q because w_big > ⌊q/2⌋ ⇒ w_big ≥ ⌊q/2⌋ + 1
        // ⇒ 2(q − w_big) ≤ 2(q − ⌊q/2⌋ − 1) ≤ q − 1.
        // A single bin means all small pairs already met inside the
        // phase-1 reducer.
        if bins.len() >= 2 {
            schema.host_pairs(bins);
        }
    } else {
        // Independent schema over the smalls (recursing into the small-only
        // regime, which is one reducer when they fit in one), remapped to
        // original ids.
        let sub_schema = bin_pack_pairing(&small_inputs, q, policy)?;
        schema.append(sub_schema, to_original);
    }
    Ok(schema)
}

/// Builds the pairing schema over `groups`, which move in whole: one
/// reducer per unordered pair of groups; a single group becomes a single
/// reducer.
fn pair_groups(groups: Vec<Vec<InputId>>) -> MappingSchema {
    let mut schema = MappingSchema::new();
    let groups = schema.add_groups(groups);
    schema.host_pairs(groups);
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    fn check(inputs: &InputSet, q: Weight, algo: A2aAlgorithm) -> MappingSchema {
        let schema = solve(inputs, q, algo).unwrap();
        schema.validate_a2a(inputs, q).unwrap();
        schema
    }

    #[test]
    fn one_reducer_when_everything_fits() {
        let inputs = InputSet::from_weights(vec![3, 3, 4]);
        let schema = check(&inputs, 10, A2aAlgorithm::Auto);
        assert_eq!(schema.reducer_count(), 1);
    }

    #[test]
    fn one_reducer_rejects_overflow() {
        let inputs = InputSet::from_weights(vec![3, 3, 5]);
        assert!(matches!(
            solve(&inputs, 10, A2aAlgorithm::OneReducer),
            Err(SchemaError::RegimeViolation { .. })
        ));
    }

    #[test]
    fn grouping_equal_matches_formula() {
        // m = 20 unit inputs, q = 4: g = 2, k = 10 groups, C(10,2) = 45.
        let inputs = InputSet::from_weights(vec![1; 20]);
        let schema = check(&inputs, 4, A2aAlgorithm::GroupingEqual);
        assert_eq!(schema.reducer_count(), 45);
        // Lower bound: C(20,2)/C(4,2) = 190/6 → 32. Ratio 45/32 < 2.
        let lb = bounds::a2a_reducer_lb_equal(20, 1, 4).unwrap();
        assert!(schema.reducer_count() <= 2 * lb);
    }

    #[test]
    fn grouping_equal_ragged_last_group() {
        // m = 7, w = 3, q = 12: g = 2, k = 4 (groups 2,2,2,1), C(4,2) = 6.
        let inputs = InputSet::from_weights(vec![3; 7]);
        let schema = check(&inputs, 12, A2aAlgorithm::GroupingEqual);
        assert_eq!(schema.reducer_count(), 6);
    }

    #[test]
    fn grouping_equal_rejects_unequal() {
        let inputs = InputSet::from_weights(vec![3, 3, 4]);
        assert_eq!(
            solve(&inputs, 100, A2aAlgorithm::GroupingEqual).unwrap_err(),
            SchemaError::RegimeViolation {
                id: 2,
                weight: 4,
                limit: 3
            }
        );
    }

    #[test]
    fn grouping_equal_infeasible_when_two_dont_fit() {
        let inputs = InputSet::from_weights(vec![6; 4]);
        assert!(matches!(
            solve(&inputs, 10, A2aAlgorithm::GroupingEqual),
            Err(SchemaError::Infeasible { .. })
        ));
    }

    #[test]
    fn bin_pack_pairing_covers_mixed_sizes() {
        let inputs = InputSet::from_weights(vec![5, 4, 4, 3, 3, 2, 2, 1, 1, 5]);
        let schema = check(
            &inputs,
            10,
            A2aAlgorithm::BinPackPairing(FitPolicy::FirstFitDecreasing),
        );
        // 30 total weight into 5-capacity bins: ≥ 6 bins → ≥ C(6,2) = 15.
        assert!(schema.reducer_count() >= 15);
        assert!(schema.reducer_count() >= bounds::a2a_reducer_lb(&inputs, 10));
    }

    #[test]
    fn bin_pack_pairing_rejects_big_inputs() {
        let inputs = InputSet::from_weights(vec![6, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(
            solve(
                &inputs,
                10,
                A2aAlgorithm::BinPackPairing(FitPolicy::FirstFit)
            )
            .unwrap_err(),
            SchemaError::RegimeViolation {
                id: 0,
                weight: 6,
                limit: 5
            }
        );
    }

    #[test]
    fn bin_pack_pairing_single_bin_would_mean_one_reducer() {
        // W ≤ q short-circuits to one reducer even under the forced policy.
        let inputs = InputSet::from_weights(vec![2, 2, 2]);
        let schema = check(
            &inputs,
            10,
            A2aAlgorithm::BinPackPairing(FitPolicy::NextFit),
        );
        assert_eq!(schema.reducer_count(), 1);
    }

    #[test]
    fn big_small_covers_all_pairs() {
        // One big input (7 > 6 = ⌊13/2⌋), plus ten smalls.
        let mut weights = vec![7];
        weights.extend(std::iter::repeat_n(3, 10));
        let inputs = InputSet::from_weights(weights);
        for shared in [false, true] {
            let schema = check(
                &inputs,
                13,
                A2aAlgorithm::BigSmall {
                    policy: FitPolicy::FirstFitDecreasing,
                    shared_bins: shared,
                },
            );
            // Big reducers: smalls (30 weight) into cap-6 bins → 5 bins;
            // each holds 2 smalls.
            let big_reducers = schema.reducers().filter(|r| r.contains(0)).count();
            assert_eq!(big_reducers, 5);
        }
    }

    #[test]
    fn big_small_shared_bins_uses_more_pairing_reducers() {
        let mut weights = vec![70];
        weights.extend(std::iter::repeat_n(10, 30));
        let inputs = InputSet::from_weights(weights);
        let two_pack = check(
            &inputs,
            100,
            A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: false,
            },
        );
        let shared = check(
            &inputs,
            100,
            A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: true,
            },
        );
        // cap_big = 30 → 10 bins of smalls; shared pairs C(10,2) = 45.
        // Two-packing re-packs at cap 50 → 6 bins → C(6,2) = 15.
        assert!(two_pack.reducer_count() < shared.reducer_count());
    }

    /// A big input of weight q leaves every other input at weight 0, so
    /// the total is q and `big_small` returns `one_reducer` before it
    /// packs anything.
    #[test]
    fn big_small_with_w_big_equal_q() {
        let inputs = InputSet::from_weights(vec![10, 0, 0, 0]);
        let schema = check(
            &inputs,
            10,
            A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: false,
            },
        );
        assert_eq!(schema.reducer_count(), 1);
    }

    #[test]
    fn big_small_falls_back_without_bigs() {
        let inputs = InputSet::from_weights(vec![3; 12]);
        let schema = check(
            &inputs,
            10,
            A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: false,
            },
        );
        assert!(schema.reducer_count() > 1);
    }

    #[test]
    fn auto_dispatches_each_regime() {
        // Equal sizes → grouping.
        let equal = InputSet::from_weights(vec![2; 30]);
        check(&equal, 8, A2aAlgorithm::Auto);
        // Mixed small sizes → pairing.
        let mixed = InputSet::from_weights((1..=30).map(|i| (i % 5) + 1).collect());
        check(&mixed, 10, A2aAlgorithm::Auto);
        // Big input → big-small.
        let big = InputSet::from_weights(vec![8, 2, 2, 2, 2, 2, 2]);
        check(&big, 10, A2aAlgorithm::Auto);
    }

    #[test]
    fn infeasible_instances_rejected_by_all_algorithms() {
        let inputs = InputSet::from_weights(vec![7, 7, 1]);
        for algo in [
            A2aAlgorithm::Auto,
            A2aAlgorithm::OneReducer,
            A2aAlgorithm::GroupingEqual,
            A2aAlgorithm::BinPackPairing(FitPolicy::FirstFitDecreasing),
            A2aAlgorithm::BigSmall {
                policy: FitPolicy::FirstFitDecreasing,
                shared_bins: false,
            },
        ] {
            assert!(
                matches!(
                    solve(&inputs, 10, algo),
                    Err(SchemaError::Infeasible { .. })
                ),
                "{algo:?} accepted an infeasible instance"
            );
        }
    }

    #[test]
    fn tiny_instances_get_trivial_schemas() {
        let empty = InputSet::from_weights(vec![]);
        assert_eq!(
            solve(&empty, 10, A2aAlgorithm::Auto)
                .unwrap()
                .reducer_count(),
            0
        );
        let single = InputSet::from_weights(vec![4]);
        assert_eq!(
            solve(&single, 10, A2aAlgorithm::Auto)
                .unwrap()
                .reducer_count(),
            1
        );
        // A lone input above q still has no pairs: empty schema.
        let single_big = InputSet::from_weights(vec![40]);
        assert_eq!(
            solve(&single_big, 10, A2aAlgorithm::Auto)
                .unwrap()
                .reducer_count(),
            0
        );
    }

    #[test]
    fn two_inputs_exactly_filling_q() {
        let inputs = InputSet::from_weights(vec![4, 6]);
        let schema = check(&inputs, 10, A2aAlgorithm::Auto);
        assert_eq!(schema.reducer_count(), 1);
    }

    #[test]
    fn communication_beats_naive_pair_per_reducer() {
        // The naive "one reducer per pair" schema ships every input m−1
        // times; the schema must do better on communication for m ≫ q/w.
        let inputs = InputSet::from_weights(vec![2; 40]);
        let schema = check(&inputs, 20, A2aAlgorithm::Auto);
        let naive_comm: u128 = 2 * 39 * 40; // each of 40 inputs copied 39×
        assert!(schema.communication_cost(&inputs) < naive_comm / 2);
    }
}
