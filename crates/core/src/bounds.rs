//! Lower bounds on reducers, replication, and communication cost.
//!
//! These are the paper's comparators: every approximation ratio reported in
//! `docs/EXPERIMENTS.md` is `achieved / bound` with a denominator from this
//! module, so the bounds must be *sound* (never exceed what an optimal
//! schema could do). Each bound's argument is given in its doc comment.
//!
//! Notation: `m` inputs of weights `w_i`, total `W`, capacity `q`; for X2Y
//! the sides have totals `W_X`, `W_Y`.

use crate::error::SchemaError;
use crate::input::{InputId, InputSet, Weight, X2yInstance};

/// Checks A2A feasibility: a mapping schema exists iff the two largest
/// inputs fit in one reducer together (`w₍₁₎ + w₍₂₎ ≤ q`), since that pair
/// must meet somewhere and every other pair weighs no more.
///
/// Instances with fewer than two inputs are vacuously feasible (no pairs).
pub fn a2a_feasible(inputs: &InputSet, q: Weight) -> Result<(), SchemaError> {
    if q == 0 {
        return Err(SchemaError::ZeroCapacity);
    }
    // The two heaviest inputs (ties to the lower ids), named in the error.
    let &[a, b, ..] = inputs.decreasing().ids() else {
        return Ok(());
    };
    let (a, b) = (a.min(b), a.max(b));
    pair_fits((a, inputs.weight(a)), (b, inputs.weight(b)), q)
}

/// Checks that two inputs, given as `(id, weight)`, fit in one reducer of
/// capacity `q`. A pair whose weights overflow [`Weight`] fits at no `q`:
/// its error reports `combined` saturated at `Weight::MAX`.
fn pair_fits(a: (InputId, Weight), b: (InputId, Weight), q: Weight) -> Result<(), SchemaError> {
    match a.1.checked_add(b.1) {
        Some(combined) if combined <= q => Ok(()),
        combined => Err(SchemaError::Infeasible {
            a: a.0,
            b: b.0,
            combined: combined.unwrap_or(Weight::MAX),
            capacity: q,
        }),
    }
}

/// Checks X2Y feasibility: a schema exists iff the heaviest X input and the
/// heaviest Y input fit together. Instances with an empty side are
/// vacuously feasible.
pub fn x2y_feasible(inst: &X2yInstance, q: Weight) -> Result<(), SchemaError> {
    if q == 0 {
        return Err(SchemaError::ZeroCapacity);
    }
    if inst.x.is_empty() || inst.y.is_empty() {
        return Ok(());
    }
    // The heaviest input of each side (ties to the lowest id).
    let (ax, ay) = (inst.x.decreasing().ids()[0], inst.y.decreasing().ids()[0]);
    pair_fits((ax, inst.x.weight(ax)), (ay, inst.y.weight(ay)), q)
}

/// Lower bound on the replication of input `i` in any A2A schema.
///
/// Input `i` must share reducers with all other inputs, whose total weight
/// is `W − w_i`; each reducer holding `i` has at most `q − w_i` spare
/// capacity, so `r_i ≥ ⌈(W − w_i)/(q − w_i)⌉` (and at least 1 whenever some
/// other input exists).
///
/// Returns 0 for instances with fewer than two inputs, and `u128::MAX` when
/// `w_i ≥ q` while other weight exists (infeasible).
pub fn a2a_replication_lb(inputs: &InputSet, q: Weight, i: InputId) -> u128 {
    if inputs.len() < 2 {
        return 0;
    }
    let w = inputs.weight(i) as u128;
    let rest = inputs.total_weight() - w;
    if rest == 0 {
        return 1;
    }
    let spare = (q as u128).saturating_sub(w);
    if spare == 0 {
        return u128::MAX;
    }
    rest.div_ceil(spare).max(1)
}

/// Lower bound on A2A communication cost: `Σ w_i · r_i` with the
/// replication bound above. Sound because executing any schema moves every
/// copy of every input.
pub fn a2a_comm_lb(inputs: &InputSet, q: Weight) -> u128 {
    if inputs.len() < 2 {
        return 0;
    }
    (0..inputs.len())
        .map(|i| {
            let r = a2a_replication_lb(inputs, q, i as InputId);
            (inputs.weight(i as InputId) as u128).saturating_mul(r)
        })
        .fold(0u128, u128::saturating_add)
}

/// Lower bound on the number of reducers in any A2A schema: the maximum of
///
/// * the **pair-weight bound** `⌈2P/q²⌉`: a reducer with load `s ≤ q`
///   covers pair weight `Σ_{i<j∈r} w_i w_j ≤ s²/2 ≤ q²/2`, and all of
///   `P = Σ_{i<j} w_i w_j` must be covered;
/// * the **communication bound** `⌈C_lb/q⌉`: each reducer receives at most
///   `q` weight, and at least `C_lb` ([`a2a_comm_lb`]) must be received;
/// * the **replication bound** `max_i r_i`: input `i` alone already needs
///   that many reducers;
/// * the **two-reducer theorem**: when `W > q`, one reducer is overloaded
///   and, by [`crate::exact::a2a_two_reducer_feasible`], two reducers never
///   beat one — so the optimum is at least 3;
/// * 1, whenever at least one pair exists.
///
/// The **replication bound** `max_i r_i` ([`a2a_replication_lb`]: input
/// `i` alone needs `r_i` reducers) is sound too, but never exceeds this
/// maximum, so it has no term. Let `R = r_i ≥ 2` be finite. Then
/// `(q − w_i)(R − 1) < W − w_i`, and every other input has `r_j ≥ 1`, so
/// `C_lb ≥ w_i·R + (W − w_i) > q(R − 1)`, which gives `⌈C_lb/q⌉ ≥ R`.
/// `R = 1` is met by the last term. An input with `w_i ≥ q` (infeasible) has
/// `r_i = u128::MAX` and saturates `C_lb`, so both come out as
/// `usize::MAX`.
///
/// `q` must be at least 1: capacity 0 is infeasible
/// ([`SchemaError::ZeroCapacity`]), and no caller passes it.
pub fn a2a_reducer_lb(inputs: &InputSet, q: Weight) -> usize {
    if inputs.len() < 2 {
        return 0;
    }
    let q128 = q.max(1) as u128;
    let pair_bound = inputs.pair_weight().saturating_mul(2).div_ceil(q128 * q128);
    let comm_bound = a2a_comm_lb(inputs, q).div_ceil(q128);
    let structural = if inputs.total_weight() > q as u128 {
        3
    } else {
        1
    };
    pair_bound
        .max(comm_bound)
        .max(structural)
        .try_into()
        .unwrap_or(usize::MAX)
}

/// The tighter reducer bound for **equal-sized** inputs (weight `w`): a
/// reducer holds at most `g = ⌊q/w⌋` inputs and covers at most `C(g,2)`
/// pairs, so `z ≥ ⌈C(m,2)/C(g,2)⌉` (Afrati–Ullman). Returns `None` when no
/// schema exists (`g < 2` with `m ≥ 2`).
pub fn a2a_reducer_lb_equal(m: usize, w: Weight, q: Weight) -> Option<usize> {
    if m < 2 {
        return Some(0);
    }
    if w == 0 {
        return Some(1);
    }
    let g = (q / w) as u128;
    if g < 2 {
        return None;
    }
    let pairs = (m as u128) * (m as u128 - 1) / 2;
    let per_reducer = g * (g - 1) / 2;
    Some(pairs.div_ceil(per_reducer).try_into().unwrap_or(usize::MAX))
}

/// Lower bound on the replication of X input `x` in any X2Y schema: its
/// reducers must jointly hold all of Y, so `r_x ≥ ⌈W_Y/(q − w_x)⌉`.
///
/// Returns 0 when Y is empty and `u128::MAX` when `w_x ≥ q` while Y has
/// positive weight (infeasible).
pub fn x2y_replication_lb_x(inst: &X2yInstance, q: Weight, x: InputId) -> u128 {
    if inst.y.is_empty() {
        return 0;
    }
    let wy = inst.y.total_weight();
    if wy == 0 {
        return 1;
    }
    let spare = (q as u128).saturating_sub(inst.x.weight(x) as u128);
    if spare == 0 {
        return u128::MAX;
    }
    wy.div_ceil(spare).max(1)
}

/// Symmetric to [`x2y_replication_lb_x`] for a Y input.
pub fn x2y_replication_lb_y(inst: &X2yInstance, q: Weight, y: InputId) -> u128 {
    if inst.x.is_empty() {
        return 0;
    }
    let wx = inst.x.total_weight();
    if wx == 0 {
        return 1;
    }
    let spare = (q as u128).saturating_sub(inst.y.weight(y) as u128);
    if spare == 0 {
        return u128::MAX;
    }
    wx.div_ceil(spare).max(1)
}

/// Lower bound on X2Y communication cost: `Σ_x w_x·r_x + Σ_y w_y·r_y`.
pub fn x2y_comm_lb(inst: &X2yInstance, q: Weight) -> u128 {
    if inst.x.is_empty() || inst.y.is_empty() {
        return 0;
    }
    let x_side = (0..inst.x.len()).map(|x| {
        (inst.x.weight(x as InputId) as u128).saturating_mul(x2y_replication_lb_x(
            inst,
            q,
            x as InputId,
        ))
    });
    let y_side = (0..inst.y.len()).map(|y| {
        (inst.y.weight(y as InputId) as u128).saturating_mul(x2y_replication_lb_y(
            inst,
            q,
            y as InputId,
        ))
    });
    x_side.chain(y_side).fold(0u128, u128::saturating_add)
}

/// Lower bound on the number of reducers in any X2Y schema: the maximum of
///
/// * the **cross-pair-weight bound** `⌈4·W_X·W_Y/q²⌉`: a reducer splitting
///   its load into `s_x + s_y ≤ q` covers cross weight `s_x·s_y ≤ q²/4`;
/// * the **communication bound** `⌈C_lb/q⌉`;
/// * 1 whenever both sides are nonempty.
///
/// As in [`a2a_reducer_lb`], the per-input **replication bounds** never
/// exceed this maximum, so they have no term. For an X input with finite
/// `R = r_x ≥ 2`, `(q − w_x)(R − 1) < W_Y`, and every Y input has
/// `r_y ≥ 1`, so `C_lb ≥ w_x·R + W_Y > q(R − 1)`; a Y input is symmetric.
/// `R = 1` is met by the last term, and `w ≥ q` saturates both to
/// `usize::MAX`.
///
/// `q` must be at least 1: capacity 0 is infeasible
/// ([`SchemaError::ZeroCapacity`]), and no caller passes it.
pub fn x2y_reducer_lb(inst: &X2yInstance, q: Weight) -> usize {
    if inst.x.is_empty() || inst.y.is_empty() {
        return 0;
    }
    let q128 = q.max(1) as u128;
    let pair_bound = inst
        .cross_pair_weight()
        .saturating_mul(4)
        .div_ceil(q128 * q128);
    let comm_bound = x2y_comm_lb(inst, q).div_ceil(q128);
    pair_bound
        .max(comm_bound)
        .max(1)
        .try_into()
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_is_two_largest() {
        let ok = InputSet::from_weights(vec![6, 4, 1, 1]);
        a2a_feasible(&ok, 10).unwrap();
        let bad = InputSet::from_weights(vec![6, 5, 1]);
        assert_eq!(
            a2a_feasible(&bad, 10),
            Err(SchemaError::Infeasible {
                a: 0,
                b: 1,
                combined: 11,
                capacity: 10
            })
        );
    }

    /// A pair whose weights sum past `Weight::MAX` fits at no capacity,
    /// even `Weight::MAX`; the error saturates the combined weight
    /// instead of wrapping it to a small, feasible-looking sum.
    #[test]
    fn overflowing_pairs_are_infeasible() {
        let saturated = |a, b, capacity| {
            Err(SchemaError::Infeasible {
                a,
                b,
                combined: Weight::MAX,
                capacity,
            })
        };
        for weights in [vec![Weight::MAX, 5], vec![1 << 63, 1 << 63]] {
            let inputs = InputSet::from_weights(weights);
            assert_eq!(a2a_feasible(&inputs, 4), saturated(0, 1, 4));
            assert_eq!(
                a2a_feasible(&inputs, Weight::MAX),
                saturated(0, 1, Weight::MAX)
            );
        }
        let inst = X2yInstance::from_weights(vec![Weight::MAX], vec![5]);
        assert_eq!(x2y_feasible(&inst, 4), saturated(0, 0, 4));
        assert_eq!(
            x2y_feasible(&inst, Weight::MAX),
            saturated(0, 0, Weight::MAX)
        );
        // The largest pair that does not overflow still fits at MAX.
        let edge = InputSet::from_weights(vec![Weight::MAX - 5, 5]);
        a2a_feasible(&edge, Weight::MAX).unwrap();
    }

    #[test]
    fn tiny_instances_always_feasible() {
        a2a_feasible(&InputSet::from_weights(vec![]), 1).unwrap();
        a2a_feasible(&InputSet::from_weights(vec![1_000]), 1).unwrap();
    }

    #[test]
    fn zero_capacity_infeasible() {
        assert_eq!(
            a2a_feasible(&InputSet::from_weights(vec![]), 0),
            Err(SchemaError::ZeroCapacity)
        );
    }

    #[test]
    fn replication_lb_matches_hand_computation() {
        // W = 20, q = 10. Input of weight 2: rest 18, spare 8 → ⌈18/8⌉ = 3.
        let inputs = InputSet::from_weights(vec![2, 6, 6, 6]);
        assert_eq!(a2a_replication_lb(&inputs, 10, 0), 3);
        // Input of weight 6: rest 14, spare 4 → 4.
        assert_eq!(a2a_replication_lb(&inputs, 10, 1), 4);
    }

    #[test]
    fn replication_lb_edges() {
        let single = InputSet::from_weights(vec![5]);
        assert_eq!(a2a_replication_lb(&single, 10, 0), 0);
        let zeros = InputSet::from_weights(vec![0, 0, 5]);
        assert_eq!(a2a_replication_lb(&zeros, 5, 2), 1);
        // w_i = q with other positive weight: impossible.
        let tight = InputSet::from_weights(vec![10, 1]);
        assert_eq!(a2a_replication_lb(&tight, 10, 0), u128::MAX);
    }

    #[test]
    fn comm_lb_sums_weighted_replication() {
        let inputs = InputSet::from_weights(vec![2, 6, 6, 6]);
        // r = [3, 4, 4, 4] → C ≥ 2·3 + 6·4·3 = 78.
        assert_eq!(a2a_comm_lb(&inputs, 10), 78);
    }

    #[test]
    fn reducer_lb_takes_the_max() {
        let inputs = InputSet::from_weights(vec![2, 6, 6, 6]);
        // comm bound: ⌈78/10⌉ = 8; pair bound: P = 2·18 + 36·3 = 144 →
        // ⌈288/100⌉ = 3 → 8 wins (the replication bound, 4, has no term).
        assert_eq!(a2a_reducer_lb(&inputs, 10), 8);
    }

    #[test]
    fn reducer_lb_of_tiny_instances_is_zero() {
        assert_eq!(a2a_reducer_lb(&InputSet::from_weights(vec![]), 10), 0);
        assert_eq!(a2a_reducer_lb(&InputSet::from_weights(vec![3]), 10), 0);
    }

    #[test]
    fn reducer_lb_at_least_one_for_pairs() {
        let zeros = InputSet::from_weights(vec![0, 0]);
        assert_eq!(a2a_reducer_lb(&zeros, 10), 1);
    }

    #[test]
    fn equal_lb_matches_afrati_ullman() {
        // m=20, w=1, q=4 → g=4, C(20,2)=190, C(4,2)=6 → ⌈190/6⌉ = 32.
        assert_eq!(a2a_reducer_lb_equal(20, 1, 4), Some(32));
        // Infeasible: two inputs of 6 with q=10.
        assert_eq!(a2a_reducer_lb_equal(5, 6, 10), None);
        assert_eq!(a2a_reducer_lb_equal(1, 6, 10), Some(0));
        assert_eq!(a2a_reducer_lb_equal(4, 0, 10), Some(1));
    }

    #[test]
    fn x2y_feasibility() {
        let ok = X2yInstance::from_weights(vec![6, 2], vec![4, 1]);
        x2y_feasible(&ok, 10).unwrap();
        let bad = X2yInstance::from_weights(vec![6, 2], vec![5]);
        assert_eq!(
            x2y_feasible(&bad, 10),
            Err(SchemaError::Infeasible {
                a: 0,
                b: 0,
                combined: 11,
                capacity: 10
            })
        );
        x2y_feasible(&X2yInstance::from_weights(vec![], vec![99]), 10).unwrap();
    }

    #[test]
    fn x2y_replication_bounds() {
        // W_Y = 12, q = 10. x of weight 4: ⌈12/6⌉ = 2.
        let inst = X2yInstance::from_weights(vec![4, 2], vec![6, 6]);
        assert_eq!(x2y_replication_lb_x(&inst, 10, 0), 2);
        // y of weight 6: W_X = 6, spare 4 → ⌈6/4⌉ = 2.
        assert_eq!(x2y_replication_lb_y(&inst, 10, 0), 2);
    }

    #[test]
    fn x2y_comm_and_reducer_lbs() {
        let inst = X2yInstance::from_weights(vec![4, 2], vec![6, 6]);
        // r_x = [2, ⌈12/8⌉=2], r_y = [2, 2].
        // C ≥ 4·2 + 2·2 + 6·2 + 6·2 = 36.
        assert_eq!(x2y_comm_lb(&inst, 10), 36);
        // pair bound: 4·6·12/100 → ⌈288/100⌉ = 3; comm ⌈36/10⌉ = 4.
        assert_eq!(x2y_reducer_lb(&inst, 10), 4);
    }

    #[test]
    fn x2y_bounds_empty_sides() {
        let inst = X2yInstance::from_weights(vec![], vec![6, 6]);
        assert_eq!(x2y_comm_lb(&inst, 10), 0);
        assert_eq!(x2y_reducer_lb(&inst, 10), 0);
        assert_eq!(x2y_replication_lb_y(&inst, 10, 0), 0);
    }

    #[test]
    fn bounds_do_not_overflow_on_huge_weights() {
        let inputs = InputSet::from_weights(vec![u64::MAX / 2; 4]);
        // Feasibility fails (two halves of u64::MAX exceed q), but the
        // bound functions must not panic.
        let _ = a2a_reducer_lb(&inputs, u64::MAX);
        let _ = a2a_comm_lb(&inputs, u64::MAX);
        let inst = X2yInstance::from_weights(vec![u64::MAX / 2; 2], vec![u64::MAX / 2; 2]);
        let _ = x2y_reducer_lb(&inst, u64::MAX);
    }
}
