//! Differential tests against a brute-force oracle.
//!
//! The oracle computes the true minimum reducer count by exhaustive
//! dynamic programming over coverage states. It is deliberately built from
//! *none* of the production search's machinery: it enumerates **every**
//! feasible reducer containing the first uncovered pair (not just maximal
//! ones, no symmetry breaking, no lower bounds, no budget) and memoizes on
//! the raw coverage bitmask. For `m ≤ 9` the pair universe fits in a `u64`
//! and the DP is exact, so any disagreement with `a2a_exact`/`x2y_exact`
//! is a bug in the pruned solvers' reductions.
//!
//! Three properties are checked on every instance:
//! 1. the exact solvers certify (`optimal == true`) and return the oracle
//!    optimum with a schema that validates;
//! 2. every registered heuristic that succeeds returns a valid schema that
//!    is never *better* than the oracle optimum;
//! 3. infeasible instances error (checked separately below).
//!
//! The DP is the suite's whole cost, so each instance's optimum is
//! computed once, into a table that the tests of properties 1 and 2 share.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mrassign_core::solver::{AssignmentSolver, A2A_SOLVERS, X2Y_SOLVERS};
use mrassign_core::{bounds, exact, InputSet, SchemaError, X2yInstance};

/// Exact minimum number of reducers for the A2A instance, by coverage-state
/// DP. Requires a feasible instance with at most 9 inputs (≤ 36 pairs).
fn oracle_a2a(weights: &[u64], q: u64) -> usize {
    let m = weights.len();
    assert!(m <= 9, "oracle pair universe must fit in u64");
    if m < 2 {
        return usize::from(m == 1 && weights[0] <= q);
    }
    let pair_count = m * (m - 1) / 2;
    let full: u64 = if pair_count == 64 {
        u64::MAX
    } else {
        (1 << pair_count) - 1
    };
    // pair_bit[i][j] for i < j, row-major triangular order.
    let pair_bit = |i: usize, j: usize| -> u64 { 1 << (i * m - i * (i + 1) / 2 + (j - i - 1)) };

    // Every subset of inputs that fits in one reducer, with its pair mask.
    let mut reducers: Vec<(u64, u64)> = Vec::new(); // (member mask, pair mask)
    for set in 1u64..(1 << m) {
        let w: u64 = (0..m)
            .filter(|&i| set >> i & 1 != 0)
            .map(|i| weights[i])
            .sum();
        if w > q {
            continue;
        }
        let mut pairs = 0u64;
        for i in 0..m {
            if set >> i & 1 == 0 {
                continue;
            }
            for j in i + 1..m {
                if set >> j & 1 != 0 {
                    pairs |= pair_bit(i, j);
                }
            }
        }
        reducers.push((set, pairs));
    }

    fn solve(
        covered: u64,
        full: u64,
        m: usize,
        reducers: &[(u64, u64)],
        memo: &mut HashMap<u64, usize>,
    ) -> usize {
        if covered == full {
            return 0;
        }
        if let Some(&v) = memo.get(&covered) {
            return v;
        }
        // First uncovered pair in triangular order.
        let missing = (!covered).trailing_zeros() as usize;
        let (mut i, mut rem) = (0usize, missing);
        loop {
            let row = m - i - 1;
            if rem < row {
                break;
            }
            rem -= row;
            i += 1;
        }
        let j = i + 1 + rem;
        let need = 1u64 << missing;
        debug_assert_eq!(need, {
            let bit = |a: usize, b: usize| 1u64 << (a * m - a * (a + 1) / 2 + (b - a - 1));
            bit(i, j)
        });

        let mut best = usize::MAX;
        for &(members, pairs) in reducers {
            if pairs & need == 0 || members >> i & 1 == 0 || members >> j & 1 == 0 {
                continue;
            }
            let sub = solve(covered | pairs, full, m, reducers, memo);
            if sub != usize::MAX {
                best = best.min(1 + sub);
            }
        }
        memo.insert(covered, best);
        best
    }

    let result = solve(0, full, m, &reducers, &mut HashMap::new());
    assert_ne!(result, usize::MAX, "feasible instance must have a cover");
    result
}

/// Exact minimum reducers for the X2Y instance; same construction over the
/// `|X|·|Y|` cross-pair universe. Requires `|X| + |Y| ≤ 9`.
fn oracle_x2y(x: &[u64], y: &[u64], q: u64) -> usize {
    let (nx, ny) = (x.len(), y.len());
    assert!(nx + ny <= 9);
    if nx == 0 || ny == 0 {
        return 0;
    }
    let full: u64 = (1 << (nx * ny)) - 1;

    // Every (X-subset, Y-subset) reducer that fits, with its cross mask.
    let mut reducers: Vec<(u64, u64, u64)> = Vec::new(); // (x mask, y mask, pair mask)
    for sx in 1u64..(1 << nx) {
        let wx: u64 = (0..nx).filter(|&i| sx >> i & 1 != 0).map(|i| x[i]).sum();
        if wx > q {
            continue;
        }
        for sy in 1u64..(1 << ny) {
            let wy: u64 = (0..ny).filter(|&j| sy >> j & 1 != 0).map(|j| y[j]).sum();
            if wx + wy > q {
                continue;
            }
            let mut pairs = 0u64;
            for i in 0..nx {
                if sx >> i & 1 == 0 {
                    continue;
                }
                for j in 0..ny {
                    if sy >> j & 1 != 0 {
                        pairs |= 1 << (i * ny + j);
                    }
                }
            }
            reducers.push((sx, sy, pairs));
        }
    }

    fn solve(
        covered: u64,
        full: u64,
        reducers: &[(u64, u64, u64)],
        memo: &mut HashMap<u64, usize>,
    ) -> usize {
        if covered == full {
            return 0;
        }
        if let Some(&v) = memo.get(&covered) {
            return v;
        }
        let need = 1u64 << (!covered).trailing_zeros();
        let mut best = usize::MAX;
        for &(_, _, pairs) in reducers {
            if pairs & need == 0 {
                continue;
            }
            let sub = solve(covered | pairs, full, reducers, memo);
            if sub != usize::MAX {
                best = best.min(1 + sub);
            }
        }
        memo.insert(covered, best);
        best
    }

    let result = solve(0, full, &reducers, &mut HashMap::new());
    assert_ne!(result, usize::MAX, "feasible instance must have a cover");
    result
}

/// Deterministic weight soup for seeded instances (no RNG dependency).
fn mixed_weights(m: usize, seed: u64, lo: u64, hi: u64) -> Vec<u64> {
    (0..m as u64)
        .map(|i| lo + (i * 7 + seed * 13 + (i * i * seed) % 11) % (hi - lo + 1))
        .collect()
}

/// An A2A instance, (weights, q), and an X2Y instance, (x, y, q).
type A2aCase = (Vec<u64>, u64);
type X2yCase = (Vec<u64>, Vec<u64>, u64);

/// Every A2A differential instance: (weights, q), all feasible.
fn a2a_instances() -> Vec<A2aCase> {
    let mut cases: Vec<(Vec<u64>, u64)> = vec![
        // Structured families.
        (vec![1; 6], 4),                 // equal weights, grouping regime
        (vec![1; 9], 2),                 // equal, pair-per-reducer regime
        (vec![1; 7], 3),                 // equal, tight grouping
        (vec![5, 8, 5, 8, 5, 8, 5], 21), // the table2 PARTITION-tight family
        (vec![5, 8, 5, 8, 5, 8, 5, 8], 21),
        (vec![1, 2, 3, 4, 5, 6, 7], 13),      // all-distinct ladder
        (vec![10, 1, 1, 1, 1, 1, 1], 12),     // one big input + crumbs
        (vec![9, 9, 2, 2, 2], 18),            // two bigs that exactly pair
        (vec![4, 4, 4, 3, 3, 3, 2, 2, 2], 9), // m = 9, three weight classes
        (vec![4, 4, 3, 3, 2, 2], 9),          // equal-weight pairs
        (vec![1, 2, 3, 4, 5, 6], 11),         // all-distinct ladder, m = 6
    ];
    // Seeded mixed-size instances across every m ≤ 9. The capacity sits
    // just above the feasibility floor (the two heaviest inputs), which
    // keeps reducers small and the oracle's coverage-state space tractable.
    for m in 2..=9usize {
        for seed in 0..4u64 {
            // At m = 9 the smallest weights are raised a notch: crumbs under
            // a roomy q explode the oracle's coverage-state space.
            let weights = mixed_weights(m, seed, if m == 9 { 4 } else { 2 }, 9);
            let mut sorted = weights.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let q = sorted[0] + sorted.get(1).copied().unwrap_or(0) + seed % 3;
            cases.push((weights, q));
        }
    }
    cases
}

fn x2y_instances() -> Vec<X2yCase> {
    let mut cases: Vec<(Vec<u64>, Vec<u64>, u64)> = vec![
        (vec![2, 2], vec![2, 2], 4),        // forced one-pair-per-reducer grid
        (vec![3, 3, 3, 3], vec![2, 2], 10), // two-reducer split exists
        (vec![4, 4], vec![4, 4], 10),       // two-reducer split refuted
        (vec![9], vec![1, 1, 1, 1], 10),    // heavy X replicated
        (vec![1, 2, 3, 4], vec![5, 6], 11), // distinct ladder
        (vec![5, 5, 5], vec![5, 5, 5], 10), // equal, tight
    ];
    for total in [5usize, 7, 9] {
        for nx in 2..total.min(6) {
            let ny = total - nx;
            if !(1..=6).contains(&ny) {
                continue;
            }
            let x = mixed_weights(nx, total as u64, 1, 7);
            let y = mixed_weights(ny, total as u64 + 5, 1, 7);
            let q = x.iter().max().unwrap() + y.iter().max().unwrap() + 3;
            cases.push((x, y, q));
        }
    }
    cases.extend(repeated_x2y_instances());
    cases
}

/// X2Y instances whose weights repeat within a side and across the sides
/// (3, 5 and 7), under a capacity just above the heaviest cross pair. Equal
/// weights on both sides are what a dominance rule that ignored sides
/// would wrongly merge; the tight capacity keeps most of these instances
/// beyond the heuristics, the counting bounds and the two-reducer DP, so
/// they reach the search.
fn repeated_x2y_instances() -> Vec<X2yCase> {
    let mut cases = Vec::new();
    for nx in 2..=5usize {
        for ny in 2..=(9 - nx).min(5) {
            for seed in 0..18u64 {
                let weights = |n: usize, side: u64| -> Vec<u64> {
                    (0..n as u64)
                        .map(|i| 3 + 2 * ((i * (seed % 5 + 1) + side * seed + seed / 5) % 3))
                        .collect()
                };
                let (x, y) = (weights(nx, 0), weights(ny, 1));
                let q = x.iter().max().unwrap() + y.iter().max().unwrap() + 1 + seed % 3;
                cases.push((x, y, q));
            }
        }
    }
    cases
}

/// Pairs each instance with its oracle optimum, running the DP once per
/// instance on every available core. Both instance lists end with their
/// largest instances, so the threads take them from the back: the
/// costliest DPs start first instead of lengthening the tail.
fn with_optima<I: Sync + Send>(
    instances: Vec<I>,
    oracle: impl Fn(&I) -> usize + Sync,
) -> Vec<(I, usize)> {
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut optima = vec![0; instances.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    loop {
                        let taken = next.fetch_add(1, Ordering::Relaxed);
                        let Some(i) = instances.len().checked_sub(taken + 1) else {
                            return found;
                        };
                        found.push((i, oracle(&instances[i])));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, opt) in worker.join().expect("the oracle never panics") {
                optima[i] = opt;
            }
        }
    });
    instances.into_iter().zip(optima).collect()
}

/// Every A2A instance with its oracle optimum, computed once.
fn a2a_optima() -> &'static [(A2aCase, usize)] {
    static OPTIMA: OnceLock<Vec<(A2aCase, usize)>> = OnceLock::new();
    OPTIMA.get_or_init(|| with_optima(a2a_instances(), |(weights, q)| oracle_a2a(weights, *q)))
}

/// Every X2Y instance with its oracle optimum, computed once.
fn x2y_optima() -> &'static [(X2yCase, usize)] {
    static OPTIMA: OnceLock<Vec<(X2yCase, usize)>> = OnceLock::new();
    OPTIMA.get_or_init(|| with_optima(x2y_instances(), |(x, y, q)| oracle_x2y(x, y, *q)))
}

#[test]
fn a2a_exact_matches_oracle_on_every_instance() {
    for &((ref weights, q), opt) in a2a_optima() {
        let inputs = InputSet::from_weights(weights.clone());
        bounds::a2a_feasible(&inputs, q).expect("differential instances are feasible");

        let result = exact::a2a_exact(&inputs, q, 50_000_000u64).expect("feasible");
        assert!(
            result.optimal,
            "exact must certify on {weights:?} q={q} (stats: {:?})",
            result.stats
        );
        assert!(!result.stats.exhausted);
        result.schema.validate_a2a(&inputs, q).unwrap();
        assert_eq!(
            result.schema.reducer_count(),
            opt,
            "oracle disagrees on {weights:?} q={q}"
        );
        // The generic lower bound must stay below the true optimum.
        assert!(
            bounds::a2a_reducer_lb(&inputs, q) <= opt,
            "{weights:?} q={q}"
        );
    }
}

#[test]
fn a2a_heuristics_are_never_better_than_the_oracle() {
    for &((ref weights, q), opt) in a2a_optima() {
        let inputs = InputSet::from_weights(weights.clone());
        for solver in A2A_SOLVERS {
            match solver.solve(&inputs, q) {
                Ok(schema) => {
                    schema.validate_a2a(&inputs, q).unwrap_or_else(|e| {
                        panic!(
                            "{} built an invalid schema on {weights:?} q={q}: {e}",
                            solver.name()
                        )
                    });
                    assert!(
                        schema.reducer_count() >= opt,
                        "{} beat the optimum on {weights:?} q={q}: {} < {opt}",
                        solver.name(),
                        schema.reducer_count()
                    );
                }
                // Forced solvers may reject instances outside their regime.
                Err(SchemaError::RegimeViolation { .. }) => {}
                Err(e) => panic!(
                    "{} failed unexpectedly on {weights:?} q={q}: {e}",
                    solver.name()
                ),
            }
        }
    }
}

#[test]
fn x2y_exact_matches_oracle_on_every_instance() {
    let mut searched = 0;
    for &((ref x, ref y, q), opt) in x2y_optima() {
        let inst = X2yInstance::from_weights(x.clone(), y.clone());
        bounds::x2y_feasible(&inst, q).expect("differential instances are feasible");

        let result = exact::x2y_exact(&inst, q, 50_000_000u64).expect("feasible");
        assert!(
            result.optimal,
            "exact must certify on x={x:?} y={y:?} q={q} (stats: {:?})",
            result.stats
        );
        result.schema.validate(&inst, q).unwrap();
        assert_eq!(
            result.schema.reducer_count(),
            opt,
            "oracle disagrees on x={x:?} y={y:?} q={q}"
        );
        assert!(bounds::x2y_reducer_lb(&inst, q) <= opt);
        searched += usize::from(result.stats.nodes > 0);
    }
    // The heuristics, the bounds and the two-reducer DP settle most
    // hand-picked instances before any search starts; this keeps the
    // search itself under the oracle.
    assert!(
        searched >= 200,
        "only {searched} X2Y instances reached the search"
    );
}

#[test]
fn x2y_heuristics_are_never_better_than_the_oracle() {
    for &((ref x, ref y, q), opt) in x2y_optima() {
        let inst = X2yInstance::from_weights(x.clone(), y.clone());
        for solver in X2Y_SOLVERS {
            match solver.solve(&inst, q) {
                Ok(schema) => {
                    schema.validate(&inst, q).unwrap_or_else(|e| {
                        panic!(
                            "{} built an invalid schema on x={x:?} y={y:?} q={q}: {e}",
                            solver.name()
                        )
                    });
                    assert!(
                        schema.reducer_count() >= opt,
                        "{} beat the optimum on x={x:?} y={y:?} q={q}: {} < {opt}",
                        solver.name(),
                        schema.reducer_count()
                    );
                }
                Err(SchemaError::RegimeViolation { .. }) => {}
                Err(e) => panic!(
                    "{} failed unexpectedly on x={x:?} y={y:?} q={q}: {e}",
                    solver.name()
                ),
            }
        }
    }
}

#[test]
fn infeasible_instances_error_in_both_solvers_and_oracle_preconditions() {
    let inputs = InputSet::from_weights(vec![6, 6, 1]);
    assert!(matches!(
        exact::a2a_exact(&inputs, 10, 1_000u64),
        Err(SchemaError::Infeasible { .. })
    ));
    let inst = X2yInstance::from_weights(vec![6], vec![6]);
    assert!(matches!(
        exact::x2y_exact(&inst, 10, 1_000u64),
        Err(SchemaError::Infeasible { .. })
    ));
}
