//! **Table 2 — NP-completeness in practice.** Exact branch-and-bound cost
//! grows exponentially with the instance size while the heuristics stay
//! polynomial; the optimality gap the heuristics pay for that speed is
//! reported alongside, together with the search statistics (nodes, prunes,
//! memo hits) that show where the optimality frontier currently sits.
//!
//! Two instance families chart that frontier from both sides:
//!
//! * `mixed` — ten distinct sizes cycling through `1 + (i·13 mod 10)` under
//!   `q = 20`, the paper's general "different-sized inputs" regime. The
//!   pruned search proves optimality well past `m = 14` here.
//! * `tight` — alternating 5s and 8s under `q = 21`, a PARTITION-flavoured
//!   family whose counting bounds stay one reducer below the optimum; this
//!   is where exponential blow-up genuinely bites, and rows beyond the
//!   frontier honestly report `certified = false` instead of an optimum.
//!
//! Includes the X2Y 2-reducer decision (table 2b), whose pseudo-polynomial
//! subset-sum DP is the hardness-witnessing special case.

use std::time::Instant;

use mrassign_core::exact::SearchBudget;
use mrassign_core::{a2a, exact, InputSet, X2yInstance};

use crate::common::{Scale, Table};

/// The general different-sized family: ten distinct weights, `q = 20`.
pub fn mixed_weights(m: usize) -> Vec<u64> {
    (0..m as u64).map(|i| 1 + (i * 13) % 10).collect()
}

/// The PARTITION-tight family: alternating 5s and 8s, `q = 21`.
pub fn tight_weights(m: usize) -> Vec<u64> {
    (0..m as u64).map(|i| 5 + (i * 3) % 6).collect()
}

/// The capacity the `mixed` family is evaluated under.
pub const MIXED_Q: u64 = 20;
/// The capacity the `tight` family is evaluated under.
pub const TIGHT_Q: u64 = 21;

/// Runs the experiment at the given scale with the default node budget.
pub fn run(scale: Scale) -> Table {
    run_with_budget(scale, None)
}

/// Runs the experiment, optionally overriding the node budget (the
/// `--budget` flag of `exp_table2`).
pub fn run_with_budget(scale: Scale, budget: Option<SearchBudget>) -> Table {
    let budget = budget.unwrap_or(SearchBudget::nodes(
        scale.pick(200_000, SearchBudget::DEFAULT_NODES * 25),
    ));
    type Family = (&'static str, fn(usize) -> Vec<u64>, u64, (usize, usize));
    let families: &[Family] = &[
        ("mixed", mixed_weights, MIXED_Q, scale.pick((4, 9), (4, 18))),
        ("tight", tight_weights, TIGHT_Q, scale.pick((4, 8), (4, 13))),
    ];

    let mut table = Table::new(
        "Table 2 — exact-search frontier vs heuristics (A2A)",
        &[
            "family",
            "m",
            "z_exact",
            "z_heur",
            "gap",
            "certified",
            "nodes",
            "pruned_bound",
            "pruned_dom",
            "memo_hits",
            "exact_us",
            "heur_us",
        ],
    );

    for &(family, weights_of, q, (m_lo, m_hi)) in families {
        for m in m_lo..=m_hi {
            let inputs = InputSet::from_weights(weights_of(m));

            let t0 = Instant::now();
            let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
            let heur_us = t0.elapsed().as_micros();

            let result = exact::a2a_exact(&inputs, q, budget).unwrap();
            result.schema.validate_a2a(&inputs, q).unwrap();

            let gap = if result.optimal {
                format!(
                    "{:.2}",
                    heuristic.reducer_count() as f64 / result.schema.reducer_count().max(1) as f64
                )
            } else {
                "-".to_string() // no certified optimum to compare against
            };
            table.push_row(&[
                &family,
                &m,
                &result.schema.reducer_count(),
                &heuristic.reducer_count(),
                &gap,
                &result.optimal,
                &result.stats.nodes,
                &result.stats.pruned_bound,
                &result.stats.pruned_dominance,
                &result.stats.memo_hits,
                &result.elapsed_us,
                &heur_us,
            ]);
        }
    }
    table
}

/// The companion table: X2Y 2-reducer decisions near the PARTITION
/// boundary — solvable in pseudo-polynomial time despite NP-hardness in
/// the strong sense being absent for this special case.
pub fn run_two_reducer(scale: Scale) -> Table {
    let n = scale.pick(8usize, 24);
    let mut table = Table::new(
        "Table 2b — X2Y two-reducer decision (subset-sum DP)",
        &["n_x", "q", "feasible", "dp_us"],
    );
    // X weights 1..n (sum n(n+1)/2), Y of weight 4 replicated; the split
    // capacity is q − 4, and feasibility flips as q crosses the partition
    // threshold ⌈sum/2⌉ + 4.
    let weights: Vec<u64> = (1..=n as u64).collect();
    let sum: u64 = weights.iter().sum();
    let critical = sum.div_ceil(2) + 4;
    for q in [critical - 1, critical, critical + 2] {
        let inst = X2yInstance::from_weights(weights.clone(), vec![4]);
        let t0 = Instant::now();
        let schema = exact::x2y_two_reducers(&inst, q);
        let dp_us = t0.elapsed().as_micros();
        if let Some(s) = &schema {
            s.validate(&inst, q).unwrap();
        }
        table.push_row(&[&n, &q, &schema.is_some(), &dp_us]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_certifies_every_row() {
        let table = run(Scale::Smoke);
        assert_eq!(table.len(), 6 + 5); // mixed 4..=9 + tight 4..=8
        for line in table.render().lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[5], "true", "smoke row not certified: {line}");
            let (z_exact, z_heur): (usize, usize) =
                (cols[2].parse().unwrap(), cols[3].parse().unwrap());
            assert!(z_exact <= z_heur, "{line}");
        }
    }

    #[test]
    fn mixed_family_certifies_m14_under_the_default_budget() {
        // The acceptance bar for the pruned search: proven-optimal results
        // at m ≥ 14 within the default full-scale budget. This is the exact
        // configuration of the full-scale `mixed` row at m = 14.
        let inputs = InputSet::from_weights(mixed_weights(14));
        let r = exact::a2a_exact(
            &inputs,
            MIXED_Q,
            SearchBudget::nodes(SearchBudget::DEFAULT_NODES * 25),
        )
        .unwrap();
        assert!(r.optimal, "stats: {:?}", r.stats);
        r.schema.validate_a2a(&inputs, MIXED_Q).unwrap();
    }

    #[test]
    fn smoke_two_reducer_flips_at_threshold() {
        let table = run_two_reducer(Scale::Smoke);
        let feas: Vec<bool> = table
            .render()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(feas, vec![false, true, true]);
    }
}
