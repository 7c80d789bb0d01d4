//! **Table 3 — optimality-gap distribution.** Table 2 shows the exact
//! solver's cost on fixed instance families; this experiment quantifies
//! what the heuristics *give up* across many random instances: the
//! distribution of `z_heuristic / z_optimal` and how tight the lower
//! bounds are (`z_optimal / z_lb`), per instance size. The pruned search
//! certifies uniform instances through `m = 12`, so the full-scale gap
//! distribution now covers sizes the seed solver could not reach (its
//! frontier was `m ≈ 8`).

use mrassign_core::exact::SearchBudget;
use mrassign_core::{a2a, bounds, exact, InputSet};
use mrassign_workloads::SizeDistribution;

use crate::common::{Scale, Table};

/// Runs the experiment at the given scale with the default node budget.
pub fn run(scale: Scale) -> Table {
    run_with_budget(scale, None)
}

/// Runs the experiment, optionally overriding the node budget (the
/// `--budget` flag of `exp_table3`).
pub fn run_with_budget(scale: Scale, budget: Option<SearchBudget>) -> Table {
    let instances = scale.pick(12u64, 80);
    let sizes: &[usize] = scale.pick(&[5, 6][..], &[5, 6, 7, 8, 9, 10, 11, 12][..]);
    let budget = budget.unwrap_or(SearchBudget::nodes(scale.pick(200_000, 5_000_000)));
    let q = 20u64;

    let mut table = Table::new(
        "Table 3 — heuristic optimality gap and bound tightness",
        &[
            "m",
            "instances",
            "certified",
            "optimal_rate",
            "gap_mean",
            "gap_p90",
            "gap_max",
            "lb_tightness_mean",
            "nodes_mean",
        ],
    );

    for &m in sizes {
        let mut gaps: Vec<f64> = Vec::new();
        let mut tightness: Vec<f64> = Vec::new();
        let mut heuristic_optimal = 0usize;
        let mut certified = 0usize;
        let mut nodes_total = 0u64;
        for seed in 0..instances {
            let weights =
                SizeDistribution::Uniform { lo: 1, hi: 10 }.sample_many(m, seed * 31 + m as u64);
            let inputs = InputSet::from_weights(weights);
            let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto)
                .expect("weights ≤ q/2 are always feasible");
            let result = exact::a2a_exact(&inputs, q, budget).expect("feasible");
            nodes_total += result.stats.nodes;
            if !result.optimal {
                continue;
            }
            certified += 1;
            let opt = result.schema.reducer_count().max(1);
            let gap = heuristic.reducer_count() as f64 / opt as f64;
            gaps.push(gap);
            if heuristic.reducer_count() == result.schema.reducer_count() {
                heuristic_optimal += 1;
            }
            let lb = bounds::a2a_reducer_lb(&inputs, q).max(1);
            tightness.push(opt as f64 / lb as f64);
        }
        gaps.sort_by(f64::total_cmp);
        let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        let p90 = gaps.get((gaps.len() * 9) / 10).copied().unwrap_or(f64::NAN);
        let max = gaps.last().copied().unwrap_or(f64::NAN);
        let tight_mean = tightness.iter().sum::<f64>() / tightness.len().max(1) as f64;
        table.push_row(&[
            &m,
            &instances,
            &certified,
            &format!("{:.2}", heuristic_optimal as f64 / certified.max(1) as f64),
            &format!("{mean:.3}"),
            &format!("{p90:.3}"),
            &format!("{max:.3}"),
            &format!("{tight_mean:.3}"),
            &(nodes_total / instances.max(1)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_produces_certified_gaps() {
        let table = run(Scale::Smoke);
        assert_eq!(table.len(), 2);
        for line in table.render().lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let certified: usize = cols[2].parse().unwrap();
            assert!(certified > 0, "no instances certified in: {line}");
            let gap_mean: f64 = cols[4].parse().unwrap();
            assert!((1.0..3.0).contains(&gap_mean), "{line}");
            // The optimum is never below our lower bound.
            let tight: f64 = cols[7].parse().unwrap();
            assert!(tight >= 1.0 - 1e-9, "{line}");
            let _nodes_mean: u64 = cols[8].parse().unwrap();
        }
    }
}
