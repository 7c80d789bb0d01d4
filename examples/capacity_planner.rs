//! Capacity planning: turn the paper's three tradeoffs into a decision.
//! Sweeps candidate reducer capacities for one workload, scores each
//! schema through the simulated cluster's cost model, and picks `q` under
//! three different objectives.
//!
//! Run with: `cargo run --release --example capacity_planner`

use mrassign::planner::{plan_a2a, Objective, PlannerConfig};
use mrassign::simmr::ClusterConfig;
use mrassign::workloads::SizeDistribution;

fn main() {
    // A pairwise-analytics workload: 250 inputs, 2–12 KB each.
    let weights = SizeDistribution::Uniform {
        lo: 2_000,
        hi: 12_000,
    }
    .sample_many(250, 77);

    let cluster = ClusterConfig {
        workers: 16,
        reduce_rate: 4.0 * 1024.0 * 1024.0, // reduce-heavy computation
        task_overhead: 0.002,
        ..ClusterConfig::default()
    };

    let base = PlannerConfig {
        cluster,
        candidates: 12,
        // The sweep fans out across OS threads; the plan is identical for
        // any thread count (the default is the machine's parallelism).
        threads: 4,
        ..PlannerConfig::default()
    };

    // Show the whole frontier once.
    let plan = plan_a2a(&weights, &base).unwrap();
    println!(
        "frontier (q swept from feasibility to one-reducer, {} sweep threads):",
        base.threads
    );
    println!(
        "{:>10} {:>9} {:>14} {:>11} {:>9}",
        "q", "reducers", "comm_bytes", "makespan_s", "speedup"
    );
    for c in &plan.frontier {
        println!(
            "{:>10} {:>9} {:>14} {:>11.3} {:>9.2}",
            c.q, c.reducers, c.communication, c.makespan, c.speedup
        );
    }

    // Decide under three objectives.
    for (name, objective) in [
        ("fastest", Objective::MinimizeMakespan),
        (
            "cheapest within 1.5x of fastest",
            Objective::MinimizeCommunicationWithin { slowdown: 1.5 },
        ),
        (
            "weighted (1 ms per MB shuffled)",
            Objective::WeightedCost {
                cost_per_byte: 1e-3 / (1024.0 * 1024.0),
            },
        ),
    ] {
        let plan = plan_a2a(
            &weights,
            &PlannerConfig {
                objective,
                ..base.clone()
            },
        )
        .unwrap();
        println!(
            "\nobjective: {name}\n  choose q = {} → {} reducers, {} bytes shuffled, {:.3}s makespan",
            plan.best.q, plan.best.reducers, plan.best.communication, plan.best.makespan
        );
    }
}
