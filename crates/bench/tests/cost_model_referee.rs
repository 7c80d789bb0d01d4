//! The planner's cost model refereed by the engine it stands in for: every
//! candidate `plan_a2a` scores must match, bit for bit, the metrics of
//! running the same schema on the engine under the planner's cluster.
//!
//! The planner never runs a candidate on the engine. This test does, for a
//! few instances: mixed and skewed sizes, a single input, and inputs so
//! large that the byte totals pass `u64::MAX`, where both sides must
//! saturate the same way.

use mrassign_bench::common::execute_a2a_schema;
use mrassign_core::{a2a, InputSet};
use mrassign_planner::{plan_a2a, PlannerConfig};
use mrassign_simmr::{ClusterConfig, ShuffleMode};

/// Plans `weights` on `cluster`, then runs every frontier candidate's
/// `Auto` schema on the engine under the same cluster and compares.
fn assert_frontier_matches_engine(label: &str, weights: &[u64], cluster: ClusterConfig) {
    let config = PlannerConfig {
        cluster: cluster.clone(),
        threads: 1,
        ..PlannerConfig::default()
    };
    let plan = plan_a2a(weights, &config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let inputs = InputSet::from_weights(weights.to_vec());
    for candidate in &plan.frontier {
        let q = candidate.q;
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto)
            .unwrap_or_else(|e| panic!("{label} at q = {q}: {e}"));
        let run = execute_a2a_schema(weights, &schema, q, cluster.clone());
        let communication: u128 = run.reducer_value_bytes.iter().map(|&b| u128::from(b)).sum();
        let at = format!("{label} at q = {q}");
        assert_eq!(candidate.reducers, run.reducers, "{at}: reducers");
        assert_eq!(
            candidate.communication, communication,
            "{at}: communication"
        );
        assert_eq!(candidate.max_load, run.max_reducer_load(), "{at}: max load");
        assert_eq!(
            candidate.makespan.to_bits(),
            run.total_seconds().to_bits(),
            "{at}: makespan {} vs {}",
            candidate.makespan,
            run.total_seconds()
        );
        assert_eq!(
            candidate.speedup.to_bits(),
            run.speedup().to_bits(),
            "{at}: speedup {} vs {}",
            candidate.speedup,
            run.speedup()
        );
    }
}

fn instances() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("mixed", (0..60).map(|i| 50 + (i * 13) % 150).collect()),
        (
            "skewed",
            (1..=40)
                .map(|i| if i % 9 == 0 { 400 } else { 1 + i % 7 })
                .collect(),
        ),
        ("single input", vec![7]),
        // Every pair fits exactly at q = 2⁶³: 6 reducers of load 2⁶³, whose
        // input and shuffled byte totals pass u64::MAX.
        ("boundary", vec![1 << 62; 4]),
        // One reducer whose load plus two 8-byte keys passes u64::MAX.
        ("near max", vec![u64::MAX / 2; 2]),
    ]
}

#[test]
fn cost_model_matches_the_materialized_engine() {
    for (label, weights) in instances() {
        assert_frontier_matches_engine(label, &weights, ClusterConfig::default());
    }
}

/// A different cluster shape on the pipelined engine: the cost model reads
/// only the cluster's cost fields, and the engine's deterministic metrics
/// do not depend on the shuffle mode.
#[test]
fn cost_model_matches_the_pipelined_engine() {
    let cluster = ClusterConfig {
        workers: 3,
        shuffle: ShuffleMode::Pipelined,
        map_threads: 2,
        ..ClusterConfig::default()
    };
    for (label, weights) in instances() {
        assert_frontier_matches_engine(label, &weights, cluster.clone());
    }
}
