//! The planner's cost model refereed by the engine it stands in for: every
//! candidate `plan_a2a` and `plan_x2y` score must match, bit for bit, the
//! metrics of running the same schema on the engine under the planner's
//! cluster.
//!
//! The planner never runs a candidate on the engine. This test does, for a
//! few instances of each problem: mixed and skewed sizes, a big input on
//! either X2Y side, instances that fit one reducer, and inputs so large
//! that the byte totals pass `u64::MAX`, where both sides must saturate
//! the same way.

use mrassign_bench::common::{execute_a2a_schema, execute_x2y_schema};
use mrassign_core::{a2a, x2y, InputSet, X2yInstance};
use mrassign_planner::{plan_a2a, plan_x2y, CandidatePlan, PlannerConfig};
use mrassign_simmr::{ClusterConfig, JobMetrics, ShuffleMode};

fn sequential(cluster: &ClusterConfig) -> PlannerConfig {
    PlannerConfig {
        cluster: cluster.clone(),
        threads: 1,
        ..PlannerConfig::default()
    }
}

/// Pins one scored candidate to the engine run of its schema.
fn assert_candidate_matches_run(at: &str, candidate: &CandidatePlan, run: &JobMetrics) {
    let communication: u128 = run.reducer_value_bytes.iter().map(|&b| u128::from(b)).sum();
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

/// Plans `weights` on `cluster`, then runs every frontier candidate's
/// `Auto` schema on the engine under the same cluster and compares.
fn assert_frontier_matches_engine(label: &str, weights: &[u64], cluster: ClusterConfig) {
    let plan = plan_a2a(weights, &sequential(&cluster)).unwrap_or_else(|e| panic!("{label}: {e}"));
    let inputs = InputSet::from_weights(weights.to_vec());
    for candidate in &plan.frontier {
        let q = candidate.q;
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto)
            .unwrap_or_else(|e| panic!("{label} at q = {q}: {e}"));
        let run = execute_a2a_schema(weights, &schema, q, cluster.clone());
        assert_candidate_matches_run(&format!("{label} at q = {q}"), candidate, &run);
    }
}

/// The X2Y counterpart: every `plan_x2y` frontier candidate's `Auto`
/// schema runs on the engine with one map task per input, X first.
fn assert_x2y_frontier_matches_engine(label: &str, x: &[u64], y: &[u64], cluster: ClusterConfig) {
    let plan = plan_x2y(x, y, &sequential(&cluster)).unwrap_or_else(|e| panic!("{label}: {e}"));
    let inst = X2yInstance::from_weights(x.to_vec(), y.to_vec());
    for candidate in &plan.frontier {
        let q = candidate.q;
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto)
            .unwrap_or_else(|e| panic!("{label} at q = {q}: {e}"));
        let run = execute_x2y_schema(x, y, &schema, q, cluster.clone());
        assert_candidate_matches_run(&format!("{label} at q = {q}"), candidate, &run);
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

/// `(label, X weights, Y weights)`.
type X2yCase = (&'static str, Vec<u64>, Vec<u64>);

fn x2y_instances() -> Vec<X2yCase> {
    let side = |n: u64, lo: u64, step: u64| (0..n).map(|i| lo + (i * step) % 120).collect();
    let with_big = |mut weights: Vec<u64>| {
        // Above ⌊q/2⌋ at the low end of the sweep, where q is the two
        // sides' largest weights together.
        weights.insert(3, 900);
        weights
    };
    vec![
        ("mixed sides", side(50, 20, 17), side(35, 10, 29)),
        // `big_handling` on X, then the plain grid once q passes 1,800.
        ("big on X", with_big(side(30, 5, 13)), side(40, 10, 7)),
        // Its mirror: the big input is on Y.
        ("big on Y", side(40, 10, 7), with_big(side(30, 5, 13))),
        // The largest pair is the whole instance: every candidate is one
        // reducer, zero-weight inputs included.
        ("one reducer", vec![10], vec![0, 3, 0]),
        // A 2 × 2 grid at q = 2⁶³ whose shuffled byte total passes u64::MAX.
        ("boundary", vec![1 << 62; 2], vec![1 << 62; 2]),
        // One reducer whose load plus two 8-byte keys passes u64::MAX.
        ("near max", vec![u64::MAX / 2], vec![u64::MAX / 2]),
    ]
}

/// The two engine cells: the default materialized cluster, and a
/// different cluster shape on the pipelined engine. The cost model reads
/// only the cluster's cost fields, and the engine's deterministic metrics
/// do not depend on the shuffle mode.
fn pipelined_cluster() -> ClusterConfig {
    ClusterConfig {
        workers: 3,
        shuffle: ShuffleMode::Pipelined,
        map_threads: 2,
        ..ClusterConfig::default()
    }
}

#[test]
fn cost_model_matches_the_materialized_engine() {
    for (label, weights) in instances() {
        assert_frontier_matches_engine(label, &weights, ClusterConfig::default());
    }
}

#[test]
fn cost_model_matches_the_pipelined_engine() {
    for (label, weights) in instances() {
        assert_frontier_matches_engine(label, &weights, pipelined_cluster());
    }
}

#[test]
fn x2y_cost_model_matches_the_materialized_engine() {
    for (label, x, y) in x2y_instances() {
        assert_x2y_frontier_matches_engine(label, &x, &y, ClusterConfig::default());
    }
}

#[test]
fn x2y_cost_model_matches_the_pipelined_engine() {
    for (label, x, y) in x2y_instances() {
        assert_x2y_frontier_matches_engine(label, &x, &y, pipelined_cluster());
    }
}
