//! **Figure 5 — similarity join across capacities.** The A2A schema
//! executes the full pairwise comparison at every `q`; the answer (number
//! of similar pairs) is invariant while communication and reducer count
//! fall with `q`. The pair-per-reducer baseline anchors the comparison:
//! maximum parallelism, `m−1` copies of every document.

use mrassign_core::a2a::A2aAlgorithm;
use mrassign_joins::{run_similarity_join, SimJoinConfig, SimJoinStrategy};
use mrassign_simmr::ClusterConfig;
use mrassign_workloads::{generate_documents, geometric_steps, DocumentSpec, SizeDistribution};

use crate::common::{Scale, Table};

/// Runs the experiment at the given scale on the default engine.
pub fn run(scale: Scale) -> Table {
    run_with(scale, &ClusterConfig::default())
}

/// Runs the experiment with `base`'s engine knobs under the figure's own
/// cluster; the recorded numbers are identical across knob settings.
pub fn run_with(scale: Scale, base: &ClusterConfig) -> Table {
    let n_docs = scale.pick(40, 200);
    let steps = scale.pick(3, 8);

    let docs = generate_documents(
        &DocumentSpec {
            n_docs,
            vocab: 250,
            token_skew: 1.1,
            length: SizeDistribution::Uniform { lo: 10, hi: 120 },
        },
        19,
    );
    let corpus_bytes: u64 = docs.iter().map(|d| d.size_bytes()).sum();

    let cluster = ClusterConfig {
        workers: 16,
        task_overhead: 0.005,
        ..base.clone()
    };

    let mut table = Table::new(
        "Figure 5 — similarity join: schema vs pair-per-reducer",
        &[
            "q",
            "strategy",
            "reducers",
            "comm_bytes",
            "comm_x_corpus",
            "rep_rate",
            "makespan_s",
            "pairs",
        ],
    );

    // Baseline once (it ignores q beyond feasibility).
    let baseline = run_similarity_join(
        &docs,
        &SimJoinConfig {
            capacity: corpus_bytes, // ample
            threshold: 0.3,
            strategy: SimJoinStrategy::PairPerReducer,
            cluster: cluster.clone(),
        },
    )
    .expect("baseline runs");
    table.push_row(&[
        &"-",
        &"pair-per-reducer",
        &baseline.schema_stats.reducers,
        &baseline.metrics.bytes_shuffled,
        &format!(
            "{:.1}",
            baseline.metrics.bytes_shuffled as f64 / corpus_bytes as f64
        ),
        &format!("{:.2}", baseline.schema_stats.replication_rate()),
        &format!("{:.3}", baseline.metrics.total_seconds()),
        &baseline.pairs.len(),
    ]);

    let q_lo = 2 * docs.iter().map(|d| d.size_bytes()).max().unwrap();
    for q in geometric_steps(q_lo, corpus_bytes, steps) {
        let result = run_similarity_join(
            &docs,
            &SimJoinConfig {
                capacity: q,
                threshold: 0.3,
                strategy: SimJoinStrategy::Schema(A2aAlgorithm::Auto),
                cluster: cluster.clone(),
            },
        )
        .expect("schema join runs");
        assert_eq!(
            result.pairs.len(),
            baseline.pairs.len(),
            "the answer must not depend on q"
        );
        table.push_row(&[
            &q,
            &"schema",
            &result.schema_stats.reducers,
            &result.metrics.bytes_shuffled,
            &format!(
                "{:.1}",
                result.metrics.bytes_shuffled as f64 / corpus_bytes as f64
            ),
            &format!("{:.2}", result.schema_stats.replication_rate()),
            &format!("{:.3}", result.metrics.total_seconds()),
            &result.pairs.len(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_answer_is_capacity_invariant() {
        let table = run(Scale::Smoke);
        let pairs: Vec<u64> = table
            .render()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(pairs.windows(2).all(|w| w[0] == w[1]), "{pairs:?}");
    }

    #[test]
    fn smoke_schema_always_cheaper_than_baseline() {
        let table = run(Scale::Smoke);
        let comm: Vec<u64> = table
            .render()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().nth(3).unwrap().parse().unwrap())
            .collect();
        let baseline = comm[0];
        assert!(comm[1..].iter().all(|&c| c < baseline), "{comm:?}");
    }
}
