//! The DAG differential harness: every DAG workload's final output must be
//! bit-identical to the hand-chained `Job::run` sequence, in every engine
//! cell — mirroring the `exec_modes` referee pattern one level up.
//!
//! Matrix: `{Materialized, Pipelined × {static, stealing}}` ×
//! map threads `{1, 2, 4}` × `{unbounded, tight}` memory budget (the tight
//! budget only in pipelined cells, where the out-of-core spill path
//! exists), plus the seeded fault sweep and stage-naming error cases. In
//! each cell both rounds of both workloads (marginals, skew join) run with
//! the cell's `ClusterConfig`, once through the [`StageGraph`] scheduler
//! and once chained by hand — outputs, deterministic metrics, DLQs, and
//! errors must agree exactly.

use mrassign_dag::marginals::{
    marginals_graph, marginals_oracle, run_marginals_chained, run_marginals_dag, MarginalsConfig,
};
use mrassign_dag::{DagError, JobServer, STREAM_DEPTH};
use mrassign_joins::{
    run_skew_join, run_skew_join_chained, run_skew_join_dag, skew_join_graph, SkewDagConfig,
};
use mrassign_joins::{SkewJoinConfig, SkewJoinStrategy};
use mrassign_simmr::{
    ClusterConfig, DlqMode, FaultPlan, FinalizeMode, JobMetrics, ShuffleMode, SimError,
};
use mrassign_workloads::cube::{generate_cube, CubeSpec, CubeTuple};
use mrassign_workloads::{generate_relation_pair, RelationPair, RelationSpec, SizeDistribution};

const CELLS: [(ShuffleMode, FinalizeMode); 3] = [
    (ShuffleMode::Materialized, FinalizeMode::Static),
    (ShuffleMode::Pipelined, FinalizeMode::Static),
    (ShuffleMode::Pipelined, FinalizeMode::Stealing),
];
const THREADS: [usize; 3] = [1, 2, 4];

/// Small enough that both workloads' shuffles overflow it, so budgeted
/// cells exercise the spill path rather than vacuously passing.
const TIGHT_BUDGET: u64 = 256;

fn cluster(
    mode: ShuffleMode,
    finalize: FinalizeMode,
    threads: usize,
    budget: Option<u64>,
) -> ClusterConfig {
    ClusterConfig {
        shuffle: mode,
        map_threads: threads,
        finalize_mode: finalize,
        memory_budget: budget,
        ..ClusterConfig::default()
    }
}

/// Budgets to sweep in a cell: the tight budget exists only where the
/// out-of-core path does (the pipelined shuffle).
fn budgets(mode: ShuffleMode) -> &'static [Option<u64>] {
    if mode == ShuffleMode::Pipelined {
        &[None, Some(TIGHT_BUDGET)]
    } else {
        &[None]
    }
}

fn small_cube() -> Vec<CubeTuple> {
    generate_cube(
        &CubeSpec {
            n_tuples: 300,
            dims: 3,
            cardinality: 5,
            skew: 0.9,
            max_measure: 25,
        },
        17,
    )
}

fn skewed_pair() -> RelationPair {
    generate_relation_pair(
        &RelationSpec {
            x_tuples: 350,
            y_tuples: 350,
            n_keys: 25,
            skew: 1.1,
            payload: SizeDistribution::Uniform { lo: 8, hi: 40 },
        },
        21,
    )
}

fn marginals_cfg(cell: ClusterConfig) -> MarginalsConfig {
    MarginalsConfig {
        dims: 3,
        first_reducers: 7,
        second_reducers: 5,
        first_cluster: cell.clone(),
        second_cluster: cell,
    }
}

fn skew_cfg(cell: ClusterConfig) -> SkewDagConfig {
    SkewDagConfig {
        capacity: 4_000,
        stats_reducers: 6,
        stats_cluster: cell.clone(),
        join_cluster: cell,
        ..SkewDagConfig::default()
    }
}

fn deterministic(jobs: &[JobMetrics]) -> Vec<impl PartialEq + std::fmt::Debug + '_> {
    jobs.iter().map(JobMetrics::deterministic).collect()
}

#[test]
fn marginals_dag_matches_chain_in_every_cell() {
    let tuples = small_cube();
    let oracle = marginals_oracle(&tuples, 3);
    let reference = run_marginals_chained(
        &tuples,
        &marginals_cfg(cluster(CELLS[0].0, CELLS[0].1, 1, None)),
    )
    .unwrap();
    assert_eq!(reference.marginals, oracle, "referee vs brute force");

    for (mode, finalize) in CELLS {
        for threads in THREADS {
            for &budget in budgets(mode) {
                let label = format!("{mode:?}/{finalize:?} × threads={threads} × {budget:?}");
                let cfg = marginals_cfg(cluster(mode, finalize, threads, budget));
                let dag = run_marginals_dag(&tuples, &cfg).unwrap();
                let chained = run_marginals_chained(&tuples, &cfg).unwrap();
                assert_eq!(dag.output, chained.marginals, "{label}: dag vs chain");
                assert_eq!(dag.output, oracle, "{label}: dag vs oracle");
                let dag_jobs: Vec<JobMetrics> = dag
                    .metrics
                    .stages
                    .iter()
                    .flat_map(|s| s.jobs.iter().cloned())
                    .collect();
                assert_eq!(
                    deterministic(&dag_jobs),
                    deterministic(&chained.round_metrics),
                    "{label}: round metrics"
                );
                assert_eq!(dag.dlq, chained.dlq, "{label}: dlq");
            }
        }
    }
}

#[test]
fn skew_join_dag_matches_chain_in_every_cell() {
    let pair = skewed_pair();
    // Reference: the single-round skew-aware path on the default cluster.
    let single = run_skew_join(
        &pair,
        &SkewJoinConfig {
            capacity: 4_000,
            strategy: SkewJoinStrategy::SkewAware {
                policy: SkewDagConfig::default().policy,
            },
            cluster: ClusterConfig::default(),
        },
    )
    .unwrap();
    assert!(single.heavy_keys > 0, "skew 1.1 must create heavy hitters");

    for (mode, finalize) in CELLS {
        for threads in THREADS {
            for &budget in budgets(mode) {
                let label = format!("{mode:?}/{finalize:?} × threads={threads} × {budget:?}");
                let cfg = skew_cfg(cluster(mode, finalize, threads, budget));
                let dag = run_skew_join_dag(&pair, &cfg).unwrap();
                let (chained, chained_dlq) = run_skew_join_chained(&pair, &cfg).unwrap();
                assert_eq!(dag.output.output, chained.output, "{label}: dag vs chain");
                assert_eq!(dag.output.output, single.output, "{label}: dag vs 1-round");
                assert_eq!(dag.output.heavy_keys, single.heavy_keys, "{label}");
                assert_eq!(dag.output.reducers, single.reducers, "{label}");
                assert_eq!(
                    dag.output.stats_metrics.deterministic(),
                    chained.stats_metrics.deterministic(),
                    "{label}: stats metrics"
                );
                assert_eq!(
                    dag.output.join_metrics.deterministic(),
                    chained.join_metrics.deterministic(),
                    "{label}: join metrics"
                );
                assert_eq!(dag.dlq, chained_dlq, "{label}: dlq");
            }
        }
    }
}

/// The exec_modes seeded fault sweep, one level up: with retry budget 8
/// every injected fault is absorbed, and each cell's DAG output stays
/// bit-identical to the fault-free chained reference.
#[test]
fn faulted_cells_stay_bit_identical() {
    let tuples = small_cube();
    let clean = run_marginals_chained(
        &tuples,
        &marginals_cfg(cluster(
            ShuffleMode::Materialized,
            FinalizeMode::Static,
            1,
            None,
        )),
    )
    .unwrap();

    for (mode, finalize) in CELLS {
        for threads in THREADS {
            let label = format!("faulted {mode:?}/{finalize:?} × threads={threads}");
            let faulted = ClusterConfig {
                retry_budget: 8,
                fault_plan: Some(FaultPlan::seeded(23, 0.2)),
                ..cluster(mode, finalize, threads, None)
            };
            let cfg = marginals_cfg(faulted);
            let dag = run_marginals_dag(&tuples, &cfg).unwrap();
            assert_eq!(dag.output, clean.marginals, "{label}: outputs");
            assert!(dag.dlq.is_empty(), "{label}: budget 8 absorbs every fault");
            let retries: u64 = dag
                .metrics
                .stages
                .iter()
                .flat_map(|s| &s.jobs)
                .map(|j| j.faults.retries())
                .sum();
            assert!(retries > 0, "{label}: seed 23 at rate 0.2 must fire");
        }
    }
}

/// Per-stage fault plans compose: a poison task in round 2 only. Under
/// `DlqMode::Capture` the dropped task is dead-lettered under the *second*
/// round's stage name; under `DlqMode::Fail` the error names that stage —
/// and the DAG agrees with the chain in both regimes.
#[test]
fn stage_scoped_faults_name_the_right_stage() {
    let tuples = small_cube();
    let poisoned = |dlq_mode| ClusterConfig {
        fault_plan: Some(FaultPlan {
            poison_reduce_tasks: vec![0],
            ..FaultPlan::default()
        }),
        retry_budget: 1,
        dlq_mode,
        ..ClusterConfig::default()
    };

    // Capture: the job completes, the DLQ entry is attributed to round 2.
    let cfg = MarginalsConfig {
        second_cluster: poisoned(DlqMode::Capture),
        ..marginals_cfg(ClusterConfig::default())
    };
    let dag = run_marginals_dag(&tuples, &cfg).unwrap();
    let chained = run_marginals_chained(&tuples, &cfg).unwrap();
    assert!(!dag.dlq.is_empty(), "poison task must dead-letter");
    assert!(dag.dlq.iter().all(|e| e.stage == "second-order"));
    assert_eq!(dag.dlq, chained.dlq);
    assert_eq!(dag.output, chained.marginals);

    // Fail: the error names round 2, identically on both paths.
    let cfg = MarginalsConfig {
        second_cluster: poisoned(DlqMode::Fail),
        ..marginals_cfg(ClusterConfig::default())
    };
    let dag_err = run_marginals_dag(&tuples, &cfg).unwrap_err();
    let chained_err = run_marginals_chained(&tuples, &cfg).unwrap_err();
    assert_eq!(dag_err, chained_err);
    assert_eq!(dag_err.stage(), "second-order");
    assert!(matches!(
        dag_err,
        DagError::Stage {
            source: SimError::RetriesExhausted { .. },
            ..
        }
    ));
}

/// An invalid knob on round 1 fails the DAG with round 1's name before
/// round 2 ever runs — also bit-identical to the chain.
#[test]
fn first_round_config_errors_name_the_first_stage() {
    let tuples = small_cube();
    let cfg = MarginalsConfig {
        first_cluster: ClusterConfig {
            memory_budget: Some(0),
            ..ClusterConfig::default()
        },
        ..marginals_cfg(ClusterConfig::default())
    };
    let dag_err = run_marginals_dag(&tuples, &cfg).unwrap_err();
    let chained_err = run_marginals_chained(&tuples, &cfg).unwrap_err();
    assert_eq!(dag_err, chained_err);
    assert_eq!(dag_err.stage(), "first-order");
}

/// The cached-vs-cold differential sweep: in every engine cell, a repeat
/// submission of the identical graph to a stage-cached server is served
/// from the intermediate store — `cache_hits > 0`, strictly fewer stages
/// executed — and its output and DLQ are bit-identical to the cold run.
#[test]
fn cached_repeat_is_bit_identical_in_every_cell() {
    let tuples = small_cube();
    let pair = skewed_pair();
    for (mode, finalize) in CELLS {
        for threads in THREADS {
            for &budget in budgets(mode) {
                let label = format!("{mode:?}/{finalize:?} × threads={threads} × {budget:?}");
                let cell = cluster(mode, finalize, threads, budget);

                let server = JobServer::with_stage_cache(2, 1 << 22);
                let mcfg = marginals_cfg(cell.clone());
                let (g, sink) = marginals_graph(&tuples, &mcfg);
                let cold = server.submit("a", 0, g, &sink).join().unwrap();
                let (g, sink) = marginals_graph(&tuples, &mcfg);
                let warm = server.submit("a", 0, g, &sink).join().unwrap();
                assert_eq!(warm.output, cold.output, "{label}: marginals output");
                assert_eq!(warm.dlq, cold.dlq, "{label}: marginals dlq");
                assert_eq!(cold.metrics.cache_hits, 0, "{label}");
                assert_eq!(cold.metrics.cache_misses, 1, "{label}");
                assert!(warm.metrics.cache_hits > 0, "{label}");
                assert_eq!(warm.metrics.cache_misses, 0, "{label}");
                assert!(
                    warm.metrics.stages.len() < cold.metrics.stages.len(),
                    "{label}: served run must execute strictly fewer stages \
                     ({} vs {})",
                    warm.metrics.stages.len(),
                    cold.metrics.stages.len()
                );

                let scfg = skew_cfg(cell);
                let (g, sink) = skew_join_graph(&pair, &scfg);
                let cold = server.submit("a", 0, g, &sink).join().unwrap();
                let (g, sink) = skew_join_graph(&pair, &scfg);
                let warm = server.submit("a", 0, g, &sink).join().unwrap();
                assert_eq!(
                    warm.output.output, cold.output.output,
                    "{label}: join output"
                );
                assert_eq!(warm.dlq, cold.dlq, "{label}: join dlq");
                assert!(warm.metrics.cache_hits > 0, "{label}");
                assert!(
                    warm.metrics.stages.len() < cold.metrics.stages.len(),
                    "{label}: served join run executes fewer stages"
                );

                let stats = server.stage_cache_stats().expect("cached server");
                assert!(stats.hits >= 2, "{label}: both repeats served");
                // Cached work is never billed to the tenant's span.
                let share = &server.fair_share()[0];
                assert_eq!(share.stages_from_cache, stats.hits, "{label}");
            }
        }
    }
}

/// A cached repeat replays the skipped rounds' dead letters: the stored
/// entry carries the producing run's DLQ, so the served submission's
/// `DagOutput` — values *and* DLQ — matches the cold run bit-for-bit.
#[test]
fn cached_repeat_replays_the_dead_letter_queue() {
    let tuples = small_cube();
    let cfg = MarginalsConfig {
        second_cluster: ClusterConfig {
            fault_plan: Some(FaultPlan {
                poison_reduce_tasks: vec![0],
                ..FaultPlan::default()
            }),
            retry_budget: 1,
            dlq_mode: DlqMode::Capture,
            ..ClusterConfig::default()
        },
        ..marginals_cfg(ClusterConfig::default())
    };
    let server = JobServer::with_stage_cache(2, 1 << 22);
    let (g, sink) = marginals_graph(&tuples, &cfg);
    let cold = server.submit("a", 0, g, &sink).join().unwrap();
    assert!(!cold.dlq.is_empty(), "poison task must dead-letter");

    let (g, sink) = marginals_graph(&tuples, &cfg);
    let warm = server.submit("a", 0, g, &sink).join().unwrap();
    assert!(warm.metrics.cache_hits > 0, "repeat must be served");
    assert_eq!(warm.output, cold.output);
    assert_eq!(warm.dlq, cold.dlq, "served run replays the stored DLQ");
}

/// A too-small store degrades to recomputation, never to wrong output:
/// two configs with distinct stage keys but equal payload sizes fight
/// over a one-entry store, so every repeat misses, re-executes, and still
/// matches bit-identically.
#[test]
fn tiny_cache_evicts_and_recomputes_identically() {
    let tuples = small_cube();
    let cfg_a = marginals_cfg(ClusterConfig::default());
    let cfg_b = MarginalsConfig {
        second_reducers: 6,
        ..marginals_cfg(ClusterConfig::default())
    };

    // Measure one entry's stored size on a roomy server.
    let sizing = JobServer::with_stage_cache(1, 1 << 22);
    let (g, sink) = marginals_graph(&tuples, &cfg_a);
    let reference = sizing.submit("a", 0, g, &sink).join().unwrap();
    let entry_bytes = sizing.stage_cache_stats().unwrap().used_bytes;
    assert!(entry_bytes > 0);

    // Both configs compute the same marginals (reducer counts never
    // change results), so their entries have identical stored sizes and
    // a store of exactly one entry thrashes deterministically.
    let server = JobServer::with_stage_cache(2, entry_bytes);
    for cfg in [&cfg_a, &cfg_b, &cfg_a, &cfg_b] {
        let (g, sink) = marginals_graph(&tuples, cfg);
        let out = server.submit("a", 0, g, &sink).join().unwrap();
        assert_eq!(out.output, reference.output, "evicted repeat recomputes");
        assert_eq!(out.metrics.cache_hits, 0, "one-entry store cannot serve");
        assert_eq!(out.metrics.cache_misses, 1);
    }
    let stats = server.stage_cache_stats().unwrap();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 4);
    assert!(stats.evictions >= 3, "alternating keys evict every round");
    assert_eq!(stats.entries, 1, "capacity holds exactly one entry");
}

/// The streamed first→second edge genuinely overlaps the rounds: with
/// `P` nonempty partitions streamed over a depth-[`STREAM_DEPTH`]
/// channel, the consumer must have received at least `P - STREAM_DEPTH`
/// of them before the producer could commit — so `stream_batches_early`
/// has a deterministic positive floor, direct evidence the downstream
/// stage started before the upstream one finished.
#[test]
fn streamed_edge_overlaps_rounds() {
    let tuples = small_cube();
    let cfg = marginals_cfg(ClusterConfig::default());
    let (graph, sink) = marginals_graph(&tuples, &cfg);
    let out = graph.run(&sink).unwrap();
    let second = out.metrics.stage("second-order").expect("consumer ran");
    assert!(second.stream_batches > 0, "partitions crossed the channel");
    let floor = second.stream_batches.saturating_sub(STREAM_DEPTH as u64);
    assert!(
        second.stream_batches_early >= floor,
        "bounded channel forces early consumption: {} early of {} total",
        second.stream_batches_early,
        second.stream_batches
    );
    assert!(
        second.stream_batches_early > 0,
        "7 reducers over a depth-2 channel must overlap"
    );
    // Ordinary stages report no stream traffic.
    let collect = out.metrics.stage("collect").unwrap();
    assert_eq!(collect.stream_batches, 0);
}

/// A `kill-*` fault verdict panics the stage body; the server's pool
/// worker must absorb it — failing that job with the stage's name — and
/// keep serving: the same server then completes a clean job.
#[test]
fn killed_stage_fails_its_job_not_the_pool() {
    let tuples = small_cube();
    let server = JobServer::new(2);

    // Kill in round 1: the panic unwinds out of the producer body on the
    // pool worker itself and is caught there.
    let cfg = MarginalsConfig {
        first_cluster: ClusterConfig {
            fault_plan: Some("kill-reduce:0".parse().unwrap()),
            ..ClusterConfig::default()
        },
        ..marginals_cfg(ClusterConfig::default())
    };
    let (g, sink) = marginals_graph(&tuples, &cfg);
    let err = server.submit("a", 0, g, &sink).join().unwrap_err();
    assert_eq!(err.stage(), "first-order");
    assert!(
        err.to_string().contains("fault injection"),
        "panic text survives: {err}"
    );

    // Kill in round 2: the panic happens on the streamed consumer thread
    // and is reported through the consumer stage.
    let cfg = MarginalsConfig {
        second_cluster: ClusterConfig {
            fault_plan: Some("kill-reduce:0".parse().unwrap()),
            ..ClusterConfig::default()
        },
        ..marginals_cfg(ClusterConfig::default())
    };
    let (g, sink) = marginals_graph(&tuples, &cfg);
    let err = server.submit("a", 0, g, &sink).join().unwrap_err();
    assert_eq!(err.stage(), "second-order");

    // Both panics were absorbed: the same pool still completes clean work.
    let clean = marginals_cfg(ClusterConfig::default());
    let (g, sink) = marginals_graph(&tuples, &clean);
    let out = server.submit("a", 0, g, &sink).join().unwrap();
    assert_eq!(out.output, marginals_oracle(&tuples, 3));
}

/// The stage-pool size never changes results: the same graph on 1, 2, and
/// 4 pool workers (with concurrent-ready sibling stages) is bit-identical.
#[test]
fn pool_size_is_invisible_to_outputs() {
    let tuples = small_cube();
    let cfg = marginals_cfg(ClusterConfig::default());
    let reference = run_marginals_dag(&tuples, &cfg).unwrap();
    for pool in [1usize, 2, 4] {
        let (graph, sink) = mrassign_dag::marginals::marginals_graph(&tuples, &cfg);
        let out = graph.run_on(pool, &sink).unwrap();
        assert_eq!(out.output, reference.output, "pool={pool}");
        assert_eq!(out.dlq, reference.dlq, "pool={pool}");
    }
}
