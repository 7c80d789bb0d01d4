//! Cross-crate integration tests: the facade API, schema→engine execution,
//! and agreement between planner-level and engine-level accounting.

use mrassign::binpack::FitPolicy;
use mrassign::core::{a2a, bounds, exact, stats::SchemaStats, x2y, InputSet, X2yInstance};
use mrassign::dag::marginals::{
    marginals_graph, run_marginals_chained, run_marginals_dag, MarginalsConfig,
};
use mrassign::dag::JobServer;
use mrassign::joins::{
    run_similarity_join, run_skew_join, SimJoinConfig, SimJoinStrategy, SkewJoinConfig,
    SkewJoinStrategy,
};
use mrassign::planner::{plan_a2a, plan_x2y, Plan, PlannerConfig};
use mrassign::simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, FaultPlan, FinalizeMode, Job,
    JobMetrics, Mapper, Reducer, ShuffleMode, SpillCodec,
};
use mrassign::workloads::cube::{generate_cube, CubeSpec};
use mrassign::workloads::{
    generate_documents, generate_relation_pair, DocumentSpec, RelationSpec, SizeDistribution,
};

/// The cluster configuration used by every end-to-end test: the default
/// engine with each `MRASSIGN_<KNOB>` environment variable applied (see
/// [`env_cluster`]). CI runs this suite once per shuffle mode through
/// `MRASSIGN_SHUFFLE`, once more with `MRASSIGN_FINALIZE=stealing`, once
/// under seeded faults (`MRASSIGN_FAULTS`/`MRASSIGN_RETRIES`), once with a
/// tight `MRASSIGN_MEMORY_BUDGET` that forces the spill-to-disk path, and
/// once under `MRASSIGN_CHECKPOINT_DIR=<dir>` so every job checkpoints its
/// finalized partitions (and any job repeated within a test resumes from
/// them); results must be identical every way, which
/// `shuffle_modes_produce_identical_job_output` asserts directly.
fn cluster() -> ClusterConfig {
    env_cluster(std::env::vars()).unwrap_or_else(|e| panic!("{e}"))
}

/// The default cluster with every `MRASSIGN_<KNOB>` variable in `vars`
/// applied, where `<KNOB>` is a name of [`ClusterConfig::KNOBS`] in upper
/// case with `-` as `_`. Any other `MRASSIGN_*` name but
/// `MRASSIGN_STAGE_CACHE` (read by the DAG test) is an error, so a
/// misspelled variable fails the suite instead of quietly re-testing the
/// default engine.
fn env_cluster(vars: impl IntoIterator<Item = (String, String)>) -> Result<ClusterConfig, String> {
    let variable = |knob: &str| format!("MRASSIGN_{}", knob.to_uppercase().replace('-', "_"));
    let mut cluster = ClusterConfig::default();
    for (name, value) in vars {
        if !name.starts_with("MRASSIGN_") || name == "MRASSIGN_STAGE_CACHE" {
            continue;
        }
        let Some(knob) = ClusterConfig::KNOBS
            .into_iter()
            .find(|&k| variable(k) == name)
        else {
            return Err(format!(
                "unknown variable {name} (expected one of {}, or MRASSIGN_STAGE_CACHE)",
                ClusterConfig::KNOBS.map(variable).join(", ")
            ));
        };
        cluster
            .set_knob(knob, &value)
            .map_err(|e| format!("{name}: {e}"))?;
    }
    cluster.validate().map_err(|e| e.to_string())?;
    Ok(cluster)
}

/// Each knob's variable reaches its field, unrelated variables are
/// ignored, and a misspelled or retired `MRASSIGN_*` name, or a bad value,
/// fails by name.
#[test]
fn env_cluster_applies_knob_variables_and_rejects_misspellings() {
    let vars = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(name, value)| (name.to_string(), value.to_string()))
            .collect()
    };
    let cluster = env_cluster(vars(&[
        ("PATH", "/usr/bin"),
        ("MRASSIGN_THREADS", "3"),
        ("MRASSIGN_SHUFFLE", "pipelined"),
        ("MRASSIGN_FINALIZE", "stealing"),
        ("MRASSIGN_RETRIES", "8"),
        ("MRASSIGN_FAULTS", "seed:7,rate:0.05"),
        ("MRASSIGN_MEMORY_BUDGET", "4096"),
        ("MRASSIGN_CHECKPOINT_DIR", "ckpt"),
        ("MRASSIGN_STAGE_CACHE", "4194304"),
    ]))
    .unwrap();
    assert_eq!(
        cluster,
        ClusterConfig {
            map_threads: 3,
            shuffle: ShuffleMode::Pipelined,
            finalize_mode: FinalizeMode::Stealing,
            retry_budget: 8,
            fault_plan: Some(FaultPlan::seeded(7, 0.05)),
            memory_budget: Some(4096),
            checkpoint_dir: Some("ckpt".into()),
            ..ClusterConfig::default()
        }
    );
    assert_eq!(env_cluster(vars(&[])).unwrap(), ClusterConfig::default());
    for typo in [
        "MRASSIGN_SHUFLE",
        "MRASSIGN_MEMORY",
        "MRASSIGN_CHECKPOINT",
        "MRASSIGN_shuffle",
    ] {
        let err = env_cluster(vars(&[(typo, "pipelined")])).unwrap_err();
        assert!(
            err.starts_with(&format!("unknown variable {typo} ")),
            "{err}"
        );
    }
    assert_eq!(
        env_cluster(vars(&[("MRASSIGN_SHUFFLE", "streaming")])).unwrap_err(),
        "MRASSIGN_SHUFFLE: unknown shuffle mode `streaming` (expected materialized|pipelined)"
    );
    let err = env_cluster(vars(&[("MRASSIGN_CHECKPOINT_DIR", "")])).unwrap_err();
    assert!(err.contains("checkpoint_dir"), "{err}");
}

/// One input of a mapping schema's engine job: `bytes` of payload that
/// [`Replicate`] sends, keyed by reducer index, to every reducer in
/// `targets`.
#[derive(Clone, Hash)]
struct Blob {
    bytes: u64,
    targets: Vec<usize>,
}

impl ByteSized for Blob {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

#[derive(Clone)]
struct P(u64);

impl ByteSized for P {
    fn size_bytes(&self) -> u64 {
        self.0
    }
}

impl SpillCodec for P {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(P(u64::decode(bytes)?))
    }
}

struct Replicate;

impl Mapper for Replicate {
    type In = Blob;
    type Key = u64;
    type Value = P;
    fn map(&self, input: &Blob, emit: &mut Emitter<u64, P>) {
        for &t in &input.targets {
            emit.emit(t as u64, P(input.bytes));
        }
    }
}

struct Absorb;

impl Reducer for Absorb {
    type Key = u64;
    type Value = P;
    type Out = ();
    fn reduce(&self, _: &u64, _: &[P], _: &mut Vec<()>) {}
}

/// Executes a mapping schema on the engine under the environment's
/// cluster and `CapacityPolicy::Enforce(q)`: input `i` weighs
/// `weights[i]` and is routed to every reducer whose member list holds
/// `i`.
fn run_schema(weights: &[u64], reducers: &[Vec<u32>], q: u64) -> JobMetrics {
    let mut blobs: Vec<Blob> = weights
        .iter()
        .map(|&bytes| Blob {
            bytes,
            targets: Vec::new(),
        })
        .collect();
    for (rid, members) in reducers.iter().enumerate() {
        for &id in members {
            blobs[id as usize].targets.push(rid);
        }
    }
    Job::new(Replicate, Absorb, DirectRouter, reducers.len(), cluster())
        .capacity(CapacityPolicy::Enforce(q))
        .run(&blobs)
        .unwrap()
        .metrics
}

/// A schema executed on the engine produces reducer loads identical to the
/// schema's own load computation — the two accounting systems agree.
#[test]
fn schema_loads_match_engine_loads() {
    let weights = SizeDistribution::Uniform { lo: 5, hi: 60 }.sample_many(120, 17);
    let inputs = InputSet::from_weights(weights.clone());
    let q = 150;
    let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
    let reducers: Vec<Vec<u32>> = schema.reducers().map(|r| r.to_vec()).collect();
    let metrics = run_schema(&weights, &reducers, q);

    let schema_loads = schema.loads(&inputs);
    assert_eq!(metrics.reducer_value_bytes, schema_loads);
    // Engine communication = schema communication + 8 key bytes per copy.
    let copies: u64 = schema
        .replication(inputs.len())
        .iter()
        .map(|&r| r as u64)
        .sum();
    assert_eq!(
        metrics.bytes_shuffled as u128,
        schema.communication_cost(&inputs) + copies as u128 * 8
    );
}

/// The planner scores each candidate through the engine's cost model
/// without running it; this referee runs it. For every frontier
/// candidate of uniform, Zipf and bimodal A2A workloads and of one X2Y
/// workload, the schema re-solved at the candidate's q and executed on
/// the engine under the environment's cluster reports bit for bit the
/// makespan and speedup the planner scored, and the same max load and
/// reducer count. CI runs this in every engine leg.
#[test]
fn planner_frontier_matches_engine_execution() {
    let config = PlannerConfig {
        cluster: cluster(),
        ..PlannerConfig::default()
    };
    let check = |weights: &[u64], plan: &Plan, solve: &dyn Fn(u64) -> Vec<Vec<u32>>| {
        for c in &plan.frontier {
            let engine = run_schema(weights, &solve(c.q), c.q);
            let q = c.q;
            assert_eq!(
                c.makespan.to_bits(),
                engine.total_seconds().to_bits(),
                "q = {q}"
            );
            assert_eq!(c.speedup.to_bits(), engine.speedup().to_bits(), "q = {q}");
            assert_eq!(c.max_load, engine.max_reducer_load(), "q = {q}");
            assert_eq!(c.reducers, engine.reducers, "q = {q}");
        }
    };

    let dists = [
        SizeDistribution::Uniform { lo: 20, hi: 140 },
        SizeDistribution::Zipf {
            ranks: 100,
            exponent: 1.0,
            max_size: 1_000,
        },
        SizeDistribution::Bimodal {
            small: 40,
            big: 800,
            big_fraction: 0.1,
        },
    ];
    for (seed, dist) in dists.into_iter().enumerate() {
        let weights = dist.sample_many(150, 60 + seed as u64);
        let inputs = InputSet::from_weights(weights.clone());
        let plan = plan_a2a(&weights, &config).unwrap();
        check(&weights, &plan, &|q| {
            let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
            schema.reducers().map(|r| r.to_vec()).collect()
        });
    }

    // The X2Y job's inputs are X then Y: a reducer's members are its X
    // ids followed by its Y ids offset by |X|.
    let x = SizeDistribution::Uniform { lo: 10, hi: 90 }.sample_many(70, 64);
    let y = SizeDistribution::Uniform { lo: 10, hi: 90 }.sample_many(50, 65);
    let inst = X2yInstance::from_weights(x.clone(), y.clone());
    let plan = plan_x2y(&x, &y, &config).unwrap();
    let offset = x.len() as u32;
    check(&[x.clone(), y.clone()].concat(), &plan, &|q| {
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
        schema
            .reducers()
            .map(|r| r.x.iter().copied().chain(r.y.iter().map(|&i| offset + i)))
            .map(Iterator::collect)
            .collect()
    });
}

/// Full pipeline: generate documents → A2A schema → simulated job →
/// verified answer, across several capacities and algorithms.
#[test]
fn similarity_join_pipeline_across_capacities() {
    let docs = generate_documents(
        &DocumentSpec {
            n_docs: 50,
            vocab: 300,
            token_skew: 1.0,
            length: SizeDistribution::Uniform { lo: 8, hi: 40 },
        },
        23,
    );
    let mut reference: Option<usize> = None;
    for q in [400u64, 900, 3_000, 100_000] {
        let result = run_similarity_join(
            &docs,
            &SimJoinConfig {
                capacity: q,
                threshold: 0.25,
                strategy: SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto),
                cluster: cluster(),
            },
        )
        .unwrap();
        match reference {
            None => reference = Some(result.pairs.len()),
            Some(n) => assert_eq!(result.pairs.len(), n, "answer must not depend on q"),
        }
        assert!(result.metrics.max_reducer_load() <= q);
    }
}

/// Full pipeline: skewed relations → per-heavy-hitter X2Y schemas →
/// simulated join → identical answers across all strategies.
#[test]
fn skew_join_strategies_agree() {
    let pair = generate_relation_pair(
        &RelationSpec {
            x_tuples: 1_500,
            y_tuples: 1_500,
            n_keys: 60,
            skew: 1.1,
            payload: SizeDistribution::Uniform { lo: 8, hi: 64 },
        },
        31,
    );
    let cluster = cluster();
    let q = 6_000;

    let skew_aware = run_skew_join(
        &pair,
        &SkewJoinConfig {
            capacity: q,
            strategy: SkewJoinStrategy::SkewAware {
                policy: FitPolicy::FirstFitDecreasing,
            },
            cluster: cluster.clone(),
        },
    )
    .unwrap();
    let hash = run_skew_join(
        &pair,
        &SkewJoinConfig {
            capacity: q,
            strategy: SkewJoinStrategy::NaiveHash { reducers: 24 },
            cluster: cluster.clone(),
        },
    )
    .unwrap();
    let broadcast = run_skew_join(
        &pair,
        &SkewJoinConfig {
            capacity: q,
            strategy: SkewJoinStrategy::BroadcastY { reducers: 24 },
            cluster,
        },
    )
    .unwrap();

    assert_eq!(skew_aware.output, hash.output);
    assert_eq!(skew_aware.output, broadcast.output);
    assert_eq!(
        skew_aware.output.len() as u64,
        pair.expected_join_size(),
        "join size matches the generator's ground truth"
    );
    // The paper's claim in miniature: schemas bound the load, hash does not.
    assert!(skew_aware.metrics.max_reducer_load() <= q);
    assert!(
        hash.metrics.max_reducer_load() > q,
        "skew 1.1 must overload a hash partition at this q"
    );
}

/// X2Y schema solved through the facade validates and respects bounds.
#[test]
fn facade_x2y_roundtrip() {
    let inst = X2yInstance::from_weights(
        SizeDistribution::Uniform { lo: 2, hi: 30 }.sample_many(80, 5),
        SizeDistribution::Uniform { lo: 2, hi: 30 }.sample_many(60, 6),
    );
    let q = 70;
    let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
    schema.validate(&inst, q).unwrap();
    let stats = SchemaStats::for_x2y(&schema, &inst, q);
    assert!(stats.reducers >= bounds::x2y_reducer_lb(&inst, q));
    assert!(stats.communication >= bounds::x2y_comm_lb(&inst, q));
    assert!(stats.max_load <= q);
}

/// Exact solvers, heuristics and bounds are mutually consistent on a batch
/// of deterministic small instances.
#[test]
fn exact_heuristic_bound_sandwich() {
    for seed in 0..10u64 {
        let weights = SizeDistribution::Uniform { lo: 1, hi: 10 }.sample_many(7, seed);
        let inputs = InputSet::from_weights(weights);
        let q = 20;
        let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        let ex = exact::a2a_exact(&inputs, q, 2_000_000).unwrap();
        assert!(ex.optimal, "budget must suffice at m = 7");
        let lb = bounds::a2a_reducer_lb(&inputs, q);
        assert!(
            lb <= ex.schema.reducer_count()
                && ex.schema.reducer_count() <= heuristic.reducer_count(),
            "seed {seed}: LB {lb} ≤ OPT {} ≤ heuristic {}",
            ex.schema.reducer_count(),
            heuristic.reducer_count()
        );
    }
}

/// Acceptance: `ShuffleMode::Materialized` and `ShuffleMode::Pipelined`
/// (under both finalize schedulers) produce identical outputs and
/// deterministic metrics on the real end-to-end pipelines.
#[test]
fn shuffle_modes_produce_identical_job_output() {
    // Pin the shuffle/finalize cells explicitly (this test sweeps them
    // itself) but inherit the fault knobs from the environment, so the CI
    // fault-injection leg also proves cross-mode identity under faults.
    let mode_cluster = |shuffle| ClusterConfig {
        shuffle,
        finalize_mode: FinalizeMode::Static,
        ..cluster()
    };
    let stealing_cluster = || ClusterConfig {
        shuffle: ShuffleMode::Pipelined,
        finalize_mode: FinalizeMode::Stealing,
        map_threads: 4,
        ..cluster()
    };

    // Similarity join over generated documents.
    let docs = generate_documents(
        &DocumentSpec {
            n_docs: 40,
            vocab: 200,
            token_skew: 1.0,
            length: SizeDistribution::Uniform { lo: 8, hi: 40 },
        },
        7,
    );
    let sim = |cluster: ClusterConfig| {
        run_similarity_join(
            &docs,
            &SimJoinConfig {
                capacity: 800,
                threshold: 0.25,
                strategy: SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto),
                cluster,
            },
        )
        .unwrap()
    };
    let sim_mat = sim(mode_cluster(ShuffleMode::Materialized));
    let sim_pipe = sim(mode_cluster(ShuffleMode::Pipelined));
    let sim_steal = sim(stealing_cluster());
    assert_eq!(sim_mat.pairs, sim_pipe.pairs);
    assert_eq!(sim_mat.pairs, sim_steal.pairs);
    // The pipelined engine's overlap counters are execution-dependent by
    // design; everything else must be bit-identical.
    assert_eq!(
        sim_mat.metrics.deterministic(),
        sim_pipe.metrics.deterministic()
    );
    assert_eq!(
        sim_mat.metrics.deterministic(),
        sim_steal.metrics.deterministic()
    );

    // Skew join over a generated relation pair.
    let pair = generate_relation_pair(
        &RelationSpec {
            x_tuples: 800,
            y_tuples: 800,
            n_keys: 50,
            skew: 1.1,
            payload: SizeDistribution::Uniform { lo: 8, hi: 64 },
        },
        13,
    );
    let skew = |cluster: ClusterConfig| {
        run_skew_join(
            &pair,
            &SkewJoinConfig {
                capacity: 6_000,
                strategy: SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
                cluster,
            },
        )
        .unwrap()
    };
    let skew_mat = skew(mode_cluster(ShuffleMode::Materialized));
    let skew_pipe = skew(mode_cluster(ShuffleMode::Pipelined));
    let skew_steal = skew(stealing_cluster());
    assert_eq!(skew_mat.output, skew_pipe.output);
    assert_eq!(skew_mat.output, skew_steal.output);
    assert_eq!(
        skew_mat.metrics.deterministic(),
        skew_pipe.metrics.deterministic()
    );
    assert_eq!(
        skew_mat.metrics.deterministic(),
        skew_steal.metrics.deterministic()
    );
}

/// A chained two-round workload staged on the DAG scheduler, under
/// whatever engine the environment selects (CI re-runs this leg per
/// shuffle mode, under fault injection, and under a tight memory budget):
/// the scheduled graph, the hand-chained referee, and a two-tenant shared
/// pool must all produce bit-identical outputs.
#[test]
fn dag_workload_matches_chain_under_env_cluster() {
    let tuples = generate_cube(
        &CubeSpec {
            n_tuples: 250,
            dims: 3,
            cardinality: 6,
            skew: 0.9,
            max_measure: 30,
        },
        47,
    );
    let cfg = MarginalsConfig {
        dims: 3,
        first_cluster: cluster(),
        second_cluster: cluster(),
        ..MarginalsConfig::default()
    };
    let dag = run_marginals_dag(&tuples, &cfg).unwrap();
    let chained = run_marginals_chained(&tuples, &cfg).unwrap();
    assert_eq!(dag.output, chained.marginals);
    assert_eq!(dag.dlq, chained.dlq);

    // Two tenants sharing one two-worker pool see the same bytes. With
    // MRASSIGN_STAGE_CACHE set (the CI cached leg), the server also keeps
    // a fingerprint-keyed intermediate store of that many bytes.
    let stage_cache: Option<u64> = std::env::var("MRASSIGN_STAGE_CACHE")
        .ok()
        .filter(|v| !v.is_empty())
        .map(|v| {
            v.parse()
                .expect("MRASSIGN_STAGE_CACHE must be a byte count")
        });
    let server = match stage_cache {
        Some(bytes) => JobServer::with_stage_cache(2, bytes),
        None => JobServer::new(2),
    };
    let (g1, s1) = marginals_graph(&tuples, &cfg);
    let (g2, s2) = marginals_graph(&tuples, &cfg);
    let h1 = server.submit("alice", 1, g1, &s1);
    let h2 = server.submit("bob", -1, g2, &s2);
    let cold = h1.join().unwrap();
    assert_eq!(cold.output, chained.marginals);
    assert_eq!(h2.join().unwrap().output, chained.marginals);

    // A repeat submission after the concurrent pair has completed must be
    // served from the store when one is configured (capacities in CI are
    // generous enough for one marginals entry) — bit-identically, running
    // strictly fewer stages.
    if stage_cache.is_some() {
        let (g3, s3) = marginals_graph(&tuples, &cfg);
        let warm = server.submit("alice", 1, g3, &s3).join().unwrap();
        assert_eq!(warm.output, chained.marginals);
        assert_eq!(warm.dlq, chained.dlq);
        assert!(warm.metrics.cache_hits > 0, "repeat must hit the store");
        assert!(warm.metrics.stages.len() < cold.metrics.stages.len());
        let stats = server.stage_cache_stats().expect("cached server");
        assert!(stats.hits > 0);
    }
    server.shutdown();
}

/// Acceptance: `plan_a2a`/`plan_x2y` output is identical across
/// `threads ∈ {1, 2, 8}`.
#[test]
fn planner_output_identical_across_thread_counts() {
    let weights = SizeDistribution::Uniform { lo: 20, hi: 140 }.sample_many(150, 41);
    let config = |threads| PlannerConfig {
        threads,
        candidates: 12,
        cluster: cluster(),
        ..PlannerConfig::default()
    };
    let a2a_ref = plan_a2a(&weights, &config(1)).unwrap();
    for threads in [2, 8] {
        assert_eq!(a2a_ref, plan_a2a(&weights, &config(threads)).unwrap());
    }

    let x = SizeDistribution::Uniform { lo: 10, hi: 60 }.sample_many(80, 42);
    let y = SizeDistribution::Uniform { lo: 10, hi: 60 }.sample_many(50, 43);
    let x2y_ref = plan_x2y(&x, &y, &config(1)).unwrap();
    for threads in [2, 8] {
        assert_eq!(x2y_ref, plan_x2y(&x, &y, &config(threads)).unwrap());
    }
}

/// The facade's re-exports expose a coherent public API (compile check).
#[test]
fn facade_reexports_compile() {
    let _ = mrassign::binpack::FitPolicy::ALL;
    let _ = mrassign::simmr::ClusterConfig::default();
    let _ = mrassign::core::MappingSchema::new();
    let _ = mrassign::workloads::SizeDistribution::Constant(1);
    let _: Option<mrassign::joins::JoinError> = None;
}
