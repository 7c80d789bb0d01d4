//! The skew join's two rounds staged on the DAG scheduler.
//!
//! [`run_skew_join`](crate::run_skew_join) computes its key statistics
//! inline (a scan over the tagged tuples) before its single engine round.
//! This module is the honest multi-round version: statistics become a
//! MapReduce round of their own, planning becomes a pure transform stage,
//! and the join round consumes the plan — all wired as a [`StageGraph`]:
//!
//! ```text
//!   tuples ──► stats ══► plan ──► join
//!                  (streamed edge)
//! ```
//!
//! * **stats** — one engine round grouping tuple indices by join key and
//!   pruning keys present on only one side (the semi-join pruning);
//! * **plan** — rebuilds the per-key map from the statistics round's
//!   output and runs the *same* `plan_from_per_key` planning code the
//!   single-round path uses: X2Y schemas for heavy hitters, FFD packing
//!   for light keys. The stats→plan edge is **streamed**
//!   ([`StageGraph::streamed_stage`]): each finalized statistics
//!   partition is handed to the plan stage as it commits, and the plan
//!   stage is **cache-marked** ([`StageGraph::mark_cached`]) so a
//!   [`mrassign_dag::JobServer`] with a stage cache serves repeats of the
//!   same pair/config without re-running either round;
//! * **join** — the routed join round under `Enforce(q)`.
//!
//! [`run_skew_join_chained`] is the hand-chained referee: the same rounds
//! executed by hand with failures wrapped under the same stage names, so
//! the differential harness can require bit-identical outputs *and* equal
//! errors between the DAG and the chain.

use mrassign_binpack::FitPolicy;
use mrassign_dag::{
    DagError, DagOutput, StageDlqEntry, StageFailure, StageGraph, StageHandle, StreamTx,
};
use mrassign_simmr::{
    fold_hash, input_content_hash, job_semantic_hash, ByteSized, CapacityPolicy, ClusterConfig,
    DirectRouter, Emitter, HashRouter, Job, JobMetrics, Mapper, Reducer, SpillCodec,
};
use mrassign_workloads::RelationPair;

use crate::skewjoin::{
    plan_from_per_key, tag_pair, JoinReducer, PerKey, RouteMapper, RoutedTuple, TaggedTuple,
};

/// Statistics-round input: a tagged tuple plus its index in the tagged
/// list, so the plan stage can route the original tuples by index.
#[derive(Hash)]
struct IndexedTuple {
    idx: u64,
    tuple: TaggedTuple,
}

impl ByteSized for IndexedTuple {
    fn size_bytes(&self) -> u64 {
        8 + self.tuple.size_bytes()
    }
}

/// Statistics mapper: key = join key, value = (side, tuple index).
struct StatsMapper;

impl Mapper for StatsMapper {
    type In = IndexedTuple;
    type Key = u64;
    type Value = (bool, u64);

    fn map(&self, input: &IndexedTuple, emit: &mut Emitter<u64, (bool, u64)>) {
        emit.emit(input.tuple.b, (input.tuple.is_x, input.idx));
    }
}

/// One joinable key's tuple index lists, both ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyStats {
    b: u64,
    xs: Vec<u64>,
    ys: Vec<u64>,
}

// Reducer outputs must be codec-able so a `checkpoint_dir` can persist
// and resume finalized partitions.
impl SpillCodec for KeyStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.b.encode(buf);
        self.xs.encode(buf);
        self.ys.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let b = u64::decode(bytes)?;
        let xs = Vec::<u64>::decode(bytes)?;
        let ys = Vec::<u64>::decode(bytes)?;
        Some(KeyStats { b, xs, ys })
    }
}

/// Statistics reducer: splits a key's entries by side and prunes keys that
/// cannot produce output (present on one side only).
struct StatsReducer;

impl Reducer for StatsReducer {
    type Key = u64;
    type Value = (bool, u64);
    type Out = KeyStats;

    fn reduce(&self, key: &u64, values: &[(bool, u64)], out: &mut Vec<KeyStats>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &(is_x, idx) in values {
            if is_x {
                xs.push(idx);
            } else {
                ys.push(idx);
            }
        }
        if xs.is_empty() || ys.is_empty() {
            return;
        }
        // Canonical ascending order, independent of shuffle arrival order —
        // this is what makes the rebuilt per-key map equal the inline one.
        xs.sort_unstable();
        ys.sort_unstable();
        out.push(KeyStats { b: *key, xs, ys });
    }
}

/// Output of the statistics stage: the pruned per-key lists plus the
/// round's engine metrics, threaded through so the sink can report them.
struct StatsOut {
    keys: Vec<KeyStats>,
    metrics: JobMetrics,
}

/// Output of the plan stage: routed engine inputs and the plan shape.
struct PlanOut {
    inputs: Vec<RoutedTuple>,
    n_reducers: usize,
    heavy_keys: usize,
    capacity: CapacityPolicy,
    stats_metrics: JobMetrics,
}

/// Configuration of the two-round skew-join DAG. Each round carries its
/// own [`ClusterConfig`], so shuffle mode, memory budget, faults, retries,
/// and DLQ mode are per-stage knobs.
#[derive(Debug, Clone)]
pub struct SkewDagConfig {
    /// Reducer capacity `q` in bytes (join round runs under `Enforce(q)`).
    pub capacity: u64,
    /// Bin-packing policy for schemas and light-key packing.
    pub policy: FitPolicy,
    /// Reducer count of the statistics round.
    pub stats_reducers: usize,
    /// Engine configuration of the statistics round.
    pub stats_cluster: ClusterConfig,
    /// Engine configuration of the join round.
    pub join_cluster: ClusterConfig,
}

impl Default for SkewDagConfig {
    fn default() -> Self {
        SkewDagConfig {
            capacity: 4_096,
            policy: FitPolicy::FirstFitDecreasing,
            stats_reducers: 8,
            stats_cluster: ClusterConfig::default(),
            join_cluster: ClusterConfig::default(),
        }
    }
}

/// What the skew-join DAG's sink stage (and the chained referee) returns.
#[derive(Debug, Clone)]
pub struct SkewJoinRounds {
    /// Join output `(a, b, c)`, sorted, each pair exactly once.
    pub output: Vec<(u64, u64, u64)>,
    /// Number of heavy-hitter keys.
    pub heavy_keys: usize,
    /// Total reducer partitions of the join round.
    pub reducers: usize,
    /// Engine metrics of the statistics round.
    pub stats_metrics: JobMetrics,
    /// Engine metrics of the join round (default when the plan routed
    /// nothing and the round was skipped).
    pub join_metrics: JobMetrics,
}

fn stats_job(cfg: &SkewDagConfig) -> Job<StatsMapper, StatsReducer, HashRouter> {
    Job::new(
        StatsMapper,
        StatsReducer,
        HashRouter::new(),
        cfg.stats_reducers,
        cfg.stats_cluster.clone(),
    )
}

fn index_tuples(tagged: &[TaggedTuple]) -> Vec<IndexedTuple> {
    tagged
        .iter()
        .enumerate()
        .map(|(idx, tuple)| IndexedTuple {
            idx: idx as u64,
            tuple: tuple.clone(),
        })
        .collect()
}

/// Rebuilds the planner's per-key map from the statistics round's output.
fn per_key_from_stats(keys: &[KeyStats]) -> PerKey {
    keys.iter()
        .map(|k| {
            (
                k.b,
                (
                    k.xs.iter().map(|&i| i as usize).collect(),
                    k.ys.iter().map(|&i| i as usize).collect(),
                ),
            )
        })
        .collect()
}

/// The plan stage body, shared by the DAG and the chained referee.
fn plan_stage(
    tagged: &[TaggedTuple],
    stats: &StatsOut,
    cfg: &SkewDagConfig,
) -> Result<PlanOut, StageFailure> {
    let per_key = per_key_from_stats(&stats.keys);
    let (routes, n_reducers, heavy_keys, capacity) =
        plan_from_per_key(tagged, &per_key, cfg.capacity, cfg.policy)
            .map_err(|e| StageFailure::Message(e.to_string()))?;
    let inputs = tagged
        .iter()
        .zip(routes)
        .map(|(tuple, targets)| RoutedTuple {
            tuple: tuple.clone(),
            targets,
        })
        .collect();
    Ok(PlanOut {
        inputs,
        n_reducers,
        heavy_keys,
        capacity,
        stats_metrics: stats.metrics.clone(),
    })
}

/// The join stage body: runs the routed round (or skips it when the plan
/// routed nothing) and assembles the sink value.
fn join_outputs(
    plan: &PlanOut,
    result: Option<mrassign_simmr::JobOutput<(u64, u64, u64)>>,
) -> SkewJoinRounds {
    let (mut output, join_metrics) = match result {
        Some(out) => (out.outputs, out.metrics),
        None => (Vec::new(), JobMetrics::default()),
    };
    output.sort_unstable();
    SkewJoinRounds {
        output,
        heavy_keys: plan.heavy_keys,
        reducers: plan.n_reducers,
        stats_metrics: plan.stats_metrics.clone(),
        join_metrics,
    }
}

fn join_job(
    cfg: &SkewDagConfig,
    n_reducers: usize,
    capacity: CapacityPolicy,
) -> Job<RouteMapper, JoinReducer, DirectRouter> {
    Job::new(
        RouteMapper,
        JoinReducer,
        DirectRouter,
        n_reducers,
        cfg.join_cluster.clone(),
    )
    .capacity(capacity)
}

/// Builds the skew-join [`StageGraph`] over the relation pair and returns
/// it with the handle of the `join` sink stage.
pub fn skew_join_graph(
    pair: &RelationPair,
    cfg: &SkewDagConfig,
) -> (StageGraph, StageHandle<SkewJoinRounds>) {
    let tagged = tag_pair(pair);

    let mut graph = StageGraph::new();
    // Content-hashed source: the root of the stage-key chain, so repeat
    // submissions over a byte-identical pair derive identical stage keys.
    let tagged_key = input_content_hash(tagged.iter());
    let tagged_for_plan = tagged.clone();
    let tuples = graph.source_hashed("tuples", tagged, tagged_key);

    // Per-round key material: the stats round's semantic fingerprint, and
    // the planner knobs (capacity, fit policy) the plan stage folds in.
    let stats_seed = job_semantic_hash(
        &cfg.stats_cluster,
        cfg.stats_reducers,
        &CapacityPolicy::Unlimited,
        "skewjoin/stats",
    );
    let plan_seed = fold_hash(fold_hash(0, cfg.capacity), cfg.policy as u64);

    // Streamed edge: the statistics round pushes each finalized partition
    // to the plan stage as it commits; the plan stage reconstructs the
    // pruned per-key lists from the stream (bit-identical to the
    // materialized output) and plans from them.
    let stats_cfg = cfg.clone();
    let plan_cfg = cfg.clone();
    let plan = graph.streamed_stage(
        "stats",
        "plan",
        &tuples,
        Some(stats_seed),
        move |ctx, tagged: &Vec<TaggedTuple>, tx: &StreamTx<KeyStats>| {
            let out = ctx.run_job_streamed(&stats_job(&stats_cfg), &index_tuples(tagged), tx)?;
            Ok(out.metrics)
        },
        move |_ctx, stats_metrics: JobMetrics, keys: Vec<KeyStats>| {
            let stats = StatsOut {
                keys,
                metrics: stats_metrics,
            };
            plan_stage(&tagged_for_plan, &stats, &plan_cfg)
        },
    );
    graph.mark_cached(&plan, plan_seed, |p: &PlanOut| {
        p.inputs.iter().map(ByteSized::size_bytes).sum()
    });

    let join_cfg = cfg.clone();
    let join = graph.stage("join", &plan, move |ctx, plan: &PlanOut| {
        let result = if plan.n_reducers == 0 {
            None
        } else {
            let job = join_job(&join_cfg, plan.n_reducers, plan.capacity);
            Some(ctx.run_job_full(&job, &plan.inputs)?)
        };
        Ok(join_outputs(plan, result))
    });

    (graph, join)
}

/// Runs the skew-join DAG on a private single-thread pool.
pub fn run_skew_join_dag(
    pair: &RelationPair,
    cfg: &SkewDagConfig,
) -> Result<DagOutput<SkewJoinRounds>, DagError> {
    let (graph, sink) = skew_join_graph(pair, cfg);
    graph.run(&sink)
}

/// The hand-chained referee: the same rounds executed by hand, failures
/// wrapped under the same stage names (`stats`, `plan`, `join`) the DAG
/// uses, plus the stage-attributed DLQ for the differential comparison.
pub fn run_skew_join_chained(
    pair: &RelationPair,
    cfg: &SkewDagConfig,
) -> Result<(SkewJoinRounds, Vec<StageDlqEntry>), DagError> {
    let tagged = tag_pair(pair);

    let stats_out = stats_job(cfg)
        .run(&index_tuples(&tagged))
        .map_err(|source| DagError::Stage {
            stage: "stats".to_string(),
            source,
        })?;
    let mut dlq: Vec<StageDlqEntry> = stats_out
        .dlq
        .iter()
        .map(|entry| StageDlqEntry {
            stage: "stats".to_string(),
            entry: entry.clone(),
        })
        .collect();
    let stats = StatsOut {
        keys: stats_out.outputs,
        metrics: stats_out.metrics,
    };

    let plan = plan_stage(&tagged, &stats, cfg)
        .map_err(|failure| DagError::from_failure("plan", failure))?;

    let result = if plan.n_reducers == 0 {
        None
    } else {
        let job = join_job(cfg, plan.n_reducers, plan.capacity);
        let out = job.run(&plan.inputs).map_err(|source| DagError::Stage {
            stage: "join".to_string(),
            source,
        })?;
        dlq.extend(out.dlq.iter().map(|entry| StageDlqEntry {
            stage: "join".to_string(),
            entry: entry.clone(),
        }));
        Some(out)
    };
    Ok((join_outputs(&plan, result), dlq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skewjoin::{run_skew_join, SkewJoinConfig, SkewJoinStrategy};
    use mrassign_workloads::{generate_relation_pair, RelationSpec, SizeDistribution};

    fn skewed_pair(skew: f64, seed: u64) -> RelationPair {
        generate_relation_pair(
            &RelationSpec {
                x_tuples: 500,
                y_tuples: 500,
                n_keys: 30,
                skew,
                payload: SizeDistribution::Uniform { lo: 8, hi: 40 },
            },
            seed,
        )
    }

    #[test]
    fn dag_matches_single_round_skew_aware() {
        let pair = skewed_pair(1.1, 3);
        let cfg = SkewDagConfig::default();
        let dag = run_skew_join_dag(&pair, &cfg).unwrap();
        let single = run_skew_join(
            &pair,
            &SkewJoinConfig {
                capacity: cfg.capacity,
                strategy: SkewJoinStrategy::SkewAware { policy: cfg.policy },
                cluster: cfg.join_cluster.clone(),
            },
        )
        .unwrap();
        assert_eq!(dag.output.output, single.output);
        assert_eq!(dag.output.heavy_keys, single.heavy_keys);
        assert_eq!(dag.output.reducers, single.reducers);
        assert_eq!(
            dag.output.join_metrics.deterministic(),
            single.metrics.deterministic(),
            "same routed round, same engine accounting"
        );
    }

    #[test]
    fn dag_matches_chained_referee() {
        let pair = skewed_pair(1.0, 7);
        let cfg = SkewDagConfig::default();
        let dag = run_skew_join_dag(&pair, &cfg).unwrap();
        let (chained, chained_dlq) = run_skew_join_chained(&pair, &cfg).unwrap();
        assert_eq!(dag.output.output, chained.output);
        assert_eq!(dag.output.heavy_keys, chained.heavy_keys);
        assert_eq!(
            dag.output.stats_metrics.deterministic(),
            chained.stats_metrics.deterministic()
        );
        assert_eq!(dag.dlq, chained_dlq);
        let names: Vec<&str> = dag
            .metrics
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(names, ["stats", "plan", "join"]);
    }

    #[test]
    fn oversized_tuple_fails_in_plan_stage() {
        let pair = generate_relation_pair(
            &RelationSpec {
                x_tuples: 10,
                y_tuples: 10,
                n_keys: 2,
                skew: 0.0,
                payload: SizeDistribution::Constant(500),
            },
            8,
        );
        let cfg = SkewDagConfig {
            capacity: 100,
            ..SkewDagConfig::default()
        };
        let err = run_skew_join_dag(&pair, &cfg).unwrap_err();
        assert_eq!(err.stage(), "plan");
        let chained_err = run_skew_join_chained(&pair, &cfg).unwrap_err();
        assert_eq!(err, chained_err);
    }

    #[test]
    fn disjoint_keys_skip_the_join_round() {
        let mut pair = skewed_pair(0.0, 9);
        for y in &mut pair.y {
            y.b += 1_000;
        }
        let dag = run_skew_join_dag(&pair, &SkewDagConfig::default()).unwrap();
        assert!(dag.output.output.is_empty());
        assert_eq!(dag.output.reducers, 0);
        let join_stage = dag.metrics.stage("join").unwrap();
        assert!(join_stage.jobs.is_empty(), "no engine round ran");
    }
}
