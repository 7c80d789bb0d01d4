//! The marginals workload: two chained MapReduce rounds on the DAG.
//!
//! From "Computing Marginals Using MapReduce" (Afrati, Sharma, Ullman):
//! given a fact table with `d` dimensions and a measure, a **marginal**
//! fixes a subset of dimensions to *all* (drops them) and sums the measure
//! over the rest. Rather than one round per marginal order, marginals
//! chain: the second-order marginal dropping `{a, b}` is the sum of the
//! first-order marginal dropping `a` over dimension `b`'s coordinate. This
//! module runs exactly that chain as a [`StageGraph`]:
//!
//! ```text
//!   cube ──► first-order ══► second-order ──► collect
//!                      (streamed edge)
//! ```
//!
//! * **first-order** — one engine round: each row emits `d` pairs, one per
//!   dropped dimension, with a sum combiner;
//! * **second-order** — a second round over the first round's *output*:
//!   the marginal that dropped `a` re-aggregates over each remaining
//!   dimension `b > a`. Requiring `b > a` gives every pair `{a, b}` exactly
//!   one provenance, so nothing is double-counted. The edge between the
//!   rounds is a **streamed edge** ([`StageGraph::streamed_stage`]): round
//!   1 hands each finalized reduce partition to round 2's stage as it
//!   commits, instead of materializing the full intermediate first —
//!   [`crate::StageMetrics::stream_batches_early`] records how many
//!   partitions crossed before round 1 finished;
//! * **collect** — a pure transform joining both rounds' outputs into one
//!   canonically sorted list (no engine work).
//!
//! The second-order stage is also **cache-marked**
//! ([`StageGraph::mark_cached`]): submitted to a
//! [`crate::JobServer::with_stage_cache`] server, a repeat of the same
//! cube under the same configs is served from the intermediate store and
//! only re-runs `collect`.
//!
//! Each round carries its own [`ClusterConfig`], so shuffle mode, memory
//! budget, fault plan, retries, and DLQ mode are all
//! **per-stage** knobs. [`run_marginals_chained`] is the hand-chained
//! referee: the same two `Job::run` calls without the DAG machinery,
//! wrapped under the same stage names — the differential harness pins the
//! DAG output bit-identical to it across every execution mode.

use std::collections::BTreeMap;

use mrassign_simmr::{
    fold_hash, input_content_hash, job_semantic_hash, ByteSized, CapacityPolicy, ClusterConfig,
    Emitter, HashRouter, Job, JobMetrics, Mapper, Reducer, SpillCodec,
};
use mrassign_workloads::cube::CubeTuple;

use crate::graph::{DagError, DagOutput, StageDlqEntry, StageGraph, StageHandle, StreamTx};

/// A fact row inside the engine: the [`CubeTuple`] fields plus the byte
/// accounting the engine requires of its input records.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CubeRow {
    /// Coordinate per dimension.
    pub coords: Vec<u32>,
    /// The measure being aggregated.
    pub measure: u64,
}

impl From<&CubeTuple> for CubeRow {
    fn from(t: &CubeTuple) -> Self {
        CubeRow {
            coords: t.coords.clone(),
            measure: t.measure,
        }
    }
}

impl ByteSized for CubeRow {
    fn size_bytes(&self) -> u64 {
        self.coords.size_bytes() + self.measure.size_bytes()
    }
}

/// Intermediate key of both rounds: which dimensions are dropped
/// (ascending) and the coordinates of the remaining dimensions in
/// original dimension order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MKey {
    /// Dropped dimension indices, ascending.
    pub dropped: Vec<u8>,
    /// Coordinates of the dimensions that remain.
    pub coords: Vec<u32>,
}

impl ByteSized for MKey {
    fn size_bytes(&self) -> u64 {
        self.dropped.size_bytes() + self.coords.size_bytes()
    }
}

impl SpillCodec for MKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dropped.encode(buf);
        self.coords.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let dropped = Vec::<u8>::decode(bytes)?;
        let coords = Vec::<u32>::decode(bytes)?;
        Some(MKey { dropped, coords })
    }
}

/// One computed marginal: the dropped dimensions, the remaining
/// coordinates, and the summed measure. Round 1 outputs these *and* round
/// 2 consumes them as inputs, which is why the type also carries byte
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Marginal {
    /// Dropped dimension indices, ascending.
    pub dropped: Vec<u8>,
    /// Coordinates of the dimensions that remain.
    pub coords: Vec<u32>,
    /// Sum of the measure over the dropped dimensions.
    pub total: u64,
}

impl ByteSized for Marginal {
    fn size_bytes(&self) -> u64 {
        self.dropped.size_bytes() + self.coords.size_bytes() + self.total.size_bytes()
    }
}

// Reducer outputs must be codec-able so a `checkpoint_dir` can persist
// and resume finalized partitions.
impl SpillCodec for Marginal {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.dropped.encode(buf);
        self.coords.encode(buf);
        self.total.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let dropped = Vec::<u8>::decode(bytes)?;
        let coords = Vec::<u32>::decode(bytes)?;
        let total = u64::decode(bytes)?;
        Some(Marginal {
            dropped,
            coords,
            total,
        })
    }
}

/// Round-1 mapper: each row contributes to `dims` first-order marginals.
struct FirstOrderMapper {
    dims: usize,
}

impl Mapper for FirstOrderMapper {
    type In = CubeRow;
    type Key = MKey;
    type Value = u64;

    fn map(&self, row: &CubeRow, emit: &mut Emitter<MKey, u64>) {
        debug_assert_eq!(row.coords.len(), self.dims);
        for a in 0..self.dims {
            let mut coords = row.coords.clone();
            coords.remove(a);
            emit.emit(
                MKey {
                    dropped: vec![a as u8],
                    coords,
                },
                row.measure,
            );
        }
    }

    fn combine(&self, _key: &MKey, values: &[u64]) -> Option<u64> {
        Some(values.iter().sum())
    }
}

/// Round-2 mapper: the first-order marginal that dropped `a` feeds every
/// second-order marginal `{a, b}` with `b > a` — the drop-minimum parent
/// rule that gives each pair a unique provenance.
struct SecondOrderMapper {
    dims: usize,
}

impl Mapper for SecondOrderMapper {
    type In = Marginal;
    type Key = MKey;
    type Value = u64;

    fn map(&self, marginal: &Marginal, emit: &mut Emitter<MKey, u64>) {
        debug_assert_eq!(marginal.dropped.len(), 1, "round 2 consumes round 1");
        debug_assert_eq!(marginal.coords.len(), self.dims - 1);
        let a = marginal.dropped[0] as usize;
        for (p, _) in marginal.coords.iter().enumerate() {
            // Position `p` holds the coordinate of original dimension
            // `p` (if p < a) or `p + 1` (if p >= a, shifted past the
            // dropped one).
            let original = if p < a { p } else { p + 1 };
            if original <= a {
                continue;
            }
            let mut coords = marginal.coords.clone();
            coords.remove(p);
            emit.emit(
                MKey {
                    dropped: vec![a as u8, original as u8],
                    coords,
                },
                marginal.total,
            );
        }
    }

    fn combine(&self, _key: &MKey, values: &[u64]) -> Option<u64> {
        Some(values.iter().sum())
    }
}

/// Both rounds reduce the same way: sum the partial totals for one key.
struct SumReducer;

impl Reducer for SumReducer {
    type Key = MKey;
    type Value = u64;
    type Out = Marginal;

    fn reduce(&self, key: &MKey, values: &[u64], out: &mut Vec<Marginal>) {
        out.push(Marginal {
            dropped: key.dropped.clone(),
            coords: key.coords.clone(),
            total: values.iter().sum(),
        });
    }
}

/// Configuration of the two marginals rounds. Every engine knob is
/// per-round: the rounds may run under different shuffle modes, budgets,
/// and fault plans within one DAG.
#[derive(Debug, Clone)]
pub struct MarginalsConfig {
    /// Dimensions of the fact table (at least 2).
    pub dims: usize,
    /// Reducer count of the first-order round.
    pub first_reducers: usize,
    /// Reducer count of the second-order round.
    pub second_reducers: usize,
    /// Engine configuration of the first-order round.
    pub first_cluster: ClusterConfig,
    /// Engine configuration of the second-order round.
    pub second_cluster: ClusterConfig,
}

impl Default for MarginalsConfig {
    fn default() -> Self {
        MarginalsConfig {
            dims: 3,
            first_reducers: 8,
            second_reducers: 8,
            first_cluster: ClusterConfig::default(),
            second_cluster: ClusterConfig::default(),
        }
    }
}

/// Canonical output order shared by the DAG run, the chained referee, and
/// the oracle: (dropped set, remaining coordinates).
fn sort_marginals(marginals: &mut [Marginal]) {
    marginals.sort_by(|x, y| {
        (&x.dropped, &x.coords)
            .cmp(&(&y.dropped, &y.coords))
            .then(x.total.cmp(&y.total))
    });
}

/// Builds the marginals [`StageGraph`] over `tuples` and returns it with
/// the handle of the `collect` sink stage (all first- and second-order
/// marginals, canonically sorted).
///
/// # Panics
/// If `cfg.dims < 2`, `cfg.dims > 255` (dropped sets are `u8` indices), or
/// any tuple's coordinate count differs from `cfg.dims`.
pub fn marginals_graph(
    tuples: &[CubeTuple],
    cfg: &MarginalsConfig,
) -> (StageGraph, StageHandle<Vec<Marginal>>) {
    assert!(cfg.dims >= 2, "marginals chain needs at least 2 dimensions");
    assert!(cfg.dims <= 255, "dimension indices are u8");
    assert!(
        tuples.iter().all(|t| t.coords.len() == cfg.dims),
        "every tuple must have exactly cfg.dims coordinates"
    );
    let rows: Vec<CubeRow> = tuples.iter().map(CubeRow::from).collect();

    let mut graph = StageGraph::new();
    // Content-hashed source: the root of the stage-key chain, so two
    // submissions over byte-identical cubes derive identical stage keys.
    let rows_key = input_content_hash(rows.iter());
    let cube = graph.source_hashed("cube", rows, rows_key);

    let first_job = Job::new(
        FirstOrderMapper { dims: cfg.dims },
        SumReducer,
        HashRouter::new(),
        cfg.first_reducers,
        cfg.first_cluster.clone(),
    );
    let second_job = Job::new(
        SecondOrderMapper { dims: cfg.dims },
        SumReducer,
        HashRouter::new(),
        cfg.second_reducers,
        cfg.second_cluster.clone(),
    );

    // Per-round key material: the engine's semantic job fingerprint plus
    // the dimension count (which parameterizes the mappers).
    let first_seed = fold_hash(
        job_semantic_hash(
            &cfg.first_cluster,
            cfg.first_reducers,
            &CapacityPolicy::Unlimited,
            "marginals/first-order",
        ),
        cfg.dims as u64,
    );
    let second_seed = fold_hash(
        job_semantic_hash(
            &cfg.second_cluster,
            cfg.second_reducers,
            &CapacityPolicy::Unlimited,
            "marginals/second-order",
        ),
        cfg.dims as u64,
    );

    // Streamed edge: round 1 pushes each finalized partition into the
    // channel as it commits; round 2's stage reconstructs the first-order
    // marginals from the stream (bit-identical to the materialized list)
    // and runs the second round over them.
    let orders = graph.streamed_stage(
        "first-order",
        "second-order",
        &cube,
        Some(first_seed),
        move |ctx, rows: &Vec<CubeRow>, tx: &StreamTx<Marginal>| {
            ctx.run_job_streamed(&first_job, rows, tx).map(|_| ())
        },
        move |ctx, (), firsts: Vec<Marginal>| {
            let seconds = ctx.run_job(&second_job, &firsts)?;
            Ok((firsts, seconds))
        },
    );
    graph.mark_cached(
        &orders,
        second_seed,
        |out: &(Vec<Marginal>, Vec<Marginal>)| {
            out.0
                .iter()
                .chain(out.1.iter())
                .map(ByteSized::size_bytes)
                .sum()
        },
    );

    let collect = graph.stage(
        "collect",
        &orders,
        |_ctx, (firsts, seconds): &(Vec<Marginal>, Vec<Marginal>)| {
            let mut all = Vec::with_capacity(firsts.len() + seconds.len());
            all.extend(firsts.iter().cloned());
            all.extend(seconds.iter().cloned());
            sort_marginals(&mut all);
            Ok(all)
        },
    );
    (graph, collect)
}

/// Runs the marginals DAG on a private single-thread pool.
pub fn run_marginals_dag(
    tuples: &[CubeTuple],
    cfg: &MarginalsConfig,
) -> Result<DagOutput<Vec<Marginal>>, DagError> {
    let (graph, sink) = marginals_graph(tuples, cfg);
    graph.run(&sink)
}

/// What the hand-chained referee returns: the same canonical marginal
/// list, plus each round's engine metrics and stage-attributed DLQ for the
/// differential comparison.
#[derive(Debug, Clone)]
pub struct MarginalsRun {
    /// All first- and second-order marginals, canonically sorted.
    pub marginals: Vec<Marginal>,
    /// Engine metrics of the `first-order` then `second-order` rounds.
    pub round_metrics: Vec<JobMetrics>,
    /// Dead-letter entries attributed to the round that dropped them.
    pub dlq: Vec<StageDlqEntry>,
}

/// The hand-chained referee: the same two `Job::run` calls wired by hand,
/// with failures wrapped under the same stage names the DAG uses — so
/// `Err` results compare equal between the two paths too.
pub fn run_marginals_chained(
    tuples: &[CubeTuple],
    cfg: &MarginalsConfig,
) -> Result<MarginalsRun, DagError> {
    assert!(cfg.dims >= 2, "marginals chain needs at least 2 dimensions");
    assert!(cfg.dims <= 255, "dimension indices are u8");
    let rows: Vec<CubeRow> = tuples.iter().map(CubeRow::from).collect();

    let first_job = Job::new(
        FirstOrderMapper { dims: cfg.dims },
        SumReducer,
        HashRouter::new(),
        cfg.first_reducers,
        cfg.first_cluster.clone(),
    );
    let first = first_job.run(&rows).map_err(|source| DagError::Stage {
        stage: "first-order".to_string(),
        source,
    })?;

    let second_job = Job::new(
        SecondOrderMapper { dims: cfg.dims },
        SumReducer,
        HashRouter::new(),
        cfg.second_reducers,
        cfg.second_cluster.clone(),
    );
    let second = second_job
        .run(&first.outputs)
        .map_err(|source| DagError::Stage {
            stage: "second-order".to_string(),
            source,
        })?;

    let mut marginals = Vec::with_capacity(first.outputs.len() + second.outputs.len());
    marginals.extend(first.outputs.iter().cloned());
    marginals.extend(second.outputs.iter().cloned());
    sort_marginals(&mut marginals);

    let dlq = first
        .dlq
        .iter()
        .map(|entry| StageDlqEntry {
            stage: "first-order".to_string(),
            entry: entry.clone(),
        })
        .chain(second.dlq.iter().map(|entry| StageDlqEntry {
            stage: "second-order".to_string(),
            entry: entry.clone(),
        }))
        .collect();

    Ok(MarginalsRun {
        marginals,
        round_metrics: vec![first.metrics, second.metrics],
        dlq,
    })
}

/// Brute-force oracle: every first- and second-order marginal computed by
/// direct accumulation, in the same canonical order.
pub fn marginals_oracle(tuples: &[CubeTuple], dims: usize) -> Vec<Marginal> {
    let mut acc: BTreeMap<(Vec<u8>, Vec<u32>), u64> = BTreeMap::new();
    for t in tuples {
        for a in 0..dims {
            let mut coords_a = t.coords.clone();
            coords_a.remove(a);
            *acc.entry((vec![a as u8], coords_a.clone())).or_insert(0) += t.measure;
            for b in (a + 1)..dims {
                let mut coords_ab = coords_a.clone();
                // `b` shifted down by one because `a < b` was removed.
                coords_ab.remove(b - 1);
                *acc.entry((vec![a as u8, b as u8], coords_ab)).or_insert(0) += t.measure;
            }
        }
    }
    acc.into_iter()
        .map(|((dropped, coords), total)| Marginal {
            dropped,
            coords,
            total,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrassign_workloads::cube::{generate_cube, CubeSpec};

    fn small_cube() -> Vec<CubeTuple> {
        generate_cube(
            &CubeSpec {
                n_tuples: 400,
                dims: 3,
                cardinality: 5,
                skew: 0.8,
                max_measure: 20,
            },
            11,
        )
    }

    #[test]
    fn dag_matches_oracle() {
        let tuples = small_cube();
        let cfg = MarginalsConfig::default();
        let out = run_marginals_dag(&tuples, &cfg).unwrap();
        assert_eq!(out.output, marginals_oracle(&tuples, cfg.dims));
        assert!(out.dlq.is_empty());
    }

    #[test]
    fn dag_matches_chained_referee() {
        let tuples = small_cube();
        let cfg = MarginalsConfig::default();
        let dag = run_marginals_dag(&tuples, &cfg).unwrap();
        let chained = run_marginals_chained(&tuples, &cfg).unwrap();
        assert_eq!(dag.output, chained.marginals);
        let dag_jobs: Vec<_> = dag
            .metrics
            .stages
            .iter()
            .flat_map(|s| &s.jobs)
            .map(JobMetrics::deterministic)
            .collect();
        let chained_jobs: Vec<_> = chained
            .round_metrics
            .iter()
            .map(JobMetrics::deterministic)
            .collect();
        assert_eq!(dag_jobs, chained_jobs);
    }

    #[test]
    fn checkpointed_rerun_resumes_both_rounds() {
        let tuples = small_cube();
        let fresh = run_marginals_dag(&tuples, &MarginalsConfig::default()).unwrap();

        let base = std::env::temp_dir().join(format!(
            "mrassign-dag-ckpt-marginals-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        // One directory serves both rounds: each job's session lives under
        // its own `job-<fingerprint>/`, and the rounds' job types differ.
        let mut cfg = MarginalsConfig::default();
        cfg.first_cluster.checkpoint_dir = Some(base.clone());
        cfg.second_cluster.checkpoint_dir = Some(base.clone());

        // First checkpointed run: cold — every partition is a miss.
        let cold = run_marginals_dag(&tuples, &cfg).unwrap();
        assert_eq!(cold.output, fresh.output);
        for stage in ["first-order", "second-order"] {
            let job = &cold.metrics.stage(stage).unwrap().jobs[0];
            assert_eq!(job.pipeline.checkpoint_hits, 0, "{stage} cold run");
            assert!(job.pipeline.checkpoint_misses > 0, "{stage} cold run");
        }

        // Re-run against the same base: both rounds replay entirely from
        // their checkpoints (round 1's resumed output is bit-identical,
        // so round 2's fingerprint still matches), bit-identical to the
        // uncheckpointed run.
        let resumed = run_marginals_dag(&tuples, &cfg).unwrap();
        assert_eq!(resumed.output, fresh.output);
        for stage in ["first-order", "second-order"] {
            let job = &resumed.metrics.stage(stage).unwrap().jobs[0];
            assert!(job.pipeline.checkpoint_hits > 0, "{stage} resumed");
            assert_eq!(job.pipeline.checkpoint_misses, 0, "{stage} resumed");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn oracle_totals_are_consistent() {
        let tuples = small_cube();
        let oracle = marginals_oracle(&tuples, 3);
        let grand: u64 = tuples.iter().map(|t| t.measure).sum();
        // Every marginal order partitions the full measure mass: each of
        // the 3 first-order families and each of the 3 second-order
        // families sums to the grand total.
        for dropped in [
            vec![0u8],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
        ] {
            let family: u64 = oracle
                .iter()
                .filter(|m| m.dropped == dropped)
                .map(|m| m.total)
                .sum();
            assert_eq!(family, grand, "family {dropped:?}");
        }
    }

    #[test]
    fn marginal_stage_names_are_recorded() {
        let tuples = small_cube();
        let out = run_marginals_dag(&tuples, &MarginalsConfig::default()).unwrap();
        let names: Vec<&str> = out
            .metrics
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(names, ["first-order", "second-order", "collect"]);
        assert_eq!(out.metrics.stages[0].jobs.len(), 1);
        assert_eq!(out.metrics.stages[2].jobs.len(), 0, "collect is pure");
    }
}
