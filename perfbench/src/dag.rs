//! `dag`: one stage-cached `JobServer` (pool of 2) serving two tenants.
//! One op is one round of four concurrent submissions, all joined before
//! the next round: marginals on a repeated cube (warm) and on a cube the
//! store no longer holds (cold), and a skew join on a repeated relation
//! pair (warm) and on a pair the store no longer holds (cold).
//!
//! Cold inputs cycle through a pool whose combined cached footprint is
//! several times the store's capacity, so LRU eviction runs all along and
//! a pooled input has always been evicted by the time it comes round.

use std::time::Instant;

use mrassign_dag::marginals::{
    marginals_graph, marginals_oracle, run_marginals_chained, run_marginals_dag, Marginal,
    MarginalsConfig,
};
use mrassign_dag::{DagMetrics, DagOutput, JobServer};
use mrassign_joins::{
    run_skew_join_chained, run_skew_join_dag, skew_join_graph, SkewDagConfig, SkewJoinRounds,
};
use mrassign_workloads::{
    generate_cube, generate_relation_pair, CubeSpec, CubeTuple, RelationPair, RelationSpec,
    SizeDistribution,
};

use crate::harness::{ratio, Ctx, Metrics, OpResult, Recorder, Workload};
use crate::shuffle::{codec_layers, codec_probe};

const POOL: usize = 2;

struct Cube {
    tuples: Vec<CubeTuple>,
    oracle: Vec<Marginal>,
}

struct Pair {
    pair: RelationPair,
    /// The hand-chained referee's result.
    reference: SkewJoinRounds,
}

pub struct DagWorkload {
    server: JobServer,
    mcfg: MarginalsConfig,
    scfg: SkewDagConfig,
    warm_cube: Cube,
    warm_pair: Pair,
    cold_cubes: Vec<Cube>,
    cold_pairs: Vec<Pair>,
    next_cold: usize,
}

fn cube(ctx: &Ctx, stream: u64) -> Cube {
    let spec = CubeSpec {
        n_tuples: ctx.pick(2_000, 200),
        dims: 3,
        cardinality: 8,
        skew: 0.9,
        max_measure: 50,
    };
    let tuples = generate_cube(&spec, ctx.sub_seed(stream));
    let oracle = marginals_oracle(&tuples, spec.dims);
    Cube { tuples, oracle }
}

fn pair(ctx: &Ctx, stream: u64, cfg: &SkewDagConfig) -> Result<Pair, String> {
    let spec = RelationSpec {
        x_tuples: ctx.pick(600, 80),
        y_tuples: ctx.pick(600, 80),
        n_keys: 100,
        skew: 1.0,
        payload: SizeDistribution::Uniform { lo: 16, hi: 64 },
    };
    let pair = generate_relation_pair(&spec, ctx.sub_seed(stream));
    let (reference, _) = run_skew_join_chained(&pair, cfg).map_err(|e| e.to_string())?;
    Ok(Pair { pair, reference })
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let mcfg = MarginalsConfig::default();
    let scfg = SkewDagConfig::default();
    let pool = ctx.pick(16, 4);
    let warm_cube = cube(ctx, 0);
    let warm_pair = pair(ctx, 1, &scfg)?;
    let cold_cubes = (0..pool).map(|i| cube(ctx, 100 + i as u64)).collect();
    let cold_pairs = (0..pool)
        .map(|i| pair(ctx, 200 + i as u64, &scfg))
        .collect::<Result<_, _>>()?;

    // Size the store from the warm entries: room for the two warm entries
    // plus about one and a half cold rounds, far below the pool's footprint.
    let probe = JobServer::with_stage_cache(1, u64::MAX);
    let (g, s) = marginals_graph(&warm_cube.tuples, &mcfg);
    probe
        .submit("probe", 0, g, &s)
        .join()
        .map_err(|e| e.to_string())?;
    let (g, s) = skew_join_graph(&warm_pair.pair, &scfg);
    probe
        .submit("probe", 0, g, &s)
        .join()
        .map_err(|e| e.to_string())?;
    let warm_bytes = probe.stage_cache_stats().map_or(0, |s| s.used_bytes);
    probe.shutdown();

    let server = JobServer::with_stage_cache(POOL, warm_bytes * 5 / 2);
    let workload = DagWorkload {
        server,
        mcfg,
        scfg,
        warm_cube,
        warm_pair,
        cold_cubes,
        cold_pairs,
        next_cold: 0,
    };
    // Cache warm-up: the first op's warm submissions are served.
    let (g, s) = marginals_graph(&workload.warm_cube.tuples, &workload.mcfg);
    workload
        .server
        .submit("alice", 0, g, &s)
        .join()
        .map_err(|e| e.to_string())?;
    let (g, s) = skew_join_graph(&workload.warm_pair.pair, &workload.scfg);
    workload
        .server
        .submit("bob", 0, g, &s)
        .join()
        .map_err(|e| e.to_string())?;
    Ok(Box::new(workload))
}

fn check_cache(name: &str, m: &DagMetrics, warm: bool) -> Result<(), String> {
    let ok = if warm {
        m.cache_hits > 0
    } else {
        m.cache_hits == 0 && m.cache_misses > 0
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{name}: cache hits/misses {}/{} do not match a {} submission",
            m.cache_hits,
            m.cache_misses,
            if warm { "warm" } else { "cold" }
        ))
    }
}

fn check_marginals(
    name: &str,
    out: &DagOutput<Vec<Marginal>>,
    cube: &Cube,
    warm: bool,
) -> Result<(), String> {
    if out.output != cube.oracle {
        return Err(format!("{name}: marginals differ from the oracle"));
    }
    check_cache(name, &out.metrics, warm)
}

fn same_join(got: &SkewJoinRounds, want: &SkewJoinRounds) -> bool {
    got.output == want.output
        && got.heavy_keys == want.heavy_keys
        && got.reducers == want.reducers
        && got.stats_metrics.deterministic() == want.stats_metrics.deterministic()
        && got.join_metrics.deterministic() == want.join_metrics.deterministic()
}

fn check_join(
    name: &str,
    out: &DagOutput<SkewJoinRounds>,
    pair: &Pair,
    warm: bool,
) -> Result<(), String> {
    if !same_join(&out.output, &pair.reference) {
        return Err(format!(
            "{name}: skew join differs from the chained referee"
        ));
    }
    check_cache(name, &out.metrics, warm)
}

fn shuffled(m: &DagMetrics) -> u64 {
    m.stages
        .iter()
        .flat_map(|s| &s.jobs)
        .map(|j| j.bytes_shuffled)
        .sum()
}

fn record_job(rec: &mut Recorder, m: &DagMetrics, warm: bool) {
    let wall_ms = m.wall_seconds * 1e3;
    let stage_ms: f64 = m.stages.iter().map(|s| s.wall_seconds * 1e3).sum();
    let wait_ms = m.queue_wait_seconds() * 1e3;
    rec.value(
        "dag",
        if warm { "warm_job_ms" } else { "cold_job_ms" },
        wall_ms,
    );
    rec.value("dag", "job_ms", wall_ms);
    rec.value("dag", "stage_wall_ms", stage_ms);
    rec.value("dag", "queue_wait_ms", wait_ms);
    rec.value("dag", "overhead_ms", wall_ms - stage_ms - wait_ms);
    rec.value("dag", "max_dispatch_gap", m.max_dispatch_gap() as f64);
    rec.value("store", "cache_hits", m.cache_hits as f64);
    rec.value("store", "cache_misses", m.cache_misses as f64);
    rec.value("store", "cache_evictions", m.cache_evictions as f64);
    for s in &m.stages {
        rec.value("dag", &format!("stage.{}", s.stage), s.wall_seconds * 1e3);
        rec.value("graph", "stream_batches", s.stream_batches as f64);
        rec.value(
            "graph",
            "stream_batches_early",
            s.stream_batches_early as f64,
        );
    }
}

impl DagWorkload {
    /// Times the graph path against the hand-chained path on the warm
    /// inputs (a private single-thread pool, no store), the base of
    /// `dag.graph_over_chained.*`.
    fn trace_graph_over_chained(&self, rec: &mut Recorder) -> Result<(), String> {
        let chained = rec.probe("graph", "chained.marginals", || {
            run_marginals_chained(&self.warm_cube.tuples, &self.mcfg)
        });
        let graph = rec.probe("graph", "graph.marginals", || {
            run_marginals_dag(&self.warm_cube.tuples, &self.mcfg)
        });
        let (chained, graph) = (
            chained.map_err(|e| e.to_string())?,
            graph.map_err(|e| e.to_string())?,
        );
        if chained.marginals != graph.output || graph.output != self.warm_cube.oracle {
            return Err("graph vs chained: marginals differ".to_string());
        }
        let chained = rec.probe("graph", "chained.skewjoin", || {
            run_skew_join_chained(&self.warm_pair.pair, &self.scfg)
        });
        let graph = rec.probe("graph", "graph.skewjoin", || {
            run_skew_join_dag(&self.warm_pair.pair, &self.scfg)
        });
        let (chained, graph) = (
            chained.map_err(|e| e.to_string())?,
            graph.map_err(|e| e.to_string())?,
        );
        if !same_join(&chained.0, &graph.output) {
            return Err("graph vs chained: skew join differs".to_string());
        }
        Ok(())
    }
}

impl Workload for DagWorkload {
    fn op(&mut self, rec: &mut Recorder) -> Result<OpResult, String> {
        let cold = self.next_cold % self.cold_cubes.len();
        self.next_cold += 1;
        let (cold_cube, cold_pair) = (&self.cold_cubes[cold], &self.cold_pairs[cold]);
        let started = Instant::now();

        let (g, s) = marginals_graph(&self.warm_cube.tuples, &self.mcfg);
        let t = Instant::now();
        let warm_m = self.server.submit("alice", 0, g, &s);
        rec.span("dag", "submit", t.elapsed());
        let (g, s) = marginals_graph(&cold_cube.tuples, &self.mcfg);
        let t = Instant::now();
        let cold_m = self.server.submit("bob", 0, g, &s);
        rec.span("dag", "submit", t.elapsed());
        let (g, s) = skew_join_graph(&self.warm_pair.pair, &self.scfg);
        let t = Instant::now();
        let warm_j = self.server.submit("bob", 0, g, &s);
        rec.span("dag", "submit", t.elapsed());
        let (g, s) = skew_join_graph(&cold_pair.pair, &self.scfg);
        let t = Instant::now();
        let cold_j = self.server.submit("alice", 0, g, &s);
        rec.span("dag", "submit", t.elapsed());

        let warm_m = warm_m.join().map_err(|e| format!("warm marginals: {e}"))?;
        let cold_m = cold_m.join().map_err(|e| format!("cold marginals: {e}"))?;
        let warm_j = warm_j.join().map_err(|e| format!("warm skew join: {e}"))?;
        let cold_j = cold_j.join().map_err(|e| format!("cold skew join: {e}"))?;
        let latency = started.elapsed();

        check_marginals("warm marginals", &warm_m, &self.warm_cube, true)?;
        check_marginals("cold marginals", &cold_m, cold_cube, false)?;
        check_join("warm skew join", &warm_j, &self.warm_pair, true)?;
        check_join("cold skew join", &cold_j, cold_pair, false)?;
        let metrics = [
            (&warm_m.metrics, true),
            (&cold_m.metrics, false),
            (&warm_j.metrics, true),
            (&cold_j.metrics, false),
        ];
        let shuffled_bytes = metrics.iter().map(|(m, _)| shuffled(m)).sum();
        if rec.enabled() {
            for (m, warm) in metrics {
                record_job(rec, m, warm);
            }
            codec_probe(rec, &cold_m.output)?;
            self.trace_graph_over_chained(rec)?;
        }
        Ok(OpResult {
            latency,
            shuffled_bytes,
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.server.stage_cache_stats() {
            Some(stats) if stats.evictions > 0 => Ok(()),
            _ => Err("the stage store never evicted: cold submissions were not cold".to_string()),
        }
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) {
        out.set("dag.submit_ms", rec.median("submit"), "ms");
        out.set("dag.queue_wait_ms", rec.median("queue_wait_ms"), "ms");
        out.set("dag.max_dispatch_gap", rec.max("max_dispatch_gap"), "count");
        out.set("dag.stage_wall_ms", rec.median("stage_wall_ms"), "ms");
        out.set("dag.overhead_ms", rec.median("overhead_ms"), "ms");
        out.set("dag.cold_job_ms", rec.median("cold_job_ms"), "ms");
        out.set("dag.warm_job_ms", rec.median("warm_job_ms"), "ms");
        let hits = rec.sum("cache_hits");
        out.set(
            "dag.cache_hit_ratio",
            ratio(hits, hits + rec.sum("cache_misses")),
            "ratio",
        );
        out.set(
            "dag.cache_evictions",
            rec.per_op("cache_evictions"),
            "count",
        );
        out.set(
            "dag.stream_early_ratio",
            ratio(rec.sum("stream_batches_early"), rec.sum("stream_batches")),
            "ratio",
        );
        for kind in ["marginals", "skewjoin"] {
            out.set(
                &format!("dag.graph_over_chained.{kind}"),
                ratio(
                    rec.median(&format!("graph.{kind}")),
                    rec.median(&format!("chained.{kind}")),
                ),
                "ratio",
            );
        }
        for stage in [
            "first-order",
            "second-order",
            "collect",
            "stats",
            "plan",
            "join",
        ] {
            out.set(
                &format!("dag.stage_ms.{stage}"),
                rec.median(&format!("stage.{stage}")),
                "ms",
            );
        }
        codec_layers(rec, out);
        // Shares of summed job time: stage bodies are the engine's, queue
        // wait plus admission/dispatch/cache overhead the server's.
        let job_ms = rec.sum("job_ms");
        let stage_ms = rec.sum("stage_wall_ms");
        out.set("share.engine", ratio(stage_ms, job_ms), "ratio");
        out.set("share.dag", ratio(job_ms - stage_ms, job_ms), "ratio");
    }
}
