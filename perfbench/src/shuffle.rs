//! `shuffle`: one op is one cycle of four engine jobs on `Pipelined` with
//! `Stealing` finalize — word count and the hot-reducer concatenation, each
//! unbounded and under a tight memory budget that spills every run.

use std::path::PathBuf;
use std::time::Instant;

use mrassign_simmr::{
    decode_partition, encode_partition, JobMetrics, JobOutput, ShuffleMode, SpillCodec,
};

use crate::harness::{ratio, Ctx, Metrics, OpResult, Recorder, Workload};
use crate::jobs::{documents, hot_job, hot_splits, pipelined, wc_job};

/// Each job's tight per-consumer-group budget is this fraction of the
/// buffered peak its unbounded run reaches on the seed's inputs, so both
/// jobs spill in every run on every seed (checked per op), while a few
/// runs per group keep spill-file churn from drowning the merge.
const TIGHT_DIVISOR: u64 = 4;

pub struct ShuffleWorkload {
    lines: Vec<String>,
    splits: Vec<Vec<(u64, String)>>,
    /// `Materialized` runs every pipelined run must reproduce.
    wc_ref: JobOutput<(String, u64)>,
    hot_ref: JobOutput<(u64, String)>,
    spill_dir: PathBuf,
    wc_budget: u64,
    hot_budget: u64,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    // Few large map tasks: the spill-file count per job follows the block
    // count, and creating and deleting thousands of files a second makes
    // the file system's background work, not the engine, set the time.
    // Narrow size ranges keep an op's work nearly the same on every seed.
    let words = ctx.pick(16_000..=18_000, 600..=2200);
    let lines = documents(ctx.pick(8, 4), words, ctx.sub_seed(0));
    let splits = hot_splits(ctx.pick(36_000, 800), ctx.pick(4500, 400), ctx.sub_seed(1));
    let materialized = mrassign_simmr::ClusterConfig {
        shuffle: ShuffleMode::Materialized,
        ..pipelined()
    };
    let wc_ref = wc_job(materialized.clone())
        .run(&lines)
        .map_err(|e| e.to_string())?;
    let hot_ref = hot_job(materialized)
        .run(&splits)
        .map_err(|e| e.to_string())?;
    let spill_dir = ctx.work_dir.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
    let tight = |m: &JobMetrics| (m.pipeline.peak_buffered_bytes / TIGHT_DIVISOR).max(1);
    let wc_budget = tight(
        &wc_job(pipelined())
            .run(&lines)
            .map_err(|e| e.to_string())?
            .metrics,
    );
    let hot_budget = tight(
        &hot_job(pipelined())
            .run(&splits)
            .map_err(|e| e.to_string())?
            .metrics,
    );
    Ok(Box::new(ShuffleWorkload {
        lines,
        splits,
        wc_ref,
        hot_ref,
        spill_dir,
        wc_budget,
        hot_budget,
    }))
}

fn check<O: PartialEq>(
    name: &str,
    got: &JobOutput<O>,
    want: &JobOutput<O>,
    spills: bool,
) -> Result<(), String> {
    if spills != (got.metrics.pipeline.spilled_runs > 0) {
        return Err(format!("{name}: expected spilling = {spills}"));
    }
    if got.outputs != want.outputs {
        return Err(format!("{name}: outputs differ from the materialized run"));
    }
    if got.metrics.deterministic() != want.metrics.deterministic() {
        return Err(format!(
            "{name}: deterministic metrics differ from the materialized run"
        ));
    }
    Ok(())
}

/// Samples the engine counters of one job into the recorder.
pub fn record_engine(rec: &mut Recorder, m: &JobMetrics) {
    let p = &m.pipeline;
    rec.value("engine", "map_wall_ms", p.map_wall_seconds * 1e3);
    rec.value("engine", "reduce_wall_ms", p.reduce_wall_seconds * 1e3);
    rec.value(
        "engine",
        "overlap_blocks",
        p.map_reduce_overlap_blocks as f64,
    );
    rec.value("engine", "blocks_sent", p.blocks_sent as f64);
    rec.value(
        "engine",
        "peak_inflight_blocks",
        p.peak_inflight_blocks as f64,
    );
    rec.value("engine", "finalize_imbalance", p.finalize_imbalance);
    rec.value("engine", "stolen_partitions", p.stolen_partitions as f64);
    rec.value("spill", "spilled_runs", p.spilled_runs as f64);
    rec.value("spill", "spilled_bytes", p.spilled_bytes as f64);
    rec.value("spill", "merge_fanin", p.merge_fanin as f64);
    rec.value("spill", "peak_buffered_bytes", p.peak_buffered_bytes as f64);
}

impl Workload for ShuffleWorkload {
    fn op(&mut self, rec: &mut Recorder) -> Result<OpResult, String> {
        let mut latency = std::time::Duration::ZERO;
        let mut shuffled = 0;
        for (spill, tag) in [(false, "mem"), (true, "spill")] {
            let config = |budget: u64| mrassign_simmr::ClusterConfig {
                memory_budget: spill.then_some(budget),
                spill_dir: Some(self.spill_dir.clone()),
                ..pipelined()
            };
            // Spill time is attributed to the spill layer, the rest of
            // the engine's time to the engine layer.
            let layer = if spill { "spill" } else { "engine" };

            let name = format!("wc_{tag}");
            let started = Instant::now();
            let wc = wc_job(config(self.wc_budget)).run(&self.lines);
            let took = started.elapsed();
            latency += took;
            rec.span(layer, &name, took);
            let wc = wc.map_err(|e| format!("{name}: {e}"))?;
            check(&name, &wc, &self.wc_ref, spill)?;
            shuffled += wc.metrics.bytes_shuffled;
            record_engine(rec, &wc.metrics);

            let name = format!("hot_{tag}");
            let started = Instant::now();
            let hot = hot_job(config(self.hot_budget)).run(&self.splits);
            let took = started.elapsed();
            latency += took;
            rec.span(layer, &name, took);
            let hot = hot.map_err(|e| format!("{name}: {e}"))?;
            check(&name, &hot, &self.hot_ref, spill)?;
            shuffled += hot.metrics.bytes_shuffled;
            record_engine(rec, &hot.metrics);
            if rec.enabled() && !spill {
                codec_probe(rec, &hot_partition(&hot.outputs))?;
            }
        }
        Ok(OpResult {
            latency,
            shuffled_bytes: shuffled,
        })
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) {
        for job in ["wc_mem", "wc_spill", "hot_mem", "hot_spill"] {
            out.set(&format!("engine.job_ms.{job}"), rec.median(job), "ms");
        }
        for kind in ["wc", "hot"] {
            out.set(
                &format!("engine.spill_over_mem.{kind}"),
                ratio(
                    rec.median(&format!("{kind}_spill")),
                    rec.median(&format!("{kind}_mem")),
                ),
                "ratio",
            );
        }
        layer_engine_counters(rec, out);
        codec_layers(rec, out);
        // The spill layer's share is what the budgeted runs cost over
        // their unbounded twins; the engine keeps the rest.
        let op_ms = rec.sum("op");
        let spill_extra = rec.layer_ms("spill") - rec.layer_ms("engine");
        out.set("share.spill", ratio(spill_extra, op_ms), "ratio");
        out.set("share.engine", ratio(op_ms - spill_extra, op_ms), "ratio");
    }
}

/// Engine and spill counters shared with the `resume` workload.
pub fn layer_engine_counters(rec: &Recorder, out: &mut Metrics) {
    out.set("engine.map_wall_ms", rec.median("map_wall_ms"), "ms");
    out.set("engine.reduce_wall_ms", rec.median("reduce_wall_ms"), "ms");
    out.set(
        "engine.overlap_ratio",
        ratio(rec.sum("overlap_blocks"), rec.sum("blocks_sent")),
        "ratio",
    );
    out.set(
        "engine.peak_inflight_blocks",
        rec.max("peak_inflight_blocks"),
        "count",
    );
    out.set("engine.blocks_sent", rec.per_op("blocks_sent"), "count");
    out.set(
        "engine.finalize_imbalance",
        rec.median("finalize_imbalance"),
        "ratio",
    );
    out.set(
        "engine.stolen_partitions",
        rec.per_op("stolen_partitions"),
        "count",
    );
    out.set("engine.spilled_runs", rec.per_op("spilled_runs"), "count");
    out.set("engine.spilled_mb", rec.per_op("spilled_bytes") / 1e6, "MB");
    out.set("engine.merge_fanin", rec.max("merge_fanin"), "count");
    out.set(
        "engine.peak_buffered_kb",
        rec.max("peak_buffered_bytes") / 1024.0,
        "KB",
    );
}

/// The hot partition's outputs (key 0 alone is routed to partition 0).
pub fn hot_partition(outputs: &[(u64, String)]) -> Vec<(u64, String)> {
    outputs.iter().filter(|(k, _)| *k == 0).cloned().collect()
}

/// Times the partition codec over `records` and checks the round trip.
pub fn codec_probe<T: SpillCodec + PartialEq>(
    rec: &mut Recorder,
    records: &[T],
) -> Result<(), String> {
    let bytes = rec.probe("codec", "codec.encode", || {
        encode_partition(records, records.len() as u64)
    })?;
    let (decoded, _) = rec.probe("codec", "codec.decode", || decode_partition::<T>(&bytes))?;
    if decoded != records {
        return Err("codec: partition does not round-trip".to_string());
    }
    rec.value("codec", "codec.bytes", bytes.len() as f64);
    Ok(())
}

pub fn codec_layers(rec: &Recorder, out: &mut Metrics) {
    let mb = rec.sum("codec.bytes") / 1e6;
    let rate = |name: &str| ratio(mb, rec.sum(name) / 1e3);
    out.set("codec.encode_mb_per_s", rate("codec.encode"), "MB/s");
    out.set("codec.decode_mb_per_s", rate("codec.decode"), "MB/s");
}
