//! `resume`: one op is one kill-and-resume cycle of a checkpointed
//! hot-reducer job — a cold run killed at its last partition, a resumed run
//! that executes only that partition, and a warm rerun that replays every
//! partition from the manifest. The session directory is removed between
//! ops, outside the timed window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use mrassign_simmr::{ClusterConfig, FaultPlan, FinalizeMode, JobOutput};

use crate::harness::{
    files_under, ratio, Ctx, Metrics, OpResult, Recorder, Workload, EXPECTED_PANIC,
};
use crate::jobs::{hot_job, hot_splits, pipelined, HOT_PARTITIONS};
use crate::shuffle::{
    codec_layers, codec_probe, hot_partition, layer_engine_counters, record_engine,
};

pub struct ResumeWorkload {
    splits: Vec<Vec<(u64, String)>>,
    /// The uncheckpointed run every resumed and replayed run must match.
    reference: JobOutput<(u64, String)>,
    ckpt_dir: PathBuf,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let splits = hot_splits(ctx.pick(12_000, 800), 400, ctx.sub_seed(0));
    let reference = hot_job(pipelined())
        .run(&splits)
        .map_err(|e| e.to_string())?;
    let ckpt_dir = ctx.work_dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| e.to_string())?;
    Ok(Box::new(ResumeWorkload {
        splits,
        reference,
        ckpt_dir,
    }))
}

impl ResumeWorkload {
    /// The resumed and warm runs: an inert fault-plan skeleton keeps the
    /// job fingerprint equal to the kill run's (the kill list is
    /// execution-only and outside it).
    fn checkpointed(&self) -> ClusterConfig {
        ClusterConfig {
            checkpoint_dir: Some(self.ckpt_dir.clone()),
            fault_plan: Some(FaultPlan::default()),
            ..pipelined()
        }
    }

    /// The kill run: one thread under static finalize, so every partition
    /// but the last commits before the last one's kill verdict fires.
    fn killing(&self) -> ClusterConfig {
        ClusterConfig {
            map_threads: 1,
            finalize_mode: FinalizeMode::Static,
            fault_plan: Some(FaultPlan {
                kill_reduce_tasks: vec![HOT_PARTITIONS - 1],
                ..FaultPlan::default()
            }),
            ..self.checkpointed()
        }
    }

    fn check(
        &self,
        name: &str,
        run: &JobOutput<(u64, String)>,
        hits: u64,
        misses: u64,
    ) -> Result<(), String> {
        if run.outputs != self.reference.outputs {
            return Err(format!(
                "{name}: outputs differ from the uncheckpointed run"
            ));
        }
        if run.metrics.deterministic() != self.reference.metrics.deterministic() {
            return Err(format!(
                "{name}: deterministic metrics differ from the uncheckpointed run"
            ));
        }
        let p = &run.metrics.pipeline;
        if (p.checkpoint_hits, p.checkpoint_misses, p.checkpoint_invalid) != (hits, misses, 0) {
            return Err(format!(
                "{name}: checkpoint hits/misses/invalid {}/{}/{}, expected {hits}/{misses}/0",
                p.checkpoint_hits, p.checkpoint_misses, p.checkpoint_invalid
            ));
        }
        Ok(())
    }

    fn clear_sessions(&self) -> Result<(), String> {
        for entry in std::fs::read_dir(&self.ckpt_dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                std::fs::remove_dir_all(&path)
            } else {
                std::fs::remove_file(&path)
            }
            .map_err(|e| format!("removing {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

impl Workload for ResumeWorkload {
    fn op(&mut self, rec: &mut Recorder) -> Result<OpResult, String> {
        let parts = HOT_PARTITIONS as u64;

        let kill = hot_job(self.killing());
        EXPECTED_PANIC.store(true, Ordering::Relaxed);
        let started = Instant::now();
        let killed = catch_unwind(AssertUnwindSafe(|| kill.run(&self.splits)));
        let kill_took = started.elapsed();
        EXPECTED_PANIC.store(false, Ordering::Relaxed);
        rec.span("ckpt", "ckpt.kill_run_ms", kill_took);
        match killed {
            Err(_) => {}
            Ok(Ok(_)) => return Err("kill run: the kill-reduce verdict did not fire".to_string()),
            Ok(Err(e)) => return Err(format!("kill run: {e}")),
        }

        let timed = |name: &str, rec: &mut Recorder| {
            let started = Instant::now();
            let out = hot_job(self.checkpointed()).run(&self.splits);
            let took = started.elapsed();
            rec.span("ckpt", name, took);
            out.map(|o| (o, took)).map_err(|e| format!("{name}: {e}"))
        };
        let (resumed, resume_took) = timed("ckpt.resume_ms", rec)?;
        let (replayed, replay_took) = timed("ckpt.replay_ms", rec)?;
        self.check("resumed run", &resumed, parts - 1, 1)?;
        self.check("replayed run", &replayed, parts, 0)?;
        let latency = kill_took + resume_took + replay_took;

        if rec.enabled() {
            for run in [&resumed, &replayed] {
                let p = &run.metrics.pipeline;
                rec.value("ckpt", "ckpt.hits", p.checkpoint_hits as f64);
                rec.value("ckpt", "ckpt.misses", p.checkpoint_misses as f64);
                rec.value("ckpt", "ckpt.invalid", p.checkpoint_invalid as f64);
            }
            // The base of both ratios: the same job, uncheckpointed.
            let fresh = rec.probe("base", "ckpt.fresh_ms", || {
                hot_job(pipelined()).run(&self.splits)
            });
            let fresh = fresh.map_err(|e| format!("fresh run: {e}"))?;
            record_engine(rec, &fresh.metrics);
            codec_probe(rec, &hot_partition(&fresh.outputs))?;
        }

        self.clear_sessions()?;
        // The map phase and shuffle of the kill run completed before its
        // reduce-side kill, so it shipped what every other run ships.
        let shuffled = 3 * self.reference.metrics.bytes_shuffled;
        Ok(OpResult {
            latency,
            shuffled_bytes: shuffled,
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        let left = files_under(&self.ckpt_dir);
        if left.is_empty() {
            Ok(())
        } else {
            Err(format!("{} checkpoint files left behind", left.len()))
        }
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) {
        let fresh = rec.median("ckpt.fresh_ms");
        for name in ["ckpt.kill_run_ms", "ckpt.resume_ms", "ckpt.replay_ms"] {
            out.set(name, rec.median(name), "ms");
        }
        out.set("ckpt.fresh_ms", fresh, "ms");
        out.set(
            "ckpt.resume_over_fresh",
            ratio(rec.median("ckpt.resume_ms"), fresh),
            "ratio",
        );
        out.set(
            "ckpt.replay_over_fresh",
            ratio(rec.median("ckpt.replay_ms"), fresh),
            "ratio",
        );
        for name in ["ckpt.hits", "ckpt.misses", "ckpt.invalid"] {
            out.set(name, rec.per_op(name), "count");
        }
        layer_engine_counters(rec, out);
        codec_layers(rec, out);
        // One op computes the job's result once in total (the kill run
        // does all partitions but one, the resume that one, the replay
        // none); everything beyond one fresh run is persistence work.
        let op_ms = rec.median("op");
        out.set("share.ckpt", ratio(op_ms - fresh, op_ms), "ratio");
        out.set("share.engine", ratio(fresh, op_ms), "ratio");
    }
}
