//! End-to-end benchmark of the mrassign stack.
//!
//! ```text
//! perfbench --workload <plan|shuffle|dag|resume> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Each workload is a closed loop driven by one client thread against the
//! library's public API; every op's output is checked against a reference
//! computed during set-up. Human-readable lines (run metadata, the metric
//! table) come first; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` measures the end-to-end metrics (`ops_per_s`,
//!   `op_p50_ms`, `op_p90_ms`, `setup_s`, `peak_rss_mb`,
//!   `shuffle_mb_per_op`).
//! * `--trace 1` runs an untraced half and a traced half of `--seconds`
//!   and reports the per-layer metrics of the traced half, each layer's
//!   share of op time and the tracing overhead; the spans are written to
//!   `.perfbench/trace-<workload>-seed<n>.tsv`.
//!
//! Spill runs and checkpoint sessions go to a private `.perfbench/work-*`
//! directory under the current directory, which is removed at exit.

mod dag;
mod harness;
mod jobs;
mod plan;
mod resume;
mod shuffle;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{
    closed_loop, files_under, install_panic_hook, median, on_tmpfs, peak_rss_mb, percentile, ratio,
    Ctx, LoopStats, Metrics, Recorder, Scale, Workload,
};

const WORKLOADS: [&str; 4] = ["plan", "shuffle", "dag", "resume"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Every per-layer metric of a traced run, with its unit. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.solve_ms", "ms"),
    ("core.solve_share", "ratio"),
    ("planner.plan_ms.a2a", "ms"),
    ("planner.plan_ms.x2y", "ms"),
    ("planner.candidates", "count"),
    ("planner.comm_over_lb", "ratio"),
    ("planner.reducers_over_lb", "ratio"),
    ("engine.job_ms.wc_mem", "ms"),
    ("engine.job_ms.wc_spill", "ms"),
    ("engine.job_ms.hot_mem", "ms"),
    ("engine.job_ms.hot_spill", "ms"),
    ("engine.map_wall_ms", "ms"),
    ("engine.reduce_wall_ms", "ms"),
    ("engine.overlap_ratio", "ratio"),
    ("engine.peak_inflight_blocks", "count"),
    ("engine.blocks_sent", "count"),
    ("engine.finalize_imbalance", "ratio"),
    ("engine.stolen_partitions", "count"),
    ("engine.spill_over_mem.wc", "ratio"),
    ("engine.spill_over_mem.hot", "ratio"),
    ("engine.spilled_runs", "count"),
    ("engine.spilled_mb", "MB"),
    ("engine.merge_fanin", "count"),
    ("engine.peak_buffered_kb", "KB"),
    ("codec.encode_mb_per_s", "MB/s"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("ckpt.kill_run_ms", "ms"),
    ("ckpt.resume_ms", "ms"),
    ("ckpt.replay_ms", "ms"),
    ("ckpt.fresh_ms", "ms"),
    ("ckpt.resume_over_fresh", "ratio"),
    ("ckpt.replay_over_fresh", "ratio"),
    ("ckpt.hits", "count"),
    ("ckpt.misses", "count"),
    ("ckpt.invalid", "count"),
    ("dag.submit_ms", "ms"),
    ("dag.queue_wait_ms", "ms"),
    ("dag.max_dispatch_gap", "count"),
    ("dag.stage_wall_ms", "ms"),
    ("dag.overhead_ms", "ms"),
    ("dag.cold_job_ms", "ms"),
    ("dag.warm_job_ms", "ms"),
    ("dag.cache_hit_ratio", "ratio"),
    ("dag.cache_evictions", "count"),
    ("dag.stream_early_ratio", "ratio"),
    ("dag.graph_over_chained.marginals", "ratio"),
    ("dag.graph_over_chained.skewjoin", "ratio"),
    ("dag.stage_ms.first-order", "ms"),
    ("dag.stage_ms.second-order", "ms"),
    ("dag.stage_ms.collect", "ms"),
    ("dag.stage_ms.stats", "ms"),
    ("dag.stage_ms.plan", "ms"),
    ("dag.stage_ms.join", "ms"),
    ("share.core", "ratio"),
    ("share.planner", "ratio"),
    ("share.engine", "ratio"),
    ("share.spill", "ratio"),
    ("share.ckpt", "ratio"),
    ("share.dag", "ratio"),
    ("trace.ops_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, false, Scale::Full);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected {})",
            WORKLOADS.join("|")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale,
    })
}

fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    match name {
        "plan" => plan::setup(ctx),
        "shuffle" => shuffle::setup(ctx),
        "dag" => dag::setup(ctx),
        _ => resume::setup(ctx),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work_dir = root.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        scale: args.scale,
        work_dir,
    };
    let result = run(&args, &ctx, &root);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, ctx: &Ctx, root: &std::path::Path) -> Result<(), String> {
    install_panic_hook();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmpfs = on_tmpfs(&ctx.work_dir);
    let min_ops = match args.scale {
        Scale::Full => 100,
        Scale::Tiny => 3,
    };

    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first so two never coexist.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(&args.workload, ctx)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    println!(
        "perfbench workload={} seed={} nproc={nproc} scale={:?} seconds={} trace={}",
        args.workload, args.seed, args.scale, args.seconds, args.trace as u8
    );
    println!(
        "  work dir {} (spill and checkpoint directories) on tmpfs: {tmpfs}",
        ctx.work_dir.display()
    );

    let mut metrics = Metrics::default();
    let (stats, traced) = if args.trace {
        let mut off = Recorder::new(false);
        let untraced = closed_loop(workload.as_mut(), &mut off, args.seconds / 2.0, min_ops / 4);
        let mut rec = Recorder::new(true);
        let traced = closed_loop(workload.as_mut(), &mut rec, args.seconds / 2.0, min_ops / 4);
        workload.layers(&rec, &mut metrics);
        metrics.set(
            "trace.ops_ratio",
            ratio(traced.ops_per_s(), untraced.ops_per_s()),
            "ratio",
        );
        for (name, unit) in PER_LAYER {
            if metrics.get(name).is_none() {
                metrics.set(name, 0.0, unit);
            }
        }
        let path = root.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        rec.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  trace spans written to {}", path.display());
        println!(
            "  tracing overhead: traced {:.3} ops/s vs untraced {:.3} ops/s (trace.ops_ratio, base untraced)",
            traced.ops_per_s(),
            untraced.ops_per_s()
        );
        let mut all = untraced;
        all.attempted += traced.attempted;
        all.failed += traced.failed;
        all.first_error = all.first_error.or(traced.first_error);
        (all, true)
    } else {
        let mut off = Recorder::new(false);
        let stats = closed_loop(workload.as_mut(), &mut off, args.seconds, min_ops);
        end_to_end(&stats, median(&setup_s), &mut metrics);
        (stats, false)
    };

    let finish = workload.finish();
    let schema_quality = workload.schema_quality();
    drop(workload);
    let leftovers = files_under(&ctx.work_dir);
    let ops = stats.attempted - stats.failed;
    println!(
        "  ops={} attempted={} failed={} op_fail_ratio={} p50/p90 samples={} leftover work files={}",
        ops,
        stats.attempted,
        stats.failed,
        ratio(stats.failed as f64, stats.attempted as f64),
        stats.latencies_ms.len(),
        leftovers.len()
    );
    println!("  setup_s samples: {setup_s:?}");
    if let Some(e) = &stats.first_error {
        println!("  first failure: {e}");
    }
    if let Err(e) = &finish {
        println!("  run check failed: {e}");
    }
    if !traced {
        // Printed but kept out of the result line: a correct run's
        // failure ratio is 0 by definition, and only `plan` has schemas.
        println!("end-to-end metrics outside the result line:");
        let fail_ratio = ratio(stats.failed as f64, stats.attempted as f64);
        println!("  {:<36} {fail_ratio:>14.6} ratio", "op_fail_ratio");
        for (name, value) in ["comm_over_lb", "reducers_over_lb"]
            .into_iter()
            .zip(schema_quality.map_or([None, None], |(c, r)| [Some(c), Some(r)]))
        {
            match value {
                Some(v) => println!("  {name:<36} {v:>14.6} ratio"),
                None => println!(
                    "  {name:<36} {:>14} (no schema on {})",
                    "n/a", args.workload
                ),
            }
        }
    }
    metrics.print_table(if traced {
        "per-layer metrics:"
    } else {
        "end-to-end metrics:"
    });

    let correct = stats.failed == 0 && finish.is_ok() && leftovers.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        stats.attempted,
        stats.failed,
        metrics.to_json()
    );
    Ok(())
}

fn end_to_end(stats: &LoopStats, setup_s: f64, out: &mut Metrics) {
    let ops = (stats.attempted - stats.failed).max(1) as f64;
    out.set("ops_per_s", stats.ops_per_s(), "1/s");
    out.set("op_p50_ms", percentile(&stats.latencies_ms, 0.5), "ms");
    out.set("op_p90_ms", percentile(&stats.latencies_ms, 0.9), "ms");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set(
        "shuffle_mb_per_op",
        stats.shuffled_bytes as f64 / 1e6 / ops,
        "MB",
    );
}
