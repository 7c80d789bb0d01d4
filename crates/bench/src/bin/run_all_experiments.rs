//! Runs every experiment in `docs/EXPERIMENTS.md`'s index and writes all CSVs under
//! `results/`. Pass `--smoke` for a fast tiny run of everything, and
//! `--threads <n>` / `--shuffle materialized|pipelined` /
//! `--finalize static|stealing` / `--retries <n>` /
//! `--faults seed:7,rate:0.05` / `--memory-budget <bytes>` to pick the
//! engine execution knobs for the job-executing figures (the recorded
//! numbers are identical across knob settings — faults and out-of-core
//! spilling included, since retries replay deterministic tasks and the
//! external merge preserves run order — except fig3's trailing
//! pipeline/fault/spill diagnostics — CI uses this to exercise every
//! engine path).
//!
//! `cargo run --release -p mrassign-bench --bin run_all_experiments`

use std::time::Instant;

use mrassign_bench::common::{finish, ExecKnobs};
use mrassign_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let knobs = ExecKnobs::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    type Experiment = (&'static str, Box<dyn Fn(Scale) -> Table>);
    let experiments: Vec<Experiment> = vec![
        ("table1", Box::new(table1_summary::run)),
        ("table2", Box::new(table2_hardness::run)),
        ("table2b", Box::new(table2_hardness::run_two_reducer)),
        ("table3", Box::new(table3_gap::run)),
        ("fig1", Box::new(fig1_reducers_vs_q::run)),
        ("fig2", Box::new(fig2_comm_vs_q::run)),
        (
            "fig3",
            Box::new({
                let knobs = knobs.clone();
                move |s| fig3_parallelism_vs_q::run_with(s, knobs.clone())
            }),
        ),
        (
            "fig4",
            Box::new({
                let knobs = knobs.clone();
                move |s| fig4_skewjoin::run_with(s, knobs.clone())
            }),
        ),
        (
            "fig5",
            Box::new(move |s| fig5_simjoin::run_with(s, knobs.clone())),
        ),
        ("fig6", Box::new(fig6_packing_ablation::run)),
        ("fig7a", Box::new(fig7_split_ablation::run)),
        ("fig7b", Box::new(fig7_split_ablation::run_b)),
    ];

    let overall = Instant::now();
    for (name, exp) in experiments {
        let t0 = Instant::now();
        let table = exp(scale);
        finish(&table, name);
        println!("[{name}] finished in {:.2}s\n", t0.elapsed().as_secs_f64());
    }
    println!(
        "all experiments finished in {:.1}s",
        overall.elapsed().as_secs_f64()
    );
}
