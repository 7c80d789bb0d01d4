//! Runs every experiment in `docs/EXPERIMENTS.md`'s index and writes all CSVs under
//! `results/`. Pass `--smoke` for a fast tiny run of everything, and any
//! engine knob of `ClusterConfig::KNOBS` as `--<knob> <value>` (`--threads
//! <n>`, `--shuffle materialized|pipelined`, `--finalize static|stealing`,
//! `--retries <n>`, `--faults seed:7,rate:0.05`, `--memory-budget <bytes>`,
//! `--checkpoint-dir <dir>`) for the job-executing figures. The recorded
//! numbers are identical under every knob — faults, out-of-core spilling
//! and checkpointing included, since retries replay deterministic tasks,
//! spilled runs keep task order and a resumed run replays committed
//! partitions — except fig3's trailing execution diagnostics; CI uses
//! this to exercise every engine path.
//!
//! `cargo run --release -p mrassign-bench --bin run_all_experiments`

use std::time::Instant;

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::*;
use mrassign_simmr::ClusterConfig;

fn main() {
    let ExperimentArgs { scale, cluster, .. } = ExperimentArgs::from_env(&ClusterConfig::KNOBS);

    type Experiment<'a> = (&'static str, Box<dyn Fn(Scale) -> Table + 'a>);
    let experiments: Vec<Experiment> = vec![
        ("table1", Box::new(table1_summary::run)),
        ("table2", Box::new(table2_hardness::run)),
        ("table2b", Box::new(table2_hardness::run_two_reducer)),
        ("table3", Box::new(table3_gap::run)),
        ("fig1", Box::new(fig1_reducers_vs_q::run)),
        ("fig2", Box::new(fig2_comm_vs_q::run)),
        (
            "fig3",
            Box::new(|s| fig3_parallelism_vs_q::run_with(s, &cluster)),
        ),
        ("fig4", Box::new(|s| fig4_skewjoin::run_with(s, &cluster))),
        ("fig5", Box::new(|s| fig5_simjoin::run_with(s, &cluster))),
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
