//! Regenerates `results/fig7a.csv` and `results/fig7b.csv`. Pass `--smoke` for a fast tiny run;
//! unknown flags are rejected rather than silently ignored.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::fig7_split_ablation;

fn main() {
    let parsed = ExperimentArgs::from_env(&[]);
    let table_0 = fig7_split_ablation::run(parsed.scale);
    finish(&table_0, "fig7a");
    let table_1 = fig7_split_ablation::run_b(parsed.scale);
    finish(&table_1, "fig7b");
}
