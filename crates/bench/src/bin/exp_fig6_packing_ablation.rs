//! Regenerates `results/fig6.csv`. Pass `--smoke` for a fast tiny run;
//! unknown flags are rejected rather than silently ignored.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::fig6_packing_ablation;

fn main() {
    let parsed = ExperimentArgs::from_env(&[]);
    let table_0 = fig6_packing_ablation::run(parsed.scale);
    finish(&table_0, "fig6");
}
