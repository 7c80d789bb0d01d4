//! Regenerates `results/fig2.csv`. Pass `--smoke` for a fast tiny run;
//! unknown flags are rejected rather than silently ignored.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::fig2_comm_vs_q;

fn main() {
    let parsed = ExperimentArgs::from_env(&[]);
    let table_0 = fig2_comm_vs_q::run(parsed.scale);
    finish(&table_0, "fig2");
}
