//! Regenerates `results/table1.csv`. Pass `--smoke` for a fast tiny run;
//! unknown flags are rejected rather than silently ignored.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::table1_summary;

fn main() {
    let parsed = ExperimentArgs::from_env(&[]);
    let table_0 = table1_summary::run(parsed.scale);
    finish(&table_0, "table1");
}
