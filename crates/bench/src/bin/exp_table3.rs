//! Regenerates `results/table3.csv`. Pass `--smoke` for a fast tiny run
//! and `--budget <nodes>` to override the exact search's node budget;
//! anything else is rejected.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::table3_gap;

fn main() {
    let parsed = ExperimentArgs::from_env(&["budget"]);
    let table = table3_gap::run_with_budget(parsed.scale, parsed.budget);
    finish(&table, "table3");
}
