//! Regenerates `results/table2.csv` and `results/table2b.csv`. Pass
//! `--smoke` for a fast tiny run and `--budget <nodes>` to override the
//! exact search's node budget; anything else is rejected.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::table2_hardness;

fn main() {
    let parsed = ExperimentArgs::from_env(&["budget"]);
    let table = table2_hardness::run_with_budget(parsed.scale, parsed.budget);
    finish(&table, "table2");
    let table_b = table2_hardness::run_two_reducer(parsed.scale);
    finish(&table_b, "table2b");
}
