//! Regenerates `results/fig3.csv`. Pass `--smoke` for a fast tiny run,
//! and any engine knob of `ClusterConfig::KNOBS` as `--<knob> <value>`
//! (`--threads 2`, `--shuffle pipelined`, `--checkpoint-dir <dir>`, …).
//! The simulated columns are identical under every knob; the trailing
//! execution diagnostics are nonzero only under the knob they report.

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::fig3_parallelism_vs_q;
use mrassign_simmr::ClusterConfig;

fn main() {
    let parsed = ExperimentArgs::from_env(&ClusterConfig::KNOBS);
    let table = fig3_parallelism_vs_q::run_with(parsed.scale, &parsed.cluster);
    finish(&table, "fig3");
}
