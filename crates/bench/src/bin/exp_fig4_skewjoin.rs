//! Regenerates `results/fig4.csv`. Pass `--smoke` for a fast tiny run,
//! and any engine knob of `ClusterConfig::KNOBS` as `--<knob> <value>`
//! (recorded numbers are identical under every knob).

use mrassign_bench::common::{finish, ExperimentArgs};
use mrassign_bench::fig4_skewjoin;
use mrassign_simmr::ClusterConfig;

fn main() {
    let parsed = ExperimentArgs::from_env(&ClusterConfig::KNOBS);
    let table = fig4_skewjoin::run_with(parsed.scale, &parsed.cluster);
    finish(&table, "fig4");
}
