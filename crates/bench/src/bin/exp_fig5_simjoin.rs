//! Regenerates `results/fig5.csv`. Pass `--smoke` for a fast tiny run,
//! `--threads <n>` / `--shuffle materialized|pipelined` to pick the engine
//! execution knobs (recorded numbers are identical either way).

use mrassign_bench::common::{finish, ExecKnobs};
use mrassign_bench::{fig5_simjoin, Scale};

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
    let table = fig5_simjoin::run_with(scale, knobs);
    finish(&table, "fig5");
}
