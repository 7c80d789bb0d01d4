//! **Figure 3 — tradeoff (ii): reducer capacity vs parallelism.** The
//! schemas from the `q` sweep are *executed* on the simulated cluster with
//! a reduce-dominated cost model, exposing the U-shape the paper argues:
//!
//! * tiny `q` → many reducers → high parallelism but the replicated bytes
//!   (communication ~ q⁻¹) swamp the workers;
//! * huge `q` → few reducers → minimal communication but the reduce phase
//!   degenerates to a handful of serial tasks.
//!
//! The minimum sits where per-reducer work balances against replication.

use mrassign_core::{a2a, InputSet};
use mrassign_simmr::ClusterConfig;
use mrassign_workloads::{geometric_steps, SizeDistribution};

use crate::common::{execute_a2a_schema, Scale, Table};

/// Runs the experiment at the given scale on the default engine.
pub fn run(scale: Scale) -> Table {
    run_with(scale, &ClusterConfig::default())
}

/// Runs the experiment with `base`'s engine knobs (map threads / shuffle
/// mode / finalize mode / fault injection / memory budget / checkpoint
/// dir) under the figure's own cost model and worker counts. The simulated
/// columns are identical across knob settings; the eight trailing columns
/// (`overlap_blk`, `peak_blk`, `stolen`, `fin_imb`, `retries`, `dlq`,
/// `spill`, `peak_mb`) are execution diagnostics — zero under the default
/// materialized, fault-free, unbudgeted configuration, and legitimately
/// run-dependent otherwise. The pipeline four show how much reduce-side
/// work overlapped live map tasks, how full the bounded channels got, how
/// many partition finalizations migrated between consumer threads under
/// `--finalize stealing`, and how imbalanced the per-thread finalize
/// spans were (max/mean; 1.0 is perfectly balanced); `retries` counts
/// injected faults absorbed by the retry layer under `--faults`, and
/// `dlq` the tasks dead-lettered after exhausting `--retries`. The
/// out-of-core pair show `spill` — how many sorted runs `--memory-budget`
/// forced to disk — and `peak_mb`, the peak buffered run bytes in MiB
/// (always ≤ the budget when one is set).
pub fn run_with(scale: Scale, base: &ClusterConfig) -> Table {
    let m = scale.pick(60, 300);
    let steps = scale.pick(4, 12);
    let worker_counts: &[usize] = scale.pick(&[8][..], &[8, 32][..]);

    let mut table = Table::new(
        "Figure 3 — parallelism vs capacity (U-shaped makespan)",
        &[
            "workers",
            "q",
            "reducers",
            "comm_bytes",
            "map_s",
            "shuffle_s",
            "reduce_s",
            "total_s",
            "speedup",
            "overlap_blk",
            "peak_blk",
            "stolen",
            "fin_imb",
            "retries",
            "dlq",
            "spill",
            "peak_mb",
        ],
    );

    // Few hundred multi-kilobyte inputs; reduce-dominated cluster.
    let weights = SizeDistribution::Uniform {
        lo: 2_000,
        hi: 12_000,
    }
    .sample_many(m, 5);
    let inputs = InputSet::from_weights(weights.clone());
    let total: u64 = weights.iter().sum();

    for &workers in worker_counts {
        let cluster = ClusterConfig {
            workers,
            map_rate: 512.0 * 1024.0 * 1024.0,
            reduce_rate: 1.0 * 1024.0 * 1024.0, // 1 MiB/s: reduce dominates
            network_bandwidth: 512.0 * 1024.0 * 1024.0,
            task_overhead: 0.001,
            ..base.clone()
        };
        for q in geometric_steps(26_000, (total + total / 10).max(27_000), steps) {
            let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
            let metrics = execute_a2a_schema(&weights, &schema, q, cluster.clone());
            table.push_row(&[
                &workers,
                &q,
                &schema.reducer_count(),
                &metrics.bytes_shuffled,
                &format!("{:.3}", metrics.map_makespan),
                &format!("{:.3}", metrics.shuffle_seconds),
                &format!("{:.3}", metrics.reduce_makespan),
                &format!("{:.3}", metrics.total_seconds()),
                &format!("{:.2}", metrics.speedup()),
                &metrics.pipeline.map_reduce_overlap_blocks,
                &metrics.pipeline.peak_inflight_blocks,
                &metrics.pipeline.stolen_partitions,
                &format!("{:.2}", metrics.pipeline.finalize_imbalance),
                &metrics.faults.retries(),
                &metrics.faults.dlq_len,
                &metrics.pipeline.spilled_runs,
                &format!(
                    "{:.2}",
                    metrics.pipeline.peak_buffered_bytes as f64 / (1024.0 * 1024.0)
                ),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendered table without its eight trailing execution
    /// diagnostics: the header and every simulated column.
    fn strip(table: &Table) -> Vec<String> {
        table
            .render()
            .lines()
            .skip(1)
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[..cols.len() - 8].join(" ")
            })
            .collect()
    }

    /// Map threads change nothing at all under the materialized engine
    /// (its diagnostics stay zero), and switching to the pipelined engine
    /// leaves every simulated column untouched.
    #[test]
    fn engine_knobs_do_not_change_recorded_numbers() {
        use mrassign_simmr::ShuffleMode;
        let base = run(Scale::Smoke);
        let threaded = run_with(
            Scale::Smoke,
            &ClusterConfig {
                map_threads: 4,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(base.render(), threaded.render());
        let pipelined = run_with(
            Scale::Smoke,
            &ClusterConfig {
                map_threads: 4,
                shuffle: ShuffleMode::Pipelined,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(strip(&base), strip(&pipelined));
    }

    /// Under the pipelined engine (under fault injection, and under a
    /// tight memory budget) the simulated columns stay identical to the
    /// materialized fault-free unbudgeted baseline; only the eight
    /// trailing diagnostics may differ (they are zero under the default
    /// configuration and run-dependent otherwise).
    #[test]
    fn pipelined_knobs_keep_simulated_columns_identical() {
        use mrassign_simmr::{FaultPlan, FinalizeMode, ShuffleMode};
        let base = run(Scale::Smoke);
        let stripped_base = strip(&base);
        for finalize in FinalizeMode::ALL {
            let pipelined = run_with(
                Scale::Smoke,
                &ClusterConfig {
                    map_threads: 4,
                    shuffle: ShuffleMode::Pipelined,
                    finalize_mode: finalize,
                    ..ClusterConfig::default()
                },
            );
            assert_eq!(stripped_base, strip(&pipelined), "{finalize:?}");
        }
        // Injected faults burn retries without moving a recorded number.
        let faulted = run_with(
            Scale::Smoke,
            &ClusterConfig {
                retry_budget: 8,
                fault_plan: Some(FaultPlan::seeded(23, 0.2)),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(stripped_base, strip(&faulted), "faulted");
        let total_retries: u64 = faulted
            .render()
            .lines()
            .skip(2)
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[cols.len() - 4].parse::<u64>().unwrap()
            })
            .sum();
        assert!(total_retries > 0, "seed 23 at rate 0.2 must fire");
        // A tight memory budget forces the pipelined engine out of core
        // without moving a recorded number, and the spill column proves
        // the out-of-core path actually ran.
        let budgeted = run_with(
            Scale::Smoke,
            &ClusterConfig {
                map_threads: 4,
                shuffle: ShuffleMode::Pipelined,
                finalize_mode: FinalizeMode::Stealing,
                memory_budget: Some(4096),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(stripped_base, strip(&budgeted), "budgeted");
        let total_spills: u64 = budgeted
            .render()
            .lines()
            .skip(2)
            .map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols[cols.len() - 2].parse::<u64>().unwrap()
            })
            .sum();
        assert!(total_spills > 0, "a 4 KiB budget must spill at this scale");
        // The baseline's diagnostics are all zero: no overlap, no peak, no
        // stolen partitions, no finalize-imbalance measurement, no
        // retries, nothing dead-lettered, no spills, nothing buffered.
        for line in base.render().lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[cols.len() - 8], "0");
            assert_eq!(cols[cols.len() - 7], "0");
            assert_eq!(cols[cols.len() - 6], "0");
            assert_eq!(cols[cols.len() - 5], "0.00");
            assert_eq!(cols[cols.len() - 4], "0");
            assert_eq!(cols[cols.len() - 3], "0");
            assert_eq!(cols[cols.len() - 2], "0");
            assert_eq!(cols[cols.len() - 1], "0.00");
        }
    }

    #[test]
    fn smoke_produces_rows_with_positive_times() {
        let table = run(Scale::Smoke);
        assert!(table.len() >= 3);
        for line in table.render().lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let total: f64 = cols[7].parse().unwrap();
            assert!(total > 0.0);
        }
    }

    #[test]
    fn extremes_are_slower_than_the_interior() {
        // The U-shape: the best total time is strictly inside the sweep
        // (neither the smallest nor the largest q).
        let table = run(Scale::Smoke);
        let totals: Vec<f64> = table
            .render()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().nth(7).unwrap().parse().unwrap())
            .collect();
        let best = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(totals[0] > best, "smallest q should not be optimal");
        assert!(
            *totals.last().unwrap() > best,
            "largest q should not be optimal"
        );
    }
}
