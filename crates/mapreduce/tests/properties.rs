//! Property-based tests for the simulated engine: for arbitrary inputs and
//! cluster shapes, accounting identities hold, execution is deterministic
//! across thread counts, and the scheduler respects its analytical bounds.

use mrassign_simmr::{
    BroadcastRouter, CapacityPolicy, ClusterConfig, DlqEntry, DlqMode, Emitter, FaultPlan,
    FaultStage, FinalizeMode, HashRouter, Job, Mapper, Reducer, Router, Schedule, ShuffleMode,
    SimError, TaskCost,
};
use proptest::prelude::*;

/// Identity-style mapper over (key, payload) records.
struct KvMapper;

impl Mapper for KvMapper {
    type In = (u64, String);
    type Key = u64;
    type Value = String;
    fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, String>) {
        emit.emit(input.0, input.1.clone());
    }
}

/// Counts values and sums payload bytes per key.
struct CountBytes;

impl Reducer for CountBytes {
    type Key = u64;
    type Value = String;
    type Out = (u64, u64, u64);
    fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, u64, u64)>) {
        out.push((
            *key,
            values.len() as u64,
            values.iter().map(|v| v.len() as u64).sum(),
        ));
    }
}

fn records() -> impl Strategy<Value = Vec<(u64, String)>> {
    proptest::collection::vec((0u64..40, "[a-z]{0,12}"), 0..80)
}

/// The partition [`HashRouter`] sends `key` to, recomputed outside the
/// engine so the fault properties can derive expected DLQ contents and
/// surviving outputs independently of the code under test.
fn hash_partition(key: u64, n_reducers: usize) -> usize {
    let mut targets = Vec::new();
    HashRouter::new().route(&key, n_reducers, &mut targets);
    targets[0]
}

/// Reducer partitions that receive at least one record from `inputs`
/// under [`HashRouter`] — the partitions whose reduce task actually runs
/// (and can therefore be poisoned).
fn nonempty_partitions(inputs: &[(u64, String)], n_reducers: usize) -> Vec<usize> {
    let mut hit = vec![false; n_reducers];
    for (key, _) in inputs {
        hit[hash_partition(*key, n_reducers)] = true;
    }
    (0..n_reducers).filter(|&p| hit[p]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_routed_jobs_preserve_every_record(inputs in records()) {
        let job = Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig::default());
        let result = job.run(&inputs).unwrap();
        // Every record is shuffled exactly once and reduced exactly once.
        prop_assert_eq!(result.metrics.records_emitted, inputs.len() as u64);
        prop_assert_eq!(result.metrics.records_shuffled, inputs.len() as u64);
        let reduced: u64 = result.outputs.iter().map(|&(_, n, _)| n).sum();
        prop_assert_eq!(reduced, inputs.len() as u64);
        // Byte identity: shuffled bytes = keys (8 each) + payload bytes.
        let payload: u64 = inputs.iter().map(|(_, p)| p.len() as u64).sum();
        prop_assert_eq!(result.metrics.bytes_shuffled, payload + 8 * inputs.len() as u64);
        // Value-byte identity across partitions.
        let loads: u64 = result.metrics.reducer_value_bytes.iter().sum();
        prop_assert_eq!(loads, payload);
    }

    #[test]
    fn thread_count_never_changes_results(inputs in records()) {
        let run = |threads| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
                map_threads: threads,
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        let a = run(1);
        let b = run(3);
        let c = run(8);
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.outputs, &c.outputs);
        prop_assert_eq!(&a.metrics, &b.metrics);
        prop_assert_eq!(&b.metrics, &c.metrics);
    }

    #[test]
    fn shuffle_mode_never_changes_results(inputs in records(), n_red in 1usize..90) {
        let run = |shuffle| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig {
                shuffle,
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        let materialized = run(ShuffleMode::Materialized);
        let pipelined = run(ShuffleMode::Pipelined);
        prop_assert_eq!(&materialized.outputs, &pipelined.outputs);
        prop_assert_eq!(materialized.metrics.deterministic(), pipelined.metrics.deterministic());
    }

    /// Pipeline internals under random shapes: for arbitrary inputs,
    /// reducer counts, mapper thread counts, and `pipeline_depth` ∈ 1..=8
    /// the engine (a) terminates — depth 1 is maximal back-pressure, so
    /// this is the deadlock canary; (b) never reorders a reducer's blocks
    /// (the concatenating reducer output is order-sensitive and must match
    /// the materialized pass byte for byte); and (c) respects the
    /// back-pressure bound `peak_inflight_blocks ≤ pipeline_depth ×
    /// consumer_groups`.
    #[test]
    fn pipelined_is_deadlock_free_order_preserving_and_bounded(
        inputs in records(),
        n_red in 1usize..90,
        threads in 1usize..5,
        depth in 1usize..9,
    ) {
        struct Concat;
        impl Reducer for Concat {
            type Key = u64;
            type Value = String;
            type Out = (u64, String);
            fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
                out.push((*key, values.join("|")));
            }
        }
        let run = |shuffle, map_threads, pipeline_depth| {
            Job::new(KvMapper, Concat, HashRouter::new(), n_red, ClusterConfig {
                shuffle,
                map_threads,
                pipeline_depth,
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        let reference = run(ShuffleMode::Materialized, 1, depth);
        let pipelined = run(ShuffleMode::Pipelined, threads, depth);
        prop_assert_eq!(&reference.outputs, &pipelined.outputs);
        prop_assert_eq!(
            reference.metrics.deterministic(),
            pipelined.metrics.deterministic()
        );
        let p = &pipelined.metrics.pipeline;
        prop_assert!(p.consumer_groups >= 1);
        prop_assert!(
            p.peak_inflight_blocks <= depth as u64 * p.consumer_groups,
            "peak {} > depth {} × groups {}",
            p.peak_inflight_blocks, depth, p.consumer_groups
        );
        // The default finalize mode is static: no partition may ever be
        // reported as stolen, and every group reports a finalize span.
        prop_assert_eq!(p.stolen_partitions, 0);
        prop_assert_eq!(p.finalize_group_seconds.len() as u64, p.consumer_groups);
        prop_assert!(p.finalize_imbalance >= 1.0);
        if inputs.is_empty() {
            prop_assert_eq!(p.blocks_sent, 0);
        } else {
            prop_assert!(p.blocks_sent >= 1);
            prop_assert!(p.peak_inflight_blocks >= 1);
        }
    }

    /// Hot-reducer skew (the work-stealing finalize's reason to exist):
    /// rewrite ~80% of the keys onto one heavy hitter so one partition
    /// receives ~all bytes, then require (a) both finalize modes match
    /// the materialized pass byte for byte with an order-sensitive
    /// reducer, and (b) `stolen_partitions = 0` whenever
    /// `finalize_mode = static`.
    #[test]
    fn hot_reducer_finalize_modes_agree_and_static_never_steals(
        inputs in records(),
        n_red in 2usize..40,
        threads in 1usize..5,
        depth in 1usize..5,
    ) {
        struct Concat;
        impl Reducer for Concat {
            type Key = u64;
            type Value = String;
            type Out = (u64, String);
            fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
                out.push((*key, values.join("|")));
            }
        }
        let skewed: Vec<(u64, String)> = inputs
            .into_iter()
            .map(|(k, payload)| (if k % 5 != 0 { 0 } else { k }, payload))
            .collect();
        let run = |shuffle, finalize_mode| {
            Job::new(KvMapper, Concat, HashRouter::new(), n_red, ClusterConfig {
                shuffle,
                map_threads: threads,
                pipeline_depth: depth,
                finalize_mode,
                ..ClusterConfig::default()
            })
            .run(&skewed)
            .unwrap()
        };
        let reference = run(ShuffleMode::Materialized, FinalizeMode::Static);
        for finalize in FinalizeMode::ALL {
            let pipelined = run(ShuffleMode::Pipelined, finalize);
            prop_assert_eq!(&reference.outputs, &pipelined.outputs);
            prop_assert_eq!(
                reference.metrics.deterministic(),
                pipelined.metrics.deterministic()
            );
            let p = &pipelined.metrics.pipeline;
            if finalize == FinalizeMode::Static {
                prop_assert_eq!(p.stolen_partitions, 0, "static finalize must never steal");
            }
            prop_assert!(p.finalize_imbalance >= 1.0);
        }
    }

    #[test]
    fn broadcast_multiplies_exactly_by_reducers(inputs in records(), n_red in 1usize..7) {
        let job = Job::new(KvMapper, CountBytes, BroadcastRouter, n_red, ClusterConfig::default());
        let result = job.run(&inputs).unwrap();
        prop_assert_eq!(
            result.metrics.records_shuffled,
            inputs.len() as u64 * n_red as u64
        );
        if !inputs.is_empty() {
            prop_assert!((result.metrics.replication_rate() - n_red as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn recorded_violations_match_loads(inputs in records(), q in 0u64..200) {
        let job = Job::new(KvMapper, CountBytes, HashRouter::new(), 4, ClusterConfig::default())
            .capacity(CapacityPolicy::Record(q));
        let result = job.run(&inputs).unwrap();
        let expected: Vec<usize> = result
            .metrics
            .reducer_value_bytes
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > q)
            .map(|(r, _)| r)
            .collect();
        prop_assert_eq!(result.metrics.capacity_violations, expected);
    }

    #[test]
    fn enforce_agrees_with_record(inputs in records(), q in 0u64..200) {
        let record = Job::new(KvMapper, CountBytes, HashRouter::new(), 4, ClusterConfig::default())
            .capacity(CapacityPolicy::Record(q))
            .run(&inputs)
            .unwrap();
        let enforce = Job::new(KvMapper, CountBytes, HashRouter::new(), 4, ClusterConfig::default())
            .capacity(CapacityPolicy::Enforce(q))
            .run(&inputs);
        prop_assert_eq!(
            enforce.is_err(),
            !record.metrics.capacity_violations.is_empty()
        );
    }

    #[test]
    fn total_time_between_ideal_and_serial(inputs in records(), workers in 1usize..9) {
        let job = Job::new(KvMapper, CountBytes, HashRouter::new(), 4, ClusterConfig {
            workers,
            ..ClusterConfig::default()
        });
        let m = job.run(&inputs).unwrap().metrics;
        prop_assert!(m.total_seconds() <= m.serial_seconds + 1e-9);
        prop_assert!(m.serial_seconds <= m.total_seconds() * workers as f64 + 1e-9);
    }

    #[test]
    fn lpt_respects_analytic_bounds(durations in proptest::collection::vec(0.0f64..10.0, 0..40),
                                    workers in 1usize..8) {
        let tasks: Vec<TaskCost> = durations.iter().map(|&d| TaskCost(d)).collect();
        let s = Schedule::lpt(&tasks, workers);
        let total: f64 = durations.iter().sum();
        let longest = durations.iter().cloned().fold(0.0, f64::max);
        let lower = (total / workers as f64).max(longest);
        prop_assert!(s.makespan >= lower - 1e-9);
        // LPT guarantee: makespan ≤ (4/3 − 1/3w)·OPT ≤ 4/3·(LB + longest).
        prop_assert!(s.makespan <= lower * 4.0 / 3.0 + longest + 1e-9);
        prop_assert!((s.total_work - total).abs() < 1e-6);
    }

    /// Random transient-fault schedules that stay under the retry budget
    /// are invisible: the engine never deadlocks (pipeline depth 1 is the
    /// maximal back-pressure canary), never reorders (the concatenating
    /// comparison in deterministic metrics + outputs), and never drops a
    /// record — every mode matches the fault-free materialized reference
    /// bit for bit, with the faults showing only in the masked counters.
    /// Rates are capped at 0.3 against a budget of 12, so the chance any
    /// task exhausts the budget is ≤ 0.3¹³ ≈ 1.6·10⁻⁷ per task.
    #[test]
    fn bounded_fault_schedules_never_deadlock_or_reorder(
        inputs in records(),
        seed in any::<u64>(),
        map_rate in 0.0f64..0.3,
        reduce_rate in 0.0f64..0.3,
        threads in 1usize..5,
    ) {
        let run = |shuffle, finalize_mode, plan: Option<FaultPlan>| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
                shuffle,
                map_threads: threads,
                pipeline_depth: 1,
                finalize_mode,
                retry_budget: 12,
                fault_plan: plan,
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        let plan = FaultPlan {
            map_rate,
            reduce_rate,
            ..FaultPlan::seeded(seed, 0.0)
        };
        let reference = run(ShuffleMode::Materialized, FinalizeMode::Static, None);
        let faulted = run(ShuffleMode::Materialized, FinalizeMode::Static, Some(plan.clone()));
        prop_assert_eq!(&reference.outputs, &faulted.outputs);
        prop_assert_eq!(reference.metrics.deterministic(), faulted.metrics.deterministic());
        prop_assert!(faulted.dlq.is_empty());
        for finalize in FinalizeMode::ALL {
            let faulted = run(ShuffleMode::Pipelined, finalize, Some(plan.clone()));
            prop_assert_eq!(&reference.outputs, &faulted.outputs);
            prop_assert_eq!(reference.metrics.deterministic(), faulted.metrics.deterministic());
            prop_assert!(faulted.dlq.is_empty());
        }
    }

    /// Poison schedules that exceed the budget surface a *named*
    /// [`SimError::RetriesExhausted`] under [`DlqMode::Fail`], following
    /// the engine's cross-mode error precedence: the lowest poisoned map
    /// task wins; otherwise the lowest poisoned partition that actually
    /// receives records. Out-of-range poison entries and empty partitions
    /// never fire. Every mode reports the identical error.
    #[test]
    fn over_budget_poison_names_the_task_in_fail_mode(
        inputs in records(),
        raw_poison_map in proptest::collection::vec(0usize..90, 0..4),
        raw_poison_reduce in proptest::collection::vec(0usize..5, 0..3),
        budget in 0u32..4,
    ) {
        let mut poison_map = raw_poison_map;
        poison_map.sort_unstable();
        poison_map.dedup();
        let mut poison_reduce = raw_poison_reduce;
        poison_reduce.sort_unstable();
        poison_reduce.dedup();
        let plan = FaultPlan {
            poison_map_tasks: poison_map.clone(),
            poison_reduce_tasks: poison_reduce.clone(),
            ..FaultPlan::default()
        };
        let run = |shuffle, finalize_mode| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
                shuffle,
                map_threads: 2,
                pipeline_depth: 1,
                finalize_mode,
                retry_budget: budget,
                fault_plan: Some(plan.clone()),
                ..ClusterConfig::default()
            })
            .run(&inputs)
        };
        let first_map = poison_map.iter().copied().find(|&t| t < inputs.len());
        let nonempty = nonempty_partitions(&inputs, 5);
        let first_reduce = poison_reduce.iter().copied().find(|p| nonempty.contains(p));
        let expected = match (first_map, first_reduce) {
            (Some(index), _) => Some(SimError::RetriesExhausted {
                stage: FaultStage::Map, index, attempts: budget + 1,
            }),
            (None, Some(index)) => Some(SimError::RetriesExhausted {
                stage: FaultStage::Reduce, index, attempts: budget + 1,
            }),
            (None, None) => None,
        };
        for (shuffle, finalize) in [
            (ShuffleMode::Materialized, FinalizeMode::Static),
            (ShuffleMode::Pipelined, FinalizeMode::Static),
            (ShuffleMode::Pipelined, FinalizeMode::Stealing),
        ] {
            let label = format!("{shuffle:?}/{finalize:?}");
            match (&expected, run(shuffle, finalize)) {
                (Some(want), Err(got)) => prop_assert_eq!(want, &got, "{}", label),
                (None, Ok(_)) => {}
                (want, got) => panic!("{label}: expected {want:?}, got {got:?}"),
            }
        }
    }

    /// Under [`DlqMode::Capture`] exactly the poisoned work lands in the
    /// dead-letter queue — never a silent drop, never an extra entry —
    /// and everything unpoisoned is preserved: the outputs equal a clean
    /// run over the surviving inputs, filtered to the surviving
    /// partitions. Identical in every mode.
    #[test]
    fn capture_mode_dead_letters_exactly_the_poisoned_work(
        inputs in records(),
        raw_poison_map in proptest::collection::vec(0usize..90, 0..4),
        raw_poison_reduce in proptest::collection::vec(0usize..5, 0..3),
        budget in 0u32..4,
    ) {
        let mut poison_map = raw_poison_map;
        poison_map.sort_unstable();
        poison_map.dedup();
        let mut poison_reduce = raw_poison_reduce;
        poison_reduce.sort_unstable();
        poison_reduce.dedup();
        let plan = FaultPlan {
            poison_map_tasks: poison_map.clone(),
            poison_reduce_tasks: poison_reduce.clone(),
            ..FaultPlan::default()
        };
        let run = |shuffle, finalize_mode| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
                shuffle,
                map_threads: 2,
                pipeline_depth: 1,
                finalize_mode,
                retry_budget: budget,
                dlq_mode: DlqMode::Capture,
                fault_plan: Some(plan.clone()),
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        // Derive the expected DLQ and outputs independently: drop the
        // poisoned map tasks, see which partitions still receive records,
        // and re-run the engine fault-free on the survivors.
        let surviving: Vec<(u64, String)> = inputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !poison_map.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        let mut expected_dlq: Vec<DlqEntry> = poison_map
            .iter()
            .copied()
            .filter(|&t| t < inputs.len())
            .map(|index| DlqEntry { stage: FaultStage::Map, index, attempts: budget + 1 })
            .collect();
        let nonempty = nonempty_partitions(&surviving, 5);
        expected_dlq.extend(
            poison_reduce
                .iter()
                .copied()
                .filter(|p| nonempty.contains(p))
                .map(|index| DlqEntry { stage: FaultStage::Reduce, index, attempts: budget + 1 }),
        );
        let clean = Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig::default())
            .run(&surviving)
            .unwrap();
        let expected_outputs: Vec<(u64, u64, u64)> = clean
            .outputs
            .into_iter()
            .filter(|(key, _, _)| !poison_reduce.contains(&hash_partition(*key, 5)))
            .collect();
        for (shuffle, finalize) in [
            (ShuffleMode::Materialized, FinalizeMode::Static),
            (ShuffleMode::Pipelined, FinalizeMode::Static),
            (ShuffleMode::Pipelined, FinalizeMode::Stealing),
        ] {
            let label = format!("{shuffle:?}/{finalize:?}");
            let out = run(shuffle, finalize);
            prop_assert_eq!(&expected_dlq, &out.dlq, "{}: DLQ mismatch", label);
            prop_assert_eq!(&expected_outputs, &out.outputs, "{}: outputs mismatch", label);
            prop_assert_eq!(
                out.metrics.faults.dlq_len,
                expected_dlq.len() as u64,
                "{}: dlq_len mismatch", label
            );
        }
    }

    #[test]
    fn zero_capacity_flags_any_nonempty_reducer(inputs in records()) {
        let job = Job::new(KvMapper, CountBytes, HashRouter::new(), 4, ClusterConfig::default())
            .capacity(CapacityPolicy::Record(0));
        let result = job.run(&inputs).unwrap();
        let nonzero_loads = result
            .metrics
            .reducer_value_bytes
            .iter()
            .filter(|&&b| b > 0)
            .count();
        prop_assert_eq!(result.metrics.capacity_violations.len(), nonzero_loads);
    }
}

// ---------------------------------------------------------------------------
// Out-of-core spill properties: for arbitrary workloads, budgets, thread
// counts, and pipeline depths the budget is a hard bound on buffered run
// bytes, spilling never changes a byte of output, and the spill directory
// is empty again after success, error, and user-panic runs alike.
// ---------------------------------------------------------------------------

/// Nonempty record sets for the spill properties (an empty workload cannot
/// spill, which would make the forcing properties vacuous).
fn nonempty_records() -> impl Strategy<Value = Vec<(u64, String)>> {
    proptest::collection::vec((0u64..40, "[a-z]{0,12}"), 1..80)
}

/// A fresh scratch directory per case so concurrent proptest cases cannot
/// see each other's temp files.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mrassign-props-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir must be creatable");
    dir
}

/// Asserts the scratch directory holds no leftover spill files, then
/// removes it.
fn assert_empty_and_remove(dir: &std::path::Path, context: &str) {
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("scratch dir must be readable")
        .map(|e| e.expect("dir entry must be readable").file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "{context}: spill files leaked: {leftovers:?}"
    );
    std::fs::remove_dir_all(dir).expect("scratch dir must be removable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The budget is a hard bound: whatever the workload, thread count,
    /// pipeline depth, finalize mode, and budget, the engine never reports
    /// more buffered run bytes than it was allowed — and the output still
    /// matches the unbudgeted materialized reference bit for bit.
    #[test]
    fn peak_buffered_never_exceeds_the_budget(
        inputs in records(),
        n_red in 1usize..40,
        threads in 1usize..5,
        depth in 1usize..5,
        budget in 1u64..600,
    ) {
        let reference = Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig::default())
            .run(&inputs)
            .unwrap();
        for finalize_mode in FinalizeMode::ALL {
            let out = Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: threads,
                pipeline_depth: depth,
                finalize_mode,
                memory_budget: Some(budget),
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap();
            prop_assert_eq!(&reference.outputs, &out.outputs);
            prop_assert_eq!(
                reference.metrics.deterministic(),
                out.metrics.deterministic()
            );
            let p = &out.metrics.pipeline;
            prop_assert!(
                p.peak_buffered_bytes <= budget,
                "peak {} > budget {} ({:?})",
                p.peak_buffered_bytes, budget, finalize_mode
            );
        }
    }

    /// A budget strictly above the unbounded run's peak never spills: the
    /// budget only bites when buffered bytes would actually exceed it.
    /// (`map_threads = 1` keeps block arrival order — and therefore the
    /// unbounded peak — deterministic, so the derived budget is exact.)
    #[test]
    fn budget_above_the_unbounded_peak_never_spills(
        inputs in records(),
        n_red in 1usize..40,
        depth in 1usize..5,
    ) {
        let run = |memory_budget| {
            Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: 1,
                pipeline_depth: depth,
                memory_budget,
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap()
        };
        let unbounded = run(None);
        prop_assert_eq!(unbounded.metrics.pipeline.spilled_runs, 0);
        let peak = unbounded.metrics.pipeline.peak_buffered_bytes;
        let bounded = run(Some(peak + 1));
        prop_assert_eq!(
            bounded.metrics.pipeline.spilled_runs, 0,
            "budget {} above peak {} must never spill", peak + 1, peak
        );
        prop_assert_eq!(bounded.metrics.pipeline.spilled_bytes, 0);
        prop_assert_eq!(&unbounded.outputs, &bounded.outputs);
    }

    /// A one-byte budget cannot hold even a single record (every key alone
    /// is 8 bytes), so any nonempty workload is forced out of core — and
    /// the output still matches the materialized reference exactly.
    #[test]
    fn tiny_budget_forces_spills_without_changing_output(
        inputs in nonempty_records(),
        n_red in 1usize..40,
        threads in 1usize..5,
    ) {
        let reference = Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig::default())
            .run(&inputs)
            .unwrap();
        for finalize_mode in FinalizeMode::ALL {
            let out = Job::new(KvMapper, CountBytes, HashRouter::new(), n_red, ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: threads,
                finalize_mode,
                memory_budget: Some(1),
                ..ClusterConfig::default()
            })
            .run(&inputs)
            .unwrap();
            let p = &out.metrics.pipeline;
            prop_assert!(p.spilled_runs > 0, "a 1-byte budget must spill ({finalize_mode:?})");
            prop_assert!(p.spilled_bytes > 0);
            prop_assert!(p.peak_buffered_bytes <= 1);
            prop_assert_eq!(&reference.outputs, &out.outputs);
            prop_assert_eq!(
                reference.metrics.deterministic(),
                out.metrics.deterministic()
            );
        }
    }

    /// Spill temp files never outlive the job. After a successful spilling
    /// run, after a run that fails with a named error, and after a run the
    /// user's own reducer panics out of, the configured spill directory is
    /// empty again — the RAII guards hold on every exit path.
    #[test]
    fn spill_dir_is_empty_after_success_error_and_panic(
        inputs in nonempty_records(),
        threads in 1usize..5,
    ) {
        let base = ClusterConfig {
            shuffle: ShuffleMode::Pipelined,
            map_threads: threads,
            memory_budget: Some(1),
            ..ClusterConfig::default()
        };

        // Success path.
        let dir = scratch_dir("ok");
        let out = Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
            spill_dir: Some(dir.clone()),
            ..base.clone()
        })
        .run(&inputs)
        .unwrap();
        prop_assert!(out.metrics.pipeline.spilled_runs > 0);
        assert_empty_and_remove(&dir, "success");

        // Error path: zero-capacity enforcement names an error after the
        // pipeline (and its spills) already ran.
        let dir = scratch_dir("err");
        let result = Job::new(KvMapper, CountBytes, HashRouter::new(), 5, ClusterConfig {
            spill_dir: Some(dir.clone()),
            ..base.clone()
        })
        .capacity(CapacityPolicy::Enforce(0))
        .run(&inputs);
        prop_assert!(result.is_err(), "zero capacity must fail on nonempty input");
        assert_empty_and_remove(&dir, "error");

        // Panic path: the user's reducer panics mid-finalize, after runs
        // have spilled; unwinding must still drop every temp file.
        struct PanickingReducer;
        impl Reducer for PanickingReducer {
            type Key = u64;
            type Value = String;
            type Out = ();
            fn reduce(&self, _: &u64, _: &[String], _: &mut Vec<()>) {
                panic!("user reducer panic (injected by test)");
            }
        }
        let dir = scratch_dir("panic");
        let job = Job::new(KvMapper, PanickingReducer, HashRouter::new(), 5, ClusterConfig {
            spill_dir: Some(dir.clone()),
            ..base
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(&inputs)));
        prop_assert!(result.is_err(), "the injected reducer panic must surface");
        assert_empty_and_remove(&dir, "panic");
    }
}
