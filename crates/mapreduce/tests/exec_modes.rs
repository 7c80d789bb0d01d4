//! The differential oracle for the execution engine: every shuffle mode,
//! finalize mode, thread count, and capacity policy must produce a
//! bit-identical [`JobOutput`] — outputs *and* the deterministic metrics
//! subset — on four structurally different workloads:
//!
//! * **word count** — a combiner-bearing aggregation with heavy key reuse,
//!   over short lines and a few long documents, so that map tasks are
//!   grouped both by sort and by hash,
//! * **skew join** — two tagged relations with zipf-ish key skew and
//!   multi-target (replicated) routing,
//! * **boundary schemas** — `SizeDistribution::Boundary` weights solved
//!   into an A2A mapping schema and executed via `DirectRouter`, the
//!   adversarial q/2-straddling family from the paper,
//! * **hot reducer** — a heavy-hitter key routing ~all bytes to one
//!   partition (in the spirit of Fan et al.'s key-distribution skew),
//!   the workload the work-stealing finalize exists for.
//!
//! The reference cell of the matrix is `Materialized × 1 thread`; every
//! other cell (`{Materialized, Pipelined × {static, stealing}} × threads
//! {1,2,4} × {Unlimited, Record, Enforce}`) is compared against it. This
//! is the harness that pins the overlapped pipeline engine: if its
//! reassembly, finalize scheduling, accounting, or error handling drifts
//! by one byte, a cell differs.

use mrassign_core::{a2a, InputSet};
use mrassign_simmr::{
    pipeline::CHANNEL_DEPTH, BroadcastRouter, ByteSized, CapacityPolicy, ClusterConfig,
    DirectRouter, Emitter, FaultPlan, FinalizeMode, HashRouter, Job, JobOutput, Mapper, Reducer,
    Router, ShuffleMode, SimError, SpillCodec,
};
use mrassign_workloads::SizeDistribution;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every engine cell: the materialized shuffle (for which the finalize
/// mode is inert) plus the pipelined engine under both finalize
/// schedulers.
const CELLS: [(ShuffleMode, FinalizeMode); 3] = [
    (ShuffleMode::Materialized, FinalizeMode::Static),
    (ShuffleMode::Pipelined, FinalizeMode::Static),
    (ShuffleMode::Pipelined, FinalizeMode::Stealing),
];
const THREADS: [usize; 3] = [1, 2, 4];

fn cluster(shuffle: ShuffleMode, finalize: FinalizeMode, map_threads: usize) -> ClusterConfig {
    ClusterConfig {
        shuffle,
        map_threads,
        finalize_mode: finalize,
        ..ClusterConfig::default()
    }
}

/// Runs one cell and compares it against the reference, asserting output
/// and deterministic-metric identity (or identical errors).
fn assert_cell_matches<Out: PartialEq + std::fmt::Debug>(
    reference: &Result<JobOutput<Out>, SimError>,
    cell: Result<JobOutput<Out>, SimError>,
    label: &str,
) {
    match (reference, cell) {
        (Ok(r), Ok(c)) => {
            assert_eq!(r.outputs, c.outputs, "{label}: outputs diverged");
            assert_eq!(
                r.metrics.deterministic(),
                c.metrics.deterministic(),
                "{label}: deterministic metrics diverged"
            );
        }
        (Err(r), Err(c)) => assert_eq!(*r, c, "{label}: errors diverged"),
        (r, c) => panic!("{label}: one mode failed, the other did not: {r:?} vs {c:?}"),
    }
}

/// Sweeps the full matrix for one job constructor.
fn sweep_matrix<Out, F>(policies: &[CapacityPolicy], run: F)
where
    Out: PartialEq + std::fmt::Debug,
    F: Fn(ShuffleMode, FinalizeMode, usize, CapacityPolicy) -> Result<JobOutput<Out>, SimError>,
{
    for &policy in policies {
        let reference = run(ShuffleMode::Materialized, FinalizeMode::Static, 1, policy);
        for (mode, finalize) in CELLS {
            for threads in THREADS {
                let label = format!("{mode:?}/{finalize:?} × threads={threads} × {policy:?}");
                assert_cell_matches(&reference, run(mode, finalize, threads, policy), &label);
            }
        }
    }
}

/// The seeded transient-fault schedule the fault sweeps inject. At rate
/// 0.2 with a budget of 8 retries, the chance any single task burns
/// through the whole budget is 0.2⁹ ≈ 5·10⁻⁷ — so every sweep completes —
/// while the schedule itself is a pure function of the seed, so whether
/// (and where) faults fire is reproducible, not probabilistic.
fn sweep_fault_plan() -> FaultPlan {
    FaultPlan::seeded(23, 0.2)
}

/// Sweeps every engine cell *under injected faults* against the fault-free
/// single-threaded materialized reference: the retry layer must replay the
/// deterministic tasks until outputs and the deterministic metrics subset
/// are bit-identical to a run where nothing ever failed, and the masked
/// fault counters must show the faults actually fired. The retry and DLQ
/// counters are pinned too: every cell burns exactly the retries the
/// faulted `Materialized × 1` run burns, since both engines walk each
/// task's attempt loop once.
fn sweep_faulted<Out, F>(run: F)
where
    Out: PartialEq + std::fmt::Debug,
    F: Fn(ShuffleMode, FinalizeMode, usize, Option<FaultPlan>) -> Result<JobOutput<Out>, SimError>,
{
    let reference = run(ShuffleMode::Materialized, FinalizeMode::Static, 1, None);
    assert!(
        reference.is_ok(),
        "the fault sweep workloads are all clean-run feasible"
    );
    let faulted_reference = run(
        ShuffleMode::Materialized,
        FinalizeMode::Static,
        1,
        Some(sweep_fault_plan()),
    )
    .expect("budget 8 absorbs every fault in the reference cell")
    .metrics
    .faults;
    for (mode, finalize) in CELLS {
        for threads in THREADS {
            let label = format!("faulted {mode:?}/{finalize:?} × threads={threads}");
            let cell = run(mode, finalize, threads, Some(sweep_fault_plan()));
            if let Ok(out) = &cell {
                let faults = &out.metrics.faults;
                assert!(
                    faults.retries() > 0,
                    "{label}: seed 23 at rate 0.2 must inject at least one fault"
                );
                assert!(out.dlq.is_empty(), "{label}: budget 8 absorbs every fault");
                assert_eq!(
                    (faults.map_retries, faults.reduce_retries, faults.dlq_len),
                    (
                        faulted_reference.map_retries,
                        faulted_reference.reduce_retries,
                        faulted_reference.dlq_len
                    ),
                    "{label}: retry accounting diverged from the faulted reference"
                );
            }
            assert_cell_matches(&reference, cell, &label);
        }
    }
}

// ---------------------------------------------------------------------------
// Workload 1: word count (combiner, heavy key reuse)
// ---------------------------------------------------------------------------

struct Tokenize;
impl Mapper for Tokenize {
    type In = String;
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
        for word in line.split_whitespace() {
            emit.emit(word.to_string(), 1);
        }
    }
    fn combine(&self, _key: &String, values: &[u64]) -> Option<u64> {
        Some(values.iter().sum())
    }
}

struct Count;
impl Reducer for Count {
    type Key = String;
    type Value = u64;
    type Out = (String, u64);
    fn reduce(&self, key: &String, values: &[u64], out: &mut Vec<(String, u64)>) {
        out.push((key.clone(), values.iter().sum()));
    }
}

fn word_lines() -> Vec<String> {
    // Deterministic synthetic text with zipf-flavored word frequencies.
    (0..240)
        .map(|i: u64| {
            let mut words = Vec::new();
            for j in 0..(3 + i % 9) {
                let rank = (i * 31 + j * 17) % 97;
                words.push(format!("w{}", rank * rank % 53));
            }
            words.join(" ")
        })
        .collect()
}

/// Word count's inputs for the suites that must reach both of the
/// engine's grouping paths: [`word_lines`], whose tasks emit at most 11
/// pairs and are grouped by a sort, then three long documents of 700 to
/// 1,000 words, more than the 512 pairs from which a task's emissions are
/// grouped by hash.
fn wc_inputs() -> Vec<String> {
    let mut lines = word_lines();
    lines.extend((0..3u64).map(|d| {
        let words: Vec<String> = (0..700 + 150 * d)
            .map(|j| format!("w{}", (j * j + 13 * d) % 89 % 61))
            .collect();
        words.join(" ")
    }));
    lines
}

#[test]
fn word_count_identical_across_the_matrix() {
    let lines = wc_inputs();
    sweep_matrix(
        &[
            CapacityPolicy::Unlimited,
            CapacityPolicy::Record(200),
            CapacityPolicy::Enforce(1_000_000),
        ],
        |mode, finalize, threads, policy| {
            Job::new(
                Tokenize,
                Count,
                HashRouter::new(),
                11,
                cluster(mode, finalize, threads),
            )
            .capacity(policy)
            .run(&lines)
        },
    );
}

#[test]
fn word_count_enforce_violation_identical_across_the_matrix() {
    let lines = word_lines();
    sweep_matrix(
        &[CapacityPolicy::Enforce(50)],
        |mode, finalize, threads, policy| {
            Job::new(
                Tokenize,
                Count,
                HashRouter::new(),
                11,
                cluster(mode, finalize, threads),
            )
            .capacity(policy)
            .run(&lines)
        },
    );
}

// ---------------------------------------------------------------------------
// Workload 2: skew join (tagged relations, replicated routing)
// ---------------------------------------------------------------------------

/// A tuple of relation X (tag 0) or Y (tag 1).
#[derive(Clone, Hash)]
struct Tuple {
    tag: u8,
    key: u64,
    payload: String,
}

impl ByteSized for Tuple {
    fn size_bytes(&self) -> u64 {
        1 + 8 + self.payload.len() as u64
    }
}

struct TagMapper;
impl Mapper for TagMapper {
    type In = Tuple;
    type Key = u64;
    type Value = (u8, String);
    fn map(&self, t: &Tuple, emit: &mut Emitter<u64, (u8, String)>) {
        emit.emit(t.key, (t.tag, t.payload.clone()));
    }
}

struct JoinReducer;
impl Reducer for JoinReducer {
    type Key = u64;
    type Value = (u8, String);
    type Out = (u64, String, String);
    fn reduce(&self, key: &u64, values: &[(u8, String)], out: &mut Vec<(u64, String, String)>) {
        for (_, px) in values.iter().filter(|v| v.0 == 0) {
            for (_, py) in values.iter().filter(|v| v.0 == 1) {
                out.push((*key, px.clone(), py.clone()));
            }
        }
    }
}

/// Replicates each key to two reducers (a miniature mapping schema), so
/// multi-target routing and deduplicated fan-out are exercised.
struct SpreadRouter;
impl Router<u64> for SpreadRouter {
    fn route(&self, key: &u64, n_reducers: usize, targets: &mut Vec<usize>) {
        targets.push((*key as usize) % n_reducers);
        targets.push((*key as usize * 7 + 3) % n_reducers);
    }
}

fn skewed_tuples() -> Vec<Tuple> {
    // Key 0 is a heavy hitter (~1/3 of all tuples), the rest thin out.
    (0..420)
        .map(|i: u64| {
            let key = if i.is_multiple_of(3) { 0 } else { (i * i) % 37 };
            Tuple {
                tag: (i % 2) as u8,
                key,
                payload: format!("p{i:03}"),
            }
        })
        .collect()
}

#[test]
fn skew_join_identical_across_the_matrix() {
    let tuples = skewed_tuples();
    sweep_matrix(
        &[
            CapacityPolicy::Unlimited,
            CapacityPolicy::Record(2_000),
            CapacityPolicy::Enforce(1_000_000),
        ],
        |mode, finalize, threads, policy| {
            Job::new(
                TagMapper,
                JoinReducer,
                SpreadRouter,
                9,
                cluster(mode, finalize, threads),
            )
            .capacity(policy)
            .run(&tuples)
        },
    );
}

// ---------------------------------------------------------------------------
// Workload 3: boundary-distribution mapping schema (the paper's hard case)
// ---------------------------------------------------------------------------

#[derive(Clone, Hash)]
struct Blob {
    bytes: u64,
    targets: Vec<usize>,
}

impl ByteSized for Blob {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

#[derive(Clone)]
struct Payload(u64);
impl ByteSized for Payload {
    fn size_bytes(&self) -> u64 {
        self.0
    }
}
impl SpillCodec for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(Payload(u64::decode(bytes)?))
    }
}

struct Replicate;
impl Mapper for Replicate {
    type In = Blob;
    type Key = u64;
    type Value = Payload;
    fn map(&self, b: &Blob, emit: &mut Emitter<u64, Payload>) {
        for &t in &b.targets {
            emit.emit(t as u64, Payload(b.bytes));
        }
    }
}

/// [`Replicate`] that counts its map calls in the shared counter.
struct CountedReplicate(Arc<AtomicU64>);
impl Mapper for CountedReplicate {
    type In = Blob;
    type Key = u64;
    type Value = Payload;
    fn map(&self, b: &Blob, emit: &mut Emitter<u64, Payload>) {
        self.0.fetch_add(1, Ordering::Relaxed);
        Replicate.map(b, emit);
    }
}

struct PairCount;
impl Reducer for PairCount {
    type Key = u64;
    type Value = Payload;
    type Out = (u64, u64);
    fn reduce(&self, key: &u64, values: &[Payload], out: &mut Vec<(u64, u64)>) {
        let n = values.len() as u64;
        out.push((*key, n * n.saturating_sub(1) / 2));
    }
}

#[test]
fn boundary_schema_identical_across_the_matrix() {
    let q = 40;
    // Most boundary draws are A2A-infeasible by design (two >q/2 giants);
    // m = 12 at seed 0 is a feasible member of the family.
    let weights = SizeDistribution::Boundary { q }.sample_many(12, 0);
    let inputs = InputSet::from_weights(weights.clone());
    let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto)
        .expect("boundary seed 0 is feasible at q = 40 for m = 12");
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    for (rid, r) in schema.reducers().iter().enumerate() {
        for &id in r {
            routes[id as usize].push(rid);
        }
    }
    let blobs: Vec<Blob> = weights
        .iter()
        .zip(&routes)
        .map(|(&bytes, targets)| Blob {
            bytes,
            targets: targets.clone(),
        })
        .collect();
    let n_reducers = schema.reducer_count();
    sweep_matrix(
        &[
            CapacityPolicy::Unlimited,
            CapacityPolicy::Record(q),
            // A valid schema can never trip enforcement at its own q.
            CapacityPolicy::Enforce(q),
        ],
        |mode, finalize, threads, policy| {
            Job::new(
                Replicate,
                PairCount,
                DirectRouter,
                n_reducers,
                cluster(mode, finalize, threads),
            )
            .capacity(policy)
            .run(&blobs)
        },
    );
}

/// Byte counters saturate at `u64::MAX` instead of wrapping, as the
/// planner's cost model does. Four inputs of 2⁶² bytes at q = 2⁶³ are a
/// valid A2A instance: every pair fits exactly, in 6 reducers of load
/// 2⁶³. Its input bytes (2⁶⁴) and shuffled bytes (12 copies of 2⁶² + 8)
/// overflow a `u64`. Both engines, spilling or not, report them saturated
/// and bit-identical. The map record keeps the saturated loads, so a
/// checkpointed rerun replays the whole job from disk without running a
/// map task.
#[test]
fn byte_counters_saturate_instead_of_wrapping() {
    let q = 1u64 << 63;
    let weights = vec![1u64 << 62; 4];
    let schema = a2a::solve(
        &InputSet::from_weights(weights.clone()),
        q,
        a2a::A2aAlgorithm::Auto,
    )
    .expect("every pair of 2^62-byte inputs fits at q = 2^63");
    let n_reducers = schema.reducer_count();
    assert_eq!(n_reducers, 6, "one reducer per pair");
    let mut blobs: Vec<Blob> = weights
        .iter()
        .map(|&bytes| Blob {
            bytes,
            targets: Vec::new(),
        })
        .collect();
    for (rid, r) in schema.reducers().iter().enumerate() {
        for &id in r {
            blobs[id as usize].targets.push(rid);
        }
    }
    let maps = Arc::new(AtomicU64::new(0));
    let run = |config: ClusterConfig| {
        Job::new(
            CountedReplicate(Arc::clone(&maps)),
            PairCount,
            DirectRouter,
            n_reducers,
            config,
        )
        .capacity(CapacityPolicy::Enforce(q))
        .run(&blobs)
        .unwrap()
    };

    let reference = run(cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1));
    let m = &reference.metrics;
    assert_eq!(m.input_bytes, u64::MAX, "input bytes saturate");
    assert_eq!(m.records_shuffled, 12);
    assert_eq!(m.bytes_shuffled, u64::MAX, "shuffled bytes saturate");
    assert_eq!(m.reducer_value_bytes, vec![q; n_reducers]);
    assert_eq!(m.load_imbalance(), 1.0);
    assert_eq!(
        m.shuffle_seconds,
        ClusterConfig::default().shuffle_seconds(u64::MAX)
    );
    for (mode, finalize) in CELLS {
        for memory_budget in [None, Some(TIGHT_BUDGET)] {
            if memory_budget.is_some() && mode != ShuffleMode::Pipelined {
                continue;
            }
            let label = format!("{mode:?}/{finalize:?} × budget={memory_budget:?}");
            let out = run(ClusterConfig {
                memory_budget,
                ..cluster(mode, finalize, 2)
            });
            assert_eq!(reference.outputs, out.outputs, "{label}: outputs");
            assert_eq!(
                reference.metrics.deterministic(),
                out.metrics.deterministic(),
                "{label}: deterministic metrics"
            );
            if memory_budget.is_some() {
                assert_eq!(
                    out.metrics.pipeline.spilled_bytes,
                    u64::MAX,
                    "{label}: spilled bytes saturate"
                );
            }
        }
    }

    for (mode, finalize) in CELLS {
        let label = format!("checkpointed {mode:?}/{finalize:?}");
        let dir = ckpt_dir("saturated");
        let config = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            ..cluster(mode, finalize, 2)
        };
        let cold = run(config.clone());
        maps.store(0, Ordering::Relaxed);
        let rerun = run(config);
        assert_eq!(
            maps.load(Ordering::Relaxed),
            0,
            "{label}: a full replay runs no map task"
        );
        for out in [&cold, &rerun] {
            assert_eq!(reference.outputs, out.outputs, "{label}: outputs");
            assert_eq!(
                reference.metrics.deterministic(),
                out.metrics.deterministic(),
                "{label}: deterministic metrics"
            );
        }
        let p = &rerun.metrics.pipeline;
        assert_eq!(
            (p.checkpoint_hits, p.checkpoint_misses, p.checkpoint_invalid),
            (n_reducers as u64, 0, 0),
            "{label}: every partition and the map record are served"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Acceptance criterion in miniature: the pipelined runs in the matrix
/// above actually pipelined. This spot-check asserts the engine reported
/// consumer groups and bounded in-flight blocks on a representative cell.
#[test]
fn pipelined_cells_report_bounded_inflight() {
    let lines = word_lines();
    let out = Job::new(
        Tokenize,
        Count,
        HashRouter::new(),
        11,
        cluster(ShuffleMode::Pipelined, FinalizeMode::Static, 4),
    )
    .run(&lines)
    .unwrap();
    let p = &out.metrics.pipeline;
    assert!(p.consumer_groups >= 1);
    assert!(p.blocks_sent > 0);
    assert!(p.peak_inflight_blocks >= 1);
    assert!(
        p.peak_inflight_blocks <= CHANNEL_DEPTH as u64 * p.consumer_groups,
        "CHANNEL_DEPTH bounds in-flight blocks per group"
    );
    assert!(p.wall_seconds >= 0.0);
}

// ---------------------------------------------------------------------------
// Workload 4: hot reducer (heavy-hitter key, ~all bytes to one partition)
// ---------------------------------------------------------------------------

/// Routes the heavy-hitter key 0 straight to partition 0 and spreads the
/// thin tail over the remaining partitions — the key-distribution skew of
/// Fan et al., concentrated enough that one consumer group drains (and,
/// under static finalize, serializes) almost the entire shuffle.
struct HotRouter;
impl Router<u64> for HotRouter {
    fn route(&self, key: &u64, n_reducers: usize, targets: &mut Vec<usize>) {
        if *key == 0 {
            targets.push(0);
        } else {
            targets.push(1 + (*key as usize - 1) % (n_reducers - 1));
        }
    }
}

struct HotMapper;
impl Mapper for HotMapper {
    type In = (u64, String);
    type Key = u64;
    type Value = String;
    fn map(&self, input: &(u64, String), emit: &mut Emitter<u64, String>) {
        emit.emit(input.0, input.1.clone());
    }
}

/// Order-sensitive: concatenation exposes any reassembly or merge drift.
struct HotConcat;
impl Reducer for HotConcat {
    type Key = u64;
    type Value = String;
    type Out = (u64, String);
    fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
        out.push((*key, values.concat()));
    }
}

/// ~90% of the records (and bytes) carry the heavy-hitter key 0; the rest
/// thin out over 20 tail keys.
fn hot_records(n: u64) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| {
            let key = if i % 10 != 0 { 0 } else { 1 + (i / 10) % 20 };
            (key, format!("r{i:05}-"))
        })
        .collect()
}

/// The acceptance matrix for the work-stealing finalize: on the workload
/// it was built for, stealing ≡ static ≡ materialized bit-for-bit across
/// threads {1,2,4}.
#[test]
fn hot_reducer_identical_across_the_matrix() {
    let records = hot_records(600);
    sweep_matrix(
        &[CapacityPolicy::Unlimited, CapacityPolicy::Record(4_000)],
        |mode, finalize, threads, policy| {
            Job::new(
                HotMapper,
                HotConcat,
                HotRouter,
                8,
                cluster(mode, finalize, threads),
            )
            .capacity(policy)
            .run(&records)
        },
    );
}

// ---------------------------------------------------------------------------
// Fault sweeps: every workload, every cell, under a seeded transient-fault
// schedule — the acceptance criterion for the retry layer. The reference
// is always the *fault-free* run, so bit-identity here proves retries are
// invisible to the determinism contract, not merely mode-consistent.
// ---------------------------------------------------------------------------

fn faulted_cluster(
    mode: ShuffleMode,
    finalize: FinalizeMode,
    threads: usize,
    plan: Option<FaultPlan>,
) -> ClusterConfig {
    ClusterConfig {
        retry_budget: 8,
        fault_plan: plan,
        ..cluster(mode, finalize, threads)
    }
}

#[test]
fn word_count_survives_the_fault_sweep_bit_identically() {
    let lines = wc_inputs();
    sweep_faulted(|mode, finalize, threads, plan| {
        Job::new(
            Tokenize,
            Count,
            HashRouter::new(),
            11,
            faulted_cluster(mode, finalize, threads, plan),
        )
        .run(&lines)
    });
}

#[test]
fn skew_join_survives_the_fault_sweep_bit_identically() {
    let tuples = skewed_tuples();
    sweep_faulted(|mode, finalize, threads, plan| {
        Job::new(
            TagMapper,
            JoinReducer,
            SpreadRouter,
            9,
            faulted_cluster(mode, finalize, threads, plan),
        )
        .run(&tuples)
    });
}

#[test]
fn boundary_schema_survives_the_fault_sweep_bit_identically() {
    let q = 40;
    let weights = SizeDistribution::Boundary { q }.sample_many(12, 0);
    let inputs = InputSet::from_weights(weights.clone());
    let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto)
        .expect("boundary seed 0 is feasible at q = 40 for m = 12");
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    for (rid, r) in schema.reducers().iter().enumerate() {
        for &id in r {
            routes[id as usize].push(rid);
        }
    }
    let blobs: Vec<Blob> = weights
        .iter()
        .zip(&routes)
        .map(|(&bytes, targets)| Blob {
            bytes,
            targets: targets.clone(),
        })
        .collect();
    let n_reducers = schema.reducer_count();
    sweep_faulted(|mode, finalize, threads, plan| {
        Job::new(
            Replicate,
            PairCount,
            DirectRouter,
            n_reducers,
            faulted_cluster(mode, finalize, threads, plan),
        )
        .run(&blobs)
    });
}

#[test]
fn hot_reducer_survives_the_fault_sweep_bit_identically() {
    let records = hot_records(600);
    sweep_faulted(|mode, finalize, threads, plan| {
        Job::new(
            HotMapper,
            HotConcat,
            HotRouter,
            8,
            faulted_cluster(mode, finalize, threads, plan),
        )
        .run(&records)
    });
}

// ---------------------------------------------------------------------------
// Budgeted cells: the out-of-core spill path must be invisible to the
// determinism contract. A per-group memory budget tight enough that every
// sweep workload overflows it forces consumers to seal and spill runs to
// disk; finalize then reads each partition's runs back and restores task
// order with one stable sort — and the outputs, the deterministic metrics
// subset, and the DLQ must all match
// the unbudgeted materialized reference bit for bit, faults included.
// ---------------------------------------------------------------------------

/// Small enough that both budgeted workloads overflow it many times over
/// (the hot partition alone buffers kilobytes), so every budgeted cell
/// actually exercises the spill path rather than vacuously passing.
const TIGHT_BUDGET: u64 = 256;

fn budgeted_cluster(
    finalize: FinalizeMode,
    threads: usize,
    plan: Option<FaultPlan>,
) -> ClusterConfig {
    ClusterConfig {
        memory_budget: Some(TIGHT_BUDGET),
        ..faulted_cluster(ShuffleMode::Pipelined, finalize, threads, plan)
    }
}

/// Asserts one budgeted cell: bit-identical to the reference, empty DLQ,
/// and the spill counters prove the out-of-core path actually ran.
fn assert_budgeted_cell<Out: PartialEq + std::fmt::Debug>(
    reference: &JobOutput<Out>,
    cell: JobOutput<Out>,
    label: &str,
) {
    assert_eq!(reference.outputs, cell.outputs, "{label}: outputs diverged");
    assert_eq!(
        reference.metrics.deterministic(),
        cell.metrics.deterministic(),
        "{label}: deterministic metrics diverged"
    );
    assert!(cell.dlq.is_empty(), "{label}: nothing may dead-letter");
    let p = &cell.metrics.pipeline;
    assert!(p.spilled_runs > 0, "{label}: a tight budget must spill");
    assert!(p.spilled_bytes > 0, "{label}: spilled runs carry bytes");
    assert!(
        p.peak_buffered_bytes <= TIGHT_BUDGET,
        "{label}: peak buffered {} exceeds the budget {TIGHT_BUDGET}",
        p.peak_buffered_bytes
    );
    assert!(
        p.merge_fanin >= 2,
        "{label}: spilling implies a finalize that reads several sources"
    );
}

/// Tight budget × {static, stealing} × threads {1,2,4} × {fault-free, the
/// PR 6 seeded fault sweep} on word count: identical to the unbudgeted
/// materialized reference in every cell, with real spill activity.
#[test]
fn word_count_budgeted_cells_spill_and_stay_bit_identical() {
    let lines = wc_inputs();
    let reference = Job::new(
        Tokenize,
        Count,
        HashRouter::new(),
        11,
        cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1),
    )
    .run(&lines)
    .unwrap();
    for plan in [None, Some(sweep_fault_plan())] {
        for finalize in [FinalizeMode::Static, FinalizeMode::Stealing] {
            for threads in THREADS {
                let label = format!(
                    "budgeted {finalize:?} × threads={threads} × faulted={}",
                    plan.is_some()
                );
                let cell = Job::new(
                    Tokenize,
                    Count,
                    HashRouter::new(),
                    11,
                    budgeted_cluster(finalize, threads, plan.clone()),
                )
                .run(&lines)
                .unwrap();
                if plan.is_some() {
                    assert!(
                        cell.metrics.faults.retries() > 0,
                        "{label}: faults must fire"
                    );
                }
                assert_budgeted_cell(&reference, cell, &label);
            }
        }
    }
}

/// The same budgeted sweep on the hot-reducer workload — the one whose
/// single hot partition most exceeds the budget.
#[test]
fn hot_reducer_budgeted_cells_spill_and_stay_bit_identical() {
    let records = hot_records(600);
    let reference = Job::new(
        HotMapper,
        HotConcat,
        HotRouter,
        8,
        cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1),
    )
    .run(&records)
    .unwrap();
    for plan in [None, Some(sweep_fault_plan())] {
        for finalize in [FinalizeMode::Static, FinalizeMode::Stealing] {
            for threads in THREADS {
                let label = format!(
                    "budgeted hot {finalize:?} × threads={threads} × faulted={}",
                    plan.is_some()
                );
                let cell = Job::new(
                    HotMapper,
                    HotConcat,
                    HotRouter,
                    8,
                    budgeted_cluster(finalize, threads, plan.clone()),
                )
                .run(&records)
                .unwrap();
                assert_budgeted_cell(&reference, cell, &label);
            }
        }
    }
}

/// DLQ behavior under spill: poisoning the hot (spilling) partition under
/// [`DlqMode::Capture`] dead-letters exactly the same entries and keeps
/// exactly the same surviving outputs as the unbudgeted run — spilled
/// state is re-derived deterministically across the retries that burn the
/// budget, and the temp files for the dead partition are still cleaned up
/// (covered by the properties suite).
#[test]
fn budgeted_capture_mode_dead_letters_like_unbudgeted() {
    use mrassign_simmr::DlqMode;
    let records = hot_records(600);
    let plan = FaultPlan {
        poison_reduce_tasks: vec![0],
        ..FaultPlan::default()
    };
    let run = |memory_budget| {
        Job::new(
            HotMapper,
            HotConcat,
            HotRouter,
            8,
            ClusterConfig {
                memory_budget,
                retry_budget: 2,
                dlq_mode: DlqMode::Capture,
                fault_plan: Some(plan.clone()),
                ..cluster(ShuffleMode::Pipelined, FinalizeMode::Stealing, 4)
            },
        )
        .run(&records)
        .unwrap()
    };
    let unbudgeted = run(None);
    let budgeted = run(Some(TIGHT_BUDGET));
    assert_eq!(unbudgeted.dlq, budgeted.dlq, "DLQ diverged under spill");
    assert_eq!(
        unbudgeted.outputs, budgeted.outputs,
        "surviving outputs diverged under spill"
    );
    assert_eq!(
        budgeted.dlq.len(),
        1,
        "the poisoned hot partition dead-letters"
    );
    assert!(
        budgeted.metrics.pipeline.spilled_runs > 0,
        "the poisoned run must actually have spilled"
    );
}

/// Stealing must actually redistribute the hot group's finalize work: with
/// 4 consumer threads over 16 partitions, partitions migrate off their
/// owners (`stolen_partitions > 0`) and the finalize-imbalance ratio
/// strictly improves over the static schedule, where the hot group
/// serializes its whole contiguous range while the other threads idle.
#[test]
fn stealing_redistributes_hot_reducer_finalize_work() {
    // Partition 0 is hot (~25% of all bytes, 5× the mean); the 15 tail
    // partitions carry ~5% each, so under static finalize the hot
    // partition's owner serializes ~40% of the total work (hot + its 3
    // contiguous range-mates) while the other threads idle — exactly the
    // penalty stealing removes. Payloads are long enough that the spans
    // dwarf scheduler noise.
    let records: Vec<(u64, String)> = (0..60_000u64)
        .map(|i| {
            let key = if i % 4 == 0 { 0 } else { 1 + i % 15 };
            (key, format!("record-{i:06}-{}", "x".repeat(48)))
        })
        .collect();
    let run = |finalize_mode| {
        Job::new(
            HotMapper,
            HotConcat,
            HotRouter,
            16,
            ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: 4,
                finalize_mode,
                ..ClusterConfig::default()
            },
        )
        .run(&records)
        .unwrap()
    };
    // Wall-clock spans and steal counts depend on OS scheduling, so each
    // mode is sampled three times: correctness (bit-identity, static
    // never steals) must hold on *every* run, while the scheduling
    // claims are asserted against the aggregate — any stealing run must
    // migrate work, and the *median* imbalance must strictly improve —
    // so one descheduled thread on a constrained runner cannot flip the
    // verdict.
    let static_runs: Vec<_> = (0..3).map(|_| run(FinalizeMode::Static)).collect();
    let stealing_runs: Vec<_> = (0..3).map(|_| run(FinalizeMode::Stealing)).collect();
    for sample in static_runs.iter().chain(&stealing_runs) {
        assert_eq!(static_runs[0].outputs, sample.outputs);
        assert_eq!(
            static_runs[0].metrics.deterministic(),
            sample.metrics.deterministic()
        );
    }
    for sample in &static_runs {
        assert_eq!(
            sample.metrics.pipeline.stolen_partitions, 0,
            "static never steals"
        );
    }
    let max_stolen = stealing_runs
        .iter()
        .map(|s| s.metrics.pipeline.stolen_partitions)
        .max()
        .unwrap();
    assert!(
        max_stolen > 0,
        "4 threads × 16 partitions with one hot group must migrate work in some run"
    );
    let median_imbalance = |runs: &[mrassign_simmr::JobOutput<(u64, String)>]| {
        let mut samples: Vec<f64> = runs
            .iter()
            .map(|s| s.metrics.pipeline.finalize_imbalance)
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let st = median_imbalance(&static_runs);
    let wk = median_imbalance(&stealing_runs);
    assert!(
        wk < st,
        "stealing must flatten the finalize profile: stealing {wk} vs static {st}"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint/resume cells: a `checkpoint_dir` must be invisible to the
// determinism contract. A cold checkpointed run matches the uncheckpointed
// reference bit for bit; a second run against the same directory replays
// every partition from disk (hits == partitions, misses == 0) and still
// matches; a run killed mid-finalize by a `kill-reduce:` fault verdict
// resumes re-executing strictly fewer partitions than a fresh run would.
// ---------------------------------------------------------------------------

/// A fresh private checkpoint directory per cell, so parallel tests and
/// repeated cells never share manifests.
fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mrassign-exec-ckpt-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// Word count has 11 reducers in this suite; every checkpoint assertion
/// below counts against this.
const WC_PARTITIONS: u64 = 11;

fn wc_job(config: ClusterConfig) -> Job<Tokenize, Count, HashRouter> {
    Job::new(
        Tokenize,
        Count,
        HashRouter::new(),
        WC_PARTITIONS as usize,
        config,
    )
}

/// Mapper and reducer calls of a counted word count, so a test can tell
/// how much map and reduce work a run really did.
#[derive(Default)]
struct Calls {
    map: AtomicU64,
    reduce: AtomicU64,
}

/// [`Tokenize`] that counts its calls.
struct CountedTokenize(Arc<Calls>);
impl Mapper for CountedTokenize {
    type In = String;
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, emit: &mut Emitter<String, u64>) {
        self.0.map.fetch_add(1, Ordering::Relaxed);
        Tokenize.map(line, emit);
    }
    fn combine(&self, key: &String, values: &[u64]) -> Option<u64> {
        Tokenize.combine(key, values)
    }
}

/// [`Count`] that counts its calls: one per key it reduces.
struct CountedCount(Arc<Calls>);
impl Reducer for CountedCount {
    type Key = String;
    type Value = u64;
    type Out = (String, u64);
    fn reduce(&self, key: &String, values: &[u64], out: &mut Vec<(String, u64)>) {
        self.0.reduce.fetch_add(1, Ordering::Relaxed);
        Count.reduce(key, values, out);
    }
}

/// Word count whose mapper and reducer calls land in `calls`.
fn counted_wc_job(
    config: ClusterConfig,
    calls: &Arc<Calls>,
) -> Job<CountedTokenize, CountedCount, HashRouter> {
    Job::new(
        CountedTokenize(Arc::clone(calls)),
        CountedCount(Arc::clone(calls)),
        HashRouter::new(),
        WC_PARTITIONS as usize,
        config,
    )
}

/// Key + value bytes word count routes to `partition`: one combined
/// record per distinct word of each line, as the map side builds them.
fn wc_partition_bytes(lines: &[String], partition: usize) -> u64 {
    let router = HashRouter::new();
    let mut targets = Vec::new();
    let mut bytes = 0;
    for line in lines {
        let words: std::collections::BTreeSet<&str> = line.split_whitespace().collect();
        for word in words {
            let key = word.to_string();
            targets.clear();
            router.route(&key, WC_PARTITIONS as usize, &mut targets);
            if targets.contains(&partition) {
                bytes += key.size_bytes() + 1u64.size_bytes();
            }
        }
    }
    bytes
}

/// The one `job-*` session directory a test's checkpoint base holds.
fn job_dir(base: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(base)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("job-"))
        })
        .expect("a checkpointed run committed a job directory")
}

/// Cold + resumed checkpointed runs across shuffle × finalize × threads ×
/// {unbudgeted, tight-budget} × {fault-free, seeded-fault} cells, all
/// pinned to the uncheckpointed materialized reference. In every cell a
/// cold run maps every input and reduces every key exactly once, and a
/// full replay does neither.
#[test]
fn checkpointed_rerun_is_bit_identical_across_the_matrix() {
    let lines = wc_inputs();
    let reference = wc_job(cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1))
        .run(&lines)
        .unwrap();
    for (mode, finalize) in CELLS {
        for threads in THREADS {
            for memory_budget in [None, Some(TIGHT_BUDGET)] {
                if memory_budget.is_some() && mode != ShuffleMode::Pipelined {
                    continue;
                }
                for plan in [None, Some(sweep_fault_plan())] {
                    let label = format!(
                        "checkpointed {mode:?}/{finalize:?} × threads={threads} × \
                         budgeted={} × faulted={}",
                        memory_budget.is_some(),
                        plan.is_some()
                    );
                    let dir = ckpt_dir("matrix");
                    let config = ClusterConfig {
                        checkpoint_dir: Some(dir.clone()),
                        memory_budget,
                        retry_budget: 8,
                        fault_plan: plan.clone(),
                        ..cluster(mode, finalize, threads)
                    };
                    let calls = Arc::new(Calls::default());

                    let cold = counted_wc_job(config.clone(), &calls).run(&lines).unwrap();
                    assert_eq!(
                        calls.map.swap(0, Ordering::Relaxed),
                        lines.len() as u64,
                        "{label}: cold maps every input once"
                    );
                    assert_eq!(
                        calls.reduce.swap(0, Ordering::Relaxed),
                        cold.metrics.distinct_keys,
                        "{label}: cold reduces every key once"
                    );
                    assert_eq!(reference.outputs, cold.outputs, "{label}: cold outputs");
                    assert_eq!(
                        reference.metrics.deterministic(),
                        cold.metrics.deterministic(),
                        "{label}: cold deterministic metrics"
                    );
                    assert_eq!(cold.metrics.pipeline.checkpoint_hits, 0, "{label}: cold");
                    // Only nonempty partitions run a reduce task (and so
                    // a checkpoint lookup), so calibrate from the cold run.
                    let executed = cold.metrics.pipeline.checkpoint_misses;
                    assert!(executed > 0, "{label}: cold misses every partition");
                    assert_eq!(
                        cold.metrics.pipeline.checkpoint_hits + executed,
                        cold.metrics.nonempty_reducers as u64,
                        "{label}: hits + misses count each nonempty partition once"
                    );

                    let resumed = counted_wc_job(config, &calls).run(&lines).unwrap();
                    assert_eq!(
                        calls.map.load(Ordering::Relaxed),
                        0,
                        "{label}: a full replay runs no map task"
                    );
                    assert_eq!(
                        calls.reduce.load(Ordering::Relaxed),
                        0,
                        "{label}: a full replay reduces nothing"
                    );
                    assert_eq!(
                        reference.outputs, resumed.outputs,
                        "{label}: resumed outputs"
                    );
                    assert_eq!(
                        reference.metrics.deterministic(),
                        resumed.metrics.deterministic(),
                        "{label}: resumed deterministic metrics"
                    );
                    assert_eq!(
                        resumed.metrics.pipeline.checkpoint_hits, executed,
                        "{label}: resume replays every partition from disk"
                    );
                    assert_eq!(
                        resumed.metrics.pipeline.checkpoint_misses, 0,
                        "{label}: resume re-executes nothing"
                    );
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }
    }
}

/// The recovery path end to end, per cell: a `kill-reduce:` verdict
/// panics the job with every partition but the last one committed;
/// re-running the same job (kill list dropped — it is execution-only and
/// outside the fingerprint) against the same directory finishes
/// bit-identical to the fresh reference while re-executing exactly the
/// one killed partition.
#[test]
fn killed_job_resumes_reexecuting_strictly_fewer_partitions() {
    let lines = word_lines();
    let reference = wc_job(cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1))
        .run(&lines)
        .unwrap();
    // The killed partition is a thin one, so a resume that ships only its
    // copies buffers a small slice of the shuffle.
    let killed_bytes = wc_partition_bytes(&lines, WC_PARTITIONS as usize - 1);
    assert!(killed_bytes > 0);
    for (mode, finalize) in CELLS {
        // How many partitions the job actually executes (empty ones run
        // no reduce task): a throwaway checkpointed run, with the same
        // inert fault-plan skeleton the resume uses so its fingerprint
        // matches the counts being calibrated.
        let probe_dir = ckpt_dir("kill-probe");
        let probe = wc_job(ClusterConfig {
            checkpoint_dir: Some(probe_dir.clone()),
            fault_plan: Some(FaultPlan::default()),
            ..cluster(mode, FinalizeMode::Static, 1)
        })
        .run(&lines)
        .unwrap();
        let executed = probe.metrics.pipeline.checkpoint_misses;
        std::fs::remove_dir_all(&probe_dir).unwrap();
        assert!(executed > 1, "calibration run must execute partitions");

        for threads in THREADS {
            let label = format!("killed {mode:?}/{finalize:?} × threads={threads}");
            let dir = ckpt_dir("kill");
            // The kill run is single-threaded under static finalize so
            // partitions commit strictly in order before the verdict for
            // the last partition fires — making the resume accounting
            // exact. (Work-stealing finalize commits out of order, which
            // is fine for recovery but not for exact-count assertions;
            // both knobs are execution-only and outside the fingerprint,
            // so the resume cell below still matches.)
            let kill_config = ClusterConfig {
                checkpoint_dir: Some(dir.clone()),
                fault_plan: Some(FaultPlan {
                    kill_reduce_tasks: vec![WC_PARTITIONS as usize - 1],
                    ..FaultPlan::default()
                }),
                ..cluster(mode, FinalizeMode::Static, 1)
            };
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                wc_job(kill_config).run(&lines)
            }));
            assert!(
                killed.is_err(),
                "{label}: the kill verdict must panic the run"
            );

            // Resume in the actual cell shape: thread count, like every
            // execution-only knob, is outside the fingerprint. The kill
            // list is dropped but the (semantically inert) plan skeleton
            // stays, keeping the fingerprint's fault signature equal.
            let resume_config = ClusterConfig {
                checkpoint_dir: Some(dir.clone()),
                fault_plan: Some(FaultPlan::default()),
                ..cluster(mode, finalize, threads)
            };
            let resumed = wc_job(resume_config).run(&lines).unwrap();
            assert_eq!(reference.outputs, resumed.outputs, "{label}: outputs");
            assert_eq!(
                reference.metrics.deterministic(),
                resumed.metrics.deterministic(),
                "{label}: deterministic metrics"
            );
            assert_eq!(
                resumed.metrics.pipeline.checkpoint_hits,
                executed - 1,
                "{label}: every partition committed before the kill is skipped"
            );
            assert_eq!(
                resumed.metrics.pipeline.checkpoint_misses, 1,
                "{label}: only the killed partition re-executes"
            );
            if mode == ShuffleMode::Pipelined {
                assert!(
                    resumed.metrics.pipeline.peak_buffered_bytes <= killed_bytes,
                    "{label}: buffered {} bytes, but only the killed partition's {killed_bytes} \
                     are shipped",
                    resumed.metrics.pipeline.peak_buffered_bytes
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A job that breaks its capacity fails at the map barrier in every
/// cell: the same `CapacityExceeded`, no reduce call, and no partition
/// file in its checkpoint session. Only the map record, which the barrier
/// commits before it applies the policy, may be there.
#[test]
fn capacity_violation_reduces_and_commits_nothing() {
    let lines = word_lines();
    let mut expected: Option<SimError> = None;
    for (mode, finalize) in CELLS {
        for threads in THREADS {
            let label = format!("{mode:?}/{finalize:?} × threads={threads}");
            let dir = ckpt_dir("capacity");
            let config = ClusterConfig {
                checkpoint_dir: Some(dir.clone()),
                ..cluster(mode, finalize, threads)
            };
            let calls = Arc::new(Calls::default());
            let error = counted_wc_job(config, &calls)
                .capacity(CapacityPolicy::Enforce(50))
                .run(&lines)
                .unwrap_err();
            assert!(
                matches!(error, SimError::CapacityExceeded { .. }),
                "{label}: {error:?}"
            );
            assert_eq!(
                expected.get_or_insert_with(|| error.clone()),
                &error,
                "{label}: errors diverged"
            );
            assert_eq!(
                calls.reduce.load(Ordering::Relaxed),
                0,
                "{label}: no reduce runs"
            );
            let partition_files: Vec<String> = std::fs::read_dir(job_dir(&dir))
                .unwrap()
                .flatten()
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("part-"))
                .collect();
            assert!(
                partition_files.is_empty(),
                "{label}: committed {partition_files:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Damaged checkpoint state must degrade to re-execution with a named
/// warning — never to a panic, and never to a wrong byte: a torn manifest
/// tail, a bit-flipped manifest entry, a version-bumped header, and a
/// corrupted partition file each leave the resumed run bit-identical to
/// the reference with `checkpoint_invalid` counting the damage.
#[test]
fn corrupt_checkpoints_fall_back_to_fresh_execution() {
    let lines = word_lines();
    let reference = wc_job(cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1))
        .run(&lines)
        .unwrap();
    type Corruption = (&'static str, fn(&std::path::Path));
    let corruptions: [Corruption; 4] = [
        ("torn manifest tail", |job_dir| {
            let manifest = job_dir.join("manifest.bin");
            let len = std::fs::metadata(&manifest).unwrap().len();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&manifest)
                .unwrap();
            file.set_len(len - 10).unwrap();
        }),
        ("bit-flipped manifest entry", |job_dir| {
            let manifest = job_dir.join("manifest.bin");
            let mut bytes = std::fs::read(&manifest).unwrap();
            let idx = bytes.len() - 20; // inside the last entry's payload
            bytes[idx] ^= 0x40;
            std::fs::write(&manifest, bytes).unwrap();
        }),
        ("version-bumped header", |job_dir| {
            let manifest = job_dir.join("manifest.bin");
            let mut bytes = std::fs::read(&manifest).unwrap();
            bytes[8] = bytes[8].wrapping_add(1); // u32 version little-endian
            std::fs::write(&manifest, bytes).unwrap();
        }),
        ("corrupted partition file", |job_dir| {
            let part = job_dir.join("part-3.ckpt");
            let mut bytes = std::fs::read(&part).unwrap();
            let idx = bytes.len() / 2;
            bytes[idx] ^= 0xFF;
            std::fs::write(&part, bytes).unwrap();
        }),
    ];
    for (what, corrupt) in corruptions {
        let dir = ckpt_dir("corrupt");
        let config = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            ..cluster(ShuffleMode::Pipelined, FinalizeMode::Static, 2)
        };
        wc_job(config.clone()).run(&lines).unwrap();
        let job_dir = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("job-"))
            })
            .expect("the cold run committed a job directory");
        corrupt(&job_dir);

        let resumed = wc_job(config).run(&lines).unwrap();
        assert_eq!(reference.outputs, resumed.outputs, "{what}: outputs");
        assert_eq!(
            reference.metrics.deterministic(),
            resumed.metrics.deterministic(),
            "{what}: deterministic metrics"
        );
        assert!(
            resumed.metrics.pipeline.checkpoint_invalid > 0,
            "{what}: the damage must be counted"
        );
        assert!(
            resumed.metrics.pipeline.checkpoint_misses > 0,
            "{what}: damaged partitions re-execute"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A corrupt map record costs only the map phase: the rerun maps again
/// but ships nothing, because every partition is still committed and
/// verified, so it serves them all. It counts the damage and writes the
/// record again, so the run after it is a full replay again.
#[test]
fn corrupt_map_record_remaps_and_still_serves_every_partition() {
    let lines = word_lines();
    let reference = wc_job(cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1))
        .run(&lines)
        .unwrap();
    for (mode, finalize) in CELLS {
        let label = format!("{mode:?}/{finalize:?}");
        let dir = ckpt_dir("map-record");
        let config = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            ..cluster(mode, finalize, 2)
        };
        let calls = Arc::new(Calls::default());
        let cold = counted_wc_job(config.clone(), &calls).run(&lines).unwrap();
        let executed = cold.metrics.pipeline.checkpoint_misses;
        let record = job_dir(&dir).join("map.ckpt");
        let mut bytes = std::fs::read(&record).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&record, bytes).unwrap();

        calls.map.store(0, Ordering::Relaxed);
        let rerun = counted_wc_job(config.clone(), &calls).run(&lines).unwrap();
        assert_eq!(reference.outputs, rerun.outputs, "{label}: outputs");
        assert_eq!(
            reference.metrics.deterministic(),
            rerun.metrics.deterministic(),
            "{label}: deterministic metrics"
        );
        let p = &rerun.metrics.pipeline;
        assert_eq!(p.checkpoint_invalid, 1, "{label}: the damage is counted");
        assert_eq!(
            (p.checkpoint_hits, p.checkpoint_misses),
            (executed, 0),
            "{label}: every partition is still served"
        );
        assert_eq!(
            calls.map.swap(0, Ordering::Relaxed),
            lines.len() as u64,
            "{label}: the map phase runs again"
        );
        assert_eq!(p.blocks_sent, 0, "{label}: no copy is shipped");

        let replay = counted_wc_job(config, &calls).run(&lines).unwrap();
        assert_eq!(reference.outputs, replay.outputs, "{label}: replay outputs");
        assert_eq!(
            calls.map.load(Ordering::Relaxed),
            0,
            "{label}: the rewritten record serves a full replay"
        );
        let p = &replay.metrics.pipeline;
        assert_eq!(
            (p.checkpoint_hits, p.checkpoint_misses, p.checkpoint_invalid),
            (executed, 0, 0),
            "{label}: replay"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A full replay restores what the map side decided without running it:
/// the capacity policy's verdict over the stored loads, the map-stage
/// dead letters and the map retries, bit-identical to the run that
/// committed them.
#[test]
fn full_replay_restores_capacity_violations_and_the_map_dlq() {
    use mrassign_simmr::DlqMode;
    let lines = word_lines();
    let faulted = |mode, finalize| ClusterConfig {
        retry_budget: 1,
        dlq_mode: DlqMode::Capture,
        fault_plan: Some(FaultPlan {
            poison_map_tasks: vec![3, 17],
            ..FaultPlan::default()
        }),
        ..cluster(mode, finalize, 2)
    };
    let reference_config = faulted(ShuffleMode::Materialized, FinalizeMode::Static);
    let q = wc_job(reference_config.clone())
        .run(&lines)
        .unwrap()
        .metrics
        .max_reducer_load()
        - 1;
    let reference = wc_job(reference_config)
        .capacity(CapacityPolicy::Record(q))
        .run(&lines)
        .unwrap();
    assert!(!reference.metrics.capacity_violations.is_empty());
    assert_eq!(reference.dlq.len(), 2, "both poisoned map tasks");
    for (mode, finalize) in CELLS {
        let label = format!("{mode:?}/{finalize:?}");
        let dir = ckpt_dir("replay-map-side");
        let config = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            ..faulted(mode, finalize)
        };
        let calls = Arc::new(Calls::default());
        let run = || {
            counted_wc_job(config.clone(), &calls)
                .capacity(CapacityPolicy::Record(q))
                .run(&lines)
                .unwrap()
        };
        let cold = run();
        calls.map.store(0, Ordering::Relaxed);
        let replay = run();
        assert_eq!(
            calls.map.load(Ordering::Relaxed),
            0,
            "{label}: a full replay"
        );
        assert_eq!(reference.outputs, replay.outputs, "{label}: outputs");
        assert_eq!(
            reference.metrics.deterministic(),
            replay.metrics.deterministic(),
            "{label}: deterministic metrics, capacity violations included"
        );
        assert_eq!(reference.dlq, replay.dlq, "{label}: map dead letters");
        assert_eq!(
            cold.metrics.faults.map_retries, replay.metrics.faults.map_retries,
            "{label}: map retries"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The startup sweep reclaims temp files a killed process left behind: a
/// fabricated spill run owned by an impossible (hence provably dead) PID
/// disappears during the next checkpointed run and is counted.
#[test]
fn startup_sweep_reclaims_dead_process_orphans() {
    let lines = word_lines();
    let dir = ckpt_dir("orphan");
    // u32::MAX is far above every Linux pid_max, so this owner can never
    // be alive and the sweep must treat the file as a dead orphan.
    let orphan = dir.join(format!("mrassign-spill-{}-0.run", u32::MAX));
    std::fs::write(&orphan, b"leftover sorted run bytes").unwrap();
    let out = wc_job(ClusterConfig {
        checkpoint_dir: Some(dir.clone()),
        ..cluster(ShuffleMode::Pipelined, FinalizeMode::Static, 1)
    })
    .run(&lines)
    .unwrap();
    assert!(!orphan.exists(), "the sweep must delete the orphan");
    assert!(
        out.metrics.pipeline.orphans_reclaimed >= 1,
        "reclaimed orphans are counted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Record copies: the engines move every intermediate record from emit to
// reduce. The only clones are the extra copies a router's replication asks
// for, which is the communication cost the paper prices.
// ---------------------------------------------------------------------------

/// Clones of [`TrackedKey`]s and [`TrackedValue`]s in this process. Only
/// `records_are_cloned_only_for_extra_targets` makes such records, and it
/// runs its cells one after another, so no concurrent test moves these.
static KEY_CLONES: AtomicU64 = AtomicU64::new(0);
static VALUE_CLONES: AtomicU64 = AtomicU64::new(0);

/// A key whose every clone is counted in [`KEY_CLONES`].
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TrackedKey(u64);

impl Clone for TrackedKey {
    fn clone(&self) -> Self {
        KEY_CLONES.fetch_add(1, Ordering::Relaxed);
        TrackedKey(self.0)
    }
}

impl ByteSized for TrackedKey {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl SpillCodec for TrackedKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        u64::decode(bytes).map(TrackedKey)
    }
}

/// A value whose every clone is counted in [`VALUE_CLONES`].
struct TrackedValue(u64);

impl Clone for TrackedValue {
    fn clone(&self) -> Self {
        VALUE_CLONES.fetch_add(1, Ordering::Relaxed);
        TrackedValue(self.0)
    }
}

impl ByteSized for TrackedValue {
    fn size_bytes(&self) -> u64 {
        8
    }
}

impl SpillCodec for TrackedValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        u64::decode(bytes).map(TrackedValue)
    }
}

/// Eight pairs per input over three keys, so every map task groups
/// repeated keys, except for input [`LONG_TASK`]: it emits
/// [`LONG_TASK_PAIRS`] pairs over eleven keys, in runs of seven, enough
/// for the engine to group them by hash. Values are built, never cloned;
/// with `combine` on, a key's values are summed into a new value.
struct TrackedMapper {
    combine: bool,
}

impl Mapper for TrackedMapper {
    type In = u64;
    type Key = TrackedKey;
    type Value = TrackedValue;
    fn map(&self, input: &u64, emit: &mut Emitter<TrackedKey, TrackedValue>) {
        if *input == LONG_TASK {
            for j in 0..LONG_TASK_PAIRS {
                emit.emit(TrackedKey(j / 7 % 11), TrackedValue(j));
            }
            return;
        }
        for j in 0..8 {
            emit.emit(
                TrackedKey((input + j % 3) % 23),
                TrackedValue(input * 8 + j),
            );
        }
    }
    fn combine(&self, _key: &TrackedKey, values: &[TrackedValue]) -> Option<TrackedValue> {
        self.combine
            .then(|| TrackedValue(values.iter().map(|v| v.0).sum()))
    }
}

/// Sums each key's values into a plain output, cloning nothing.
struct TrackedSum;

impl Reducer for TrackedSum {
    type Key = TrackedKey;
    type Value = TrackedValue;
    type Out = (u64, u64);
    fn reduce(&self, key: &TrackedKey, values: &[TrackedValue], out: &mut Vec<(u64, u64)>) {
        out.push((key.0, values.iter().map(|v| v.0).sum()));
    }
}

const TRACKED_INPUTS: u64 = 300;
const TRACKED_PARTITIONS: usize = 4;
/// The last input, the one long map task.
const LONG_TASK: u64 = TRACKED_INPUTS - 1;
const LONG_TASK_PAIRS: u64 = 600;

fn tracked_job<Rt: Router<TrackedKey>>(
    combine: bool,
    router: Rt,
    config: ClusterConfig,
) -> Job<TrackedMapper, TrackedSum, Rt> {
    Job::new(
        TrackedMapper { combine },
        TrackedSum,
        router,
        TRACKED_PARTITIONS,
        config,
    )
}

/// Key and value clones made since the last call.
fn take_clones() -> [u64; 2] {
    [
        KEY_CLONES.swap(0, Ordering::Relaxed),
        VALUE_CLONES.swap(0, Ordering::Relaxed),
    ]
}

/// Clone-count guard over every engine cell: single-target routing clones
/// no record, with or without a combiner, and `BroadcastRouter` over n
/// reducers clones each record exactly n − 1 times, keys and values
/// alike. A killed checkpointed run clones what it ships; its resume
/// ships each record only to the one partition still missing, so it
/// clones nothing. [`LONG_TASK`] puts the hash-grouping map path under
/// the same count.
#[test]
fn records_are_cloned_only_for_extra_targets() {
    let inputs: Vec<u64> = (0..TRACKED_INPUTS).collect();
    let emitted = (TRACKED_INPUTS - 1) * 8 + LONG_TASK_PAIRS;
    let replicas = emitted * (TRACKED_PARTITIONS as u64 - 1);
    let reference_config = cluster(ShuffleMode::Materialized, FinalizeMode::Static, 1);
    let references = [
        tracked_job(false, HashRouter::new(), reference_config.clone()).run(&inputs),
        tracked_job(true, HashRouter::new(), reference_config.clone()).run(&inputs),
    ];
    let broadcast_reference = tracked_job(false, BroadcastRouter, reference_config).run(&inputs);

    let mut cells = vec![(
        "materialized".to_string(),
        cluster(ShuffleMode::Materialized, FinalizeMode::Static, 2),
    )];
    for finalize in [FinalizeMode::Static, FinalizeMode::Stealing] {
        for memory_budget in [None, Some(4096)] {
            cells.push((
                format!("pipelined/{finalize:?} × budget={memory_budget:?}"),
                ClusterConfig {
                    memory_budget,
                    ..cluster(ShuffleMode::Pipelined, finalize, 2)
                },
            ));
        }
    }
    for (label, config) in &cells {
        for (combine, reference) in [false, true].into_iter().zip(&references) {
            take_clones();
            let out = tracked_job(combine, HashRouter::new(), config.clone()).run(&inputs);
            let what = if combine {
                "a combiner"
            } else {
                "single-target routing"
            };
            assert_eq!(take_clones(), [0, 0], "{label}: {what} clones no record");
            assert_cell_matches(reference, out, &format!("{label}: {what}"));
        }
        take_clones();
        let out = tracked_job(false, BroadcastRouter, config.clone())
            .run(&inputs)
            .unwrap();
        assert_eq!(
            take_clones(),
            [replicas, replicas],
            "{label}: broadcast clones each record once per extra reducer"
        );
        assert_eq!(out.metrics.records_emitted, emitted);
        if config.memory_budget.is_some() {
            assert!(
                out.metrics.pipeline.spilled_runs > 0,
                "{label}: the budget spills"
            );
        }
        assert_cell_matches(
            &broadcast_reference,
            Ok(out),
            &format!("{label}: broadcast"),
        );
    }

    for mode in [ShuffleMode::Materialized, ShuffleMode::Pipelined] {
        let label = format!("checkpointed {mode:?}");
        let dir = ckpt_dir("clones");
        let kill = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            fault_plan: Some(FaultPlan {
                kill_reduce_tasks: vec![TRACKED_PARTITIONS - 1],
                ..FaultPlan::default()
            }),
            ..cluster(mode, FinalizeMode::Static, 1)
        };
        take_clones();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracked_job(false, BroadcastRouter, kill).run(&inputs)
        }));
        assert!(
            killed.is_err(),
            "{label}: the kill verdict must panic the run"
        );
        assert_eq!(
            take_clones(),
            [replicas, replicas],
            "{label}: the killed run ships every copy"
        );
        let resume = ClusterConfig {
            checkpoint_dir: Some(dir.clone()),
            fault_plan: Some(FaultPlan::default()),
            ..cluster(mode, FinalizeMode::Static, 2)
        };
        let resumed = tracked_job(false, BroadcastRouter, resume).run(&inputs);
        assert_eq!(take_clones(), [0, 0], "{label}: the resume clones nothing");
        let misses = resumed
            .as_ref()
            .map(|out| out.metrics.pipeline.checkpoint_misses);
        assert_eq!(misses, Ok(1), "{label}: only the killed partition runs");
        assert_cell_matches(&broadcast_reference, resumed, &format!("{label}: resume"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
