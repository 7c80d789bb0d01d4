//! Criterion bench for the pipelined shuffle's out-of-core path — the
//! tracked perf baseline (`BENCH_shuffle.json` at the workspace root).
//!
//! Two structurally different workloads (word count with a combiner, and
//! a hot-reducer concatenation that funnels ~90% of all bytes into one
//! partition), each at two sizes, each under an unbounded memory budget
//! (never spills) and a tight one (spills partition buffers to disk and
//! reads them back whole at finalize). The unbounded/tight pairs bound the
//! cost of going out of core; a regression in either the finalize sort or
//! the spill write/read path shows up against the committed baseline via
//! `cargo xtask bench-check --bench shuffle`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrassign_simmr::{
    ClusterConfig, Emitter, FinalizeMode, HashRouter, Job, Mapper, Reducer, Router, ShuffleMode,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Per-consumer-group budget small enough that both workloads overflow it
/// at every benched size, so the `tight` points genuinely measure the
/// spill write + read-back path.
const TIGHT_BUDGET: u64 = 8 * 1024;

/// Spill to tmpfs when the host has one. A tight budget churns one temp
/// file per sealed run; on a disk-backed `/tmp` the median then tracks
/// the filesystem's flush behavior instead of the engine, which makes the
/// committed baseline unstable run to run.
fn spill_dir() -> Option<PathBuf> {
    let shm = Path::new("/dev/shm");
    shm.is_dir().then(|| shm.to_path_buf())
}

fn cluster(memory_budget: Option<u64>) -> ClusterConfig {
    ClusterConfig {
        shuffle: ShuffleMode::Pipelined,
        finalize_mode: FinalizeMode::Stealing,
        map_threads: 4,
        memory_budget,
        spill_dir: spill_dir(),
        ..ClusterConfig::default()
    }
}

fn budget_label(memory_budget: Option<u64>) -> &'static str {
    match memory_budget {
        None => "unbounded",
        Some(_) => "tight",
    }
}

// --- word count -----------------------------------------------------------

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

/// Deterministic synthetic text with zipf-flavored word frequencies.
fn word_lines(n: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let mut words = Vec::new();
            for j in 0..(3 + i % 9) {
                let rank = (i * 31 + j * 17) % 97;
                words.push(format!("word{}", rank * rank % 211));
            }
            words.join(" ")
        })
        .collect()
}

// --- hot reducer ----------------------------------------------------------

/// Routes the heavy-hitter key 0 straight to partition 0 and spreads the
/// thin tail over the rest — the workload whose single hot partition most
/// exceeds any per-group budget.
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

/// Order-sensitive concatenation: any reorder at finalize would change the
/// output, so the bench exercises the same path the differential suite pins.
struct HotConcat;
impl Reducer for HotConcat {
    type Key = u64;
    type Value = String;
    type Out = (u64, String);
    fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
        out.push((*key, values.concat()));
    }
}

/// ~90% of the records carry the heavy-hitter key 0.
fn hot_records(n: u64) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| {
            let key = if i % 10 != 0 { 0 } else { 1 + (i / 10) % 20 };
            (key, format!("record-{i:06}-"))
        })
        .collect()
}

/// One group holds every point (the vendored criterion stub writes one
/// `BENCH_shuffle.json` per `finish()`, so splitting the workloads into
/// two groups would drop half the baseline).
fn bench_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle");
    for &n in &[500u64, 2_000] {
        let lines = word_lines(n);
        for budget in [None, Some(TIGHT_BUDGET)] {
            group.bench_with_input(
                BenchmarkId::new(format!("word_count/n={n}"), budget_label(budget)),
                &lines,
                |b, lines| {
                    b.iter(|| {
                        Job::new(Tokenize, Count, HashRouter::new(), 11, cluster(budget))
                            .run(black_box(lines))
                            .unwrap()
                    })
                },
            );
        }
    }
    for &n in &[1_000u64, 4_000] {
        let records = hot_records(n);
        for budget in [None, Some(TIGHT_BUDGET)] {
            group.bench_with_input(
                BenchmarkId::new(format!("hot_reducer/n={n}"), budget_label(budget)),
                &records,
                |b, records| {
                    b.iter(|| {
                        Job::new(HotMapper, HotConcat, HotRouter, 8, cluster(budget))
                            .run(black_box(records))
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shuffle);
criterion_main!(benches);
