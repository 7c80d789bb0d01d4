//! Criterion bench for the capacity planner's q-frontier sweep — the
//! tracked perf baseline (`BENCH_planner.json` at the workspace root).
//!
//! Each point runs a full `plan_a2a` sweep (solve + cost-model score for
//! every candidate) at m ∈ {100, 1k, 10k} inputs with 32 candidates, at
//! `threads = 1` and `threads = 4`, so the baseline records both the
//! absolute trajectory and the parallel speedup. On a multi-core host the
//! threads=4 sweep is expected to be ≥2× faster at m = 10k; the JSON's
//! `host_cpus` field says how much parallelism the recording machine
//! actually had.
//!
//! `q_min` is pinned to total/16 so the low end of the sweep stays at a
//! realistic reducer count (an unconstrained sweep at m = 10k would start
//! at millions of pairing reducers and measure allocator churn instead of
//! the planner).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrassign_planner::{plan_a2a, PlannerConfig};
use mrassign_workloads::SizeDistribution;
use std::hint::black_box;

fn bench_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    for &m in &[100usize, 1_000, 10_000] {
        let weights = SizeDistribution::Uniform { lo: 50, hi: 150 }.sample_many(m, 11);
        let total: u64 = weights.iter().sum();
        for &threads in &[1usize, 4] {
            let config = PlannerConfig {
                candidates: 32,
                threads,
                q_min: Some((total / 16).max(400)),
                ..PlannerConfig::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("frontier/m={m}"), format!("threads={threads}")),
                &weights,
                |b, weights| b.iter(|| plan_a2a(black_box(weights), &config).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_frontier);
criterion_main!(benches);
