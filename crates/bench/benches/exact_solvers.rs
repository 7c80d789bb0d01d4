//! Criterion microbenches for the exact solvers: the exponential wall of
//! Table 2, measured precisely (the sweep now reaches m = 12 — the seed
//! search fell over past m ≈ 8), the same search on an X2Y instance, plus
//! the pseudo-polynomial 2-reducer DP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrassign_core::{exact, InputSet, X2yInstance};
use std::hint::black_box;

fn bench_a2a_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/a2a");
    group.sample_size(10);
    for &m in &[5usize, 7, 9, 10, 11, 12] {
        let weights: Vec<u64> = (0..m as u64).map(|i| 5 + (i * 3) % 6).collect();
        let inputs = InputSet::from_weights(weights);
        group.bench_with_input(BenchmarkId::from_parameter(m), &inputs, |b, inputs| {
            b.iter(|| exact::a2a_exact(black_box(inputs), 21, 50_000_000).unwrap())
        });
    }
    group.finish();
}

fn bench_x2y_exact(c: &mut Criterion) {
    // Alternating 5s and 8s on both sides: neither the heuristics, the
    // bounds nor the two-reducer DP settle it, so the search certifies the
    // optimum of 14 reducers (29,931 nodes).
    let mut group = c.benchmark_group("exact/x2y");
    group.sample_size(10);
    let inst = X2yInstance::from_weights(vec![5, 8, 5, 8, 5, 8], vec![8, 5, 8, 5, 8]);
    group.bench_with_input(BenchmarkId::from_parameter("6x5"), &inst, |b, inst| {
        b.iter(|| exact::x2y_exact(black_box(inst), 21, 50_000_000).unwrap())
    });
    group.finish();
}

fn bench_two_reducer_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact/x2y_two_reducer_dp");
    for &n in &[50usize, 200, 800] {
        let weights: Vec<u64> = (1..=n as u64).collect();
        let sum: u64 = weights.iter().sum();
        let inst = X2yInstance::from_weights(weights, vec![4]);
        let q = sum / 2 + 10;
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| exact::x2y_two_reducers(black_box(inst), q))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_a2a_exact,
    bench_x2y_exact,
    bench_two_reducer_dp
);
criterion_main!(benches);
