//! NP-completeness, made tangible: the exact solver's running time explodes
//! with instance size while the heuristics stay instant — and the 2-reducer
//! structure results show *where* the hardness lives. The pruned search
//! (iterative deepening + dominance + bounds + memo) pushes the certified
//! frontier on this PARTITION-tight family to m = 12; m = 13 honestly
//! reports `optimal: false` when the budget runs dry.
//!
//! Run with: `cargo run --release --example hardness_demo`

use std::time::Instant;

use mrassign::core::{a2a, exact, InputSet, X2yInstance};

fn main() {
    println!("== Exact branch-and-bound vs heuristic (A2A) ==");
    println!(
        "{:>4} {:>14} {:>12} {:>10} {:>10} {:>9}",
        "m", "exact_nodes", "exact_ms", "z_exact", "z_heur", "optimal"
    );
    for m in [4usize, 6, 8, 9, 10, 11, 12, 13] {
        // Weights chosen so packing is awkward: no clean halves.
        let weights: Vec<u64> = (0..m as u64).map(|i| 5 + (i * 3) % 6).collect();
        let inputs = InputSet::from_weights(weights);
        let q = 21;

        let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        let start = Instant::now();
        let result = exact::a2a_exact(&inputs, q, 20_000_000).unwrap();
        let elapsed = start.elapsed();
        println!(
            "{:>4} {:>14} {:>12.2} {:>10} {:>10} {:>9}",
            m,
            result.stats.nodes,
            elapsed.as_secs_f64() * 1e3,
            result.schema.reducer_count(),
            heuristic.reducer_count(),
            result.optimal,
        );
    }

    println!("\n== The A2A two-reducer theorem ==");
    let inputs = InputSet::from_weights(vec![3, 3, 3, 3]);
    let q = 9;
    println!(
        "W = {} > q = {q}: two reducers can never work (an input exclusive to \
         reducer 1 cannot meet one exclusive to reducer 2).",
        inputs.total_weight()
    );
    let ex = exact::a2a_exact(&inputs, q, 1_000_000).unwrap();
    println!(
        "exact optimum: {} reducers — skipping 2 entirely.",
        ex.schema.reducer_count()
    );

    println!("\n== X2Y with two reducers is PARTITION in disguise ==");
    // Y must be replicated to both reducers; X must split into two halves
    // of weight ≤ q − W_Y = 10. X's weights sum to 20: we need an exact
    // partition of {7, 6, 4, 3} into two 10s.
    let inst = X2yInstance::from_weights(vec![7, 6, 4, 3], vec![2, 2]);
    let q = 14;
    match exact::x2y_two_reducers(&inst, q) {
        Some(schema) => {
            println!("q = {q}: 2-reducer schema exists — the subset-sum DP found a split:");
            for (i, r) in schema.reducers().enumerate() {
                let wx: u64 = r.x.iter().map(|&x| inst.x.weight(x)).sum();
                println!("  reducer {i}: X part {:?} (weight {wx}) + all of Y", r.x);
            }
        }
        None => println!("q = {q}: no 2-reducer schema"),
    }
    // Shrink q by one: the partition disappears.
    let q = 13;
    println!(
        "q = {q}: {}",
        match exact::x2y_two_reducers(&inst, q) {
            Some(_) => "2-reducer schema exists".to_string(),
            None => "no 2-reducer schema — the required subset sum does not exist".to_string(),
        }
    );
}
