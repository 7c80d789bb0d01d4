//! Referee for the grouped schema representation. A schema stores its
//! input groups once and, per reducer, the groups it hosts; everything
//! read from it must equal what its reducers' member lists say.
//!
//! * On random instances, every schema of every A2A and X2Y solver (every
//!   packing policy of the packing heuristics, and the exact solvers on
//!   small instances) equals the schema built from its expanded member
//!   lists, and `loads`, `communication_cost`, `replication`, `to_routes`,
//!   validation, `covers_exactly_once` and the planner's `reducer_sizes`
//!   equal naive recomputations over those lists.
//! * On a fixed family of instances, each registered solver's expanded
//!   member lists hash to the digest the member-list representation (one
//!   `Vec` per reducer) produced before the groups replaced it: the
//!   solvers build the same reducers, id for id and in the same order.

use std::collections::HashSet;

use mrassign_binpack::FitPolicy;
use mrassign_core::a2a::A2aAlgorithm;
use mrassign_core::exact::SearchBudget;
use mrassign_core::solver::{A2A_SOLVERS, X2Y_SOLVERS};
use mrassign_core::x2y::X2yAlgorithm;
use mrassign_core::{AssignmentSolver, InputSet, MappingSchema, X2yInstance, X2ySchema};
use proptest::prelude::*;

/// One A2A reducer's members.
type Members = Vec<u32>;
/// One X2Y reducer's X and Y members.
type CrossMembers = (Vec<u32>, Vec<u32>);

fn a2a_lists(schema: &MappingSchema) -> Vec<Members> {
    schema.reducers().map(|r| r.to_vec()).collect()
}

fn x2y_lists(schema: &X2ySchema) -> Vec<CrossMembers> {
    schema
        .reducers()
        .map(|r| (r.x.to_vec(), r.y.to_vec()))
        .collect()
}

/// `(load, copies)` of each member list: the summed weight, `None` past
/// `u64::MAX`, and the member count.
fn naive_sizes<'a>(
    lists: impl IntoIterator<Item = &'a [u32]>,
    weight: impl Fn(u32) -> u64,
) -> Vec<(Option<u64>, u64)> {
    lists
        .into_iter()
        .map(|ids| {
            let load = ids
                .iter()
                .try_fold(0u64, |load, &id| load.checked_add(weight(id)));
            (load, ids.len() as u64)
        })
        .collect()
}

fn naive_replication<'a>(lists: impl IntoIterator<Item = &'a [u32]>, n: usize) -> Vec<u32> {
    let mut rep = vec![0; n];
    for &id in lists.into_iter().flatten() {
        if (id as usize) < n {
            rep[id as usize] += 1;
        }
    }
    rep
}

/// Whether the member lists solve the A2A instance: ids in range, none
/// twice in a reducer, loads within `q`, every pair co-resident.
fn naive_a2a_valid(lists: &[Members], weights: &[u64], q: u64) -> bool {
    let mut covered = HashSet::new();
    for ids in lists {
        let distinct: HashSet<u32> = ids.iter().copied().collect();
        let in_range = ids.iter().all(|&id| (id as usize) < weights.len());
        if !in_range || distinct.len() != ids.len() {
            return false;
        }
        if ids
            .iter()
            .map(|&id| weights[id as usize] as u128)
            .sum::<u128>()
            > q as u128
        {
            return false;
        }
        for &a in ids {
            for &b in ids {
                covered.insert((a.min(b), a.max(b)));
            }
        }
    }
    let m = weights.len() as u32;
    (0..m).all(|a| (a + 1..m).all(|b| covered.contains(&(a, b))))
}

/// Whether the member lists solve the X2Y instance, and whether they
/// cover every cross pair exactly once.
fn naive_x2y_check(lists: &[CrossMembers], x: &[u64], y: &[u64], q: u64) -> (bool, bool) {
    let mut counts = vec![0u32; x.len() * y.len()];
    let mut valid = true;
    for (xs, ys) in lists {
        let distinct = |ids: &[u32]| ids.iter().collect::<HashSet<_>>().len() == ids.len();
        let in_range = xs.iter().all(|&i| (i as usize) < x.len())
            && ys.iter().all(|&i| (i as usize) < y.len());
        if !in_range || !distinct(xs) || !distinct(ys) {
            return (false, false);
        }
        let load: u128 = xs.iter().map(|&i| x[i as usize] as u128).sum::<u128>()
            + ys.iter().map(|&i| y[i as usize] as u128).sum::<u128>();
        valid &= load <= q as u128;
        for &a in xs {
            for &b in ys {
                counts[a as usize * y.len() + b as usize] += 1;
            }
        }
    }
    let covered = counts.iter().all(|&c| c >= 1);
    (valid && covered, counts.iter().all(|&c| c == 1))
}

/// Checks an A2A schema against its expanded member lists.
fn referee_a2a(schema: &MappingSchema, inputs: &InputSet, q: u64, what: &str) {
    let lists = a2a_lists(schema);
    let weights = inputs.weights();
    let flat = MappingSchema::from_reducers(lists.clone());
    let slices = || lists.iter().map(Vec::as_slice);
    let weight = |id: u32| weights[id as usize];
    assert_eq!(schema, &flat, "{what}");
    assert_eq!(schema.reducer_count(), lists.len(), "{what}");
    assert_eq!(schema.reducers().len(), lists.len(), "{what}");
    for (r, ids) in schema.reducers().zip(&lists) {
        assert_eq!(r.len(), ids.len(), "{what}");
        assert!(ids.iter().all(|&id| r.contains(id)), "{what}");
    }
    let sizes = naive_sizes(slices(), weight);
    assert_eq!(
        schema.reducer_sizes(inputs).collect::<Vec<_>>(),
        sizes,
        "{what}"
    );
    let loads: Vec<u64> = sizes
        .iter()
        .map(|s| s.0.expect("test weights are small"))
        .collect();
    assert_eq!(schema.loads(inputs), loads, "{what}");
    let communication: u128 = loads.iter().map(|&l| l as u128).sum();
    assert_eq!(schema.communication_cost(inputs), communication, "{what}");
    for n in [weights.len(), weights.len() / 2] {
        assert_eq!(
            schema.replication(n),
            naive_replication(slices(), n),
            "{what}"
        );
    }
    let mut routes = Vec::new();
    for (rid, ids) in lists.iter().enumerate() {
        for &id in ids {
            if routes.len() <= id as usize {
                routes.resize_with(id as usize + 1, || (0, Vec::new()));
            }
            routes[id as usize].1.push(rid);
        }
    }
    for (id, route) in routes.iter_mut().enumerate() {
        route.0 = id as u32;
    }
    assert_eq!(schema.to_routes(), routes, "{what}");
    // At q, and tight enough that some schemas fail on capacity.
    let heaviest = loads.iter().copied().max().unwrap_or(0);
    for cap in [q, heaviest.saturating_sub(1).max(1)] {
        let verdict = schema.validate_a2a(inputs, cap);
        assert_eq!(verdict, flat.validate_a2a(inputs, cap), "{what} at {cap}");
        assert_eq!(
            verdict.is_ok(),
            naive_a2a_valid(&lists, weights, cap),
            "{what} at {cap}"
        );
    }
}

/// Checks an X2Y schema against its expanded member lists.
fn referee_x2y(schema: &X2ySchema, inst: &X2yInstance, q: u64, what: &str) {
    let lists = x2y_lists(schema);
    let (x, y) = (inst.x.weights(), inst.y.weights());
    let flat = X2ySchema::from_reducers(lists.clone());
    assert_eq!(schema, &flat, "{what}");
    assert_eq!(schema.reducer_count(), lists.len(), "{what}");
    assert_eq!(schema.reducers().len(), lists.len(), "{what}");
    let x_sizes = naive_sizes(lists.iter().map(|r| r.0.as_slice()), |id| x[id as usize]);
    let y_sizes = naive_sizes(lists.iter().map(|r| r.1.as_slice()), |id| y[id as usize]);
    let sizes: Vec<(Option<u64>, u64)> = x_sizes
        .iter()
        .zip(&y_sizes)
        .map(|(a, b)| (a.0.zip(b.0).and_then(|(l, m)| l.checked_add(m)), a.1 + b.1))
        .collect();
    assert_eq!(
        schema.reducer_sizes(inst).collect::<Vec<_>>(),
        sizes,
        "{what}"
    );
    let loads: Vec<u64> = sizes
        .iter()
        .map(|s| s.0.expect("test weights are small"))
        .collect();
    assert_eq!(schema.loads(inst), loads, "{what}");
    let communication: u128 = loads.iter().map(|&l| l as u128).sum();
    assert_eq!(schema.communication_cost(inst), communication, "{what}");
    let replication = (
        naive_replication(lists.iter().map(|r| r.0.as_slice()), x.len()),
        naive_replication(lists.iter().map(|r| r.1.as_slice()), y.len()),
    );
    assert_eq!(schema.replication(inst), replication, "{what}");
    let heaviest = loads.iter().copied().max().unwrap_or(0);
    for cap in [q, heaviest.saturating_sub(1).max(1)] {
        let verdict = schema.validate(inst, cap);
        assert_eq!(verdict, flat.validate(inst, cap), "{what} at {cap}");
        let (valid, once) = naive_x2y_check(&lists, x, y, cap);
        assert_eq!(verdict.is_ok(), valid, "{what} at {cap}");
        assert_eq!(schema.covers_exactly_once(inst), once, "{what}");
    }
}

/// The A2A solvers: the registry, every packing policy of the packing
/// heuristics, and the exact search on small instances.
fn a2a_solvers(m: usize) -> Vec<A2aAlgorithm> {
    let mut solvers = A2A_SOLVERS.to_vec();
    for policy in FitPolicy::ALL {
        solvers.push(A2aAlgorithm::BinPackPairing(policy));
        for shared_bins in [false, true] {
            solvers.push(A2aAlgorithm::BigSmall {
                policy,
                shared_bins,
            });
        }
    }
    if m <= 6 {
        solvers.push(A2aAlgorithm::Exact(SearchBudget::nodes(5_000)));
    }
    solvers
}

/// The X2Y solvers, as for [`a2a_solvers`], plus an unbalanced grid split.
fn x2y_solvers(inst: &X2yInstance, q: u64) -> Vec<X2yAlgorithm> {
    let mut solvers = X2Y_SOLVERS.to_vec();
    for policy in FitPolicy::ALL {
        solvers.push(X2yAlgorithm::Grid(policy));
        solvers.push(X2yAlgorithm::GridOptimized(policy));
        solvers.push(X2yAlgorithm::BigHandling(policy));
        solvers.push(X2yAlgorithm::GridWithSplit(policy, q - inst.y.max_weight()));
    }
    if inst.x.len() <= 4 && inst.y.len() <= 4 {
        solvers.push(X2yAlgorithm::Exact(SearchBudget::nodes(5_000)));
    }
    solvers
}

/// Feasible A2A instances: smalls at most `⌊q/2⌋`, sometimes all equal,
/// sometimes with one big input.
fn a2a_instance() -> impl Strategy<Value = (InputSet, u64)> {
    (4u64..=150, 0u8..3).prop_flat_map(|(q, shape)| {
        (
            proptest::collection::vec(0..=q / 2, 0..30),
            0..=q / 2,
            Just((q, shape)),
        )
            .prop_map(|(mut weights, extra, (q, shape))| {
                let max_small = weights.iter().copied().max().unwrap_or(0);
                match shape {
                    0 => weights.iter_mut().for_each(|w| *w = extra),
                    1 if q - max_small > q / 2 => weights.push(q - max_small - extra % 3),
                    _ => {}
                }
                (InputSet::from_weights(weights), q)
            })
    })
}

/// Feasible X2Y instances: both sides at most `⌊q/2⌋`, sometimes with one
/// big input on X or on Y.
fn x2y_instance() -> impl Strategy<Value = (X2yInstance, u64)> {
    (4u64..=150, 0u8..3).prop_flat_map(|(q, shape)| {
        (
            proptest::collection::vec(0..=q / 2, 0..16),
            proptest::collection::vec(0..=q / 2, 0..16),
            Just((q, shape)),
        )
            .prop_map(|(mut x, mut y, (q, shape))| {
                let (max_x, max_y) = (
                    x.iter().copied().max().unwrap_or(0),
                    y.iter().copied().max().unwrap_or(0),
                );
                match shape {
                    1 => x.insert(x.len() / 2, q - max_y),
                    2 => y.insert(y.len() / 2, q - max_x),
                    _ => {}
                }
                (X2yInstance::from_weights(x, y), q)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a2a_schemas_match_their_member_lists((inputs, q) in a2a_instance()) {
        for solver in a2a_solvers(inputs.len()) {
            if let Ok(schema) = solver.solve(&inputs, q) {
                referee_a2a(&schema, &inputs, q, &format!("{solver:?} at q = {q}"));
            }
        }
    }

    #[test]
    fn x2y_schemas_match_their_member_lists((inst, q) in x2y_instance()) {
        for solver in x2y_solvers(&inst, q) {
            if let Ok(schema) = solver.solve(&inst, q) {
                referee_x2y(&schema, &inst, q, &format!("{solver:?} at q = {q}"));
            }
        }
    }
}

/// FNV-1a, 64-bit, over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[u32]) {
        self.bytes(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            self.bytes(&id.to_le_bytes());
        }
    }
}

/// A xorshift stream, so the family never changes with a dependency.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// `m` weights of one of five shapes: uniform, Zipf-like, one big
    /// input among equal smalls, all equal, and small with zeros.
    fn weights(&mut self, shape: u64, m: usize) -> Vec<u64> {
        (0..m)
            .map(|i| match shape {
                0 => 10 + self.below(91),
                1 => 1000 / (1 + self.below(100)),
                2 if i == m / 2 => 800,
                2 => 40,
                3 => 7,
                _ => self.below(31),
            })
            .collect()
    }
}

/// Capacities from the feasibility floor up to the total weight.
fn capacities(floor: u64, total: u64) -> [u64; 6] {
    let floor = floor.max(1);
    let total = total.max(floor);
    [
        floor,
        floor + 1,
        floor * 3 / 2 + 1,
        floor * 2 + 3,
        (floor + total) / 2,
        total,
    ]
}

fn a2a_family() -> Vec<(InputSet, u64)> {
    let mut stream = Stream(0x9e37_79b9_7f4a_7c15);
    let mut family = Vec::new();
    for m in [0, 1, 2, 3, 5, 6, 9, 14, 30, 80] {
        for shape in 0..5 {
            let inputs = InputSet::from_weights(stream.weights(shape, m));
            let floor = inputs
                .two_largest()
                .map_or(inputs.max_weight(), |(a, b)| a + b);
            let total = inputs.total_weight() as u64;
            family.extend(capacities(floor, total).map(|q| (inputs.clone(), q)));
        }
    }
    family
}

fn x2y_family() -> Vec<(X2yInstance, u64)> {
    let mut stream = Stream(0x2545_f491_4f6c_dd1d);
    let mut family = Vec::new();
    for (nx, ny) in [(0, 3), (1, 1), (2, 3), (4, 4), (5, 2), (12, 30), (40, 25)] {
        for shape in 0..5 {
            // No big input, a big input on X, a big input on Y.
            for big in 0..3 {
                let mut x = stream.weights(shape, nx);
                let mut y = stream.weights((shape + 1) % 5, ny);
                let (max_x, max_y) = (
                    x.iter().copied().max().unwrap_or(0),
                    y.iter().copied().max().unwrap_or(0),
                );
                match big {
                    1 if nx > 0 => x[0] = 3 * max_y.max(1) + max_x,
                    2 if ny > 0 => y[ny - 1] = 3 * max_x.max(1) + max_y,
                    _ => {}
                }
                let inst = X2yInstance::from_weights(x, y);
                let floor = inst.x.max_weight() + inst.y.max_weight();
                let total = (inst.x.total_weight() + inst.y.total_weight()) as u64;
                family.extend(capacities(floor, total).map(|q| (inst.clone(), q)));
            }
        }
    }
    family
}

/// Per registered solver, the digest of every schema (or error message)
/// it returns on the family, and how many schemas it built.
fn a2a_digests() -> Vec<(&'static str, u64, usize)> {
    let exact = A2aAlgorithm::Exact(SearchBudget::nodes(5_000));
    let family = a2a_family();
    let solvers = A2A_SOLVERS.iter().copied().chain([exact]);
    solvers
        .map(|solver| {
            let (mut digest, mut built) = (Digest::new(), 0);
            for (inputs, q) in &family {
                if solver == exact && inputs.len() > 6 {
                    continue;
                }
                match solver.solve(inputs, *q) {
                    Ok(schema) => {
                        built += 1;
                        let lists = a2a_lists(&schema);
                        digest.bytes(&(lists.len() as u64).to_le_bytes());
                        lists.iter().for_each(|ids| digest.ids(ids));
                    }
                    Err(e) => digest.bytes(e.to_string().as_bytes()),
                }
            }
            (solver.name(), digest.0, built)
        })
        .collect()
}

/// The X2Y counterpart of [`a2a_digests`].
fn x2y_digests() -> Vec<(&'static str, u64, usize)> {
    let exact = X2yAlgorithm::Exact(SearchBudget::nodes(5_000));
    let family = x2y_family();
    let solvers = X2Y_SOLVERS.iter().copied().chain([exact]);
    solvers
        .map(|solver| {
            let (mut digest, mut built) = (Digest::new(), 0);
            for (inst, q) in &family {
                if solver == exact && (inst.x.len() > 4 || inst.y.len() > 4) {
                    continue;
                }
                match solver.solve(inst, *q) {
                    Ok(schema) => {
                        built += 1;
                        let lists = x2y_lists(&schema);
                        digest.bytes(&(lists.len() as u64).to_le_bytes());
                        for (xs, ys) in &lists {
                            digest.ids(xs);
                            digest.ids(ys);
                        }
                    }
                    Err(e) => digest.bytes(e.to_string().as_bytes()),
                }
            }
            (solver.name(), digest.0, built)
        })
        .collect()
}

#[test]
fn registered_solvers_build_the_member_lists_they_always_built() {
    assert_eq!(a2a_digests(), A2A_DIGESTS);
    assert_eq!(x2y_digests(), X2Y_DIGESTS);
}

/// `(solver, digest, schemas built)`, recorded from the member-list
/// representation.
const A2A_DIGESTS: [(&str, u64, usize); 7] = [
    ("auto", 0x84e117fcf7cecce4, 300),
    ("one-reducer", 0x0a24e834e9bdc196, 151),
    ("grouping", 0xaa3017f8a7a098e5, 108),
    ("pairing", 0xd897017130384c34, 239),
    ("bigsmall", 0x84e117fcf7cecce4, 300),
    ("bigsmall-shared", 0xfca7d5275ed05e2b, 300),
    ("exact", 0xec9dc3afea8b9df3, 180),
];

/// `(solver, digest, schemas built)`, recorded from the member-list
/// representation.
const X2Y_DIGESTS: [(&str, u64, usize); 6] = [
    ("auto", 0x9e4a742c18dcc19b, 630),
    ("one-reducer", 0x4c9884e20b8dfb04, 318),
    ("grid", 0xc16554107e7812df, 262),
    ("grid-optimized", 0x7077ffec3e5408f1, 630),
    ("bighandling", 0xb60b5430e0bf86e2, 630),
    ("exact", 0x26d4afc09f074fb7, 360),
];
