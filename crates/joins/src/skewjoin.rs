//! Skew join of `X(A, B)` ⋈ `Y(B, C)`: the X2Y application.
//!
//! A join key `b` is a **heavy hitter** when its tuples together exceed
//! the reducer capacity `q` — no single reducer may receive all of them,
//! yet every `(x, y)` pair with that key must still meet. That is exactly
//! the X2Y mapping-schema problem, instantiated per heavy key:
//!
//! 1. tuples are weighed (attributes + payload bytes);
//! 2. keys whose total weight exceeds `q` get a per-key X2Y schema
//!    ([`mrassign_core::x2y::solve`]) occupying a block of reducers;
//! 3. light keys are bin-packed whole into capacity-`q` partitions
//!    (first-fit decreasing over per-key weights), so no partition can
//!    overflow — unlike hash partitioning, which lets collisions and skew
//!    blow the capacity;
//! 4. keys present on only one side ship nowhere (they cannot produce
//!    output), a semi-join pruning both baselines also get for fairness of
//!    the *capacity* comparison — communication differences then come from
//!    replication policy alone.
//!
//! Baselines on the same engine: **naive hash** (classic partitioning;
//! correct but violates `q` under skew — measured, not fatal, via
//! [`CapacityPolicy::Record`]) and **broadcast-Y** (replicates all of `Y`
//! to every reducer; capacity-safe for large `q` but pays communication
//! proportional to `reducers × |Y|`).

use mrassign_binpack::FitPolicy;
use mrassign_core::{x2y, X2yInstance};
use mrassign_simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, HashRouter, Job, JobMetrics,
    Mapper, Reducer, Router, SpillCodec,
};
use mrassign_workloads::RelationPair;

use crate::error::JoinError;

/// Per-tuple fixed overhead: side tag (1) + join key (8) + other attribute
/// (8). Payload bytes come on top. Schema weights and engine accounting
/// both use this, which is what lets `Enforce(q)` hold exactly.
const TUPLE_HEADER_BYTES: u64 = 17;

/// How to route tuples to reducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewJoinStrategy {
    /// Classic hash partitioning on `B` into a fixed pool of reducers.
    /// Correct, but heavy hitters overload reducers: capacity violations
    /// are recorded in the metrics.
    NaiveHash {
        /// Number of reducer partitions.
        reducers: usize,
    },
    /// Replicate every `Y` tuple to all reducers; spread `X` uniformly.
    /// Capacity-safe only when `W_Y + W_X/reducers ≤ q`; communication
    /// scales with `reducers · W_Y`.
    BroadcastY {
        /// Number of reducer partitions.
        reducers: usize,
    },
    /// The paper's approach: X2Y mapping schemas for heavy hitters, FFD
    /// key-packing for light keys. Runs under `Enforce(q)` — violations
    /// are impossible by construction.
    SkewAware {
        /// Bin-packing policy used for schemas and light-key packing.
        policy: FitPolicy,
    },
}

/// Configuration of a skew-join run.
#[derive(Debug, Clone)]
pub struct SkewJoinConfig {
    /// Reducer capacity `q` in bytes.
    pub capacity: u64,
    /// Routing strategy.
    pub strategy: SkewJoinStrategy,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
}

/// Everything a skew-join run returns.
#[derive(Debug, Clone)]
pub struct SkewJoinResult {
    /// Join output `(a, b, c)`, sorted, each pair exactly once.
    pub output: Vec<(u64, u64, u64)>,
    /// Engine metrics.
    pub metrics: JobMetrics,
    /// Number of heavy-hitter keys (always 0 for the baselines).
    pub heavy_keys: usize,
    /// Total reducer partitions used.
    pub reducers: usize,
}

/// A tuple as shipped through the shuffle. Shared with the DAG port in
/// [`crate::skewdag`], which stages the same rounds on a `StageGraph`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TaggedTuple {
    /// True for X-side tuples.
    pub(crate) is_x: bool,
    pub(crate) b: u64,
    /// `A` for X tuples, `C` for Y tuples.
    pub(crate) other: u64,
    pub(crate) payload: String,
}

impl ByteSized for TaggedTuple {
    fn size_bytes(&self) -> u64 {
        TUPLE_HEADER_BYTES + self.payload.len() as u64
    }
}

// Lets skew-join runs execute under a `memory_budget` (tuples spill to
// disk mid-shuffle and stream back through the finalize merge).
impl SpillCodec for TaggedTuple {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.is_x.encode(buf);
        self.b.encode(buf);
        self.other.encode(buf);
        self.payload.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(TaggedTuple {
            is_x: bool::decode(bytes)?,
            b: u64::decode(bytes)?,
            other: u64::decode(bytes)?,
            payload: String::decode(bytes)?,
        })
    }
}

/// Engine input: a tagged tuple plus its precomputed reducer targets.
#[derive(Hash)]
pub(crate) struct RoutedTuple {
    pub(crate) tuple: TaggedTuple,
    pub(crate) targets: Vec<usize>,
}

impl ByteSized for RoutedTuple {
    fn size_bytes(&self) -> u64 {
        self.tuple.size_bytes()
    }
}

pub(crate) struct RouteMapper;

impl Mapper for RouteMapper {
    type In = RoutedTuple;
    type Key = u64;
    type Value = TaggedTuple;

    fn map(&self, input: &RoutedTuple, emit: &mut Emitter<u64, TaggedTuple>) {
        for &t in &input.targets {
            emit.emit(t as u64, input.tuple.clone());
        }
    }
}

pub(crate) struct JoinReducer;

impl Reducer for JoinReducer {
    type Key = u64;
    type Value = TaggedTuple;
    type Out = (u64, u64, u64);

    fn reduce(&self, _key: &u64, values: &[TaggedTuple], out: &mut Vec<(u64, u64, u64)>) {
        // Group by join key within the partition, preserving arrival order.
        let mut by_key: std::collections::BTreeMap<u64, (Vec<&TaggedTuple>, Vec<&TaggedTuple>)> =
            std::collections::BTreeMap::new();
        for t in values {
            let entry = by_key.entry(t.b).or_default();
            if t.is_x {
                entry.0.push(t);
            } else {
                entry.1.push(t);
            }
        }
        for (b, (xs, ys)) in by_key {
            for x in &xs {
                for y in &ys {
                    out.push((x.other, b, y.other));
                }
            }
        }
    }
}

/// Plans and executes a skew join over the relation pair.
pub fn run_skew_join(
    pair: &RelationPair,
    config: &SkewJoinConfig,
) -> Result<SkewJoinResult, JoinError> {
    let tagged = tag_pair(pair);

    let (routes, n_reducers, heavy_keys, capacity_policy) = match config.strategy {
        SkewJoinStrategy::NaiveHash { reducers } => plan_hash(&tagged, reducers, config.capacity)?,
        SkewJoinStrategy::BroadcastY { reducers } => {
            plan_broadcast(&tagged, reducers, config.capacity)?
        }
        SkewJoinStrategy::SkewAware { policy } => {
            plan_skew_aware(&tagged, config.capacity, policy)?
        }
    };

    if n_reducers == 0 {
        return Ok(SkewJoinResult {
            output: Vec::new(),
            metrics: JobMetrics::default(),
            heavy_keys,
            reducers: 0,
        });
    }

    let inputs: Vec<RoutedTuple> = tagged
        .into_iter()
        .zip(routes)
        .map(|(tuple, targets)| RoutedTuple { tuple, targets })
        .collect();

    let job = Job::new(
        RouteMapper,
        JoinReducer,
        DirectRouter,
        n_reducers,
        config.cluster.clone(),
    )
    .capacity(capacity_policy);

    let result = job.run(&inputs)?;
    let mut output = result.outputs;
    output.sort_unstable();
    Ok(SkewJoinResult {
        output,
        metrics: result.metrics,
        heavy_keys,
        reducers: n_reducers,
    })
}

type Plan = (Vec<Vec<usize>>, usize, usize, CapacityPolicy);

/// Tags both relations into one shuffle-ready list: X first, then Y, each
/// side in relation order. The DAG port relies on this order being stable
/// (indices into the list identify tuples across rounds).
pub(crate) fn tag_pair(pair: &RelationPair) -> Vec<TaggedTuple> {
    pair.x
        .iter()
        .map(|t| TaggedTuple {
            is_x: true,
            b: t.b,
            other: t.a,
            payload: t.payload.clone(),
        })
        .chain(pair.y.iter().map(|t| TaggedTuple {
            is_x: false,
            b: t.b,
            other: t.c,
            payload: t.payload.clone(),
        }))
        .collect()
}

/// Per-joinable-key tuple index lists (X side, Y side), ascending.
pub(crate) type PerKey = std::collections::BTreeMap<u64, (Vec<usize>, Vec<usize>)>;

/// Groups `tagged` indices by join key, keeping only joinable keys — the
/// inline statistics pass of [`run_skew_join`]; the DAG port computes the
/// same map with a dedicated statistics *round* instead.
pub(crate) fn collect_per_key(tagged: &[TaggedTuple]) -> PerKey {
    let joinable = joinable_keys(tagged);
    let mut per_key = PerKey::new();
    for (idx, t) in tagged.iter().enumerate() {
        if !joinable.contains(&t.b) {
            continue;
        }
        let entry: &mut (Vec<usize>, Vec<usize>) = per_key.entry(t.b).or_default();
        if t.is_x {
            entry.0.push(idx);
        } else {
            entry.1.push(idx);
        }
    }
    per_key
}

/// Keys that appear on both sides (only these can produce output). All
/// strategies prune one-sided keys so their capacity/communication numbers
/// compare the routing policy, not dead weight.
fn joinable_keys(tagged: &[TaggedTuple]) -> std::collections::HashSet<u64> {
    let mut x_keys = std::collections::HashSet::new();
    let mut y_keys = std::collections::HashSet::new();
    for t in tagged {
        if t.is_x {
            x_keys.insert(t.b);
        } else {
            y_keys.insert(t.b);
        }
    }
    x_keys.intersection(&y_keys).copied().collect()
}

fn plan_hash(tagged: &[TaggedTuple], reducers: usize, q: u64) -> Result<Plan, JoinError> {
    let joinable = joinable_keys(tagged);
    let n = reducers.max(1);
    let routes = tagged
        .iter()
        .map(|t| {
            let mut targets = Vec::new();
            if joinable.contains(&t.b) {
                HashRouter::new().route(&t.b, n, &mut targets);
            }
            targets
        })
        .collect();
    Ok((routes, n, 0, CapacityPolicy::Record(q)))
}

fn plan_broadcast(tagged: &[TaggedTuple], reducers: usize, q: u64) -> Result<Plan, JoinError> {
    let joinable = joinable_keys(tagged);
    let n = reducers.max(1);
    let mut x_counter = 0usize;
    let routes = tagged
        .iter()
        .map(|t| {
            if !joinable.contains(&t.b) {
                Vec::new()
            } else if t.is_x {
                // Round-robin X for an even spread.
                x_counter += 1;
                vec![(x_counter - 1) % n]
            } else {
                (0..n).collect()
            }
        })
        .collect();
    Ok((routes, n, 0, CapacityPolicy::Record(q)))
}

fn plan_skew_aware(tagged: &[TaggedTuple], q: u64, policy: FitPolicy) -> Result<Plan, JoinError> {
    let per_key = collect_per_key(tagged);
    plan_from_per_key(tagged, &per_key, q, policy)
}

/// The skew-aware routing plan proper: heavy keys get per-key X2Y schemas,
/// light keys are FFD-packed whole. Factored out of [`plan_skew_aware`] so
/// the DAG port can feed it a `per_key` computed by its statistics round.
pub(crate) fn plan_from_per_key(
    tagged: &[TaggedTuple],
    per_key: &PerKey,
    q: u64,
    policy: FitPolicy,
) -> Result<Plan, JoinError> {
    for (xs, ys) in per_key.values() {
        for &i in xs.iter().chain(ys.iter()) {
            if tagged[i].size_bytes() > q {
                return Err(JoinError::TupleTooLarge {
                    size: tagged[i].size_bytes(),
                    capacity: q,
                });
            }
        }
    }

    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); tagged.len()];
    let mut next_reducer = 0usize;
    let mut heavy_keys = 0usize;

    // Light keys are packed whole; collect them first.
    let mut light_keys: Vec<u64> = Vec::new();
    let mut light_weights: Vec<u64> = Vec::new();

    for (&b, (xs, ys)) in per_key {
        let key_weight: u64 = xs
            .iter()
            .chain(ys.iter())
            .map(|&i| tagged[i].size_bytes())
            .sum();
        if key_weight <= q {
            light_keys.push(b);
            light_weights.push(key_weight);
            continue;
        }
        // Heavy hitter: dedicated X2Y schema.
        heavy_keys += 1;
        let inst = X2yInstance::from_weights(
            xs.iter().map(|&i| tagged[i].size_bytes()).collect(),
            ys.iter().map(|&i| tagged[i].size_bytes()).collect(),
        );
        let schema = x2y::solve(&inst, q, x2y::X2yAlgorithm::BigHandling(policy))?;
        debug_assert!(
            schema.covers_exactly_once(&inst),
            "grid-family schemas cover each cross pair exactly once; the \
             join reducer relies on this to emit outputs without dedup"
        );
        for (rid, reducer) in schema.reducers().enumerate() {
            let global = next_reducer + rid;
            for &xi in reducer.x {
                routes[xs[xi as usize]].push(global);
            }
            for &yi in reducer.y {
                routes[ys[yi as usize]].push(global);
            }
        }
        next_reducer += schema.reducer_count();
    }

    // Pack light keys into capacity-q partitions.
    if !light_keys.is_empty() {
        let packing =
            mrassign_binpack::pack(&light_weights, q, policy).expect("light keys weigh at most q");
        for (bin_idx, bin) in packing.bins().iter().enumerate() {
            let global = next_reducer + bin_idx;
            for &key_local in bin.items() {
                let b = light_keys[key_local as usize];
                let (xs, ys) = &per_key[&b];
                for &i in xs.iter().chain(ys.iter()) {
                    routes[i].push(global);
                }
            }
        }
        next_reducer += packing.bin_count();
    }

    Ok((routes, next_reducer, heavy_keys, CapacityPolicy::Enforce(q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrassign_workloads::{generate_relation_pair, RelationSpec, SizeDistribution};

    fn skewed_pair(skew: f64, seed: u64) -> RelationPair {
        generate_relation_pair(
            &RelationSpec {
                x_tuples: 600,
                y_tuples: 600,
                n_keys: 40,
                skew,
                payload: SizeDistribution::Uniform { lo: 8, hi: 40 },
            },
            seed,
        )
    }

    fn brute_force(pair: &RelationPair) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for x in &pair.x {
            for y in &pair.y {
                if x.b == y.b {
                    out.push((x.a, x.b, y.c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn config(q: u64, strategy: SkewJoinStrategy) -> SkewJoinConfig {
        SkewJoinConfig {
            capacity: q,
            strategy,
            cluster: ClusterConfig::default(),
        }
    }

    #[test]
    fn skew_aware_join_is_exact() {
        let pair = skewed_pair(1.1, 3);
        let result = run_skew_join(
            &pair,
            &config(
                4_000,
                SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
            ),
        )
        .unwrap();
        assert_eq!(result.output, brute_force(&pair));
        assert!(result.heavy_keys > 0, "skew 1.1 should create heavy keys");
        // Enforce(q) ran without erroring: capacity respected everywhere.
        assert!(result.metrics.max_reducer_load() <= 4_000);
    }

    #[test]
    fn naive_hash_join_is_correct_but_violates_capacity() {
        let pair = skewed_pair(1.2, 4);
        let result = run_skew_join(
            &pair,
            &config(4_000, SkewJoinStrategy::NaiveHash { reducers: 16 }),
        )
        .unwrap();
        assert_eq!(result.output, brute_force(&pair));
        assert!(
            !result.metrics.capacity_violations.is_empty(),
            "skewed hash join should overload some reducer"
        );
    }

    #[test]
    fn broadcast_join_is_correct_and_expensive() {
        let pair = skewed_pair(1.0, 5);
        let broadcast = run_skew_join(
            &pair,
            &config(1 << 20, SkewJoinStrategy::BroadcastY { reducers: 16 }),
        )
        .unwrap();
        assert_eq!(broadcast.output, brute_force(&pair));
        let skew_aware = run_skew_join(
            &pair,
            &config(
                1 << 20,
                SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
            ),
        )
        .unwrap();
        assert!(
            broadcast.metrics.bytes_shuffled > skew_aware.metrics.bytes_shuffled,
            "broadcast {} vs skew-aware {}",
            broadcast.metrics.bytes_shuffled,
            skew_aware.metrics.bytes_shuffled
        );
    }

    #[test]
    fn uniform_data_has_no_heavy_keys_with_large_capacity() {
        let pair = skewed_pair(0.0, 6);
        let result = run_skew_join(
            &pair,
            &config(
                1 << 16,
                SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
            ),
        )
        .unwrap();
        assert_eq!(result.heavy_keys, 0);
        assert_eq!(result.output, brute_force(&pair));
    }

    #[test]
    fn smaller_capacity_means_more_reducers() {
        let pair = skewed_pair(1.0, 7);
        let strategies = |q| {
            config(
                q,
                SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
            )
        };
        let tight = run_skew_join(&pair, &strategies(2_000)).unwrap();
        let roomy = run_skew_join(&pair, &strategies(20_000)).unwrap();
        assert!(tight.reducers > roomy.reducers);
        assert_eq!(tight.output, roomy.output);
        assert!(tight.metrics.bytes_shuffled >= roomy.metrics.bytes_shuffled);
    }

    #[test]
    fn tuple_larger_than_capacity_is_reported() {
        let pair = generate_relation_pair(
            &RelationSpec {
                x_tuples: 10,
                y_tuples: 10,
                n_keys: 2,
                skew: 0.0,
                payload: SizeDistribution::Constant(500),
            },
            8,
        );
        let err = run_skew_join(
            &pair,
            &config(
                100,
                SkewJoinStrategy::SkewAware {
                    policy: FitPolicy::FirstFitDecreasing,
                },
            ),
        )
        .unwrap_err();
        assert!(matches!(err, JoinError::TupleTooLarge { .. }));
    }

    #[test]
    fn one_sided_keys_ship_nowhere() {
        // X keys 0..10, Y keys 10..20: no joinable keys at all.
        let mut pair = generate_relation_pair(
            &RelationSpec {
                x_tuples: 50,
                y_tuples: 50,
                n_keys: 10,
                skew: 0.0,
                payload: SizeDistribution::Constant(8),
            },
            9,
        );
        for y in &mut pair.y {
            y.b += 10;
        }
        for strategy in [
            SkewJoinStrategy::SkewAware {
                policy: FitPolicy::FirstFitDecreasing,
            },
            SkewJoinStrategy::NaiveHash { reducers: 4 },
            SkewJoinStrategy::BroadcastY { reducers: 4 },
        ] {
            let result = run_skew_join(&pair, &config(1_000, strategy)).unwrap();
            assert!(result.output.is_empty());
            assert_eq!(result.metrics.bytes_shuffled, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let pair = skewed_pair(1.0, 10);
        let cfg = config(
            3_000,
            SkewJoinStrategy::SkewAware {
                policy: FitPolicy::FirstFitDecreasing,
            },
        );
        let a = run_skew_join(&pair, &cfg).unwrap();
        let b = run_skew_join(&pair, &cfg).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.metrics.bytes_shuffled, b.metrics.bytes_shuffled);
    }
}
