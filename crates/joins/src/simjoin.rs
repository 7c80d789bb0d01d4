//! Similarity join: the all-to-all application.
//!
//! Given `m` documents and a similarity threshold, every pair must be
//! compared (the paper's motivating case where no LSH shortcut exists).
//! The planner builds an A2A mapping schema over the document byte sizes,
//! compiles it to per-document reducer targets, and runs one simulated
//! MapReduce job whose mapper replicates each document to its targets and
//! whose reducer compares all co-resident pairs.
//!
//! **Exactly-once output.** A pair may share several reducers (bin-pairing
//! covers within-bin pairs in every reducer the bin joins). The reducer
//! therefore only reports a pair from its *canonical* reducer — the lowest
//! reducer index the two documents share — which it can compute locally
//! from the routing table. Tests verify the output equals a brute-force
//! all-pairs scan, exactly once per pair.

use mrassign_core::{a2a, stats::SchemaStats, InputSet, MappingSchema};
use mrassign_simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, Job, JobMetrics, Mapper,
    Reducer, SpillCodec,
};
use mrassign_workloads::Document;

use crate::error::JoinError;

/// How to assign documents to reducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimJoinStrategy {
    /// Compute an A2A mapping schema (the paper's approach) with the given
    /// algorithm.
    Schema(a2a::A2aAlgorithm),
    /// One reducer per document pair — maximum parallelism, maximum
    /// communication (every document ships `m − 1` times). The baseline
    /// the capacity tradeoffs are measured against.
    PairPerReducer,
}

/// Configuration of a similarity-join run.
#[derive(Debug, Clone)]
pub struct SimJoinConfig {
    /// Reducer capacity `q` in bytes (sum of document sizes per reducer).
    pub capacity: u64,
    /// Jaccard similarity threshold in `[0, 1]`.
    pub threshold: f64,
    /// Assignment strategy.
    pub strategy: SimJoinStrategy,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
}

/// One similar pair in the output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarPair {
    /// Lower document id.
    pub a: u32,
    /// Higher document id.
    pub b: u32,
    /// Jaccard similarity of the token sets.
    pub similarity: f64,
}

// Reducer outputs must be codec-able so a `checkpoint_dir` can persist
// and resume finalized partitions; the similarity travels as its exact
// bit pattern, so persisted pairs decode bit-identically.
impl SpillCodec for SimilarPair {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.a.encode(buf);
        self.b.encode(buf);
        self.similarity.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let a = u32::decode(bytes)?;
        let b = u32::decode(bytes)?;
        let similarity = f64::decode(bytes)?;
        Some(SimilarPair { a, b, similarity })
    }
}

/// Everything a similarity-join run returns.
#[derive(Debug, Clone)]
pub struct SimJoinResult {
    /// The similar pairs, each reported exactly once, sorted by `(a, b)`.
    pub pairs: Vec<SimilarPair>,
    /// Engine metrics (communication cost, makespans, loads).
    pub metrics: JobMetrics,
    /// Schema-level statistics (reducer count, replication, utilization).
    pub schema_stats: SchemaStats,
}

/// A document as shipped through the shuffle: id plus token payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShippedDoc {
    id: u32,
    tokens: Vec<u32>,
}

impl ByteSized for ShippedDoc {
    fn size_bytes(&self) -> u64 {
        // 4 bytes per token — matches Document::size_bytes, so the engine's
        // capacity accounting agrees with the schema's weight model.
        self.tokens.len() as u64 * 4
    }
}

// Lets similarity-join runs execute under a `memory_budget` (documents
// spill to disk mid-shuffle and stream back through the finalize merge).
impl SpillCodec for ShippedDoc {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.tokens.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(ShippedDoc {
            id: u32::decode(bytes)?,
            tokens: Vec::decode(bytes)?,
        })
    }
}

/// Input wrapper: the document plus its schema targets.
#[derive(Hash)]
struct RoutedDoc {
    doc: ShippedDoc,
    targets: Vec<usize>,
}

impl ByteSized for RoutedDoc {
    fn size_bytes(&self) -> u64 {
        self.doc.size_bytes()
    }
}

struct ReplicateMapper;

impl Mapper for ReplicateMapper {
    type In = RoutedDoc;
    type Key = u64;
    type Value = ShippedDoc;

    fn map(&self, input: &RoutedDoc, emit: &mut Emitter<u64, ShippedDoc>) {
        for &target in &input.targets {
            emit.emit(target as u64, input.doc.clone());
        }
    }
}

struct CompareReducer {
    /// Per-document reducer targets, for canonical-pair deduplication.
    routes: Vec<Vec<usize>>,
    threshold: f64,
}

impl CompareReducer {
    /// The lowest reducer shared by both documents, which is the only one
    /// allowed to report the pair.
    fn canonical_reducer(&self, a: u32, b: u32) -> Option<usize> {
        let (ra, rb) = (&self.routes[a as usize], &self.routes[b as usize]);
        // Routes are ascending by construction; merge-scan for the first
        // common element.
        let (mut i, mut j) = (0, 0);
        while i < ra.len() && j < rb.len() {
            match ra[i].cmp(&rb[j]) {
                std::cmp::Ordering::Equal => return Some(ra[i]),
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        None
    }
}

impl Reducer for CompareReducer {
    type Key = u64;
    type Value = ShippedDoc;
    type Out = SimilarPair;

    fn reduce(&self, key: &u64, values: &[ShippedDoc], out: &mut Vec<SimilarPair>) {
        let me = *key as usize;
        // Token sets once per document, not once per pair.
        let sets: Vec<std::collections::HashSet<u32>> = values
            .iter()
            .map(|d| d.tokens.iter().copied().collect())
            .collect();
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                let (a, b) = if values[i].id < values[j].id {
                    (i, j)
                } else {
                    (j, i)
                };
                let (ida, idb) = (values[a].id, values[b].id);
                if ida == idb {
                    continue; // duplicate copy of one document
                }
                if self.canonical_reducer(ida, idb) != Some(me) {
                    continue;
                }
                let inter = sets[a].intersection(&sets[b]).count();
                let union = sets[a].len() + sets[b].len() - inter;
                let sim = if union == 0 {
                    1.0
                } else {
                    inter as f64 / union as f64
                };
                if sim >= self.threshold {
                    out.push(SimilarPair {
                        a: ida,
                        b: idb,
                        similarity: sim,
                    });
                }
            }
        }
    }
}

/// Plans and executes a similarity join over `docs`.
///
/// Returns the similar pairs (each exactly once), the engine metrics, and
/// the schema statistics. The run enforces the reducer capacity — a
/// correct schema never trips it, and that is checked live.
pub fn run_similarity_join(
    docs: &[Document],
    config: &SimJoinConfig,
) -> Result<SimJoinResult, JoinError> {
    let weights: Vec<u64> = docs.iter().map(Document::size_bytes).collect();
    let inputs = InputSet::from_weights(weights);

    let schema = match config.strategy {
        SimJoinStrategy::Schema(algo) => a2a::solve(&inputs, config.capacity, algo)?,
        SimJoinStrategy::PairPerReducer => pair_per_reducer(&inputs, config.capacity)?,
    };
    let schema_stats = SchemaStats::for_a2a(&schema, &inputs, config.capacity);

    // Fewer than two documents: no pairs, no job.
    if schema.reducer_count() == 0 || docs.len() < 2 {
        return Ok(SimJoinResult {
            pairs: Vec::new(),
            metrics: JobMetrics::default(),
            schema_stats,
        });
    }

    // Compile routes (ascending per doc, as canonical_reducer assumes).
    let mut routes: Vec<Vec<usize>> = vec![Vec::new(); docs.len()];
    for (rid, r) in schema.reducers().enumerate() {
        for id in r {
            routes[id as usize].push(rid);
        }
    }

    let job_inputs: Vec<RoutedDoc> = docs
        .iter()
        .map(|d| RoutedDoc {
            doc: ShippedDoc {
                id: d.id,
                tokens: d.tokens.clone(),
            },
            targets: routes[d.id as usize].clone(),
        })
        .collect();

    let job = Job::new(
        ReplicateMapper,
        CompareReducer {
            routes,
            threshold: config.threshold,
        },
        DirectRouter,
        schema.reducer_count(),
        config.cluster.clone(),
    )
    .capacity(CapacityPolicy::Enforce(config.capacity));

    let result = job.run(&job_inputs)?;
    let mut pairs = result.outputs;
    pairs.sort_by_key(|p| (p.a, p.b));
    Ok(SimJoinResult {
        pairs,
        metrics: result.metrics,
        schema_stats,
    })
}

/// The maximal-parallelism baseline: one reducer per pair. Feasibility is
/// the same as for any schema (the pair must fit), and the schema is valid
/// by construction — it is also the worst case for communication.
fn pair_per_reducer(inputs: &InputSet, q: u64) -> Result<MappingSchema, JoinError> {
    mrassign_core::bounds::a2a_feasible(inputs, q)?;
    let m = inputs.len() as u32;
    let mut schema = MappingSchema::new();
    for i in 0..m {
        for j in (i + 1)..m {
            schema.push_reducer(vec![i, j]);
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrassign_workloads::{generate_documents, DocumentSpec, SizeDistribution};

    fn corpus(n: usize, seed: u64) -> Vec<Document> {
        generate_documents(
            &DocumentSpec {
                n_docs: n,
                vocab: 60,
                token_skew: 0.8,
                length: SizeDistribution::Uniform { lo: 5, hi: 30 },
            },
            seed,
        )
    }

    fn brute_force(docs: &[Document], threshold: f64) -> Vec<SimilarPair> {
        let mut pairs = Vec::new();
        for i in 0..docs.len() {
            for j in i + 1..docs.len() {
                let sim = docs[i].jaccard(&docs[j]);
                if sim >= threshold {
                    pairs.push(SimilarPair {
                        a: docs[i].id.min(docs[j].id),
                        b: docs[i].id.max(docs[j].id),
                        similarity: sim,
                    });
                }
            }
        }
        pairs.sort_by_key(|p| (p.a, p.b));
        pairs
    }

    fn config(q: u64, strategy: SimJoinStrategy) -> SimJoinConfig {
        SimJoinConfig {
            capacity: q,
            threshold: 0.3,
            strategy,
            cluster: ClusterConfig::default(),
        }
    }

    #[test]
    fn schema_join_matches_brute_force() {
        let docs = corpus(40, 7);
        let result = run_similarity_join(
            &docs,
            &config(600, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        let expected = brute_force(&docs, 0.3);
        assert_eq!(result.pairs.len(), expected.len());
        for (got, want) in result.pairs.iter().zip(&expected) {
            assert_eq!((got.a, got.b), (want.a, want.b));
            assert!((got.similarity - want.similarity).abs() < 1e-12);
        }
    }

    #[test]
    fn pair_per_reducer_matches_brute_force() {
        let docs = corpus(15, 8);
        let result =
            run_similarity_join(&docs, &config(600, SimJoinStrategy::PairPerReducer)).unwrap();
        let expected = brute_force(&docs, 0.3);
        assert_eq!(result.pairs, expected);
        // C(15,2) reducers.
        assert_eq!(result.schema_stats.reducers, 105);
    }

    #[test]
    fn schema_ships_fewer_bytes_than_pair_per_reducer() {
        let docs = corpus(30, 9);
        let schema = run_similarity_join(
            &docs,
            &config(800, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        let baseline =
            run_similarity_join(&docs, &config(800, SimJoinStrategy::PairPerReducer)).unwrap();
        assert!(
            schema.metrics.bytes_shuffled < baseline.metrics.bytes_shuffled,
            "schema {} vs baseline {}",
            schema.metrics.bytes_shuffled,
            baseline.metrics.bytes_shuffled
        );
        // Both compute the same answer.
        assert_eq!(schema.pairs.len(), baseline.pairs.len());
    }

    #[test]
    fn capacity_is_enforced_and_respected() {
        let docs = corpus(40, 10);
        let result = run_similarity_join(
            &docs,
            &config(500, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        assert!(result.metrics.max_reducer_load() <= 500);
        assert!(result.metrics.capacity_violations.is_empty());
    }

    #[test]
    fn infeasible_capacity_is_rejected() {
        let docs = corpus(10, 11);
        // Documents are ≥ 5 tokens = 20 bytes; two can't fit in 30.
        let err = run_similarity_join(
            &docs,
            &config(30, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap_err();
        assert!(matches!(err, JoinError::Schema(_)));
    }

    #[test]
    fn tiny_corpora_short_circuit() {
        let docs = corpus(1, 12);
        let result = run_similarity_join(
            &docs,
            &config(100, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        assert!(result.pairs.is_empty());
        assert_eq!(result.metrics.bytes_shuffled, 0);
    }

    #[test]
    fn threshold_one_keeps_only_identical_sets() {
        let mut docs = corpus(10, 13);
        // Duplicate document 0's tokens into a new doc: guaranteed sim 1.0.
        let clone_tokens = docs[0].tokens.clone();
        docs.push(Document {
            id: 10,
            tokens: clone_tokens,
        });
        let mut cfg = config(2_000, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto));
        cfg.threshold = 1.0;
        let result = run_similarity_join(&docs, &cfg).unwrap();
        assert!(result.pairs.iter().any(|p| p.a == 0 && p.b == 10));
        assert!(result.pairs.iter().all(|p| p.similarity >= 1.0 - 1e-12));
    }

    #[test]
    fn larger_capacity_reduces_communication() {
        let docs = corpus(60, 14);
        let small_q = run_similarity_join(
            &docs,
            &config(400, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        let large_q = run_similarity_join(
            &docs,
            &config(4_000, SimJoinStrategy::Schema(a2a::A2aAlgorithm::Auto)),
        )
        .unwrap();
        assert!(large_q.metrics.bytes_shuffled < small_q.metrics.bytes_shuffled);
        assert!(large_q.schema_stats.reducers < small_q.schema_stats.reducers);
        assert_eq!(large_q.pairs.len(), small_q.pairs.len());
    }
}
