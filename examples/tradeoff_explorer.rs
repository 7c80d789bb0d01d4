//! The paper's three tradeoffs, observed by sweeping the reducer capacity
//! `q` for one fixed workload:
//!
//! (i)   capacity vs. number of reducers,
//! (ii)  capacity vs. parallelism (simulated makespan),
//! (iii) capacity vs. communication cost.
//!
//! Run with: `cargo run --example tradeoff_explorer`

use mrassign::core::{a2a, bounds, stats::SchemaStats, InputSet};
use mrassign::simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, Job, Mapper, Reducer,
    SpillCodec,
};
use mrassign::workloads::{geometric_steps, SizeDistribution};

/// A sized blob standing in for any opaque input; the payload is simulated
/// (we carry only its size), which is all byte accounting needs.
#[derive(Clone, Hash)]
struct Blob {
    id: u32,
    bytes: u64,
    targets: Vec<usize>,
}

impl ByteSized for Blob {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

/// The shuffled value: id plus simulated payload size.
#[derive(Clone)]
struct Payload {
    #[allow(dead_code)] // carried so reducers could identify inputs
    id: u32,
    bytes: u64,
}

impl ByteSized for Payload {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

impl SpillCodec for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.bytes.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(Payload {
            id: u32::decode(bytes)?,
            bytes: u64::decode(bytes)?,
        })
    }
}

struct Replicate;
impl Mapper for Replicate {
    type In = Blob;
    type Key = u64;
    type Value = Payload;
    fn map(&self, input: &Blob, emit: &mut Emitter<u64, Payload>) {
        for &t in &input.targets {
            emit.emit(
                t as u64,
                Payload {
                    id: input.id,
                    bytes: input.bytes,
                },
            );
        }
    }
}

/// Counts co-resident pairs — a stand-in for any pairwise computation.
struct CountPairs;
impl Reducer for CountPairs {
    type Key = u64;
    type Value = Payload;
    type Out = u64;
    fn reduce(&self, _key: &u64, values: &[Payload], out: &mut Vec<u64>) {
        out.push(values.len() as u64 * (values.len() as u64 - 1) / 2);
    }
}

fn main() {
    let weights = SizeDistribution::Uniform { lo: 10, hi: 100 }.sample_many(400, 99);
    let inputs = InputSet::from_weights(weights.clone());
    let cluster = ClusterConfig {
        workers: 16,
        // The pipelined shuffle with a memory budget bounds the buffered
        // shuffle bytes, spilling sorted runs to disk past 64 KiB; every
        // number printed below is identical under either mode.
        shuffle: mrassign::simmr::ShuffleMode::Pipelined,
        memory_budget: Some(64 * 1024),
        ..ClusterConfig::default()
    };

    println!(
        "m = {} inputs, total weight {}; sweeping q",
        inputs.len(),
        inputs.total_weight()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "q", "reducers", "z_LB", "comm", "comm_LB", "makespan_s", "speedup"
    );

    for q in geometric_steps(220, 40_000, 10) {
        let schema = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        schema.validate_a2a(&inputs, q).unwrap();
        let stats = SchemaStats::for_a2a(&schema, &inputs, q);

        // Execute the schema on the engine to get simulated time.
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); inputs.len()];
        for (rid, r) in schema.reducers().enumerate() {
            for id in r {
                routes[id as usize].push(rid);
            }
        }
        let blobs: Vec<Blob> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Blob {
                id: i as u32,
                bytes: w,
                targets: routes[i].clone(),
            })
            .collect();
        let job = Job::new(
            Replicate,
            CountPairs,
            DirectRouter,
            schema.reducer_count(),
            cluster.clone(),
        )
        .capacity(CapacityPolicy::Enforce(q)); // loads count value bytes, ≤ q by schema validity
        let run = job.run(&blobs).unwrap();

        println!(
            "{:>8} {:>10} {:>10} {:>14} {:>14} {:>12.3} {:>10.2}",
            q,
            stats.reducers,
            bounds::a2a_reducer_lb(&inputs, q),
            stats.communication,
            bounds::a2a_comm_lb(&inputs, q),
            run.metrics.total_seconds(),
            run.metrics.speedup(),
        );
    }

    println!(
        "\nReading the table: z falls roughly as q^-2 and communication as \
         q^-1 (tradeoffs i and iii). Small q pays for its parallelism with \
         communication and per-task overhead; at large q the makespan hits \
         the serial floor and the reduce phase runs on ever fewer workers \
         (tradeoff ii — the fig3 experiment isolates it with a \
         reduce-dominated cluster)."
    );
}
