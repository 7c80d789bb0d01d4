//! The engine jobs the `shuffle` and `resume` workloads run: word count
//! with a combiner, and an order-sensitive concatenation that sends about
//! 90% of the bytes to one hot partition.

use std::ops::RangeInclusive;

use mrassign_simmr::{ClusterConfig, FinalizeMode, ShuffleMode};
use mrassign_simmr::{Emitter, HashRouter, Job, Mapper, Reducer, Router};
use mrassign_workloads::sizes::ZipfTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Partitions of the word-count job.
pub const WC_PARTITIONS: usize = 11;
/// Partitions of the hot-reducer job; partition 0 is the hot one.
pub const HOT_PARTITIONS: usize = 8;

pub struct Tokenize;
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

pub struct Count;
impl Reducer for Count {
    type Key = String;
    type Value = u64;
    type Out = (String, u64);
    fn reduce(&self, key: &String, values: &[u64], out: &mut Vec<(String, u64)>) {
        out.push((key.clone(), values.iter().sum()));
    }
}

/// Routes key 0 to partition 0 and spreads the thin tail over the rest.
pub struct HotRouter;
impl Router<u64> for HotRouter {
    fn route(&self, key: &u64, n_reducers: usize, targets: &mut Vec<usize>) {
        if *key == 0 {
            targets.push(0);
        } else {
            targets.push(1 + (*key as usize - 1) % (n_reducers - 1));
        }
    }
}

/// One map task per input split of keyed records.
pub struct HotMapper;
impl Mapper for HotMapper {
    type In = Vec<(u64, String)>;
    type Key = u64;
    type Value = String;
    fn map(&self, split: &Vec<(u64, String)>, emit: &mut Emitter<u64, String>) {
        for (key, value) in split {
            emit.emit(*key, value.clone());
        }
    }
}

/// Concatenation is order-sensitive, so any merge drift changes the output.
pub struct HotConcat;
impl Reducer for HotConcat {
    type Key = u64;
    type Value = String;
    type Out = (u64, String);
    fn reduce(&self, key: &u64, values: &[String], out: &mut Vec<(u64, String)>) {
        out.push((*key, values.concat()));
    }
}

pub type WcJob = Job<Tokenize, Count, HashRouter>;
pub type HotJob = Job<HotMapper, HotConcat, HotRouter>;

pub fn wc_job(config: ClusterConfig) -> WcJob {
    Job::new(Tokenize, Count, HashRouter::new(), WC_PARTITIONS, config)
}

pub fn hot_job(config: ClusterConfig) -> HotJob {
    Job::new(HotMapper, HotConcat, HotRouter, HOT_PARTITIONS, config)
}

/// The overlapped engine with work-stealing finalize on two threads.
pub fn pipelined() -> ClusterConfig {
    ClusterConfig {
        shuffle: ShuffleMode::Pipelined,
        finalize_mode: FinalizeMode::Stealing,
        map_threads: 2,
        ..ClusterConfig::default()
    }
}

/// Documents of `words` words each, drawn from a Zipf(1.0) vocabulary, one
/// map task each.
pub fn documents(n: usize, words: RangeInclusive<usize>, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = ZipfTable::new(400, 1.0);
    (0..n)
        .map(|_| {
            let words: Vec<String> = (0..rng.random_range(words.clone()))
                .map(|_| format!("word{}", vocab.sample(&mut rng)))
                .collect();
            words.join(" ")
        })
        .collect()
}

/// Input splits of `per_split` records each, ~90% of which carry the hot
/// key 0; values vary in length.
pub fn hot_splits(n_records: usize, per_split: usize, seed: u64) -> Vec<Vec<(u64, String)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<(u64, String)> = (0..n_records)
        .map(|i| {
            let key = if rng.random_bool(0.9) {
                0
            } else {
                rng.random_range(1..=20u64)
            };
            let pad = "x".repeat(rng.random_range(0..=16usize));
            (key, format!("record-{i:06}-{pad}-"))
        })
        .collect();
    records.chunks(per_split).map(<[_]>::to_vec).collect()
}
