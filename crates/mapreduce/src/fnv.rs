//! FNV-1a, the one dependency-free 64-bit hash of the crate family. It
//! partitions keys ([`HashRouter`](crate::HashRouter)), groups a large map
//! task's emissions, checksums checkpoint files, and derives job
//! fingerprints and DAG stage keys. Collision resistance is not the threat
//! model anywhere it is used; stability across runs, processes and
//! releases is, and std's `DefaultHasher` does not promise that. A changed
//! hash would move partitions and orphan every existing checkpoint.

use std::hash::{BuildHasherDefault, Hasher};

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a [`Hasher`]. `Default` is the offset basis, so a fresh
/// hasher fed a byte string through `write` finishes at [`fnv1a`] of it.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`Fnv1a`] hashers for a std `HashMap`.
pub(crate) type FnvBuildHasher = BuildHasherDefault<Fnv1a>;

/// FNV-1a over `bytes`. Public so the DAG layer derives stage-store keys
/// from the identical algorithm (a divergent hash would silently
/// partition the cache).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Folds one 64-bit word into an FNV-1a chain: the primitive both the
/// job fingerprint and the DAG stage keys are built from.
pub fn fold_hash(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HashRouter, Router};
    use std::hash::Hash;

    /// The published FNV-1a 64 test vectors, through both entry points.
    #[test]
    fn standard_vectors() {
        for (input, expected) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(fnv1a(input.as_bytes()), expected, "{input:?}");
            let mut h = Fnv1a::default();
            h.write(input.as_bytes());
            assert_eq!(h.finish(), expected, "{input:?} through Hasher");
        }
    }

    /// The one partition `HashRouter` picks for `key` among `n`.
    fn partition<K: Hash>(key: &K, n: usize) -> usize {
        let mut targets = Vec::new();
        HashRouter::new().route(key, n, &mut targets);
        targets[0]
    }

    /// Partitions and input fingerprints are persistent: they decide where
    /// every key is reduced and name checkpoint sessions. These values
    /// were recorded before the crate's FNV-1a copies were merged into
    /// [`Fnv1a`], and must never move.
    #[test]
    fn partitions_and_content_hashes_are_pinned() {
        let u64_partitions: Vec<usize> = (0u64..16).map(|key| partition(&key, 11)).collect();
        assert_eq!(
            u64_partitions,
            [4, 0, 1, 8, 10, 6, 7, 3, 9, 5, 6, 2, 4, 0, 1, 8]
        );
        let words = [
            "the",
            "a",
            "word0",
            "word17",
            "mapreduce",
            "",
            "héllo",
            "zipf",
        ];
        let string_partitions: Vec<usize> =
            words.iter().map(|w| partition(&w.to_string(), 7)).collect();
        assert_eq!(string_partitions, [5, 1, 4, 2, 1, 0, 0, 6]);

        let lines: Vec<String> = vec!["a b a".into(), "b c".into(), String::new()];
        assert_eq!(
            crate::input_content_hash(lines.iter()),
            0xcdfe_923f_cde8_0f8d
        );
        let ids: Vec<u64> = (0..5).collect();
        assert_eq!(crate::input_content_hash(ids.iter()), 0x8c17_a00e_4006_23d5);
    }
}
