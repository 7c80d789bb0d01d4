//! The crate family's two dependency-free 64-bit hashes. Collision
//! resistance is not the threat model anywhere they are used; stability
//! across runs, processes and releases is, and std's `DefaultHasher` does
//! not promise that.
//!
//! - **FNV-1a** ([`fnv1a`], [`fold_hash`]) takes one byte per multiply.
//!   It partitions keys ([`HashRouter`](crate::HashRouter)), groups a
//!   large map task's emissions, and hashes the ~100-byte job semantics
//!   ([`job_semantic_hash`](crate::job_semantic_hash)) and the DAG stage
//!   names. Partitions are pinned: a changed hash would move every key to
//!   another reducer. On the short keys the grouping map sees, the word
//!   hasher measured no faster.
//! - **The word hasher** ([`WordHasher`], [`word_hash`]) takes eight
//!   bytes per multiply. It hashes every byte the checkpoint layer reads:
//!   each input's content in the job fingerprint and in
//!   [`input_content_hash`](crate::input_content_hash), and the checksum
//!   of every committed file and manifest entry. Those run over whole
//!   input sets and partition files, where FNV-1a's byte-at-a-time chain
//!   took about a fifth of a `perfbench resume` op.
//!
//! Either hash changing orphans every existing checkpoint, since the
//! fingerprint names the session directory; the word hasher is tied to
//! the manifest's format version.

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

/// Folds one 64-bit word into an FNV-1a chain: the primitive the DAG
/// stage keys are built from.
pub fn fold_hash(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// The word hasher's multiplier: odd, so multiplying by it is a bijection
/// of the state (2^64 over the golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A [`Hasher`] that takes eight bytes per step. A step xors one word
/// into the state, multiplies by an odd constant and xors the high half
/// into the low half. For a fixed word each of the three is a bijection
/// of the state, so two inputs that differ in one word always hash apart,
/// and high input bits reach the low output bits.
///
/// `write` takes its bytes as little-endian words, then the last 0–7
/// bytes as one more word whose top byte holds their count, so one write
/// maps each byte string to its own word sequence. Each integer write is
/// one word by value (a `u128` is two), the same on every platform.
/// `Default` starts from a fixed seed; [`word_hash`] is one write.
pub(crate) struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(0x243f_6a88_85a3_08d3)
    }
}

impl WordHasher {
    fn step(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(WORD_MUL);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        // Built byte by byte: a copy into a padded buffer calls `memcpy`,
        // which took a third of the time hashing short strings.
        let tail = words.remainder();
        let mut last = (tail.len() as u64) << 56;
        for (i, &b) in tail.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        self.step(last);
    }
    fn write_u8(&mut self, n: u8) {
        self.step(n.into());
    }
    fn write_u16(&mut self, n: u16) {
        self.step(n.into());
    }
    fn write_u32(&mut self, n: u32) {
        self.step(n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.step(n);
    }
    fn write_u128(&mut self, n: u128) {
        self.step(n as u64);
        self.step((n >> 64) as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.step(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The word hasher over `bytes`: the checksum of every committed
/// checkpoint file and manifest entry.
pub(crate) fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::default();
    h.write(bytes);
    h.finish()
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

    /// The word hasher's vectors, one per tail shape, computed by an
    /// independent model of the step. They name checkpoint sessions and
    /// check committed files, so they must never move. Every single-bit
    /// flip of a multi-word buffer changes the hash, since it changes
    /// exactly one word.
    #[test]
    fn word_hash_vectors_are_pinned_and_see_every_bit_flip() {
        for (input, expected) in [
            ("", 0xf7e2_7bea_df41_96a5),
            ("foobar", 0xba78_3ecc_712a_1315),
            ("mapreduc", 0xf2db_3aec_5ed4_6c81),
            ("mapreduce", 0x63b4_0289_0db4_4045),
            ("mapreduce job", 0xc354_fe76_6c20_1cba),
        ] {
            assert_eq!(word_hash(input.as_bytes()), expected, "{input:?}");
        }
        // "mapredu"'s tail word reads as the full word of "mapredu\x07";
        // the empty tail word that follows a full one keeps them apart.
        assert_ne!(word_hash(b"mapredu\x07"), word_hash(b"mapredu"));
        // An integer write is one word by value, whatever its width.
        let by_value = |write: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::default();
            write(&mut h);
            h.finish()
        };
        let word = by_value(&|h| h.write_u64(0xbeef));
        assert_eq!(by_value(&|h| h.write_u16(0xbeef)), word);
        assert_eq!(by_value(&|h| h.write_u32(0xbeef)), word);
        assert_eq!(by_value(&|h| h.write_usize(0xbeef)), word);
        assert_eq!(by_value(&|h| h.write_i64(0xbeef)), word);
        assert_eq!(
            by_value(&|h| h.write_u8(0xef)),
            by_value(&|h| h.write_u64(0xef))
        );
        assert_eq!(
            by_value(&|h| h.write_u128(0xbeef)),
            by_value(&|h| {
                h.write_u64(0xbeef);
                h.write_u64(0);
            })
        );

        let buffer: Vec<u8> = (0u8..29).map(|b| b.wrapping_mul(37)).collect();
        let base = word_hash(&buffer);
        for bit in 0..buffer.len() * 8 {
            let mut flipped = buffer.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(word_hash(&flipped), base, "bit {bit}");
        }
    }

    /// The one partition `HashRouter` picks for `key` among `n`.
    fn partition<K: Hash>(key: &K, n: usize) -> usize {
        let mut targets = Vec::new();
        HashRouter::new().route(key, n, &mut targets);
        targets[0]
    }

    /// Partitions and input fingerprints are persistent: they decide where
    /// every key is reduced and name checkpoint sessions. The partitions
    /// were recorded before the crate's FNV-1a copies were merged into
    /// [`Fnv1a`]; the content hashes when they moved to the word hasher,
    /// from an independent model of it. None may move.
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
            0x60ab_0c71_7cea_8f5b
        );
        let ids: Vec<u64> = (0..5).collect();
        assert_eq!(crate::input_content_hash(ids.iter()), 0xc4fa_0db0_8fec_c87d);
    }
}
