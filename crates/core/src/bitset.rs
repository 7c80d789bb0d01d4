//! A minimal fixed-size bitset for pair-coverage checking.
//!
//! Validating a schema over `m` inputs must track up to `m(m−1)/2` pairs;
//! for the experiment sizes (m in the thousands) a `Vec<bool>` would spend
//! 8× the memory and thrash cache, so coverage uses this packed set.

#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a set of `len` zero bits.
    pub(crate) fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `idx`; returns whether it was newly set.
    pub(crate) fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let (word, bit) = (idx / 64, idx % 64);
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Clears bit `idx` (used by the exact search to undo coverage on
    /// backtrack).
    pub(crate) fn clear_bit(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the first unset bit, or `None` if all `len` bits are set.
    pub(crate) fn first_unset(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                let idx = w * 64 + bit;
                if idx < self.len {
                    return Some(idx);
                }
                return None;
            }
        }
        None
    }

    /// Total number of bits tracked.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The packed words backing the set (trailing padding bits are zero
    /// whenever only in-range bits were inserted). Used as a memo key by
    /// the exact search.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_freshness() {
        let mut s = BitSet::new(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn first_unset_walks_the_set() {
        let mut s = BitSet::new(130);
        assert_eq!(s.first_unset(), Some(0));
        for i in 0..64 {
            s.insert(i);
        }
        assert_eq!(s.first_unset(), Some(64));
        for i in 64..130 {
            s.insert(i);
        }
        assert_eq!(s.first_unset(), None);
        assert_eq!(s.count(), 130);
    }

    #[test]
    fn first_unset_ignores_padding_bits() {
        // 65 bits: the second word has 63 padding bits that must not be
        // reported as unset once bit 64 is set.
        let mut s = BitSet::new(65);
        for i in 0..65 {
            s.insert(i);
        }
        assert_eq!(s.first_unset(), None);
    }

    #[test]
    fn zero_length_set() {
        let s = BitSet::new(0);
        assert_eq!(s.first_unset(), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.len(), 0);
    }
}
