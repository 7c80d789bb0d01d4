//! A growable max segment tree over the residual capacities of open bins.
//!
//! First-fit needs "the leftmost bin whose residual capacity is ≥ w" in
//! better than linear time; with up to one bin per item, a naive scan makes
//! first-fit quadratic. The tree holds one leaf per *open* bin: opening a
//! bin appends a leaf, doubling the leaf count when it is full. Queries and
//! updates cost `O(log k)` for `k` open bins, and an update stops at the
//! first ancestor whose maximum does not change.

pub(crate) struct MaxSegTree {
    /// Leaves in use (open bins); the leaves after them hold 0.
    len: usize,
    /// Number of leaves: a power of two, at least `len`.
    size: usize,
    /// 1-based heap layout; `tree[1]` is the root.
    tree: Vec<u64>,
}

impl MaxSegTree {
    /// Builds a tree with no open leaves.
    pub(crate) fn new() -> Self {
        MaxSegTree {
            len: 0,
            size: 1,
            tree: vec![0; 2],
        }
    }

    /// Opens a new rightmost leaf holding `value` and returns its index.
    pub(crate) fn push(&mut self, value: u64) -> usize {
        if self.len == self.size {
            self.grow();
        }
        let idx = self.len;
        self.len += 1;
        self.set(idx, value);
        idx
    }

    /// Doubles the leaf count, keeping every leaf's value.
    fn grow(&mut self) {
        let size = 2 * self.size;
        let mut tree = vec![0; 2 * size];
        tree[size..size + self.size].copy_from_slice(&self.tree[self.size..]);
        for node in (1..size).rev() {
            tree[node] = tree[2 * node].max(tree[2 * node + 1]);
        }
        self.size = size;
        self.tree = tree;
    }

    /// The value of open leaf `idx`.
    pub(crate) fn get(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len);
        self.tree[self.size + idx]
    }

    /// Sets open leaf `idx` to `value` and updates its ancestors, stopping
    /// at the first one whose maximum does not change.
    pub(crate) fn set(&mut self, idx: usize, value: u64) {
        debug_assert!(idx < self.len);
        let mut node = self.size + idx;
        self.tree[node] = value;
        while node > 1 {
            node /= 2;
            let max = self.tree[2 * node].max(self.tree[2 * node + 1]);
            if self.tree[node] == max {
                break;
            }
            self.tree[node] = max;
        }
    }

    /// Returns the leftmost open leaf whose value is ≥ `needed`, or `None`.
    pub(crate) fn leftmost_at_least(&self, needed: u64) -> Option<usize> {
        if self.len == 0 || self.tree[1] < needed {
            return None;
        }
        let mut node = 1;
        while node < self.size {
            node = if self.tree[2 * node] >= needed {
                2 * node
            } else {
                2 * node + 1
            };
        }
        // Leaves past `len` hold 0, so only `needed == 0` could reach one,
        // and leaf 0 (open) satisfies that first.
        Some(node - self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(values: &[u64]) -> MaxSegTree {
        let mut t = MaxSegTree::new();
        for &v in values {
            t.push(v);
        }
        t
    }

    #[test]
    fn empty_tree_finds_nothing_positive() {
        // No open leaf satisfies anything, not even a zero requirement.
        assert_eq!(MaxSegTree::new().leftmost_at_least(0), None);
        let t = tree_of(&[0; 8]);
        assert_eq!(t.leftmost_at_least(1), None);
        // Every open leaf trivially satisfies a zero requirement.
        assert_eq!(t.leftmost_at_least(0), Some(0));
    }

    #[test]
    fn finds_leftmost_not_best() {
        let t = tree_of(&[0, 0, 5, 0, 0, 9, 0, 0]);
        assert_eq!(t.leftmost_at_least(4), Some(2));
        assert_eq!(t.leftmost_at_least(6), Some(5));
        assert_eq!(t.leftmost_at_least(10), None);
    }

    #[test]
    fn updates_are_visible() {
        let mut t = tree_of(&[3, 0, 0, 0]);
        assert_eq!(t.leftmost_at_least(3), Some(0));
        t.set(0, 1);
        assert_eq!(t.leftmost_at_least(3), None);
        t.set(3, 3);
        assert_eq!(t.leftmost_at_least(2), Some(3));
        assert_eq!(t.get(3), 3);
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut t = tree_of(&[0]);
        assert_eq!(t.leftmost_at_least(1), None);
        t.set(0, 7);
        assert_eq!(t.leftmost_at_least(7), Some(0));
        assert_eq!(t.leftmost_at_least(8), None);
    }

    #[test]
    fn non_power_of_two_sizes_round_up() {
        let t = tree_of(&[0, 0, 0, 0, 2]);
        assert_eq!(t.size, 8);
        assert_eq!(t.leftmost_at_least(2), Some(4));
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        // Deterministic pseudo-random probe without external crates: leaves
        // open across several doublings while values move up and down.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = MaxSegTree::new();
        let mut vals: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            if vals.is_empty() || next() % 8 == 0 {
                let val = next() % 100;
                assert_eq!(t.push(val), vals.len());
                vals.push(val);
            } else {
                let idx = (next() % vals.len() as u64) as usize;
                let val = next() % 100;
                vals[idx] = val;
                t.set(idx, val);
            }
            let needed = next() % 110;
            let expected = vals.iter().position(|&v| v >= needed);
            assert_eq!(t.leftmost_at_least(needed), expected);
        }
        assert!(vals.len() > 128, "the probe crosses several doublings");
    }
}
