use crate::error::PackError;

/// Identifier of a packed item: the index of its weight in the slice the
/// caller handed to the packer.
pub type ItemId = u32;

/// A single bin: the items placed in it and their cached total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bin {
    items: Vec<ItemId>,
    load: u64,
}

impl Bin {
    /// Creates an empty bin.
    pub(crate) fn new() -> Self {
        Bin {
            items: Vec::new(),
            load: 0,
        }
    }

    /// Adds an item; the caller is responsible for capacity checking.
    pub(crate) fn push(&mut self, id: ItemId, weight: u64) {
        self.items.push(id);
        self.load += weight;
    }

    /// Item ids stored in this bin, in insertion order.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Total weight of the items in this bin.
    pub fn load(&self) -> u64 {
        self.load
    }

    /// Number of items in this bin.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the bin holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The result of packing a weight slice into capacity-bounded bins.
///
/// A `Packing` is produced only by the algorithms in this crate, all of which
/// maintain the two packing invariants (no bin overfull, every item placed
/// exactly once). [`Packing::validate`] re-checks the invariants from scratch
/// against the original weights; tests and downstream consumers use it as an
/// independent certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    capacity: u64,
    bins: Vec<Bin>,
}

impl Packing {
    pub(crate) fn new(capacity: u64) -> Self {
        Packing {
            capacity,
            bins: Vec::new(),
        }
    }

    pub(crate) fn from_bins(capacity: u64, bins: Vec<Bin>) -> Self {
        Packing { capacity, bins }
    }

    pub(crate) fn push_bin(&mut self, bin: Bin) {
        self.bins.push(bin);
    }

    pub(crate) fn bin_mut(&mut self, idx: usize) -> &mut Bin {
        &mut self.bins[idx]
    }

    /// The bin capacity this packing was built for.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of (non-empty) bins used.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// The bins, in creation order.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// The bins' item lists, in creation order, moved out of the packing.
    pub fn into_item_lists(self) -> Vec<Vec<ItemId>> {
        self.bins.into_iter().map(|bin| bin.items).collect()
    }

    /// Iterates over `(bin index, item id)` placements.
    pub fn placements(&self) -> impl Iterator<Item = (usize, ItemId)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .flat_map(|(b, bin)| bin.items().iter().map(move |&id| (b, id)))
    }

    /// Total weight across all bins, saturating at `u64::MAX`.
    pub fn total_load(&self) -> u64 {
        self.bins.iter().map(Bin::load).fold(0, u64::saturating_add)
    }

    /// The largest bin load, or 0 for an empty packing.
    pub fn max_load(&self) -> u64 {
        self.bins.iter().map(Bin::load).max().unwrap_or(0)
    }

    /// Fraction of total bin capacity actually used, in `[0, 1]`.
    ///
    /// Returns 1.0 for an empty packing (vacuously perfectly utilized).
    pub fn utilization(&self) -> f64 {
        if self.bins.is_empty() {
            return 1.0;
        }
        self.total_load() as f64 / (self.capacity as f64 * self.bins.len() as f64)
    }

    /// Re-derives which bin each item landed in: `assignment[item] = bin`.
    ///
    /// Panics if an item id is out of range for `n_items`; use
    /// [`Packing::validate`] first when handling untrusted data.
    pub fn item_to_bin(&self, n_items: usize) -> Vec<usize> {
        let mut assignment = vec![usize::MAX; n_items];
        for (b, id) in self.placements() {
            assignment[id as usize] = b;
        }
        assignment
    }

    /// Independently verifies the packing invariants against `weights`:
    /// every item placed exactly once, recorded loads correct, no bin over
    /// capacity. Returns the first violation found; a bin whose weights sum
    /// past `u64::MAX` overflows with its load saturated there.
    pub fn validate(&self, weights: &[u64]) -> Result<(), PackError> {
        let mut seen = vec![false; weights.len()];
        let mut placed = 0usize;
        for (b, bin) in self.bins.iter().enumerate() {
            let mut actual = Some(0u64);
            for &id in bin.items() {
                let idx = id as usize;
                if idx >= weights.len() || seen[idx] {
                    return Err(PackError::UnknownOrDuplicateItem { id });
                }
                seen[idx] = true;
                placed += 1;
                actual = actual.and_then(|load| load.checked_add(weights[idx]));
            }
            let Some(actual) = actual else {
                return Err(PackError::BinOverflow {
                    bin: b,
                    load: u64::MAX,
                    capacity: self.capacity,
                });
            };
            if actual != bin.load() {
                return Err(PackError::LoadMismatch {
                    bin: b,
                    recorded: bin.load(),
                    actual,
                });
            }
            if actual > self.capacity {
                return Err(PackError::BinOverflow {
                    bin: b,
                    load: actual,
                    capacity: self.capacity,
                });
            }
        }
        if placed != weights.len() {
            return Err(PackError::ItemCountMismatch {
                placed,
                expected: weights.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_packing() -> Packing {
        let mut p = Packing::new(10);
        let mut b0 = Bin::new();
        b0.push(0, 6);
        b0.push(2, 4);
        let mut b1 = Bin::new();
        b1.push(1, 9);
        p.push_bin(b0);
        p.push_bin(b1);
        p
    }

    #[test]
    fn accessors_report_consistent_stats() {
        let p = manual_packing();
        assert_eq!(p.capacity(), 10);
        assert_eq!(p.bin_count(), 2);
        assert_eq!(p.total_load(), 19);
        assert_eq!(p.max_load(), 10);
        assert!((p.utilization() - 0.95).abs() < 1e-12);
        assert_eq!(p.bins()[0].len(), 2);
        assert!(!p.bins()[0].is_empty());
    }

    #[test]
    fn placements_enumerates_every_item_once() {
        let p = manual_packing();
        let mut placements: Vec<_> = p.placements().collect();
        placements.sort_unstable();
        assert_eq!(placements, vec![(0, 0), (0, 2), (1, 1)]);
    }

    #[test]
    fn item_to_bin_inverts_placements() {
        let p = manual_packing();
        assert_eq!(p.item_to_bin(3), vec![0, 1, 0]);
    }

    #[test]
    fn validate_accepts_consistent_packing() {
        let p = manual_packing();
        assert_eq!(p.validate(&[6, 9, 4]), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_item() {
        let p = manual_packing();
        assert_eq!(
            p.validate(&[6, 9, 4, 1]),
            Err(PackError::ItemCountMismatch {
                placed: 3,
                expected: 4
            })
        );
    }

    #[test]
    fn validate_rejects_wrong_weights() {
        let p = manual_packing();
        // Item 0 now weighs 7: bin 0's recorded load (10) is stale.
        assert_eq!(
            p.validate(&[7, 9, 4]),
            Err(PackError::LoadMismatch {
                bin: 0,
                recorded: 10,
                actual: 11
            })
        );
    }

    #[test]
    fn validate_rejects_overflow() {
        let mut p = Packing::new(5);
        let mut b = Bin::new();
        b.push(0, 6);
        p.push_bin(b);
        assert_eq!(
            p.validate(&[6]),
            Err(PackError::BinOverflow {
                bin: 0,
                load: 6,
                capacity: 5
            })
        );
    }

    /// A bin's weights can sum past `u64::MAX`: this one's true load is
    /// `u64::MAX + 4`, which a wrapping sum would read as the recorded 3.
    #[test]
    fn validate_rejects_a_load_that_overflows() {
        let p = Packing::from_bins(
            u64::MAX,
            vec![Bin {
                items: vec![0, 1],
                load: 3,
            }],
        );
        assert_eq!(
            p.validate(&[u64::MAX - 1, 5]),
            Err(PackError::BinOverflow {
                bin: 0,
                load: u64::MAX,
                capacity: u64::MAX
            })
        );
    }

    #[test]
    fn total_load_saturates() {
        let p = Packing::from_bins(
            u64::MAX,
            vec![
                Bin {
                    items: vec![0],
                    load: u64::MAX,
                },
                Bin {
                    items: vec![1],
                    load: 1,
                },
            ],
        );
        assert_eq!(p.total_load(), u64::MAX);
    }

    #[test]
    fn validate_rejects_duplicate_item() {
        let mut p = Packing::new(20);
        let mut b = Bin::new();
        b.push(0, 6);
        b.push(0, 6);
        p.push_bin(b);
        assert_eq!(
            p.validate(&[6]),
            Err(PackError::UnknownOrDuplicateItem { id: 0 })
        );
    }

    #[test]
    fn empty_packing_is_valid_for_empty_weights() {
        let p = Packing::new(1);
        assert_eq!(p.validate(&[]), Ok(()));
        assert_eq!(p.max_load(), 0);
        assert_eq!(p.utilization(), 1.0);
    }
}
