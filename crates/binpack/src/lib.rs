//! One-dimensional bin packing, built as a substrate for the mapping-schema
//! algorithms of *Assignment of Different-Sized Inputs in MapReduce*
//! (Afrati, Dolev, Korach, Sharma, Ullman; EDBT 2015).
//!
//! The paper's heuristics for both the all-to-all (A2A) and X-to-Y (X2Y)
//! mapping-schema problems are "bin-packing based": inputs are first packed
//! into bins of capacity `q/2` (or `q - w_big`), and bins are then combined
//! into reducers. This crate provides everything those algorithms need:
//!
//! * the classic online fit heuristics ([`FitPolicy`]: next-fit, first-fit,
//!   best-fit, worst-fit) and their *decreasing* (sorted) variants, which
//!   [`pack_sorted`] runs from a [`DecreasingOrder`] sorted once per
//!   instance when one instance is packed at many capacities,
//! * lower bounds on the optimal bin count ([`bounds::l1`] — the ceiling
//!   bound — and [`bounds::l2`] — the Martello–Toth bound), used to report
//!   approximation ratios,
//! * an exact branch-and-bound packer ([`exact::pack_exact`]) for small
//!   instances, used to certify heuristic quality in tests and experiments,
//! * a validated [`Packing`] representation that can never silently overfill
//!   a bin or drop an item.
//!
//! Weights are unsigned integers (`u64`). The crate is deterministic: ties
//! are always broken by item id, so identical inputs yield identical
//! packings across runs and platforms.
//!
//! # Example
//!
//! ```
//! use mrassign_binpack::{pack, FitPolicy, bounds};
//!
//! let weights = [7, 5, 4, 3, 2, 2, 1];
//! let packing = pack(&weights, 10, FitPolicy::FirstFitDecreasing).unwrap();
//! assert!(packing.bin_count() >= bounds::l1(&weights, 10));
//! packing.validate(&weights).unwrap();
//! ```

mod error;
mod fit;
mod packing;
mod segtree;

pub mod bounds;
pub mod exact;
pub mod search;

pub use error::PackError;
pub use fit::{pack, pack_into_bins, pack_sorted, DecreasingOrder, FitPolicy};
pub use packing::{Bin, ItemId, Packing};
pub use search::{BoundedMemo, BudgetMeter, SearchBudget, SearchStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles_and_packs() {
        let weights = [7, 5, 4, 3, 2, 2, 1];
        let packing = pack(&weights, 10, FitPolicy::FirstFitDecreasing).unwrap();
        packing.validate(&weights).unwrap();
        assert!(packing.bin_count() >= bounds::l1(&weights, 10));
    }
}
