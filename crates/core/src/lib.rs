//! Mapping schemas for capacity-bounded reducers — the core contribution of
//! *Assignment of Different-Sized Inputs in MapReduce* (Afrati, Dolev,
//! Korach, Sharma, Ullman; EDBT 2015 / arXiv:1501.06758).
//!
//! # The model
//!
//! A set of inputs with known **sizes** must be assigned to reducers, each
//! with the same **capacity** `q` bounding the sum of the sizes assigned to
//! it. A **mapping schema** is an assignment satisfying:
//!
//! 1. every reducer's summed input size is at most `q`, and
//! 2. for every output, the inputs it depends on share at least one reducer.
//!
//! The paper studies outputs depending on exactly **two** inputs and defines
//! two problems, both NP-complete:
//!
//! * **A2A** (all-to-all): every pair of inputs must meet — similarity
//!   join, pairwise "common friends" computations;
//! * **X2Y**: two disjoint sets, every cross pair `(x, y)` must meet —
//!   skew join of two relations on a heavy hitter, outer/tensor products.
//!
//! Minimizing the number of reducers minimizes communication cost, at the
//! price of parallelism: that tradeoff is the subject of the paper and of
//! this crate's experiment suite.
//!
//! # What this crate provides
//!
//! * [`InputSet`] / [`X2yInstance`] — the weighted-input model,
//! * [`MappingSchema`] / [`X2ySchema`] — validated assignments (pair
//!   coverage + capacity certified independently of how they were built),
//!   stored as the paper's input groups plus the groups each reducer hosts,
//! * [`a2a`] — the paper's A2A algorithm toolbox (one-reducer, equal-size
//!   grouping, bin-pack-and-pair, big+small handling, dispatch),
//! * [`x2y`] — the X2Y toolbox (two-sided grid, unbalanced splits, big
//!   inputs, dispatch),
//! * [`exact`] — branch-and-bound optimal solvers and the 2-reducer
//!   structure results that witness NP-hardness,
//! * [`bounds`] — lower bounds on reducers, replication, and communication
//!   (the denominators of every approximation ratio we report),
//! * [`stats`] — schema metrics: reducer count, communication cost,
//!   replication rate, load distribution,
//! * [`solver`] — the [`solver::AssignmentSolver`] trait and registry, so
//!   planners, benches, and the CLI select algorithms by value or by name.
//!
//! # Quick start
//!
//! ```
//! use mrassign_core::{a2a, stats::SchemaStats, InputSet};
//!
//! // 40 inputs of mixed sizes, reducer capacity 100.
//! let weights: Vec<u64> = (0..40).map(|i| 10 + i % 17).collect();
//! let inputs = InputSet::from_weights(weights);
//! let schema = a2a::solve(&inputs, 100, a2a::A2aAlgorithm::Auto).unwrap();
//!
//! // The schema is a certified mapping schema: every pair of inputs shares
//! // a reducer and no reducer exceeds capacity 100.
//! schema.validate_a2a(&inputs, 100).unwrap();
//!
//! let stats = SchemaStats::for_a2a(&schema, &inputs, 100);
//! assert!(stats.reducers >= mrassign_core::bounds::a2a_reducer_lb(&inputs, 100));
//! ```

mod bitset;
mod error;
mod input;
mod schema;

pub mod a2a;
pub mod bounds;
pub mod exact;
pub mod solver;
pub mod stats;
pub mod x2y;

pub use error::SchemaError;
pub use input::{InputId, InputSet, Weight, X2yInstance};
pub use schema::{A2aReducer, MappingSchema, ReducerSize, X2yReducer, X2ySchema};
pub use solver::{AssignmentSolver, SolverKind};
