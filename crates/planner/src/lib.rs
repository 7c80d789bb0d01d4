//! Capacity planning: choose the reducer capacity `q`.
//!
//! The paper leaves `q` as a given ("for example, the main memory of the
//! processors"), but its three tradeoffs make `q` a *decision*: smaller
//! capacities buy parallelism with communication, larger ones starve the
//! worker pool. This crate sweeps candidate capacities, builds the schema
//! for each, scores it on the simulated cluster, and picks the best
//! candidate under a user objective — the executable version of the
//! paper's tradeoff discussion.
//!
//! A schema alone fixes what the cluster model turns into time: one map
//! task per input and, per reducer, its members' weights plus an 8-byte
//! key per routed copy. So each candidate is scored through the engine's
//! cost model, [`JobMetrics::simulate`], instead of being executed record
//! by record, and scores exactly what
//! [`Job::run`](mrassign_simmr::Job::run) reports for the schema's job.
//! A schema stores its input groups once and, per reducer, the groups it
//! hosts, so every solver's schema is scored through one method,
//! [`MappingSchema::reducer_sizes`] or [`X2ySchema::reducer_sizes`]: it
//! sums each group once, and a reducer's load and copy count are its
//! groups' sums. No member list is copied or re-read.
//!
//! The capacity-independent work is done once per plan call: the instance
//! sorts its inputs by decreasing weight once, and every candidate's
//! first-fit-decreasing packing reads that order; the map phase is
//! scheduled once. The candidates are independent, so the sweep runs them
//! on [`PlannerConfig::threads`] workers (defaulting to the machine's
//! available parallelism), the calling thread among them. Results are
//! re-slotted by candidate index before selection, so the [`Plan`] —
//! frontier order included — is byte-identical to a sequential sweep
//! regardless of thread count.
//!
//! Algorithms are selected through the
//! [`AssignmentSolver`](mrassign_core::solver) registry:
//! [`plan_a2a`] and [`plan_x2y`] use the `Auto` solvers, and the `_with`
//! variants accept any solver value (including one looked up by name from
//! the registry).
//!
//! ```
//! use mrassign_planner::{plan_a2a, Objective, PlannerConfig};
//! use mrassign_simmr::ClusterConfig;
//!
//! let weights: Vec<u64> = (0..150).map(|i| 40 + i % 80).collect();
//! let plan = plan_a2a(&weights, &PlannerConfig {
//!     cluster: ClusterConfig { workers: 16, ..ClusterConfig::default() },
//!     candidates: 8,
//!     objective: Objective::MinimizeMakespan,
//!     ..PlannerConfig::default()
//! }).unwrap();
//! assert!(plan.best.makespan <= plan.frontier.first().unwrap().makespan);
//! assert!(plan.best.makespan <= plan.frontier.last().unwrap().makespan);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mrassign_core::a2a::A2aAlgorithm;
use mrassign_core::solver::AssignmentSolver;
use mrassign_core::x2y::X2yAlgorithm;
use mrassign_core::{
    bounds, InputSet, MappingSchema, ReducerSize, SchemaError, Weight, X2yInstance, X2ySchema,
};
use mrassign_simmr::{ClusterConfig, JobMetrics, Schedule, TaskCost};

/// What "best capacity" means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Smallest simulated end-to-end makespan.
    MinimizeMakespan,
    /// Smallest communication cost whose makespan stays within
    /// `slowdown` × the best achievable makespan. `slowdown = 1.0` means
    /// "as fast as possible, then as cheap as possible".
    MinimizeCommunicationWithin {
        /// Allowed slowdown factor relative to the fastest candidate.
        slowdown: f64,
    },
    /// Weighted cost: `makespan_seconds + bytes × cost_per_byte` (e.g.
    /// cross-AZ transfer pricing folded into seconds).
    WeightedCost {
        /// Seconds charged per shuffled byte.
        cost_per_byte: f64,
    },
}

/// Planner parameters.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Simulated cluster the candidates are scored on. Only its cost-model
    /// fields (workers, rates, task overhead, bandwidth) are read, but the
    /// whole config must pass [`ClusterConfig::validate`] or planning panics.
    pub cluster: ClusterConfig,
    /// Number of capacity candidates to probe (geometric sweep).
    pub candidates: usize,
    /// Smallest capacity to consider; default = the feasibility threshold.
    pub q_min: Option<Weight>,
    /// Largest capacity to consider; default = total input weight (one
    /// reducer).
    pub q_max: Option<Weight>,
    /// Selection objective.
    pub objective: Objective,
    /// Concurrent workers the q-frontier sweep runs on, the calling thread
    /// included; `0` and `1` both mean sequential. The default is the
    /// machine's available parallelism. Results are independent of this
    /// knob — only wall-clock time changes.
    pub threads: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            cluster: ClusterConfig::default(),
            candidates: 10,
            q_min: None,
            q_max: None,
            objective: Objective::MinimizeMakespan,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// One evaluated capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePlan {
    /// The capacity probed.
    pub q: Weight,
    /// Reducers the schema uses at this capacity.
    pub reducers: usize,
    /// Schema communication cost (weight units = bytes).
    pub communication: u128,
    /// Simulated end-to-end makespan (seconds).
    pub makespan: f64,
    /// Speedup over serial execution.
    pub speedup: f64,
    /// Largest reducer load.
    pub max_load: Weight,
}

/// The planner's output: the chosen capacity and the whole frontier for
/// inspection/plotting.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The selected candidate under the objective.
    pub best: CandidatePlan,
    /// Every evaluated candidate, ascending by `q`.
    pub frontier: Vec<CandidatePlan>,
}

/// Plans the reducer capacity for an A2A workload (every pair of inputs
/// must meet) with the `Auto` solver.
pub fn plan_a2a(weights: &[Weight], config: &PlannerConfig) -> Result<Plan, SchemaError> {
    plan_a2a_with(A2aAlgorithm::Auto, weights, config)
}

/// Plans an A2A workload with an explicit solver from the registry.
pub fn plan_a2a_with<S>(
    solver: S,
    weights: &[Weight],
    config: &PlannerConfig,
) -> Result<Plan, SchemaError>
where
    S: AssignmentSolver<Instance = InputSet, Schema = MappingSchema> + Sync,
{
    let inputs = InputSet::from_weights(weights.to_vec());
    let total: u128 = inputs.total_weight();
    // A pair whose sum overflows fits at no q; the feasibility check says so.
    let q_floor = match inputs.two_largest() {
        Some((a, b)) => a.saturating_add(b),
        None => inputs.max_weight().max(1),
    };
    let q_min = config.q_min.unwrap_or(q_floor).max(q_floor).max(1);
    let q_max = config
        .q_max
        .unwrap_or_else(|| u64::try_from(total).unwrap_or(u64::MAX))
        .max(q_min);
    bounds::a2a_feasible(&inputs, q_min)?;
    let model = CostModel::new(&config.cluster, weights);

    let frontier = evaluate_candidates(
        &sweep(q_min, q_max, config.candidates),
        config.threads,
        |q| {
            let schema = solver.solve(&inputs, q)?;
            Ok(model.score(q, schema.reducer_sizes(&inputs)))
        },
    )?;
    select(frontier, config.objective)
}

/// Plans the reducer capacity for an X2Y workload (every cross pair must
/// meet) with the `Auto` solver.
pub fn plan_x2y(
    x_weights: &[Weight],
    y_weights: &[Weight],
    config: &PlannerConfig,
) -> Result<Plan, SchemaError> {
    plan_x2y_with(X2yAlgorithm::Auto, x_weights, y_weights, config)
}

/// Plans an X2Y workload with an explicit solver from the registry.
pub fn plan_x2y_with<S>(
    solver: S,
    x_weights: &[Weight],
    y_weights: &[Weight],
    config: &PlannerConfig,
) -> Result<Plan, SchemaError>
where
    S: AssignmentSolver<Instance = X2yInstance, Schema = X2ySchema> + Sync,
{
    let inst = X2yInstance::from_weights(x_weights.to_vec(), y_weights.to_vec());
    let total = inst.x.total_weight() + inst.y.total_weight();
    let (x_max, y_max) = (inst.x.max_weight(), inst.y.max_weight());
    let q_floor = x_max.saturating_add(y_max).max(1);
    let q_min = config.q_min.unwrap_or(q_floor).max(q_floor);
    let q_max = config
        .q_max
        .unwrap_or_else(|| u64::try_from(total).unwrap_or(u64::MAX))
        .max(q_min);
    bounds::x2y_feasible(&inst, q_min)?;
    // One map task per input, X inputs first.
    let model = CostModel::new(&config.cluster, x_weights.iter().chain(y_weights));

    let frontier = evaluate_candidates(
        &sweep(q_min, q_max, config.candidates),
        config.threads,
        |q| {
            let schema = solver.solve(&inst, q)?;
            Ok(model.score(q, schema.reducer_sizes(&inst)))
        },
    )?;
    select(frontier, config.objective)
}

/// Evaluates every candidate capacity on `threads` workers pulling from a
/// shared work queue (candidate costs are heavily skewed toward small `q`,
/// so dynamic assignment beats chunking). The calling thread is one of the
/// workers; the other `threads − 1` are scoped threads.
///
/// Results are re-slotted by candidate index, so the returned frontier is
/// byte-identical for every thread count; on failure the error reported is
/// the one a sequential sweep would have hit first. Once a candidate fails,
/// workers stop evaluating higher-indexed candidates (lower indices still
/// run, so the first-error guarantee holds without wasting the rest of the
/// sweep).
fn evaluate_candidates<F>(
    qs: &[Weight],
    threads: usize,
    eval: F,
) -> Result<Vec<CandidatePlan>, SchemaError>
where
    F: Fn(Weight) -> Result<CandidatePlan, SchemaError> + Sync,
{
    let threads = threads.clamp(1, qs.len().max(1));
    let next = AtomicUsize::new(0);
    let first_failure = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<CandidatePlan, SchemaError>>>> =
        qs.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&q) = qs.get(i) else { break };
        if i > first_failure.load(Ordering::Relaxed) {
            // A lower-indexed candidate already failed; this slot's result
            // could never be observed.
            continue;
        }
        let result = eval(q);
        if result.is_err() {
            first_failure.fetch_min(i, Ordering::Relaxed);
        }
        *slots[i].lock().expect("candidate slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    // Walk slots in index order: every index below the smallest failure was
    // evaluated, so the first error (or the complete frontier) comes out
    // exactly as the sequential path would report it.
    let mut frontier = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().expect("candidate slot poisoned") {
            Some(Ok(candidate)) => frontier.push(candidate),
            Some(Err(e)) => return Err(e),
            None => unreachable!("slots are only skipped above a recorded failure"),
        }
    }
    Ok(frontier)
}

/// Geometric sweep of candidate capacities from `lo` to `hi` (inclusive),
/// deduplicated so tight ranges never evaluate (and pay for) the same `q`
/// twice. Sorted ascending.
fn sweep(lo: Weight, hi: Weight, n: usize) -> Vec<Weight> {
    if lo >= hi || n <= 1 {
        return vec![lo];
    }
    let n = n.max(2);
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (n - 1) as f64);
    let mut qs: Vec<Weight> = (0..n)
        .map(|i| ((lo as f64) * ratio.powi(i as i32)).round() as Weight)
        .collect();
    qs[0] = lo;
    qs[n - 1] = hi;
    // Rounding can collapse neighbours (and, for extreme ranges, float error
    // could even reorder them): sort + dedup guarantees a strictly
    // ascending, duplicate-free candidate list.
    qs.sort_unstable();
    qs.dedup();
    qs
}

fn select(frontier: Vec<CandidatePlan>, objective: Objective) -> Result<Plan, SchemaError> {
    assert!(!frontier.is_empty(), "sweep always yields one candidate");
    let best = match objective {
        Objective::MinimizeMakespan => frontier
            .iter()
            .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
            .expect("nonempty"),
        Objective::MinimizeCommunicationWithin { slowdown } => {
            let fastest = frontier
                .iter()
                .map(|c| c.makespan)
                .fold(f64::INFINITY, f64::min);
            let budget = fastest * slowdown.max(1.0);
            frontier
                .iter()
                .filter(|c| c.makespan <= budget + 1e-12)
                .min_by_key(|c| c.communication)
                .expect("the fastest candidate always qualifies")
        }
        Objective::WeightedCost { cost_per_byte } => frontier
            .iter()
            .min_by(|a, b| {
                let cost = |c: &CandidatePlan| c.makespan + c.communication as f64 * cost_per_byte;
                cost(a).total_cmp(&cost(b))
            })
            .expect("nonempty"),
    }
    .clone();
    Ok(Plan { best, frontier })
}

/// Key bytes of one routed copy: the `u64` reducer index it is sent to.
const KEY_BYTES: u64 = 8;

/// The cluster cost model shared by the candidates of one plan call. A
/// schema scores as the job that sends each input, as one map task, to
/// its reducers: per copy its weight in value bytes plus [`KEY_BYTES`].
struct CostModel<'a> {
    cluster: &'a ClusterConfig,
    /// The map phase's schedule, which does not depend on `q`.
    map: Schedule,
}

impl<'a> CostModel<'a> {
    /// Validates `cluster` and schedules one map task per weight, in order.
    fn new(cluster: &'a ClusterConfig, weights: impl IntoIterator<Item = &'a Weight>) -> Self {
        cluster
            .validate()
            .unwrap_or_else(|e| panic!("the planner's cluster must be valid: {e}"));
        let costs = weights
            .into_iter()
            .map(|&w| TaskCost(cluster.map_task_seconds(w)));
        let map = Schedule::lpt(&costs.collect::<Vec<_>>(), cluster.workers);
        CostModel { cluster, map }
    }

    /// Scores the schema at capacity `q` whose reducers, in schema order,
    /// have the [`ReducerSize`]s `reducers` yields (their loads and member
    /// counts, from [`MappingSchema::reducer_sizes`] or
    /// [`X2ySchema::reducer_sizes`]); its communication is the sum of the
    /// loads. An empty schema runs no job and keeps
    /// [`JobMetrics::default`]. Byte totals saturate where the engine's
    /// `u64` counters would overflow. Panics, as the engine fails under
    /// `CapacityPolicy::Enforce(q)`, if a load exceeds `q` or `u64::MAX`.
    fn score(
        &self,
        q: Weight,
        reducers: impl ExactSizeIterator<Item = ReducerSize>,
    ) -> CandidatePlan {
        let mut metrics = JobMetrics {
            reducer_value_bytes: Vec::with_capacity(reducers.len()),
            ..JobMetrics::default()
        };
        let mut reduce_costs = Vec::with_capacity(reducers.len());
        let mut communication = 0u128;
        for (r, (load, copies)) in reducers.enumerate() {
            let load = load.filter(|&l| l <= q).unwrap_or_else(|| {
                panic!("valid schemas cannot violate capacity: reducer {r} exceeds q = {q}")
            });
            communication += u128::from(load);
            if copies > 0 {
                let total = load.saturating_add(copies.saturating_mul(KEY_BYTES));
                metrics.bytes_shuffled = metrics.bytes_shuffled.saturating_add(total);
                reduce_costs.push(TaskCost(self.cluster.reduce_task_seconds(total)));
            }
            metrics.reducer_value_bytes.push(load);
        }
        if !metrics.reducer_value_bytes.is_empty() {
            let reduce = Schedule::lpt(&reduce_costs, self.cluster.workers);
            metrics.simulate(self.cluster, &self.map, &reduce);
        }
        CandidatePlan {
            q,
            reducers: metrics.reducer_value_bytes.len(),
            communication,
            makespan: metrics.total_seconds(),
            speedup: metrics.speedup(),
            max_load: metrics.max_reducer_load(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrassign_binpack::FitPolicy;
    use mrassign_core::solver;
    use mrassign_simmr::{FinalizeMode, ShuffleMode};

    fn mixed_weights(m: usize) -> Vec<u64> {
        (0..m as u64).map(|i| 50 + (i * 13) % 150).collect()
    }

    fn with_threads(threads: usize) -> PlannerConfig {
        PlannerConfig {
            threads,
            ..PlannerConfig::default()
        }
    }

    #[test]
    fn frontier_is_ascending_and_bounded() {
        let plan = plan_a2a(&mixed_weights(100), &PlannerConfig::default()).unwrap();
        assert!(plan.frontier.len() >= 2);
        assert!(plan.frontier.windows(2).all(|w| w[0].q < w[1].q));
        assert!(plan.frontier.iter().all(|c| c.max_load <= c.q));
    }

    /// A tie on the objective's score goes to the first tied candidate,
    /// the smallest `q`, under every objective. Each frontier puts a
    /// worse candidate first and three tied ones after it.
    #[test]
    fn select_breaks_ties_toward_the_smallest_q() {
        let candidate = |q, makespan, communication| CandidatePlan {
            q,
            reducers: 1,
            communication,
            makespan,
            speedup: 1.0,
            max_load: q,
        };
        for (objective, frontier) in [
            (
                Objective::MinimizeMakespan,
                [
                    (10, 3.0, 100),
                    (20, 1.0, 900),
                    (30, 1.0, 500),
                    (40, 1.0, 700),
                ],
            ),
            (
                // Budget 1.5 s; q = 10 is cheapest but too slow.
                Objective::MinimizeCommunicationWithin { slowdown: 1.5 },
                [
                    (10, 2.0, 100),
                    (20, 1.0, 400),
                    (30, 1.25, 400),
                    (40, 1.5, 400),
                ],
            ),
            (
                // Costs 4.0, 2.0, 2.0, 2.0: exact in binary, so a true tie.
                Objective::WeightedCost { cost_per_byte: 0.5 },
                [(10, 3.0, 2), (20, 1.0, 2), (30, 1.5, 1), (40, 0.5, 3)],
            ),
        ] {
            let frontier = frontier.map(|(q, makespan, comm)| candidate(q, makespan, comm));
            let plan = select(frontier.to_vec(), objective).unwrap();
            assert_eq!(plan.best.q, 20, "{objective:?}");
        }
    }

    #[test]
    fn min_makespan_picks_the_frontier_minimum() {
        let plan = plan_a2a(&mixed_weights(100), &PlannerConfig::default()).unwrap();
        let min = plan
            .frontier
            .iter()
            .map(|c| c.makespan)
            .fold(f64::INFINITY, f64::min);
        assert!((plan.best.makespan - min).abs() < 1e-12);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let weights = mixed_weights(120);
        let sequential = plan_a2a(&weights, &with_threads(1)).unwrap();
        for threads in [2, 4, 8] {
            let parallel = plan_a2a(&weights, &with_threads(threads)).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_sweep_with_more_threads_than_candidates() {
        let weights = mixed_weights(40);
        let cfg = PlannerConfig {
            candidates: 3,
            threads: 16,
            ..PlannerConfig::default()
        };
        let plan = plan_a2a(&weights, &cfg).unwrap();
        let sequential = plan_a2a(
            &weights,
            &PlannerConfig {
                threads: 1,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(plan, sequential);
    }

    #[test]
    fn solver_selection_changes_the_frontier_not_the_contract() {
        // A forced pairing solver (all weights ≤ ⌊q/2⌋ holds across the
        // default sweep for this workload? not necessarily — so sweep a
        // range where the regime is valid).
        let weights: Vec<u64> = (0..60).map(|i| 10 + i % 20).collect();
        let cfg = PlannerConfig {
            q_min: Some(100),
            ..PlannerConfig::default()
        };
        let auto = plan_a2a(&weights, &cfg).unwrap();
        let pairing = plan_a2a_with(
            solver::a2a_solver("pairing").expect("registered"),
            &weights,
            &cfg,
        )
        .unwrap();
        assert_eq!(auto.frontier.len(), pairing.frontier.len());
        assert!(pairing.frontier.iter().all(|c| c.max_load <= c.q));
    }

    #[test]
    fn errors_match_sequential_order() {
        // A forced grouping solver on unequal weights fails at every q; the
        // parallel path must report the same (first) error.
        let weights = vec![3, 3, 4, 5, 9, 9, 9, 2];
        let seq = plan_a2a_with(A2aAlgorithm::GroupingEqual, &weights, &with_threads(1));
        let par = plan_a2a_with(A2aAlgorithm::GroupingEqual, &weights, &with_threads(4));
        assert!(seq.is_err());
        assert_eq!(seq, par);
    }

    #[test]
    fn communication_objective_prefers_larger_q() {
        let weights = mixed_weights(100);
        let cheap = plan_a2a(
            &weights,
            &PlannerConfig {
                objective: Objective::MinimizeCommunicationWithin { slowdown: 100.0 },
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        // With an effectively unlimited slowdown budget the cheapest
        // candidate is the single-reducer end of the sweep.
        let max_q = cheap.frontier.iter().map(|c| c.q).max().unwrap();
        assert_eq!(cheap.best.q, max_q);
    }

    #[test]
    fn tight_slowdown_budget_reduces_to_fastest() {
        let weights = mixed_weights(100);
        let fast = plan_a2a(&weights, &PlannerConfig::default()).unwrap();
        let tight = plan_a2a(
            &weights,
            &PlannerConfig {
                objective: Objective::MinimizeCommunicationWithin { slowdown: 1.0 },
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        assert!(tight.best.makespan <= fast.best.makespan + 1e-12);
    }

    #[test]
    fn weighted_cost_interpolates() {
        let weights = mixed_weights(100);
        // Zero byte cost ≡ makespan objective.
        let a = plan_a2a(
            &weights,
            &PlannerConfig {
                objective: Objective::WeightedCost { cost_per_byte: 0.0 },
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        let b = plan_a2a(&weights, &PlannerConfig::default()).unwrap();
        assert_eq!(a.best.q, b.best.q);
        // Enormous byte cost ≡ communication objective (largest q wins).
        let c = plan_a2a(
            &weights,
            &PlannerConfig {
                objective: Objective::WeightedCost { cost_per_byte: 1e6 },
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        let max_q = c.frontier.iter().map(|p| p.q).max().unwrap();
        assert_eq!(c.best.q, max_q);
    }

    #[test]
    fn x2y_planning_works_end_to_end() {
        let x = mixed_weights(60);
        let y = mixed_weights(40);
        let plan = plan_x2y(&x, &y, &PlannerConfig::default()).unwrap();
        assert!(plan.frontier.len() >= 2);
        assert!(plan.frontier.iter().all(|c| c.max_load <= c.q));
        // Communication decreases along the frontier (larger q, less
        // replication).
        assert!(
            plan.frontier.first().unwrap().communication
                >= plan.frontier.last().unwrap().communication
        );
    }

    #[test]
    fn x2y_parallel_matches_sequential() {
        let x = mixed_weights(50);
        let y = mixed_weights(35);
        let seq = plan_x2y(&x, &y, &with_threads(1)).unwrap();
        let par = plan_x2y(&x, &y, &with_threads(4)).unwrap();
        assert_eq!(seq, par);
        let grid = plan_x2y_with(
            X2yAlgorithm::GridOptimized(FitPolicy::FirstFitDecreasing),
            &x,
            &y,
            &with_threads(4),
        )
        .unwrap();
        assert!(grid.frontier.iter().all(|c| c.max_load <= c.q));
    }

    #[test]
    fn shuffle_mode_does_not_change_the_plan() {
        let weights = mixed_weights(80);
        let mk = |shuffle, finalize_mode| {
            plan_a2a(
                &weights,
                &PlannerConfig {
                    cluster: ClusterConfig {
                        shuffle,
                        finalize_mode,
                        ..ClusterConfig::default()
                    },
                    ..PlannerConfig::default()
                },
            )
            .unwrap()
        };
        let reference = mk(ShuffleMode::Materialized, FinalizeMode::Static);
        // Plan is built from the simulated (deterministic) metrics, so
        // neither pipelining nor its finalize scheduler can move the
        // frontier.
        for finalize in FinalizeMode::ALL {
            assert_eq!(reference, mk(ShuffleMode::Pipelined, finalize));
        }
    }

    #[test]
    fn infeasible_floor_is_rejected() {
        // Two inputs of 100 with q_max capped below 200.
        let err = plan_a2a(
            &[100, 100],
            &PlannerConfig {
                q_min: Some(10),
                q_max: Some(150),
                ..PlannerConfig::default()
            },
        );
        // q_min is raised to the feasibility floor 200 > q_max: the sweep
        // still probes 200, which exceeds q_max but stays feasible.
        assert!(err.is_ok());
        let plan = err.unwrap();
        assert!(plan.best.q >= 200);
    }

    #[test]
    fn trivial_instances_plan_cleanly() {
        let plan = plan_a2a(&[], &PlannerConfig::default()).unwrap();
        assert_eq!(plan.best.reducers, 0);
        let single = plan_a2a(&[42], &PlannerConfig::default()).unwrap();
        assert!(single.best.reducers <= 1);
    }

    #[test]
    fn sweep_never_emits_duplicates() {
        // Regression: tight ranges with generous candidate budgets collapse
        // many rounded points onto the same integer; each q must still be
        // evaluated exactly once.
        for lo in [1u64, 7, 10, 99, 1_000] {
            for span in [1u64, 2, 3, 10, 50] {
                for n in [2usize, 3, 5, 10, 33] {
                    let qs = sweep(lo, lo + span, n);
                    assert!(
                        qs.windows(2).all(|w| w[0] < w[1]),
                        "duplicate/unsorted candidates for lo={lo} span={span} n={n}: {qs:?}"
                    );
                    assert_eq!(*qs.first().unwrap(), lo);
                    assert_eq!(*qs.last().unwrap(), lo + span);
                }
            }
        }
        // Extreme magnitudes where f64 rounding is coarsest.
        let qs = sweep(u64::MAX / 2, u64::MAX - 1, 16);
        assert!(qs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_degenerate_ranges() {
        assert_eq!(sweep(5, 5, 10), vec![5]);
        assert_eq!(sweep(9, 3, 10), vec![9]);
        assert_eq!(sweep(5, 50, 0), vec![5]);
        assert_eq!(sweep(5, 50, 1), vec![5]);
    }

    /// Weights whose largest pair sums past `u64::MAX` are infeasible at
    /// every q: the plan is a named error, not a wrapped-around floor
    /// (which used to pick q = 4 for `[u64::MAX, 5]` and divide by zero
    /// for `[2⁶³, 2⁶³]`).
    #[test]
    fn overflowing_pairs_are_infeasible() {
        let saturated = |b| {
            Err(SchemaError::Infeasible {
                a: 0,
                b,
                combined: u64::MAX,
                capacity: u64::MAX,
            })
        };
        for weights in [vec![u64::MAX, 5], vec![1 << 63, 1 << 63]] {
            assert_eq!(plan_a2a(&weights, &PlannerConfig::default()), saturated(1));
        }
        assert_eq!(
            plan_x2y(&[u64::MAX], &[5], &PlannerConfig::default()),
            saturated(0)
        );
    }

    /// The largest pair that still fits in a `u64` plans one reducer whose
    /// byte total (load plus two 8-byte keys) saturates instead of
    /// overflowing.
    #[test]
    fn near_max_weights_plan_one_reducer() {
        let w = u64::MAX / 2;
        let plan = plan_a2a(&[w, w], &PlannerConfig::default()).unwrap();
        assert_eq!(plan.best.reducers, 1);
        assert_eq!(plan.best.max_load, 2 * w);
    }

    #[test]
    #[should_panic(expected = "valid schemas cannot violate capacity: reducer 1 exceeds q = 10")]
    fn score_rejects_an_overloaded_reducer() {
        let cluster = ClusterConfig::default();
        let model = CostModel::new(&cluster, &[6, 4, 5]);
        let schema = MappingSchema::from_reducers(vec![vec![0, 1], vec![0, 2]]);
        model.score(
            10,
            schema.reducer_sizes(&InputSet::from_weights(vec![6, 4, 5])),
        );
    }

    #[test]
    #[should_panic(expected = "valid schemas cannot violate capacity: reducer 0")]
    fn score_rejects_an_overflowing_load() {
        let cluster = ClusterConfig::default();
        let model = CostModel::new(&cluster, &[u64::MAX, 1]);
        let schema = MappingSchema::from_reducers(vec![vec![0, 1]]);
        model.score(
            u64::MAX,
            schema.reducer_sizes(&InputSet::from_weights(vec![u64::MAX, 1])),
        );
    }

    #[test]
    #[should_panic(
        expected = "the planner's cluster must be valid: cluster configured with zero workers"
    )]
    fn invalid_cluster_is_rejected() {
        let cluster = ClusterConfig {
            workers: 0,
            ..ClusterConfig::default()
        };
        let _ = plan_a2a(
            &mixed_weights(20),
            &PlannerConfig {
                cluster,
                ..PlannerConfig::default()
            },
        );
    }
}
