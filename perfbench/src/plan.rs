//! `plan`: capacity-planning requests. One op is one cycle of `plan_a2a`
//! on uniform, Zipf and bimodal size distributions plus one `plan_x2y`.

use std::time::{Duration, Instant};

use mrassign_core::a2a::A2aAlgorithm;
use mrassign_core::bounds;
use mrassign_core::x2y::X2yAlgorithm;
use mrassign_core::{AssignmentSolver, InputSet, X2yInstance};
use mrassign_planner::{plan_a2a, plan_x2y, Plan, PlannerConfig};
use mrassign_workloads::SizeDistribution;

use crate::harness::{ratio, Ctx, Metrics, OpResult, Recorder, Workload};

/// Sweep threads; the benchmark host has two cores.
const THREADS: usize = 2;

enum Instance {
    A2a(Vec<u64>, InputSet),
    X2y(Vec<u64>, Vec<u64>, X2yInstance),
}

struct Request {
    name: &'static str,
    instance: Instance,
    config: PlannerConfig,
    /// The sequential (`threads = 1`) plan every op must reproduce.
    reference: Plan,
}

pub struct PlanWorkload {
    requests: Vec<Request>,
    comm_over_lb: f64,
    reducers_over_lb: f64,
}

/// Candidates and `q_min` as in the planner bench: `q_min` near total/16
/// keeps the low end of the sweep at a realistic reducer count.
fn config(total: u64, threads: usize, candidates: usize) -> PlannerConfig {
    PlannerConfig {
        candidates,
        threads,
        q_min: Some((total / 16).max(400)),
        ..PlannerConfig::default()
    }
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let m = ctx.pick(1_000, 60);
    let candidates = ctx.pick(32, 6);
    let dists = [
        ("uniform", SizeDistribution::Uniform { lo: 50, hi: 150 }),
        (
            "zipf",
            SizeDistribution::Zipf {
                ranks: 100,
                exponent: 1.0,
                max_size: 1_000,
            },
        ),
        (
            "bimodal",
            SizeDistribution::Bimodal {
                small: 40,
                big: 800,
                big_fraction: 0.1,
            },
        ),
    ];
    let mut requests = Vec::new();
    for (i, (name, dist)) in dists.into_iter().enumerate() {
        let weights = dist.sample_many(m, ctx.sub_seed(i as u64));
        let total = weights.iter().sum();
        let reference = plan_a2a(&weights, &config(total, 1, candidates))
            .map_err(|e| format!("plan {name}: reference plan failed: {e}"))?;
        let inputs = InputSet::from_weights(weights.clone());
        requests.push(Request {
            name,
            instance: Instance::A2a(weights, inputs),
            config: config(total, THREADS, candidates),
            reference,
        });
    }
    let side = SizeDistribution::Uniform { lo: 20, hi: 200 };
    let x = side.sample_many(m / 2, ctx.sub_seed(10));
    let y = side.sample_many(m / 2, ctx.sub_seed(11));
    let total = x.iter().chain(&y).sum();
    let reference = plan_x2y(&x, &y, &config(total, 1, candidates))
        .map_err(|e| format!("plan x2y: reference plan failed: {e}"))?;
    let inst = X2yInstance::from_weights(x.clone(), y.clone());
    requests.push(Request {
        name: "x2y",
        instance: Instance::X2y(x, y, inst),
        config: config(total, THREADS, candidates),
        reference,
    });

    // Validate each reference's chosen q by re-solving it and certifying
    // the schema, and score it against the lower bounds at that q.
    let (mut comm, mut reducers) = (0.0, 0.0);
    for r in &requests {
        let best = &r.reference.best;
        let (comm_lb, reducer_lb) = match &r.instance {
            Instance::A2a(_, inputs) => {
                let schema = A2aAlgorithm::Auto
                    .solve(inputs, best.q)
                    .map_err(|e| format!("plan {}: re-solve failed: {e}", r.name))?;
                schema
                    .validate_a2a(inputs, best.q)
                    .map_err(|e| format!("plan {}: invalid schema: {e}", r.name))?;
                if schema.communication_cost(inputs) != best.communication {
                    return Err(format!("plan {}: re-solved cost differs", r.name));
                }
                (
                    bounds::a2a_comm_lb(inputs, best.q),
                    bounds::a2a_reducer_lb(inputs, best.q),
                )
            }
            Instance::X2y(_, _, inst) => {
                let schema = X2yAlgorithm::Auto
                    .solve(inst, best.q)
                    .map_err(|e| format!("plan x2y: re-solve failed: {e}"))?;
                schema
                    .validate(inst, best.q)
                    .map_err(|e| format!("plan x2y: invalid schema: {e}"))?;
                if schema.communication_cost(inst) != best.communication {
                    return Err("plan x2y: re-solved cost differs".to_string());
                }
                (
                    bounds::x2y_comm_lb(inst, best.q),
                    bounds::x2y_reducer_lb(inst, best.q),
                )
            }
        };
        comm += ratio(best.communication as f64, comm_lb as f64);
        reducers += ratio(best.reducers as f64, reducer_lb as f64);
    }
    let n = requests.len() as f64;
    Ok(Box::new(PlanWorkload {
        requests,
        comm_over_lb: comm / n,
        reducers_over_lb: reducers / n,
    }))
}

impl Workload for PlanWorkload {
    fn op(&mut self, rec: &mut Recorder) -> Result<OpResult, String> {
        let mut latency = Duration::ZERO;
        let mut shuffled = 0u64;
        for r in &self.requests {
            let started = Instant::now();
            let (plan, span) = match &r.instance {
                Instance::A2a(w, _) => (plan_a2a(w, &r.config), "a2a"),
                Instance::X2y(x, y, _) => (plan_x2y(x, y, &r.config), "x2y"),
            };
            let took = started.elapsed();
            latency += took;
            rec.span("planner", &format!("planner.plan_ms.{span}"), took);
            let plan = plan.map_err(|e| format!("plan {}: {e}", r.name))?;
            if plan != r.reference {
                return Err(format!(
                    "plan {}: differs from the sequential reference",
                    r.name
                ));
            }
            // The planner executes every candidate schema as a blob job
            // whose shuffle is the schema's communication cost.
            shuffled += plan
                .frontier
                .iter()
                .map(|c| c.communication as u64)
                .sum::<u64>();
            if rec.enabled() {
                rec.value("planner", "planner.candidates", plan.frontier.len() as f64);
                trace_solves(r, &plan, rec)?;
            }
        }
        Ok(OpResult {
            latency,
            shuffled_bytes: shuffled,
        })
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) {
        let solve_ms = rec.sum("core.solve_ms");
        let plan_ms = rec.layer_ms("planner");
        let solve_share = ratio(solve_ms, plan_ms * THREADS as f64);
        out.set("core.solve_ms", rec.per_op("core.solve_ms"), "ms");
        out.set("core.solve_share", solve_share, "ratio");
        out.set(
            "planner.plan_ms.a2a",
            rec.median("planner.plan_ms.a2a"),
            "ms",
        );
        out.set(
            "planner.plan_ms.x2y",
            rec.median("planner.plan_ms.x2y"),
            "ms",
        );
        out.set(
            "planner.candidates",
            rec.per_op("planner.candidates"),
            "count",
        );
        out.set("planner.comm_over_lb", self.comm_over_lb, "ratio");
        out.set("planner.reducers_over_lb", self.reducers_over_lb, "ratio");
        out.set("share.core", solve_share, "ratio");
        out.set("share.planner", 1.0 - solve_share, "ratio");
    }

    fn schema_quality(&self) -> Option<(f64, f64)> {
        Some((self.comm_over_lb, self.reducers_over_lb))
    }
}

/// Re-calls the solver at every frontier q of `plan` (outside the op's
/// timed window): Σ solve time is the core layer's part of the sweep.
fn trace_solves(r: &Request, plan: &Plan, rec: &mut Recorder) -> Result<(), String> {
    rec.probe("core", "core.solve_ms", || {
        for c in &plan.frontier {
            let reducers = match &r.instance {
                Instance::A2a(_, inputs) => A2aAlgorithm::Auto
                    .solve(inputs, c.q)
                    .map(|s| s.reducer_count()),
                Instance::X2y(_, _, inst) => X2yAlgorithm::Auto
                    .solve(inst, c.q)
                    .map(|s| s.reducer_count()),
            }
            .map_err(|e| format!("plan {}: re-solve at q={} failed: {e}", r.name, c.q))?;
            if reducers != c.reducers {
                return Err(format!(
                    "plan {}: re-solve at q={} changed the reducer count",
                    r.name, c.q
                ));
            }
        }
        Ok(())
    })
}
