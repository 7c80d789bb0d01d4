//! Exact solvers and the hardness-witnessing special cases.
//!
//! Both mapping-schema problems are NP-complete, and this module makes that
//! concrete in three ways:
//!
//! * [`a2a_exact`] / [`x2y_exact`] — branch-and-bound solvers that find the
//!   provably minimum number of reducers on small instances. They certify
//!   heuristic quality in `table2` and blow up exponentially on cue — but
//!   only after a battery of reductions (below) has cut everything the
//!   hardness does not strictly demand.
//! * [`a2a_two_reducer_feasible`] — the paper's structural observation for
//!   A2A: with two reducers, an input exclusive to one cannot meet an input
//!   exclusive to the other, so some reducer must hold *every* input.
//!   Hence 2 reducers never beat 1, and the interesting hardness starts at
//!   `z = 3`.
//! * [`x2y_two_reducers`] — for X2Y, two reducers already encode
//!   PARTITION: one side must be fully replicated in both reducers and the
//!   other side split into two halves of bounded weight. The
//!   pseudo-polynomial subset-sum DP here decides it exactly and returns a
//!   witness schema, mirroring the NP-completeness reduction.
//!
//! # One search for both problems
//!
//! To the search, both problems are one: cover every *required pair* of
//! inputs with the fewest reducers of capacity `q`. The required pairs are
//! every pair for A2A and every X×Y pair for X2Y. [`a2a_exact`] and
//! [`x2y_exact`] are adapters over a single branch-and-bound. Each supplies
//! the weights, which pairs are required, and the most required pair
//! weight a fresh reducer can cover (`q²/2` for A2A; `q²/4` for X2Y, since
//! `s_x·s_y ≤ q²/4` when `s_x + s_y ≤ q`). Each maps the cover back to its
//! schema type, and X2Y also seeds its lower bound with the two-reducer DP.
//!
//! # The search, and what prunes it
//!
//! The search runs **iterative deepening on the reducer count**: starting
//! from the instance lower bound, each target `z` is either refuted (no
//! `z`-reducer schema exists) or answered with a cover — and because every
//! smaller target was refuted first, the first cover found is provably
//! optimal. Each deepening level is a branch-and-bound over **complete
//! reducers**: a node picks one uncovered pair and branches on every
//! inclusion-maximal reducer that could host it (any schema can be
//! rewritten reducer-by-reducer into maximal form, so this loses nothing).
//! Closed reducers never change, which makes the covered-pair bitmap the
//! *entire* search state. On that skeleton:
//!
//! * **Dominance / symmetry breaking** — inputs on the same side, of equal
//!   weight and equal coverage row are interchangeable (swapping them is an
//!   automorphism of the required pairs and of the state), so candidate
//!   reducers pick class members in canonical prefix order and isomorphic
//!   reducers are enumerated once.
//! * **Completion lower bounds** — at every node, sound bounds on the
//!   number of *additional* reducers are computed from the uncovered pair
//!   weight (`⌈2U/q²⌉` for A2A, `⌈4U/q²⌉` for X2Y), the forced per-input
//!   copies (`⌈u_i/(q − w_i)⌉`), and the forced future communication;
//!   meeting the deepening target kills the subtree.
//! * **Memoization** — a [`BoundedMemo`] keyed on the covered bitmap
//!   collapses states reached along different branch orders (cleared
//!   between deepening levels, since refutations under a tighter target
//!   say nothing about a looser one).
//! * **Pair selection** — nodes branch on the heaviest uncovered pair
//!   (fewest maximal reducers can host it), and candidate reducers are
//!   tried in greedy set-cover order (most uncovered pair weight first) so
//!   the witness level walks almost straight to a cover.
//!
//! Incumbent seeding runs every registered heuristic solver up front: the
//! best one caps the deepening range, and refuting every target below its
//! count certifies the *heuristic* as optimal. A [`SearchBudget`] caps
//! nodes; exhaustion is reported via
//! [`SearchStats::exhausted`] and `optimal: false`, never as a silent
//! "optimal".

use std::time::Instant;

use mrassign_binpack::search::{BoundedMemo, BudgetMeter};
pub use mrassign_binpack::search::{SearchBudget, SearchStats};

use crate::bitset::BitSet;
use crate::bounds;
use crate::error::SchemaError;
use crate::input::{InputId, InputSet, Weight, X2yInstance};
use crate::schema::{MappingSchema, X2ySchema};
use crate::solver::{AssignmentSolver, A2A_SOLVERS, X2Y_SOLVERS};
use crate::{a2a, x2y};

/// Entries the search keeps in its memo table before segmented-LRU
/// eviction starts (each entry is a short `Vec<u64>` of covered-pair
/// words, so the table stays within tens of MB).
const MEMO_CAPACITY: usize = 1 << 18;

/// Largest capacity for which [`x2y_exact`] will run the pseudo-polynomial
/// two-reducer DP to tighten its lower bound (the DP allocates `O(q)`).
const TWO_REDUCER_DP_MAX_Q: Weight = 1 << 22;

/// Largest per-input weight the search accepts: with at most 64 inputs per
/// side of weight ≤ 2³², every pair-weight accumulator stays below 2⁷⁷ and
/// the `u128` arithmetic in the completion bounds can never overflow (the
/// bounds would silently go unsound if it wrapped). Heavier instances take
/// the no-search fallback, exactly like a side of more than 64 inputs.
const MAX_SEARCH_WEIGHT: Weight = u32::MAX as Weight;

/// Hard cap on candidate-enumeration steps per node. Enumerating maximal
/// reducers is itself exponential when the capacity admits very large
/// reducers, and it runs *between* budget ticks — without a cap a single
/// node could overshoot any [`SearchBudget`] by orders of magnitude.
/// Hitting the cap truncates the node (reported as exhaustion, never as a
/// certificate). Typical nodes use a few hundred steps.
const GEN_WORK_CAP: u64 = 4_000_000;

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExactSchema<S> {
    /// The optimal schema when `optimal`; the best heuristic schema when
    /// the budget ran out first.
    pub schema: S,
    /// Whether optimality was certified (search exhausted or the lower
    /// bound was met) within the search budget.
    pub optimal: bool,
    /// Branch-and-bound effort: nodes, prunes by rule, memo hits, and
    /// whether the budget ran out.
    pub stats: SearchStats,
    /// Time the search spent, including incumbent seeding.
    pub elapsed_us: u128,
}

// ---------------------------------------------------------------------------
// The pair-cover search
// ---------------------------------------------------------------------------

/// A reducer's members as the adapters read them: side-0 input `u` is bit
/// `u` of word 0, side-1 input `u` is bit `u − split` of word 1. Masks
/// compare side 0 first, which is the order ties between candidate
/// reducers break in.
type Mask = [u64; 2];

/// An instance as the search sees it, filled in by [`a2a_exact`] or
/// [`x2y_exact`]: cover every required pair of inputs with reducers of
/// capacity `q`.
struct PairCover {
    /// Weights by input id: side 0 (every A2A input, or X2Y's X), then
    /// side 1 (X2Y's Y).
    weights: Vec<Weight>,
    /// Inputs below `split` are side 0.
    split: usize,
    /// Whether only the pairs across the sides are required (X2Y) rather
    /// than every pair (A2A).
    cross_only: bool,
    /// A fresh reducer covers required pair weight at most `q²/pair_factor`.
    pair_factor: u128,
    q: Weight,
    /// A lower bound on the reducer count; deepening starts here.
    lb: usize,
}

impl PairCover {
    /// Finds a minimum cover, or certifies `heuristic` (which uses
    /// `heuristic_count` reducers) as one. `schema_of` maps a cover back to
    /// the caller's schema type.
    ///
    /// Seeds the incumbent with the heuristic and certifies optimality
    /// either by exhausting the search or by matching the lower bound.
    /// Exponential in the worst case — that is the point (see `table2`);
    /// cap it with the [`SearchBudget`]. No search runs when no pair is
    /// required (the heuristic is then optimal: there is nothing to
    /// cover), nor when a side has more than 64 inputs or a weight exceeds
    /// `u32::MAX` (which would overflow the bounds' pair-weight
    /// arithmetic); the heuristic then comes back with `optimal: false`
    /// unless it already matches the lower bound.
    fn solve<S>(
        self,
        budget: SearchBudget,
        start: Instant,
        heuristic: S,
        heuristic_count: usize,
        schema_of: impl FnOnce(&[Mask]) -> S,
    ) -> ExactSchema<S> {
        let n = self.weights.len();
        let sides = [self.split, n - self.split];
        let no_pairs = if self.cross_only {
            sides.contains(&0)
        } else {
            n < 2
        };
        let certified = no_pairs || heuristic_count <= self.lb;
        if certified
            || sides.iter().any(|&side| side > 64)
            || self.weights.iter().any(|&w| w > MAX_SEARCH_WEIGHT)
        {
            // No search is attempted, so `exhausted` stays false: no
            // budget, however large, would change the answer.
            return ExactSchema {
                schema: heuristic,
                optimal: certified,
                stats: SearchStats::default(),
                elapsed_us: start.elapsed().as_micros(),
            };
        }
        let lb = self.lb;
        let mut search = Search::new(self, budget);
        // Iterative deepening on the reducer count: refute every target from
        // the lower bound upward until one admits a cover (that cover is then
        // optimal by construction) or the heuristic count itself is reached
        // (then the heuristic is optimal). A refutation only counts when the
        // iteration ran to completion, so budget exhaustion never certifies.
        let mut refuted_below = lb;
        for target in lb..heuristic_count {
            search.cutoff = target + 1;
            search.memo.clear(); // entries proved under a tighter cutoff
            search.run();
            if search.found.is_some() || search.stats.exhausted {
                break;
            }
            refuted_below = target + 1;
        }
        search.stats.nodes = search.meter.nodes();

        let (schema, optimal) = match &search.found {
            Some(cover) => {
                let masks: Vec<Mask> = cover.iter().map(|&set| search.mask_of(set)).collect();
                (schema_of(&masks), true)
            }
            None => (heuristic, refuted_below >= heuristic_count),
        };
        if optimal {
            search.stats.exhausted = false;
        }
        ExactSchema {
            schema,
            optimal,
            stats: search.stats,
            elapsed_us: start.elapsed().as_micros(),
        }
    }
}

/// The branch-and-bound over a [`PairCover`], one deepening level per
/// [`Search::run`] from the root. Sets of inputs are `u128` bitmasks over
/// input ids.
struct Search {
    inst: PairCover,
    /// `pair_at[a·n + b]` for a required pair `(a, b)`, `a < b`: its
    /// position in lexicographic order, which is its bit in `covered`.
    pair_at: Vec<u32>,
    /// The required pairs covered so far: the memo key.
    covered: BitSet,
    /// Per input `a`: the inputs above `a` it must meet.
    partners_above: Vec<u128>,
    /// Per input: the partners it already meets in a chosen reducer.
    met: Vec<u128>,
    /// Covers must use fewer reducers than this (the deepening target + 1).
    cutoff: usize,
    /// The first cover found within the cutoff: optimal, so the search
    /// stops.
    found: Option<Vec<u128>>,
    meter: BudgetMeter,
    stats: SearchStats,
    /// Σ w_a·w_b over currently uncovered required pairs.
    uncovered_pw: u128,
    /// Per input: total weight of its uncovered partners.
    unc_w: Vec<u128>,
    /// The reducers chosen along the current path.
    chosen: Vec<u128>,
    memo: BoundedMemo<Vec<u64>, usize>,
    /// Enumeration steps spent on the current node's candidates.
    gen_work: u64,
}

impl Search {
    fn new(inst: PairCover, budget: SearchBudget) -> Self {
        let n = inst.weights.len();
        let mut pair_at = vec![0; n * n];
        let mut pair_count = 0;
        let mut partners_above = vec![0u128; n];
        let mut uncovered_pw = 0u128;
        let mut unc_w = vec![0u128; n];
        for a in 0..n {
            for b in a + 1..n {
                if inst.cross_only && !(a < inst.split && inst.split <= b) {
                    continue;
                }
                pair_at[a * n + b] = pair_count as u32;
                pair_count += 1;
                partners_above[a] |= 1 << b;
                let (wa, wb) = (inst.weights[a] as u128, inst.weights[b] as u128);
                uncovered_pw += wa * wb;
                unc_w[a] += wb;
                unc_w[b] += wa;
            }
        }
        Search {
            inst,
            pair_at,
            covered: BitSet::new(pair_count),
            partners_above,
            met: vec![0; n],
            cutoff: 0,
            found: None,
            meter: BudgetMeter::new(budget),
            stats: SearchStats::default(),
            uncovered_pw,
            unc_w,
            chosen: Vec::new(),
            memo: BoundedMemo::new(MEMO_CAPACITY),
            gen_work: 0,
        }
    }

    /// `set` as a [`Mask`].
    fn mask_of(&self, set: u128) -> Mask {
        let split = self.inst.split;
        [(set & ((1 << split) - 1)) as u64, (set >> split) as u64]
    }

    /// The inputs above `a` that it must meet and does not yet.
    fn unmet_above(&self, a: usize) -> u128 {
        self.partners_above[a] & !self.met[a]
    }

    /// Marks required pair `(a, b)`, `a < b`, covered and maintains the
    /// uncovered-weight accounting.
    fn cover(&mut self, a: usize, b: usize) {
        let idx = self.pair_at[a * self.inst.weights.len() + b];
        self.covered.insert(idx as usize);
        self.met[a] |= 1 << b;
        self.met[b] |= 1 << a;
        let (wa, wb) = (self.inst.weights[a] as u128, self.inst.weights[b] as u128);
        self.uncovered_pw -= wa * wb;
        self.unc_w[a] -= wb;
        self.unc_w[b] -= wa;
    }

    /// Undoes [`Self::cover`].
    fn uncover(&mut self, a: usize, b: usize) {
        let idx = self.pair_at[a * self.inst.weights.len() + b];
        self.covered.clear_bit(idx as usize);
        self.met[a] &= !(1 << b);
        self.met[b] &= !(1 << a);
        let (wa, wb) = (self.inst.weights[a] as u128, self.inst.weights[b] as u128);
        self.uncovered_pw += wa * wb;
        self.unc_w[a] += wb;
        self.unc_w[b] += wa;
    }

    /// A sound lower bound on how many *further* reducers any completion of
    /// this state needs — every reducer on the path is already complete, so
    /// the uncovered pairs must be served entirely by fresh reducers:
    ///
    /// * **pair weight**: a fresh reducer covers required pair weight at
    ///   most `q²/pair_factor`, and `U` (uncovered pair weight) remains;
    /// * **per-input copies**: input `i` with uncovered partner weight
    ///   `u_i` needs `⌈u_i/(q − w_i)⌉` fresh reducers containing it;
    /// * **communication**: each forced copy of `i` transfers `w_i`, and a
    ///   fresh reducer receives at most `q`.
    fn completion_extra(&self) -> usize {
        if self.uncovered_pw == 0 {
            return 0;
        }
        let q = self.inst.q as u128;
        let pair_extra = (self.inst.pair_factor * self.uncovered_pw).div_ceil(q * q);
        let mut future = 0u128;
        let mut max_copies = 0u128;
        for (&unc, &w) in self.unc_w.iter().zip(&self.inst.weights) {
            if unc == 0 {
                continue;
            }
            if w >= self.inst.q {
                return usize::MAX; // cannot host any partner: dead subtree
            }
            let copies = unc.div_ceil((self.inst.q - w) as u128);
            max_copies = max_copies.max(copies);
            future += (w as u128) * copies;
        }
        let comm_extra = future.div_ceil(q);
        pair_extra
            .max(comm_extra)
            .max(max_copies)
            .try_into()
            .unwrap_or(usize::MAX)
    }

    /// The uncovered pair the node branches on: the heaviest one (the most
    /// capacity-constrained, so the fewest maximal reducers host it), the
    /// first in lexicographic order among equals.
    fn select_pair(&self) -> (usize, usize) {
        let w = &self.inst.weights;
        let mut best = (0, 0, 0);
        for a in 0..w.len() {
            if self.unc_w[a] == 0 {
                continue;
            }
            for b in bits(self.unmet_above(a)) {
                if w[a] + w[b] > best.0 {
                    best = (w[a] + w[b], a, b);
                }
            }
        }
        (best.1, best.2)
    }

    /// Σ w_a·w_b over the uncovered required pairs inside `set`.
    fn fresh_weight(&self, set: u128) -> u128 {
        let w = &self.inst.weights;
        bits(set)
            .map(|a| {
                let partners: u128 = bits(set & self.unmet_above(a)).map(|b| w[b] as u128).sum();
                w[a] as u128 * partners
            })
            .sum()
    }

    /// Enumerates the candidate reducers for pair `(a, b)`: every
    /// inclusion-maximal set of inputs holding both whose weight fits in
    /// `q`. Restricting to maximal sets is sound — extending a reducer only
    /// adds coverage — and inputs interchangeable in the current covered
    /// state are taken in canonical prefix order, so isomorphic reducers
    /// are enumerated once. Returned in greedy set-cover order: the reducer
    /// covering the most still-uncovered pair weight first, so the witness
    /// iteration of the deepening loop walks straight toward a cover.
    fn gen_subsets(&mut self, a: usize, b: usize) -> Vec<u128> {
        // u ≡ v when swapping them is an automorphism of the required pairs
        // and of the covered state: the same side, equal weight, and the
        // same partners met apart from each other. A class is labelled by
        // the bit of its first member's position, so no two classes share
        // a label.
        let (w, split, met) = (&self.inst.weights, self.inst.split, &self.met);
        let mut cands: Vec<(usize, u128)> = Vec::with_capacity(w.len());
        for u in (0..w.len()).filter(|&u| u != a && u != b) {
            let sibling = cands.iter().find(|&&(v, _)| {
                let off = !(1u128 << u | 1 << v);
                (u < split) == (v < split) && w[u] == w[v] && met[u] & off == met[v] & off
            });
            let class = sibling.map_or(1 << cands.len(), |&(_, class)| class);
            cands.push((u, class));
        }
        let base_w = w[a] + w[b];

        let mut out = Vec::new();
        self.gen_work = 0;
        self.gen_rec(&cands, 1 << a | 1 << b, base_w, 0, &mut out);
        let mut keyed: Vec<(u128, Mask, u128)> = out
            .into_iter()
            .map(|set| (self.fresh_weight(set), self.mask_of(set), set))
            .collect();
        keyed.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        keyed.into_iter().map(|(_, _, set)| set).collect()
    }

    /// Decides the first of the candidates `rest`, each paired with its
    /// class label: include it (when it fits and its class allows) and
    /// skip it. Skipping bans the rest of its class in `banned`, so class
    /// members are taken in prefix order or not at all.
    fn gen_rec(
        &mut self,
        rest: &[(usize, u128)],
        set: u128,
        w: Weight,
        banned: u128,
        out: &mut Vec<u128>,
    ) {
        self.gen_work += 1;
        if self.gen_work > GEN_WORK_CAP {
            // Truncated enumeration: the node cannot be fully explored, so
            // the whole search degrades to budget-exhausted (no memo entry,
            // no certificate) instead of burning unmetered time.
            self.stats.exhausted = true;
            return;
        }
        let Some((&(u, class), rest)) = rest.split_first() else {
            // Keep only inclusion-maximal reducers.
            let mut outside = self
                .inst
                .weights
                .iter()
                .enumerate()
                .filter(|(v, _)| set >> v & 1 == 0);
            if outside.all(|(_, &wv)| w + wv > self.inst.q) {
                out.push(set);
            }
            return;
        };
        let wu = self.inst.weights[u];
        let fits = w + wu <= self.inst.q;
        let allowed = banned & class == 0;
        if fits && !allowed {
            // A class sibling was skipped earlier: every reducer taking `u`
            // here is isomorphic to one already enumerated.
            self.stats.pruned_dominance += 1;
        }
        if fits && allowed {
            self.gen_rec(rest, set | 1 << u, w + wu, banned, out);
        }
        self.gen_rec(rest, set, w, banned | class, out);
    }

    fn run(&mut self) {
        if self.found.is_some() || self.stats.exhausted {
            // Certified or truncated (budget or a capped enumeration):
            // nothing below can change the outcome.
            return;
        }
        if !self.meter.tick() {
            self.stats.exhausted = true;
            return;
        }
        if self.chosen.len() >= self.cutoff {
            return;
        }
        if self.covered.first_unset().is_none() {
            // Every required pair covered within the cutoff — under
            // iterative deepening every smaller target was already refuted,
            // so this cover is optimal and the whole search stops.
            self.found = Some(self.chosen.clone());
            return;
        }
        if self.chosen.len().saturating_add(self.completion_extra()) >= self.cutoff {
            self.stats.pruned_bound += 1;
            return;
        }
        // The covered bitmap alone determines the rest of the search (every
        // chosen reducer is closed), so it is the entire memo key.
        let key = self.covered.words().to_vec();
        if let Some(seen_with) = self.memo.get(&key) {
            if seen_with <= self.chosen.len() {
                // An earlier, fully explored visit reached this exact
                // coverage at least as cheaply; its subtree already
                // updated the incumbent with anything reachable here.
                self.stats.memo_hits += 1;
                return;
            }
        }

        let (a, b) = self.select_pair();
        for set in self.gen_subsets(a, b) {
            let mut newly = Vec::new();
            for u in bits(set) {
                for v in bits(set & self.unmet_above(u)) {
                    self.cover(u, v);
                    newly.push((u, v));
                }
            }
            self.chosen.push(set);
            self.run();
            self.chosen.pop();
            for (u, v) in newly {
                self.uncover(u, v);
            }
        }

        // Memoize only fully explored subtrees: a truncated visit proves
        // nothing about this state.
        if !self.stats.exhausted && self.found.is_none() {
            self.memo.insert_min(key, self.chosen.len());
        }
    }
}

/// The members of `set`, ascending.
fn bits(mut set: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (set != 0).then(|| set.trailing_zeros() as usize)?;
        set &= set - 1;
        Some(bit)
    })
}

/// The ids a [`Mask`] word holds, ascending.
fn ids(word: u64) -> Vec<InputId> {
    bits(word.into()).map(|bit| bit as InputId).collect()
}

// ---------------------------------------------------------------------------
// The A2A and X2Y adapters
// ---------------------------------------------------------------------------

/// Picks the best incumbent among all registered A2A heuristics (they are
/// polynomial, so trying all of them is cheap next to the search). At least
/// the `Auto` solver succeeds on any feasible instance.
fn best_a2a_heuristic(inputs: &InputSet, q: Weight) -> Result<MappingSchema, SchemaError> {
    let mut best: Option<MappingSchema> = None;
    for solver in A2A_SOLVERS {
        if let Ok(schema) = solver.solve(inputs, q) {
            if best
                .as_ref()
                .is_none_or(|b| schema.reducer_count() < b.reducer_count())
            {
                best = Some(schema);
            }
        }
    }
    match best {
        Some(schema) => Ok(schema),
        // Every registered heuristic failed — surface Auto's error.
        None => a2a::solve(inputs, q, a2a::A2aAlgorithm::Auto),
    }
}

/// Finds the minimum-reducer A2A schema by branch and bound; the budget
/// can be a plain `u64` node count.
///
/// Every pair of inputs is required. The search (see the [module
/// docs](self)) certifies optimality by exhausting the deepening range or
/// by matching [`bounds::a2a_reducer_lb`]; instances beyond 64 inputs, or
/// with any weight above `u32::MAX`, skip it and return the best heuristic
/// schema with `optimal: false` unless that already meets the bound.
pub fn a2a_exact(
    inputs: &InputSet,
    q: Weight,
    budget: impl Into<SearchBudget>,
) -> Result<ExactSchema<MappingSchema>, SchemaError> {
    let start = Instant::now();
    let heuristic = best_a2a_heuristic(inputs, q)?;
    let heuristic_count = heuristic.reducer_count();
    let cover = PairCover {
        weights: inputs.weights().to_vec(),
        split: inputs.len(),
        cross_only: false,
        // A reducer of load s ≤ q covers pair weight at most s²/2.
        pair_factor: 2,
        q,
        lb: bounds::a2a_reducer_lb(inputs, q),
    };
    Ok(
        cover.solve(budget.into(), start, heuristic, heuristic_count, |masks| {
            MappingSchema::from_reducers(masks.iter().map(|mask| ids(mask[0])).collect())
        }),
    )
}

/// Best incumbent among all registered X2Y heuristics; see
/// [`best_a2a_heuristic`].
fn best_x2y_heuristic(inst: &X2yInstance, q: Weight) -> Result<X2ySchema, SchemaError> {
    let mut best: Option<X2ySchema> = None;
    for solver in X2Y_SOLVERS {
        if let Ok(schema) = solver.solve(inst, q) {
            if best
                .as_ref()
                .is_none_or(|b| schema.reducer_count() < b.reducer_count())
            {
                best = Some(schema);
            }
        }
    }
    match best {
        Some(schema) => Ok(schema),
        None => x2y::solve(inst, q, x2y::X2yAlgorithm::Auto),
    }
}

/// Finds the minimum-reducer X2Y schema by branch and bound; see
/// [`a2a_exact`] for the contract. Every cross pair is required, and the
/// search skips instances with more than 64 inputs on either side.
///
/// Beyond the shared reductions, the X2Y search exploits the two-reducer
/// structure result: when the generic lower bound allows `z ≤ 2`, the
/// subset-sum DP of [`x2y_two_reducers`] *decides* the two-reducer case,
/// either settling the instance outright or raising the bound to 3.
pub fn x2y_exact(
    inst: &X2yInstance,
    q: Weight,
    budget: impl Into<SearchBudget>,
) -> Result<ExactSchema<X2ySchema>, SchemaError> {
    let start = Instant::now();
    let mut heuristic = best_x2y_heuristic(inst, q)?;
    let mut lb = bounds::x2y_reducer_lb(inst, q);
    if heuristic.reducer_count() > 2 && lb <= 2 && q <= TWO_REDUCER_DP_MAX_Q {
        // The heuristics failed to reach 2 reducers, which rules out the
        // easy cases (an empty side, or W ≤ q where one reducer suffices),
        // so the optimum is ≥ 2 and the DP decides whether it is exactly 2.
        match x2y_two_reducers(inst, q) {
            Some(two) => {
                heuristic = two;
                lb = lb.max(2);
            }
            None => lb = 3,
        }
    }
    let heuristic_count = heuristic.reducer_count();
    let cover = PairCover {
        weights: inst
            .x
            .weights()
            .iter()
            .chain(inst.y.weights())
            .copied()
            .collect(),
        split: inst.x.len(),
        cross_only: true,
        // s_x·s_y ≤ q²/4 when s_x + s_y ≤ q (AM–GM).
        pair_factor: 4,
        q,
        lb,
    };
    Ok(
        cover.solve(budget.into(), start, heuristic, heuristic_count, |masks| {
            let reducers = masks.iter().map(|mask| (ids(mask[0]), ids(mask[1])));
            X2ySchema::from_reducers(reducers.collect())
        }),
    )
}

// ---------------------------------------------------------------------------
// Two-reducer structure results
// ---------------------------------------------------------------------------

/// The A2A two-reducer theorem: a schema with at most 2 reducers exists iff
/// one reducer already suffices (`W ≤ q`, or fewer than two inputs).
///
/// *Proof.* Suppose reducers `R₁, R₂` cover all pairs. If some input `a`
/// is only in `R₁` and some `b` only in `R₂`, the pair `(a, b)` is
/// uncovered. So every input is in `R₁` or every input is in `R₂`; that
/// reducer carries total weight `W ≤ q`. ∎
pub fn a2a_two_reducer_feasible(inputs: &InputSet, q: Weight) -> bool {
    inputs.len() < 2 || inputs.total_weight() <= q as u128
}

/// Decides whether an X2Y schema with at most two reducers exists, and
/// returns a witness if so.
///
/// Structure: with two reducers, if both sides had inputs exclusive to
/// different reducers some cross pair would be uncovered; hence one side is
/// fully replicated in both reducers and the other side is split into two
/// parts. Splitting X requires a subset `S ⊆ X` with
/// `w(S) ≤ q − W_Y` and `w(X∖S) ≤ q − W_Y` — a subset-sum question solved
/// here by pseudo-polynomial dynamic programming over sums up to
/// `q − W_Y` (and symmetrically for splitting Y). This is exactly why the
/// 2-reducer decision problem is NP-complete: PARTITION reduces to it.
pub fn x2y_two_reducers(inst: &X2yInstance, q: Weight) -> Option<X2ySchema> {
    if inst.x.is_empty() || inst.y.is_empty() {
        return Some(X2ySchema::new());
    }
    // One reducer?
    if inst.x.total_weight() + inst.y.total_weight() <= q as u128 {
        return x2y::one_reducer(inst, q).ok();
    }
    // Split X, replicate Y.
    if let Some(schema) = split_one_side(&inst.x, &inst.y, q, false) {
        return Some(schema);
    }
    // Split Y, replicate X.
    if let Some(schema) = split_one_side(&inst.y, &inst.x, q, true) {
        return Some(schema);
    }
    None
}

/// Tries to split `split_side` into two parts that each fit alongside a
/// full copy of `rep_side`. `mirrored` says the split side is Y.
fn split_one_side(
    split_side: &InputSet,
    rep_side: &InputSet,
    q: Weight,
    mirrored: bool,
) -> Option<X2ySchema> {
    let rep_total = rep_side.total_weight();
    let cap = (q as u128).checked_sub(rep_total)?;
    let cap = u64::try_from(cap).ok()?;
    let split_total = split_side.total_weight();
    if split_total > 2 * cap as u128 {
        return None;
    }
    // Find a subset with sum in [split_total − cap, cap].
    let lo = split_total.saturating_sub(cap as u128);
    let subset = subset_sum_in_range(split_side.weights(), lo, cap)?;

    let in_subset: std::collections::HashSet<InputId> = subset.iter().copied().collect();
    let part_a: Vec<InputId> = subset;
    let part_b: Vec<InputId> = (0..split_side.len() as InputId)
        .filter(|i| !in_subset.contains(i))
        .collect();
    let rep_all: Vec<InputId> = (0..rep_side.len() as InputId).collect();

    let make = |part: Vec<InputId>| {
        if mirrored {
            (rep_all.clone(), part)
        } else {
            (part, rep_all.clone())
        }
    };
    Some(X2ySchema::from_reducers(vec![make(part_a), make(part_b)]))
}

/// Pseudo-polynomial subset-sum: returns item ids whose weights sum into
/// `[lo, hi]`, or `None`. `O(n·hi)` time, `O(hi)` space — the textbook DP
/// whose existence makes the 2-reducer decision *weakly* NP-complete.
fn subset_sum_in_range(weights: &[Weight], lo: u128, hi: Weight) -> Option<Vec<InputId>> {
    let hi_usize = usize::try_from(hi).ok()?;
    // parent[s] = (item that reached sum s, previous sum); usize::MAX = unreached.
    let mut parent: Vec<(u32, usize)> = vec![(u32::MAX, usize::MAX); hi_usize + 1];
    parent[0] = (u32::MAX, 0);
    for (item, &w) in weights.iter().enumerate() {
        if w as u128 > hi as u128 {
            continue;
        }
        let w = w as usize;
        // Descend so each item is used at most once.
        for s in (w..=hi_usize).rev() {
            if parent[s].1 == usize::MAX && parent[s - w].1 != usize::MAX {
                // Guard against chains through the item itself: standard
                // 0/1 knapsack order makes s−w reachable without `item`.
                parent[s] = (item as u32, s - w);
            }
        }
    }
    let target = (0..=hi_usize)
        .rev()
        .find(|&s| parent[s].1 != usize::MAX && s as u128 >= lo)?;
    // Walk parents back to 0.
    let mut ids = Vec::new();
    let mut s = target;
    while s != 0 {
        let (item, prev) = parent[s];
        ids.push(item);
        s = prev;
    }
    ids.sort_unstable();
    Some(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2a_exact_on_trivial_instance_skips_search() {
        let inputs = InputSet::from_weights(vec![2, 2, 2]);
        let r = a2a_exact(&inputs, 10, 1000).unwrap();
        assert!(r.optimal);
        assert_eq!(r.stats.nodes, 0);
        assert_eq!(r.schema.reducer_count(), 1);
    }

    #[test]
    fn a2a_exact_beats_or_matches_heuristic() {
        let inputs = InputSet::from_weights(vec![4, 4, 3, 3, 2, 2]);
        let q = 9;
        let heuristic = a2a::solve(&inputs, q, a2a::A2aAlgorithm::Auto).unwrap();
        let exact = a2a_exact(&inputs, q, 5_000_000).unwrap();
        exact.schema.validate_a2a(&inputs, q).unwrap();
        assert!(exact.schema.reducer_count() <= heuristic.reducer_count());
        assert!(exact.schema.reducer_count() >= bounds::a2a_reducer_lb(&inputs, q));
    }

    #[test]
    fn a2a_exact_finds_known_optimum() {
        // Six unit inputs, q = 4: grouping gives C(3,2) = 3 reducers of two
        // groups of 2; the optimum is also 3 (15 pairs / C(4,2)=6 → ≥ 3).
        let inputs = InputSet::from_weights(vec![1; 6]);
        let exact = a2a_exact(&inputs, 4, 5_000_000).unwrap();
        assert!(exact.optimal);
        assert_eq!(exact.schema.reducer_count(), 3);
        exact.schema.validate_a2a(&inputs, 4).unwrap();
    }

    #[test]
    fn a2a_exact_respects_budget() {
        let inputs = InputSet::from_weights(vec![5, 4, 4, 3, 3, 2, 2, 1, 1]);
        let r = a2a_exact(&inputs, 10, 50).unwrap();
        // Whatever came back must be a valid schema.
        r.schema.validate_a2a(&inputs, 10).unwrap();
        assert!(r.stats.nodes <= 50);
    }

    #[test]
    fn a2a_exact_infeasible_propagates() {
        let inputs = InputSet::from_weights(vec![6, 6]);
        assert!(matches!(
            a2a_exact(&inputs, 10, 1000),
            Err(SchemaError::Infeasible { .. })
        ));
    }

    #[test]
    fn a2a_exact_matches_the_exact_solver_below_two_inputs() {
        // No pair is required, so there is nothing to search: the exact
        // solver returns the same trivial schema as every other path.
        for weights in [vec![], vec![5], vec![15]] {
            let inputs = InputSet::from_weights(weights.clone());
            let r = a2a_exact(&inputs, 10, 1000).unwrap();
            let via_solve = a2a::solve(
                &inputs,
                10,
                a2a::A2aAlgorithm::Exact(SearchBudget::nodes(1000)),
            )
            .unwrap();
            assert_eq!(r.schema, via_solve, "{weights:?}");
            assert!(r.optimal, "{weights:?}");
            assert_eq!(r.stats.nodes, 0, "{weights:?}");
        }
    }

    /// Alternating 5s and 8s; at q = 21 no heuristic meets the lower bound.
    fn alternating(n: usize) -> Vec<Weight> {
        (0..n as Weight).map(|i| 5 + (i * 3) % 6).collect()
    }

    #[test]
    fn the_search_runs_up_to_64_inputs_per_side() {
        // 64 A2A inputs fill mask word 0; 64 × 64 X2Y inputs fill both.
        let inputs = InputSet::from_weights(alternating(64));
        let r = a2a_exact(&inputs, 21, 2_000u64).unwrap();
        assert_eq!(r.stats.nodes, 2_000);
        assert!(r.stats.exhausted && !r.optimal);
        r.schema.validate_a2a(&inputs, 21).unwrap();

        let inst = X2yInstance::from_weights(alternating(64), alternating(64));
        let r = x2y_exact(&inst, 21, 2_000u64).unwrap();
        assert_eq!(r.stats.nodes, 2_000);
        assert!(r.stats.exhausted && !r.optimal);
        r.schema.validate(&inst, 21).unwrap();
    }

    #[test]
    fn a_side_beyond_64_inputs_skips_the_search() {
        let inputs = InputSet::from_weights(alternating(65));
        let r = a2a_exact(&inputs, 21, 2_000u64).unwrap();
        assert_eq!(r.stats, SearchStats::default());
        assert!(!r.optimal);
        r.schema.validate_a2a(&inputs, 21).unwrap();
        for (nx, ny) in [(65, 3), (3, 65)] {
            let inst = X2yInstance::from_weights(alternating(nx), alternating(ny));
            let r = x2y_exact(&inst, 21, 2_000u64).unwrap();
            assert_eq!(r.stats, SearchStats::default(), "{nx} × {ny}");
            assert!(!r.optimal);
            r.schema.validate(&inst, 21).unwrap();
        }
    }

    #[test]
    fn x2y_exact_small_grid_is_optimal() {
        let inst = X2yInstance::from_weights(vec![2, 2], vec![2, 2]);
        let r = x2y_exact(&inst, 4, 5_000_000).unwrap();
        assert!(r.optimal);
        r.schema.validate(&inst, 4).unwrap();
        // LB: 4·4·4/16 = 4; x-pairs can't share (2+2+2 > 4 allows x-pair +
        // one y... load 2+2=4 fits exactly two inputs → each reducer covers
        // one cross pair → need 4.
        assert_eq!(r.schema.reducer_count(), 4);
    }

    #[test]
    fn x2y_exact_beats_or_matches_heuristic() {
        let inst = X2yInstance::from_weights(vec![3, 2, 2], vec![3, 2]);
        let q = 7;
        let heuristic = x2y::solve(&inst, q, x2y::X2yAlgorithm::Auto).unwrap();
        let exact = x2y_exact(&inst, q, 5_000_000).unwrap();
        exact.schema.validate(&inst, q).unwrap();
        assert!(exact.schema.reducer_count() <= heuristic.reducer_count());
    }

    #[test]
    fn x2y_exact_uses_the_two_reducer_dp_as_a_shortcut() {
        // Splittable instance: the DP certifies z = 2 without any search.
        let inst = X2yInstance::from_weights(vec![3, 3, 3, 3], vec![2, 2]);
        let r = x2y_exact(&inst, 10, 5_000_000).unwrap();
        assert!(r.optimal);
        assert_eq!(r.schema.reducer_count(), 2);
        assert_eq!(r.stats.nodes, 0, "the DP should preempt the search");
        r.schema.validate(&inst, 10).unwrap();
    }

    #[test]
    fn a2a_two_reducer_theorem_holds() {
        // W ≤ q: feasible with ≤ 2 (indeed 1).
        assert!(a2a_two_reducer_feasible(
            &InputSet::from_weights(vec![3, 3, 3]),
            9
        ));
        // W > q: not feasible with 2 — cross-check with the exact solver,
        // whose optimum must then be ≥ 3 (or 1 is impossible).
        let inputs = InputSet::from_weights(vec![3, 3, 3, 3]);
        let q = 9;
        assert!(!a2a_two_reducer_feasible(&inputs, q));
        let exact = a2a_exact(&inputs, q, 5_000_000).unwrap();
        assert!(exact.optimal);
        assert!(exact.schema.reducer_count() >= 3);
    }

    #[test]
    fn x2y_two_reducers_splits_x() {
        // W_Y = 4, q = 10 → cap 6 for X parts; X = {4,4,4} → parts {4,4}
        // won't fit (8 > 6) — wait: subset {4} = 4 ≤ 6, rest 8 > 6: no.
        // Use X = {3,3,3,3}: subset sum 6 ∈ [12−6, 6] works.
        let inst = X2yInstance::from_weights(vec![3, 3, 3, 3], vec![2, 2]);
        let schema = x2y_two_reducers(&inst, 10).expect("split exists");
        assert_eq!(schema.reducer_count(), 2);
        schema.validate(&inst, 10).unwrap();
    }

    #[test]
    fn x2y_two_reducers_splits_y_when_x_cannot() {
        // X too heavy to replicate? Replicating X costs W_X = 9; q = 10
        // leaves 1 for Y parts; Y = {1, 1} splits as {1},{1}. But splitting
        // X with Y replicated (W_Y=2, cap 8): subset of {9}... X = {9}
        // cannot split (one part empty is allowed though! subset ∅ has sum
        // 0, rest 9 > 8). So only the Y-split works.
        let inst = X2yInstance::from_weights(vec![9], vec![1, 1]);
        let schema = x2y_two_reducers(&inst, 10).expect("y-split exists");
        schema.validate(&inst, 10).unwrap();
    }

    #[test]
    fn x2y_two_reducers_detects_impossible() {
        // W_X = W_Y = 8, q = 10: replicating either side leaves 2 for the
        // other side's parts, but each part would need ≥ 4.
        let inst = X2yInstance::from_weights(vec![4, 4], vec![4, 4]);
        assert!(x2y_two_reducers(&inst, 10).is_none());
    }

    #[test]
    fn x2y_two_reducers_matches_brute_force() {
        // Brute force over all 3^(nx+ny) assignments (R1/R2/both).
        fn brute(inst: &X2yInstance, q: Weight) -> bool {
            let n = inst.x.len() + inst.y.len();
            let mut assign = vec![0u8; n];
            loop {
                // Evaluate.
                let mut loads = [0u64; 2];
                let mut ok = true;
                for (i, &a) in assign.iter().enumerate() {
                    let w = if i < inst.x.len() {
                        inst.x.weight(i as InputId)
                    } else {
                        inst.y.weight((i - inst.x.len()) as InputId)
                    };
                    if a == 0 || a == 2 {
                        loads[0] += w;
                    }
                    if a == 1 || a == 2 {
                        loads[1] += w;
                    }
                }
                if loads[0] <= q && loads[1] <= q {
                    'cover: {
                        for x in 0..inst.x.len() {
                            for y in 0..inst.y.len() {
                                let ax = assign[x];
                                let ay = assign[inst.x.len() + y];
                                let share = (ax == 2 || ay == 2) || ax == ay;
                                if !share {
                                    ok = false;
                                    break 'cover;
                                }
                            }
                        }
                    }
                    if ok {
                        return true;
                    }
                }
                // Next assignment.
                let mut i = 0;
                loop {
                    if i == n {
                        return false;
                    }
                    assign[i] += 1;
                    if assign[i] < 3 {
                        break;
                    }
                    assign[i] = 0;
                    i += 1;
                }
            }
        }

        let cases = [
            (X2yInstance::from_weights(vec![3, 3, 3, 3], vec![2, 2]), 10),
            (X2yInstance::from_weights(vec![4, 4], vec![4, 4]), 10),
            (X2yInstance::from_weights(vec![5, 5, 2], vec![1]), 8),
            (X2yInstance::from_weights(vec![2, 2, 2], vec![2, 2, 2]), 8),
            (X2yInstance::from_weights(vec![7], vec![2, 1]), 10),
            (X2yInstance::from_weights(vec![1, 2, 3], vec![6]), 9),
        ];
        for (inst, q) in cases {
            let dp = x2y_two_reducers(&inst, q);
            let bf = brute(&inst, q);
            assert_eq!(
                dp.is_some(),
                bf,
                "DP vs brute force disagree on {inst:?} q={q}"
            );
            if let Some(schema) = dp {
                schema.validate(&inst, q).unwrap();
                assert!(schema.reducer_count() <= 2);
            }
        }
    }

    #[test]
    fn subset_sum_finds_witness_in_range() {
        let ids = subset_sum_in_range(&[3, 5, 7], 8, 9).unwrap();
        let sum: u64 = ids.iter().map(|&i| [3u64, 5, 7][i as usize]).sum();
        assert!((8..=9).contains(&sum));
    }

    #[test]
    fn subset_sum_empty_subset_allowed() {
        // lo = 0 admits the empty subset.
        let ids = subset_sum_in_range(&[5, 5], 0, 3).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn subset_sum_none_when_impossible() {
        assert!(subset_sum_in_range(&[10, 10], 1, 9).is_none());
    }
}
