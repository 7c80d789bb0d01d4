//! Mapping schemas and their independent validation.
//!
//! Every heuristic of the paper builds its schema the same way: it bundles
//! the inputs into *groups* (bins of weight at most `⌊q/2⌋`, or X-bins and
//! Y-bins) and gives each reducer one or two of them. The schema types
//! store exactly that: each group once, and per reducer the indices of the
//! groups it hosts. A reducer's members are its first group's ids followed
//! by its second's; [`MappingSchema::reducers`] and [`X2ySchema::reducers`]
//! lend them as views that copy nothing. What needs weights (loads,
//! communication, the planner's [`MappingSchema::reducer_sizes`]) sums each
//! group once, so a pairing schema of `C(k, 2)` reducers costs `k` group
//! sums rather than a pass over every copy. A schema built from explicit
//! member lists ([`MappingSchema::from_reducers`],
//! [`MappingSchema::push_reducer`]) gives each reducer a group of its own,
//! and two schemas are equal when their reducers' member lists are,
//! however those are grouped.
//!
//! A schema's value lies in the certificate: [`MappingSchema::validate_a2a`]
//! and [`X2ySchema::validate`] re-check the paper's two constraints
//! (capacity, pair coverage) from scratch over the member lists, so a
//! schema that validates is correct no matter which algorithm produced it.

use std::fmt;
use std::iter::{Chain, Copied};
use std::ops::Range;
use std::slice;

use crate::bitset::BitSet;
use crate::error::SchemaError;
use crate::input::{InputId, InputSet, Weight, X2yInstance};

/// Index of the unordered pair `(i, j)`, `i < j`, in row-major upper
/// triangular order over `m` inputs.
fn pair_index(i: usize, j: usize, m: usize) -> usize {
    debug_assert!(i < j && j < m);
    i * m - i * (i + 1) / 2 + (j - i - 1)
}

/// A reducer's `(load, copies)`: its members' summed weight, `None` once
/// the sum passes `u64::MAX`, and its member count.
pub type ReducerSize = (Option<Weight>, u64);

/// Each group's [`ReducerSize`], as if it were a reducer of its own.
fn group_sizes(groups: &[Vec<InputId>], inputs: &InputSet) -> Vec<ReducerSize> {
    groups
        .iter()
        .map(|group| {
            let load = group
                .iter()
                .try_fold(0, |load: Weight, &id| load.checked_add(inputs.weight(id)));
            (load, group.len() as u64)
        })
        .collect()
}

/// The size of a reducer hosting two groups of sizes `a` and `b`.
fn combine(a: ReducerSize, b: ReducerSize) -> ReducerSize {
    let load = a.0.zip(b.0).and_then(|(x, y)| x.checked_add(y));
    (load, a.1 + b.1)
}

/// Each group's summed weight.
fn group_loads(groups: &[Vec<InputId>], inputs: &InputSet) -> Vec<Weight> {
    groups
        .iter()
        .map(|group| group.iter().map(|&id| inputs.weight(id)).sum())
        .collect()
}

/// `Σ count·weight` over the groups' members: the total weight of every
/// copy when group `g` is hosted by `counts[g]` reducers.
fn hosted_weight(groups: &[Vec<InputId>], counts: &[u32], inputs: &InputSet) -> u128 {
    groups
        .iter()
        .zip(counts)
        .map(|(group, &count)| {
            let weight: u128 = group.iter().map(|&id| inputs.weight(id) as u128).sum();
            weight * u128::from(count)
        })
        .sum()
}

/// Adds `counts[g]` to the replication of every member of group `g`,
/// skipping ids at or above `rep.len()`.
fn replicate(groups: &[Vec<InputId>], counts: &[u32], rep: &mut [u32]) {
    for (group, &count) in groups.iter().zip(counts) {
        for &id in group {
            if let Some(r) = rep.get_mut(id as usize) {
                *r += count;
            }
        }
    }
}

/// The members of an [`A2aReducer`], first group first.
pub type Members<'a> = Copied<Chain<slice::Iter<'a, InputId>, slice::Iter<'a, InputId>>>;

/// One A2A reducer, lent by [`MappingSchema::reducers`]: the ids of the
/// first group it hosts, then those of the second, if any. Two reducers
/// are equal when their member lists are.
#[derive(Clone, Copy)]
pub struct A2aReducer<'a> {
    first: &'a [InputId],
    second: &'a [InputId],
}

impl<'a> A2aReducer<'a> {
    /// The member ids in order.
    pub fn iter(&self) -> Members<'a> {
        self.first.iter().chain(self.second).copied()
    }

    /// Number of members: the copies routed to this reducer.
    pub fn len(&self) -> usize {
        self.first.len() + self.second.len()
    }

    /// Whether the reducer has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether input `id` is a member.
    pub fn contains(&self, id: InputId) -> bool {
        self.first.contains(&id) || self.second.contains(&id)
    }

    /// The member ids as a list of their own.
    pub fn to_vec(&self) -> Vec<InputId> {
        [self.first, self.second].concat()
    }
}

impl<'a> IntoIterator for A2aReducer<'a> {
    type Item = InputId;
    type IntoIter = Members<'a>;

    fn into_iter(self) -> Members<'a> {
        self.iter()
    }
}

impl PartialEq for A2aReducer<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for A2aReducer<'_> {}

impl fmt::Debug for A2aReducer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An A2A mapping schema: input groups, and per reducer the one or two
/// groups it hosts. Every group is hosted by at least one reducer.
#[derive(Debug, Clone, Default)]
pub struct MappingSchema {
    groups: Vec<Vec<InputId>>,
    /// Per reducer, its first group and its second, if any, as indices
    /// into `groups`.
    hosts: Vec<(usize, Option<usize>)>,
}

impl MappingSchema {
    /// Creates an empty schema (valid for instances with fewer than two
    /// inputs, which have no pairs to cover).
    pub fn new() -> Self {
        MappingSchema::default()
    }

    /// Wraps explicit reducer membership lists, one group per reducer.
    pub fn from_reducers(reducers: Vec<Vec<InputId>>) -> Self {
        let hosts = (0..reducers.len()).map(|g| (g, None)).collect();
        MappingSchema {
            groups: reducers,
            hosts,
        }
    }

    /// Adds a reducer holding `inputs`, as a group of its own.
    pub fn push_reducer(&mut self, inputs: Vec<InputId>) {
        let group = self.add_groups([inputs]).start;
        self.hosts.push((group, None));
    }

    /// Adds `groups`, which the caller must then host, and returns their
    /// index range.
    pub(crate) fn add_groups(
        &mut self,
        groups: impl IntoIterator<Item = Vec<InputId>>,
    ) -> Range<usize> {
        let start = self.groups.len();
        self.groups.extend(groups);
        start..self.groups.len()
    }

    /// Adds one reducer per group `g` of `groups`, hosting `first`, then `g`.
    pub(crate) fn host_with(&mut self, first: usize, groups: Range<usize>) {
        self.hosts.extend(groups.map(|g| (first, Some(g))));
    }

    /// Adds one reducer per unordered pair of `groups` in lexicographic
    /// order, or a single reducer for a lone group.
    pub(crate) fn host_pairs(&mut self, groups: Range<usize>) {
        let k = groups.len();
        if k == 1 {
            self.hosts.push((groups.start, None));
        }
        self.hosts.reserve(k * k.saturating_sub(1) / 2);
        for a in groups.clone() {
            self.hosts.extend((a + 1..groups.end).map(|b| (a, Some(b))));
        }
    }

    /// Moves `other`'s groups and reducers in after this schema's, mapping
    /// each of its ids through `id_of`.
    pub(crate) fn append(&mut self, other: MappingSchema, id_of: impl Fn(InputId) -> InputId) {
        let offset = self.groups.len();
        for mut group in other.groups {
            for id in &mut group {
                *id = id_of(*id);
            }
            self.groups.push(group);
        }
        let hosts = other.hosts.into_iter();
        self.hosts
            .extend(hosts.map(|(a, b)| (a + offset, b.map(|b| b + offset))));
    }

    /// Number of reducers `z`.
    pub fn reducer_count(&self) -> usize {
        self.hosts.len()
    }

    /// The input groups. A heuristic's groups are its bins in packing
    /// order (the big input of [`crate::a2a::big_small`] is a group of its
    /// own); a schema built from member lists has one group per reducer.
    pub fn groups(&self) -> &[Vec<InputId>] {
        &self.groups
    }

    /// The reducers in order, each a view of its members.
    pub fn reducers(&self) -> impl ExactSizeIterator<Item = A2aReducer<'_>> + '_ {
        self.hosts.iter().map(|&(a, b)| A2aReducer {
            first: &self.groups[a],
            second: b.map_or(&[], |b| &self.groups[b]),
        })
    }

    /// Each reducer's `(load, copies)`, in order, from one sum per group:
    /// what the engine's cost model needs to time the schema's job.
    pub fn reducer_sizes(
        &self,
        inputs: &InputSet,
    ) -> impl ExactSizeIterator<Item = ReducerSize> + '_ {
        let sizes = group_sizes(&self.groups, inputs);
        self.hosts.iter().map(move |&(a, b)| match b {
            None => sizes[a],
            Some(b) => combine(sizes[a], sizes[b]),
        })
    }

    /// How many reducers host each group.
    fn hosted_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.groups.len()];
        for &(a, b) in &self.hosts {
            counts[a] += 1;
            if let Some(b) = b {
                counts[b] += 1;
            }
        }
        counts
    }

    /// Per-reducer summed weights.
    pub fn loads(&self, inputs: &InputSet) -> Vec<Weight> {
        let loads = group_loads(&self.groups, inputs);
        self.hosts
            .iter()
            .map(|&(a, b)| loads[a] + b.map_or(0, |b| loads[b]))
            .collect()
    }

    /// Communication cost of executing this schema: every copy of every
    /// input is one transfer, so the cost is the sum of all reducer loads
    /// (in weight units).
    pub fn communication_cost(&self, inputs: &InputSet) -> u128 {
        hosted_weight(&self.groups, &self.hosted_counts(), inputs)
    }

    /// Number of reducers each input is replicated to.
    pub fn replication(&self, n_inputs: usize) -> Vec<u32> {
        let mut rep = vec![0u32; n_inputs];
        replicate(&self.groups, &self.hosted_counts(), &mut rep);
        rep
    }

    /// Compiles the schema into `(input, reducer targets)` routes for the
    /// simulated engine's `TableRouter`.
    pub fn to_routes(&self) -> Vec<(InputId, Vec<usize>)> {
        let max_id = self
            .reducers()
            .flatten()
            .map(|id| id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut routes: Vec<(InputId, Vec<usize>)> =
            (0..max_id).map(|id| (id as InputId, Vec::new())).collect();
        for (rid, r) in self.reducers().enumerate() {
            for id in r {
                routes[id as usize].1.push(rid);
            }
        }
        routes
    }

    /// Verifies this schema solves the A2A problem for `inputs` under
    /// capacity `q`: ids in range, no duplicates inside a reducer, all
    /// loads ≤ `q`, and every unordered pair of inputs co-resident
    /// somewhere. Returns the first violation.
    pub fn validate_a2a(&self, inputs: &InputSet, q: Weight) -> Result<(), SchemaError> {
        if q == 0 {
            return Err(SchemaError::ZeroCapacity);
        }
        let m = inputs.len();
        let mut covered = BitSet::new(if m >= 2 { m * (m - 1) / 2 } else { 0 });
        let mut seen_in_reducer = vec![usize::MAX; m];
        let mut members = Vec::new();

        for (rid, r) in self.reducers().enumerate() {
            let mut load: Weight = 0;
            for id in r {
                let idx = id as usize;
                if idx >= m {
                    return Err(SchemaError::UnknownInput { id });
                }
                if seen_in_reducer[idx] == rid {
                    return Err(SchemaError::DuplicateInput { reducer: rid, id });
                }
                seen_in_reducer[idx] = rid;
                load = load.saturating_add(inputs.weight(id));
            }
            if load > q {
                return Err(SchemaError::CapacityExceeded {
                    reducer: rid,
                    load,
                    capacity: q,
                });
            }
            members.clear();
            members.extend(r);
            for (a_pos, &a) in members.iter().enumerate() {
                for &b in &members[a_pos + 1..] {
                    let (i, j) = if a < b { (a, b) } else { (b, a) };
                    covered.insert(pair_index(i as usize, j as usize, m));
                }
            }
        }

        if let Some(missing) = covered.first_unset() {
            // Invert the triangular index to name the uncovered pair.
            let (mut i, mut rem) = (0usize, missing);
            loop {
                let row = m - i - 1;
                if rem < row {
                    break;
                }
                rem -= row;
                i += 1;
            }
            let j = i + 1 + rem;
            return Err(SchemaError::UncoveredPair {
                a: i as InputId,
                b: j as InputId,
            });
        }
        debug_assert_eq!(covered.count(), covered.len());
        Ok(())
    }
}

/// Schemas are equal when their reducers' member lists are, in order,
/// however those are grouped.
impl PartialEq for MappingSchema {
    fn eq(&self, other: &Self) -> bool {
        self.reducers().eq(other.reducers())
    }
}

impl Eq for MappingSchema {}

/// One X2Y reducer, lent by [`X2ySchema::reducers`]: the X group and the
/// Y group it hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct X2yReducer<'a> {
    /// Ids into the instance's X set.
    pub x: &'a [InputId],
    /// Ids into the instance's Y set.
    pub y: &'a [InputId],
}

/// An X2Y mapping schema: X groups, Y groups, and per reducer the one X
/// group and one Y group it hosts. Every group is hosted by at least one
/// reducer.
#[derive(Debug, Clone, Default)]
pub struct X2ySchema {
    x_groups: Vec<Vec<InputId>>,
    y_groups: Vec<Vec<InputId>>,
    /// Per reducer, its X group and its Y group, as indices into
    /// `x_groups` and `y_groups`.
    hosts: Vec<(usize, usize)>,
}

impl X2ySchema {
    /// Creates an empty schema (valid when either side is empty).
    pub fn new() -> Self {
        X2ySchema::default()
    }

    /// Wraps explicit `(X members, Y members)` reducers, each hosting an X
    /// group and a Y group of its own.
    pub fn from_reducers(reducers: Vec<(Vec<InputId>, Vec<InputId>)>) -> Self {
        let hosts = (0..reducers.len()).map(|g| (g, g)).collect();
        let (x_groups, y_groups) = reducers.into_iter().unzip();
        X2ySchema {
            x_groups,
            y_groups,
            hosts,
        }
    }

    /// Adds a reducer holding X inputs `x` and Y inputs `y`, as groups of
    /// its own.
    pub fn push_reducer(&mut self, x: Vec<InputId>, y: Vec<InputId>) {
        let gx = self.add_x_groups([x]).start;
        let gy = self.add_y_groups([y]).start;
        self.hosts.push((gx, gy));
    }

    /// Adds X groups, which the caller must then host, and returns their
    /// index range.
    pub(crate) fn add_x_groups(
        &mut self,
        groups: impl IntoIterator<Item = Vec<InputId>>,
    ) -> Range<usize> {
        let start = self.x_groups.len();
        self.x_groups.extend(groups);
        start..self.x_groups.len()
    }

    /// Adds Y groups, which the caller must then host, and returns their
    /// index range.
    pub(crate) fn add_y_groups(
        &mut self,
        groups: impl IntoIterator<Item = Vec<InputId>>,
    ) -> Range<usize> {
        let start = self.y_groups.len();
        self.y_groups.extend(groups);
        start..self.y_groups.len()
    }

    /// Adds one reducer per (X group, Y group) of `xs × ys`, X major.
    pub(crate) fn host_grid(&mut self, xs: Range<usize>, ys: Range<usize>) {
        self.hosts.reserve(xs.len() * ys.len());
        for gx in xs {
            self.hosts.extend(ys.clone().map(|gy| (gx, gy)));
        }
    }

    /// Moves `other`'s groups and reducers in after this schema's, mapping
    /// each of its X ids through `x_id_of`.
    pub(crate) fn append(&mut self, other: X2ySchema, x_id_of: impl Fn(InputId) -> InputId) {
        let (x_offset, y_offset) = (self.x_groups.len(), self.y_groups.len());
        for mut group in other.x_groups {
            for id in &mut group {
                *id = x_id_of(*id);
            }
            self.x_groups.push(group);
        }
        self.y_groups.extend(other.y_groups);
        let hosts = other.hosts.into_iter();
        self.hosts
            .extend(hosts.map(|(gx, gy)| (gx + x_offset, gy + y_offset)));
    }

    /// The schema of the instance with its sides swapped.
    pub(crate) fn mirrored(self) -> X2ySchema {
        X2ySchema {
            x_groups: self.y_groups,
            y_groups: self.x_groups,
            hosts: self.hosts.into_iter().map(|(gx, gy)| (gy, gx)).collect(),
        }
    }

    /// Number of reducers `z`.
    pub fn reducer_count(&self) -> usize {
        self.hosts.len()
    }

    /// The X groups: a heuristic's X bins in packing order.
    pub fn x_groups(&self) -> &[Vec<InputId>] {
        &self.x_groups
    }

    /// The Y groups: a heuristic's Y bins in packing order.
    pub fn y_groups(&self) -> &[Vec<InputId>] {
        &self.y_groups
    }

    /// The reducers in order, each a view of its two groups.
    pub fn reducers(&self) -> impl ExactSizeIterator<Item = X2yReducer<'_>> + '_ {
        self.hosts.iter().map(|&(gx, gy)| X2yReducer {
            x: &self.x_groups[gx],
            y: &self.y_groups[gy],
        })
    }

    /// Each reducer's `(load, copies)`, in order, X side then Y side, from
    /// one sum per group; see [`MappingSchema::reducer_sizes`].
    pub fn reducer_sizes(
        &self,
        inst: &X2yInstance,
    ) -> impl ExactSizeIterator<Item = ReducerSize> + '_ {
        let xs = group_sizes(&self.x_groups, &inst.x);
        let ys = group_sizes(&self.y_groups, &inst.y);
        self.hosts
            .iter()
            .map(move |&(gx, gy)| combine(xs[gx], ys[gy]))
    }

    /// How many reducers host each X group and each Y group.
    fn hosted_counts(&self) -> (Vec<u32>, Vec<u32>) {
        let mut counts = (
            vec![0u32; self.x_groups.len()],
            vec![0u32; self.y_groups.len()],
        );
        for &(gx, gy) in &self.hosts {
            counts.0[gx] += 1;
            counts.1[gy] += 1;
        }
        counts
    }

    /// Per-reducer summed weights (X side + Y side).
    pub fn loads(&self, inst: &X2yInstance) -> Vec<Weight> {
        let xs = group_loads(&self.x_groups, &inst.x);
        let ys = group_loads(&self.y_groups, &inst.y);
        self.hosts.iter().map(|&(gx, gy)| xs[gx] + ys[gy]).collect()
    }

    /// Communication cost: total weight of all input copies.
    pub fn communication_cost(&self, inst: &X2yInstance) -> u128 {
        let (cx, cy) = self.hosted_counts();
        hosted_weight(&self.x_groups, &cx, &inst.x) + hosted_weight(&self.y_groups, &cy, &inst.y)
    }

    /// Replication counts for the X side and Y side.
    pub fn replication(&self, inst: &X2yInstance) -> (Vec<u32>, Vec<u32>) {
        let (cx, cy) = self.hosted_counts();
        let mut rx = vec![0u32; inst.x.len()];
        let mut ry = vec![0u32; inst.y.len()];
        replicate(&self.x_groups, &cx, &mut rx);
        replicate(&self.y_groups, &cy, &mut ry);
        (rx, ry)
    }

    /// Whether every cross pair is covered by **exactly one** reducer.
    ///
    /// Validity only requires *at least* one common reducer, but
    /// exactly-once coverage is what lets a join emit each output without
    /// deduplication. All constructions in [`crate::x2y`] have this
    /// property (each input lands in one bin per grid dimension); the skew
    /// join asserts it when compiling schemas to routes.
    pub fn covers_exactly_once(&self, inst: &X2yInstance) -> bool {
        let ny = inst.y.len();
        let mut counts = vec![0u32; inst.x.len() * ny];
        for r in self.reducers() {
            for &x in r.x {
                for &y in r.y {
                    let idx = x as usize * ny + y as usize;
                    if idx >= counts.len() {
                        return false;
                    }
                    counts[idx] += 1;
                }
            }
        }
        counts.iter().all(|&c| c == 1)
    }

    /// Verifies this schema solves the X2Y problem for `inst` under
    /// capacity `q`. Checks ids, duplicates, loads, and coverage of every
    /// cross pair `(x, y)`.
    pub fn validate(&self, inst: &X2yInstance, q: Weight) -> Result<(), SchemaError> {
        if q == 0 {
            return Err(SchemaError::ZeroCapacity);
        }
        let (nx, ny) = (inst.x.len(), inst.y.len());
        let mut covered = BitSet::new(nx * ny);
        // The last reducer each input was seen in, one slot per input per
        // side, as in `validate_a2a`.
        let mut seen_x = vec![usize::MAX; nx];
        let mut seen_y = vec![usize::MAX; ny];

        for (rid, r) in self.reducers().enumerate() {
            let mut load: Weight = 0;
            for (ids, side, seen) in [(r.x, &inst.x, &mut seen_x), (r.y, &inst.y, &mut seen_y)] {
                for &id in ids {
                    let idx = id as usize;
                    if idx >= seen.len() {
                        return Err(SchemaError::UnknownInput { id });
                    }
                    if seen[idx] == rid {
                        return Err(SchemaError::DuplicateInput { reducer: rid, id });
                    }
                    seen[idx] = rid;
                    load = load.saturating_add(side.weight(id));
                }
            }
            if load > q {
                return Err(SchemaError::CapacityExceeded {
                    reducer: rid,
                    load,
                    capacity: q,
                });
            }
            for &x in r.x {
                for &y in r.y {
                    covered.insert(x as usize * ny + y as usize);
                }
            }
        }

        if let Some(missing) = covered.first_unset() {
            return Err(SchemaError::UncoveredPair {
                a: (missing / ny) as InputId,
                b: (missing % ny) as InputId,
            });
        }
        Ok(())
    }
}

/// Schemas are equal when their reducers' member lists are, in order,
/// however those are grouped.
impl PartialEq for X2ySchema {
    fn eq(&self, other: &Self) -> bool {
        self.reducers().eq(other.reducers())
    }
}

impl Eq for X2ySchema {}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_inputs() -> InputSet {
        InputSet::from_weights(vec![3, 4, 5, 6])
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let m = 7;
        let mut seen = vec![false; m * (m - 1) / 2];
        for i in 0..m {
            for j in i + 1..m {
                let idx = pair_index(i, j, m);
                assert!(!seen[idx], "collision at ({i},{j})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn valid_a2a_schema_passes() {
        // One reducer with everything: capacity 18 = total weight.
        let schema = MappingSchema::from_reducers(vec![vec![0, 1, 2, 3]]);
        schema.validate_a2a(&four_inputs(), 18).unwrap();
    }

    #[test]
    fn uncovered_pair_is_reported() {
        let schema = MappingSchema::from_reducers(vec![
            vec![0, 1],
            vec![2, 3],
            vec![0, 2],
            vec![1, 3],
            vec![0, 3],
        ]);
        // Missing pair: (1, 2).
        assert_eq!(
            schema.validate_a2a(&four_inputs(), 18),
            Err(SchemaError::UncoveredPair { a: 1, b: 2 })
        );
    }

    #[test]
    fn overloaded_reducer_is_reported() {
        let schema = MappingSchema::from_reducers(vec![vec![0, 1, 2, 3]]);
        assert_eq!(
            schema.validate_a2a(&four_inputs(), 17),
            Err(SchemaError::CapacityExceeded {
                reducer: 0,
                load: 18,
                capacity: 17
            })
        );
    }

    #[test]
    fn unknown_and_duplicate_inputs_rejected() {
        let unknown = MappingSchema::from_reducers(vec![vec![0, 9]]);
        assert_eq!(
            unknown.validate_a2a(&four_inputs(), 100),
            Err(SchemaError::UnknownInput { id: 9 })
        );
        let dup = MappingSchema::from_reducers(vec![vec![0, 0]]);
        assert_eq!(
            dup.validate_a2a(&four_inputs(), 100),
            Err(SchemaError::DuplicateInput { reducer: 0, id: 0 })
        );
    }

    #[test]
    fn empty_schema_valid_for_tiny_instances() {
        let schema = MappingSchema::new();
        schema
            .validate_a2a(&InputSet::from_weights(vec![]), 10)
            .unwrap();
        schema
            .validate_a2a(&InputSet::from_weights(vec![5]), 10)
            .unwrap();
        assert_eq!(
            schema.validate_a2a(&InputSet::from_weights(vec![5, 5]), 10),
            Err(SchemaError::UncoveredPair { a: 0, b: 1 })
        );
    }

    #[test]
    fn zero_capacity_rejected() {
        let schema = MappingSchema::new();
        assert_eq!(
            schema.validate_a2a(&InputSet::from_weights(vec![]), 0),
            Err(SchemaError::ZeroCapacity)
        );
    }

    #[test]
    fn communication_and_replication_accounting() {
        let inputs = four_inputs();
        let schema = MappingSchema::from_reducers(vec![
            vec![0, 1],
            vec![2, 3],
            vec![0, 2],
            vec![1, 3],
            vec![0, 3],
            vec![1, 2],
        ]);
        schema.validate_a2a(&inputs, 18).unwrap();
        // Every input appears 3 times.
        assert_eq!(schema.replication(4), vec![3, 3, 3, 3]);
        assert_eq!(schema.communication_cost(&inputs), 3 * 18);
        let loads = schema.loads(&inputs);
        assert_eq!(loads, vec![7, 11, 8, 10, 9, 9]);
    }

    #[test]
    fn routes_compile_per_input() {
        let schema = MappingSchema::from_reducers(vec![vec![0, 2], vec![1, 2]]);
        let routes = schema.to_routes();
        assert_eq!(routes[0], (0, vec![0]));
        assert_eq!(routes[1], (1, vec![1]));
        assert_eq!(routes[2], (2, vec![0, 1]));
    }

    fn small_x2y() -> X2yInstance {
        X2yInstance::from_weights(vec![2, 3], vec![4, 5])
    }

    #[test]
    fn valid_x2y_schema_passes() {
        let schema = X2ySchema::from_reducers(vec![(vec![0, 1], vec![0, 1])]);
        schema.validate(&small_x2y(), 14).unwrap();
    }

    #[test]
    fn x2y_uncovered_cross_pair_reported() {
        let schema = X2ySchema::from_reducers(vec![(vec![0], vec![0, 1]), (vec![1], vec![0])]);
        assert_eq!(
            schema.validate(&small_x2y(), 14),
            Err(SchemaError::UncoveredPair { a: 1, b: 1 })
        );
    }

    #[test]
    fn x2y_same_side_pairs_not_required() {
        // x0 and x1 never meet — that is fine for X2Y.
        let schema = X2ySchema::from_reducers(vec![(vec![0], vec![0, 1]), (vec![1], vec![0, 1])]);
        schema.validate(&small_x2y(), 14).unwrap();
    }

    #[test]
    fn x2y_capacity_counts_both_sides() {
        let schema = X2ySchema::from_reducers(vec![(vec![0, 1], vec![0, 1])]);
        assert_eq!(
            schema.validate(&small_x2y(), 13),
            Err(SchemaError::CapacityExceeded {
                reducer: 0,
                load: 14,
                capacity: 13
            })
        );
    }

    /// An id out of range or repeated within one reducer is rejected on
    /// either side; the same id on both sides, or in two reducers, is not
    /// a duplicate.
    #[test]
    fn x2y_unknown_and_duplicate_inputs_rejected() {
        let inst = small_x2y();
        for (reducers, err) in [
            (
                vec![(vec![0, 2], vec![0, 1])],
                SchemaError::UnknownInput { id: 2 },
            ),
            (
                vec![(vec![0, 1], vec![0, 7])],
                SchemaError::UnknownInput { id: 7 },
            ),
            (
                vec![(vec![1, 1], vec![0])],
                SchemaError::DuplicateInput { reducer: 0, id: 1 },
            ),
            (
                vec![(vec![0, 1], vec![0]), (vec![0, 1], vec![1, 1])],
                SchemaError::DuplicateInput { reducer: 1, id: 1 },
            ),
        ] {
            let schema = X2ySchema::from_reducers(reducers);
            assert_eq!(schema.validate(&inst, 14), Err(err));
        }
        let repeats =
            X2ySchema::from_reducers(vec![(vec![0], vec![0, 1]), (vec![1, 0], vec![0, 1])]);
        repeats.validate(&inst, 14).unwrap();
    }

    #[test]
    fn x2y_empty_side_is_trivially_valid() {
        let inst = X2yInstance::from_weights(vec![], vec![1, 2]);
        X2ySchema::new().validate(&inst, 10).unwrap();
    }

    #[test]
    fn exactly_once_detection() {
        let inst = small_x2y();
        let once = X2ySchema::from_reducers(vec![(vec![0], vec![0, 1]), (vec![1], vec![0, 1])]);
        assert!(once.covers_exactly_once(&inst));
        // Pair (0, 0) covered twice.
        let twice = X2ySchema::from_reducers(vec![(vec![0, 1], vec![0, 1]), (vec![0], vec![0])]);
        assert!(!twice.covers_exactly_once(&inst));
        // Missing pair.
        let missing = X2ySchema::from_reducers(vec![(vec![0], vec![0, 1])]);
        assert!(!missing.covers_exactly_once(&inst));
    }

    #[test]
    fn x2y_replication_and_cost() {
        let inst = small_x2y();
        let schema = X2ySchema::from_reducers(vec![(vec![0], vec![0, 1]), (vec![1], vec![0, 1])]);
        let (rx, ry) = schema.replication(&inst);
        assert_eq!(rx, vec![1, 1]);
        assert_eq!(ry, vec![2, 2]);
        assert_eq!(schema.communication_cost(&inst), 2 + 3 + 2 * 9);
        assert_eq!(schema.loads(&inst), vec![11, 12]);
    }
}
