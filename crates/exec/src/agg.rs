//! Hash aggregation with mergeable partial states.
//!
//! Distributed group-by (paper §4: "efficient distributed aggregations")
//! runs the same machinery twice: every participating node folds its
//! local rows into [`AggState`]s, ships the *states* to the
//! coordinator, and the coordinator merges. Co-segmented group-bys
//! would allow skipping the merge; we always merge because states are
//! tiny and it is unconditionally correct.
//!
//! The local fold is a running [`Aggregator`] that takes a scan's
//! pieces in order, column-at-a-time (DESIGN.md "Aggregation: group
//! ids, then one typed loop per aggregate"): per piece, one pass
//! numbers every row's group, then each aggregate is one loop over its
//! input column and those ids (`SUM` and `AVG` over one input sharing
//! one loop, each distinct input evaluated once).

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use eon_columnar::{hash_rows, Batch, Column, Data};
use eon_types::{
    hash_cells_finish, hash_cells_step, hash_value, EonError, Result, Value, ValueRef,
    HASH_CELLS_SEED,
};

use crate::expr::Expr;
use crate::ops::HashChains;
use crate::plan::{AggFunc, AggSpec};

/// A mergeable partial aggregate. Serializable so nodes can ship states
/// to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Sum { acc: Value },
    Count { n: i64 },
    Avg { sum: Value, n: i64 },
    Min { acc: Value },
    Max { acc: Value },
    /// Distinct values seen (BTreeSet: deterministic iteration, and
    /// `Value` is `Ord`).
    Distinct { seen: BTreeSet<Value> },
}

/// `acc + v`. Only numbers reach a sum ([`numeric`]), so both sides
/// have a float view.
fn add_values(acc: &Value, v: ValueRef<'_>) -> Value {
    match (acc, v) {
        (Value::Null, x) => x.to_value(),
        (x, ValueRef::Null) => x.clone(),
        (Value::Int(a), ValueRef::Int(b)) => Value::Int(a.wrapping_add(b)),
        (a, b) => Value::Float(a.as_float().unwrap_or(0.0) + b.as_float().unwrap_or(0.0)),
    }
}

/// A `SUM` / `AVG` input cell, which must be a number: a string, a
/// boolean or a date is a typed error, not a silent `0.0`.
fn numeric<'a>(func: &str, v: ValueRef<'a>) -> Result<ValueRef<'a>> {
    match v {
        ValueRef::Int(_) | ValueRef::Float(_) => Ok(v),
        v => Err(EonError::Query(format!("{func} over non-numeric value {}", v.to_value()))),
    }
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum { acc: Value::Null },
            AggFunc::Count | AggFunc::CountStar => AggState::Count { n: 0 },
            AggFunc::Avg => AggState::Avg {
                sum: Value::Null,
                n: 0,
            },
            AggFunc::Min => AggState::Min { acc: Value::Null },
            AggFunc::Max => AggState::Max { acc: Value::Null },
            AggFunc::CountDistinct => AggState::Distinct {
                seen: BTreeSet::new(),
            },
        }
    }

    /// Fold one input cell (already evaluated from the agg's expr): the
    /// per-cell arm of [`Aggregator::fold`]. SQL semantics: NULL inputs
    /// are ignored by every aggregate (COUNT(*) never gets here).
    fn update(&mut self, v: ValueRef<'_>) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count { n } => *n += 1,
            AggState::Sum { acc } => *acc = add_values(acc, numeric("SUM", v)?),
            AggState::Avg { sum, n } => {
                *sum = add_values(sum, numeric("AVG", v)?);
                *n += 1;
            }
            AggState::Min { acc } => {
                if acc.is_null() || v < acc.as_ref() {
                    *acc = v.to_value();
                }
            }
            AggState::Max { acc } => {
                if acc.is_null() || v > acc.as_ref() {
                    *acc = v.to_value();
                }
            }
            AggState::Distinct { seen } => {
                seen.insert(v.to_value());
            }
        }
        Ok(())
    }

    /// Merge another partial state of the same shape into this one.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count { n }, AggState::Count { n: m }) => *n += m,
            (AggState::Sum { acc }, AggState::Sum { acc: b }) => *acc = add_values(acc, b.as_ref()),
            (AggState::Avg { sum, n }, AggState::Avg { sum: s2, n: m }) => {
                *sum = add_values(sum, s2.as_ref());
                *n += m;
            }
            (AggState::Min { acc }, AggState::Min { acc: b }) => {
                if !b.is_null() && (acc.is_null() || b < acc) {
                    *acc = b.clone();
                }
            }
            (AggState::Max { acc }, AggState::Max { acc: b }) => {
                if !b.is_null() && (acc.is_null() || b > acc) {
                    *acc = b.clone();
                }
            }
            (AggState::Distinct { seen }, AggState::Distinct { seen: s2 }) => {
                seen.extend(s2.iter().cloned());
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    /// Produce the final SQL value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Sum { acc } => acc.clone(),
            AggState::Count { n } => Value::Int(*n),
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.as_float().unwrap_or(0.0) / *n as f64)
                }
            }
            AggState::Min { acc } | AggState::Max { acc } => acc.clone(),
            AggState::Distinct { seen } => Value::Int(seen.len() as i64),
        }
    }
}

/// One group's partial result: key columns + per-agg states.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialGroup {
    pub key: Vec<Value>,
    pub states: Vec<AggState>,
}

/// Partial aggregates: one group per distinct key, sorted by key.
pub type Partials = Vec<PartialGroup>;

/// Fold one batch into partial aggregates: an [`Aggregator`] over that
/// one piece.
pub fn aggregate_partial(batch: &Batch, group_by: &[usize], aggs: &[AggSpec]) -> Result<Partials> {
    Aggregator::over(group_by, aggs, std::slice::from_ref(batch))
}

/// A running aggregate: one group table and typed per-group states that
/// pieces fold into in scan order, a column at a time.
///
/// Per piece, `group_ids` gives every row its group; then each running
/// state is one loop over its input column and those ids
/// (`Running::fold`). Each distinct input expression is evaluated once
/// per piece, and `SUM` and `AVG` over one input share one state: their
/// adds are the same adds. Pieces are visited in order, and rows in
/// order within a piece, so every group adds its floats in the order a
/// fold over the pieces' concatenation would, and a Float sum is
/// bit-exact however the rows were cut.
pub struct Aggregator<'a> {
    group_by: &'a [usize],
    aggs: &'a [AggSpec],
    /// Group `g`'s key is cell `g` of these columns, one per key column.
    keys: Vec<Column>,
    /// Groups by key hash ([`hash_rows`]'s hash, however a piece
    /// represents its keys).
    table: HashChains,
    groups: usize,
    /// The aggregates' distinct input expressions (`COUNT(*)` has none).
    inputs: Vec<&'a Expr>,
    /// The running states, each with the function it folds by and its
    /// input, in order of the first aggregate that uses it.
    states: Vec<(AggFunc, Option<usize>, Running)>,
    /// Aggregate `k`'s state in `states`.
    state_of: Vec<usize>,
}

impl<'a> Aggregator<'a> {
    pub fn new(group_by: &'a [usize], aggs: &'a [AggSpec]) -> Aggregator<'a> {
        // SQL: a global aggregate (no GROUP BY) has its one group even
        // over zero rows (COUNT = 0, SUM = NULL, …).
        let groups = usize::from(group_by.is_empty());
        let mut inputs: Vec<&Expr> = Vec::new();
        let mut states: Vec<(AggFunc, Option<usize>, Running)> = Vec::new();
        let state_of = (aggs.iter())
            .map(|a| {
                let input = (a.func != AggFunc::CountStar).then(|| {
                    inputs.iter().position(|e| e.same_as(&a.expr)).unwrap_or_else(|| {
                        inputs.push(&a.expr);
                        inputs.len() - 1
                    })
                });
                let sums = |f: AggFunc| matches!(f, AggFunc::Sum | AggFunc::Avg);
                let shared = |(f, i, _): &(AggFunc, Option<usize>, Running)| {
                    sums(*f) && sums(a.func) && *i == input
                };
                states.iter().position(shared).unwrap_or_else(|| {
                    states.push((a.func, input, Running::new(a.func, groups)));
                    states.len() - 1
                })
            })
            .collect();
        Aggregator {
            group_by,
            aggs,
            keys: group_by.iter().map(|_| Column::nulls(0)).collect(),
            table: HashChains::new(0),
            groups,
            inputs,
            states,
            state_of,
        }
    }

    /// The partials of `pieces` folded in order.
    pub fn over(group_by: &[usize], aggs: &[AggSpec], pieces: &[Batch]) -> Result<Partials> {
        let mut agg = Aggregator::new(group_by, aggs);
        pieces.iter().try_for_each(|piece| agg.fold(piece))?;
        Ok(agg.finish())
    }

    /// Fold the next piece's rows, in order: each input evaluated when a
    /// state first needs it, each state folded once.
    pub fn fold(&mut self, piece: &Batch) -> Result<()> {
        let keys: Vec<&Column> = self.group_by.iter().map(|&c| &piece.cols()[c]).collect();
        let ids = self.group_ids(&keys, piece.rows());
        let mut evaluated: Vec<Option<Cow<Column>>> = self.inputs.iter().map(|_| None).collect();
        for (func, input, state) in &mut self.states {
            state.resize(*func, self.groups);
            let input = match *input {
                Some(i) => Some(match &mut evaluated[i] {
                    Some(col) => &**col,
                    slot => &**slot.insert(self.inputs[i].eval(piece)?),
                }),
                None => None,
            };
            state.fold(*func, input, &ids)?;
        }
        Ok(())
    }

    /// Every group's key and states, sorted by key (groups with equal
    /// keys — `Int(1)` and `Float(1.0)` hashed apart — keep their order
    /// of first appearance).
    pub fn finish(mut self) -> Partials {
        let mut states: Vec<_> = (self.aggs.iter().zip(&self.state_of))
            .map(|(a, &s)| self.states[s].2.finish(a.func))
            .collect();
        let mut out: Partials = (0..self.groups)
            .map(|g| PartialGroup {
                key: self.keys.iter().map(|k| k.get(g).to_value()).collect(),
                states: states.iter_mut().map(|s| s.next().expect("a state per group")).collect(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Every row's group id, groups numbered in order of first
    /// appearance across the pieces folded so far. A piece whose keys
    /// are all dictionary-coded numbers its rows by [`dict_slots`] and
    /// looks each distinct slot up once; any other hashes its keys a
    /// column at a time ([`hash_rows`]) and looks each row up. Either
    /// way a lookup compares keys cell by cell with the group's stored
    /// key and costs no allocation. Unlike a join key, a NULL group key
    /// is a group of its own.
    fn group_ids(&mut self, keys: &[&Column], rows: usize) -> Vec<u32> {
        if keys.is_empty() {
            return vec![0; rows];
        }
        let Some((mut slots, count)) = dict_slots(keys, rows) else {
            let hashes = hash_rows(keys, rows).into_iter().enumerate();
            return hashes.map(|(i, hash)| self.group_of(keys, i, hash)).collect();
        };
        let mut group_of_slot = vec![u32::MAX; count];
        for (i, slot) in slots.iter_mut().enumerate() {
            let group = &mut group_of_slot[*slot as usize];
            if *group == u32::MAX {
                *group = self.group_of(keys, i, row_hash(keys, i));
            }
            *slot = *group;
        }
        slots
    }

    /// The group of row `i` of `keys`, whose key hashes to `hash`: an
    /// existing group with an equal key, or a new one.
    fn group_of(&mut self, keys: &[&Column], i: usize, hash: u32) -> u32 {
        let stored = &self.keys;
        let equal = |g: &usize| keys.iter().zip(stored).all(|(k, s)| k.cell_eq(i, s, *g));
        if let Some(g) = self.table.probe(hash).find(equal) {
            return g as u32;
        }
        self.table.push(Some(hash));
        self.keys.iter_mut().zip(keys).for_each(|(s, k)| s.push(k.get(i)));
        self.groups += 1;
        u32::try_from(self.groups - 1).expect("under 2^32 groups")
    }
}

/// Each row's slot when every key column is dictionary-coded: the
/// mixed-radix number of its codes, a NULL cell coding as one past its
/// column's dictionary — and how many slots there are. `None` unless
/// every key is `Data::Dict` and the product of (dictionary length + 1)
/// over the keys is at most `rows`, so the slot table is never larger
/// than the piece it numbers.
fn dict_slots(keys: &[&Column], rows: usize) -> Option<(Vec<u32>, usize)> {
    let mut count = 1usize;
    let mut coded = Vec::with_capacity(keys.len());
    for k in keys {
        let Data::Dict { dict, codes } = k.data() else { return None };
        count = count.checked_mul(dict.len() + 1).filter(|&c| c <= rows)?;
        coded.push((codes, dict.len() as u32, k.valid()));
    }
    let mut slots = vec![0u32; rows];
    let mut stride = 1u32;
    for (codes, null, valid) in coded {
        let cells = slots.iter_mut().zip(codes);
        match valid {
            None => cells.for_each(|(s, &c)| *s += c * stride),
            Some(ok) => {
                cells.zip(ok).for_each(|((s, &c), &ok)| *s += if ok { c } else { null } * stride)
            }
        }
        stride *= null + 1;
    }
    Some((slots, count))
}

/// Row `i`'s [`hash_rows`] hash, computed alone.
fn row_hash(keys: &[&Column], i: usize) -> u32 {
    let step = |state, k: &&Column| hash_cells_step(state, hash_value(k.get(i)));
    hash_cells_finish(keys.iter().fold(HASH_CELLS_SEED, step))
}

/// One aggregate's running state for every group so far: typed tallies
/// for COUNT, SUM and AVG, and MIN, MAX and COUNT(DISTINCT) folded cell
/// by cell.
enum Running {
    Tallies(Vec<Tally>),
    Cells(Vec<AggState>),
}

/// A group's count of valid cells and their running sum, which is NULL
/// while the count is 0. It adds as [`add_values`] does, cell by cell:
/// `i64` with wrapping until its first Float cell, `f64` from then on —
/// so a piece of Int cells after a piece of Float cells adds exactly as
/// one `Values` column of both would.
#[derive(Clone, Copy)]
struct Tally {
    sum: Num,
    n: i64,
}

#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl Default for Tally {
    fn default() -> Tally {
        Tally { sum: Num::Int(0), n: 0 }
    }
}

impl Tally {
    fn add_int(&mut self, x: i64) {
        match &mut self.sum {
            Num::Int(a) => *a = a.wrapping_add(x),
            Num::Float(a) => *a += x as f64,
        }
        self.n += 1;
    }

    /// A first cell is taken as it is, bit for bit (`-0.0` and NaN
    /// payloads included).
    fn add_float(&mut self, x: f64) {
        match &mut self.sum {
            Num::Float(a) => *a += x,
            Num::Int(a) => self.sum = Num::Float(if self.n == 0 { x } else { *a as f64 + x }),
        }
        self.n += 1;
    }

    fn sum(&self) -> Value {
        match self.sum {
            _ if self.n == 0 => Value::Null,
            Num::Int(a) => Value::Int(a),
            Num::Float(a) => Value::Float(a),
        }
    }
}

impl Running {
    fn new(func: AggFunc, groups: usize) -> Running {
        let mut running = match func {
            AggFunc::Min | AggFunc::Max | AggFunc::CountDistinct => Running::Cells(Vec::new()),
            _ => Running::Tallies(Vec::new()),
        };
        running.resize(func, groups);
        running
    }

    /// Fresh states for the groups added since the last piece.
    fn resize(&mut self, func: AggFunc, groups: usize) {
        match self {
            Running::Tallies(t) => t.resize(groups, Tally::default()),
            Running::Cells(c) => c.resize(groups, AggState::new(func)),
        }
    }

    /// Fold one piece: one loop over its input (`None` for `COUNT(*)`)
    /// and `ids`, chosen by the input's representation. `COUNT(*)`
    /// counts ids; `COUNT(x)` counts valid cells; `SUM` / `AVG` over
    /// `Int` and `Float` run typed loops. Everything else — MIN, MAX,
    /// COUNT(DISTINCT), sums over `Values` inputs, and non-numeric sums,
    /// which raise the typed error — folds cell by cell.
    fn fold(&mut self, func: AggFunc, input: Option<&Column>, ids: &[u32]) -> Result<()> {
        let (t, input) = match (self, input) {
            (Running::Tallies(t), Some(input)) => (t, input),
            (Running::Tallies(t), None) => {
                ids.iter().for_each(|&g| t[g as usize].n += 1);
                return Ok(());
            }
            (Running::Cells(states), input) => {
                let input = input.expect("a cell aggregate has an input");
                for (i, &g) in ids.iter().enumerate() {
                    states[g as usize].update(input.get(i))?;
                }
                return Ok(());
            }
        };
        let valid = input.valid();
        match (func, input.data()) {
            (_, Data::Null(_)) => {}
            (AggFunc::Count, Data::Values(v)) => {
                each_valid(ids, None, |g, i| t[g].n += i64::from(!v[i].is_null()))
            }
            (AggFunc::Count, _) => each_valid(ids, valid, |g, _| t[g].n += 1),
            (_, Data::Int(v)) => each_valid(ids, valid, |g, i| t[g].add_int(v[i])),
            (_, Data::Float(v)) => each_valid(ids, valid, |g, i| t[g].add_float(v[i])),
            (func, _) => {
                let func = if func == AggFunc::Avg { "AVG" } else { "SUM" };
                for (i, &g) in ids.iter().enumerate() {
                    match input.get(i) {
                        ValueRef::Null => {}
                        ValueRef::Int(x) => t[g as usize].add_int(x),
                        ValueRef::Float(x) => t[g as usize].add_float(x),
                        v => {
                            numeric(func, v)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Each group's state as `func`'s, in group order. Tallies are read,
    /// so aggregates sharing them each get their own; cell states are
    /// taken, as only one aggregate has them.
    fn finish(&mut self, func: AggFunc) -> std::vec::IntoIter<AggState> {
        let state = |t: &Tally| match func {
            AggFunc::Avg => AggState::Avg { sum: t.sum(), n: t.n },
            AggFunc::Sum => AggState::Sum { acc: t.sum() },
            _ => AggState::Count { n: t.n },
        };
        match self {
            Running::Tallies(t) => t.iter().map(state).collect::<Vec<_>>().into_iter(),
            Running::Cells(states) => std::mem::take(states).into_iter(),
        }
    }
}

/// `step(group, row)` over the rows whose cell is valid (every row
/// when `valid` is `None`), in row order.
fn each_valid(ids: &[u32], valid: Option<&[bool]>, mut step: impl FnMut(usize, usize)) {
    let rows = ids.iter().enumerate();
    match valid {
        None => rows.for_each(|(i, &g)| step(g as usize, i)),
        Some(ok) => rows.filter(|(i, _)| ok[*i]).for_each(|(i, &g)| step(g as usize, i)),
    }
}

/// Merge several nodes' partials into one.
pub fn merge_partials(parts: Vec<Partials>) -> Partials {
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for part in parts {
        for pg in part {
            match groups.entry(pg.key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (st, other) in e.get_mut().iter_mut().zip(&pg.states) {
                        st.merge(other);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(pg.states);
                }
            }
        }
    }
    let mut out: Partials = groups
        .into_iter()
        .map(|(key, states)| PartialGroup { key, states })
        .collect();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

/// Finalize partials into a batch `width` wide: key columns then one
/// column per aggregate.
pub fn finalize_partials(parts: Partials, width: usize) -> Batch {
    let keys = parts.first().map_or(0, |pg| pg.key.len());
    let col = |c: usize| {
        let mut col = Column::nulls(0);
        for pg in &parts {
            match c.checked_sub(keys) {
                None => col.push(pg.key[c].as_ref()),
                Some(agg) => col.push(pg.states[agg].finalize().as_ref()),
            }
        }
        col
    };
    Batch::new((0..width).map(col).collect(), parts.len())
}

/// Single-phase aggregation of one batch (fold + finalize).
pub fn aggregate(batch: &Batch, group_by: &[usize], aggs: &[AggSpec]) -> Result<Batch> {
    let parts = aggregate_partial(batch, group_by, aggs)?;
    Ok(finalize_partials(parts, group_by.len() + aggs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use proptest::prelude::*;

    fn rows(data: &[&[i64]]) -> Batch {
        let rows: Vec<Vec<Value>> =
            data.iter().map(|r| r.iter().map(|&v| Value::Int(v)).collect()).collect();
        Batch::from_rows(&rows, 2)
    }

    fn aggregate_rows(batch: &Batch, group_by: &[usize], aggs: &[AggSpec]) -> Vec<Vec<Value>> {
        aggregate(batch, group_by, aggs).unwrap().into_rows()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::sum(Expr::col(1)),
            AggSpec::count_star(),
            AggSpec::avg(Expr::col(1)),
            AggSpec::min(Expr::col(1)),
            AggSpec::max(Expr::col(1)),
            AggSpec::new(AggFunc::CountDistinct, Expr::col(1)),
        ]
    }

    #[test]
    fn basic_group_by() {
        let input = rows(&[&[1, 10], &[2, 5], &[1, 20], &[2, 5]]);
        let out = aggregate_rows(&input, &[0], &specs());
        assert_eq!(out.len(), 2);
        // Group 1: sum 30, count 2, avg 15, min 10, max 20, distinct 2.
        assert_eq!(
            out[0],
            vec![
                Value::Int(1),
                Value::Int(30),
                Value::Int(2),
                Value::Float(15.0),
                Value::Int(10),
                Value::Int(20),
                Value::Int(2),
            ]
        );
        // Group 2 distinct = 1 (5 appears twice).
        assert_eq!(out[1][6], Value::Int(1));
    }

    #[test]
    fn global_aggregate_no_groups() {
        let input = rows(&[&[0, 1], &[0, 2], &[0, 3]]);
        let out = aggregate_rows(&input, &[], &[AggSpec::sum(Expr::col(1))]);
        assert_eq!(out, vec![vec![Value::Int(6)]]);
    }

    #[test]
    fn nulls_ignored_by_aggs() {
        let input = Batch::from_rows(
            &[vec![Value::Int(1), Value::Null], vec![Value::Int(1), Value::Int(4)]],
            2,
        );
        let out = aggregate_rows(
            &input,
            &[0],
            &[
                AggSpec::sum(Expr::col(1)),
                AggSpec::new(AggFunc::Count, Expr::col(1)),
                AggSpec::count_star(),
                AggSpec::avg(Expr::col(1)),
            ],
        );
        assert_eq!(out[0][1], Value::Int(4)); // sum skips null
        assert_eq!(out[0][2], Value::Int(1)); // count(col) skips null
        assert_eq!(out[0][3], Value::Int(2)); // count(*) doesn't
        assert_eq!(out[0][4], Value::Float(4.0)); // avg over non-null only
    }

    #[test]
    fn empty_input_empty_output() {
        let out = aggregate(&rows(&[]), &[0], &specs()).unwrap();
        assert_eq!((out.rows(), out.width()), (0, 7));
    }

    #[test]
    fn avg_merges_correctly_across_partials() {
        // The classic distributed-AVG bug: averaging averages. Partial
        // states carry (sum, n) so merging is exact.
        let a = rows(&[&[0, 10]]); // avg 10 over 1 row
        let b = rows(&[&[0, 1], &[0, 2], &[0, 3]]); // avg 2 over 3 rows
        let specs = vec![AggSpec::avg(Expr::col(1))];
        let pa = aggregate_partial(&a, &[0], &specs).unwrap();
        let pb = aggregate_partial(&b, &[0], &specs).unwrap();
        let merged = finalize_partials(merge_partials(vec![pa, pb]), 2).into_rows();
        // True avg = 16/4 = 4.0, not (10+2)/2 = 6.0.
        assert_eq!(merged[0][1], Value::Float(4.0));
    }

    #[test]
    fn distinct_merges_as_set_union() {
        let a = rows(&[&[0, 1], &[0, 2]]);
        let b = rows(&[&[0, 2], &[0, 3]]);
        let specs = vec![AggSpec::new(AggFunc::CountDistinct, Expr::col(1))];
        let pa = aggregate_partial(&a, &[0], &specs).unwrap();
        let pb = aggregate_partial(&b, &[0], &specs).unwrap();
        let merged = finalize_partials(merge_partials(vec![pa, pb]), 2).into_rows();
        assert_eq!(merged[0][1], Value::Int(3));
    }

    /// The fold row at a time: one `update` per row over materialized
    /// rows, keyed by owned `Vec<Value>`s. The reference the column
    /// kernel is held to, bit for bit.
    fn aggregate_partial_rowwise(
        batch: &Batch,
        group_by: &[usize],
        aggs: &[AggSpec],
    ) -> Result<Partials> {
        let inputs = aggs.iter().map(|a| a.expr.eval(batch)).collect::<Result<Vec<_>>>()?;
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        for (i, row) in batch.clone().into_rows().iter().enumerate() {
            let key: Vec<Value> = group_by.iter().map(|&c| row[c].clone()).collect();
            let states = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect());
            for (st, input) in states.iter_mut().zip(&inputs) {
                st.update(input.get(i))?;
            }
        }
        if group_by.is_empty() && groups.is_empty() {
            groups.insert(
                Vec::new(),
                aggs.iter().map(|a| AggState::new(a.func)).collect(),
            );
        }
        let mut out: Partials = groups
            .into_iter()
            .map(|(key, states)| PartialGroup { key, states })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(out)
    }

    /// The one group's states of a global SUM / AVG / COUNT(x) /
    /// COUNT(*) over column 0 of `cells`.
    fn global_sums(cells: &[Value]) -> Vec<AggState> {
        let rows: Vec<Vec<Value>> = cells.iter().map(|v| vec![v.clone()]).collect();
        let specs = [
            AggSpec::sum(Expr::col(0)),
            AggSpec::avg(Expr::col(0)),
            AggSpec::new(AggFunc::Count, Expr::col(0)),
            AggSpec::count_star(),
        ];
        let mut parts = aggregate_partial(&Batch::from_rows(&rows, 1), &[], &specs).unwrap();
        assert_eq!(parts.len(), 1);
        parts.remove(0).states
    }

    fn float_bits(v: &Value) -> u64 {
        match v {
            Value::Float(f) => f.to_bits(),
            v => panic!("not a float: {v:?}"),
        }
    }

    #[test]
    fn a_group_of_only_negative_zeros_sums_to_negative_zero() {
        let states = global_sums(&[Value::Float(-0.0), Value::Float(-0.0)]);
        let AggState::Sum { acc } = &states[0] else { panic!("{states:?}") };
        assert_eq!(float_bits(acc), (-0.0f64).to_bits());
        // And a lone +0.0 stays +0.0.
        let AggState::Sum { acc } = &global_sums(&[Value::Float(0.0)])[0] else { panic!() };
        assert_eq!(float_bits(acc), 0.0f64.to_bits());
    }

    #[test]
    fn sum_preserves_a_nan_payload() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let states = global_sums(&[Value::Null, Value::Float(nan)]);
        let AggState::Sum { acc } = &states[0] else { panic!("{states:?}") };
        assert_eq!(float_bits(acc), nan.to_bits());
    }

    #[test]
    fn int_sum_wraps_at_i64_max() {
        let states = global_sums(&[Value::Int(i64::MAX), Value::Int(2)]);
        assert_eq!(states[0], AggState::Sum { acc: Value::Int(i64::MIN + 1) });
        assert_eq!(states[1], AggState::Avg { sum: Value::Int(i64::MIN + 1), n: 2 });
    }

    #[test]
    fn an_all_null_group_sums_to_null_and_counts_zero() {
        for cells in [vec![Value::Null, Value::Null], vec![Value::Null, Value::Int(1)]] {
            // Group 0 holds only NULLs, whether the column is untyped or typed.
            let row = |(g, v): (usize, &Value)| vec![Value::Int(g as i64), v.clone()];
            let rows: Vec<Vec<Value>> = cells.iter().enumerate().map(row).collect();
            let out = aggregate_rows(&Batch::from_rows(&rows, 2), &[0], &specs());
            assert_eq!(
                out[0],
                vec![
                    Value::Int(0),
                    Value::Null,
                    Value::Int(1),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Int(0),
                ]
            );
        }
        let states = global_sums(&[Value::Null, Value::Null]);
        assert_eq!(states[0], AggState::Sum { acc: Value::Null });
        assert_eq!(states[1].finalize(), Value::Null);
        assert_eq!(states[2], AggState::Count { n: 0 });
    }

    #[test]
    fn a_values_column_promotes_int_to_float_as_before() {
        // Int(1) == Float(1.0) under Value's comparison equality, but a
        // sum over [Int(1), Float(1.0)] is Float(2.0), never Int(2).
        let input = Batch::from_rows(
            &[
                vec![Value::Int(0), Value::Int(1)],
                vec![Value::Int(0), Value::Float(1.0)],
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
            ],
            2,
        );
        assert!(matches!(input.cols()[1].data(), Data::Values(_)));
        let specs = vec![AggSpec::sum(Expr::col(1))];
        let fast = aggregate_partial(&input, &[0], &specs).unwrap();
        let slow = aggregate_partial_rowwise(&input, &[0], &specs).unwrap();
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        assert_eq!(fast[0].states[0], AggState::Sum { acc: Value::Float(2.0) });
        assert!(matches!(fast[1].states[0], AggState::Sum { acc: Value::Int(3) }));
    }

    #[test]
    fn a_global_aggregate_over_zero_rows_is_one_row() {
        let out = aggregate_rows(&rows(&[]), &[], &specs());
        let null = Value::Null;
        let want = [null.clone(), Value::Int(0), null.clone(), null.clone(), null, Value::Int(0)];
        assert_eq!(out, vec![want.to_vec()]);
    }

    #[test]
    fn sum_and_avg_over_non_numeric_cells_are_typed_errors() {
        let str_rows = vec![vec![Value::Int(0), Value::Null], vec![Value::Int(0), "x".into()]];
        let bool_rows = vec![vec![Value::Int(0), Value::Bool(true)]];
        let date_rows = vec![vec![Value::Int(0), Value::Date(3)]];
        let mixed = vec![vec![Value::Int(0), Value::Int(1)], vec![Value::Int(0), Value::Date(3)]];
        for input in [str_rows, bool_rows, date_rows, mixed] {
            let batch = Batch::from_rows(&input, 2);
            for spec in [AggSpec::sum(Expr::col(1)), AggSpec::avg(Expr::col(1))] {
                let err = aggregate_partial(&batch, &[0], &[spec]).unwrap_err();
                assert!(matches!(err, EonError::Query(_)), "{err:?}");
            }
            // MIN / MAX / COUNT take any type.
            let other = [AggSpec::min(Expr::col(1)), AggSpec::new(AggFunc::Count, Expr::col(1))];
            assert!(aggregate_partial(&batch, &[0], &other).is_ok());
        }
        // A NULL string is never reached as a value: no error.
        let nulls = Batch::from_rows(&[vec![Value::Str("x".into()), Value::Null]], 2);
        let sum_of_null = AggSpec::sum(Expr::col(1));
        assert!(aggregate_partial(&nulls, &[0], &[sum_of_null]).is_ok());
    }

    /// Two dictionary-coded keys of 2 and 3 entries have (2 + 1) · (3 + 1)
    /// = 12 slots: a piece of 12 rows takes the slot path, one of 11 (or a
    /// key that is not a dictionary) the hash path — and the partials are
    /// the same whichever path, and however the rows are cut.
    #[test]
    fn dictionary_keys_take_slots_only_while_the_slots_fit_the_piece() {
        let dict = |entries: &[&str], cells: &[Option<u32>]| {
            let mut strs = eon_columnar::StrVec::default();
            entries.iter().for_each(|e| strs.push(e));
            let codes = cells.iter().map(|c| c.unwrap_or(0)).collect();
            let valid = cells.iter().map(Option::is_some).collect();
            Column::new(Data::Dict { dict: std::sync::Arc::new(strs), codes }, Some(valid))
        };
        let a = dict(&["x", "y"], &[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1].map(Some));
        let mut b_cells = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2].map(Some);
        b_cells[4] = None;
        let b = dict(&["p", "q", "r"], &b_cells);
        assert_eq!(dict_slots(&[&a, &b], 12).map(|(_, count)| count), Some(12));
        assert!(dict_slots(&[&a, &b], 11).is_none());
        let floats = Column::from_values((0..12).map(|i| ValueRef::Float(0.1 * i as f64 - 0.3)));
        assert!(dict_slots(&[&a, &floats], 12).is_none());

        let coded = Batch::new(vec![a, b, floats], 12);
        let plain = Batch::from_rows(&coded.clone().into_rows(), 3);
        let rows = |r: std::ops::Range<usize>| coded.gather(&r.collect::<Vec<_>>());
        let halves = [rows(0..6), rows(6..12)];
        let specs = [AggSpec::sum(Expr::col(2)), AggSpec::avg(Expr::col(2)), AggSpec::count_star()];
        let slots = aggregate_partial(&coded, &[0, 1], &specs).unwrap();
        let hashed = aggregate_partial(&plain, &[0, 1], &specs).unwrap();
        let cut = Aggregator::over(&[0, 1], &specs, &halves).unwrap();
        assert_eq!(slots.len(), 7); // six pairs, and (x, NULL)
        assert_eq!(format!("{slots:?}"), format!("{hashed:?}"));
        assert_eq!(format!("{slots:?}"), format!("{cut:?}"));
    }

    proptest! {
        /// Bit-exact equivalence of the column kernel and the row-at-a-time
        /// fold, over Int-only, Float-only and mixed (`Values`) value
        /// columns with long runs, NaNs, -0.0, NULLs and Int/Float
        /// aliasing — compared via Debug strings so Float(-0.0) vs
        /// Float(0.0) and NaN payloads can't hide behind comparison
        /// equality.
        #[test]
        fn prop_column_kernel_matches_the_rowwise_fold(
            kind in 0usize..3,
            data in proptest::collection::vec(
                (0i64..3, prop_oneof![
                    Just(Value::Null),
                    (-4i64..4).prop_map(Value::Int),
                    (-2i32..3).prop_map(|v| Value::Float(v as f64 * 0.5)),
                    Just(Value::Float(f64::NAN)),
                    Just(Value::Float(-0.0)),
                    Just(Value::Int(i64::MAX)),
                    Just(Value::Int(1)),
                    Just(Value::Float(1.0)),
                ], 0u8..6),
                0..80,
            ),
        ) {
            // `kind` 0 keeps Int cells, 1 Float cells, 2 both.
            let keep = |v: &Value| match v {
                Value::Int(_) => kind != 1,
                Value::Float(_) => kind != 0,
                _ => true,
            };
            // `reps` stretches values into runs of identical rows.
            let all: Vec<Vec<Value>> = data
                .iter()
                .filter(|(_, v, _)| keep(v))
                .flat_map(|(g, v, reps)| {
                    std::iter::repeat_with(|| vec![Value::Int(*g), v.clone()])
                        .take(*reps as usize + 1)
                })
                .collect();
            let all = Batch::from_rows(&all, 2);
            for group_by in [&[0][..], &[]] {
                let fast = aggregate_partial(&all, group_by, &specs()).unwrap();
                let slow = aggregate_partial_rowwise(&all, group_by, &specs()).unwrap();
                prop_assert_eq!(format!("{:?}", fast), format!("{:?}", slow));
            }
        }

        /// The distributed-equals-centralized property: splitting rows
        /// arbitrarily across "nodes", partial-aggregating, and merging
        /// gives exactly the single-phase answer.
        #[test]
        fn prop_partition_then_merge_equals_single_phase(
            data in proptest::collection::vec((0i64..5, -20i64..20), 0..120),
            split in 1usize..5,
        ) {
            let all: Vec<Vec<Value>> =
                data.iter().map(|&(g, v)| vec![Value::Int(g), Value::Int(v)]).collect();
            let specs = specs();
            let single = aggregate_rows(&Batch::from_rows(&all, 2), &[0], &specs);

            let mut parts = Vec::new();
            for chunk_idx in 0..split {
                let chunk: Vec<Vec<Value>> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % split == chunk_idx)
                    .map(|(_, r)| r.clone())
                    .collect();
                parts.push(aggregate_partial(&Batch::from_rows(&chunk, 2), &[0], &specs).unwrap());
            }
            let merged = finalize_partials(merge_partials(parts), 7).into_rows();
            prop_assert_eq!(merged, single);
        }
    }
}
