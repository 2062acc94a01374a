//! Hash aggregation with mergeable partial states.
//!
//! Distributed group-by (paper §4: "efficient distributed aggregations")
//! runs the same machinery twice: every participating node folds its
//! local rows into [`AggState`]s, ships the *states* to the
//! coordinator, and the coordinator merges. Co-segmented group-bys
//! would allow skipping the merge; we always merge because states are
//! tiny and it is unconditionally correct.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use eon_columnar::{Batch, Column};
use eon_types::{Result, Value, ValueRef};

use crate::ops::HashChains;
use crate::plan::{AggFunc, AggSpec};

/// A mergeable partial aggregate. Serializable so nodes can ship states
/// to the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

fn add_values(acc: &Value, v: ValueRef<'_>) -> Value {
    match (acc, v) {
        (Value::Null, x) => x.to_value(),
        (x, ValueRef::Null) => x.clone(),
        (Value::Int(a), ValueRef::Int(b)) => Value::Int(a.wrapping_add(b)),
        (a, b) => Value::Float(a.as_float().unwrap_or(0.0) + b.as_float().unwrap_or(0.0)),
    }
}

/// `acc += v` applied `n ≥ 2` times, bit-exactly.
fn sum_repeated(acc: &mut Value, v: ValueRef<'_>, n: u64) {
    match (&*acc, v) {
        // Int-only arithmetic is modular: n repeated wrapping adds
        // equal one wrapping multiply.
        (Value::Null | Value::Int(_), ValueRef::Int(b)) => {
            *acc = add_values(acc, ValueRef::Int(b.wrapping_mul(n as i64)));
        }
        // A float anywhere: replay the additions so rounding matches
        // the row-at-a-time fold exactly.
        _ => {
            for _ in 0..n {
                *acc = add_values(acc, v);
            }
        }
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

    /// Fold one input cell (already evaluated from the agg's expr).
    /// SQL semantics: NULL inputs are ignored by every aggregate except
    /// COUNT(*) (which the executor feeds a literal).
    pub fn update(&mut self, v: ValueRef<'_>) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Count { n } => *n += 1,
            AggState::Sum { acc } => *acc = add_values(acc, v),
            AggState::Avg { sum, n } => {
                *sum = add_values(sum, v);
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
    }

    /// Fold the same input cell `n` times — the RLE fast path for
    /// aggregates over runs of identical rows.
    ///
    /// Exactness contract (property-tested): the result is *byte
    /// identical* to calling [`update`](Self::update) `n` times.
    /// COUNT adds `n`; an Int sum over an Int/empty accumulator takes
    /// one wrapping multiply (repeated wrapping adds ≡ one wrapping
    /// multiply, modular arithmetic); any float involvement replays
    /// the adds, because repeated float addition is not `v * n` at the
    /// bit level; MIN/MAX/DISTINCT are idempotent — once is enough.
    pub fn update_repeated(&mut self, v: ValueRef<'_>, n: u64) {
        if n == 0 {
            return;
        }
        if n == 1 || v.is_null() {
            return self.update(v);
        }
        match self {
            AggState::Count { n: c } => *c += n as i64,
            AggState::Sum { acc } => sum_repeated(acc, v, n),
            AggState::Avg { sum, n: c } => {
                sum_repeated(sum, v, n);
                *c += n as i64;
            }
            AggState::Min { .. } | AggState::Max { .. } | AggState::Distinct { .. } => {
                self.update(v)
            }
        }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialGroup {
    pub key: Vec<Value>,
    pub states: Vec<AggState>,
}

/// Partial aggregates of one batch of rows.
pub type Partials = Vec<PartialGroup>;

/// Fold a batch into partial aggregates, rows in batch order (which is
/// what makes a Float sum reproducible).
///
/// Every aggregate's input is evaluated once, a column at a time; group
/// keys are hashed and compared cell by cell in their key columns, so a
/// row costs no allocation. RLE fast path (DESIGN.md "Compression-aware
/// execution"): scans over run-length-encoded containers yield long
/// stretches of identical rows, so the fold detects runs of
/// structurally identical consecutive rows and looks the group up once
/// per run — [`AggState::update_repeated`] folds the whole run
/// bit-exactly.
pub fn aggregate_partial(batch: &Batch, group_by: &[usize], aggs: &[AggSpec]) -> Result<Partials> {
    let inputs = aggs
        .iter()
        .map(|a| a.expr.eval(batch))
        .collect::<Result<Vec<_>>>()?;
    let keys: Vec<&Column> = group_by.iter().map(|&c| &batch.cols()[c]).collect();
    let fresh = || aggs.iter().map(|a| AggState::new(a.func)).collect::<Vec<_>>();
    let mut table = HashChains::new(batch.rows());
    // Per group: the first row that carried its key, and its states.
    let mut groups: Vec<(usize, Vec<AggState>)> = Vec::new();
    let mut i = 0;
    while i < batch.rows() {
        let same = |j: usize| batch.cols().iter().all(|c| c.get(j).same_repr(c.get(i)));
        let run = 1 + (i + 1..batch.rows()).take_while(|&j| same(j)).count();
        // Unlike a join key, a NULL group key is a group of its own.
        let hash = eon_types::hash_cells_32(keys.iter().map(|k| k.get(i)));
        let equal = |g: &usize| keys.iter().all(|k| k.get(groups[*g].0) == k.get(i));
        let found = table.probe(hash).find(equal);
        let g = found.unwrap_or_else(|| {
            table.push(Some(hash));
            groups.push((i, fresh()));
            groups.len() - 1
        });
        for (state, input) in groups[g].1.iter_mut().zip(&inputs) {
            state.update_repeated(input.get(i), run as u64);
        }
        i += run;
    }
    // SQL: a global aggregate (no GROUP BY) over zero rows still
    // produces one output row (COUNT = 0, SUM = NULL, …).
    if group_by.is_empty() && groups.is_empty() {
        groups.push((0, fresh()));
    }
    let mut out: Partials = groups
        .into_iter()
        .map(|(first, states)| PartialGroup {
            key: keys.iter().map(|k| k.get(first).to_value()).collect(),
            states,
        })
        .collect();
    // Deterministic order for tests and stable merges.
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
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

/// Single-phase aggregation (fold + finalize).
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

    /// The fold without the run fast path: one `update` per row over
    /// materialized rows. Reference for the run-collapse equivalence
    /// property.
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
                st.update(input.get(i));
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

    #[test]
    fn run_collapse_never_crosses_int_float_aliasing() {
        // Int(1) == Float(1.0) under Value's comparison equality, but
        // they must NOT form a run: a sum over [Int(1), Float(1.0)] is
        // Float(2.0), while a collapsed Int run would yield Int(2).
        let input = Batch::from_rows(
            &[vec![Value::Int(0), Value::Int(1)], vec![Value::Int(0), Value::Float(1.0)]],
            2,
        );
        let specs = vec![AggSpec::sum(Expr::col(1))];
        let fast = aggregate_partial(&input, &[0], &specs).unwrap();
        let slow = aggregate_partial_rowwise(&input, &[0], &specs).unwrap();
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        assert_eq!(fast[0].states[0], AggState::Sum { acc: Value::Float(2.0) });
    }

    proptest! {
        /// Bit-exact equivalence of the run-collapsed fold and the
        /// row-at-a-time fold, over data with long runs, NaNs, nulls,
        /// and Int/Float aliasing — compared via Debug strings so
        /// Float(-0.0) vs Float(0.0) and NaN payloads can't hide
        /// behind comparison equality.
        #[test]
        fn prop_run_collapsed_fold_is_bit_exact(
            data in proptest::collection::vec(
                (0i64..3, prop_oneof![
                    Just(Value::Null),
                    (-4i64..4).prop_map(Value::Int),
                    (-2i32..3).prop_map(|v| Value::Float(v as f64 * 0.5)),
                    Just(Value::Float(f64::NAN)),
                    Just(Value::Int(1)),
                    Just(Value::Float(1.0)),
                ], 0u8..6),
                0..80,
            ),
        ) {
            // `reps` stretches values into runs of identical rows.
            let all: Vec<Vec<Value>> = data
                .iter()
                .flat_map(|(g, v, reps)| {
                    std::iter::repeat_with(|| vec![Value::Int(*g), v.clone()])
                        .take(*reps as usize + 1)
                })
                .collect();
            let all = Batch::from_rows(&all, 2);
            let specs = specs();
            let fast = aggregate_partial(&all, &[0], &specs).unwrap();
            let slow = aggregate_partial_rowwise(&all, &[0], &specs).unwrap();
            prop_assert_eq!(format!("{:?}", fast), format!("{:?}", slow));
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
