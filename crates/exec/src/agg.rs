//! Hash aggregation with mergeable partial states.
//!
//! Distributed group-by (paper §4: "efficient distributed aggregations")
//! runs the same machinery twice: every participating node folds its
//! local rows into [`AggState`]s, ships the *states* to the
//! coordinator, and the coordinator merges. Co-segmented group-bys
//! would allow skipping the merge; we always merge because states are
//! tiny and it is unconditionally correct.
//!
//! The local fold is column-at-a-time (DESIGN.md "Aggregation: group
//! ids, then one typed loop per aggregate"): one pass numbers every
//! row's group, then each aggregate is one loop over its input column
//! and those ids.

use std::collections::{BTreeSet, HashMap};

use eon_columnar::{hash_rows, Batch, Column, Data};
use eon_types::{EonError, Result, Value, ValueRef};

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
    /// per-cell arm of [`aggregate_partial`]. SQL semantics: NULL inputs
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

/// Partial aggregates of one batch of rows.
pub type Partials = Vec<PartialGroup>;

/// Fold a batch into partial aggregates, a column at a time.
///
/// `group_ids` gives every row its group; then each aggregate is one
/// loop over its input column and that id vector (`fold`). Rows are
/// visited in batch order, so every group adds its floats in the order
/// a row-at-a-time fold would, and a Float sum is bit-exact.
pub fn aggregate_partial(batch: &Batch, group_by: &[usize], aggs: &[AggSpec]) -> Result<Partials> {
    let keys: Vec<&Column> = group_by.iter().map(|&c| &batch.cols()[c]).collect();
    let (ids, mut firsts) = group_ids(&keys, batch.rows());
    // SQL: a global aggregate (no GROUP BY) over zero rows still
    // produces one output row (COUNT = 0, SUM = NULL, …).
    if group_by.is_empty() && firsts.is_empty() {
        firsts.push(0);
    }
    let mut states = aggs
        .iter()
        .map(|a| Ok(fold(a, batch, &ids, firsts.len())?.into_iter()))
        .collect::<Result<Vec<_>>>()?;
    let mut out: Partials = firsts
        .iter()
        .map(|&first| PartialGroup {
            key: keys.iter().map(|k| k.get(first).to_value()).collect(),
            states: states.iter_mut().map(|s| s.next().expect("a state per group")).collect(),
        })
        .collect();
    // Deterministic order for tests and stable merges.
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

/// Every row's group id — groups numbered in order of first appearance —
/// and each group's first row, which holds its key. The keys are hashed
/// a column at a time ([`hash_rows`]), and a row's keys are compared
/// cell by cell with its group's first row (a dictionary key by code),
/// so a row costs no allocation. Unlike a join key, a NULL group key is
/// a group of its own.
fn group_ids(keys: &[&Column], rows: usize) -> (Vec<u32>, Vec<usize>) {
    let mut table = HashChains::new(rows);
    let mut firsts: Vec<usize> = Vec::new();
    let ids = hash_rows(keys, rows)
        .into_iter()
        .enumerate()
        .map(|(i, hash)| {
            let equal = |g: &usize| keys.iter().all(|k| k.cell_eq(firsts[*g], k, i));
            let found = table.probe(hash).find(equal);
            found.unwrap_or_else(|| {
                table.push(Some(hash));
                firsts.push(i);
                firsts.len() - 1
            }) as u32
        })
        .collect();
    (ids, firsts)
}

/// One aggregate's state for each of `groups` groups: one loop over its
/// input and `ids`, chosen by the input's representation. `COUNT(*)`
/// counts ids; `COUNT(x)` counts valid cells of a typed column; `SUM` /
/// `AVG` over `Int` add into a wrapping `i64`, over `Float` into an
/// `f64` that starts at `-0.0` — the additive identity bit for bit
/// (`-0.0 + x` is `x`, `-0.0` and NaN payloads included; `0.0` would
/// turn a lone `-0.0` into `0.0`). Each sum carries its count, so a
/// group with no valid cell is NULL. Everything else — MIN, MAX,
/// COUNT(DISTINCT), `Values` and `Null` inputs, and non-numeric sums,
/// which raise the typed error — folds cell by cell.
fn fold(spec: &AggSpec, batch: &Batch, ids: &[u32], groups: usize) -> Result<Vec<AggState>> {
    let counts = |valid| -> Vec<AggState> {
        let counts = per_group(ids, valid, groups, 0, |n, _| *n += 1);
        counts.into_iter().map(|n| AggState::Count { n }).collect()
    };
    if spec.func == AggFunc::CountStar {
        return Ok(counts(None));
    }
    let input = spec.expr.eval(batch)?;
    let valid = input.valid();
    let summed = |sum: Value, n: i64| {
        let sum = if n == 0 { Value::Null } else { sum };
        match spec.func {
            AggFunc::Avg => AggState::Avg { sum, n },
            _ => AggState::Sum { acc: sum },
        }
    };
    Ok(match (spec.func, input.data()) {
        (AggFunc::Count, data) if !matches!(data, Data::Null(_) | Data::Values(_)) => counts(valid),
        (AggFunc::Sum | AggFunc::Avg, Data::Int(v)) => {
            let sums = per_group(ids, valid, groups, (0i64, 0), |(sum, n), i| {
                *sum = sum.wrapping_add(v[i]);
                *n += 1;
            });
            sums.into_iter().map(|(sum, n)| summed(Value::Int(sum), n)).collect()
        }
        (AggFunc::Sum | AggFunc::Avg, Data::Float(v)) => {
            let sums = per_group(ids, valid, groups, (-0.0f64, 0), |(sum, n), i| {
                *sum += v[i];
                *n += 1;
            });
            sums.into_iter().map(|(sum, n)| summed(Value::Float(sum), n)).collect()
        }
        _ => {
            let mut states = vec![AggState::new(spec.func); groups];
            for (i, &g) in ids.iter().enumerate() {
                states[g as usize].update(input.get(i))?;
            }
            states
        }
    })
}

/// Per group, `step(state, row)` over the group's valid rows (all rows
/// when `valid` is `None`), in row order, from `init`.
fn per_group<S: Clone>(
    ids: &[u32],
    valid: Option<&[bool]>,
    groups: usize,
    init: S,
    mut step: impl FnMut(&mut S, usize),
) -> Vec<S> {
    let mut states = vec![init; groups];
    for (i, &g) in ids.iter().enumerate() {
        if valid.is_none_or(|ok| ok[i]) {
            step(&mut states[g as usize], i);
        }
    }
    states
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
