//! Min/max pruning (paper §2.1): "Vertica accomplishes this by tracking
//! minimum and maximum values of columns in each storage and using
//! expression analysis to determine if a predicate could ever be true
//! for the given minimum and maximum."
//!
//! [`Predicate`] is the *pushed-down* predicate language: simple
//! column-vs-literal comparisons plus boolean combinators — rich enough
//! for TPC-H's date-range and equality filters, which is what drives the
//! file pruning the paper describes. Arbitrary expressions live in
//! `eon-exec`; its `push_predicates` rule extracts the prunable part into
//! this form.

use std::cmp::Ordering;

use eon_types::Value;
use crate::batch::{Column, Data};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether `l op r` holds given how `l` orders against `r`.
    pub fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Min/max/null statistics for one column of one block or container,
/// borrowed from the footer or catalog entry that holds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats<'a> {
    /// Minimum non-null value; `Null` means the column slice is all
    /// null.
    pub min: &'a Value,
    pub max: &'a Value,
    pub has_null: bool,
}

/// A pushed-down scan predicate over projection-local column indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    Cmp {
        col: usize,
        op: CmpOp,
        lit: Value,
    },
    IsNull(usize),
    IsNotNull(usize),
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Convenience constructors.
    pub fn eq(col: usize, lit: impl Into<Value>) -> Self {
        Predicate::Cmp {
            col,
            op: CmpOp::Eq,
            lit: lit.into(),
        }
    }

    pub fn cmp(col: usize, op: CmpOp, lit: impl Into<Value>) -> Self {
        Predicate::Cmp {
            col,
            op,
            lit: lit.into(),
        }
    }

    pub fn and(preds: Vec<Predicate>) -> Self {
        match preds.len() {
            0 => Predicate::True,
            1 => preds.into_iter().next().unwrap(),
            _ => Predicate::And(preds),
        }
    }

    /// The column indices this predicate reads, sorted and deduplicated.
    pub fn columns(&self) -> Vec<usize> {
        fn walk(p: &Predicate, out: &mut Vec<usize>) {
            match p {
                Predicate::True => {}
                Predicate::Cmp { col, .. } | Predicate::IsNull(col) | Predicate::IsNotNull(col) => {
                    out.push(*col)
                }
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|q| walk(q, out)),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate against a materialized row. SQL three-valued logic is
    /// collapsed to "NULL comparisons are false", which matches WHERE
    /// semantics.
    pub fn eval_row(&self, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, lit } => {
                let v = &row[*col];
                !v.is_null() && !lit.is_null() && op.accepts(v.cmp(lit))
            }
            Predicate::IsNull(col) => row[*col].is_null(),
            Predicate::IsNotNull(col) => !row[*col].is_null(),
            Predicate::And(ps) => ps.iter().all(|p| p.eval_row(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval_row(row)),
        }
    }

    /// Expression analysis against min/max statistics: could any row in
    /// a storage with these stats satisfy the predicate? `stats(col)`
    /// returns `None` when statistics are unavailable for the column, in
    /// which case the answer must be conservative (`true`).
    ///
    /// Soundness invariant (property-tested): if `eval_row(row)` is true
    /// for any row drawn from the stats' ranges, `could_match` is true.
    pub fn could_match<'a>(&self, stats: &dyn Fn(usize) -> Option<ColumnStats<'a>>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, lit } => {
                let Some(s) = stats(*col) else { return true };
                if lit.is_null() {
                    return false; // comparisons with NULL never match
                }
                if s.min.is_null() {
                    // All-null column slice: comparisons cannot match.
                    return false;
                }
                match op {
                    CmpOp::Eq => s.min <= lit && lit <= s.max,
                    // Ne can only be pruned when every value equals lit.
                    CmpOp::Ne => !(s.min == lit && s.max == lit),
                    CmpOp::Lt => s.min < lit,
                    CmpOp::Le => s.min <= lit,
                    CmpOp::Gt => s.max > lit,
                    CmpOp::Ge => s.max >= lit,
                }
            }
            Predicate::IsNull(col) => stats(*col).map(|s| s.has_null).unwrap_or(true),
            Predicate::IsNotNull(col) => stats(*col).map(|s| !s.min.is_null()).unwrap_or(true),
            Predicate::And(ps) => ps.iter().all(|p| p.could_match(stats)),
            Predicate::Or(ps) => ps.iter().any(|p| p.could_match(stats)),
        }
    }

    /// Columnar evaluation over one block: returns a selection vector
    /// of `rows` booleans, one per row, equal to what
    /// [`eval_row`](Self::eval_row) would produce on materialized rows.
    /// `cols` is indexed by predicate column index; columns the
    /// predicate doesn't touch may be any placeholder.
    ///
    /// This is where compression-aware execution pays off: an RLE
    /// column is tested once per run (the verdict fans across the run)
    /// and a dictionary column once per distinct value (a code-indexed
    /// verdict table maps codes to booleans), instead of once per row —
    /// and each test is one typed loop over the column's vector. Plain
    /// typed columns ([`Column`], e.g. Enterprise's WOS buffers) are
    /// tested by the same loops, borrowed.
    pub fn eval_block<B: BlockView>(&self, cols: &[&B], rows: usize) -> Vec<bool> {
        match self {
            Predicate::True => vec![true; rows],
            Predicate::Cmp { col, op, lit } => cols[*col].test_rows(|c| cmp_column(c, *op, lit)),
            Predicate::IsNull(col) => cols[*col].test_rows(|c| null_mask(c, true)),
            Predicate::IsNotNull(col) => cols[*col].test_rows(|c| null_mask(c, false)),
            Predicate::And(ps) => {
                let mut sel = vec![true; rows];
                for p in ps {
                    let s = p.eval_block(cols, rows);
                    for (a, b) in sel.iter_mut().zip(s) {
                        *a &= b;
                    }
                    if sel.iter().all(|&k| !k) {
                        break;
                    }
                }
                sel
            }
            Predicate::Or(ps) => {
                let mut sel = vec![false; rows];
                for p in ps {
                    let s = p.eval_block(cols, rows);
                    for (a, b) in sel.iter_mut().zip(s) {
                        *a |= b;
                    }
                    if sel.iter().all(|&k| k) {
                        break;
                    }
                }
                sel
            }
        }
    }
}

/// What [`Predicate::eval_block`] tests: a stored block's view
/// ([`EncodedBlock`](crate::EncodedBlock), tested per run or per
/// dictionary entry) or a column of plain typed cells.
pub trait BlockView {
    /// Apply a per-value test across the rows: `test` sees the column
    /// of values the block's encoding keeps.
    fn test_rows(&self, test: impl Fn(&Column) -> Vec<bool>) -> Vec<bool>;
}

impl BlockView for Column {
    fn test_rows(&self, test: impl Fn(&Column) -> Vec<bool>) -> Vec<bool> {
        test(self)
    }
}

/// Per cell: is it NULL (`want`) / not NULL (`!want`)?
fn null_mask(col: &Column, want: bool) -> Vec<bool> {
    match (col.data(), col.valid()) {
        (Data::Null(n), _) => vec![want; *n],
        (Data::Values(vs), _) => vs.iter().map(|v| v.is_null() == want).collect(),
        (_, Some(valid)) => valid.iter().map(|&ok| ok != want).collect(),
        (_, None) => vec![!want; col.len()],
    }
}

/// Per cell: does `cell op lit` hold? A NULL on either side is false.
/// One monomorphic loop per column type; a literal of another type
/// orders by `Value`'s cross-type rules, cell by cell.
fn cmp_column(col: &Column, op: CmpOp, lit: &Value) -> Vec<bool> {
    fn scan<T>(cells: &[T], ord: impl Fn(&T) -> Ordering, op: CmpOp) -> Vec<bool> {
        cells.iter().map(|c| op.accepts(ord(c))).collect()
    }
    let mut sel = match (col.data(), lit) {
        (_, Value::Null) | (Data::Null(_), _) => return vec![false; col.len()],
        (Data::Int(v), Value::Int(x)) => scan(v, |a| a.cmp(x), op),
        (Data::Int(v), Value::Float(x)) => scan(v, |a| (*a as f64).total_cmp(x), op),
        (Data::Float(v), Value::Float(x)) => scan(v, |a| a.total_cmp(x), op),
        (Data::Float(v), Value::Int(x)) => scan(v, |a| a.total_cmp(&(*x as f64)), op),
        (Data::Date(v), Value::Date(x)) => scan(v, |a| a.cmp(x), op),
        (Data::Bool(v), Value::Bool(x)) => scan(v, |a| a.cmp(x), op),
        (Data::Str(v), Value::Str(x)) => {
            (0..v.len()).map(|i| op.accepts(v.get(i).cmp(x.as_str()))).collect()
        }
        _ => {
            let test = |v: eon_types::ValueRef<'_>| !v.is_null() && op.accepts(v.cmp(&lit.as_ref()));
            return col.iter().map(test).collect();
        }
    };
    if let Some(valid) = col.valid() {
        for (s, ok) in sel.iter_mut().zip(valid) {
            *s &= ok;
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodedBlock;
    use proptest::prelude::*;

    /// Stats borrow their bounds; the caller keeps `range` alive.
    fn int_stats(range: &(Value, Value)) -> ColumnStats<'_> {
        ColumnStats {
            min: &range.0,
            max: &range.1,
            has_null: false,
        }
    }

    fn ints(min: i64, max: i64) -> (Value, Value) {
        (Value::Int(min), Value::Int(max))
    }

    fn column(vals: &[Value]) -> EncodedBlock {
        EncodedBlock::Plain(Column::from_values(vals.iter().map(Value::as_ref)))
    }

    #[test]
    fn eval_basic_comparisons() {
        let row = vec![Value::Int(5), Value::Str("x".into()), Value::Null];
        assert!(Predicate::eq(0, 5i64).eval_row(&row));
        assert!(!Predicate::eq(0, 6i64).eval_row(&row));
        assert!(Predicate::cmp(0, CmpOp::Lt, 6i64).eval_row(&row));
        assert!(Predicate::cmp(1, CmpOp::Ge, "x").eval_row(&row));
        // NULL comparisons are false, IS NULL is true
        assert!(!Predicate::eq(2, 0i64).eval_row(&row));
        assert!(Predicate::IsNull(2).eval_row(&row));
        assert!(!Predicate::IsNotNull(2).eval_row(&row));
    }

    #[test]
    fn and_or_combinators() {
        let row = vec![Value::Int(5)];
        let p = Predicate::And(vec![
            Predicate::cmp(0, CmpOp::Gt, 1i64),
            Predicate::cmp(0, CmpOp::Lt, 10i64),
        ]);
        assert!(p.eval_row(&row));
        let q = Predicate::Or(vec![Predicate::eq(0, 1i64), Predicate::eq(0, 5i64)]);
        assert!(q.eval_row(&row));
        assert!(Predicate::and(vec![]).eval_row(&row)); // empty AND = True
    }

    #[test]
    fn pruning_date_range_scenario() {
        // Paper's example: table partitioned by day; predicate on the
        // recent week excludes files from older days.
        let (old, new) = (ints(100, 200), ints(300, 400));
        let old_block = |_c: usize| Some(int_stats(&old));
        let new_block = |_c: usize| Some(int_stats(&new));
        let recent = Predicate::cmp(0, CmpOp::Gt, 250i64);
        assert!(!recent.could_match(&old_block));
        assert!(recent.could_match(&new_block));
    }

    #[test]
    fn pruning_is_conservative_without_stats() {
        let none = |_c: usize| None;
        assert!(Predicate::eq(0, 7i64).could_match(&none));
        assert!(Predicate::IsNull(0).could_match(&none));
    }

    #[test]
    fn all_null_slice_prunes_comparisons() {
        let stats = |_c: usize| {
            Some(ColumnStats {
                min: &Value::Null,
                max: &Value::Null,
                has_null: true,
            })
        };
        assert!(!Predicate::eq(0, 7i64).could_match(&stats));
        assert!(Predicate::IsNull(0).could_match(&stats));
        assert!(!Predicate::IsNotNull(0).could_match(&stats));
    }

    #[test]
    fn ne_pruning_only_for_constant_blocks() {
        let (same, spread) = (ints(7, 7), ints(7, 9));
        let constant = |_c: usize| Some(int_stats(&same));
        let varied = |_c: usize| Some(int_stats(&spread));
        let ne = Predicate::cmp(0, CmpOp::Ne, 7i64);
        assert!(!ne.could_match(&constant));
        assert!(ne.could_match(&varied));
    }

    proptest! {
        /// `eval_block` over columnar data must agree with `eval_row`
        /// over materialized rows, including nulls, Const columns
        /// (post-write table defaults), and nested combinators.
        #[test]
        fn prop_eval_block_matches_eval_row(
            col0 in proptest::collection::vec(
                (-7i64..5).prop_map(|v| if v < -5 { Value::Null } else { Value::Int(v) }),
                1..40,
            ),
            dflt_raw in -7i64..5,
            lit0 in -6i64..6,
            lit1 in -6i64..6,
            op_idx in 0usize..6,
        ) {
            let rows = col0.len();
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_idx];
            let dflt = if dflt_raw < -5 { Value::Null } else { Value::Int(dflt_raw) };
            let p = Predicate::Or(vec![
                Predicate::And(vec![
                    Predicate::cmp(0, op, lit0),
                    Predicate::IsNotNull(1),
                ]),
                Predicate::eq(1, lit1),
                Predicate::IsNull(0),
            ]);
            let cols = [column(&col0), EncodedBlock::constant(dflt.as_ref(), rows)];
            let sel = p.eval_block(&[&cols[0], &cols[1]], rows);
            for (i, v) in col0.iter().enumerate() {
                let row = vec![v.clone(), dflt.clone()];
                prop_assert_eq!(sel[i], p.eval_row(&row), "row {}", i);
            }
        }

        /// The typed comparison loops agree with `Value::cmp` row by
        /// row for every column type against every literal type, NaN,
        /// -0.0 and cross-type literals included.
        #[test]
        fn prop_typed_loops_match_eval_row(
            kind in 0usize..6,
            raw in proptest::collection::vec((any::<bool>(), -3i64..4), 1..40),
            lit_kind in 0usize..6,
            lit_raw in -3i64..4,
            op_idx in 0usize..6,
        ) {
            let make = |kind: usize, v: i64| match kind {
                0 => Value::Int(v),
                1 => [Value::Float(v as f64 * 0.5), Value::Float(f64::NAN), Value::Float(-0.0)]
                    [(v.unsigned_abs() % 3) as usize].clone(),
                2 => Value::Date(v as i32),
                3 => Value::Bool(v % 2 == 0),
                4 => Value::Str(["", "a", "é"][(v.unsigned_abs() % 3) as usize].into()),
                // A heterogeneous column: the `Values` fallback.
                _ => if v % 2 == 0 { Value::Int(v) } else { Value::Float(v as f64) },
            };
            let col0: Vec<Value> = raw
                .iter()
                .map(|&(null, v)| if null { Value::Null } else { make(kind, v) })
                .collect();
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_idx];
            let p = Predicate::cmp(0, op, make(lit_kind, lit_raw));
            let sel = p.eval_block(&[&column(&col0)], col0.len());
            for (i, v) in col0.iter().enumerate() {
                prop_assert_eq!(sel[i], p.eval_row(std::slice::from_ref(v)), "row {}", i);
            }
        }

        /// The encoded views (RLE runs, dictionary codes)
        /// must produce the same selection vector as the decoded
        /// per-row view for every predicate shape.
        #[test]
        fn prop_encoded_views_match_values_view(
            col0 in proptest::collection::vec(
                (-7i64..5).prop_map(|v| if v < -5 { Value::Null } else { Value::Int(v) }),
                1..60,
            ),
            lit0 in -6i64..6,
            op_idx in 0usize..6,
        ) {
            let rows = col0.len();
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_idx];
            let p = Predicate::Or(vec![
                Predicate::cmp(0, op, lit0),
                Predicate::IsNull(0),
            ]);
            let baseline = p.eval_block(&[&column(&col0)], rows);

            // Build RLE runs from the raw rows.
            let mut runs: Vec<(u64, Value)> = Vec::new();
            for v in &col0 {
                match runs.last_mut() {
                    Some((n, last)) if last == v => *n += 1,
                    _ => runs.push((1, v.clone())),
                }
            }
            let rle = EncodedBlock::Rle {
                rows,
                runs: runs.iter().map(|(n, _)| *n).collect(),
                values: Column::from_values(runs.iter().map(|(_, v)| v.as_ref())),
            };
            prop_assert_eq!(&p.eval_block(&[&rle], rows), &baseline);

            // Build a first-appearance dictionary.
            let mut dict: Vec<Value> = Vec::new();
            let mut codes: Vec<u32> = Vec::new();
            for v in &col0 {
                let code = match dict.iter().position(|d| d == v) {
                    Some(i) => i,
                    None => { dict.push(v.clone()); dict.len() - 1 }
                };
                codes.push(code as u32);
            }
            let dict = Column::from_values(dict.iter().map(Value::as_ref));
            prop_assert_eq!(&p.eval_block(&[&EncodedBlock::Dict { dict, codes }], rows), &baseline);
        }

        /// Soundness: a block is never pruned if it contains a matching
        /// row. Generate a block of ints, derive true stats, check every
        /// predicate shape.
        #[test]
        fn prop_pruning_never_loses_rows(
            vals in proptest::collection::vec(-50i64..50, 1..60),
            lit in -60i64..60,
            op_idx in 0usize..6,
        ) {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_idx];
            let min = *vals.iter().min().unwrap();
            let max = *vals.iter().max().unwrap();
            let range = ints(min, max);
            let stats = |_c: usize| Some(int_stats(&range));
            let p = Predicate::cmp(0, op, lit);
            let any_match = vals.iter().any(|&v| p.eval_row(&[Value::Int(v)]));
            if any_match {
                prop_assert!(p.could_match(&stats), "pruned a matching block: op={op:?} lit={lit}");
            }
        }
    }
}
