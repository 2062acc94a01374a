//! Min/max pruning (paper §2.1): "Vertica accomplishes this by tracking
//! minimum and maximum values of columns in each storage and using
//! expression analysis to determine if a predicate could ever be true
//! for the given minimum and maximum."
//!
//! [`Predicate`] is the *pushed-down* predicate language: simple
//! column-vs-literal comparisons plus boolean combinators — rich enough
//! for TPC-H's date-range and equality filters, which is what drives the
//! file pruning the paper describes. Arbitrary expressions live in
//! `eon-exec`; the planner extracts the prunable part into this form.

use eon_types::Value;
use serde::{Deserialize, Serialize};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Min/max/null statistics for one column of one block or container.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum non-null value; `Null` means the column slice is all
    /// null.
    pub min: Value,
    pub max: Value,
    pub has_null: bool,
}

/// A pushed-down scan predicate over projection-local column indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
                if v.is_null() || lit.is_null() {
                    return false;
                }
                let ord = v.cmp(lit);
                match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                }
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
    pub fn could_match(&self, stats: &dyn Fn(usize) -> Option<ColumnStats>) -> bool {
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
                    CmpOp::Eq => s.min <= *lit && *lit <= s.max,
                    // Ne can only be pruned when every value equals lit.
                    CmpOp::Ne => !(s.min == *lit && s.max == *lit),
                    CmpOp::Lt => s.min < *lit,
                    CmpOp::Le => s.min <= *lit,
                    CmpOp::Gt => s.max > *lit,
                    CmpOp::Ge => s.max >= *lit,
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
    /// predicate doesn't touch may be `BlockCol::Const(&Value::Null)`
    /// placeholders.
    ///
    /// This is where compression-aware execution pays off: an RLE
    /// column is tested once per run (the verdict fans across the run)
    /// and a dictionary column once per distinct value (a code-indexed
    /// verdict table maps codes to booleans), instead of once per row.
    pub fn eval_block(&self, cols: &[BlockCol<'_>], rows: usize) -> Vec<bool> {
        match self {
            Predicate::True => vec![true; rows],
            Predicate::Cmp { col, op, lit } => {
                let test = |v: &Value| {
                    if v.is_null() || lit.is_null() {
                        return false;
                    }
                    let ord = v.cmp(lit);
                    match op {
                        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    }
                };
                cols[*col].test_rows(rows, &test)
            }
            Predicate::IsNull(col) => cols[*col].test_rows(rows, &|v| v.is_null()),
            Predicate::IsNotNull(col) => cols[*col].test_rows(rows, &|v| !v.is_null()),
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

/// One column of one block, as seen by [`Predicate::eval_block`].
#[derive(Debug, Clone, Copy)]
pub enum BlockCol<'a> {
    /// Decoded per-row values.
    Values(&'a [Value]),
    /// Every row carries this value — e.g. a column added to the table
    /// after the container was written, materialized from the default.
    Const(&'a Value),
    /// Run-length-encoded rows: (run length, value) pairs whose lengths
    /// sum to the block's row count. Predicates test each run once.
    Rle(&'a [(u64, Value)]),
    /// Dictionary-encoded rows: distinct values plus one in-range code
    /// per row. Predicates test each dictionary entry once.
    Dict {
        dict: &'a [Value],
        codes: &'a [u32],
    },
}

impl BlockCol<'_> {
    /// Apply a per-value test across the block's `rows`, exploiting the
    /// encoding: one test per run for RLE, one per dictionary entry for
    /// Dict, one total for Const.
    fn test_rows(&self, rows: usize, test: &dyn Fn(&Value) -> bool) -> Vec<bool> {
        match self {
            BlockCol::Values(vs) => vs.iter().map(test).collect(),
            BlockCol::Const(v) => vec![test(v); rows],
            BlockCol::Rle(runs) => {
                let mut sel = Vec::with_capacity(rows);
                for (run, v) in *runs {
                    sel.resize(sel.len() + *run as usize, test(v));
                }
                sel
            }
            BlockCol::Dict { dict, codes } => {
                let verdicts: Vec<bool> = dict.iter().map(test).collect();
                codes.iter().map(|&c| verdicts[c as usize]).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn int_stats(min: i64, max: i64) -> ColumnStats {
        ColumnStats {
            min: Value::Int(min),
            max: Value::Int(max),
            has_null: false,
        }
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
        let old_block = |_c: usize| Some(int_stats(100, 200));
        let new_block = |_c: usize| Some(int_stats(300, 400));
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
                min: Value::Null,
                max: Value::Null,
                has_null: true,
            })
        };
        assert!(!Predicate::eq(0, 7i64).could_match(&stats));
        assert!(Predicate::IsNull(0).could_match(&stats));
        assert!(!Predicate::IsNotNull(0).could_match(&stats));
    }

    #[test]
    fn ne_pruning_only_for_constant_blocks() {
        let constant = |_c: usize| Some(int_stats(7, 7));
        let varied = |_c: usize| Some(int_stats(7, 9));
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
            let cols = [BlockCol::Values(&col0), BlockCol::Const(&dflt)];
            let sel = p.eval_block(&cols, rows);
            for (i, v) in col0.iter().enumerate() {
                let row = vec![v.clone(), dflt.clone()];
                prop_assert_eq!(sel[i], p.eval_row(&row), "row {}", i);
            }
        }

        /// The encoded `BlockCol` views (RLE runs, dictionary codes)
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
            let baseline = p.eval_block(&[BlockCol::Values(&col0)], rows);

            // Build RLE runs from the raw rows.
            let mut runs: Vec<(u64, Value)> = Vec::new();
            for v in &col0 {
                match runs.last_mut() {
                    Some((n, last)) if last == v => *n += 1,
                    _ => runs.push((1, v.clone())),
                }
            }
            prop_assert_eq!(&p.eval_block(&[BlockCol::Rle(&runs)], rows), &baseline);

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
            let dcol = BlockCol::Dict { dict: &dict, codes: &codes };
            prop_assert_eq!(&p.eval_block(&[dcol], rows), &baseline);
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
            let stats = move |_c: usize| Some(int_stats(min, max));
            let p = Predicate::cmp(0, op, lit);
            let any_match = vals.iter().any(|&v| p.eval_row(&[Value::Int(v)]));
            if any_match {
                prop_assert!(p.could_match(&stats), "pruned a matching block: op={op:?} lit={lit}");
            }
        }
    }
}
