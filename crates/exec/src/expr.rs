//! Scalar expressions evaluated over batches, a column at a time.
//!
//! SQL semantics where they matter: NULL propagates through arithmetic
//! and comparisons, `AND`/`OR` short-circuit with NULL treated as
//! false in filter position, division by zero yields NULL.

use std::borrow::Cow;

use eon_columnar::{Batch, Column, Data};
use eon_types::{EonError, Result, Value, ValueRef};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators (re-exported shape matches the pruning layer).
pub use eon_columnar::pruning::CmpOp;

/// A scalar expression over the columns of its input row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by input-row index.
    Col(usize),
    Lit(Value),
    Arith {
        op: ArithOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Cmp {
        op: CmpOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    /// `CASE WHEN c1 THEN v1 … ELSE e END`.
    Case {
        whens: Vec<(Expr, Expr)>,
        otherwise: Box<Expr>,
    },
    /// SQL LIKE with `%` wildcards only (enough for TPC-H).
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// Set membership against literals (`x IN (…)`).
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `EXTRACT(YEAR FROM date_col)` — the one date function TPC-H
    /// needs.
    ExtractYear(Box<Expr>),
}

// The arithmetic constructors intentionally mirror SQL operator names;
// they are static builders, not operator-trait methods.
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Add,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Sub,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Mul,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn div(l: Expr, r: Expr) -> Expr {
        Expr::Arith {
            op: ArithOp::Div,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Self::cmp(CmpOp::Eq, l, r)
    }

    pub fn like(e: Expr, pattern: &str) -> Expr {
        Expr::Like {
            expr: Box::new(e),
            pattern: pattern.to_owned(),
            negated: false,
        }
    }

    /// Call `f` with every column index the expression references.
    pub fn visit_cols(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Lit(_) => {}
            Expr::Arith { l, r, .. } | Expr::Cmp { l, r, .. } => {
                l.visit_cols(f);
                r.visit_cols(f);
            }
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.visit_cols(f)),
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::ExtractYear(e)
            | Expr::Like { expr: e, .. }
            | Expr::InList { expr: e, .. } => e.visit_cols(f),
            Expr::Case { whens, otherwise } => {
                for (cond, out) in whens {
                    cond.visit_cols(f);
                    out.visit_cols(f);
                }
                otherwise.visit_cols(f);
            }
        }
    }

    /// Is `other` the same expression, literals compared by
    /// representation? `==` compares literals as `Value`s, under which
    /// `Int(1)` equals `Float(1.0)`; two expressions the same here
    /// compute the same cells, bit for bit.
    pub(crate) fn same_as(&self, other: &Expr) -> bool {
        if self != other {
            return false;
        }
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        self.literals(&mut mine);
        other.literals(&mut theirs);
        mine.iter().zip(&theirs).all(|(a, b)| a.as_ref().same_repr(b.as_ref()))
    }

    /// Every literal, `IN` lists included, in one fixed order.
    fn literals<'e>(&'e self, out: &mut Vec<&'e Value>) {
        match self {
            Expr::Col(_) => {}
            Expr::Lit(v) => out.push(v),
            Expr::Arith { l, r, .. } | Expr::Cmp { l, r, .. } => {
                l.literals(out);
                r.literals(out);
            }
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.literals(out)),
            Expr::Not(e) | Expr::IsNull(e) | Expr::ExtractYear(e) | Expr::Like { expr: e, .. } => {
                e.literals(out)
            }
            Expr::InList { expr, list, .. } => {
                expr.literals(out);
                out.extend(list);
            }
            Expr::Case { whens, otherwise } => {
                for (cond, then) in whens {
                    cond.literals(out);
                    then.literals(out);
                }
                otherwise.literals(out);
            }
        }
    }

    /// The expression with every column reference `i` rewritten to
    /// `map(i)`; `None` if `map` has no answer for one of them.
    pub fn remap_cols(&self, map: &impl Fn(usize) -> Option<usize>) -> Option<Expr> {
        let boxed = |e: &Expr| e.remap_cols(map).map(Box::new);
        let each = |es: &[Expr]| es.iter().map(|e| e.remap_cols(map)).collect::<Option<Vec<_>>>();
        Some(match self {
            Expr::Col(i) => Expr::Col(map(*i)?),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Arith { op, l, r } => Expr::Arith { op: *op, l: boxed(l)?, r: boxed(r)? },
            Expr::Cmp { op, l, r } => Expr::Cmp { op: *op, l: boxed(l)?, r: boxed(r)? },
            Expr::And(es) => Expr::And(each(es)?),
            Expr::Or(es) => Expr::Or(each(es)?),
            Expr::Not(e) => Expr::Not(boxed(e)?),
            Expr::IsNull(e) => Expr::IsNull(boxed(e)?),
            Expr::ExtractYear(e) => Expr::ExtractYear(boxed(e)?),
            Expr::Like { expr, pattern, negated } => Expr::Like {
                expr: boxed(expr)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: boxed(expr)?,
                list: list.clone(),
                negated: *negated,
            },
            Expr::Case { whens, otherwise } => Expr::Case {
                whens: whens
                    .iter()
                    .map(|(cond, out)| Some((cond.remap_cols(map)?, out.remap_cols(map)?)))
                    .collect::<Option<_>>()?,
                otherwise: boxed(otherwise)?,
            },
        })
    }

    /// Evaluate over every row of `batch`, a column at a time. Errors
    /// only on type mismatches a planner should have rejected (e.g.
    /// `'a' + 1`), and only for rows SQL evaluation order reaches: a
    /// term after a false `AND` term, or the branch a `CASE` row did not
    /// take, is never evaluated for that row.
    pub fn eval<'a>(&self, batch: &'a Batch) -> Result<Cow<'a, Column>> {
        let n = batch.rows();
        Ok(Cow::Owned(match self {
            Expr::Col(i) => {
                let col = batch.cols().get(*i);
                return col
                    .map(Cow::Borrowed)
                    .ok_or_else(|| EonError::Query(format!("column {i} out of range")));
            }
            Expr::Lit(v) => Column::constant(v.as_ref(), n),
            // A numeric literal beside a column is broadcast, not built
            // into a column of its own.
            Expr::Arith { op, l, r } => match (&**l, &**r) {
                (Expr::Lit(x), e) | (e, Expr::Lit(x))
                    if matches!(x, Value::Int(_) | Value::Float(_)) && !matches!(e, Expr::Lit(_)) =>
                {
                    let lit_left = matches!(**l, Expr::Lit(_));
                    let (col, x) = (e.eval(batch)?, x.as_ref());
                    match arith_literal(*op, &col, x, lit_left) {
                        Some(col) => col,
                        None if lit_left => cells(n, |i| eval_arith(*op, x, col.get(i)))?,
                        None => cells(n, |i| eval_arith(*op, col.get(i), x))?,
                    }
                }
                _ => {
                    let (l, r) = (l.eval(batch)?, r.eval(batch)?);
                    match arith_typed(*op, &l, &r) {
                        Some(col) => col,
                        None => cells(n, |i| eval_arith(*op, l.get(i), r.get(i)))?,
                    }
                }
            },
            Expr::Cmp { op, l, r } => {
                let (l, r) = (l.eval(batch)?, r.eval(batch)?);
                cells(n, |i| {
                    let (a, b) = (l.get(i), r.get(i));
                    Ok(if a.is_null() || b.is_null() {
                        ValueRef::Null
                    } else {
                        ValueRef::Bool(op.accepts(a.cmp(&b)))
                    })
                })?
            }
            Expr::And(es) => connective(es, batch, false, "AND")?,
            Expr::Or(es) => connective(es, batch, true, "OR")?,
            Expr::Not(e) => map(e.eval(batch)?.as_ref(), |v| match v {
                ValueRef::Bool(b) => Ok(ValueRef::Bool(!b)),
                ValueRef::Null => Ok(ValueRef::Null),
                v => Err(EonError::Query(format!("NOT over non-boolean {}", v.to_value()))),
            })?,
            Expr::IsNull(e) => map(e.eval(batch)?.as_ref(), |v| Ok(ValueRef::Bool(v.is_null())))?,
            Expr::Case { whens, otherwise } => {
                // Each row takes its first true WHEN; each branch's
                // result is evaluated over the rows that took it, then
                // the results interleave back into row order.
                let mut pending: Vec<usize> = (0..n).collect();
                let mut branch_of = vec![whens.len(); n];
                let mut results = Vec::with_capacity(whens.len() + 1);
                for (b, (cond, out)) in whens.iter().enumerate() {
                    let sub = rows_of(batch, &pending);
                    let verdict = cond.eval(&sub)?;
                    let (took, rest): (Vec<usize>, Vec<usize>) = (0..pending.len())
                        .partition(|&k| matches!(verdict.get(k), ValueRef::Bool(true)));
                    results.push(out.eval(&rows_of(&sub, &took))?.into_owned());
                    took.iter().for_each(|&k| branch_of[pending[k]] = b);
                    pending = rest.into_iter().map(|k| pending[k]).collect();
                }
                results.push(otherwise.eval(&rows_of(batch, &pending))?.into_owned());
                let mut cursor = vec![0; results.len()];
                cells(n, |i| {
                    let b = branch_of[i];
                    cursor[b] += 1;
                    Ok(results[b].get(cursor[b] - 1))
                })?
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => map(expr.eval(batch)?.as_ref(), |v| match v {
                ValueRef::Null => Ok(ValueRef::Null),
                ValueRef::Str(s) => Ok(ValueRef::Bool(like_match(s, pattern) != *negated)),
                v => Err(EonError::Query(format!("LIKE over non-string {}", v.to_value()))),
            })?,
            Expr::InList {
                expr,
                list,
                negated,
            } => map(expr.eval(batch)?.as_ref(), |v| {
                let found = || list.iter().any(|x| x.as_ref() == v);
                Ok(if v.is_null() { v } else { ValueRef::Bool(found() != *negated) })
            })?,
            Expr::ExtractYear(e) => map(e.eval(batch)?.as_ref(), |v| match v {
                ValueRef::Date(d) => Ok(ValueRef::Int(eon_types::value::days_to_ymd(d).0 as i64)),
                ValueRef::Null => Ok(ValueRef::Null),
                v => Err(EonError::Query(format!("EXTRACT over non-date {}", v.to_value()))),
            })?,
        }))
    }
}

/// A column of `n` rows from one cell per row.
fn cells<'a>(n: usize, mut cell: impl FnMut(usize) -> Result<ValueRef<'a>>) -> Result<Column> {
    let mut out = Column::nulls(0);
    for i in 0..n {
        out.push(cell(i)?);
    }
    Ok(out)
}

fn map<'a>(col: &'a Column, f: impl Fn(ValueRef<'a>) -> Result<ValueRef<'a>>) -> Result<Column> {
    cells(col.len(), |i| f(col.get(i)))
}

/// The rows `picked` (ascending, distinct) of `batch` — the batch
/// itself when that is all of them.
fn rows_of<'a>(batch: &'a Batch, picked: &[usize]) -> Cow<'a, Batch> {
    if picked.len() == batch.rows() {
        Cow::Borrowed(batch)
    } else {
        Cow::Owned(batch.gather(picked))
    }
}

/// Three-valued `AND` (`decisive == false`) / `OR` (`decisive == true`):
/// a row stops at its first decisive term, and later terms are
/// evaluated only over the rows still undecided.
fn connective(terms: &[Expr], batch: &Batch, decisive: bool, name: &str) -> Result<Column> {
    // Per row: Some(!decisive) so far, None once a NULL was seen.
    let mut verdict = vec![Some(!decisive); batch.rows()];
    let mut pending: Vec<usize> = (0..batch.rows()).collect();
    for term in terms {
        let sub = rows_of(batch, &pending);
        let col = term.eval(&sub)?;
        let mut undecided = Vec::with_capacity(pending.len());
        for (k, &i) in pending.iter().enumerate() {
            match col.get(k) {
                ValueRef::Bool(b) if b == decisive => verdict[i] = Some(decisive),
                ValueRef::Bool(_) => undecided.push(i),
                ValueRef::Null => {
                    verdict[i] = None;
                    undecided.push(i);
                }
                v => {
                    return Err(EonError::Query(format!("{name} over non-boolean {}", v.to_value())))
                }
            }
        }
        pending = undecided;
    }
    cells(verdict.len(), |i| Ok(verdict[i].map_or(ValueRef::Null, ValueRef::Bool)))
}

/// `l op r` in one monomorphic loop when both sides are `Int` / `Float`
/// columns, under [`eval_arith`]'s rules: Int op Int wraps, `/` goes
/// Float, a mixed pair is computed as `f64`, division by zero is NULL.
/// A cell is valid where both inputs are and the divisor is not zero.
/// `None` for every other pair: the per-cell loop, which is the
/// reference and the only path that raises type errors, evaluates those.
fn arith_typed(op: ArithOp, l: &Column, r: &Column) -> Option<Column> {
    let mut valid = match (l.valid(), r.valid()) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| x & y).collect()),
    };
    let int = |x: &i64| *x as f64;
    let float = |x: &f64| *x;
    let data = match (l.data(), r.data(), op) {
        (Data::Int(a), Data::Int(b), ArithOp::Add) => Data::Int(zip(a, b, i64::wrapping_add)),
        (Data::Int(a), Data::Int(b), ArithOp::Sub) => Data::Int(zip(a, b, i64::wrapping_sub)),
        (Data::Int(a), Data::Int(b), ArithOp::Mul) => Data::Int(zip(a, b, i64::wrapping_mul)),
        (Data::Int(a), Data::Int(b), ArithOp::Div) => float_arith(op, a, b, int, int, &mut valid),
        (Data::Int(a), Data::Float(b), _) => float_arith(op, a, b, int, float, &mut valid),
        (Data::Float(a), Data::Int(b), _) => float_arith(op, a, b, float, int, &mut valid),
        (Data::Float(a), Data::Float(b), _) => float_arith(op, a, b, float, float, &mut valid),
        _ => return None,
    };
    Some(typed_column(data, valid))
}

/// A typed arithmetic result under its validity: a NULL cell holds the
/// type's default, as `Column::push` leaves it.
fn typed_column(mut data: Data, valid: Option<Vec<bool>>) -> Column {
    fn clear<T: Default>(cells: &mut [T], valid: &[bool]) {
        cells.iter_mut().zip(valid).filter(|(_, ok)| !**ok).for_each(|(x, _)| *x = T::default());
    }
    match (&mut data, &valid) {
        (Data::Int(v), Some(ok)) => clear(v, ok),
        (Data::Float(v), Some(ok)) => clear(v, ok),
        _ => {}
    }
    Column::new(data, valid)
}

/// `x op col` (`lit_left`) or `col op x` for a numeric literal `x`, the
/// literal broadcast to every row: the cells and bits [`arith_typed`]
/// computes over a column of copies of `x`. `None` unless `col` is
/// `Int` or `Float`.
fn arith_literal(op: ArithOp, col: &Column, x: ValueRef<'_>, lit_left: bool) -> Option<Column> {
    let mut valid = col.valid().map(<[bool]>::to_vec);
    let data = match (col.data(), x) {
        (Data::Int(a), ValueRef::Int(x)) if op != ArithOp::Div => {
            let f = match op {
                ArithOp::Add => i64::wrapping_add,
                ArithOp::Sub => i64::wrapping_sub,
                _ => i64::wrapping_mul,
            };
            Data::Int(each(a, |c| c, x, lit_left, f))
        }
        (Data::Int(a), x) => float_literal(op, a, |c| c as f64, x.as_float()?, lit_left, &mut valid),
        (Data::Float(a), x) => float_literal(op, a, |c| c, x.as_float()?, lit_left, &mut valid),
        _ => return None,
    };
    Some(typed_column(data, valid))
}

/// `f(x, widen(cell))` (`lit_left`) or `f(widen(cell), x)` for every cell.
fn each<T: Copy, X: Copy, R>(
    cells: &[T],
    widen: impl Fn(T) -> X,
    x: X,
    lit_left: bool,
    f: impl Fn(X, X) -> R,
) -> Vec<R> {
    if lit_left {
        cells.iter().map(|&c| f(x, widen(c))).collect()
    } else {
        cells.iter().map(|&c| f(widen(c), x)).collect()
    }
}

/// [`arith_literal`] as `f64`s, each cell widened by `widen`; a zero
/// divisor clears its cell in `valid`.
fn float_literal<T: Copy>(
    op: ArithOp,
    cells: &[T],
    widen: impl Fn(T) -> f64 + Copy,
    x: f64,
    lit_left: bool,
    valid: &mut Option<Vec<bool>>,
) -> Data {
    Data::Float(match op {
        ArithOp::Add => each(cells, widen, x, lit_left, |p, q| p + q),
        ArithOp::Sub => each(cells, widen, x, lit_left, |p, q| p - q),
        ArithOp::Mul => each(cells, widen, x, lit_left, |p, q| p * q),
        ArithOp::Div => {
            let zero = |c: &T| widen(*c) == 0.0;
            if (lit_left && cells.iter().any(zero)) || (!lit_left && x == 0.0) {
                let valid = valid.get_or_insert_with(|| vec![true; cells.len()]);
                valid.iter_mut().zip(cells).for_each(|(ok, c)| *ok &= lit_left && !zero(c));
            }
            each(cells, widen, x, lit_left, |p, q| p / q)
        }
    })
}

fn zip<T: Copy>(a: &[T], b: &[T], f: impl Fn(T, T) -> T) -> Vec<T> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// `a op b` as `f64`s, each side widened by its `fa` / `fb`; a zero
/// divisor clears its cell in `valid`.
fn float_arith<A, B>(
    op: ArithOp,
    a: &[A],
    b: &[B],
    fa: impl Fn(&A) -> f64,
    fb: impl Fn(&B) -> f64,
    valid: &mut Option<Vec<bool>>,
) -> Data {
    let pairs = a.iter().zip(b).map(|(x, y)| (fa(x), fb(y)));
    Data::Float(match op {
        ArithOp::Add => pairs.map(|(x, y)| x + y).collect(),
        ArithOp::Sub => pairs.map(|(x, y)| x - y).collect(),
        ArithOp::Mul => pairs.map(|(x, y)| x * y).collect(),
        ArithOp::Div => {
            if b.iter().any(|y| fb(y) == 0.0) {
                let valid = valid.get_or_insert_with(|| vec![true; b.len()]);
                valid.iter_mut().zip(b).for_each(|(ok, y)| *ok &= fb(y) != 0.0);
            }
            pairs.map(|(x, y)| x / y).collect()
        }
    })
}

fn eval_arith<'a>(op: ArithOp, l: ValueRef<'_>, r: ValueRef<'_>) -> Result<ValueRef<'a>> {
    if l.is_null() || r.is_null() {
        return Ok(ValueRef::Null);
    }
    // Int op Int stays Int (except division, which goes Float like
    // most analytics engines' default for averages of money).
    if let (ValueRef::Int(a), ValueRef::Int(b)) = (l, r) {
        return Ok(match op {
            ArithOp::Add => ValueRef::Int(a.wrapping_add(b)),
            ArithOp::Sub => ValueRef::Int(a.wrapping_sub(b)),
            ArithOp::Mul => ValueRef::Int(a.wrapping_mul(b)),
            ArithOp::Div => {
                if b == 0 {
                    ValueRef::Null
                } else {
                    ValueRef::Float(a as f64 / b as f64)
                }
            }
        });
    }
    let (a, b) = match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(EonError::Query(format!(
                "arithmetic over non-numeric values {} and {}",
                l.to_value(),
                r.to_value()
            )))
        }
    };
    Ok(match op {
        ArithOp::Add => ValueRef::Float(a + b),
        ArithOp::Sub => ValueRef::Float(a - b),
        ArithOp::Mul => ValueRef::Float(a * b),
        ArithOp::Div => {
            if b == 0.0 {
                ValueRef::Null
            } else {
                ValueRef::Float(a / b)
            }
        }
    })
}

/// `%`-wildcard LIKE matching (no `_`, which TPC-H doesn't use).
/// Greedy segment matching: split the pattern on `%` and find each
/// literal segment in order.
fn like_match(s: &str, pattern: &str) -> bool {
    let segments: Vec<&str> = pattern.split('%').collect();
    if segments.len() == 1 {
        return s == pattern;
    }
    let mut pos = 0usize;
    for (i, seg) in segments.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        if i == 0 {
            if !s.starts_with(seg) {
                return false;
            }
            pos = seg.len();
        } else if i == segments.len() - 1 {
            return s.len() >= pos + seg.len() && s.ends_with(seg);
        } else {
            match s[pos..].find(seg) {
                Some(off) => pos = pos + off + seg.len(),
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::value::date;

    fn irow(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// Evaluate over the one-row batch holding `row`.
    fn eval(e: &Expr, row: &[Value]) -> Result<Value> {
        let batch = Batch::from_rows(&[row.to_vec()], row.len());
        Ok(e.eval(&batch)?.get(0).to_value())
    }

    fn eval_filter(e: &Expr, row: &[Value]) -> bool {
        matches!(eval(e, row).unwrap(), Value::Bool(true))
    }

    #[test]
    fn arithmetic_types() {
        let row = irow(&[6, 3]);
        assert_eq!(
            eval(&Expr::add(Expr::col(0), Expr::col(1)), &row).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            eval(&Expr::div(Expr::col(0), Expr::col(1)), &row).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            eval(&Expr::mul(Expr::lit(1.5), Expr::col(1)), &row).unwrap(),
            Value::Float(4.5)
        );
    }

    #[test]
    fn null_propagation() {
        let row = vec![Value::Null, Value::Int(1)];
        assert!(eval(&Expr::add(Expr::col(0), Expr::col(1)), &row).unwrap().is_null());
        assert!(eval(&Expr::eq(Expr::col(0), Expr::col(1)), &row).unwrap().is_null());
        assert!(!eval_filter(&Expr::eq(Expr::col(0), Expr::col(1)), &row));
        assert_eq!(
            eval(&Expr::IsNull(Box::new(Expr::col(0))), &row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let row = irow(&[5, 0]);
        assert!(eval(&Expr::div(Expr::col(0), Expr::col(1)), &row).unwrap().is_null());
        let rowf = vec![Value::Float(5.0), Value::Float(0.0)];
        assert!(eval(&Expr::div(Expr::col(0), Expr::col(1)), &rowf).unwrap().is_null());
    }

    #[test]
    fn three_valued_and_or() {
        let row = vec![Value::Null];
        let null_cond = Expr::eq(Expr::col(0), Expr::lit(1i64));
        // false AND NULL = false; true OR NULL = true
        assert_eq!(
            eval(&Expr::And(vec![Expr::lit(false), null_cond.clone()]), &row).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&Expr::Or(vec![Expr::lit(true), null_cond.clone()]), &row).unwrap(),
            Value::Bool(true)
        );
        // true AND NULL = NULL
        assert!(eval(&Expr::And(vec![Expr::lit(true), null_cond]), &row).unwrap().is_null());
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            whens: vec![
                (Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10i64)), Expr::lit("small")),
                (Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(100i64)), Expr::lit("medium")),
            ],
            otherwise: Box::new(Expr::lit("large")),
        };
        assert_eq!(eval(&e, &irow(&[5])).unwrap(), Value::Str("small".into()));
        assert_eq!(eval(&e, &irow(&[50])).unwrap(), Value::Str("medium".into()));
        assert_eq!(eval(&e, &irow(&[500])).unwrap(), Value::Str("large".into()));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO BRUSHED STEEL", "PROMO%"));
        assert!(like_match("forest green", "%green"));
        assert!(like_match("MEDIUM POLISHED BRASS", "%POLISHED%"));
        assert!(!like_match("ECONOMY BRASS", "%POLISHED%"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("special requests", "%special%requests%"));
        assert!(!like_match("requests special", "%special%requests%"));
        assert!(like_match("", "%"));
    }

    #[test]
    fn like_negated_and_null() {
        let e = Expr::Like {
            expr: Box::new(Expr::col(0)),
            pattern: "x%".into(),
            negated: true,
        };
        assert_eq!(
            eval(&e, &[Value::Str("yes".into())]).unwrap(),
            Value::Bool(true)
        );
        assert!(eval(&e, &[Value::Null]).unwrap().is_null());
    }

    #[test]
    fn in_list() {
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Value::Int(1), Value::Int(3)],
            negated: false,
        };
        assert_eq!(eval(&e, &irow(&[3])).unwrap(), Value::Bool(true));
        assert_eq!(eval(&e, &irow(&[2])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn extract_year() {
        let e = Expr::ExtractYear(Box::new(Expr::col(0)));
        assert_eq!(eval(&e, &[date(1995, 6, 1)]).unwrap(), Value::Int(1995));
        assert!(eval(&e, &[Value::Null]).unwrap().is_null());
    }

    #[test]
    fn type_errors_surface() {
        let row = vec![Value::Str("a".into()), Value::Int(1)];
        assert!(eval(&Expr::add(Expr::col(0), Expr::col(1)), &row).is_err());
        assert!(eval(&Expr::Not(Box::new(Expr::col(1))), &row).is_err());
    }
}
