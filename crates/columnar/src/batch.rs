//! Typed column batches: the one thing that flows from block decode
//! to the `ROWS` edge (DESIGN.md "Execution engine: batches").
//!
//! A [`Batch`] is a row count and one [`Column`] per output column. A
//! column is a typed vector — `i64`, `f64`, `i32` days, `bool`, or a
//! string arena with no allocation per cell — plus a validity mask for
//! its NULLs. Two escape hatches keep every SQL semantic the row engine
//! had: [`Data::Null`] is `n` NULLs of no particular type (outer-join
//! padding, a `NULL` literal), and [`Data::Values`] holds tagged
//! [`Value`]s for the heterogeneous columns `CASE` or mixed arithmetic
//! can produce. [`Column::push`] picks the representation: typed while
//! the cells agree, `Values` from the first one that does not.

use eon_types::{Value, ValueRef};

/// The strings of one column in one buffer: string `i` is
/// `bytes[ends[i - 1]..ends[i]]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StrVec {
    ends: Vec<u32>,
    bytes: String,
}

impl StrVec {
    /// `n` empty strings: the slots of `n` NULLs.
    pub fn nulls(n: usize) -> StrVec {
        StrVec { ends: vec![0; n], bytes: String::new() }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends
            .push(u32::try_from(self.bytes.len()).expect("string column stays under 4 GiB"));
    }

    fn extend(&mut self, other: &StrVec) {
        let base = self.bytes.len() as u32;
        self.bytes.push_str(&other.bytes);
        u32::try_from(self.bytes.len()).expect("string column stays under 4 GiB");
        self.ends.extend(other.ends.iter().map(|e| base + e));
    }
}

/// A column's cells. In the typed variants a NULL cell holds the type's
/// default and is marked in the column's validity mask.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// `n` NULLs of no particular type.
    Null(usize),
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Days since 1970-01-01.
    Date(Vec<i32>),
    Bool(Vec<bool>),
    Str(StrVec),
    /// Heterogeneous fallback; NULLs are `Value::Null`.
    Values(Vec<Value>),
}

/// One column of a [`Batch`]. Two columns are equal when their cells
/// are, structurally (same variant, floats by bits), however each is
/// represented.
#[derive(Debug, Clone)]
pub struct Column {
    data: Data,
    /// `Some` only on a typed column; `false` marks a NULL cell.
    valid: Option<Vec<bool>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a.same_repr(b))
    }
}

impl Column {
    /// A typed column; `valid`, when given, marks its NULLs `false`.
    pub fn new(data: Data, valid: Option<Vec<bool>>) -> Column {
        let col = Column { data, valid };
        assert!(col.valid.as_ref().is_none_or(|v| {
            v.len() == col.len() && !matches!(col.data, Data::Null(_) | Data::Values(_))
        }));
        col
    }

    pub fn nulls(n: usize) -> Column {
        Column { data: Data::Null(n), valid: None }
    }

    /// `n` copies of `v`, filled straight into the typed vector.
    pub fn constant(v: ValueRef<'_>, n: usize) -> Column {
        let data = match v {
            ValueRef::Null => Data::Null(n),
            ValueRef::Int(x) => Data::Int(vec![x; n]),
            ValueRef::Float(x) => Data::Float(vec![x; n]),
            ValueRef::Date(x) => Data::Date(vec![x; n]),
            ValueRef::Bool(x) => Data::Bool(vec![x; n]),
            ValueRef::Str(s) => {
                let mut strs = StrVec::default();
                (0..n).for_each(|_| strs.push(s));
                Data::Str(strs)
            }
        };
        Column { data, valid: None }
    }

    pub fn from_values<'a>(values: impl IntoIterator<Item = ValueRef<'a>>) -> Column {
        let mut col = Column::nulls(0);
        values.into_iter().for_each(|v| col.push(v));
        col
    }

    pub fn data(&self) -> &Data {
        &self.data
    }

    pub fn valid(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    pub fn len(&self) -> usize {
        match &self.data {
            Data::Null(n) => *n,
            Data::Int(v) => v.len(),
            Data::Float(v) => v.len(),
            Data::Date(v) => v.len(),
            Data::Bool(v) => v.len(),
            Data::Str(v) => v.len(),
            Data::Values(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i`, borrowed.
    pub fn get(&self, i: usize) -> ValueRef<'_> {
        if self.valid.as_ref().is_some_and(|v| !v[i]) {
            return ValueRef::Null;
        }
        match &self.data {
            Data::Null(_) => ValueRef::Null,
            Data::Int(v) => ValueRef::Int(v[i]),
            Data::Float(v) => ValueRef::Float(v[i]),
            Data::Date(v) => ValueRef::Date(v[i]),
            Data::Bool(v) => ValueRef::Bool(v[i]),
            Data::Str(v) => ValueRef::Str(v.get(i)),
            Data::Values(v) => v[i].as_ref(),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    pub fn to_values(&self) -> Vec<Value> {
        let mut out: Vec<Value> = match &self.data {
            Data::Int(v) => v.iter().map(|&x| Value::Int(x)).collect(),
            Data::Float(v) => v.iter().map(|&x| Value::Float(x)).collect(),
            Data::Date(v) => v.iter().map(|&x| Value::Date(x)).collect(),
            _ => return self.iter().map(ValueRef::to_value).collect(),
        };
        for (cell, ok) in out.iter_mut().zip(self.valid.iter().flatten()) {
            if !ok {
                *cell = Value::Null;
            }
        }
        out
    }

    /// Append one cell, keeping the column typed while its cells agree:
    /// untyped NULLs take the type of the first value after them, and a
    /// value of another type turns the column into `Values`.
    pub fn push(&mut self, v: ValueRef<'_>) {
        match (&mut self.data, v) {
            (Data::Int(d), ValueRef::Int(x)) => d.push(x),
            (Data::Float(d), ValueRef::Float(x)) => d.push(x),
            (Data::Date(d), ValueRef::Date(x)) => d.push(x),
            (Data::Bool(d), ValueRef::Bool(x)) => d.push(x),
            (Data::Str(d), ValueRef::Str(x)) => d.push(x),
            (Data::Values(d), v) => return d.push(v.to_value()),
            (Data::Null(n), ValueRef::Null) => return *n += 1,
            _ => return self.push_retyping(v),
        }
        if let Some(valid) = &mut self.valid {
            valid.push(true);
        }
    }

    /// The cases of [`push`](Self::push) that change the column's shape:
    /// its first NULL, its first value, a value of another type.
    fn push_retyping(&mut self, v: ValueRef<'_>) {
        let n = self.len();
        if let Data::Null(_) = self.data {
            self.valid = (n > 0).then(|| vec![false; n]);
            self.data = match v {
                ValueRef::Int(_) => Data::Int(vec![0; n]),
                ValueRef::Float(_) => Data::Float(vec![0.0; n]),
                ValueRef::Date(_) => Data::Date(vec![0; n]),
                ValueRef::Bool(_) => Data::Bool(vec![false; n]),
                ValueRef::Str(_) => Data::Str(StrVec::nulls(n)),
                ValueRef::Null => unreachable!("push counts untyped NULLs"),
            };
            return self.push(v);
        }
        if !v.is_null() {
            self.data = Data::Values(self.to_values());
            self.valid = None;
            return self.push(v);
        }
        match &mut self.data {
            Data::Int(d) => d.push(0),
            Data::Float(d) => d.push(0.0),
            Data::Date(d) => d.push(0),
            Data::Bool(d) => d.push(false),
            Data::Str(d) => d.push(""),
            Data::Null(_) | Data::Values(_) => unreachable!("push handles these"),
        }
        self.valid.get_or_insert_with(|| vec![true; n]).push(false);
    }

    /// The cells at `idx`, in that order. An index past the end yields
    /// NULL (the padding of an outer join's unmatched rows).
    pub fn gather(&self, idx: &[usize]) -> Column {
        let len = self.len();
        fn pick<T: Copy + Default>(cells: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| cells.get(i).copied().unwrap_or_default()).collect()
        }
        let data = match &self.data {
            Data::Null(_) => Data::Null(idx.len()),
            Data::Int(v) => Data::Int(pick(v, idx)),
            Data::Float(v) => Data::Float(pick(v, idx)),
            Data::Date(v) => Data::Date(pick(v, idx)),
            Data::Bool(v) => Data::Bool(pick(v, idx)),
            Data::Str(v) => {
                let mut out = StrVec::default();
                idx.iter().for_each(|&i| out.push(if i < len { v.get(i) } else { "" }));
                Data::Str(out)
            }
            Data::Values(v) => {
                Data::Values(idx.iter().map(|&i| v.get(i).cloned().unwrap_or(Value::Null)).collect())
            }
        };
        let typed = !matches!(data, Data::Null(_) | Data::Values(_));
        let valid = (typed && (self.valid.is_some() || idx.iter().any(|&i| i >= len))).then(|| {
            let ok = |i: usize| i < len && self.valid.as_ref().is_none_or(|v| v[i]);
            idx.iter().map(|&i| ok(i)).collect()
        });
        Column { data, valid }
    }

    /// Append `other`'s cells.
    pub fn append(&mut self, other: Column) {
        if self.is_empty() && matches!(self.data, Data::Null(_)) {
            *self = other;
            return;
        }
        let (n, m) = (self.len(), other.len());
        match (&mut self.data, other.data) {
            (Data::Int(a), Data::Int(b)) => a.extend(b),
            (Data::Float(a), Data::Float(b)) => a.extend(b),
            (Data::Date(a), Data::Date(b)) => a.extend(b),
            (Data::Bool(a), Data::Bool(b)) => a.extend(b),
            (Data::Str(a), Data::Str(b)) => a.extend(&b),
            (Data::Values(a), Data::Values(b)) => a.extend(b),
            (Data::Null(a), Data::Null(b)) => *a += b,
            (_, data) => {
                let other = Column { data, valid: other.valid };
                return other.iter().for_each(|v| self.push(v));
            }
        }
        if self.valid.is_some() || other.valid.is_some() {
            let valid = self.valid.get_or_insert_with(|| vec![true; n]);
            valid.extend(other.valid.unwrap_or_else(|| vec![true; m]));
        }
    }
}

/// A block of rows, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    cols: Vec<Column>,
    /// Kept beside the columns: a batch of no columns still has rows.
    rows: usize,
}

impl Batch {
    pub fn new(cols: Vec<Column>, rows: usize) -> Batch {
        assert!(cols.iter().all(|c| c.len() == rows), "ragged batch");
        Batch { cols, rows }
    }

    /// `rows` rows of `width` untyped NULL columns; with `rows == 0`,
    /// the empty batch that still knows its width.
    pub fn nulls(width: usize, rows: usize) -> Batch {
        Batch { cols: vec![Column::nulls(rows); width], rows }
    }

    /// Transpose rows (each `width` wide) into a batch.
    pub fn from_rows(rows: &[Vec<Value>], width: usize) -> Batch {
        let col = |c: usize| Column::from_values(rows.iter().map(|r| r[c].as_ref()));
        Batch { cols: (0..width).map(col).collect(), rows: rows.len() }
    }

    /// Transpose into rows: the edges that are rows by contract.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        (0..self.rows)
            .map(|i| self.cols.iter().map(|c| c.get(i).to_value()).collect())
            .collect()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    pub fn into_cols(self) -> Vec<Column> {
        self.cols
    }

    pub fn gather(&self, idx: &[usize]) -> Batch {
        Batch { cols: self.cols.iter().map(|c| c.gather(idx)).collect(), rows: idx.len() }
    }

    /// Append `other`'s rows (same width).
    pub fn append(&mut self, other: Batch) {
        assert_eq!(self.cols.len(), other.cols.len(), "batch widths differ");
        self.rows += other.rows;
        for (a, b) in self.cols.iter_mut().zip(other.cols) {
            a.append(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-zé]{0,4}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            any::<i32>().prop_map(Value::Date),
        ]
    }

    /// A column of one type (with NULLs) or, for `kind == 5`, of any mix.
    fn column() -> impl Strategy<Value = Vec<Value>> {
        (0usize..6, proptest::collection::vec(cell(), 0..40)).prop_map(|(kind, cells)| {
            let keep = |v: &Value| kind == 5 || v.is_null() || v.data_type().map(|t| t as usize) == Some(kind);
            cells.into_iter().filter(keep).collect()
        })
    }

    fn debug(col: &Column) -> String {
        format!("{:?}", col.to_values())
    }

    #[test]
    fn push_keeps_homogeneous_columns_typed() {
        let vals = [Value::Null, Value::Int(1), Value::Null, Value::Int(i64::MIN)];
        let col = Column::from_values(vals.iter().map(Value::as_ref));
        assert!(matches!(col.data(), Data::Int(_)));
        assert_eq!(col.valid(), Some(&[false, true, false, true][..]));
        let mixed = [Value::Int(1), Value::Float(1.0)];
        let col = Column::from_values(mixed.iter().map(Value::as_ref));
        assert!(matches!(col.data(), Data::Values(_)));
        assert_eq!(format!("{:?}", col.to_values()), format!("{mixed:?}"));
        assert_eq!(debug(&Column::constant(ValueRef::Str("é"), 3)), r#"[Str("é"), Str("é"), Str("é")]"#);
        assert!(matches!(Column::constant(ValueRef::Null, 2).data(), Data::Null(2)));
    }

    proptest! {
        /// Batch ↔ rows round-trips every cell exactly (floats by bits,
        /// variants included), whatever representation `push` chose.
        #[test]
        fn rows_round_trip(cols in proptest::collection::vec(column(), 0..4), rows in 0usize..20) {
            let rows = cols.iter().map(Vec::len).min().unwrap_or(rows);
            let input: Vec<Vec<Value>> =
                (0..rows).map(|i| cols.iter().map(|c| c[i].clone()).collect()).collect();
            let batch = Batch::from_rows(&input, cols.len());
            prop_assert_eq!((batch.rows(), batch.width()), (rows, cols.len()));
            prop_assert_eq!(format!("{:?}", batch.into_rows()), format!("{input:?}"));
        }

        /// `gather` (out-of-range = NULL) and `append` agree with the
        /// same operations on plain `Vec<Value>`s.
        #[test]
        fn column_ops_match_value_vectors(
            a in column(),
            b in column(),
            picks in proptest::collection::vec(0usize..50, 0..30),
        ) {
            let col = |v: &[Value]| Column::from_values(v.iter().map(Value::as_ref));
            let want: Vec<Value> =
                picks.iter().map(|&i| a.get(i).cloned().unwrap_or(Value::Null)).collect();
            prop_assert_eq!(debug(&col(&a).gather(&picks)), format!("{want:?}"));

            let mut joined = col(&a);
            joined.append(col(&b));
            let mut want = a.clone();
            want.extend(b.iter().cloned());
            prop_assert_eq!(joined.len(), want.len());
            prop_assert_eq!(debug(&joined), format!("{want:?}"));
        }
    }
}
