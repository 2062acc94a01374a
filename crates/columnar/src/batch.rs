//! Typed column batches: the one thing that flows from block decode
//! to the `ROWS` edge (DESIGN.md "Execution engine: batches").
//!
//! A [`Batch`] is a row count and one [`Column`] per output column. A
//! column is a typed vector — `i64`, `f64`, `i32` days, `bool`, or a
//! string arena with no allocation per cell — plus a validity mask for
//! its NULLs. Strings a block stored as RLE or Dict stay dictionary
//! codes ([`Data::Dict`]) from the scan to the operators. Two escape
//! hatches keep every SQL semantic the row engine had: [`Data::Null`]
//! is `n` NULLs of no particular type (outer-join padding, a `NULL`
//! literal), and [`Data::Values`] holds tagged [`Value`]s for the
//! heterogeneous columns `CASE` or mixed arithmetic can produce.
//! [`Column::push`] picks the representation: typed while the cells
//! agree, `Values` from the first one that does not.

use std::collections::HashMap;
use std::mem::discriminant;
use std::sync::Arc;

use eon_types::{
    hash_cells_finish, hash_cells_step, hash_value, DataType, EonError, Result, Schema, Value, ValueRef,
    HASH_CELLS_SEED,
};

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

    fn with_capacity(strings: usize, bytes: usize) -> StrVec {
        StrVec { ends: Vec::with_capacity(strings), bytes: String::with_capacity(bytes) }
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
    /// Strings as codes into a non-empty dictionary of distinct
    /// entries, shared through an `Arc` so a gather copies only codes.
    /// Every code is in range; a NULL cell's code is any of them.
    Dict { dict: Arc<StrVec>, codes: Vec<u32> },
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
        if let Data::Dict { dict, codes } = &col.data {
            let in_range = codes.iter().all(|&c| (c as usize) < dict.len());
            assert!(in_range, "dictionary code out of range");
        }
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

    /// The column [`push`](Self::push) builds from `values` one cell at a
    /// time, filled in one typed loop, sized up front, while the cells
    /// keep the first value's type — the load edge's case.
    pub fn from_values<'a>(values: impl IntoIterator<Item = ValueRef<'a>>) -> Column {
        /// Cells into `out` through `put` (a NULL as its type's default,
        /// marked in `valid`, made at the first NULL after `len` cells)
        /// up to the first cell `put` refuses, one of another type, which
        /// is handed back.
        fn fill<'a, T>(
            out: &mut T,
            valid: &mut Option<Vec<bool>>,
            mut len: usize,
            values: &mut impl Iterator<Item = ValueRef<'a>>,
            put: impl Fn(&mut T, ValueRef<'a>) -> bool,
        ) -> Option<ValueRef<'a>> {
            for v in values {
                if !put(out, v) {
                    return Some(v);
                }
                if v.is_null() {
                    valid.get_or_insert_with(|| vec![true; len]).push(false);
                } else if let Some(ok) = valid {
                    ok.push(true);
                }
                len += 1;
            }
            None
        }
        let mut values = values.into_iter();
        let mut col = Column::nulls(0);
        // Leading NULLs, then the first value, which types the column.
        for v in values.by_ref() {
            col.push(v);
            if !v.is_null() {
                break;
            }
        }
        let (len, more) = (col.len(), values.size_hint().0);
        let Column { data, valid } = &mut col;
        if let Some(ok) = valid {
            ok.reserve(more);
        }
        macro_rules! typed {
            ($out:expr, $variant:ident, $default:expr) => {{
                $out.reserve(more);
                let put = |out: &mut Vec<_>, v: ValueRef<'a>| match v {
                    ValueRef::$variant(x) => {
                        out.push(x);
                        true
                    }
                    ValueRef::Null => {
                        out.push($default);
                        true
                    }
                    _ => false,
                };
                fill($out, valid, len, &mut values, put)
            }};
        }
        let stray = match data {
            Data::Int(out) => typed!(out, Int, 0),
            Data::Float(out) => typed!(out, Float, 0.0),
            Data::Date(out) => typed!(out, Date, 0),
            Data::Bool(out) => typed!(out, Bool, false),
            Data::Str(out) => {
                out.ends.reserve(more);
                let put = |out: &mut StrVec, v: ValueRef<'a>| match v {
                    ValueRef::Str(x) => {
                        out.push(x);
                        true
                    }
                    ValueRef::Null => {
                        out.push("");
                        true
                    }
                    _ => false,
                };
                fill(out, valid, len, &mut values, put)
            }
            Data::Null(_) | Data::Dict { .. } | Data::Values(_) => None,
        };
        // A cell of another type makes the column `Values`; `push` takes
        // it from there.
        stray.into_iter().chain(values).for_each(|v| col.push(v));
        col
    }

    /// Cells as codes into `dict`, `None` for a NULL cell: what the
    /// block kernel makes of a string block stored as RLE or Dict.
    pub(crate) fn from_codes(
        dict: Arc<StrVec>,
        cells: impl Iterator<Item = Option<u32>>,
    ) -> Column {
        let mut codes = Vec::with_capacity(cells.size_hint().0);
        let mut nulls = Vec::new();
        for cell in cells {
            if cell.is_none() {
                nulls.push(codes.len());
            }
            codes.push(cell.unwrap_or(0));
        }
        let valid = (!nulls.is_empty()).then(|| {
            let mut valid = vec![true; codes.len()];
            nulls.iter().for_each(|&i| valid[i] = false);
            valid
        });
        Column { data: Data::Dict { dict, codes }, valid }
    }

    /// A string column's distinct strings in first-appearance order, and
    /// each cell's code into them (`None` for a NULL cell). `None` unless
    /// the column is `Str` with at least one string.
    pub(crate) fn dictionary(&self) -> Option<(Arc<StrVec>, Vec<Option<u32>>)> {
        let Data::Str(strs) = &self.data else { return None };
        let mut dict = StrVec::default();
        let mut index: HashMap<&str, u32> = HashMap::new();
        let code_of = (0..strs.len())
            .map(|j| {
                let s = strs.get(j);
                (!self.is_null(j)).then(|| {
                    *index.entry(s).or_insert_with(|| {
                        dict.push(s);
                        dict.len() as u32 - 1
                    })
                })
            })
            .collect();
        (!dict.is_empty()).then(|| (Arc::new(dict), code_of))
    }

    /// Cell `codes[i]` of this column for every `i` (each code in range):
    /// a Dict block's rows — all its codes, or the survivors' — its
    /// dictionary mapped through them. Numbers come out typed. Strings
    /// stay codes: moved as they are when the entries are already
    /// distinct and none is NULL, else remapped into the distinct
    /// entries.
    pub(crate) fn take_codes(&self, codes: Vec<u32>) -> Column {
        fn map<T: Copy>(cells: &[T], codes: &[u32]) -> Vec<T> {
            codes.iter().map(|&c| cells[c as usize]).collect()
        }
        let valid = self.valid.as_ref().map(|ok| map(ok, &codes));
        let data = match &self.data {
            Data::Int(v) => Data::Int(map(v, &codes)),
            Data::Float(v) => Data::Float(map(v, &codes)),
            Data::Date(v) => Data::Date(map(v, &codes)),
            Data::Bool(v) => Data::Bool(map(v, &codes)),
            Data::Dict { dict, codes: c } => Data::Dict { dict: dict.clone(), codes: map(c, &codes) },
            Data::Str(_) => {
                let Some((dict, code_of)) = self.dictionary() else {
                    return Column::nulls_like(&self.data, codes.len());
                };
                if code_of.iter().enumerate().all(|(j, c)| *c == Some(j as u32)) {
                    return Column { data: Data::Dict { dict, codes }, valid: None };
                }
                return Column::from_codes(dict, code_of.into_iter()).take_codes(codes);
            }
            Data::Null(_) => Data::Null(codes.len()),
            Data::Values(v) => Data::Values(codes.iter().map(|&c| v[c as usize].clone()).collect()),
        };
        Column { data, valid }
    }

    /// Cell `k` repeated `runs[k]` times, for every `k`: an RLE block's
    /// rows — its run lengths, or each run's survivor count — filled run
    /// by run. Strings come out dictionary-coded, as
    /// [`from_codes`](Self::from_codes) makes them.
    pub(crate) fn repeat_runs(&self, runs: &[u64]) -> Column {
        fn fill<T: Copy>(cells: &[T], runs: &[u64]) -> Vec<T> {
            let mut out = Vec::with_capacity(runs.iter().sum::<u64>() as usize);
            cells.iter().zip(runs).for_each(|(&x, &run)| out.resize(out.len() + run as usize, x));
            out
        }
        let valid = self.valid.as_ref().map(|ok| fill(ok, runs));
        let data = match &self.data {
            Data::Int(v) => Data::Int(fill(v, runs)),
            Data::Float(v) => Data::Float(fill(v, runs)),
            Data::Date(v) => Data::Date(fill(v, runs)),
            Data::Bool(v) => Data::Bool(fill(v, runs)),
            Data::Dict { dict, codes } => Data::Dict { dict: dict.clone(), codes: fill(codes, runs) },
            Data::Str(_) => {
                return match self.dictionary() {
                    Some((dict, code_of)) => Column::from_codes(dict, code_of.into_iter()).repeat_runs(runs),
                    None => Column::nulls_like(&self.data, runs.iter().sum::<u64>() as usize),
                };
            }
            Data::Null(_) => Data::Null(runs.iter().sum::<u64>() as usize),
            Data::Values(v) => {
                let cells = v.iter().zip(runs).flat_map(|(x, &run)| std::iter::repeat_n(x, run as usize));
                Data::Values(cells.cloned().collect())
            }
        };
        Column { data, valid }
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
            Data::Dict { codes, .. } => codes.len(),
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
            Data::Dict { dict, codes } => ValueRef::Str(dict.get(codes[i] as usize)),
            Data::Values(v) => v[i].as_ref(),
        }
    }

    /// Is cell `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            Data::Null(_) => true,
            Data::Values(v) => v[i].is_null(),
            _ => self.valid.as_ref().is_some_and(|v| !v[i]),
        }
    }

    /// Does cell `i` equal `other`'s cell `j` under `Value`'s equality
    /// (NULL equals NULL, `Int(1)` equals `Float(1.0)`)? Two cells coded
    /// into one dictionary compare their codes.
    pub fn cell_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        if let (Data::Dict { dict: a, codes: x }, Data::Dict { dict: b, codes: y }) =
            (&self.data, &other.data)
        {
            if Arc::ptr_eq(a, b) {
                let null = self.is_null(i);
                return null == other.is_null(j) && (null || x[i] == y[j]);
            }
        }
        self.get(i) == other.get(j)
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

    /// Fold every cell into its row's running [`hash_cells_32`] state,
    /// `states[i]` for row `i`: one typed loop per representation, and a
    /// dictionary's entries hashed once each. [`hash_rows`] starts and
    /// finishes the states.
    ///
    /// [`hash_cells_32`]: eon_types::hash_cells_32
    pub fn hash_into(&self, states: &mut [u64]) {
        assert_eq!(states.len(), self.len(), "one hash state per row");
        let null = hash_value(ValueRef::Null);
        fn fold(
            states: &mut [u64],
            valid: Option<&[bool]>,
            null: u64,
            digest: impl Fn(usize) -> u64,
        ) {
            let cells = states.iter_mut().enumerate();
            match valid {
                None => cells.for_each(|(i, s)| *s = hash_cells_step(*s, digest(i))),
                Some(ok) => cells.for_each(|(i, s)| {
                    *s = hash_cells_step(*s, if ok[i] { digest(i) } else { null })
                }),
            }
        }
        let valid = self.valid.as_deref();
        match &self.data {
            Data::Null(_) => states.iter_mut().for_each(|s| *s = hash_cells_step(*s, null)),
            Data::Int(v) => fold(states, valid, null, |i| hash_value(ValueRef::Int(v[i]))),
            Data::Float(v) => fold(states, valid, null, |i| hash_value(ValueRef::Float(v[i]))),
            Data::Date(v) => fold(states, valid, null, |i| hash_value(ValueRef::Date(v[i]))),
            Data::Bool(v) => fold(states, valid, null, |i| hash_value(ValueRef::Bool(v[i]))),
            Data::Str(v) => fold(states, valid, null, |i| hash_value(ValueRef::Str(v.get(i)))),
            Data::Dict { dict, codes } => {
                let entries: Vec<u64> =
                    (0..dict.len()).map(|j| hash_value(ValueRef::Str(dict.get(j)))).collect();
                fold(states, valid, null, |i| entries[codes[i] as usize])
            }
            Data::Values(v) => {
                states.iter_mut().zip(v).for_each(|(s, x)| *s = hash_cells_step(*s, hash_value(x)))
            }
        }
    }

    /// Append one cell, keeping the column typed while its cells agree:
    /// untyped NULLs take the type of the first value after them, and a
    /// value of another type turns the column into `Values`. A
    /// dictionary-coded column becomes plain strings first.
    pub fn push(&mut self, v: ValueRef<'_>) {
        if let Data::Dict { .. } = self.data {
            *self = std::mem::replace(self, Column::nulls(0)).expand();
        }
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
            *self = Column::nulls_like(&Column::constant(v, 0).data, n);
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
            Data::Null(_) | Data::Dict { .. } | Data::Values(_) => {
                unreachable!("push handles these")
            }
        }
        self.valid.get_or_insert_with(|| vec![true; n]).push(false);
    }

    /// A dictionary-coded column as plain strings; any other as it is.
    fn expand(self) -> Column {
        let Data::Dict { dict, codes } = &self.data else { return self };
        let cell = |(i, &c): (usize, &u32)| if self.is_null(i) { "" } else { dict.get(c as usize) };
        let bytes = codes.iter().enumerate().map(|c| cell(c).len()).sum();
        let mut strs = StrVec::with_capacity(codes.len(), bytes);
        codes.iter().enumerate().for_each(|c| strs.push(cell(c)));
        Column { data: Data::Str(strs), valid: self.valid }
    }

    /// `n` NULLs represented like `data`: a typed vector of defaults
    /// under an all-false mask (none when `n` is 0), or codes into the
    /// same dictionary.
    fn nulls_like(data: &Data, n: usize) -> Column {
        let data = match data {
            Data::Null(_) => return Column::nulls(n),
            Data::Values(_) => {
                return Column { data: Data::Values(vec![Value::Null; n]), valid: None }
            }
            Data::Int(_) => Data::Int(vec![0; n]),
            Data::Float(_) => Data::Float(vec![0.0; n]),
            Data::Date(_) => Data::Date(vec![0; n]),
            Data::Bool(_) => Data::Bool(vec![false; n]),
            Data::Str(_) => Data::Str(StrVec::nulls(n)),
            Data::Dict { dict, .. } => Data::Dict { dict: dict.clone(), codes: vec![0; n] },
        };
        Column { data, valid: (n > 0).then(|| vec![false; n]) }
    }

    /// The dictionary rule: a dictionary is kept while it holds at most
    /// a quarter of the rows it codes — the bound under which
    /// the encoder stores a block as Dict — and expands to plain
    /// strings otherwise.
    fn keep_or_expand(self) -> Column {
        match &self.data {
            Data::Dict { dict, codes } if dict.len() * 4 > codes.len() => self.expand(),
            _ => self,
        }
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
                let cell = |i: usize| if i < len { v.get(i) } else { "" };
                let mut out = StrVec::with_capacity(idx.len(), idx.iter().map(|&i| cell(i).len()).sum());
                idx.iter().for_each(|&i| out.push(cell(i)));
                Data::Str(out)
            }
            Data::Dict { dict, codes } => {
                Data::Dict { dict: dict.clone(), codes: pick(codes, idx) }
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
        Column { data, valid }.keep_or_expand()
    }

    /// Append `other`'s cells.
    pub fn append(&mut self, other: Column) {
        let this = std::mem::replace(self, Column::nulls(0));
        *self = Column::concat(vec![this, other]);
    }

    /// The pieces' cells, in order, in one column sized up front. Pieces
    /// of one representation concatenate their vectors; dictionaries
    /// merge, each piece's codes remapped into one dictionary of distinct
    /// entries (kept under the dictionary rule). Dictionary-coded pieces
    /// beside plain strings expand to strings, untyped NULL pieces take
    /// the others' representation, and any other mix of types is pushed
    /// cell by cell, as [`push`](Self::push) retypes.
    pub fn concat(pieces: Vec<Column>) -> Column {
        let rows = pieces.iter().map(Column::len).sum();
        let mut pieces: Vec<Column> = pieces.into_iter().filter(|p| !p.is_empty()).collect();
        if pieces.len() <= 1 {
            return pieces.pop().map_or(Column::nulls(0), Column::keep_or_expand);
        }
        let dict = |p: &Column| matches!(p.data, Data::Dict { .. });
        let untyped = |p: &Column| matches!(p.data, Data::Null(_));
        if pieces.iter().any(dict) && pieces.iter().any(|p| !dict(p) && !untyped(p)) {
            pieces = pieces.into_iter().map(Column::expand).collect();
        }
        // Untyped NULL pieces take the representation of the others.
        let like = pieces.iter().find(|p| !untyped(p)).map(|p| Column::nulls_like(&p.data, 0));
        if let Some(like) = like {
            pieces = (pieces.into_iter())
                .map(|p| match p.data {
                    Data::Null(n) => Column::nulls_like(&like.data, n),
                    _ => p,
                })
                .collect();
        }
        let shape = pieces.first().map(|p| discriminant(&p.data));
        if pieces.iter().any(|p| Some(discriminant(&p.data)) != shape) {
            let mut out = Column::nulls(0);
            pieces.iter().flat_map(Column::iter).for_each(|v| out.push(v));
            return out;
        }
        let valid = pieces.iter().any(|p| p.valid.is_some()).then(|| {
            let mut valid = Vec::with_capacity(rows);
            for p in &pieces {
                match &p.valid {
                    Some(ok) => valid.extend_from_slice(ok),
                    None => valid.resize(valid.len() + p.len(), true),
                }
            }
            valid
        });
        let mut rest = pieces.into_iter();
        let first = rest.next().expect("two pieces or more");
        macro_rules! cat {
            ($first:ident, $variant:path) => {{
                let mut all = $first;
                all.reserve(rows - all.len());
                rest.for_each(|p| if let $variant(v) = p.data { all.extend(v) });
                $variant(all)
            }};
        }
        let data = match first.data {
            Data::Null(_) => Data::Null(rows),
            Data::Int(v) => cat!(v, Data::Int),
            Data::Float(v) => cat!(v, Data::Float),
            Data::Date(v) => cat!(v, Data::Date),
            Data::Bool(v) => cat!(v, Data::Bool),
            Data::Values(v) => cat!(v, Data::Values),
            Data::Str(mut all) => {
                let str_of = |p: Column| if let Data::Str(s) = p.data { Some(s) } else { None };
                let strs: Vec<StrVec> = rest.filter_map(str_of).collect();
                all.ends.reserve(rows - all.len());
                all.bytes.reserve(strs.iter().map(|s| s.bytes.len()).sum());
                strs.iter().for_each(|s| all.extend(s));
                Data::Str(all)
            }
            data @ Data::Dict { .. } => {
                let first = Column { data, valid: None };
                merge_dicts(&std::iter::once(first).chain(rest).collect::<Vec<_>>(), rows)
            }
        };
        Column { data, valid }.keep_or_expand()
    }
}

/// One dictionary for dictionary-coded `pieces` (of `rows` rows in all)
/// and their codes remapped into it. A piece sharing the previous one's
/// dictionary reuses its remap.
fn merge_dicts(pieces: &[Column], rows: usize) -> Data {
    let mut dict = StrVec::default();
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut codes = Vec::with_capacity(rows);
    let mut last: Option<(&Arc<StrVec>, Vec<u32>)> = None;
    for p in pieces {
        let Data::Dict { dict: d, codes: c } = &p.data else {
            unreachable!("dictionary pieces only")
        };
        if !last.as_ref().is_some_and(|(prev, _)| Arc::ptr_eq(prev, d)) {
            let code_of = |j| {
                let s = d.get(j);
                *index.entry(s).or_insert_with(|| {
                    dict.push(s);
                    dict.len() as u32 - 1
                })
            };
            last = Some((d, (0..d.len()).map(code_of).collect()));
        }
        let remap = &last.as_ref().expect("set above").1;
        codes.extend(c.iter().map(|&k| remap[k as usize]));
    }
    Data::Dict { dict: Arc::new(dict), codes }
}

/// [`hash_cells_32`](eon_types::hash_cells_32) of each of `rows` rows'
/// cells across `cols`, computed a column at a time
/// ([`Column::hash_into`]): the hash a group or join key has, however
/// its columns are represented.
pub fn hash_rows(cols: &[&Column], rows: usize) -> Vec<u32> {
    let mut states = vec![HASH_CELLS_SEED; rows];
    cols.iter().for_each(|c| c.hash_into(&mut states));
    states.into_iter().map(hash_cells_finish).collect()
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

    /// Transpose rows (each `width` wide) into a batch, one typed loop
    /// per column ([`Column::from_values`]). Panics on a row narrower
    /// than `width`: the load edge checks widths first.
    pub fn from_rows(rows: &[Vec<Value>], width: usize) -> Batch {
        let col = |c: usize| Column::from_values(rows.iter().map(|r| r[c].as_ref()));
        Batch { cols: (0..width).map(col).collect(), rows: rows.len() }
    }

    /// [`from_rows`](Self::from_rows) behind the row edges' width check:
    /// a row narrower or wider than `width` is a typed
    /// [`EonError::SchemaMismatch`] before the transpose could index
    /// past it.
    pub fn from_rows_checked(rows: &[Vec<Value>], width: usize) -> Result<Batch> {
        if let Some(row) = rows.iter().find(|r| r.len() != width) {
            return Err(EonError::SchemaMismatch(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                width
            )));
        }
        Ok(Batch::from_rows(rows, width))
    }

    /// Does this batch conform to `schema` — one column per field, each
    /// of its field's type and, where the field is not nullable, without
    /// a NULL? Checked a column at a time: the column's representation
    /// names its type ([`Data::Null`] has none, a [`Data::Values`] column
    /// reports its first cell of another type) and its validity mask its
    /// NULLs. A violation is [`EonError::SchemaMismatch`].
    pub fn check_schema(&self, schema: &Schema) -> Result<()> {
        if self.width() != schema.len() {
            return Err(EonError::SchemaMismatch(format!(
                "batch has {} columns, schema has {} fields",
                self.width(),
                schema.len()
            )));
        }
        for (col, f) in self.cols.iter().zip(&schema.fields) {
            let dtype = match col.data() {
                Data::Null(_) => None,
                Data::Int(_) => Some(DataType::Int),
                Data::Float(_) => Some(DataType::Float),
                Data::Date(_) => Some(DataType::Date),
                Data::Bool(_) => Some(DataType::Bool),
                Data::Str(_) | Data::Dict { .. } => Some(DataType::Str),
                Data::Values(v) => v.iter().filter_map(Value::data_type).find(|&t| t != f.dtype),
            };
            if let Some(dt) = dtype.filter(|&dt| dt != f.dtype) {
                return Err(EonError::SchemaMismatch(format!(
                    "column {} expects {}, got {}",
                    f.name, f.dtype, dt
                )));
            }
            let has_null = match col.data() {
                Data::Null(n) => *n > 0,
                Data::Values(v) => v.iter().any(Value::is_null),
                _ => col.valid().is_some_and(|ok| ok.contains(&false)),
            };
            if has_null && !f.nullable {
                return Err(EonError::SchemaMismatch(format!("NULL in non-nullable column {}", f.name)));
            }
        }
        Ok(())
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

    /// Append `other`'s rows (of the same width), a column at a time
    /// ([`Column::append`]: a column's vectors grow in place).
    pub fn append(&mut self, other: Batch) {
        assert_eq!(other.width(), self.width(), "batch widths differ");
        self.cols.iter_mut().zip(other.cols).for_each(|(col, c)| col.append(c));
        self.rows += other.rows;
    }

    /// The pieces' rows, in order, as one batch `width` wide: each
    /// column concatenated once ([`Column::concat`]), sized up front.
    pub fn concat(pieces: Vec<Batch>, width: usize) -> Batch {
        let rows = pieces.iter().map(|b| b.rows).sum();
        let mut cols: Vec<Vec<Column>> =
            (0..width).map(|_| Vec::with_capacity(pieces.len())).collect();
        for piece in pieces {
            assert_eq!(piece.width(), width, "batch widths differ");
            cols.iter_mut().zip(piece.cols).for_each(|(col, c)| col.push(c));
        }
        Batch { cols: cols.into_iter().map(Column::concat).collect(), rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::hash_cells_32;
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

    /// The load edge's schema rules, a column at a time: width, each
    /// column's type (an Int cell in a Float column included), and
    /// NULLs only where the field is nullable.
    #[test]
    fn checked_rows_conform_to_the_schema_or_fail_typed() {
        use eon_types::{schema, DataType, EonError, Field};
        let s = schema![("id", Int), ("name", Str), ("price", Float)];
        let check = |rows: &[Vec<Value>], s: &Schema| {
            Batch::from_rows_checked(rows, s.len()).and_then(|b| b.check_schema(s))
        };
        let ok = vec![Value::Int(1), Value::Str("a".into()), Value::Float(2.0)];
        assert!(check(std::slice::from_ref(&ok), &s).is_ok());
        assert!(check(&[vec![Value::Null, Value::Null, Value::Null]], &s).is_ok(), "nullable");
        let mismatch = |r: Result<()>| matches!(r, Err(EonError::SchemaMismatch(_)));
        assert!(mismatch(check(&[ok.clone(), vec![Value::Int(1)]], &s)), "arity");
        let wrong = vec![Value::Str("x".into()), Value::Str("a".into()), Value::Float(2.0)];
        assert!(mismatch(check(&[ok.clone(), wrong], &s)), "type");
        let int_price = vec![Value::Int(1), Value::Str("a".into()), Value::Int(2)];
        assert!(mismatch(check(&[ok, int_price], &s)), "Int in a Float column");
        let not_null = Schema::new(vec![Field::new("id", DataType::Int).not_null()]);
        assert!(mismatch(check(&[vec![Value::Int(1)], vec![Value::Null]], &not_null)));
        assert!(check(&[vec![Value::Int(1)]], &not_null).is_ok());
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
            // The typed fill builds what `push` would, representation
            // and mask included.
            for (c, col) in batch.cols().iter().enumerate() {
                let mut pushed = Column::nulls(0);
                input.iter().for_each(|r| pushed.push(r[c].as_ref()));
                prop_assert_eq!(format!("{col:?}"), format!("{pushed:?}"));
            }
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

            // The column-wise hash is `hash_cells_32`, row by row.
            let (a, b) = (&a[..a.len().min(b.len())], &b[..a.len().min(b.len())]);
            let keys = [col(a), col(b)];
            let want: Vec<u32> =
                (0..a.len()).map(|i| hash_cells_32([a[i].as_ref(), b[i].as_ref()])).collect();
            prop_assert_eq!(hash_rows(&[&keys[0], &keys[1]], a.len()), want);
        }

        /// A dictionary-coded column — any entry order, unused entries
        /// included — is the same cells as the plain `Str` column under
        /// every `Column` operation: `get`, `gather` (past the end is
        /// NULL), `append` across different dictionaries, the concat
        /// (dictionary and plain pieces mixed), equality, `cell_eq`, and
        /// the column-wise hash, also beside Int/Float `Values` keys.
        #[test]
        fn dictionary_columns_behave_as_plain_strings(
            a in strings(),
            b in strings(),
            order_a in (0usize..720).prop_map(order),
            order_b in (0usize..720).prop_map(order),
            picks in proptest::collection::vec(0usize..50, 0..30),
            cuts in proptest::collection::vec(0usize..40, 0..4),
            nums in proptest::collection::vec(
                prop_oneof![
                    Just(Value::Null),
                    (-2i64..2).prop_map(Value::Int),
                    (-2i32..2).prop_map(|x| Value::Float(x as f64)),
                ],
                40..41,
            ),
        ) {
            let (dict, plain) = (coded(&a, &order_a), strs(&a));
            prop_assert!(matches!(dict.data(), Data::Dict { .. }));
            for i in 0..a.len() {
                prop_assert!(dict.get(i).same_repr(plain.get(i)));
                prop_assert_eq!(dict.is_null(i), plain.is_null(i));
                for j in 0..a.len() {
                    prop_assert_eq!(dict.cell_eq(i, &dict, j), plain.get(i) == plain.get(j));
                    prop_assert_eq!(dict.cell_eq(i, &plain, j), plain.get(i) == plain.get(j));
                }
            }
            prop_assert_eq!(&dict, &plain);
            prop_assert_eq!(debug(&dict.gather(&picks)), debug(&plain.gather(&picks)));

            let mut joined = dict.clone();
            joined.append(coded(&b, &order_b));
            let mut want = plain.clone();
            want.append(strs(&b));
            prop_assert_eq!(debug(&joined), debug(&want));

            // `a` cut into pieces, each coded with its own dictionary
            // (every other one plain when `b` is odd-sized), then `b`.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(a.len())).collect();
            bounds.extend([0, a.len()]);
            bounds.sort();
            let mut pieces: Vec<Column> = bounds
                .windows(2)
                .enumerate()
                .map(|(k, w)| {
                    let cells = &a[w[0]..w[1]];
                    match (k % 2, b.len() % 2) {
                        (1, 1) => strs(cells),
                        (1, _) => coded(cells, &order_b),
                        _ => coded(cells, &order_a),
                    }
                })
                .collect();
            pieces.push(coded(&b, &order_b));
            let all = Column::concat(pieces);
            prop_assert_eq!(debug(&all), debug(&want));
            prop_assert_eq!(&all, &want);

            let nums = Column::from_values(nums[..a.len()].iter().map(Value::as_ref));
            let want: Vec<u32> =
                (0..a.len()).map(|i| hash_cells_32([nums.get(i), plain.get(i)])).collect();
            prop_assert_eq!(hash_rows(&[&nums, &dict], a.len()), want.clone());
            prop_assert_eq!(hash_rows(&[&nums, &plain], a.len()), want);
        }
    }

    const WORDS: [&str; 6] = ["", "a", "ab", "é", "b", "aé"];

    /// Permutation number `k` (of 720) of the word indices.
    fn order(mut k: usize) -> Vec<usize> {
        let mut left: Vec<usize> = (0..WORDS.len()).collect();
        let mut out = Vec::new();
        while !left.is_empty() {
            let n = left.len();
            out.push(left.remove(k % n));
            k /= n;
        }
        out
    }

    /// Up to 40 cells over `WORDS`, NULLs among them, at least one string.
    fn strings() -> impl Strategy<Value = Vec<Option<usize>>> {
        let word = || (0..WORDS.len()).prop_map(Some);
        let cell = prop_oneof![Just(None), word(), word(), word()];
        (proptest::collection::vec(cell, 0..40), 0..WORDS.len())
            .prop_map(|(mut cells, w)| {
                cells.push(Some(w));
                cells
            })
    }

    fn strs(cells: &[Option<usize>]) -> Column {
        let word = |c: &Option<usize>| c.map_or(ValueRef::Null, |w| ValueRef::Str(WORDS[w]));
        Column::from_values(cells.iter().map(word))
    }

    /// `cells` as codes into a dictionary holding every word, in `order`.
    fn coded(cells: &[Option<usize>], order: &[usize]) -> Column {
        let mut dict = StrVec::default();
        order.iter().for_each(|&w| dict.push(WORDS[w]));
        let code = |w: usize| order.iter().position(|&o| o == w).unwrap() as u32;
        let codes = cells.iter().map(|c| c.map_or(0, code)).collect();
        let valid =
            cells.iter().any(Option::is_none).then(|| cells.iter().map(Option::is_some).collect());
        Column::new(Data::Dict { dict: Arc::new(dict), codes }, valid)
    }
}
