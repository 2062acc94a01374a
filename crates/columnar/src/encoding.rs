//! Column block encodings.
//!
//! Vertica's execution engine "can operate directly on encoded data,
//! effectively compressing CPU cycles as well" (§2.1); sorted data
//! compresses well, which is the point of projection sort orders. We
//! implement the classic column-store family:
//!
//! * **Plain** — tagged values, the fallback.
//! * **RLE** — run-length encoding; ideal for leading sort columns.
//! * **Dict** — dictionary + codes for low-cardinality columns.
//! * **Delta** — zigzag-varint deltas for integer/date columns, tiny
//!   when the column is sorted or clustered.
//!
//! [`encode_block`] picks an encoding by inspecting a block of a typed
//! column and writes a self-describing payload, so readers never guess.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;

use eon_types::{Result, Value, ValueRef};

use crate::batch::{Column, Data};
use crate::format::{Reader, Writer};
use crate::pruning::BlockView;

/// Available block encodings. The numeric discriminants are the on-disk
/// tags — do not reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    Plain = 0,
    Rle = 1,
    Dict = 2,
    Delta = 3,
}

impl Encoding {
    fn from_tag(t: u8) -> Option<Encoding> {
        match t {
            0 => Some(Encoding::Plain),
            1 => Some(Encoding::Rle),
            2 => Some(Encoding::Dict),
            3 => Some(Encoding::Delta),
            _ => None,
        }
    }
}

/// A cell keyed by its representation: equal exactly when
/// [`ValueRef::same_repr`] says so (same variant, floats by bits), never
/// by `Value`'s `==`, which deems `Int(1)` and `Float(1.0)` equal. The
/// RLE and Dict writers of a `Values` block key by it, so no stored
/// variant is ever rewritten into another that compares equal.
#[derive(Clone, Copy)]
struct Repr<'a>(ValueRef<'a>);

impl PartialEq for Repr<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.same_repr(other.0)
    }
}

impl Eq for Repr<'_> {}

impl Hash for Repr<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(&self.0).hash(h);
        match self.0 {
            ValueRef::Null => {}
            ValueRef::Int(x) => x.hash(h),
            ValueRef::Float(x) => x.to_bits().hash(h),
            ValueRef::Str(s) => s.hash(h),
            ValueRef::Bool(b) => b.hash(h),
            ValueRef::Date(d) => d.hash(h),
        }
    }
}

/// The per-block encoding rule over a block of `rows` cells in `runs`
/// runs (cells compared by `Value`'s `==`): RLE when runs average four
/// rows or more, else Delta when every cell is an Int or every cell a
/// Date (`intlike`), else Dict when at least eight rows hold at most a
/// quarter as many distinct cells (`few_distinct(cap)`, capped at
/// 4 096), else Plain. Pure heuristic: every encoding round-trips every
/// block it is chosen for.
fn choose(rows: usize, runs: usize, intlike: bool, few_distinct: impl FnOnce(usize) -> bool) -> Encoding {
    if rows == 0 {
        return Encoding::Plain;
    }
    if runs * 4 <= rows {
        return Encoding::Rle;
    }
    if intlike {
        return Encoding::Delta;
    }
    let cap = (rows / 4).clamp(1, 4096);
    if rows >= 8 && few_distinct(cap) {
        return Encoding::Dict;
    }
    Encoding::Plain
}

/// Are there at most `cap` distinct `cells`? Stops at the first one past
/// the cap, so a high-cardinality block is inspected cheaply.
fn few_distinct<T: Eq + Hash>(cells: impl Iterator<Item = T>, cap: usize) -> bool {
    let mut seen = HashSet::with_capacity(cap + 1);
    for cell in cells {
        seen.insert(cell);
        if seen.len() > cap {
            return false;
        }
    }
    true
}

/// The encoding a block is written with: the forced one when it fits —
/// only Delta has a restriction, an Int-only or Date-only block — else
/// the block's own choice.
fn resolve(force: Option<Encoding>, chosen: Encoding, intlike: bool) -> Encoding {
    match force {
        Some(Encoding::Delta) if !intlike => chosen,
        Some(enc) => enc,
        None => chosen,
    }
}

/// Write `rows` cells with `enc`. `key(i)` identifies cell `i` (`None`
/// for NULL), equal exactly when the cells are the same representation;
/// `put` writes cell `i` tagged; `ints` reads cell `i` as the integer
/// Delta stores and says whether the block is Date — present whenever
/// `enc` is Delta over a non-empty block.
fn write_block<K: Copy + Eq + Hash>(
    enc: Encoding,
    rows: usize,
    key: impl Fn(usize) -> Option<K>,
    put: impl Fn(&mut Writer, usize),
    ints: Option<(impl Fn(usize) -> i64, bool)>,
    w: &mut Writer,
) {
    w.put_u8(enc as u8);
    w.put_varint(rows as u64);
    match enc {
        Encoding::Plain => (0..rows).for_each(|i| put(w, i)),
        Encoding::Rle => {
            let mut i = 0;
            while i < rows {
                let cell = key(i);
                let end = (i + 1..rows).find(|&j| key(j) != cell).unwrap_or(rows);
                w.put_varint((end - i) as u64);
                put(w, i);
                i = end;
            }
        }
        Encoding::Dict => {
            // Dictionary in first-appearance order; codes are varints.
            let mut index: HashMap<Option<K>, u32> = HashMap::new();
            let mut firsts: Vec<usize> = Vec::new();
            let codes: Vec<u32> = (0..rows)
                .map(|i| {
                    *index.entry(key(i)).or_insert_with(|| {
                        firsts.push(i);
                        firsts.len() as u32 - 1
                    })
                })
                .collect();
            w.put_varint(firsts.len() as u64);
            firsts.iter().for_each(|&i| put(w, i));
            codes.iter().for_each(|&c| w.put_varint(u64::from(c)));
        }
        Encoding::Delta => {
            // Tag byte distinguishes Int from Date blocks; nulls and
            // mixed blocks must use another encoding.
            let Some((int_of, is_date)) = ints else {
                assert_eq!(rows, 0, "delta encoding requires an int-like block");
                return w.put_u8(0);
            };
            // An empty block is tagged Int: a first cell decides.
            w.put_u8(u8::from(is_date && rows > 0));
            let mut prev: i64 = 0;
            for i in 0..rows {
                let cur = int_of(i);
                w.put_signed_varint(cur.wrapping_sub(prev));
                prev = cur;
            }
        }
    }
}

/// Choose and write one block of a typed column, in one pass per step:
/// for a column of one type, same representation and `Value`'s `==`
/// agree, so `key` serves the choice and the writer alike. `ints` is
/// present on an Int or Date column; Delta fits when the block also
/// holds no NULL.
fn encode_typed<K: Copy + Eq + Hash>(
    rows: usize,
    key: impl Fn(usize) -> Option<K>,
    put: impl Fn(&mut Writer, usize),
    ints: Option<(impl Fn(usize) -> i64, bool)>,
    force: Option<Encoding>,
    w: &mut Writer,
) -> Encoding {
    let (mut runs, mut has_null, mut prev) = (0, false, None);
    for i in 0..rows {
        let cell = key(i);
        runs += usize::from(i == 0 || cell != prev);
        has_null |= cell.is_none();
        prev = cell;
    }
    let intlike = rows == 0 || (ints.is_some() && !has_null);
    let chosen = choose(rows, runs, intlike, |cap| few_distinct((0..rows).map(&key), cap));
    let enc = resolve(force, chosen, intlike);
    write_block(enc, rows, key, put, ints, w);
    enc
}

/// Choose and write one block of a `Values` column: the choice counts
/// runs and distinct cells by `Value`'s `==` (so `Int(1)` beside
/// `Float(1.0)` is one run), the writer keys cells by representation.
fn encode_values(cells: &[Value], force: Option<Encoding>, w: &mut Writer) -> Encoding {
    let rows = cells.len();
    let runs = (0..rows).filter(|&i| i == 0 || cells[i] != cells[i - 1]).count();
    let intlike = cells.iter().all(|v| matches!(v, Value::Int(_)))
        || cells.iter().all(|v| matches!(v, Value::Date(_)));
    let chosen = choose(rows, runs, intlike, |cap| few_distinct(cells.iter(), cap));
    let enc = resolve(force, chosen, intlike);
    let is_date = matches!(cells.first(), Some(Value::Date(_)));
    let int_of = |i: usize| cells[i].as_int().expect("an int-like block");
    let key = |i: usize| (!cells[i].is_null()).then(|| Repr(cells[i].as_ref()));
    write_block(enc, rows, key, |w, i| w.put_value(&cells[i]), intlike.then_some((int_of, is_date)), w);
    enc
}

/// Cell `i` tagged `tag`, its payload written by `body`, or the NULL tag.
#[inline]
fn tagged(w: &mut Writer, ok: bool, tag: u8, body: impl FnOnce(&mut Writer)) {
    if ok {
        w.put_u8(tag);
        body(w);
    } else {
        w.put_u8(0);
    }
}

/// Encode rows `rows` of `col` as one self-describing block: with
/// `force` when it fits the block (a forced Delta falls back on a block
/// that is not all Int or all Date), else with the encoding the block's
/// cells choose. Returns the encoding written.
///
/// One loop per column type, no `Value` per cell: run and distinct
/// counts read the typed cells (a float by its bits, a string by its
/// bytes, a dictionary-coded string by its code, since a dictionary's
/// entries are distinct), Delta reads the `i64` / `i32` cells, and the
/// dictionary keeps first-appearance order. A `Values` column — cells
/// of more than one type — counts by `Value`'s `==` and writes by
/// representation. The bytes are those the per-value reference encoder
/// writes (`prop_typed_encoding_matches_the_value_reference`).
pub fn encode_block(col: &Column, rows: Range<usize>, force: Option<Encoding>, w: &mut Writer) -> Encoding {
    let (lo, n) = (rows.start, rows.len());
    let valid = col.valid().map(|v| &v[rows.clone()]);
    let ok = |i: usize| valid.is_none_or(|v| v[i]);
    let no_ints = None::<(fn(usize) -> i64, bool)>;
    match col.data() {
        Data::Null(_) => encode_typed(n, |_| None::<()>, |w, _| w.put_u8(0), no_ints, force, w),
        Data::Int(v) => {
            let v = &v[rows];
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 1, |w| w.put_signed_varint(v[i]));
            encode_typed(n, |i| ok(i).then(|| v[i]), put, Some((|i: usize| v[i], false)), force, w)
        }
        Data::Date(v) => {
            let v = &v[rows];
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 5, |w| w.put_signed_varint(i64::from(v[i])));
            encode_typed(n, |i| ok(i).then(|| v[i]), put, Some((|i: usize| i64::from(v[i]), true)), force, w)
        }
        Data::Float(v) => {
            let v = &v[rows];
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 2, |w| w.put_f64(v[i]));
            encode_typed(n, |i| ok(i).then(|| v[i].to_bits()), put, no_ints, force, w)
        }
        Data::Bool(v) => {
            let v = &v[rows];
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 4, |w| w.put_u8(u8::from(v[i])));
            encode_typed(n, |i| ok(i).then(|| v[i]), put, no_ints, force, w)
        }
        Data::Str(s) => {
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 3, |w| w.put_str(s.get(lo + i)));
            encode_typed(n, |i| ok(i).then(|| s.get(lo + i)), put, no_ints, force, w)
        }
        Data::Dict { dict, codes } => {
            let codes = &codes[rows];
            let put = |w: &mut Writer, i: usize| tagged(w, ok(i), 3, |w| w.put_str(dict.get(codes[i] as usize)));
            encode_typed(n, |i| ok(i).then(|| codes[i]), put, no_ints, force, w)
        }
        Data::Values(v) => encode_values(&v[rows], force, w),
    }
}

/// The least and the greatest of the non-NULL `cells` under `less`
/// (each the first of its equals), and whether any cell is NULL.
fn extremes<T: Copy>(cells: impl Iterator<Item = Option<T>>, less: impl Fn(T, T) -> bool) -> (Option<T>, Option<T>, bool) {
    let (mut min, mut max, mut has_null) = (None, None, false);
    for cell in cells {
        let Some(v) = cell else {
            has_null = true;
            continue;
        };
        if min.is_none_or(|m| less(v, m)) {
            min = Some(v);
        }
        if max.is_none_or(|m| less(m, v)) {
            max = Some(v);
        }
    }
    (min, max, has_null)
}

/// `a < b`, as a function [`extremes`] can take.
fn lt<T: PartialOrd>(a: T, b: T) -> bool {
    a < b
}

/// A block's footer statistics over rows `rows` of `col`: its minimum
/// and maximum non-NULL cells under `Value`'s order (`Null` when every
/// cell is NULL) and whether it holds a NULL — a typed loop per column
/// type.
pub fn block_stats(col: &Column, rows: Range<usize>) -> (Value, Value, bool) {
    let (lo, n) = (rows.start, rows.len());
    let valid = col.valid().map(|v| &v[rows.clone()]);
    let ok = |i: usize| valid.is_none_or(|v| v[i]);
    // The extremes of the block's non-NULL cells `$get(row)` under
    // `$less`, each made a value by `$value`.
    macro_rules! stats {
        ($cells:expr, $less:expr, $value:expr) => {{
            let (min, max, has_null) = extremes($cells, $less);
            (min.map_or(Value::Null, $value), max.map_or(Value::Null, $value), has_null)
        }};
        ($get:expr, $less:expr, $value:expr,) => {
            stats!((0..n).map(|i| ok(i).then(|| $get(lo + i))), $less, $value)
        };
    }
    let to_str = |s: &str| Value::Str(s.to_owned());
    match col.data() {
        Data::Null(_) => (Value::Null, Value::Null, n > 0),
        Data::Int(v) => stats!(|i| v[i], lt, Value::Int,),
        Data::Date(v) => stats!(|i| v[i], lt, Value::Date,),
        Data::Bool(v) => stats!(|i| v[i], lt, Value::Bool,),
        Data::Float(v) => stats!(|i| v[i], |a: f64, b: f64| a.total_cmp(&b).is_lt(), Value::Float,),
        Data::Str(s) => stats!(|i| s.get(i), lt, to_str,),
        Data::Dict { dict, codes } => {
            // Each entry present in the block once: entries are distinct.
            let mut present = vec![false; dict.len()];
            (0..n).filter(|&i| ok(i)).for_each(|i| present[codes[lo + i] as usize] = true);
            let has_null = (0..n).any(|i| !ok(i));
            let entries = (0..dict.len()).filter(|&j| present[j]).map(|j| Some(dict.get(j)));
            let (min, max, _) = stats!(entries, lt, to_str);
            (min, max, has_null)
        }
        Data::Values(v) => stats!(v[rows].iter().map(|c| (!c.is_null()).then(|| c.as_ref())), lt, ValueRef::to_value),
    }
}

/// One decoded-or-not column block: the scan path's view of a block,
/// and what [`Predicate::eval_block`](crate::pruning::Predicate::eval_block)
/// evaluates.
///
/// `Plain` carries the block's cells as a typed [`Column`] (the Delta
/// decoder also lands here — deltas must be cumulated anyway, so there
/// is nothing to operate on "encoded"). `Rle` and `Dict` keep the
/// compressed shape so predicates work per run / per dictionary entry
/// instead of per row, and so late materialization can gather only
/// surviving rows without ever building the full column.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedBlock {
    Plain(Column),
    Rle {
        rows: usize,
        /// Run lengths, each ≥ 1, summing to `rows`.
        runs: Vec<u64>,
        /// One value per run.
        values: Column,
    },
    Dict {
        /// Distinct values in first-appearance order.
        dict: Column,
        /// One in-range dictionary code per row.
        codes: Vec<u32>,
    },
}

impl EncodedBlock {
    /// `rows` rows all carrying `v` — e.g. a column added to the table
    /// after the container was written, materialized from its default:
    /// one run, so a predicate tests it once.
    pub fn constant(v: ValueRef<'_>, rows: usize) -> EncodedBlock {
        let runs = if rows == 0 { 0 } else { 1 };
        EncodedBlock::Rle { rows, runs: vec![rows as u64; runs], values: Column::constant(v, runs) }
    }

    pub fn rows(&self) -> usize {
        match self {
            EncodedBlock::Plain(col) => col.len(),
            EncodedBlock::Rle { rows, .. } => *rows,
            EncodedBlock::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether this block is served in compressed form (the
    /// `scan_encoded_blocks_total` metric counts these).
    pub fn is_encoded(&self) -> bool {
        !matches!(self, EncodedBlock::Plain(_))
    }

    /// Predicate comparisons avoided versus row-at-a-time evaluation:
    /// an RLE block needs one test per run, a dictionary block one per
    /// distinct value.
    pub fn short_circuit_rows(&self) -> u64 {
        match self {
            EncodedBlock::Plain(_) => 0,
            EncodedBlock::Rle { rows, runs, .. } => (rows - runs.len()) as u64,
            EncodedBlock::Dict { dict, codes } => codes.len().saturating_sub(dict.len()) as u64,
        }
    }

    /// Materialize every row.
    pub fn decode(&self) -> Column {
        self.clone().into_rows()
    }

    /// Every row, consuming the view, with no index vector: a plain
    /// block hands over its decoded column, an RLE block fills its runs,
    /// and a Dict block maps its codes through its dictionary (strings
    /// keep the codes themselves when the entries are already distinct).
    fn into_rows(self) -> Column {
        match self {
            EncodedBlock::Plain(col) => col,
            EncodedBlock::Rle { runs, values, .. } => values.repeat_runs(&runs),
            EncodedBlock::Dict { dict, codes } => dict.take_codes(codes),
        }
    }

    /// Materialize only the rows at `idx` (sorted ascending, in range):
    /// late materialization below the decode boundary, through the same
    /// kernel as every row — an RLE block repeats each run's value once
    /// per survivor in it, a Dict block maps the survivors' codes. A
    /// string block stored as RLE or Dict comes out dictionary-coded
    /// ([`Data::Dict`]): its distinct strings once, a code per row.
    pub fn gather(&self, idx: &[usize]) -> Column {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        match self {
            EncodedBlock::Plain(col) => col.gather(idx),
            EncodedBlock::Rle { runs, values, .. } => {
                let mut kept = vec![0u64; runs.len()];
                let (mut run, mut end) = (0, runs.first().copied().unwrap_or(0));
                for &i in idx {
                    while i as u64 >= end {
                        run += 1;
                        end += runs[run];
                    }
                    kept[run] += 1;
                }
                values.repeat_runs(&kept)
            }
            EncodedBlock::Dict { dict, codes } => {
                dict.take_codes(idx.iter().map(|&i| codes[i]).collect())
            }
        }
    }

    /// The rows at `idx` (sorted ascending, in range), consuming the
    /// view: when `idx` is every row, the block moves or expands whole
    /// ([`into_rows`](Self::into_rows)).
    pub fn select(self, idx: &[usize]) -> Column {
        if idx.len() < self.rows() {
            return self.gather(idx);
        }
        self.into_rows()
    }
}

impl BlockView for EncodedBlock {
    /// The test exploits the encoding: `test` sees one value per run
    /// for RLE, one per dictionary entry for Dict.
    fn test_rows(&self, test: impl Fn(&Column) -> Vec<bool>) -> Vec<bool> {
        match self {
            EncodedBlock::Plain(col) => test(col),
            EncodedBlock::Rle { rows, runs, values } => {
                let mut sel = Vec::with_capacity(*rows);
                for (run, verdict) in runs.iter().zip(test(values)) {
                    sel.resize(sel.len() + *run as usize, verdict);
                }
                sel
            }
            EncodedBlock::Dict { dict, codes } => {
                let verdicts = test(dict);
                codes.iter().map(|&c| verdicts[c as usize]).collect()
            }
        }
    }
}

fn corrupt(msg: &str) -> eon_types::EonError {
    eon_types::EonError::Corrupt(msg.into())
}

/// Decode one block written by [`encode_block`] into
/// its [`EncodedBlock`] view, without materializing RLE runs or
/// dictionary codes into rows.
///
/// Hardened against corrupt input: counts from the wire are bounded by
/// the bytes actually present before any allocation (each value, code,
/// or delta costs at least one byte), so a bit-flipped length yields a
/// typed [`Corrupt`](eon_types::EonError::Corrupt) error — never a
/// capacity-overflow abort, never silently short rows.
pub fn decode_column_view(r: &mut Reader<'_>) -> Result<EncodedBlock> {
    let tag = r.get_u8()?;
    let enc = Encoding::from_tag(tag)
        .ok_or_else(|| eon_types::EonError::Corrupt(format!("bad encoding tag {tag}")))?;
    let n = r.get_varint()? as usize;
    match enc {
        Encoding::Plain => {
            if n > r.remaining() {
                return Err(corrupt("plain count exceeds payload"));
            }
            Ok(EncodedBlock::Plain(r.get_cells(n)?))
        }
        Encoding::Rle => {
            // Each run costs ≥ 2 bytes (length varint + value tag).
            let mut runs = Vec::with_capacity((n.min(r.remaining()) / 2).min(n));
            let mut values = Column::nulls(0);
            let mut total = 0usize;
            while total < n {
                let run = r.get_varint()?;
                values.push(r.get_value_ref()?);
                if run == 0 || total as u64 + run > n as u64 {
                    return Err(corrupt("bad RLE run"));
                }
                total += run as usize;
                runs.push(run);
            }
            Ok(EncodedBlock::Rle { rows: n, runs, values })
        }
        Encoding::Dict => {
            let dsize = r.get_varint()? as usize;
            if dsize > r.remaining() {
                return Err(corrupt("dict size exceeds payload"));
            }
            let dict = r.get_cells(dsize)?;
            if n > r.remaining() {
                return Err(corrupt("dict code count exceeds payload"));
            }
            let codes = if dsize <= 128 {
                // Every code fits one varint byte: `n` bytes, each below
                // the dictionary size (a continuation byte never is).
                let bytes = r.take(n)?;
                if bytes.iter().any(|&b| b as usize >= dsize) {
                    return Err(corrupt("dict code out of range"));
                }
                bytes.iter().map(|&b| u32::from(b)).collect()
            } else {
                let mut codes = Vec::with_capacity(n);
                for _ in 0..n {
                    let code = r.get_varint()?;
                    if code >= dsize as u64 {
                        return Err(corrupt("dict code out of range"));
                    }
                    codes.push(code as u32);
                }
                codes
            };
            Ok(EncodedBlock::Dict { dict, codes })
        }
        Encoding::Delta => {
            let is_date = r.get_u8()? != 0;
            if n > r.remaining() {
                return Err(corrupt("delta count exceeds payload"));
            }
            // Cumulated straight into the column's own type, sized up front.
            fn cumulate<T>(r: &mut Reader<'_>, n: usize, cast: impl Fn(i64) -> T) -> Result<Vec<T>> {
                let (mut cells, mut prev) = (Vec::with_capacity(n), 0i64);
                for _ in 0..n {
                    prev = prev.wrapping_add(r.get_signed_varint()?);
                    cells.push(cast(prev));
                }
                Ok(cells)
            }
            let data = if is_date {
                Data::Date(cumulate(r, n, |x| x as i32)?)
            } else {
                Data::Int(cumulate(r, n, |x| x)?)
            };
            Ok(EncodedBlock::Plain(Column::new(data, None)))
        }
    }
}

/// Decode one block written by [`encode_block`] to values.
pub fn decode_column(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    Ok(decode_column_view(r)?.decode().to_values())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-value encoder the typed one replaced, kept as its
    /// reference: every block it writes, and every footer statistic it
    /// computes, the typed encoder must reproduce byte for byte.
    mod reference {
        use crate::encoding::Encoding;
        use crate::format::Writer;
        use eon_types::Value;

        /// Count the number of RLE runs in `values`.
        fn run_count(values: &[Value]) -> usize {
            let mut runs = 0;
            let mut prev: Option<&Value> = None;
            for v in values {
                if prev != Some(v) {
                    runs += 1;
                    prev = Some(v);
                }
            }
            runs
        }

        /// Distinct-value count, capped at `cap` (early exit keeps the
        /// inspection cheap on high-cardinality blocks).
        fn distinct_capped(values: &[Value], cap: usize) -> usize {
            let mut set: std::collections::HashSet<&Value> = std::collections::HashSet::new();
            for v in values {
                set.insert(v);
                if set.len() > cap {
                    return set.len();
                }
            }
            set.len()
        }

        /// Delta encoding stores one type tag for the whole block, so the
        /// block must be uniformly Int or uniformly Date (mixed blocks would
        /// decode to the wrong type — caught by `prop_any_block_roundtrips`).
        fn all_intlike(values: &[Value]) -> bool {
            values.iter().all(|v| matches!(v, Value::Int(_)))
                || values.iter().all(|v| matches!(v, Value::Date(_)))
        }

        /// Structural identity for encoder run/dictionary detection. `Value`'s
        /// cmp-based `==` aliases `Int(1)`/`Float(1.0)` and `0.0`/`-0.0`, so
        /// using it would let RLE/Dict rewrite a stored variant into whichever
        /// alias appeared first in the block. Encoders must reproduce the exact
        /// representation, so floats compare by bits and variants must match.
        pub(super) fn same_repr(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Null, Value::Null) => true,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Str(x), Value::Str(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Date(x), Value::Date(y)) => x == y,
                _ => false,
            }
        }

        /// Hash-map key wrapper agreeing with [`same_repr`], for the dictionary
        /// encoder's first-appearance index.
        struct ReprKey<'a>(&'a Value);

        impl PartialEq for ReprKey<'_> {
            fn eq(&self, other: &Self) -> bool {
                same_repr(self.0, other.0)
            }
        }

        impl Eq for ReprKey<'_> {}

        impl std::hash::Hash for ReprKey<'_> {
            fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
                std::mem::discriminant(self.0).hash(h);
                match self.0 {
                    Value::Null => {}
                    Value::Int(x) => x.hash(h),
                    Value::Float(x) => x.to_bits().hash(h),
                    Value::Str(s) => s.hash(h),
                    Value::Bool(b) => b.hash(h),
                    Value::Date(d) => d.hash(h),
                }
            }
        }

        /// Pick an encoding for a block by inspecting it. Pure heuristic — every
        /// encoding round-trips every block it is chosen for.
        pub(super) fn choose_encoding(values: &[Value]) -> Encoding {
            if values.is_empty() {
                return Encoding::Plain;
            }
            let n = values.len();
            let runs = run_count(values);
            if runs * 4 <= n {
                return Encoding::Rle;
            }
            if all_intlike(values) {
                return Encoding::Delta;
            }
            let cap = (n / 4).clamp(1, 4096);
            if distinct_capped(values, cap) <= cap && n >= 8 {
                return Encoding::Dict;
            }
            Encoding::Plain
        }

        /// Encode a block with the given encoding. Returns an error only for
        /// encoding/block mismatches that `choose_encoding` never produces.
        pub(super) fn encode_with(values: &[Value], enc: Encoding, w: &mut Writer) {
            w.put_u8(enc as u8);
            w.put_varint(values.len() as u64);
            match enc {
                Encoding::Plain => {
                    for v in values {
                        w.put_value(v);
                    }
                }
                Encoding::Rle => {
                    let mut i = 0;
                    while i < values.len() {
                        let mut j = i + 1;
                        while j < values.len() && same_repr(&values[j], &values[i]) {
                            j += 1;
                        }
                        w.put_varint((j - i) as u64);
                        w.put_value(&values[i]);
                        i = j;
                    }
                }
                Encoding::Dict => {
                    // Dictionary in first-appearance order; codes are varints.
                    let mut dict: Vec<&Value> = Vec::new();
                    let mut codes: Vec<u64> = Vec::with_capacity(values.len());
                    let mut index: std::collections::HashMap<ReprKey, u64> =
                        std::collections::HashMap::new();
                    for v in values {
                        let code = *index.entry(ReprKey(v)).or_insert_with(|| {
                            dict.push(v);
                            (dict.len() - 1) as u64
                        });
                        codes.push(code);
                    }
                    w.put_varint(dict.len() as u64);
                    for v in dict {
                        w.put_value(v);
                    }
                    for c in codes {
                        w.put_varint(c);
                    }
                }
                Encoding::Delta => {
                    // Tag byte distinguishes Int from Date blocks; nulls and
                    // mixed blocks must use another encoding.
                    let is_date = matches!(values.first(), Some(Value::Date(_)));
                    w.put_u8(is_date as u8);
                    let mut prev: i64 = 0;
                    for v in values {
                        let cur = v.as_int().expect("delta encoding requires int-like block");
                        w.put_signed_varint(cur.wrapping_sub(prev));
                        prev = cur;
                    }
                }
            }
        }

        /// Can `values` be written with `enc` and decode back exactly? Only
        /// Delta has a real restriction (one type tag for the whole block);
        /// the other encodings round-trip any block.
        pub(super) fn encoding_fits(values: &[Value], enc: Encoding) -> bool {
            match enc {
                Encoding::Plain | Encoding::Rle | Encoding::Dict => true,
                Encoding::Delta => all_intlike(values),
            }
        }

        /// Encode a block, choosing the encoding automatically.
        pub(super) fn encode_column(values: &[Value], w: &mut Writer) -> Encoding {
            let enc = choose_encoding(values);
            encode_with(values, enc, w);
            enc
        }

        /// The footer's per-block statistics: first least and greatest
        /// non-NULL values under `Value`'s order, and whether any is NULL.
        pub(super) fn minmax(values: &[Value]) -> (Value, Value, bool) {
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            let mut has_null = false;
            for v in values {
                if v.is_null() {
                    has_null = true;
                    continue;
                }
                if min.map(|m| v < m).unwrap_or(true) {
                    min = Some(v);
                }
                if max.map(|m| v > m).unwrap_or(true) {
                    max = Some(v);
                }
            }
            (min.cloned().unwrap_or(Value::Null), max.cloned().unwrap_or(Value::Null), has_null)
        }
    }

    use reference::{choose_encoding, encode_column, encode_with, encoding_fits};

    fn roundtrip(values: &[Value]) -> Vec<Value> {
        let mut w = Writer::new();
        encode_column(values, &mut w);
        let b = w.into_bytes();
        decode_column(&mut Reader::new(&b)).unwrap()
    }

    fn roundtrip_with(values: &[Value], enc: Encoding) -> Vec<Value> {
        let mut w = Writer::new();
        encode_with(values, enc, &mut w);
        let b = w.into_bytes();
        decode_column(&mut Reader::new(&b)).unwrap()
    }

    #[test]
    fn empty_block() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn rle_chosen_for_runs() {
        let vals: Vec<Value> = (0..100)
            .map(|i| Value::Str(if i < 60 { "a" } else { "b" }.into()))
            .collect();
        assert_eq!(choose_encoding(&vals), Encoding::Rle);
        assert_eq!(roundtrip(&vals), vals);
    }

    /// `Value`'s cmp-based `==` says `Int(1) == Float(1.0)` and
    /// `0.0 == -0.0`; the RLE/Dict encoders must not collapse those
    /// aliases into one stored representation.
    #[test]
    fn rle_and_dict_preserve_value_representation() {
        let vals = vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1),
        ];
        for enc in [Encoding::Rle, Encoding::Dict] {
            let mut w = Writer::new();
            encode_with(&vals, enc, &mut w);
            let got = decode_column(&mut Reader::new(w.as_slice())).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{vals:?}"),
                "{enc:?} rewrote a value representation"
            );
        }
    }

    #[test]
    fn delta_chosen_for_sorted_ints() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        assert_eq!(choose_encoding(&vals), Encoding::Delta);
        assert_eq!(roundtrip(&vals), vals);
    }

    #[test]
    fn delta_compresses_sorted_ints() {
        let vals: Vec<Value> = (1_000_000..1_004_096).map(Value::Int).collect();
        let mut wd = Writer::new();
        encode_with(&vals, Encoding::Delta, &mut wd);
        let mut wp = Writer::new();
        encode_with(&vals, Encoding::Plain, &mut wp);
        assert!(
            wd.len() * 2 < wp.len(),
            "delta {} vs plain {}",
            wd.len(),
            wp.len()
        );
    }

    #[test]
    fn dict_chosen_for_low_cardinality() {
        // Interleaved so RLE is a poor fit, but few distinct values.
        let vals: Vec<Value> = (0..128)
            .map(|i| Value::Str(format!("cat{}", i % 7)))
            .collect();
        assert_eq!(choose_encoding(&vals), Encoding::Dict);
        assert_eq!(roundtrip(&vals), vals);
    }

    #[test]
    fn dates_delta_roundtrip() {
        let vals: Vec<Value> = (0..50).map(|i| Value::Date(9000 + i * 3)).collect();
        assert_eq!(roundtrip_with(&vals, Encoding::Delta), vals);
    }

    #[test]
    fn nulls_roundtrip_in_all_null_capable_encodings() {
        let vals = vec![Value::Null, Value::Int(1), Value::Null, Value::Int(1)];
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict] {
            assert_eq!(roundtrip_with(&vals, enc), vals, "{enc:?}");
        }
    }

    #[test]
    fn negative_deltas() {
        let vals: Vec<Value> = [5i64, 3, -10, 100, 0].map(Value::Int).to_vec();
        assert_eq!(roundtrip_with(&vals, Encoding::Delta), vals);
    }

    #[test]
    fn corrupt_tag_is_error() {
        let buf = [9u8, 0u8];
        assert!(decode_column(&mut Reader::new(&buf)).is_err());
    }

    /// A corrupt row/dict/delta count larger than the payload must be a
    /// typed error before any allocation, not a capacity-overflow abort.
    #[test]
    fn absurd_counts_are_typed_errors() {
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
            let mut w = Writer::new();
            w.put_u8(enc as u8);
            w.put_varint(u64::MAX); // claimed count
            w.put_u8(0); // one byte of "payload"
            let b = w.into_bytes();
            let got = decode_column(&mut Reader::new(&b));
            assert!(
                matches!(got, Err(eon_types::EonError::Corrupt(_))),
                "{enc:?}: {got:?}"
            );
        }
    }

    /// Encoded views keep the compressed shape and gather survivors
    /// without materializing the block.
    #[test]
    fn views_keep_shape_and_gather() {
        let rle: Vec<Value> = (0..100)
            .map(|i| Value::Str(if i < 60 { "a" } else { "b" }.into()))
            .collect();
        let mut w = Writer::new();
        encode_with(&rle, Encoding::Rle, &mut w);
        let b = w.into_bytes();
        let view = decode_column_view(&mut Reader::new(&b)).unwrap();
        assert!(matches!(&view, EncodedBlock::Rle { rows: 100, runs, .. } if runs.len() == 2));
        assert!(view.is_encoded());
        assert_eq!(view.short_circuit_rows(), 98);
        assert_eq!(view.decode().to_values(), rle);
        assert_eq!(
            view.gather(&[0, 59, 60, 99]).to_values(),
            vec![rle[0].clone(), rle[59].clone(), rle[60].clone(), rle[99].clone()]
        );

        let dict: Vec<Value> = (0..40).map(|i| Value::Int(i % 3)).collect();
        let mut w = Writer::new();
        encode_with(&dict, Encoding::Dict, &mut w);
        let b = w.into_bytes();
        let view = decode_column_view(&mut Reader::new(&b)).unwrap();
        assert!(matches!(&view, EncodedBlock::Dict { dict, codes } if dict.len() == 3 && codes.len() == 40));
        assert_eq!(view.short_circuit_rows(), 37);
        assert_eq!(view.decode().to_values(), dict);
        assert_eq!(view.gather(&[1, 38]).to_values(), vec![dict[1].clone(), dict[38].clone()]);

        // Delta falls back to a decoded Plain view.
        let ints: Vec<Value> = (0..50).map(Value::Int).collect();
        let mut w = Writer::new();
        encode_with(&ints, Encoding::Delta, &mut w);
        let b = w.into_bytes();
        let view = decode_column_view(&mut Reader::new(&b)).unwrap();
        assert!(matches!(&view, EncodedBlock::Plain(_)));
        assert!(!view.is_encoded());
        assert_eq!(view.decode().to_values(), ints);
    }

    /// A varint read a byte at a time, apart from `Reader::get_varint`.
    fn varint_by_bytes(r: &mut Reader<'_>) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let byte = r.get_u8().unwrap();
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    /// The per-cell reference decoder: every value through
    /// `get_value_ref`, every run length, code and delta a varint read
    /// byte by byte — none of the decoder's typed runs.
    fn reference(bytes: &[u8]) -> Vec<Value> {
        let mut r = Reader::new(bytes);
        let enc = Encoding::from_tag(r.get_u8().unwrap()).unwrap();
        let n = varint_by_bytes(&mut r) as usize;
        let cell = |r: &mut Reader<'_>| r.get_value_ref().unwrap().to_value();
        let out: Vec<Value> = match enc {
            Encoding::Plain => (0..n).map(|_| cell(&mut r)).collect(),
            Encoding::Rle => {
                let mut out = Vec::new();
                while out.len() < n {
                    let run = varint_by_bytes(&mut r) as usize;
                    let v = cell(&mut r);
                    out.extend(std::iter::repeat_n(v, run));
                }
                out
            }
            Encoding::Dict => {
                let size = varint_by_bytes(&mut r) as usize;
                let dict: Vec<Value> = (0..size).map(|_| cell(&mut r)).collect();
                (0..n).map(|_| dict[varint_by_bytes(&mut r) as usize].clone()).collect()
            }
            Encoding::Delta => {
                let is_date = r.get_u8().unwrap() != 0;
                let mut prev = 0i64;
                (0..n)
                    .map(|_| {
                        let z = varint_by_bytes(&mut r);
                        prev = prev.wrapping_add(((z >> 1) as i64) ^ -((z & 1) as i64));
                        if is_date { Value::Date(prev as i32) } else { Value::Int(prev) }
                    })
                    .collect()
            }
        };
        assert!(r.is_exhausted());
        out
    }

    /// A random block and the one encoding it is written with, by
    /// `kind`: Dict of 1–128 entries, Dict of 129–300, RLE of strings or
    /// numbers with NULL runs, Delta at the Int and Date extremes, Plain
    /// Floats with NULLs, NaN payloads and −0.0.
    fn fast_path_block(kind: u32, rng: &mut rand::StdRng) -> (Vec<Value>, Encoding) {
        use rand::Rng;
        let nan = |rng: &mut rand::StdRng| f64::from_bits(0x7ff0_0000_0000_0001 | rng.gen_range(0..1u64 << 51));
        let float = |rng: &mut rand::StdRng| match rng.gen_range(0..5u32) {
            0 => nan(rng),
            1 => -0.0,
            2 => 0.0,
            _ => rng.gen_range(-1e6..1e6),
        };
        match kind {
            0 | 1 => {
                let size = if kind == 0 { rng.gen_range(1..=128usize) } else { rng.gen_range(129..=300) };
                let shape = rng.gen_range(0..3u32);
                // A NULL entry, or none: strings then keep their codes.
                let null_entry = size > 1 && rng.gen_range(0..2u32) == 0;
                let entry = |j: usize| match (shape, j) {
                    (_, 0) if null_entry => Value::Null,
                    (0, j) => Value::Str(format!("é{j}")),
                    (1, j) => Value::Int(j as i64 * 1_000_003 - 7),
                    (_, j) => Value::Float(j as f64 / 3.0),
                };
                // Every entry at least once, so the writer keeps them all.
                let mut rows: Vec<usize> = (0..size).collect();
                rows.extend((0..rng.gen_range(0..400)).map(|_| rng.gen_range(0..size)));
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.gen_range(0..=i));
                }
                (rows.into_iter().map(entry).collect(), Encoding::Dict)
            }
            2 => {
                let strings = rng.gen_range(0..2u32) == 0;
                let mut vals = Vec::new();
                for _ in 0..rng.gen_range(1..40) {
                    let v = match (rng.gen_range(0..4u32), strings) {
                        (0, _) => Value::Null,
                        (_, true) => Value::Str(["", "a", "ab", "é"][rng.gen_range(0..4)].into()),
                        (1, false) => Value::Float(float(rng)),
                        _ => Value::Int(rng.gen_range(-3..3)),
                    };
                    vals.extend(std::iter::repeat_n(v, rng.gen_range(1..20)));
                }
                if !strings && rng.gen_range(0..2u32) == 0 {
                    // One type per column, as a stored column has.
                    vals.retain(|v| !matches!(v, Value::Float(_)));
                }
                (vals, Encoding::Rle)
            }
            3 => {
                let n = rng.gen_range(1..300);
                let vals = if rng.gen_range(0..2u32) == 0 {
                    let pick = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1, i64::MAX - 1];
                    (0..n).map(|_| Value::Int(pick[rng.gen_range(0..pick.len())])).collect()
                } else {
                    let pick = [i32::MIN, i32::MAX, 0, -1, 1, 9_000];
                    (0..n).map(|_| Value::Date(pick[rng.gen_range(0..pick.len())])).collect()
                };
                (vals, Encoding::Delta)
            }
            _ => {
                let n = rng.gen_range(1..300);
                let cell = |rng: &mut rand::StdRng| {
                    if rng.gen_range(0..6u32) == 0 { Value::Null } else { Value::Float(float(rng)) }
                };
                ((0..n).map(|_| cell(rng)).collect(), Encoding::Plain)
            }
        }
    }

    proptest! {
        /// Every fast decode — one-byte dictionary codes, whole blocks
        /// moved or expanded, Float cells read as a run, Delta straight
        /// into its type — equals the per-cell reference by bits, for
        /// every row and for a random subset.
        #[test]
        fn prop_fast_decode_matches_the_per_cell_reference(kind in 0u32..5, seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::StdRng::seed_from_u64(seed);
            let (vals, enc) = fast_path_block(kind, &mut rng);
            let mut w = Writer::new();
            encode_with(&vals, enc, &mut w);
            let bytes = w.into_bytes();
            let want = reference(&bytes);
            prop_assert_eq!(format!("{want:?}"), format!("{vals:?}"));
            let view = || decode_column_view(&mut Reader::new(&bytes)).unwrap();
            let all: Vec<usize> = (0..want.len()).collect();
            let got = view().select(&all);
            prop_assert_eq!(&got, &Column::from_values(want.iter().map(Value::as_ref)));
            let some: Vec<usize> = all.into_iter().filter(|_| rng.gen_range(0..2u32) == 0).collect();
            let picked = some.iter().map(|&i| want[i].as_ref());
            prop_assert_eq!(view().select(&some), Column::from_values(picked));
        }

        /// A Dict block with a mutated code — at or past the dictionary
        /// size, or with its continuation bit set — or cut short is
        /// `Corrupt`, never a block.
        #[test]
        fn prop_mutated_dict_codes_are_corrupt(large: bool, seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::StdRng::seed_from_u64(seed);
            let (vals, enc) = fast_path_block(u32::from(large), &mut rng);
            let mut w = Writer::new();
            encode_with(&vals, enc, &mut w);
            let bytes = w.as_slice().to_vec();
            let mut header = Reader::new(&bytes);
            let (_, _) = (header.get_u8().unwrap(), header.get_varint().unwrap());
            let size = header.get_varint().unwrap() as usize;
            let mut mutants = vec![bytes[..bytes.len() - rng.gen_range(1..=vals.len().min(4))].to_vec()];
            if size <= 128 {
                // The codes are the block's last `rows` bytes, one each.
                let at = bytes.len() - 1 - rng.gen_range(0..vals.len());
                let mut past = bytes.clone();
                past[at] = rng.gen_range(size..=255) as u8;
                let mut continued = bytes.clone();
                continued[at] |= 0x80;
                mutants.extend([past, continued]);
            }
            for bad in mutants {
                let got = decode_column_view(&mut Reader::new(&bad));
                prop_assert!(matches!(got, Err(eon_types::EonError::Corrupt(_))), "{:?}", got);
            }
        }
    }

    /// A random block's cells for the typed-encoder property, by `kind`:
    /// Int and Date at their extremes, Float with NaN payloads, −0.0 and
    /// ±inf, multi-byte and empty strings, Bool, all NULL, and a mix of
    /// types with `Int(1)` beside `Float(1.0)`. Cells come in runs, NULL
    /// runs among them, drawn from a small or a large pool, and one
    /// block in four is longer than 4 096 rows.
    fn typed_case(kind: u32, rng: &mut rand::StdRng) -> Vec<Value> {
        use rand::Rng;
        let n = if rng.gen_range(0..4u32) == 0 { rng.gen_range(4090..4400) } else { rng.gen_range(0..300) };
        let pool = if rng.gen_range(0..2u32) == 0 { rng.gen_range(1..6u64) } else { 1 << 40 };
        let mut cells = Vec::with_capacity(n);
        while cells.len() < n {
            let k = rng.gen_range(0..pool);
            let cell = match (kind, rng.gen_range(0..8u32)) {
                (5, _) | (0..=4, 0) => Value::Null,
                (0, 1) => Value::Int([i64::MIN, i64::MAX, i64::MIN + 1, -1][rng.gen_range(0..4)]),
                (0, _) => Value::Int(k as i64 - 3),
                (1, 1) => Value::Date([i32::MIN, i32::MAX, -1, 0][rng.gen_range(0..4)]),
                (1, _) => Value::Date(9_000 + (k % 100_000) as i32),
                (2, 1) => Value::Float(f64::from_bits(0x7ff0_0000_0000_0001 | (k & 0xffff) << 20)),
                (2, 2) => Value::Float([-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..4)]),
                (2, _) => Value::Float(k as f64 / 4.0 - 1.0),
                (3, 1) => Value::Str(["", "é", "日本", "ab"][rng.gen_range(0..4)].into()),
                (3, _) => Value::Str(format!("s{k}é")),
                (4, _) => Value::Bool(k % 2 == 0),
                (_, r) => [
                    Value::Null,
                    Value::Int(1),
                    Value::Float(1.0),
                    Value::Float(-0.0),
                    Value::Float(0.0),
                    Value::Int(0),
                    Value::Date(1),
                    Value::Str("1".into()),
                ][r as usize]
                    .clone(),
            };
            let run = if rng.gen_range(0..3u32) == 0 { rng.gen_range(1..40) } else { 1 };
            cells.extend(std::iter::repeat_n(cell, run.min(n - cells.len())));
        }
        cells
    }

    /// A footer entry's bytes: what the container stores of a block's
    /// statistics.
    fn footer_bytes((min, max, has_null): (Value, Value, bool)) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_value(&min);
        w.put_value(&max);
        w.put_u8(u8::from(has_null));
        w.as_slice().to_vec()
    }

    proptest! {
        /// The typed encoder writes the per-value reference's bytes: for
        /// every block of a column built by `Column::from_values` — and,
        /// for strings, of the same cells as the scan path hands them
        /// over, dictionary-coded — under the chosen encoding and every
        /// forced one (a forced encoding that does not fit falls back
        /// alike), the block's bytes, its encoding and its footer
        /// statistics are the reference's, at the container's block
        /// size and at a small one, and for the empty block.
        #[test]
        fn prop_typed_encoding_matches_the_value_reference(kind in 0u32..7, seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::StdRng::seed_from_u64(seed);
            let vals = typed_case(kind, &mut rng);
            let mut cols = vec![Column::from_values(vals.iter().map(Value::as_ref))];
            if vals.iter().any(|v| matches!(v, Value::Str(_))) && kind == 3 {
                let mut w = Writer::new();
                encode_with(&vals, Encoding::Dict, &mut w);
                let scanned = decode_column_view(&mut Reader::new(w.as_slice())).unwrap().decode();
                prop_assert!(matches!(scanned.data(), Data::Dict { .. }));
                cols.push(scanned);
            }
            let small = rng.gen_range(1..300usize);
            for col in &cols {
                let mut blocks: Vec<Range<usize>> = vec![];
                blocks.push(0..0);
                for size in [4096, small] {
                    blocks.extend((0..vals.len()).step_by(size).map(|lo| lo..(lo + size).min(vals.len())));
                }
                for rows in blocks {
                    let block = &vals[rows.clone()];
                    for force in [None, Some(Encoding::Plain), Some(Encoding::Rle), Some(Encoding::Dict), Some(Encoding::Delta)] {
                        let want_enc = match force {
                            Some(enc) if encoding_fits(block, enc) => enc,
                            _ => choose_encoding(block),
                        };
                        let mut want = Writer::new();
                        encode_with(block, want_enc, &mut want);
                        let mut got = Writer::new();
                        let enc = encode_block(col, rows.clone(), force, &mut got);
                        prop_assert_eq!(enc, want_enc, "{:?} {:?} {:?}", force, rows, col.data());
                        prop_assert_eq!(got.as_slice(), want.as_slice(), "{:?} {:?}", force, rows);
                    }
                    let stats = block_stats(col, rows.clone());
                    prop_assert_eq!(footer_bytes(stats), footer_bytes(reference::minmax(block)), "{:?}", rows);
                }
            }
        }
    }

    proptest! {
        /// `gather` over any encoding equals indexing the decoded rows.
        #[test]
        fn prop_gather_matches_decode_index(
            vals in proptest::collection::vec(
                prop_oneof![
                    Just(Value::Null),
                    (-3i64..3).prop_map(Value::Int),
                    "[ab]{0,2}".prop_map(Value::Str),
                ],
                1..120,
            ),
            mask in proptest::collection::vec(any::<bool>(), 1..120),
        ) {
            let idx: Vec<usize> = (0..vals.len()).filter(|&i| *mask.get(i).unwrap_or(&false)).collect();
            for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict] {
                let mut w = Writer::new();
                encode_with(&vals, enc, &mut w);
                let b = w.into_bytes();
                let view = decode_column_view(&mut Reader::new(&b)).unwrap();
                let expect: Vec<Value> = idx.iter().map(|&i| vals[i].clone()).collect();
                prop_assert_eq!(view.gather(&idx).to_values(), expect, "{:?}", enc);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_any_block_roundtrips(vals in proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                any::<i64>().prop_map(Value::Int),
                any::<f64>().prop_map(Value::Float),
                "[a-z]{0,8}".prop_map(Value::Str),
                any::<bool>().prop_map(Value::Bool),
                any::<i32>().prop_map(Value::Date),
            ],
            0..300,
        )) {
            prop_assert_eq!(roundtrip(&vals), vals);
        }

        #[test]
        fn prop_int_blocks_roundtrip_under_every_fit_encoding(
            ints in proptest::collection::vec(any::<i64>(), 1..200)
        ) {
            let vals: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
                prop_assert_eq!(roundtrip_with(&vals, enc), vals.clone());
            }
        }
    }
}
