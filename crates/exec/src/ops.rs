//! The operators, each one implementation over [`Batch`]es: an operator
//! reads whole columns and emits whole columns, and nothing in here
//! builds a row (DESIGN.md "Execution engine: batches").
//!
//! Row order is part of every operator's contract — a filter keeps its
//! input order, a join emits in probe order with each probe row's
//! matches in build order, a sort is stable — because Float sums
//! downstream are only bit-reproducible when rows fold in one order.

use std::cmp::Ordering;

use bytes::Bytes;
use eon_columnar::{Batch, Column, Data, Projection, RosFooter, RosWriter, StrVec};
use eon_types::{hash_value, Result, ValueRef};

use crate::expr::Expr;
use crate::plan::{JoinKind, SortKey};

/// Keep rows where `predicate` evaluates to true.
pub fn filter(batch: Batch, predicate: &Expr) -> Result<Batch> {
    let verdict = predicate.eval(&batch)?;
    let keep: Vec<usize> = (0..batch.rows())
        .filter(|&i| matches!(verdict.get(i), ValueRef::Bool(true)))
        .collect();
    drop(verdict);
    Ok(if keep.len() == batch.rows() { batch } else { batch.gather(&keep) })
}

/// Evaluate `exprs` over the batch: one output column each.
pub fn project(batch: Batch, exprs: &[Expr]) -> Result<Batch> {
    let cols = exprs
        .iter()
        .map(|e| Ok(e.eval(&batch)?.into_owned()))
        .collect::<Result<Vec<_>>>()?;
    Ok(Batch::new(cols, batch.rows()))
}

/// A bucket-chained hash index over entry numbers: what the join's
/// build side and the aggregate's group table share. Keys live in the
/// caller's columns; the index holds only hashes and links, so looking
/// a row up allocates nothing. The buckets double, and every linked
/// entry is relinked, when the entries outgrow them.
pub(crate) struct HashChains {
    /// Bucket → its most recently linked entry, `NONE` when empty.
    heads: Vec<u32>,
    /// Entry → the entry linked into its bucket before it.
    next: Vec<u32>,
    /// Entry → its hash, `None` when it is not linked.
    hashes: Vec<Option<u32>>,
}

const NONE: u32 = u32::MAX;

impl HashChains {
    /// An index sized for about `entries` entries.
    pub(crate) fn new(entries: usize) -> HashChains {
        let buckets = entries.max(1).next_power_of_two();
        HashChains { heads: vec![NONE; buckets], next: Vec::new(), hashes: Vec::new() }
    }

    /// Add the next entry; `Some(hash)` links it in, `None` leaves it
    /// unreachable (a NULL key never matches).
    pub(crate) fn push(&mut self, hash: Option<u32>) {
        u32::try_from(self.next.len()).expect("under 2^32 entries");
        if self.next.len() >= self.heads.len() {
            self.heads = vec![NONE; self.heads.len() * 2];
            for entry in 0..self.next.len() {
                self.link(entry);
            }
        }
        self.next.push(NONE);
        self.hashes.push(hash);
        self.link(self.next.len() - 1);
    }

    fn link(&mut self, entry: usize) {
        if let Some(hash) = self.hashes[entry] {
            let bucket = hash as usize & (self.heads.len() - 1);
            self.next[entry] = std::mem::replace(&mut self.heads[bucket], entry as u32);
        }
    }

    /// Entries linked under `hash`, most recent first.
    pub(crate) fn probe(&self, hash: u32) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[hash as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            let entry = (at != NONE).then_some(at as usize)?;
            at = self.next[entry];
            Some(entry)
        })
        .filter(move |&e| self.hashes[e] == Some(hash))
    }
}

/// A hash join's build side: the right input, whole, indexed on its
/// key columns. Each probe emits by gather indices — left rows in probe
/// order, each one's matches in build order — so probing a left input's
/// pieces in turn emits what probing their concatenation would. A NULL
/// in any key column never matches (SQL equi-join); `Left` pads
/// unmatched rows with NULLs, `Semi` / `Anti` emit left columns only.
pub struct JoinBuild {
    right: Batch,
    keys: Vec<usize>,
    table: HashChains,
}

impl JoinBuild {
    pub fn new(right: Batch, right_keys: &[usize]) -> JoinBuild {
        let rkeys: Vec<&Column> = right_keys.iter().map(|&c| &right.cols()[c]).collect();
        let mut table = HashChains::new(right.rows());
        join_hashes(&rkeys, right.rows()).into_iter().for_each(|hash| table.push(hash));
        JoinBuild { keys: right_keys.to_vec(), table, right }
    }

    /// `left`'s rows joined with the build side.
    pub fn probe(&self, left: &Batch, left_keys: &[usize], kind: JoinKind) -> Batch {
        let lkeys: Vec<&Column> = left_keys.iter().map(|&c| &left.cols()[c]).collect();
        let rkeys: Vec<&Column> = self.keys.iter().map(|&c| &self.right.cols()[c]).collect();
        let tests: Vec<KeyEq> = lkeys.iter().zip(&rkeys).map(|(l, r)| KeyEq::new(l, r)).collect();
        // An index past the end gathers as NULL: the padding of `Left`.
        let unmatched = usize::MAX;
        let (mut lidx, mut ridx, mut matches) = (Vec::new(), Vec::new(), Vec::new());
        for (l, hash) in join_hashes(&lkeys, left.rows()).into_iter().enumerate() {
            matches.clear();
            if let Some(hash) = hash {
                let equal = |r: &usize| tests.iter().all(|t| t.eq(l, *r));
                matches.extend(self.table.probe(hash).filter(equal));
            }
            match kind {
                JoinKind::Inner | JoinKind::Left => {
                    if matches.is_empty() && kind == JoinKind::Left {
                        matches.push(unmatched);
                    }
                    lidx.extend(std::iter::repeat_n(l, matches.len()));
                    ridx.extend(matches.iter().rev());
                }
                JoinKind::Semi | JoinKind::Anti => {
                    if matches.is_empty() == (kind == JoinKind::Anti) {
                        lidx.push(l);
                    }
                }
            }
        }
        let mut cols = left.gather(&lidx).into_cols();
        if matches!(kind, JoinKind::Inner | JoinKind::Left) {
            cols.extend(self.right.gather(&ridx).into_cols());
        }
        Batch::new(cols, lidx.len())
    }
}

/// Each row's join key digest, `None` where a key cell is NULL: a NULL
/// key never matches. The digest is private to the join: one function
/// of each cell's value ([`cell_digest`]), so cells equal under
/// `Value`'s equality digest alike whatever their columns'
/// representations, folded a column at a time in one typed loop per
/// representation. Shards, crunch slices and group ids hash with
/// `hash_rows`, which this leaves alone.
fn join_hashes(keys: &[&Column], rows: usize) -> Vec<Option<u32>> {
    fn fold(states: &mut [u64], digest: impl Fn(usize) -> u64) {
        states.iter_mut().enumerate().for_each(|(i, s)| *s = mix(*s ^ digest(i)));
    }
    let mut states = vec![0u64; rows];
    let mut valid = vec![true; rows];
    for key in keys {
        match key.data() {
            Data::Null(_) => valid.fill(false),
            Data::Int(v) => fold(&mut states, |i| cell_digest(ValueRef::Int(v[i]))),
            Data::Float(v) => fold(&mut states, |i| cell_digest(ValueRef::Float(v[i]))),
            Data::Date(v) => fold(&mut states, |i| cell_digest(ValueRef::Date(v[i]))),
            Data::Bool(v) => fold(&mut states, |i| cell_digest(ValueRef::Bool(v[i]))),
            Data::Str(v) => fold(&mut states, |i| cell_digest(ValueRef::Str(v.get(i)))),
            Data::Dict { dict, codes } => {
                let entries: Vec<u64> =
                    (0..dict.len()).map(|j| cell_digest(ValueRef::Str(dict.get(j)))).collect();
                fold(&mut states, |i| entries[codes[i] as usize])
            }
            Data::Values(v) => {
                fold(&mut states, |i| cell_digest(v[i].as_ref()));
                valid.iter_mut().zip(v).for_each(|(ok, x)| *ok &= !x.is_null());
            }
        }
        if let Some(ok) = key.valid() {
            valid.iter_mut().zip(ok).for_each(|(a, b)| *a &= b);
        }
    }
    let finish = |(s, ok): (u64, bool)| ok.then_some((s ^ (s >> 32)) as u32);
    states.into_iter().zip(valid).map(finish).collect()
}

/// A non-NULL join key cell's digest. A number digests its `f64` bits,
/// as `hash_value` does: `Int(x)` equals `Float(y)` exactly when
/// `x as f64` has `y`'s bits.
fn cell_digest(v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::Int(x) => (x as f64).to_bits(),
        ValueRef::Float(x) => x.to_bits(),
        ValueRef::Date(d) => d as u64 ^ 0xd1b5_4a32_d192_ed03,
        ValueRef::Bool(b) => b as u64 ^ 0xa076_1d64_78bd_642f,
        ValueRef::Str(s) => hash_value(ValueRef::Str(s)),
        ValueRef::Null => 0,
    }
}

/// The splitmix64 finalizer: every input bit reaches the low bits the
/// buckets index by.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How a probe tests one key column's cell against the build side's:
/// `Int` columns compare their `i64`s, any other pair by
/// [`Column::cell_eq`] (codes into one dictionary compare as codes).
/// Both cells are non-NULL: a NULL key is never linked or probed.
enum KeyEq<'a> {
    Ints(&'a [i64], &'a [i64]),
    Cells(&'a Column, &'a Column),
}

impl<'a> KeyEq<'a> {
    fn new(left: &'a Column, right: &'a Column) -> KeyEq<'a> {
        match (left.data(), right.data()) {
            (Data::Int(l), Data::Int(r)) => KeyEq::Ints(l, r),
            _ => KeyEq::Cells(left, right),
        }
    }

    fn eq(&self, l: usize, r: usize) -> bool {
        match self {
            KeyEq::Ints(a, b) => a[l] == b[r],
            KeyEq::Cells(a, b) => a.cell_eq(l, b, r),
        }
    }
}

/// Stable multi-key sort, as a permutation applied to every column.
/// Each key compares its column's typed cells; the order is `Value`'s.
/// When the first key has an integer form that keeps its order
/// ([`SortCol::Ranked`]), the rows sort as (NULL flag, integer, row)
/// triples in one unstable pass — the row breaks ties, so the order is
/// the stable one — and only rows that tie on it are compared on the
/// other keys.
pub fn sort(batch: Batch, keys: &[SortKey]) -> Batch {
    let typed: Vec<(SortCol, bool)> =
        keys.iter().map(|k| (SortCol::new(&batch.cols()[k.col]), k.desc)).collect();
    let order = match typed.first() {
        Some((SortCol::Ranked(ranked), desc)) => {
            let triple = |(i, &(ok, k)): (usize, &(bool, u64))| {
                if *desc { (!ok, !k, i) } else { (ok, k, i) }
            };
            let mut triples: Vec<(bool, u64, usize)> = ranked.iter().enumerate().map(triple).collect();
            triples.sort_unstable();
            let mut order: Vec<usize> = triples.iter().map(|&(_, _, row)| row).collect();
            let mut start = 0;
            for tie in triples.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                order[start..start + tie.len()].sort_by(|&a, &b| compare(&typed[1..], a, b));
                start += tie.len();
            }
            order
        }
        _ => {
            let mut order: Vec<usize> = (0..batch.rows()).collect();
            order.sort_by(|&a, &b| compare(&typed, a, b));
            order
        }
    };
    batch.gather(&order)
}

/// A projection's rows as one container, for both architectures' loads
/// and moveouts: sorted by the projection's sort columns (stably, so
/// ties keep load order), then through the one typed encoder.
pub fn encode_sorted(
    batch: Batch,
    proj: &Projection,
    writer: &RosWriter,
) -> Result<(Bytes, RosFooter)> {
    let keys: Vec<SortKey> = proj.sort.0.iter().map(|&c| SortKey::asc(c)).collect();
    let sorted = if keys.is_empty() { batch } else { sort(batch, &keys) };
    writer.encode(sorted.cols())
}

/// Rows `a` and `b` compared on `keys` in turn, each descending key
/// reversed.
fn compare(keys: &[(SortCol, bool)], a: usize, b: usize) -> Ordering {
    for (col, desc) in keys {
        let ord = col.cmp(a, b);
        if ord != Ordering::Equal {
            return if *desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// One sort key's column, shaped for comparing two of its rows under
/// `Value`'s order, NULL first.
enum SortCol<'a> {
    /// Each row's (not NULL, integer), the integer keeping the cells'
    /// order — an `i64` or `i32` with its sign bit flipped, a float's
    /// bits as `total_cmp` reads them, a dictionary entry's rank — and
    /// 0 for a NULL, so the pairs compare as the cells do.
    Ranked(Vec<(bool, u64)>),
    /// Strings, by bytes.
    Str(&'a StrVec, Option<&'a [bool]>),
    /// A column of no single type, cell by cell.
    Cells(&'a Column),
}

impl<'a> SortCol<'a> {
    fn new(col: &'a Column) -> SortCol<'a> {
        fn ranked(valid: Option<&[bool]>, rows: usize, key: impl Fn(usize) -> u64) -> SortCol<'static> {
            let pair = |i: usize| {
                let ok = valid.is_none_or(|v| v[i]);
                (ok, if ok { key(i) } else { 0 })
            };
            SortCol::Ranked((0..rows).map(pair).collect())
        }
        const SIGN: u64 = 1 << 63;
        let (valid, rows) = (col.valid(), col.len());
        match col.data() {
            Data::Int(v) => ranked(valid, rows, |i| v[i] as u64 ^ SIGN),
            Data::Date(v) => ranked(valid, rows, |i| v[i] as i64 as u64 ^ SIGN),
            Data::Float(v) => ranked(valid, rows, |i| {
                let bits = v[i].to_bits() as i64;
                (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ SIGN
            }),
            Data::Bool(v) => ranked(valid, rows, |i| u64::from(v[i])),
            Data::Dict { dict, codes } => {
                let mut by_entry: Vec<usize> = (0..dict.len()).collect();
                by_entry.sort_by(|&a, &b| dict.get(a).cmp(dict.get(b)));
                let mut ranks = vec![0; dict.len()];
                by_entry.iter().enumerate().for_each(|(rank, &j)| ranks[j] = rank as u64);
                ranked(valid, rows, |i| ranks[codes[i] as usize])
            }
            Data::Str(v) => SortCol::Str(v, valid),
            Data::Null(_) | Data::Values(_) => SortCol::Cells(col),
        }
    }

    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            SortCol::Ranked(ranked) => ranked[a].cmp(&ranked[b]),
            SortCol::Str(v, valid) => match valid.map(|ok| (ok[a], ok[b])) {
                None | Some((true, true)) => v.get(a).cmp(v.get(b)),
                Some((x, y)) => x.cmp(&y),
            },
            SortCol::Cells(col) => col.get(a).cmp(&col.get(b)),
        }
    }
}

/// First `n` rows.
pub fn limit(batch: Batch, n: usize) -> Batch {
    if n >= batch.rows() {
        return batch;
    }
    batch.gather(&(0..n).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use eon_types::Value;

    fn rows(data: &[&[i64]]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    fn batch(data: &[&[i64]]) -> Batch {
        Batch::from_rows(&rows(data), data.first().map_or(0, |r| r.len()))
    }

    fn hash_join(left: Batch, right: Batch, lk: &[usize], rk: &[usize], kind: JoinKind) -> Result<Batch> {
        Ok(JoinBuild::new(right, rk).probe(&left, lk, kind))
    }

    #[test]
    fn filter_keeps_matches() {
        let r = filter(
            batch(&[&[1], &[5], &[10]]),
            &Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(5i64)),
        )
        .unwrap();
        assert_eq!(r.into_rows(), rows(&[&[5], &[10]]));
    }

    #[test]
    fn project_computes() {
        let r = project(
            batch(&[&[2, 3]]),
            &[Expr::mul(Expr::col(0), Expr::col(1)), Expr::col(0)],
        )
        .unwrap();
        assert_eq!(r.into_rows(), rows(&[&[6, 2]]));
    }

    #[test]
    fn inner_join_emits_probe_order_then_build_order() {
        let left = batch(&[&[1, 10], &[2, 20], &[3, 30]]);
        let right = batch(&[&[1, 100], &[2, 200], &[2, 201]]);
        let out = hash_join(left, right, &[0], &[0], JoinKind::Inner).unwrap();
        assert_eq!(
            out.into_rows(),
            rows(&[&[1, 10, 1, 100], &[2, 20, 2, 200], &[2, 20, 2, 201]])
        );
    }

    #[test]
    fn left_join_pads_nulls_even_against_an_empty_right_side() {
        let out = hash_join(batch(&[&[1], &[9]]), batch(&[&[1, 100]]), &[0], &[0], JoinKind::Left)
            .unwrap()
            .into_rows();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], vec![Value::Int(9), Value::Null, Value::Null]);
        // A zero-row right side still knows its width.
        let out = hash_join(batch(&[&[1]]), Batch::nulls(2, 0), &[0], &[0], JoinKind::Left).unwrap();
        assert_eq!(out.into_rows(), vec![vec![Value::Int(1), Value::Null, Value::Null]]);
    }

    #[test]
    fn semi_and_anti() {
        let left = batch(&[&[1], &[2], &[3]]);
        let right = batch(&[&[2, 0], &[2, 1]]);
        let semi = hash_join(left.clone(), right.clone(), &[0], &[0], JoinKind::Semi).unwrap();
        assert_eq!(semi.into_rows(), rows(&[&[2]])); // no duplication despite 2 matches
        let anti = hash_join(left, right, &[0], &[0], JoinKind::Anti).unwrap();
        assert_eq!(anti.into_rows(), rows(&[&[1], &[3]]));
    }

    #[test]
    fn null_keys_never_match() {
        let left = Batch::from_rows(&[vec![Value::Null, Value::Int(1)]], 2);
        let right = Batch::from_rows(&[vec![Value::Null, Value::Int(2)]], 2);
        let out = hash_join(left.clone(), right.clone(), &[0], &[0], JoinKind::Inner).unwrap();
        assert_eq!(out.rows(), 0);
        // In a LEFT join the null-keyed left row survives with padding.
        let out = hash_join(left, right, &[0], &[0], JoinKind::Left).unwrap().into_rows();
        assert_eq!(out.len(), 1);
        assert!(out[0][2].is_null());
    }

    #[test]
    fn multi_key_join() {
        let left = batch(&[&[1, 2, 77]]);
        let right = batch(&[&[1, 2, 88], &[1, 3, 99]]);
        let out = hash_join(left, right, &[0, 1], &[0, 1], JoinKind::Inner).unwrap().into_rows();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][5], Value::Int(88));
    }

    #[test]
    fn sort_multi_key_with_desc() {
        let out = sort(
            batch(&[&[1, 5], &[2, 3], &[1, 9]]),
            &[SortKey::asc(0), SortKey::desc(1)],
        );
        assert_eq!(out.into_rows(), rows(&[&[1, 9], &[1, 5], &[2, 3]]));
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit(batch(&[&[1], &[2], &[3]]), 2).rows(), 2);
        assert_eq!(limit(batch(&[&[1]]), 5).rows(), 1);
    }
}
