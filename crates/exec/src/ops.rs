//! The operators, each one implementation over [`Batch`]es: an operator
//! reads whole columns and emits whole columns, and nothing in here
//! builds a row (DESIGN.md "Execution engine: batches").
//!
//! Row order is part of every operator's contract — a filter keeps its
//! input order, a join emits in probe order with each probe row's
//! matches in build order, a sort is stable — because Float sums
//! downstream are only bit-reproducible when rows fold in one order.

use eon_columnar::{hash_rows, Batch, Column};
use eon_types::{Result, ValueRef};

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
        // An index past the end gathers as NULL: the padding of `Left`.
        let unmatched = usize::MAX;
        let (mut lidx, mut ridx, mut matches) = (Vec::new(), Vec::new(), Vec::new());
        for (l, hash) in join_hashes(&lkeys, left.rows()).into_iter().enumerate() {
            matches.clear();
            if let Some(hash) = hash {
                let equal = |r: &usize| lkeys.iter().zip(&rkeys).all(|(a, b)| a.cell_eq(l, b, *r));
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

/// Each row's key hash, computed a column at a time ([`hash_rows`]),
/// `None` where a key cell is NULL: a NULL key never matches.
fn join_hashes(keys: &[&Column], rows: usize) -> Vec<Option<u32>> {
    let hashes = hash_rows(keys, rows).into_iter().enumerate();
    hashes.map(|(i, hash)| keys.iter().all(|k| !k.is_null(i)).then_some(hash)).collect()
}

/// Stable multi-key sort, as a permutation applied to every column.
pub fn sort(batch: Batch, keys: &[SortKey]) -> Batch {
    let mut order: Vec<usize> = (0..batch.rows()).collect();
    order.sort_by(|&a, &b| {
        for k in keys {
            let col = &batch.cols()[k.col];
            let ord = col.get(a).cmp(&col.get(b));
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    batch.gather(&order)
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
