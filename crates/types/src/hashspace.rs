//! The 32-bit hash space that segment shards partition (paper §3.1,
//! Fig 3).
//!
//! Every segmented projection declares `SEGMENTED BY HASH(cols)`. The
//! engine hashes each row's segmentation columns into `[0, 2^32)` and the
//! shard whose range contains the hash owns the row's storage and
//! metadata. The hash must be (a) deterministic across nodes and process
//! restarts — it is persisted implicitly in every storage container — and
//! (b) well-spread for the "high cardinality, even distribution" columns
//! the paper recommends, so we use an FNV-1a/Murmur-style mix rather than
//! `DefaultHasher` (whose seeding is process-local).

use crate::value::{Value, ValueRef};

/// Width of the hash space. Shard ranges are over `[0, 2^32)`.
pub const HASH_SPACE_BITS: u32 = 32;

/// Size of the hash space as a u64 (2^32).
pub const HASH_SPACE_SIZE: u64 = 1 << 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Final avalanche mix (from splitmix64) so low-entropy inputs such as
/// sequential integers still spread over the whole space.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash a single value (a `&Value` or a borrowed cell) into a 64-bit
/// digest. `Int` and `Float` values that compare equal hash equal
/// (matching `Value`'s `Hash` impl).
pub fn hash_value<'a>(v: impl Into<ValueRef<'a>>) -> u64 {
    let state = match v.into() {
        ValueRef::Null => fnv1a(&[0], FNV_OFFSET),
        ValueRef::Bool(b) => fnv1a(&[1, b as u8], FNV_OFFSET),
        ValueRef::Int(i) => fnv1a(&(i as f64).to_bits().to_le_bytes(), fnv1a(&[2], FNV_OFFSET)),
        ValueRef::Float(f) => fnv1a(&f.to_bits().to_le_bytes(), fnv1a(&[2], FNV_OFFSET)),
        ValueRef::Date(d) => fnv1a(&d.to_le_bytes(), fnv1a(&[3], FNV_OFFSET)),
        ValueRef::Str(s) => fnv1a(s.as_bytes(), fnv1a(&[4], FNV_OFFSET)),
    };
    mix(state)
}

/// Hash a row's segmentation cells, in segmentation-column order, into
/// the 32-bit segmentation space.
///
/// Combining uses a positional multiplier so `HASH(a, b) != HASH(b, a)`
/// in general, like SQL `HASH(a, b)`.
pub fn hash_cells_32<'a>(cells: impl IntoIterator<Item = ValueRef<'a>>) -> u32 {
    let acc = cells.into_iter().fold(HASH_CELLS_SEED, |acc, v| hash_cells_step(acc, hash_value(v)));
    hash_cells_finish(acc)
}

/// [`hash_cells_32`]'s running state before its first cell. A caller
/// hashing a column at a time keeps one state per row, folds each cell's
/// [`hash_value`] in with [`hash_cells_step`] and ends with
/// [`hash_cells_finish`] — the same hash, cell for cell.
pub const HASH_CELLS_SEED: u64 = FNV_OFFSET;

/// Fold the next cell's [`hash_value`] digest into a running state.
#[inline]
pub fn hash_cells_step(acc: u64, digest: u64) -> u64 {
    acc.rotate_left(5).wrapping_mul(FNV_PRIME).wrapping_add(digest)
}

/// The 32-bit hash of a finished running state.
#[inline]
pub fn hash_cells_finish(acc: u64) -> u32 {
    (mix(acc) >> 32) as u32
}

/// [`hash_cells_32`] over the columns `cols` of a materialized row.
pub fn hash_row_32(row: &[Value], cols: &[usize]) -> u32 {
    hash_cells_32(cols.iter().map(|&c| row[c].as_ref()))
}

/// A half-open region `[lo, hi)` of the 32-bit hash space. `hi` is held
/// as u64 so the final range can end at exactly `2^32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashRange {
    pub lo: u64,
    pub hi: u64,
}

impl HashRange {
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi && hi <= HASH_SPACE_SIZE, "invalid hash range");
        HashRange { lo, hi }
    }

    /// The full hash space.
    pub fn full() -> Self {
        HashRange {
            lo: 0,
            hi: HASH_SPACE_SIZE,
        }
    }

    pub fn contains(&self, h: u32) -> bool {
        let h = h as u64;
        self.lo <= h && h < self.hi
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Split the hash space into `n` contiguous, equal-width ranges
    /// (the fixed shard layout chosen at database creation, §3.1).
    ///
    /// Boundaries are `ceil(i * 2^32 / n)` so that range membership is
    /// exactly `even_index(h, n) == i` — the two definitions must agree
    /// or a row could be stored in one shard and looked up in another.
    pub fn split_even(n: usize) -> Vec<HashRange> {
        assert!(n > 0, "need at least one shard");
        let n64 = n as u64;
        let lo = |i: u64| (i * HASH_SPACE_SIZE).div_ceil(n64);
        (0..n64)
            .map(|i| HashRange {
                lo: lo(i),
                hi: lo(i + 1),
            })
            .collect()
    }

    /// Which of the `n` even ranges contains hash `h`. Constant-time
    /// companion of [`split_even`], used on the hot load path.
    pub fn even_index(h: u32, n: usize) -> usize {
        ((h as u64 * n as u64) >> HASH_SPACE_BITS) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_space_without_overlap() {
        for n in [1, 2, 3, 4, 7, 16] {
            let ranges = HashRange::split_even(n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].lo, 0);
            assert_eq!(ranges[n - 1].hi, HASH_SPACE_SIZE);
            for w in ranges.windows(2) {
                assert_eq!(w[0].hi, w[1].lo);
            }
        }
    }

    #[test]
    fn even_index_matches_contains() {
        for n in [1, 2, 3, 5, 8] {
            let ranges = HashRange::split_even(n);
            for h in [0u32, 1, 1 << 20, u32::MAX / 3, u32::MAX - 1, u32::MAX] {
                let i = HashRange::even_index(h, n);
                assert!(ranges[i].contains(h), "h={h} n={n} i={i}");
            }
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let row = vec![Value::Int(42), Value::Str("abc".into())];
        assert_eq!(hash_row_32(&row, &[0, 1]), hash_row_32(&row, &[0, 1]));
    }

    #[test]
    fn hash_depends_on_column_order() {
        let row = vec![Value::Int(1), Value::Int(2)];
        assert_ne!(hash_row_32(&row, &[0, 1]), hash_row_32(&row, &[1, 0]));
    }

    #[test]
    fn sequential_keys_spread_evenly() {
        // The paper recommends high-cardinality columns; sequential ids
        // are the common case (e.g. HASH(sale_id) in Fig 2). Check the
        // distribution over 4 shards is within 10% of even.
        let n = 4;
        let mut counts = vec![0usize; n];
        let total = 40_000;
        for i in 0..total {
            let row = vec![Value::Int(i as i64)];
            let h = hash_row_32(&row, &[0]);
            counts[HashRange::even_index(h, n)] += 1;
        }
        let expect = total / n;
        for c in counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 10) as u64,
                "skewed: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn range_contains_edges() {
        let r = HashRange::new(10, 20);
        assert!(r.contains(10));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
        assert!(!HashRange::new(5, 5).contains(5));
        assert!(HashRange::new(5, 5).is_empty());
    }
}
