//! Segmentation split at load time (paper §3.1, §4.5): "Data load
//! splits the data according to the segments and writes the component
//! pieces to a shared storage" — every storage container holds rows for
//! exactly one shard.

use eon_types::{hash_row_32, HashRange, Value};

use crate::batch::{hash_rows, Column};

/// Shard index for a single row given the segmentation columns and the
/// (even) shard count fixed at database creation.
pub fn shard_of_row(row: &[Value], seg_cols: &[usize], num_shards: usize) -> usize {
    let h = hash_row_32(row, seg_cols);
    HashRange::even_index(h, num_shards)
}

/// Split `rows` rows into `num_shards` buckets by the segmentation hash
/// of their `seg` cells: each row's [`hash_rows`] (a column at a time,
/// equal to [`hash_row_32`] of the row) placed by
/// [`HashRange::even_index`]. Returns each bucket's row indices, in row
/// order (the projection sort happens afterwards, per shard).
pub fn split_by_shard(seg: &[&Column], rows: usize, num_shards: usize) -> Vec<Vec<usize>> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
    for (i, h) in hash_rows(seg, rows).into_iter().enumerate() {
        buckets[HashRange::even_index(h, num_shards)].push(i);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::{hash_value, HashRange};
    use proptest::prelude::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i * 10)]).collect()
    }

    /// Column `c` of `rows`.
    fn column(rows: &[Vec<Value>], c: usize) -> Column {
        Column::from_values(rows.iter().map(|r| r[c].as_ref()))
    }

    #[test]
    fn split_partitions_all_rows() {
        let input = rows(1000);
        let buckets = split_by_shard(&[&column(&input, 0)], input.len(), 4);
        assert_eq!(buckets.len(), 4);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 1000);
        // every bucket non-trivially populated for sequential keys
        for b in &buckets {
            assert!(b.len() > 100, "bucket of {}", b.len());
        }
    }

    #[test]
    fn split_is_consistent_with_shard_of_row() {
        let input = rows(200);
        let (a, b) = (column(&input, 0), column(&input, 1));
        for (cols, seg) in [(vec![&a], vec![0]), (vec![&b, &a], vec![1, 0])] {
            let buckets = split_by_shard(&cols, input.len(), 3);
            for (i, bucket) in buckets.iter().enumerate() {
                assert!(bucket.windows(2).all(|w| w[0] < w[1]), "row order kept");
                for &r in bucket {
                    assert_eq!(shard_of_row(&input[r], &seg, 3), i);
                }
            }
        }
    }

    #[test]
    fn same_key_same_shard_across_tables() {
        // The co-segmentation property behind local joins (§4): hashing
        // column "a" of T1 and column "b" of T2 puts equal values in the
        // same shard even though the column positions differ.
        for v in 0..50i64 {
            let t1_row = vec![Value::Int(999), Value::Int(v)];
            let t2_row = vec![Value::Int(v), Value::Str("x".into())];
            assert_eq!(
                shard_of_row(&t1_row, &[1], 4),
                shard_of_row(&t2_row, &[0], 4)
            );
        }
    }

    /// Cells where equality across types is easy to get wrong: signed
    /// zeros, NaN payloads, integers around 2^53 (where `f64` stops
    /// being exact) and at the ends of `i64`, and the same small numbers
    /// as `Int`, `Float`, `Date` and `Str`.
    fn cell() -> impl Strategy<Value = Value> {
        const EDGE: i64 = 1 << 53;
        let ints = [0, 1, -1, 5, EDGE - 1, EDGE, EDGE + 1, -EDGE - 1, -EDGE, i64::MIN, i64::MAX];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            5.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_0000_0001),
            EDGE as f64,
            -(EDGE as f64),
            (EDGE + 2) as f64,
            i64::MIN as f64,
            i64::MAX as f64,
        ];
        prop_oneof![
            (0..ints.len()).prop_map(move |i| Value::Int(ints[i])),
            (0..floats.len()).prop_map(move |i| Value::Float(floats[i])),
            (-1i32..6).prop_map(Value::Date),
            (0..3usize).prop_map(|i| Value::Str(["", "1", "a"][i].into())),
            Just(Value::Null),
        ]
    }

    /// The same number in the other representation, where one exists.
    fn twin(v: &Value) -> Value {
        match v {
            Value::Int(i) => Value::Float(*i as f64),
            Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
            v => v.clone(),
        }
    }

    proptest! {
        /// What co-located joins stand on: cells that compare equal hash
        /// equal, so rows that a join matches land in the same shard for
        /// every shard count, alone or beside another column.
        #[test]
        fn equal_cells_hash_and_shard_alike(a in cell(), b in cell(), c in cell()) {
            for b in [b, twin(&a)] {
                if a != b {
                    continue;
                }
                prop_assert_eq!(hash_value(&a), hash_value(&b), "{:?} == {:?}", a, b);
                let (ra, rb) = (vec![c.clone(), a.clone()], vec![c.clone(), b.clone()]);
                for n in 1..=16 {
                    prop_assert_eq!(shard_of_row(&ra, &[1], n), shard_of_row(&rb, &[1], n));
                    prop_assert_eq!(shard_of_row(&ra, &[0, 1], n), shard_of_row(&rb, &[0, 1], n));
                }
            }
        }
    }

    #[test]
    fn shard_matches_hash_range() {
        let ranges = HashRange::split_even(5);
        for i in 0..100i64 {
            let row = vec![Value::Int(i)];
            let s = shard_of_row(&row, &[0], 5);
            let h = eon_types::hash_row_32(&row, &[0]);
            assert!(ranges[s].contains(h));
        }
    }
}
