//! Crunch scaling (paper §4.4): letting *several* nodes collectively
//! serve one segment shard when node count exceeds shard count.
//!
//! Two mechanisms, both implemented as scan post-filters a node applies
//! to the rows of a shared shard:
//!
//! * **Hash filter** — re-hash each row with a finer segmentation
//!   predicate; worker `i` of `k` keeps rows whose sub-hash lands in its
//!   slice. Every worker reads the whole shard (worst case) but
//!   processes `1/k` of it, and the segmentation property is preserved
//!   *at the finer granularity* (local joins still work if both sides
//!   apply the same sub-split).
//! * **Container split** — workers partition the shard's containers;
//!   worker `i` scans only its containers. One read per row
//!   cluster-wide and good I/O, at the cost of skew vulnerability and
//!   the loss of the segmentation property (the paper's trade-off,
//!   which `bench/ablate_crunch` measures).

use eon_types::{hash_row_32, HashRange, Value};

/// A worker's share of a crunch-scaled shard scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrunchSlice {
    /// This worker's index within the group sharing the shard.
    pub worker: usize,
    /// Number of workers sharing the shard.
    pub of: usize,
}

impl CrunchSlice {
    pub fn new(worker: usize, of: usize) -> Self {
        assert!(of > 0 && worker < of, "invalid crunch slice {worker}/{of}");
        CrunchSlice { worker, of }
    }

    /// The whole shard (no split).
    pub fn all() -> Self {
        CrunchSlice { worker: 0, of: 1 }
    }

    pub fn is_split(&self) -> bool {
        self.of > 1
    }

    /// Hash-filter: does this worker keep the row whose segmentation
    /// columns hash to `seg_hash` (`eon_types::hash_cells_32`)? Applies
    /// a *second* hash-segmentation predicate over the same columns
    /// (decorrelated from the shard hash by a salt, otherwise every row
    /// of the shard would land on the same sub-slice).
    pub fn keeps(&self, seg_hash: u32) -> bool {
        // Salt by rotating in a constant so the sub-split is independent
        // of the shard split even though both hash the same columns.
        let h = seg_hash.rotate_left(16) ^ 0x9e37_79b9;
        self.of == 1 || HashRange::even_index(h, self.of) == self.worker
    }

    /// [`keeps`](Self::keeps) for a materialized row.
    pub fn keeps_row(&self, row: &[Value], seg_cols: &[usize]) -> bool {
        self.keeps(hash_row_32(row, seg_cols))
    }

    /// Container-split: which of `container_count` containers this
    /// worker scans (round-robin by index).
    pub fn container_indices(&self, container_count: usize) -> Vec<usize> {
        (0..container_count)
            .filter(|i| i % self.of == self.worker)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    #[test]
    fn workers_partition_rows_exactly() {
        // Every row kept by exactly one worker.
        for of in [2, 3, 5] {
            let slices: Vec<CrunchSlice> = (0..of).map(|w| CrunchSlice::new(w, of)).collect();
            for v in 0..500 {
                let keepers = slices
                    .iter()
                    .filter(|s| s.keeps_row(&row(v), &[0]))
                    .count();
                assert_eq!(keepers, 1, "row {v} kept by {keepers} workers (of={of})");
            }
        }
    }

    #[test]
    fn split_is_reasonably_balanced() {
        let a = CrunchSlice::new(0, 2);
        let kept = (0..2000).filter(|&v| a.keeps_row(&row(v), &[0])).count();
        assert!((800..1200).contains(&kept), "kept={kept}");
    }

    #[test]
    fn sub_split_decorrelated_from_shard_hash() {
        // Rows of ONE shard must still split across workers. Take rows
        // landing in shard 0 of 3, then check worker split is not
        // degenerate.
        let shard_rows: Vec<i64> = (0..3000)
            .filter(|&v| {
                HashRange::even_index(hash_row_32(&row(v), &[0]), 3) == 0
            })
            .collect();
        assert!(shard_rows.len() > 500);
        let w0 = CrunchSlice::new(0, 2);
        let kept = shard_rows
            .iter()
            .filter(|&&v| w0.keeps_row(&row(v), &[0]))
            .count();
        let frac = kept as f64 / shard_rows.len() as f64;
        assert!((0.35..0.65).contains(&frac), "frac={frac}");
    }

    #[test]
    fn same_key_same_worker() {
        // The finer segmentation property: equal keys always land on
        // the same worker, so sub-split local joins remain possible.
        let s = CrunchSlice::new(1, 3);
        for v in 0..100 {
            assert_eq!(
                s.keeps_row(&row(v), &[0]),
                s.keeps_row(&row(v), &[0]),
            );
        }
    }

    #[test]
    fn container_split_partitions_indices() {
        let a = CrunchSlice::new(0, 2).container_indices(5);
        let b = CrunchSlice::new(1, 2).container_indices(5);
        assert_eq!(a, vec![0, 2, 4]);
        assert_eq!(b, vec![1, 3]);
    }

    #[test]
    fn unsplit_slice_keeps_everything() {
        let s = CrunchSlice::all();
        assert!(!s.is_split());
        assert!(s.keeps_row(&row(7), &[0]));
        assert_eq!(s.container_indices(3), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn invalid_slice_panics() {
        CrunchSlice::new(2, 2);
    }
}
