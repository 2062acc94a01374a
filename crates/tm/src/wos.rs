//! The Write Optimized Store — Enterprise mode only.
//!
//! §2.3: in-memory, unencoded, buffers small writes until moveout sorts
//! and spills them as a ROS container. §5.1 explains why Eon mode drops
//! it: data in a WOS can be lost on crash, and asymmetric memory
//! pressure makes node storage diverge. The Enterprise baseline keeps
//! it so the comparison in the benches is faithful.

use std::collections::HashMap;

use eon_types::{Oid, Value};
use parking_lot::Mutex;

/// Per-projection in-memory row buffer.
pub struct Wos {
    /// Moveout trigger: buffered rows per projection.
    moveout_threshold: usize,
    buffers: Mutex<HashMap<Oid, Vec<Vec<Value>>>>,
}

impl Wos {
    pub fn new(moveout_threshold: usize) -> Self {
        Wos {
            moveout_threshold: moveout_threshold.max(1),
            buffers: Mutex::new(HashMap::new()),
        }
    }

    /// Buffer rows for a projection; returns true when the projection
    /// has crossed the moveout threshold.
    pub fn append(&self, projection: Oid, rows: Vec<Vec<Value>>) -> bool {
        let mut g = self.buffers.lock();
        let buf = g.entry(projection).or_default();
        buf.extend(rows);
        buf.len() >= self.moveout_threshold
    }

    /// Visit the rows currently buffered for a projection, in order,
    /// borrowed under the buffer's lock (queries must read the WOS too —
    /// it holds committed data in Enterprise mode), so a scan copies
    /// only the cells it keeps.
    pub fn for_each_row(&self, projection: Oid, visit: impl FnMut(&[Value])) {
        let buffers = self.buffers.lock();
        buffers.get(&projection).into_iter().flatten().map(Vec::as_slice).for_each(visit);
    }

    pub fn buffered_count(&self, projection: Oid) -> usize {
        self.buffers
            .lock()
            .get(&projection)
            .map(|b| b.len())
            .unwrap_or(0)
    }

    /// Moveout: drain the buffer for conversion to a ROS container.
    /// The caller sorts (WOS data is unsorted by design) and writes.
    pub fn moveout(&self, projection: Oid) -> Vec<Vec<Value>> {
        self.buffers
            .lock()
            .remove(&projection)
            .unwrap_or_default()
    }

    /// Total rows across all projections (memory pressure signal).
    pub fn total_rows(&self) -> usize {
        self.buffers.lock().values().map(|b| b.len()).sum()
    }

    /// Crash simulation: in-memory contents vanish. This is exactly the
    /// §5.1 durability gap Eon closes by not having a WOS.
    pub fn crash(&self) {
        self.buffers.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    #[test]
    fn buffers_until_threshold() {
        let wos = Wos::new(10);
        assert!(!wos.append(Oid(1), rows(5)));
        assert_eq!(wos.buffered_count(Oid(1)), 5);
        assert!(wos.append(Oid(1), rows(5)));
        assert_eq!(wos.buffered_count(Oid(1)), 10);
    }

    #[test]
    fn moveout_drains() {
        let wos = Wos::new(4);
        wos.append(Oid(1), rows(6));
        let drained = wos.moveout(Oid(1));
        assert_eq!(drained.len(), 6);
        assert_eq!(wos.buffered_count(Oid(1)), 0);
        assert!(wos.moveout(Oid(1)).is_empty());
    }

    #[test]
    fn projections_are_independent() {
        let wos = Wos::new(100);
        wos.append(Oid(1), rows(3));
        wos.append(Oid(2), rows(4));
        let mut seen = Vec::new();
        wos.for_each_row(Oid(2), |row| seen.push(row.to_vec()));
        assert_eq!(seen, rows(4));
        assert_eq!(wos.buffered_count(Oid(1)), 3);
        assert_eq!(wos.total_rows(), 7);
    }

    #[test]
    fn crash_loses_buffered_data() {
        let wos = Wos::new(100);
        wos.append(Oid(1), rows(50));
        wos.crash();
        assert_eq!(wos.total_rows(), 0);
    }
}
