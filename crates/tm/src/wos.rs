//! The Write Optimized Store — Enterprise mode only.
//!
//! §2.3: in-memory, unsorted and unencoded, buffers small writes until
//! moveout sorts and spills them as a ROS container. §5.1 explains why
//! Eon mode drops it: data in a WOS can be lost on crash, and
//! asymmetric memory pressure makes node storage diverge. The
//! Enterprise baseline keeps it so the comparison in the benches is
//! faithful.
//!
//! A buffer is typed columns — one [`Batch`] per key, appended in load
//! order — so a scan tests it with the scan kernel's predicate loops and
//! moveout hands it to the one encoder without a transpose.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use eon_columnar::Batch;
use eon_types::Oid;
use parking_lot::Mutex;

/// Per-projection in-memory column buffer.
pub struct Wos {
    /// Moveout trigger: buffered rows per projection.
    moveout_threshold: usize,
    buffers: Mutex<HashMap<Oid, Batch>>,
}

impl Wos {
    pub fn new(moveout_threshold: usize) -> Self {
        Wos {
            moveout_threshold: moveout_threshold.max(1),
            buffers: Mutex::new(HashMap::new()),
        }
    }

    /// Buffer a batch for a projection, after the rows already there;
    /// returns true when the projection has crossed the moveout
    /// threshold.
    pub fn append(&self, projection: Oid, batch: Batch) -> bool {
        let mut g = self.buffers.lock();
        let buf = match g.entry(projection) {
            Entry::Occupied(e) => {
                let buf = e.into_mut();
                buf.append(batch);
                buf
            }
            Entry::Vacant(e) => e.insert(batch),
        };
        buf.rows() >= self.moveout_threshold
    }

    /// Run `read` on the batch buffered for a projection, borrowed
    /// under the buffer's lock (queries must read the WOS too — it
    /// holds committed data in Enterprise mode), so a scan copies only
    /// the cells it keeps. `None` when nothing is buffered.
    pub fn read<R>(&self, projection: Oid, read: impl FnOnce(&Batch) -> R) -> Option<R> {
        self.buffers.lock().get(&projection).map(read)
    }

    pub fn buffered_count(&self, projection: Oid) -> usize {
        self.buffers.lock().get(&projection).map_or(0, Batch::rows)
    }

    /// Moveout: drain the buffer for conversion to a ROS container.
    /// The caller sorts (WOS data is unsorted by design) and encodes.
    pub fn moveout(&self, projection: Oid) -> Option<Batch> {
        self.buffers.lock().remove(&projection)
    }

    /// Total rows across all projections (memory pressure signal).
    pub fn total_rows(&self) -> usize {
        self.buffers.lock().values().map(Batch::rows).sum()
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
    use eon_types::Value;

    fn rows(lo: i64, hi: i64) -> Vec<Vec<Value>> {
        (lo..hi).map(|i| vec![Value::Int(i)]).collect()
    }

    fn batch(lo: i64, hi: i64) -> Batch {
        Batch::from_rows(&rows(lo, hi), 1)
    }

    #[test]
    fn buffers_until_threshold() {
        let wos = Wos::new(10);
        assert!(!wos.append(Oid(1), batch(0, 5)));
        assert_eq!(wos.buffered_count(Oid(1)), 5);
        assert!(wos.append(Oid(1), batch(5, 10)));
        assert_eq!(wos.buffered_count(Oid(1)), 10);
    }

    #[test]
    fn moveout_drains_in_load_order() {
        let wos = Wos::new(4);
        wos.append(Oid(1), batch(0, 4));
        wos.append(Oid(1), batch(4, 6));
        let drained = wos.moveout(Oid(1)).expect("buffered");
        assert_eq!(drained.into_rows(), rows(0, 6));
        assert_eq!(wos.buffered_count(Oid(1)), 0);
        assert!(wos.moveout(Oid(1)).is_none());
    }

    #[test]
    fn projections_are_independent() {
        let wos = Wos::new(100);
        wos.append(Oid(1), batch(0, 3));
        wos.append(Oid(2), batch(0, 4));
        let seen = wos.read(Oid(2), |b| b.clone().into_rows());
        assert_eq!(seen, Some(rows(0, 4)));
        assert!(wos.read(Oid(3), Batch::rows).is_none());
        assert_eq!(wos.buffered_count(Oid(1)), 3);
        assert_eq!(wos.total_rows(), 7);
    }

    #[test]
    fn crash_loses_buffered_data() {
        let wos = Wos::new(100);
        wos.append(Oid(1), batch(0, 50));
        wos.crash();
        assert_eq!(wos.total_rows(), 0);
    }
}
