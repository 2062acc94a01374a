//! The catalog handle: snapshots for readers, OCC commits for writers
//! (paper §2.4, §6.3).
//!
//! Writers `begin()` a [`Txn`], stage [`CatalogOp`]s against the
//! snapshot (recording a *write set* of object versions as they go),
//! then `commit()`. Commit takes the global catalog lock only to
//! validate the write set and swap in the new state — the §6.3 redesign
//! that keeps ROS generation outside the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use eon_types::{EonError, Oid, Result, TxnVersion};

use crate::log::TxnRecord;
use crate::objects::CatalogOp;
use crate::state::CatalogState;

/// An in-flight transaction.
pub struct Txn {
    base_version: TxnVersion,
    snapshot: Arc<CatalogState>,
    ops: Vec<CatalogOp>,
    /// (object, version observed when staged) — validated at commit.
    write_set: Vec<(Oid, TxnVersion)>,
}

impl Txn {
    /// The consistent snapshot this transaction reads from.
    pub fn snapshot(&self) -> &CatalogState {
        &self.snapshot
    }

    pub fn base_version(&self) -> TxnVersion {
        self.base_version
    }

    pub fn ops(&self) -> &[CatalogOp] {
        &self.ops
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Stage an op. Objects the op *modifies* enter the write set with
    /// the version currently visible in the snapshot; creations enter
    /// with version ZERO (conflict iff someone else created the oid).
    pub fn push(&mut self, op: CatalogOp) {
        for oid in touched_oids(&op) {
            let seen = self.snapshot.version_of(oid);
            if !self.write_set.iter().any(|(o, _)| *o == oid) {
                self.write_set.push((oid, seen));
            }
        }
        self.ops.push(op);
    }

    /// Explicitly add an object to the write set without an op — used
    /// when a decision was *based on* an object that must not change
    /// (e.g. the table whose schema a load read).
    pub fn observe(&mut self, oid: Oid) {
        let seen = self.snapshot.version_of(oid);
        if !self.write_set.iter().any(|(o, _)| *o == oid) {
            self.write_set.push((oid, seen));
        }
    }
}

/// Which object versions an op depends on / modifies.
fn touched_oids(op: &CatalogOp) -> Vec<Oid> {
    match op {
        CatalogOp::DefineShards(_) => vec![],
        CatalogOp::CreateTable(t) => vec![t.oid],
        CatalogOp::DropTable(o) => vec![*o],
        CatalogOp::AddProjection { table, oid, .. } => vec![*table, *oid],
        CatalogOp::AddColumn { table, .. } => vec![*table],
        CatalogOp::AddContainer(c) => vec![c.oid],
        CatalogOp::DropContainer(o) => vec![*o],
        CatalogOp::AddDeleteVector(d) => vec![d.oid, d.container],
        CatalogOp::DropDeleteVector(o) => vec![*o],
        // Subscription and coordinator changes are last-writer-wins
        // control state, not OCC-validated data.
        CatalogOp::UpsertSubscription(_)
        | CatalogOp::RemoveSubscription { .. }
        | CatalogOp::SetMergeoutCoordinator { .. } => vec![],
    }
}

struct Inner {
    state: Arc<CatalogState>,
    version: TxnVersion,
}

/// The node-local catalog instance.
pub struct Catalog {
    inner: Mutex<Inner>,
    oid_counter: AtomicU64,
    /// High bits of every OID this catalog mints. Each node uses its
    /// own namespace so concurrent transactions coordinated by
    /// different nodes can never allocate colliding OIDs (the same
    /// reason SIDs embed the node instance id, §5.1).
    oid_namespace: AtomicU64,
}

/// Bit position of the OID namespace within an OID.
const OID_NS_SHIFT: u32 = 48;
const OID_LOCAL_MASK: u64 = (1 << OID_NS_SHIFT) - 1;

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            inner: Mutex::new(Inner {
                state: Arc::new(CatalogState::default()),
                version: TxnVersion::ZERO,
            }),
            oid_counter: AtomicU64::new(1),
            oid_namespace: AtomicU64::new(0),
        }
    }

    /// Assign this catalog's OID namespace (call once at node start).
    pub fn set_oid_namespace(&self, ns: u64) {
        self.oid_namespace.store(ns, Ordering::Relaxed);
    }

    /// Current consistent snapshot (readers hold it as long as needed).
    pub fn snapshot(&self) -> Arc<CatalogState> {
        self.inner.lock().state.clone()
    }

    /// The global catalog version (§3.4).
    pub fn version(&self) -> TxnVersion {
        self.inner.lock().version
    }

    /// Allocate a fresh catalog OID (the "local id" of the SID scheme).
    pub fn next_oid(&self) -> Oid {
        let ns = self.oid_namespace.load(Ordering::Relaxed);
        Oid((ns << OID_NS_SHIFT) | self.oid_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Make the OID counter skip past `floor` if it belongs to this
    /// catalog's namespace (after recovery, so new OIDs don't collide
    /// with ones a previous incarnation of this node minted). OIDs from
    /// other namespaces are ignored — they can never collide with ours.
    pub fn bump_oid_floor(&self, floor: u64) {
        let ns = self.oid_namespace.load(Ordering::Relaxed);
        if floor >> OID_NS_SHIFT == ns {
            self.oid_counter
                .fetch_max((floor & OID_LOCAL_MASK) + 1, Ordering::Relaxed);
        }
    }

    /// Begin a transaction against the current snapshot.
    pub fn begin(&self) -> Txn {
        let g = self.inner.lock();
        Txn {
            base_version: g.version,
            snapshot: g.state.clone(),
            ops: Vec::new(),
            write_set: Vec::new(),
        }
    }

    /// OCC commit: validate the write set under the catalog lock, apply
    /// to a scratch clone, swap. Returns the record the caller must
    /// persist/distribute.
    pub fn commit(&self, txn: Txn) -> Result<TxnRecord> {
        let mut g = self.inner.lock();
        // Validation (§6.3): every object in the write set must still be
        // at the version the transaction observed.
        for (oid, seen) in &txn.write_set {
            let now = g.state.version_of(*oid);
            if now != *seen {
                return Err(EonError::WriteConflict(format!(
                    "{oid} changed ({seen} -> {now}) since transaction began"
                )));
            }
        }
        let next = g.version.next();
        let mut scratch = (*g.state).clone();
        for op in &txn.ops {
            scratch.apply(op, next)?;
        }
        g.state = Arc::new(scratch);
        g.version = next;
        Ok(TxnRecord {
            version: next,
            ops: txn.ops,
        })
    }

    /// Apply a consecutive run of records committed elsewhere (a commit
    /// batch's distribution, a catch-up tail) with **one** scratch clone.
    /// Versions must continue this catalog's with no gaps. All-or-nothing:
    /// the swap happens only after every record applies, so a failure
    /// leaves the catalog at its prior version.
    pub fn apply_committed_batch(&self, records: &[TxnRecord]) -> Result<()> {
        let Some(first) = records.first() else {
            return Ok(());
        };
        let mut g = self.inner.lock();
        if first.version != g.version.next() {
            return Err(EonError::Catalog(format!(
                "out-of-order log record {} applied at {}",
                first.version, g.version
            )));
        }
        let mut scratch = (*g.state).clone();
        let mut version = g.version;
        for record in records {
            if record.version != version.next() {
                return Err(EonError::Catalog(format!(
                    "gap in batch: record {} after {}",
                    record.version, version
                )));
            }
            for op in &record.ops {
                scratch.apply(op, record.version)?;
            }
            version = record.version;
        }
        g.state = Arc::new(scratch);
        g.version = version;
        drop(g);
        // Keep this node's OID counter ahead of any same-namespace OID
        // it has seen (relevant after this node restarts and its peers
        // replay records the old process minted).
        for oid in records
            .iter()
            .flat_map(|r| r.ops.iter())
            .flat_map(touched_oids)
        {
            self.bump_oid_floor(oid.0);
        }
        Ok(())
    }

    /// Install a recovered snapshot (checkpoint load, revive, metadata
    /// transfer from a peer).
    pub fn install(&self, state: CatalogState, version: TxnVersion) {
        let mut g = self.inner.lock();
        g.state = Arc::new(state);
        g.version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::Table;
    use eon_types::{schema, Value};

    fn table_op(cat: &Catalog, name: &str) -> (Oid, CatalogOp) {
        let oid = cat.next_oid();
        let s = schema![("a", Int)];
        (
            oid,
            CatalogOp::CreateTable(Table {
                oid,
                name: name.into(),
                schema: s,
                projections: vec![],
                defaults: vec![Value::Null],
            }),
        )
    }

    #[test]
    fn commit_advances_version() {
        let cat = Catalog::new();
        let mut t = cat.begin();
        let (_, op) = table_op(&cat, "t1");
        t.push(op);
        let rec = cat.commit(t).unwrap();
        assert_eq!(rec.version, TxnVersion(1));
        assert_eq!(cat.version(), TxnVersion(1));
        assert!(cat.snapshot().table_by_name("t1").is_some());
    }

    #[test]
    fn occ_conflict_detected() {
        let cat = Catalog::new();
        let (oid, op) = table_op(&cat, "t1");
        let mut t0 = cat.begin();
        t0.push(op);
        cat.commit(t0).unwrap();

        // Two concurrent transactions both drop the same table.
        let mut a = cat.begin();
        a.push(CatalogOp::DropTable(oid));
        let mut b = cat.begin();
        b.push(CatalogOp::DropTable(oid));
        cat.commit(a).unwrap();
        assert!(matches!(cat.commit(b), Err(EonError::WriteConflict(_))));
    }

    #[test]
    fn observe_guards_read_dependencies() {
        let cat = Catalog::new();
        let (oid, op) = table_op(&cat, "t1");
        let mut t0 = cat.begin();
        t0.push(op);
        cat.commit(t0).unwrap();

        // Transaction b reads table t1 (observes it) while a drops it.
        let mut b = cat.begin();
        b.observe(oid);
        b.push(CatalogOp::SetMergeoutCoordinator {
            shard: eon_types::ShardId(0),
            node: eon_types::NodeId(1),
        });
        let mut a = cat.begin();
        a.push(CatalogOp::DropTable(oid));
        cat.commit(a).unwrap();
        assert!(matches!(cat.commit(b), Err(EonError::WriteConflict(_))));
    }

    #[test]
    fn non_conflicting_txns_both_commit() {
        let cat = Catalog::new();
        let mut a = cat.begin();
        let (_, op_a) = table_op(&cat, "ta");
        a.push(op_a);
        let mut b = cat.begin();
        let (_, op_b) = table_op(&cat, "tb");
        b.push(op_b);
        cat.commit(a).unwrap();
        cat.commit(b).unwrap();
        assert_eq!(cat.version(), TxnVersion(2));
        assert!(cat.snapshot().table_by_name("ta").is_some());
        assert!(cat.snapshot().table_by_name("tb").is_some());
    }

    #[test]
    fn failed_apply_rolls_back_cleanly() {
        let cat = Catalog::new();
        let (_, op) = table_op(&cat, "dup");
        let mut t0 = cat.begin();
        t0.push(op);
        cat.commit(t0).unwrap();
        // Fresh oid but duplicate name: apply fails; state and version
        // must be unchanged.
        let mut t1 = cat.begin();
        let (_, op2) = table_op(&cat, "dup");
        t1.push(op2);
        assert!(cat.commit(t1).is_err());
        assert_eq!(cat.version(), TxnVersion(1));
        assert_eq!(cat.snapshot().tables.len(), 1);
    }

    #[test]
    fn apply_committed_batch_replicates_in_order() {
        let src = Catalog::new();
        let dst = Catalog::new();
        let recs: Vec<TxnRecord> = ["t1", "t2", "t3"]
            .iter()
            .map(|name| {
                let mut t = src.begin();
                let (_, op) = table_op(&src, name);
                t.push(op);
                src.commit(t).unwrap()
            })
            .collect();
        // A tail that does not continue the catalog's version, or has a
        // gap, is rejected without mutating state.
        assert!(dst.apply_committed_batch(&recs[1..]).is_err());
        let gapped = [recs[0].clone(), recs[2].clone()];
        assert!(dst.apply_committed_batch(&gapped).is_err());
        assert_eq!(dst.version(), TxnVersion::ZERO);
        // One record at a time and the whole tail at once agree.
        let serial = Catalog::new();
        for r in &recs {
            serial.apply_committed_batch(std::slice::from_ref(r)).unwrap();
        }
        dst.apply_committed_batch(&recs).unwrap();
        assert_eq!(dst.version(), src.version());
        assert_eq!(*dst.snapshot(), *src.snapshot());
        assert_eq!(*serial.snapshot(), *src.snapshot());
        // Replaying the tail again is out of order.
        assert!(dst.apply_committed_batch(&recs).is_err());
        assert_eq!(dst.version(), TxnVersion(3));
        // Empty batch is a no-op.
        dst.apply_committed_batch(&[]).unwrap();
        assert_eq!(dst.version(), TxnVersion(3));
    }

    #[test]
    fn snapshot_stable_across_commits() {
        let cat = Catalog::new();
        let snap0 = cat.snapshot();
        let mut t = cat.begin();
        let (_, op) = table_op(&cat, "t1");
        t.push(op);
        cat.commit(t).unwrap();
        assert!(snap0.tables.is_empty());
        assert_eq!(cat.snapshot().tables.len(), 1);
    }
}
