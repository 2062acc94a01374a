//! Catalog persistence (paper §3.5): local-first durability with
//! asynchronous upload to shared storage.
//!
//! "Each node writes transaction logs to local storage, then
//! independently uploads them to shared storage on a regular,
//! configurable interval." The store tracks the node's **sync
//! interval** — the range of versions it could revive to from what it
//! has uploaded: checkpoints raise the lower bound, uploaded logs raise
//! the upper bound.

use eon_types::{Result, TxnVersion};
use parking_lot::Mutex;

use eon_storage::fault::{site, FaultPlan};
use eon_storage::{FaultInjector, SharedFs};

use crate::codec::{decode_checkpoint, decode_log_file, encode_checkpoint, encode_log_file};
use crate::log::{ckpt_key, txn_key, version_of_key, version_range_of_key, Checkpoint, TxnRecord};
use crate::state::CatalogState;

/// The range of versions a node can revive to from shared storage
/// (§3.5): `[oldest uploaded checkpoint, newest uploaded log]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncInterval {
    pub lo: TxnVersion,
    pub hi: TxnVersion,
}

/// How many checkpoints to retain (§2.4: "Vertica retains two
/// checkpoints, any prior checkpoints and transaction logs can be
/// deleted").
const CHECKPOINTS_RETAINED: usize = 2;

/// Persistence for one node's catalog.
pub struct CatalogStore {
    /// Node-local durable storage (commit writes land here first).
    local: SharedFs,
    /// The cluster's shared storage.
    shared: SharedFs,
    /// Shared-storage prefix, qualified by the cluster incarnation id
    /// (§3.5: "metadata files uploaded to shared storage are qualified
    /// with the incarnation id").
    shared_prefix: String,
    /// Highest version uploaded to shared storage.
    uploaded_hi: Mutex<TxnVersion>,
    /// Crash-point plan threaded down from the database config
    /// (DESIGN.md "Fault model"); inert unless a chaos test arms it.
    faults: Mutex<FaultInjector>,
}

const LOCAL_PREFIX: &str = "catalog/";

impl CatalogStore {
    pub fn new(local: SharedFs, shared: SharedFs, incarnation: &str) -> Self {
        CatalogStore {
            local,
            shared,
            shared_prefix: format!("meta/{incarnation}/"),
            uploaded_hi: Mutex::new(TxnVersion::ZERO),
            faults: Mutex::new(FaultPlan::inert()),
        }
    }

    /// Install the crash-point plan (called when the owning node is
    /// commissioned or restarted).
    pub fn set_faults(&self, faults: FaultInjector) {
        *self.faults.lock() = faults;
    }

    pub fn shared_prefix(&self) -> &str {
        &self.shared_prefix
    }

    /// Append consecutive committed records to the local redo log as
    /// **one** file — the §3.5 commit durability point ("process
    /// termination results in reading the local transaction logs and no
    /// loss of transactions"). One write is one durability point for the
    /// whole file: after a crash either every record in it is replayable
    /// or none is. A commit appends one record; a catch-up appends its
    /// whole tail.
    pub fn append_local(&self, records: &[TxnRecord]) -> Result<()> {
        let (Some(lo), Some(hi)) = (records.first(), records.last()) else {
            return Ok(());
        };
        debug_assert_eq!(hi.version.0 - lo.version.0 + 1, records.len() as u64);
        self.local.write(
            &txn_key(LOCAL_PREFIX, lo.version, hi.version),
            encode_log_file(records),
        )
    }

    /// Write a checkpoint locally and prune old checkpoints + the log
    /// records they subsume, retaining [`CHECKPOINTS_RETAINED`].
    pub fn write_checkpoint(&self, ckpt: &Checkpoint) -> Result<()> {
        self.faults.lock().hit(site::CKPT_PRE_WRITE)?;
        self.local.write(
            &ckpt_key(LOCAL_PREFIX, ckpt.version),
            encode_checkpoint(ckpt),
        )?;
        let mut ckpts = self.local.list(&format!("{LOCAL_PREFIX}ckpt/"))?;
        ckpts.sort();
        if ckpts.len() > CHECKPOINTS_RETAINED {
            let drop_upto = ckpts[ckpts.len() - CHECKPOINTS_RETAINED].clone();
            let floor = version_of_key(&drop_upto).unwrap_or(TxnVersion::ZERO);
            for k in &ckpts[..ckpts.len() - CHECKPOINTS_RETAINED] {
                self.local.delete(k)?;
            }
            // Logs at or before the oldest retained checkpoint are
            // subsumed by it. A batch file straddling the floor is kept
            // whole — replay from the checkpoint skips its subsumed
            // prefix.
            for k in self.local.list(&format!("{LOCAL_PREFIX}txn/"))? {
                if version_range_of_key(&k).map(|(_, hi)| hi <= floor).unwrap_or(false) {
                    self.local.delete(&k)?;
                }
            }
        }
        Ok(())
    }

    /// Upload everything local that shared storage lacks (the periodic
    /// sync, §3.5, and the flush on clean shutdown). Returns the new
    /// sync interval.
    pub fn sync_to_shared(&self) -> Result<SyncInterval> {
        self.faults.lock().hit(site::SYNC_PRE_UPLOAD)?;
        for kind in ["ckpt/", "txn/"] {
            let local_keys = self.local.list(&format!("{LOCAL_PREFIX}{kind}"))?;
            let shared_keys = self.shared.list(&format!("{}{kind}", self.shared_prefix))?;
            for lk in local_keys {
                let suffix = lk.trim_start_matches(LOCAL_PREFIX);
                let sk = format!("{}{suffix}", self.shared_prefix);
                if !shared_keys.contains(&sk) {
                    // A crash here leaves the sync interval partially
                    // advanced: some files uploaded, later ones not.
                    self.faults.lock().hit(site::SYNC_MID_UPLOAD)?;
                    let data = self.local.read(&lk)?;
                    // `shared` is the database's retrying handle: the
                    // upload survives transient S3 failures below here.
                    self.shared.write(&sk, data)?;
                }
                if kind == "txn/" {
                    if let Some((_, v)) = version_range_of_key(&lk) {
                        let mut hi = self.uploaded_hi.lock();
                        if v > *hi {
                            *hi = v;
                        }
                    }
                }
            }
        }
        self.sync_interval()
    }

    /// The current sync interval as recorded on shared storage.
    pub fn sync_interval(&self) -> Result<SyncInterval> {
        let ckpts = self.shared.list(&format!("{}ckpt/", self.shared_prefix))?;
        let txns = self.shared.list(&format!("{}txn/", self.shared_prefix))?;
        let lo = ckpts
            .iter()
            .filter_map(|k| version_of_key(k))
            .min()
            .unwrap_or(TxnVersion::ZERO);
        let hi = txns
            .iter()
            .filter_map(|k| version_range_of_key(k).map(|(_, hi)| hi))
            .max()
            .unwrap_or(lo)
            .max(
                ckpts
                    .iter()
                    .filter_map(|k| version_of_key(k))
                    .max()
                    .unwrap_or(TxnVersion::ZERO),
            );
        Ok(SyncInterval { lo, hi })
    }

    /// Startup recovery from *local* storage (§2.4): newest valid
    /// checkpoint, then replay subsequent logs.
    pub fn recover_local(&self) -> Result<(CatalogState, TxnVersion)> {
        Self::recover_from(self.local.as_ref(), LOCAL_PREFIX, None)
    }

    /// Revive recovery from *shared* storage, truncating at
    /// `truncation` (§3.5): use the newest checkpoint at or below the
    /// truncation version, replay logs up to it, discard the rest.
    pub fn recover_from_shared(
        &self,
        truncation: TxnVersion,
    ) -> Result<(CatalogState, TxnVersion)> {
        Self::recover_from(self.shared.as_ref(), &self.shared_prefix, Some(truncation))
    }

    fn recover_from(
        fs: &dyn eon_storage::FileSystem,
        prefix: &str,
        upto: Option<TxnVersion>,
    ) -> Result<(CatalogState, TxnVersion)> {
        let in_range = |v: TxnVersion| upto.map(|u| v <= u).unwrap_or(true);
        // Newest usable checkpoint.
        let mut ckpts: Vec<(TxnVersion, String)> = fs
            .list(&format!("{prefix}ckpt/"))?
            .into_iter()
            .filter_map(|k| version_of_key(&k).map(|v| (v, k)))
            .filter(|(v, _)| in_range(*v))
            .collect();
        ckpts.sort();
        let (mut state, mut version) = match ckpts.last() {
            Some((v, key)) => (decode_checkpoint(&fs.read(key)?, *v)?.state, *v),
            None => (CatalogState::default(), TxnVersion::ZERO),
        };
        // Replay logs after the checkpoint, in version order, stopping
        // at the first gap (later records cannot be applied soundly).
        // Files straddling the checkpoint or the truncation point
        // contribute only their in-range records.
        let mut logs: Vec<(TxnVersion, TxnVersion, String)> = fs
            .list(&format!("{prefix}txn/"))?
            .into_iter()
            .filter_map(|k| version_range_of_key(&k).map(|(lo, hi)| (lo, hi, k)))
            .filter(|(lo, hi, _)| *hi > version && upto.map(|u| *lo <= u).unwrap_or(true))
            .collect();
        logs.sort();
        'files: for (lo, hi, key) in logs {
            for rec in decode_log_file(&fs.read(&key)?, (lo, hi))? {
                let v = rec.version;
                if v <= version {
                    continue; // subsumed by the checkpoint
                }
                if !in_range(v) || v != version.next() {
                    break 'files;
                }
                for op in &rec.ops {
                    state.apply(op, v)?;
                }
                version = v;
            }
        }
        Ok((state, version))
    }

    /// Committed records with version greater than `after`, in order —
    /// served to a recovering peer during re-subscription (§3.3's
    /// "transferring checkpoint and/or transaction logs from source to
    /// destination"). Stops at the first gap; an empty result with a
    /// non-trivial `after` may mean the logs were pruned by
    /// checkpointing, in which case the peer ships a full snapshot.
    pub fn read_records_after(&self, after: TxnVersion) -> Result<Vec<TxnRecord>> {
        let mut found: Vec<(TxnVersion, TxnVersion, String)> = self
            .local
            .list(&format!("{LOCAL_PREFIX}txn/"))?
            .into_iter()
            .filter_map(|k| version_range_of_key(&k).map(|(lo, hi)| (lo, hi, k)))
            .filter(|(_, hi, _)| *hi > after)
            .collect();
        found.sort();
        let mut out = Vec::with_capacity(found.len());
        let mut expect = after.next();
        'files: for (lo, hi, key) in found {
            for rec in decode_log_file(&self.local.read(&key)?, (lo, hi))? {
                if rec.version <= after {
                    continue; // batch prefix the peer already has
                }
                if rec.version != expect {
                    break 'files;
                }
                expect = rec.version.next();
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Truncate *local* catalog files above `truncation` and write a new
    /// checkpoint for the recovered state — the per-node step of revive
    /// (§3.5: "each node reads its catalog, truncates all commits
    /// subsequent to the truncation version, and writes a new
    /// checkpoint").
    pub fn truncate_local(&self, truncation: TxnVersion, state: &CatalogState) -> Result<()> {
        for kind in ["txn/", "ckpt/"] {
            for k in self.local.list(&format!("{LOCAL_PREFIX}{kind}"))? {
                let Some((lo, hi)) = version_range_of_key(&k) else {
                    continue;
                };
                if lo > truncation {
                    self.local.delete(&k)?;
                } else if hi > truncation {
                    // A batch straddling the truncation point: rewrite
                    // it to its surviving prefix so local recovery can
                    // never resurrect truncated commits.
                    let keep: Vec<TxnRecord> = decode_log_file(&self.local.read(&k)?, (lo, hi))?
                        .into_iter()
                        .filter(|r| r.version <= truncation)
                        .collect();
                    self.local.delete(&k)?;
                    self.append_local(&keep)?;
                }
            }
        }
        self.write_checkpoint(&Checkpoint {
            version: truncation,
            state: state.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{CatalogOp, Table};
    use crate::txn::Catalog;
    use eon_storage::MemFs;
    use eon_types::{schema, EonError, Value};
    use std::sync::Arc;

    fn fses() -> (SharedFs, SharedFs) {
        (Arc::new(MemFs::new()), Arc::new(MemFs::new()))
    }

    /// Commit `names` as consecutive versions and durably append them
    /// as one log file, as a catch-up does.
    fn commit_batch(cat: &Catalog, store: &CatalogStore, names: &[&str]) {
        let recs: Vec<TxnRecord> = names
            .iter()
            .map(|name| {
                let mut t = cat.begin();
                let oid = cat.next_oid();
                t.push(CatalogOp::CreateTable(Table {
                    oid,
                    name: (*name).into(),
                    schema: schema![("a", Int)],
                    projections: vec![],
                    defaults: vec![Value::Null],
                }));
                cat.commit(t).unwrap()
            })
            .collect();
        store.append_local(&recs).unwrap();
    }

    /// A lone commit: a file of one record.
    fn commit_table(cat: &Catalog, store: &CatalogStore, name: &str) {
        commit_batch(cat, store, &[name]);
    }

    #[test]
    fn local_recovery_replays_logs() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for n in ["t1", "t2", "t3"] {
            commit_table(&cat, &store, n);
        }
        let (state, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(3));
        assert_eq!(state.tables.len(), 3);
    }

    #[test]
    fn recovery_from_checkpoint_plus_tail() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        commit_table(&cat, &store, "t1");
        commit_table(&cat, &store, "t2");
        store
            .write_checkpoint(&Checkpoint {
                version: cat.version(),
                state: (*cat.snapshot()).clone(),
            })
            .unwrap();
        commit_table(&cat, &store, "t3");
        let (state, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(3));
        assert!(state.table_by_name("t3").is_some());
    }

    #[test]
    fn checkpoint_retention_prunes_old_files() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for i in 0..5 {
            commit_table(&cat, &store, &format!("t{i}"));
            store
                .write_checkpoint(&Checkpoint {
                    version: cat.version(),
                    state: (*cat.snapshot()).clone(),
                })
                .unwrap();
        }
        let ckpts = local2.list("catalog/ckpt/").unwrap();
        assert_eq!(ckpts.len(), 2, "{ckpts:?}");
        // Logs subsumed by the older retained checkpoint are gone.
        let logs = local2.list("catalog/txn/").unwrap();
        assert!(logs.iter().all(|k| version_range_of_key(k).unwrap().0 > TxnVersion(4)));
        // Recovery still lands at the head version.
        let (_, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(5));
    }

    #[test]
    fn sync_uploads_and_reports_interval() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared.clone(), "inc0");
        let cat = Catalog::new();
        commit_table(&cat, &store, "t1");
        commit_table(&cat, &store, "t2");
        let si = store.sync_to_shared().unwrap();
        assert_eq!(si.hi, TxnVersion(2));
        // Shared storage holds the local files under the local names: a
        // lone commit is `txn/{v}-{v}`.
        let mut keys = shared.list("meta/inc0/txn/").unwrap();
        keys.sort();
        let lone = |v| txn_key("meta/inc0/", TxnVersion(v), TxnVersion(v));
        assert_eq!(keys, vec![lone(1), lone(2)]);
        // Idempotent: second sync uploads nothing new.
        let before = shared.stats().puts;
        store.sync_to_shared().unwrap();
        assert_eq!(shared.stats().puts, before);
    }

    #[test]
    fn shared_recovery_honours_truncation() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for n in ["t1", "t2", "t3", "t4"] {
            commit_table(&cat, &store, n);
        }
        store.sync_to_shared().unwrap();
        let (state, version) = store.recover_from_shared(TxnVersion(2)).unwrap();
        assert_eq!(version, TxnVersion(2));
        assert_eq!(state.tables.len(), 2);
        assert!(state.table_by_name("t3").is_none());
    }

    #[test]
    fn recovery_stops_at_log_gap() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for n in ["t1", "t2", "t3"] {
            commit_table(&cat, &store, n);
        }
        // Simulate losing the middle log file.
        local2
            .delete(&txn_key("catalog/", TxnVersion(2), TxnVersion(2)))
            .unwrap();
        let (state, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(1));
        assert_eq!(state.tables.len(), 1);
    }

    /// A `txn/{lo}-{hi}` file holding other versions is corruption, not
    /// a gap: replay and catch-up fail typed instead of silently ending
    /// before the later commits.
    #[test]
    fn log_file_must_hold_the_versions_its_key_names() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for n in ["t1", "t2", "t3"] {
            commit_table(&cat, &store, n);
        }
        let key = |v| txn_key("catalog/", TxnVersion(v), TxnVersion(v));
        // Version 3's record under version 2's key.
        local2
            .write(&key(2), local2.read(&key(3)).unwrap())
            .unwrap();
        let is_corrupt = |r: Result<_>| matches!(r, Err(EonError::Corrupt(_)));
        assert!(is_corrupt(store.recover_local().map(|_| ())));
        assert!(is_corrupt(
            store.read_records_after(TxnVersion(1)).map(|_| ())
        ));
    }

    #[test]
    fn batch_append_recovers_like_serial() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        commit_table(&cat, &store, "t1");
        commit_batch(&cat, &store, &["t2", "t3", "t4"]);
        commit_table(&cat, &store, "t5");
        // Three log files cover five versions.
        assert_eq!(local2.list("catalog/txn/").unwrap().len(), 3);
        let (state, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(5));
        assert_eq!(state.tables.len(), 5);
        // Catch-up streaming crosses the batch boundary mid-file.
        let recs = store.read_records_after(TxnVersion(2)).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.version.0).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn batches_sync_to_shared_and_raise_interval() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared.clone(), "inc0");
        let cat = Catalog::new();
        commit_batch(&cat, &store, &["t1", "t2", "t3"]);
        let si = store.sync_to_shared().unwrap();
        assert_eq!(si.hi, TxnVersion(3));
        let (state, version) = store.recover_from_shared(TxnVersion(3)).unwrap();
        assert_eq!(version, TxnVersion(3));
        assert_eq!(state.tables.len(), 3);
        // Truncating into the middle of the batch replays its prefix.
        let (state, version) = store.recover_from_shared(TxnVersion(2)).unwrap();
        assert_eq!(version, TxnVersion(2));
        assert!(state.table_by_name("t3").is_none());
    }

    #[test]
    fn planted_junk_key_is_ignored_by_recover() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        commit_table(&cat, &store, "t1");
        // A stray numeric-suffixed object under the catalog prefix must
        // not be ingested by list-based replay as a txn record.
        local2
            .write("catalog/junk/00000000000000000007", bytes::Bytes::from("x"))
            .unwrap();
        local2
            .write("catalog/txn/junk/00000000000000000002", bytes::Bytes::from("x"))
            .unwrap();
        let (state, version) = store.recover_local().unwrap();
        assert_eq!(version, TxnVersion(1));
        assert_eq!(state.tables.len(), 1);
    }

    #[test]
    fn truncate_rewrites_straddling_batch() {
        let (local, shared) = fses();
        let local2 = local.clone();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        commit_table(&cat, &store, "t1");
        commit_batch(&cat, &store, &["t2", "t3", "t4"]);
        // Truncate to version 2 — inside the batch file covering 2..=4.
        let (state, v) = CatalogStore::recover_from(
            local2.as_ref(),
            "catalog/",
            Some(TxnVersion(2)),
        )
        .unwrap();
        assert_eq!(v, TxnVersion(2));
        store.truncate_local(TxnVersion(2), &state).unwrap();
        // No surviving file may reach past the truncation point.
        for k in local2.list("catalog/txn/").unwrap() {
            let (_, hi) = version_range_of_key(&k).unwrap();
            assert!(hi <= TxnVersion(2), "{k} survived truncation");
        }
        let (rec_state, rec_v) = store.recover_local().unwrap();
        assert_eq!(rec_v, TxnVersion(2));
        assert_eq!(rec_state.tables.len(), 2);
        assert!(rec_state.table_by_name("t3").is_none());
    }

    #[test]
    fn truncate_local_rewinds() {
        let (local, shared) = fses();
        let store = CatalogStore::new(local, shared, "inc0");
        let cat = Catalog::new();
        for n in ["t1", "t2", "t3"] {
            commit_table(&cat, &store, n);
        }
        let (state, v) = store.recover_from_shared(TxnVersion(0)).unwrap_or_else(|_| {
            (CatalogState::default(), TxnVersion::ZERO)
        });
        assert_eq!(v, TxnVersion::ZERO);
        // Rewind to version 1 using local recovery at truncation point.
        let (s1, v1) = {
            let (full_state, _) = store.recover_local().unwrap();
            let _ = full_state;
            // recompute state at v1 by replay with truncation via shared
            // path is tested above; here just exercise truncate_local.
            (state, v)
        };
        store.truncate_local(v1, &s1).unwrap();
        let (rec_state, rec_v) = store.recover_local().unwrap();
        assert_eq!(rec_v, v1);
        assert_eq!(rec_state.tables.len(), s1.tables.len());
    }
}
