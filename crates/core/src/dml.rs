//! DML: DELETE and UPDATE via delete vectors (paper §2.3, §4.5).
//!
//! "Deletes and updates are implemented with a tombstone-like mechanism
//! called a delete vector … An update is modeled as a delete followed
//! by an insert." Delete vectors are storage objects: written to shared
//! storage before commit like any data file, cached write-through, and
//! associated with the shard of the container they tombstone.

use std::sync::Arc;

use eon_cache::CacheMode;
use eon_catalog::{CatalogOp, Txn};
use eon_cluster::NodeRuntime;
use eon_storage::fault::site as fault_site;
use eon_columnar::{Batch, Column, DeleteVector, Predicate};
use eon_exec::{Plan, ScanSpec};
use eon_types::{EonError, Result, Value};

use crate::db::EonDb;
use crate::provider::NodeProvider;

impl EonDb {
    /// A provider view of `coord` over the whole keyspace, for
    /// coordinator-side DML scans (§4.5 would distribute these, which
    /// changes performance, not outcomes).
    fn dml_provider(
        &self,
        coord: &Arc<NodeRuntime>,
        snapshot: Arc<eon_catalog::CatalogState>,
    ) -> NodeProvider {
        NodeProvider {
            node: coord.clone(),
            snapshot,
            my_shards: self.segment_shards(),
            all_shards: self.segment_shards(),
            replica_shard: self.replica_shard(),
            cache_mode: CacheMode::Normal,
            crunch: None,
            scan: self.scan_options(coord, None, None),
        }
    }

    /// Find the rows matching `predicate`, encode one delete vector per
    /// hit container, upload the DVs on the write pool, and push
    /// `AddDeleteVector` ops — OIDs minted after the join, in hit
    /// order, like the load path. Every attempted upload's key lands
    /// in `uploaded`. Returns the number of rows tombstoned.
    pub(crate) fn stage_delete_vectors(
        &self,
        txn: &mut Txn,
        coord: &Arc<NodeRuntime>,
        table: &str,
        predicate: &Predicate,
        uploaded: &mut Vec<String>,
    ) -> Result<u64> {
        let provider = self.dml_provider(coord, Arc::new(txn.snapshot().clone()));
        let hits = provider.matching_positions(table, predicate)?;
        // Keys pre-minted in hit order: the committed state must not
        // depend on upload scheduling (DESIGN.md "Write pipeline").
        let jobs: Vec<(eon_types::Oid, eon_types::ShardId, String, DeleteVector)> = hits
            .into_iter()
            .map(|(container_oid, shard, positions)| {
                let key = coord.next_sid().object_key_with("dv");
                (container_oid, shard, key, DeleteVector::new(positions))
            })
            .collect();
        let total: u64 = jobs.iter().map(|(_, _, _, dv)| dv.len() as u64).sum();

        let keys: Vec<&str> = jobs.iter().map(|(_, _, key, _)| key.as_str()).collect();
        self.run_write_pool(coord, &keys, None, uploaded, |i| {
            let (_, _, key, dv) = &jobs[i];
            // Crash site: dies between delete-vector uploads, orphaning
            // any DV files already on shared storage.
            self.config.faults.hit(fault_site::DML_UPLOAD)?;
            // Delete marks are files too: cache + upload before commit.
            coord.cache.put_through(key, dv.encode())
        })?;

        for (container_oid, shard, key, dv) in jobs {
            txn.push(CatalogOp::AddDeleteVector(eon_catalog::DeleteVectorMeta {
                oid: coord.catalog.next_oid(),
                key,
                container: container_oid,
                shard,
                deleted_rows: dv.len() as u64,
            }));
        }
        Ok(total)
    }

    /// §2.1: Live Aggregate Projections "trade-off … against
    /// restrictions on how the base table can be updated" — a delete
    /// vector cannot be applied to pre-aggregated rows.
    fn check_dml_allowed(t: &eon_catalog::Table, table: &str) -> Result<()> {
        if t.projections.iter().any(|(_, p)| p.is_live_aggregate()) {
            return Err(EonError::Query(format!(
                "{table} has a live aggregate projection; DELETE/UPDATE are restricted"
            )));
        }
        Ok(())
    }

    /// DELETE FROM `table` WHERE `predicate`. Returns rows deleted.
    pub fn delete_where(&self, table: &str, predicate: &Predicate) -> Result<u64> {
        self.admit_write()?;
        let coord = self.pick_coordinator()?;
        let mut txn = coord.catalog.begin();
        let t = txn
            .snapshot()
            .table_by_name(table)
            .cloned()
            .ok_or_else(|| EonError::UnknownTable(table.to_owned()))?;
        Self::check_dml_allowed(&t, table)?;
        txn.observe(t.oid);

        let mut uploaded = Vec::new();
        let staged = self.stage_delete_vectors(&mut txn, &coord, table, predicate, &mut uploaded);
        let result = staged.and_then(|total| {
            if total == 0 {
                return Ok(0);
            }
            // Crash site: delete vectors uploaded, commit never runs —
            // the deletes must stay invisible and the DV files get
            // reclaimed.
            self.config.faults.hit(fault_site::DML_PRE_COMMIT)?;
            self.commit_cluster(txn, &coord)?;
            Ok(total)
        });
        match result {
            Ok(n) => Ok(n),
            Err(e) => {
                // Never-committed DV uploads go straight to the reaper
                // (crash-modeling faults excepted; the leak scan owns
                // those).
                self.abort_uncommitted(uploaded, &e);
                Err(e)
            }
        }
    }

    /// UPDATE `table` SET `col = value, …` WHERE `predicate`: a delete
    /// and an insert (§2.3) staged in ONE transaction with a single
    /// cluster commit — no schedule ever exposes the
    /// deleted-but-not-reinserted intermediate state, and a crash
    /// between the two phases rolls both back.
    pub fn update_where(
        &self,
        table: &str,
        predicate: &Predicate,
        set: &[(usize, Value)],
    ) -> Result<u64> {
        self.admit_write()?;
        let coord = self.pick_coordinator()?;
        let mut txn = coord.catalog.begin();
        let t = txn
            .snapshot()
            .table_by_name(table)
            .cloned()
            .ok_or_else(|| EonError::UnknownTable(table.to_owned()))?;
        Self::check_dml_allowed(&t, table)?;
        txn.observe(t.oid);

        // Read the matching rows (full rows, all columns) from the
        // transaction's own snapshot, set the SET columns, and
        // re-validate: the batch is COPY input.
        let plan = Plan::scan(ScanSpec::new(table).predicate(predicate.clone()).global());
        let provider = self.dml_provider(&coord, Arc::new(txn.snapshot().clone()));
        let matched = eon_exec::execute(&plan, &provider)?;
        let n = matched.rows();
        if n == 0 {
            return Ok(0);
        }
        let mut cols = matched.into_cols();
        for (col, v) in set {
            let slot = cols.get_mut(*col).ok_or_else(|| {
                EonError::SchemaMismatch(format!("SET column {col} outside {} columns", t.schema.len()))
            })?;
            *slot = Column::constant(v.as_ref(), n);
        }
        let batch = Batch::new(cols, n);
        batch.check_schema(&t.schema)?;
        let n = n as u64;

        let mut uploaded = Vec::new();
        let result = (|| {
            let total =
                self.stage_delete_vectors(&mut txn, &coord, table, predicate, &mut uploaded)?;
            debug_assert_eq!(total, n, "scan and tombstone row counts agree");
            let writers = self.stage_load(&mut txn, &coord, &t, &batch, (None, None), &mut uploaded)?;
            // Crash site: every DV and container is uploaded; dying
            // here must leave the table byte-identical to before the
            // UPDATE.
            self.config.faults.hit(fault_site::DML_PRE_COMMIT)?;
            self.commit_staged_write(txn, &coord, writers)
        })();
        match result {
            Ok(_) => Ok(n),
            Err(e) => {
                self.abort_uncommitted(uploaded, &e);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use crate::query::SessionOpts;
    use eon_columnar::pruning::CmpOp;
    use eon_columnar::Projection;
    use eon_exec::{AggSpec, Expr, SortKey};
    use eon_storage::MemFs;
    use eon_types::schema;
    use std::sync::Arc;

    fn db_loaded() -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("price", Int)];
        db.create_table(
            "t",
            s.clone(),
            vec![Projection::super_projection("p", &s, &[0], &[0])],
        )
        .unwrap();
        db.copy_into(
            "t",
            (0..100).map(|i| vec![Value::Int(i), Value::Int(i * 10)]).collect(),
        )
        .unwrap();
        db
    }

    fn count_all(db: &EonDb) -> i64 {
        let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
        db.query(&plan).unwrap()[0][0].as_int().unwrap()
    }

    #[test]
    fn delete_removes_matching_rows() {
        let db = db_loaded();
        let n = db
            .delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 10i64))
            .unwrap();
        assert_eq!(n, 10);
        assert_eq!(count_all(&db), 90);
        // Idempotent second delete finds nothing.
        assert_eq!(
            db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 10i64)).unwrap(),
            0
        );
    }

    #[test]
    fn delete_everything() {
        let db = db_loaded();
        assert_eq!(db.delete_where("t", &Predicate::True).unwrap(), 100);
        assert_eq!(count_all(&db), 0);
    }

    #[test]
    fn deleted_rows_invisible_with_cache_bypass_too() {
        let db = db_loaded();
        db.delete_where("t", &Predicate::eq(0, 5i64)).unwrap();
        let plan = Plan::scan(ScanSpec::new("t").predicate(Predicate::eq(0, 5i64)));
        let opts = SessionOpts {
            bypass_cache: true,
            ..Default::default()
        };
        assert!(db.query_with(&plan, &opts).unwrap().is_empty());
    }

    #[test]
    fn update_rewrites_rows() {
        let db = db_loaded();
        let n = db
            .update_where(
                "t",
                &Predicate::eq(0, 7i64),
                &[(1, Value::Int(9999))],
            )
            .unwrap();
        assert_eq!(n, 1);
        let plan = Plan::scan(ScanSpec::new("t").predicate(Predicate::eq(0, 7i64)))
            .sort(vec![SortKey::asc(0)]);
        let rows = db.query(&plan).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(7), Value::Int(9999)]]);
        assert_eq!(count_all(&db), 100); // no net row change
    }

    #[test]
    fn aggregate_respects_deletes() {
        let db = db_loaded();
        let sum_before: i64 = (0..100).map(|i| i * 10).sum();
        let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::sum(Expr::col(1))]);
        assert_eq!(db.query(&plan).unwrap()[0][0], Value::Int(sum_before));
        db.delete_where("t", &Predicate::cmp(0, CmpOp::Ge, 50i64)).unwrap();
        let sum_after: i64 = (0..50).map(|i| i * 10).sum();
        assert_eq!(db.query(&plan).unwrap()[0][0], Value::Int(sum_after));
    }

    #[test]
    fn delete_vectors_are_catalog_objects_on_shared_storage() {
        let db = db_loaded();
        db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 30i64)).unwrap();
        let snap = db.snapshot().unwrap();
        assert!(!snap.delete_vectors.is_empty());
        for dv in snap.delete_vectors.values() {
            assert!(db.shared().exists(&dv.key).unwrap());
            assert!(dv.deleted_rows > 0);
        }
    }
}
