//! Data load: the Fig 8 workflow, run through a parallel write
//! pipeline (DESIGN.md "Write pipeline").
//!
//! 1. ingest a typed batch, checked against the schema a column at a
//!    time (rows enter through `copy_into*`, transposed once);
//! 2. split per projection by segmentation hash so each container holds
//!    exactly one shard's rows (§4.5) — each non-empty (projection,
//!    shard) bucket, gathered from the projection's columns, becomes one
//!    independent upload job;
//! 3. fan the jobs across the bounded pool
//!    ([`eon_cluster::pool::run_indexed`], as wide as the coordinator's
//!    §4.2 execution-slot budget): each job sorts + encodes its columns, writes
//!    the container through the writer's cache (write-through, §5.2) —
//!    uploading to shared storage — and ships the bytes to the shard's
//!    other subscribers' caches concurrently so a node-down failover
//!    finds a warm cache;
//! 4. after the pool joins, mint catalog OIDs and push `AddContainer`
//!    ops in the fixed (projection, shard) job order — storage keys are
//!    pre-minted in that same order before the fan-out — so the
//!    committed catalog state does not depend on the pool width;
//! 5. commit, re-validating under the commit lock that every writer
//!    (segment *and* replica shard) still subscribes to the shard it
//!    wrote (§4.5's rollback rule).
//!
//! All data reaches shared storage *before* commit, so committed
//! transactions never lose files (§3.5). When a load fails *after*
//! uploading (a graceful rollback, not an injected crash), the
//! never-committed keys are handed to the §6.5 reaper as immediately
//! deletable instead of waiting for a manual leak scan.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use eon_catalog::{CatalogOp, ContainerMeta, SubState, Table, Txn};
use eon_cluster::pool::run_indexed;
use eon_cluster::NodeRuntime;
use eon_obs::QueryProfile;
use eon_storage::fault::site as fault_site;
use eon_columnar::{split_by_shard, Batch, Column, Projection, RosWriter};
use eon_exec::{AggSpec, Expr};
use eon_shard::{select_participants, AssignmentProblem};
use eon_types::{EonError, NodeId, Oid, Result, Schema, ShardId, Value};

use crate::db::EonDb;

/// One independent (projection, shard) upload of a load statement. The
/// storage key is pre-minted in job-build order so the committed state
/// (keys included) does not depend on pool scheduling.
pub(crate) struct LoadJob {
    proj: Projection,
    proj_oid: Oid,
    shard: ShardId,
    writer: Arc<NodeRuntime>,
    key: String,
    /// The bucket's rows in projection column space, unsorted; taken
    /// exactly once by the worker that claims the job.
    batch: Mutex<Option<Batch>>,
}

/// What an upload job leaves on shared storage: everything
/// [`ContainerMeta`] needs except the catalog OID, which is minted
/// after the pool joins (in job order) so OIDs do not depend on the
/// pool width.
pub(crate) struct StagedContainer {
    key: String,
    rows: u64,
    size_bytes: u64,
    col_minmax: Vec<Option<(Value, Value)>>,
}

/// The writers a staged load used, for §4.5 re-validation under the
/// commit lock.
pub(crate) struct LoadWriters {
    assignment: HashMap<ShardId, NodeId>,
    replica_writer: Option<NodeId>,
}

/// Fold a table batch into a Live Aggregate Projection's layout: one
/// row per group — group values followed by aggregate values — through
/// the query engine's aggregation kernel, so a LAP and a base scan fold
/// alike. The LAP's columns are table columns, so the batch is read as
/// it is.
pub(crate) fn fold_live_aggregate(batch: &Batch, lap: &eon_columnar::LiveAggregate) -> Result<Batch> {
    use eon_columnar::LapFunc;
    let aggs: Vec<AggSpec> = lap
        .aggs
        .iter()
        .map(|&(f, c)| match f {
            LapFunc::Sum => AggSpec::sum(Expr::col(c)),
            LapFunc::Min => AggSpec::min(Expr::col(c)),
            LapFunc::Max => AggSpec::max(Expr::col(c)),
            LapFunc::CountStar => AggSpec::count_star(),
        })
        .collect();
    eon_exec::agg::aggregate(batch, &lap.group_by, &aggs)
}

impl EonDb {
    /// Bulk-load a typed batch into a table (COPY): the load path. The
    /// batch is checked against the schema a column at a time (width,
    /// each column's type, NULLs only where the field is nullable)
    /// before anything is uploaded; every projection of the table
    /// receives the rows. Returns the number of rows loaded.
    pub fn copy_batch(&self, table: &str, batch: Batch) -> Result<u64> {
        self.copy_inner(table, batch.rows(), |_| Ok(batch), None, None)
    }

    /// Bulk-load rows into a table (COPY). Returns the number of rows
    /// loaded. Every row's width is checked, then the rows are
    /// transposed once into a batch for [`EonDb::copy_batch`]'s path.
    pub fn copy_into(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
        self.copy_into_inner(table, rows, None, None)
    }

    /// [`EonDb::copy_into`] with a cancellation token, checked at every
    /// write-pool job claim: a cancelled COPY stops uploading, rolls
    /// back, and hands any files that did reach shared storage to the
    /// §6.5 reaper.
    pub fn copy_into_cancellable(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        cancel: eon_types::CancelToken,
    ) -> Result<u64> {
        self.copy_into_inner(table, rows, None, Some(cancel))
    }

    /// COPY with an `EXPLAIN ANALYZE`-style [`QueryProfile`]: one
    /// `load_pipeline` span on the coordinator plus upload-fanout and
    /// commit sub-spans.
    pub fn copy_into_profiled(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<(u64, QueryProfile)> {
        let profile = QueryProfile::new();
        let n = self.copy_into_inner(table, rows, Some(&profile), None)?;
        profile.annotate("rows_loaded", n as i64);
        Ok((n, profile))
    }

    /// The row edge: a row narrower or wider than the table is a typed
    /// error before the transpose could index past it.
    fn copy_into_inner(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        profile: Option<&QueryProfile>,
        cancel: Option<eon_types::CancelToken>,
    ) -> Result<u64> {
        let n = rows.len();
        // Takes the rows, so they are freed once transposed.
        let to_batch = move |schema: &Schema| Batch::from_rows_checked(&rows, schema.len());
        self.copy_inner(table, n, to_batch, profile, cancel)
    }

    /// One COPY of `rows` rows: `to_batch` builds the batch once the
    /// table's schema is known.
    fn copy_inner(
        &self,
        table: &str,
        rows: usize,
        to_batch: impl FnOnce(&Schema) -> Result<Batch>,
        profile: Option<&QueryProfile>,
        cancel: Option<eon_types::CancelToken>,
    ) -> Result<u64> {
        // Write front door (DESIGN.md "Failure detection & degraded
        // modes"): typed ClusterDown on a non-viable cluster, typed
        // StoreUnavailable fast-fail while the breaker is open.
        self.admit_write()?;
        if rows == 0 {
            return Ok(0);
        }
        let coord = self.pick_coordinator()?;
        let mut txn = coord.catalog.begin();
        let t = txn
            .snapshot()
            .table_by_name(table)
            .cloned()
            .ok_or_else(|| EonError::UnknownTable(table.to_owned()))?;
        txn.observe(t.oid);
        let batch = to_batch(&t.schema)?;
        batch.check_schema(&t.schema)?;
        let n_rows = batch.rows() as u64;
        // Crash site: validated but nothing uploaded yet — a crash here
        // must leave no trace at all.
        self.config.faults.hit(fault_site::LOAD_PRE_UPLOAD)?;

        let span = profile.map(|p| p.span("load_pipeline", &coord.id.to_string()));
        let mut uploaded = Vec::new();
        let session = (profile, cancel.as_ref());
        let staged = self.stage_load(&mut txn, &coord, &t, &batch, session, &mut uploaded);
        drop(batch);
        let result = staged.and_then(|writers| {
            // Crash site: every container is on shared storage but the
            // commit never runs — the §3.5 orphaned-upload scenario the
            // §6.5 leak scan exists for.
            self.config.faults.hit(fault_site::LOAD_PRE_COMMIT)?;
            let commit_span = profile.map(|p| p.span("load_commit", &coord.id.to_string()));
            let rec = self.commit_staged_write(txn, &coord, writers);
            drop(commit_span);
            rec
        });
        drop(span);
        match result {
            Ok(_) => Ok(n_rows),
            Err(e) => {
                self.abort_uncommitted(uploaded, &e);
                Err(e)
            }
        }
    }

    /// Build one upload job per non-empty (projection, shard) bucket —
    /// in that fixed order, with storage keys pre-minted in the same
    /// order — run them on the write pool, and (only if *every* job
    /// succeeded) mint OIDs and push `AddContainer` ops in job order.
    ///
    /// Every key that may have reached shared storage is appended to
    /// `uploaded` — successes of a partially-failed fan-out *and*
    /// attempted jobs whose PUT reported failure (an ambiguous outcome
    /// may have applied it) — so the caller can register them with the
    /// reaper if the statement never commits. On failure the
    /// lowest-index job error is returned. `profile` and `cancel` are
    /// the statement's, when it has them: the fan-out records its span
    /// in the first and checks the second at every job claim.
    pub(crate) fn stage_load(
        &self,
        txn: &mut Txn,
        coord: &Arc<NodeRuntime>,
        t: &Table,
        batch: &Batch,
        (profile, cancel): (Option<&QueryProfile>, Option<&eon_types::CancelToken>),
        uploaded: &mut Vec<String>,
    ) -> Result<LoadWriters> {
        // Writers: one serving subscriber per segment shard (§4.5).
        let snapshot = txn.snapshot().clone();
        let assignment = self.writer_assignment(&snapshot)?;
        let mut replica_writer = None;

        let mut jobs: Vec<LoadJob> = Vec::new();
        for (proj_oid, proj) in &t.projections {
            // The projection's columns, selected: a Live Aggregate
            // Projection (§2.1) first folds the batch into pre-computed
            // partial aggregate rows, which are its columns in order.
            let folded = proj.live_aggregate.as_ref().map(|lap| fold_live_aggregate(batch, lap)).transpose()?;
            let (cols, rows): (Vec<&Column>, usize) = match &folded {
                Some(f) => (f.cols().iter().collect(), f.rows()),
                None => (proj.columns.iter().map(|&c| &batch.cols()[c]).collect(), batch.rows()),
            };
            let job = |shard: ShardId, writer: Arc<NodeRuntime>, batch: Batch| LoadJob {
                proj: proj.clone(),
                proj_oid: *proj_oid,
                shard,
                key: writer.next_sid().object_key(),
                writer,
                batch: Mutex::new(Some(batch)),
            };
            if proj.is_replicated() {
                // Single writer produces one container in the replica
                // shard; all subscribers (every node) get a cached copy.
                let writer = self
                    .membership
                    .up_nodes()
                    .into_iter()
                    .next()
                    .ok_or_else(|| EonError::ClusterDown("no nodes up".into()))?;
                replica_writer = Some(writer.id);
                let all = Batch::new(cols.into_iter().cloned().collect(), rows);
                jobs.push(job(self.replica_shard(), writer, all));
            } else {
                let seg: Vec<&Column> = proj.seg_cols().iter().map(|&s| cols[s]).collect();
                for (i, idx) in split_by_shard(&seg, rows, self.config.num_shards).into_iter().enumerate() {
                    if idx.is_empty() {
                        continue;
                    }
                    let shard = ShardId(i as u64);
                    let writer_id = assignment[&shard];
                    let writer = self
                        .membership
                        .get(writer_id)
                        .ok_or_else(|| EonError::NodeDown(writer_id.to_string()))?;
                    let bucket = Batch::new(cols.iter().map(|c| c.gather(&idx)).collect(), idx.len());
                    jobs.push(job(shard, writer, bucket));
                }
            }
        }

        if let Some(p) = profile {
            p.annotate("load_jobs", jobs.len() as i64);
        }
        let fanout_span = profile.map(|p| p.span("load_upload_fanout", &coord.id.to_string()));
        let keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        let staged = self.run_write_pool(coord, &keys, cancel, uploaded, |i| {
            self.upload_container(&jobs[i])
        })?;
        drop(fanout_span);

        // Seal after the join, in job order: catalog OIDs must not
        // depend on which worker finished first (DESIGN.md "Write
        // pipeline" determinism rule).
        for (job, s) in jobs.iter().zip(staged) {
            txn.push(CatalogOp::AddContainer(ContainerMeta {
                oid: coord.catalog.next_oid(),
                key: s.key,
                table: t.oid,
                projection: job.proj_oid,
                shard: job.shard,
                rows: s.rows,
                size_bytes: s.size_bytes,
                col_minmax: s.col_minmax,
            }));
        }
        Ok(LoadWriters {
            assignment,
            replica_writer,
        })
    }

    /// Run one upload job per pre-minted key on the write pool
    /// ([`run_indexed`], as wide as the coordinator's §4.2
    /// execution-slot budget, like the scan pool) and fold the outcome
    /// the way every staged write needs it: each *attempted*
    /// job's key goes to `uploaded` — a PUT that reported failure may
    /// still have applied (ambiguous S3 outcome, §5.3), deleting a
    /// missing object is a no-op, and a half-applied one stops being a
    /// leak — then the lowest-index error wins, else the results come
    /// back in job order. After a failure no new job starts; jobs in
    /// flight finish, since their uploads still reach shared storage
    /// and must be tracked.
    pub(crate) fn run_write_pool<T, F>(
        &self,
        coord: &NodeRuntime,
        keys: &[&str],
        cancel: Option<&eon_types::CancelToken>,
        uploaded: &mut Vec<String>,
        f: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let metrics = &coord.load_metrics;
        metrics.pool_tasks.add(keys.len() as u64);
        // While a fault plan is armed the pool is one wide: which upload
        // a one-shot crash site interrupts (and therefore which files a
        // seeded chaos run orphans) must not depend on thread
        // scheduling (DESIGN.md "Write pipeline").
        let width = if self.config.faults.is_armed() {
            1
        } else {
            coord.slots.capacity()
        };
        let results = run_indexed(width, keys.len(), cancel, Some(&metrics.queue_wait), f);
        let attempted = results.iter().zip(keys).filter(|(r, _)| r.is_some());
        uploaded.extend(attempted.map(|(_, key)| key.to_string()));
        results.into_iter().flatten().collect()
    }

    /// The §4.5 commit-time invariant: every writer the staged load
    /// used must still hold its subscription — the segment-shard
    /// assignment *and* the replica-shard writer; a concurrent
    /// rebalance forces a rollback. Checked against the snapshot
    /// current under the commit lock.
    pub(crate) fn validate_writers(
        &self,
        now: &eon_catalog::CatalogState,
        writers: &LoadWriters,
    ) -> Result<()> {
        for (shard, writer) in &writers.assignment {
            if !now.serving_subscribers(*shard).contains(writer) {
                return Err(EonError::CommitInvariant(format!(
                    "{writer} lost its subscription to {shard} during load"
                )));
            }
        }
        if let Some(writer) = writers.replica_writer {
            let shard = self.replica_shard();
            if !now.serving_subscribers(shard).contains(&writer) {
                return Err(EonError::CommitInvariant(format!(
                    "{writer} lost its subscription to {shard} during load"
                )));
            }
        }
        Ok(())
    }

    /// Graceful-rollback bookkeeping: a statement that uploaded files
    /// but will never commit hands its keys to the §6.5 reaper as
    /// deletable immediately — no query and no truncation version can
    /// reference a never-committed file. Two exceptions: an injected
    /// [`EonError::FaultInjected`] crash models process death, and a
    /// dead process runs no cleanup — those orphans are left for the
    /// leak scan, exactly like a real crash (DESIGN.md "Fault model");
    /// and a commit-path [`EonError::ClusterDown`] is metadata
    /// divergence surfaced *after* the coordinator's durable append —
    /// the statement may be durably committed, so reaping its files
    /// would destroy committed data. The halted cluster's revive leak
    /// scan owns that state instead.
    pub(crate) fn abort_uncommitted(&self, uploaded: Vec<String>, err: &EonError) {
        if uploaded.is_empty()
            || matches!(err, EonError::FaultInjected(_) | EonError::ClusterDown(_))
        {
            return;
        }
        self.rollbacks.inc();
        self.rollback_orphans.add(uploaded.len() as u64);
        self.reaper.note_uncommitted(uploaded);
    }

    /// Pick one up, serving subscriber per segment shard to act as the
    /// shard's writer for this statement.
    pub fn writer_assignment(
        &self,
        snapshot: &eon_catalog::CatalogState,
    ) -> Result<HashMap<ShardId, NodeId>> {
        let up = self.membership.up_ids();
        let shards = self.segment_shards();
        let mut can_serve = Vec::new();
        for &s in &shards {
            for n in snapshot.serving_subscribers(s) {
                if up.contains(&n) {
                    can_serve.push((n, s));
                }
            }
        }
        select_participants(
            &AssignmentProblem::flat(shards, up, can_serve),
            self.next_session_seed(),
        )
    }

    /// Run one upload job: sort + encode the batch into a ROS container
    /// (holding one of the writer's execution slots, §4.2), write it
    /// through the writer's cache (upload + local cache), and ship the
    /// bytes to peer subscribers' caches — concurrently per peer —
    /// (Fig 8 step 3).
    fn upload_container(&self, job: &LoadJob) -> Result<StagedContainer> {
        // Crash site: dies between uploads, leaving earlier containers
        // of the same (uncommitted) load orphaned on shared storage.
        self.config.faults.hit(fault_site::LOAD_UPLOAD)?;
        let writer = &job.writer;
        // Sort + encode + upload occupies the writer like any fragment.
        // A writer killed mid-wait fails the job with `NodeDown` (its
        // slot semaphore is closed) instead of parking the load.
        let _slot = writer.slots.acquire(1)?;
        let batch = job.batch.lock().take().expect("upload job claimed twice");
        let encoder = RosWriter::new().force_encoding(self.config.force_encoding);
        let (bytes, footer) = eon_exec::ops::encode_sorted(batch, &job.proj, &encoder)?;
        let key = job.key.clone();
        let size = bytes.len() as u64;

        // Write-through: local cache + shared storage upload (§5.2).
        writer.cache.put_through(&key, bytes.clone())?;
        // Ship to peers subscribed to this shard so their caches are
        // warm if they take over (§5.2: "much better node down
        // performance"). Peers are independent caches, so the copies
        // go out in parallel, one pool worker per peer — the first on
        // this thread.
        let snapshot = writer.catalog.snapshot();
        let peers: Vec<Arc<NodeRuntime>> = snapshot
            .subscribers_in(job.shard, SubState::Active)
            .into_iter()
            .filter(|p| *p != writer.id)
            .filter_map(|p| self.membership.get(p))
            .filter(|p| p.is_up())
            .collect();
        run_indexed(peers.len(), peers.len(), None, None, |i| {
            peers[i].cache.insert_local(&key, bytes.clone())
        })
        .into_iter()
        .flatten()
        .collect::<Result<()>>()?;

        let metrics = &writer.load_metrics;
        metrics.containers.inc();
        metrics.rows.add(footer.total_rows);
        metrics.bytes.add(size);
        metrics.peer_ships.add(peers.len() as u64);

        let col_minmax = footer
            .columns
            .iter()
            .map(|c| match (c.min(), c.max()) {
                (Some(mn), Some(mx)) => Some((mn.clone(), mx.clone())),
                _ => None,
            })
            .collect();
        Ok(StagedContainer {
            key,
            rows: footer.total_rows,
            size_bytes: size,
            col_minmax,
        })
    }

    /// Upload one container and seal its catalog metadata immediately
    /// (`coord` mints the OID). Single-container callers — mergeout's
    /// rewrite — share the pipeline's upload path this way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write_container(
        &self,
        writer: &Arc<NodeRuntime>,
        proj: &Projection,
        proj_oid: eon_types::Oid,
        table_oid: eon_types::Oid,
        shard: ShardId,
        batch: Batch,
        coord: &Arc<NodeRuntime>,
    ) -> Result<ContainerMeta> {
        let job = LoadJob {
            proj: proj.clone(),
            proj_oid,
            shard,
            writer: writer.clone(),
            key: writer.next_sid().object_key(),
            batch: Mutex::new(Some(batch)),
        };
        let s = self.upload_container(&job)?;
        Ok(ContainerMeta {
            oid: coord.catalog.next_oid(),
            key: s.key,
            table: table_oid,
            projection: proj_oid,
            shard,
            rows: s.rows,
            size_bytes: s.size_bytes,
            col_minmax: s.col_minmax,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_storage::MemFs;
    use eon_types::{schema, ValueRef};

    fn db_with_table() -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("cust", Str), ("price", Int)];
        db.create_table(
            "sales",
            s.clone(),
            vec![Projection::super_projection("sales_super", &s, &[0], &[0])],
        )
        .unwrap();
        db
    }

    fn sample_rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("c{}", i % 10)),
                    Value::Int(i * 2),
                ]
            })
            .collect()
    }

    #[test]
    fn copy_creates_single_shard_containers() {
        let db = db_with_table();
        db.copy_into("sales", sample_rows(3000)).unwrap();
        let snap = db.snapshot().unwrap();
        let containers: Vec<_> = snap.containers.values().collect();
        // One per populated shard (3 shards, plenty of rows).
        assert_eq!(containers.len(), 3);
        let total: u64 = containers.iter().map(|c| c.rows).sum();
        assert_eq!(total, 3000);
        // Data uploaded to shared storage before commit.
        for c in containers {
            assert!(db.shared().exists(&c.key).unwrap(), "{} missing", c.key);
        }
    }

    #[test]
    fn peer_caches_warm_after_load() {
        let db = db_with_table();
        db.copy_into("sales", sample_rows(1000)).unwrap();
        let snap = db.snapshot().unwrap();
        for c in snap.containers.values() {
            // Every ACTIVE subscriber of the shard has the file cached.
            for peer in snap.subscribers_in(c.shard, SubState::Active) {
                let node = db.membership().get(peer).unwrap();
                assert!(
                    node.cache.contains(&c.key),
                    "{peer} missing {} in cache",
                    c.key
                );
            }
        }
    }

    #[test]
    fn copy_rejects_schema_violation() {
        let db = db_with_table();
        let bad = vec![vec![Value::Int(1)]];
        assert!(db.copy_into("sales", bad).is_err());
        // Nothing committed.
        assert!(db.snapshot().unwrap().containers.is_empty());
    }

    /// `sales` with a NOT NULL `id`.
    fn db_with_strict_table() -> Arc<EonDb> {
        use eon_types::{DataType, Field, Schema};
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = Schema::new(vec![
            Field::new("id", DataType::Int).not_null(),
            Field::new("cust", DataType::Str),
            Field::new("price", DataType::Int),
        ]);
        let proj = Projection::super_projection("sales_super", &s, &[0], &[0]);
        db.create_table("sales", s, vec![proj]).unwrap();
        db
    }

    /// A COPY refused at the load edge: a typed `SchemaMismatch`, no
    /// object added to shared storage, nothing committed.
    fn assert_refused_before_upload(copy: impl FnOnce(&EonDb) -> Result<u64>) {
        let db = db_with_strict_table();
        let (objects, version) = (db.shared().list("").unwrap(), db.version());
        let err = copy(&db).unwrap_err();
        assert!(matches!(err, EonError::SchemaMismatch(_)), "{err:?}");
        assert_eq!(db.shared().list("").unwrap(), objects, "nothing uploaded");
        assert_eq!(db.version(), version, "nothing committed");
        assert!(db.snapshot().unwrap().containers.is_empty());
    }

    fn ints(v: &[Option<i64>]) -> Column {
        Column::from_values(v.iter().map(|x| x.map_or(ValueRef::Null, ValueRef::Int)))
    }

    fn strs(n: usize) -> Column {
        Column::from_values((0..n).map(|_| ValueRef::Str("c")))
    }

    #[test]
    fn copy_into_ragged_row_is_a_typed_error() {
        assert_refused_before_upload(|db| {
            let mut rows = sample_rows(10);
            rows.insert(4, vec![Value::Int(1)]);
            db.copy_into("sales", rows)
        });
    }

    #[test]
    fn copy_into_mistyped_cell_is_a_typed_error() {
        assert_refused_before_upload(|db| {
            let mut rows = sample_rows(10);
            rows[7][1] = Value::Float(1.5);
            db.copy_into("sales", rows)
        });
    }

    #[test]
    fn copy_batch_of_the_wrong_width_is_a_typed_error() {
        assert_refused_before_upload(|db| {
            db.copy_batch("sales", Batch::new(vec![ints(&[Some(1), Some(2)]), strs(2)], 2))
        });
    }

    #[test]
    fn copy_batch_column_of_the_wrong_type_is_a_typed_error() {
        assert_refused_before_upload(|db| {
            let price = Column::from_values([ValueRef::Str("x"), ValueRef::Str("y")]);
            db.copy_batch("sales", Batch::new(vec![ints(&[Some(1), Some(2)]), strs(2), price], 2))
        });
    }

    #[test]
    fn copy_batch_null_in_a_not_null_column_is_a_typed_error() {
        assert_refused_before_upload(|db| {
            let cols = vec![ints(&[Some(1), None]), strs(2), ints(&[Some(3), Some(4)])];
            db.copy_batch("sales", Batch::new(cols, 2))
        });
        // An all-NULL column of no type is refused there too.
        assert_refused_before_upload(|db| {
            let cols = vec![Column::nulls(2), strs(2), ints(&[Some(3), Some(4)])];
            db.copy_batch("sales", Batch::new(cols, 2))
        });
    }

    #[test]
    fn copy_empty_is_noop() {
        let db = db_with_table();
        assert_eq!(db.copy_into("sales", vec![]).unwrap(), 0);
    }

    #[test]
    fn replicated_projection_gets_one_container() {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("name", Str)];
        db.create_table(
            "dim",
            s.clone(),
            vec![Projection::replicated("dim_rep", &s, &[0])],
        )
        .unwrap();
        db.copy_into("dim", (0..100).map(|i| vec![Value::Int(i), Value::Str("x".into())]).collect())
            .unwrap();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.containers.len(), 1);
        let c = snap.containers.values().next().unwrap();
        assert_eq!(c.shard, db.replica_shard());
        // All nodes cache the replicated container.
        for node in db.membership().all() {
            assert!(node.cache.contains(&c.key));
        }
    }

    #[test]
    fn multiple_loads_accumulate_containers() {
        let db = db_with_table();
        db.copy_into("sales", sample_rows(300)).unwrap();
        db.copy_into("sales", sample_rows(300)).unwrap();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.containers.len(), 6);
    }

    #[test]
    fn container_minmax_recorded_for_pruning() {
        let db = db_with_table();
        db.copy_into("sales", sample_rows(1000)).unwrap();
        let snap = db.snapshot().unwrap();
        for c in snap.containers.values() {
            let (min, max) = c.col_minmax[0].clone().unwrap();
            assert!(min.as_int().unwrap() >= 0);
            assert!(max.as_int().unwrap() < 1000);
            assert!(min <= max);
        }
    }
}
