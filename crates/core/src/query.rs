//! Distributed query execution (paper §4).
//!
//! A session (1) picks a covering set of participating subscriptions
//! via the max-flow solver (§4.1), (2) splits the plan into a local
//! phase and a coordinator merge (`eon-exec::auto_distribute`), (3)
//! acquires execution slots — a query takes `S` of the cluster's `N·E`
//! slots (§4.2) — and (4) runs the local phases on the participating
//! nodes in parallel, merging at the coordinator. Subcluster isolation
//! (§4.3) enters as a priority tier; crunch scaling (§4.4) spreads each
//! shard over several workers with a hash-filter slice.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use eon_cache::CacheMode;
use eon_catalog::CatalogState;
use eon_cluster::pool::run_indexed;
use eon_cluster::NodeRuntime;
use eon_exec::crunch::CrunchSlice;
use eon_exec::colocate::Layout;
use eon_exec::{
    auto_distribute, co_locate_joins, prune_columns, push_predicates, Distribution, Plan, ScanSpec,
};
use eon_obs::{Counter, QueryProfile, Registry};
use eon_shard::{select_participants, AssignmentProblem};
use eon_types::{EonError, NodeId, Result, ShardId, Value};

use crate::db::EonDb;
use crate::provider::NodeProvider;

/// Coordinator counters, registered once with the database.
pub(crate) struct QueryMetrics {
    /// Query attempts, failover retries included.
    attempts: Arc<Counter>,
    /// Attempts retried after a participant was lost mid-query.
    failovers: Arc<Counter>,
}

impl QueryMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        let labels: &[(&str, &str)] = &[("subsystem", "coordinator")];
        QueryMetrics {
            attempts: registry.counter("coordinator_query_attempts_total", labels),
            failovers: registry.counter("coordinator_failovers_total", labels),
        }
    }
}

/// Per-query session options.
#[derive(Debug, Clone, Default)]
pub struct SessionOpts {
    /// Restrict execution to a subcluster (§4.3); nodes outside it
    /// participate only if the subcluster cannot cover every shard.
    pub subcluster: Option<u64>,
    /// Bypass the depot for this query (§5.2 shaping policy).
    pub bypass_cache: bool,
    /// Crunch scaling (§4.4): spread every shard across all available
    /// participants with hash-filter slices. Improves single-query
    /// latency when nodes outnumber shards.
    pub crunch: bool,
    /// Session cancellation (DESIGN.md "Admission control"): checked in
    /// the admission queue, at execution-slot waits, and at scan-pool
    /// task claims, so a cancelled session releases everything it holds
    /// at the next boundary.
    pub cancel: Option<eon_types::CancelToken>,
}

impl SessionOpts {
    pub fn subcluster(id: u64) -> Self {
        SessionOpts {
            subcluster: Some(id),
            ..Default::default()
        }
    }
}

/// Which nodes serve which shards for one session, possibly with
/// several crunch workers per shard.
#[derive(Debug, Clone)]
pub struct Participation {
    /// (node, shards it serves, crunch slice).
    pub workers: Vec<(NodeId, Vec<ShardId>, CrunchSlice)>,
}

/// The plan a statement actually runs, and the one `EXPLAIN` renders —
/// the plan rules in order (DESIGN.md "Plan rules"): eligible aggregates
/// answered from Live Aggregate Projections (§2.1), filter conjuncts
/// moved into the scans they test, every scan narrowed to the columns
/// the plan uses, then co-segmented joins read shard-local (§4).
/// Read-only on the catalog.
pub fn optimize(plan: &Plan, snapshot: &CatalogState) -> Plan {
    // Asked for scans without a column list (the table's width) and for
    // pinned scans, where a LAP yields its own layout.
    let scan_width = |spec: &ScanSpec| {
        let table = snapshot.table_by_name(&spec.table)?;
        let pinned = spec.projection.as_ref();
        let lap = pinned
            .and_then(|name| table.projections.iter().find(|(_, p)| p.name == *name))
            .filter(|(_, p)| p.is_live_aggregate());
        Some(match (lap, &spec.columns) {
            (Some((_, p)), _) => p.columns.len(),
            (None, Some(cols)) => cols.len(),
            (None, None) => table.schema.len(),
        })
    };
    // Asked which projection a scan reads: the pick `resolve_scan` makes.
    let seg_of = |spec: &ScanSpec| {
        let table = snapshot.table_by_name(&spec.table)?;
        let needed = spec.needed_columns(table.schema.len());
        let global = spec.distribute == Distribution::Global;
        let (_, p) = table.pick_projection(&needed, global, spec.projection.as_deref()).ok()?;
        let layout = if p.is_live_aggregate() {
            Layout::LiveAggregate
        } else if p.is_replicated() {
            Layout::Replicated
        } else {
            Layout::Segmented(p.seg_cols().iter().map(|&c| p.columns[c]).collect())
        };
        Some((p.name.clone(), layout))
    };
    let plan = crate::lap::rewrite_for_laps(plan, snapshot);
    let plan = push_predicates(&plan, &scan_width);
    let plan = prune_columns(&plan, &scan_width);
    co_locate_joins(&plan, &scan_width, &seg_of)
}

impl EonDb {
    /// Compute the participating subscriptions for a session (§4.1).
    pub fn participation(&self, opts: &SessionOpts) -> Result<Participation> {
        let snapshot = self.snapshot()?;
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
        // Priority tiers: the client's subcluster first (§4.3).
        let tiers = match opts.subcluster {
            Some(sc) => {
                let (inside, outside): (Vec<NodeId>, Vec<NodeId>) = up.iter().partition(|id| {
                    self.membership
                        .get(**id)
                        .map(|n| n.subcluster.load(std::sync::atomic::Ordering::Relaxed) == sc)
                        .unwrap_or(false)
                });
                vec![inside, outside]
            }
            None => vec![up.clone()],
        };
        let assignment = select_participants(
            &AssignmentProblem {
                shards: shards.clone(),
                tiers,
                can_serve: can_serve.clone(),
            },
            self.next_session_seed(),
        )?;

        if !opts.crunch {
            // Shards in id order on each node, nodes in id order: a
            // node scans its shards, and a Float sum folds them, in one
            // order whatever order the solver's map iterates in.
            let mut assignment: Vec<(ShardId, NodeId)> = assignment.into_iter().collect();
            assignment.sort_unstable();
            let mut by_node: BTreeMap<NodeId, Vec<ShardId>> = BTreeMap::new();
            for (shard, node) in assignment {
                by_node.entry(node).or_default().push(shard);
            }
            return Ok(Participation {
                workers: by_node
                    .into_iter()
                    .map(|(n, s)| (n, s, CrunchSlice::all()))
                    .collect(),
            });
        }

        // Crunch scaling: every eligible subscriber of a shard becomes
        // a worker; each worker takes a hash slice of the shard (§4.4).
        let mut workers = Vec::new();
        for &shard in &shards {
            let eligible: Vec<NodeId> = can_serve
                .iter()
                .filter(|(_, s)| *s == shard)
                .map(|(n, _)| *n)
                .collect();
            let k = eligible.len().max(1);
            for (i, node) in eligible.into_iter().enumerate() {
                workers.push((node, vec![shard], CrunchSlice::new(i, k)));
            }
        }
        Ok(Participation { workers })
    }

    /// Execute a query plan across the cluster.
    pub fn query(&self, plan: &Plan) -> Result<Vec<Vec<Value>>> {
        self.query_with(plan, &SessionOpts::default())
    }

    /// Execute with session options.
    ///
    /// Mid-query participant failover (§4.1): "should a node go down
    /// in the middle of a query's execution, the query fails and is
    /// restarted with a different set of participants" — the restart is
    /// the *coordinator's* job, not the client's. When a worker dies
    /// during its local phase, participation is recomputed over the
    /// surviving nodes and the query re-runs, up to a bounded number of
    /// failovers; any other error (or an unviable cluster) surfaces
    /// immediately.
    pub fn query_with(&self, plan: &Plan, opts: &SessionOpts) -> Result<Vec<Vec<Value>>> {
        self.query_inner(plan, opts, None)
    }

    /// [`EonDb::query_with`], additionally collecting an
    /// `EXPLAIN ANALYZE`-style [`QueryProfile`]: per-participant
    /// local-phase and slot-wait spans, failover count, rows returned.
    pub fn query_profiled(
        &self,
        plan: &Plan,
        opts: &SessionOpts,
    ) -> Result<(Vec<Vec<Value>>, QueryProfile)> {
        let profile = QueryProfile::new();
        let rows = self.query_inner(plan, opts, Some(&profile))?;
        profile.annotate("rows_returned", rows.len() as i64);
        Ok((rows, profile))
    }

    fn query_inner(
        &self,
        plan: &Plan,
        opts: &SessionOpts,
        profile: Option<&QueryProfile>,
    ) -> Result<Vec<Vec<Value>>> {
        const MAX_FAILOVERS: usize = 3;
        // Health front door (DESIGN.md "Failure detection & degraded
        // modes"): a down cluster rejects with typed `ClusterDown`
        // before the session queues for admission or touches a slot
        // semaphore. Degraded and read-only states still serve reads.
        self.admit_read()?;
        // Admission (DESIGN.md "Admission control"): the session enters
        // its subcluster's resource pool before any participant work —
        // one admission covers all failover attempts. The guard is held
        // for the whole query; a `Saturated`/deadline outcome sheds the
        // session here, before it can pile onto the slot semaphores.
        let pool = opts.subcluster.unwrap_or(0);
        let admit_started = std::time::Instant::now();
        let _admission = self.admission.admit(pool, opts.cancel.as_ref())?;
        if let Some(p) = profile {
            p.record_span(
                "admission_wait",
                &format!("sc{pool}"),
                admit_started.elapsed().as_micros() as u64,
            );
        }
        let QueryMetrics { attempts, failovers: failed_over } = &self.query_metrics;
        let mut failovers = 0;
        loop {
            attempts.inc();
            match self.try_query(plan, opts, profile) {
                Err(EonError::NodeDown(who)) if failovers < MAX_FAILOVERS => {
                    // A participant died. try_query re-checks viability
                    // and recomputes participation from the up-set, so
                    // looping is the recompute.
                    failovers += 1;
                    failed_over.inc();
                    let _ = who;
                }
                // A participant panicked (bug or injected): the
                // process survives — its task caught the panic as a
                // typed error — and the query retries like any
                // mid-query participant loss.
                Err(EonError::Internal(msg))
                    if msg.starts_with("query worker panicked") && failovers < MAX_FAILOVERS =>
                {
                    failovers += 1;
                    failed_over.inc();
                }
                other => {
                    if let Some(p) = profile {
                        p.annotate("failovers", failovers as i64);
                    }
                    return other;
                }
            }
        }
    }

    /// One attempt: pick participants from the current up-set and run.
    fn try_query(
        &self,
        plan: &Plan,
        opts: &SessionOpts,
        profile: Option<&QueryProfile>,
    ) -> Result<Vec<Vec<Value>>> {
        self.ensure_viable()?;
        let snapshot = self.snapshot()?;
        let dp = auto_distribute(&optimize(plan, &snapshot));
        let version = self.version();
        let cache_mode = if opts.bypass_cache {
            CacheMode::Bypass
        } else {
            CacheMode::Normal
        };

        // Plans with no shard-local scan run on a single node —
        // replicating a global scan across nodes would double-count.
        let workers: Vec<(Arc<NodeRuntime>, Vec<ShardId>, CrunchSlice)> = if dp.has_local_scan() {
            let participation = self.participation(opts)?;
            participation
                .workers
                .into_iter()
                .map(|(id, shards, slice)| {
                    let node = self
                        .membership
                        .get(id)
                        .ok_or_else(|| EonError::NodeDown(id.to_string()))?;
                    Ok((node, shards, slice))
                })
                .collect::<Result<_>>()?
        } else {
            vec![(self.pick_coordinator()?, Vec::new(), CrunchSlice::all())]
        };

        // Run local phases in parallel; each worker holds one execution
        // slot per shard it serves (§4.2's S-of-N·E accounting). Slot
        // waits are deadline-bounded and cancellable: a saturated node
        // returns `DeadlineExceeded` within `slot_wait_ms` instead of
        // parking the session, and a node killed mid-wait wakes its
        // waiters with `NodeDown` so the failover loop re-plans.
        let all_shards = self.segment_shards();
        let replica = self.replica_shard();
        let slot_wait = eon_cluster::SlotWait {
            timeout: match self.config.slot_wait_ms {
                0 => None,
                ms => Some(std::time::Duration::from_millis(ms)),
            },
            cancel: opts.cancel.clone(),
        };
        // One pool task per participant, each as its own thread but the
        // first, which runs on this one. A task never reports failure to
        // the pool, so every participant runs (each its slot wait and its
        // crash sites) and the first error in participant order wins.
        let local_phase = |(node, shards, slice): &(Arc<NodeRuntime>, Vec<ShardId>, CrunchSlice)| {
            let queued = std::time::Instant::now();
            let _slots = node.slots.acquire_wait(shards.len().max(1), &slot_wait)?;
            if let Some(p) = profile {
                p.record_span("slot_wait", &node.id.to_string(), queued.elapsed().as_micros() as u64);
            }
            // Crash site: this participant's process dies during its
            // local phase (§4.1). Node-scoped so a seeded plan picks a
            // deterministic victim.
            let faults = &self.config.faults;
            if faults.hit_node(eon_storage::fault::site::QUERY_WORKER_LOCAL, node.id.0).is_err() {
                node.kill();
                return Err(EonError::NodeDown(format!("{} died mid-query", node.id)));
            }
            // Crash site: the worker *panics* instead of dying cleanly —
            // exercises the task-side containment (a panic must become a
            // typed error, not abort the whole process).
            if faults.hit_node(eon_storage::fault::site::QUERY_WORKER_PANIC, node.id.0).is_err() {
                panic!("injected local-phase panic on {}", node.id);
            }
            let token = node.begin_query(version);
            let provider = NodeProvider {
                node: node.clone(),
                snapshot: snapshot.clone(),
                my_shards: shards.clone(),
                all_shards: all_shards.clone(),
                replica_shard: replica,
                cache_mode,
                crunch: if slice.is_split() { Some(*slice) } else { None },
                scan: self.scan_options(node, profile, opts.cancel.clone()),
            };
            let local_span = profile.map(|p| p.span("local_phase", &node.id.to_string()));
            let out = dp.execute_local(&provider);
            drop(local_span);
            node.finish_query(token);
            // A worker killed out from under a running local phase
            // cannot vouch for its partial result.
            if out.is_ok() && !node.is_up() {
                return Err(EonError::NodeDown(format!("{} died mid-query", node.id)));
            }
            out
        };
        let results = run_indexed(workers.len(), workers.len(), None, None, |i| {
            // A panic becomes the typed `Internal` error the failover
            // loop retries, not a process abort.
            Ok(catch_unwind(AssertUnwindSafe(|| local_phase(&workers[i]))).unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(EonError::Internal(format!("query worker panicked: {msg}")))
            }))
        });
        let results = results.into_iter().flatten().map(|r| r.and_then(|local| local));
        let results = results.collect::<Result<Vec<_>>>()?;

        // Rows are the contract of every public query entry point: one
        // transpose, after the merge.
        let merge_span = profile.map(|p| p.span("coordinator_merge", ""));
        let out = dp.finish(results).map(eon_columnar::Batch::into_rows);
        drop(merge_span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_columnar::{Predicate, Projection};
    use eon_exec::{AggSpec, Expr, ScanSpec, SortKey};
    use eon_storage::MemFs;
    use eon_types::schema;

    fn db_loaded(nodes: usize, shards: usize) -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(nodes, shards)).unwrap();
        let s = schema![("id", Int), ("grp", Int), ("price", Int)];
        db.create_table(
            "sales",
            s.clone(),
            vec![Projection::super_projection("p", &s, &[0], &[0])],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..2000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 3)])
            .collect();
        db.copy_into("sales", rows).unwrap();
        db
    }

    fn sum_by_grp() -> Plan {
        Plan::scan(ScanSpec::new("sales"))
            .aggregate(vec![1], vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()])
            .sort(vec![SortKey::asc(0)])
    }

    fn expected_sum_by_grp() -> Vec<Vec<Value>> {
        let mut sums = [(0i64, 0i64); 7];
        for i in 0..2000i64 {
            sums[(i % 7) as usize].0 += i * 3;
            sums[(i % 7) as usize].1 += 1;
        }
        sums.iter()
            .enumerate()
            .map(|(g, &(s, c))| vec![Value::Int(g as i64), Value::Int(s), Value::Int(c)])
            .collect()
    }

    #[test]
    fn distributed_aggregate_is_exact() {
        let db = db_loaded(3, 3);
        assert_eq!(db.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn more_nodes_than_shards_still_exact() {
        let db = db_loaded(5, 3);
        assert_eq!(db.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn fewer_nodes_than_shards_still_exact() {
        let db = db_loaded(2, 5);
        assert_eq!(db.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn predicate_pushdown_correct() {
        let db = db_loaded(3, 3);
        let plan = Plan::scan(
            ScanSpec::new("sales")
                .predicate(Predicate::cmp(0, eon_columnar::pruning::CmpOp::Lt, 10i64))
                .columns(vec![0]),
        )
        .sort(vec![SortKey::asc(0)]);
        let out = db.query(&plan).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], vec![Value::Int(9)]);
    }

    /// A scan pinned to a projection that lacks a requested column is a
    /// typed error before any I/O, not a worker panic retried through
    /// the failover loop; unpinned, the same columns are answered
    /// exactly from whichever projection carries them.
    #[test]
    fn pinned_projection_lacking_a_column_is_a_typed_error() {
        use eon_columnar::projection::{Segmentation, SortOrder};
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("grp", Int), ("price", Int)];
        let narrow = Projection {
            name: "narrow".into(),
            columns: vec![0, 2],
            sort: SortOrder(vec![0]),
            segmentation: Segmentation::Segmented { cols: vec![0] },
            live_aggregate: None,
        };
        let wide = Projection::super_projection("p", &s, &[0], &[0]);
        db.create_table("sales", s, vec![wide, narrow]).unwrap();
        let rows: Vec<Vec<Value>> =
            (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 3)]).collect();
        db.copy_into("sales", rows).unwrap();

        let attempts = || {
            let labels: &[(&str, &str)] = &[("subsystem", "coordinator")];
            db.config().obs.counter("coordinator_query_attempts_total", labels).get()
        };
        let before = attempts();
        for spec in [
            ScanSpec::new("sales").projection("narrow").columns(vec![1]),
            ScanSpec::new("sales").projection("narrow"),
        ] {
            match db.query(&Plan::scan(spec)) {
                Err(EonError::Query(msg)) => {
                    assert_eq!(msg, "projection narrow lacks column 1")
                }
                other => panic!("expected a typed Query error, got {other:?}"),
            }
        }
        assert_eq!(attempts() - before, 2, "a typed error is not failed over");

        let by_id = vec![SortKey::asc(0)];
        let expected: Vec<Vec<Value>> =
            (0..500).map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect();
        let pinned = ScanSpec::new("sales").projection("narrow").columns(vec![0, 2]);
        assert_eq!(db.query(&Plan::scan(pinned).sort(by_id.clone())).unwrap(), expected);
        let unpinned = ScanSpec::new("sales").columns(vec![0, 2]);
        assert_eq!(db.query(&Plan::scan(unpinned).sort(by_id)).unwrap(), expected);
    }

    /// The crunch slice hashes each row's segmentation column, so the
    /// scan reads it even when the output does not carry it; with the
    /// column unread every row would hash alike and land on one worker.
    #[test]
    fn crunch_slices_split_a_scan_that_drops_the_segmentation_column() {
        use eon_exec::TableProvider;
        let db = db_loaded(1, 1);
        let node = db.membership().all()[0].clone();
        let rows_of = |worker: usize| {
            let provider = NodeProvider {
                node: node.clone(),
                snapshot: db.snapshot().unwrap(),
                my_shards: db.segment_shards(),
                all_shards: db.segment_shards(),
                replica_shard: db.replica_shard(),
                cache_mode: CacheMode::Normal,
                crunch: Some(CrunchSlice::new(worker, 2)),
                scan: db.scan_options(&node, None, None),
            };
            provider.scan(&[&ScanSpec::new("sales").columns(vec![1])]).unwrap()[0].rows()
        };
        let (a, b) = (rows_of(0), rows_of(1));
        assert_eq!(a + b, 2000);
        assert!(a > 0 && b > 0, "slices of {a} and {b} rows");
    }

    /// Scan metric handles are registered once, with the node: two
    /// providers on one node count into the node's own handles — the
    /// registry's — and a scan registers nothing of its own.
    #[test]
    fn scans_on_one_node_share_its_registered_metric_handles() {
        use eon_exec::TableProvider;
        let db = db_loaded(1, 1);
        let node = db.membership().all()[0].clone();
        let provider = || NodeProvider {
            node: node.clone(),
            snapshot: db.snapshot().unwrap(),
            my_shards: db.segment_shards(),
            all_shards: db.segment_shards(),
            replica_shard: db.replica_shard(),
            cache_mode: CacheMode::Normal,
            crunch: None,
            scan: db.scan_options(&node, None, None),
        };
        let (a, b) = (provider(), provider());
        let labels = [("node", "node0"), ("subsystem", "scan")];
        let registered = db.metrics().counter("scan_pool_tasks_total", &labels);
        assert!(Arc::ptr_eq(&a.metrics().pool_tasks, &b.metrics().pool_tasks));
        assert!(Arc::ptr_eq(&a.metrics().pool_tasks, &registered));
        let waits = db.metrics().timing_histogram("scan_pool_queue_wait_us", &labels);
        assert!(Arc::ptr_eq(&a.metrics().queue_wait, &b.metrics().queue_wait));
        assert!(Arc::ptr_eq(&b.metrics().queue_wait, &waits));
        let before = registered.get();
        let spec = ScanSpec::new("sales").columns(vec![1]);
        assert_eq!(a.scan(&[&spec]).unwrap()[0].rows(), 2000);
        let one = registered.get() - before;
        assert!(one > 0);
        assert_eq!(b.scan(&[&spec]).unwrap()[0].rows(), 2000);
        assert_eq!(registered.get() - before, 2 * one);
    }

    #[test]
    fn crunch_scaling_matches_plain() {
        let db = db_loaded(4, 2);
        // A replicated table is one physical copy: exactly one crunch
        // worker may read it.
        let s = schema![("x", Int)];
        db.create_table(
            "dim",
            s.clone(),
            vec![Projection::replicated("dim_r", &s, &[0])],
        )
        .unwrap();
        db.copy_into("dim", (0..25).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        let count_dim =
            Plan::scan(ScanSpec::new("dim")).aggregate(vec![], vec![AggSpec::count_star()]);
        assert_eq!(db.query(&count_dim).unwrap(), vec![vec![Value::Int(25)]]);
        let crunch = SessionOpts {
            crunch: true,
            ..Default::default()
        };
        for plan in [sum_by_grp(), count_dim] {
            let plain = db.query(&plan).unwrap();
            assert_eq!(db.query_with(&plan, &crunch).unwrap(), plain, "{plan:?}");
        }
    }

    #[test]
    fn bypass_cache_gives_same_answer() {
        let db = db_loaded(3, 3);
        let normal = db.query(&sum_by_grp()).unwrap();
        let bypass = db
            .query_with(
                &sum_by_grp(),
                &SessionOpts {
                    bypass_cache: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(normal, bypass);
    }

    #[test]
    fn node_down_query_still_exact() {
        let db = db_loaded(4, 3);
        db.membership().get(NodeId(0)).unwrap().kill();
        assert_eq!(db.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn participant_killed_mid_query_fails_over() {
        use eon_storage::fault::{site, FaultPlan};
        // 4 nodes / 3 shards with k=1: any single node can die and the
        // survivors still cover every shard. Arm a crash that kills
        // node 1 the first time it runs a local phase.
        let plan_inject = FaultPlan::at_node(site::QUERY_WORKER_LOCAL, 0, 1);
        let db = {
            let db = EonDb::create(
                Arc::new(MemFs::new()),
                EonConfig::new(4, 3).faults(plan_inject.clone()),
            )
            .unwrap();
            let s = schema![("id", Int), ("grp", Int), ("price", Int)];
            db.create_table(
                "sales",
                s.clone(),
                vec![Projection::super_projection("p", &s, &[0], &[0])],
            )
            .unwrap();
            let rows: Vec<Vec<Value>> = (0..2000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 3)])
                .collect();
            db.copy_into("sales", rows).unwrap();
            db
        };
        // Run queries until the armed crash actually fires (node 1 may
        // not participate in the very first session).
        let mut fired = false;
        for _ in 0..20 {
            let out = db.query(&sum_by_grp()).expect("failover should hide the death");
            assert_eq!(out, expected_sum_by_grp());
            if !plan_inject.fired().is_empty() {
                fired = true;
                break;
            }
        }
        assert!(fired, "crash site never fired");
        // The victim really is down, and queries keep answering.
        assert!(!db.membership().get(NodeId(1)).unwrap().is_up());
        assert_eq!(db.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn failover_is_bounded_when_cluster_goes_unviable() {
        use eon_storage::fault::{site, FaultPlan};
        // 3 nodes / 3 shards, k=1: shard coverage survives one death
        // but not two. Kill nodes until the cluster is unviable and
        // check the query surfaces an error instead of looping.
        let db = db_loaded(3, 3);
        db.membership().get(NodeId(0)).unwrap().kill();
        db.membership().get(NodeId(1)).unwrap().kill();
        assert!(db.query(&sum_by_grp()).is_err());
        // And an armed-but-unfired plan on a healthy db leaves queries
        // untouched (inert-path sanity).
        let db2 = db_loaded(3, 3);
        db2.config().faults.hit(site::LOAD_PRE_COMMIT).unwrap();
        let inert = FaultPlan::inert();
        assert!(inert.hit_node(site::QUERY_WORKER_LOCAL, 0).is_ok());
        assert_eq!(db2.query(&sum_by_grp()).unwrap(), expected_sum_by_grp());
    }

    #[test]
    fn subcluster_isolation_respected() {
        let db = db_loaded(4, 2);
        // Nodes 2,3 form subcluster 1 and can serve everything? They
        // may not subscribe to every shard, so isolation is best-effort
        // per §4.3 — the assignment must still succeed.
        for id in [2u64, 3u64] {
            db.membership()
                .get(NodeId(id))
                .unwrap()
                .subcluster
                .store(1, std::sync::atomic::Ordering::Relaxed);
        }
        let out = db
            .query_with(&sum_by_grp(), &SessionOpts::subcluster(1))
            .unwrap();
        assert_eq!(out, expected_sum_by_grp());
    }

    #[test]
    fn repeated_queries_spread_over_nodes() {
        // 6 nodes, 2 shards: assignments across many sessions should
        // touch more than 2 distinct nodes (§4.1 edge-order variation).
        let db = db_loaded(6, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            let p = db.participation(&SessionOpts::default()).unwrap();
            for (n, _, _) in p.workers {
                seen.insert(n);
            }
        }
        assert!(seen.len() > 2, "only {} nodes ever participated", seen.len());
    }

    /// A node scans its shards in id order whatever order the
    /// participant solver's map iterates in, so a Float `SUM` folds its
    /// shards in one order: 40 runs on 1 node × 3 shards give one
    /// answer, bit for bit.
    #[test]
    fn float_sum_is_bitwise_stable_across_runs() {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(1, 3)).unwrap();
        let s = schema![("id", Int), ("x", Float)];
        let proj = Projection::super_projection("p", &s, &[0], &[0]);
        db.create_table("t", s, vec![proj]).unwrap();
        // Magnitudes 12 decades apart: the rounding depends on the order.
        let x = |i: i64| if i % 3 == 0 { 1e12 + i as f64 } else { (i as f64).sqrt() * 1e-3 };
        let rows = (0..3000).map(|i| vec![Value::Int(i), Value::Float(x(i))]).collect();
        db.copy_into("t", rows).unwrap();
        let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::sum(Expr::col(1))]);
        let answers: std::collections::HashSet<u64> = (0..40)
            .map(|_| match db.query(&plan).unwrap()[0][0] {
                Value::Float(f) => f.to_bits(),
                ref v => panic!("SUM of floats gave {v:?}"),
            })
            .collect();
        assert_eq!(answers.len(), 1, "{} distinct sums in 40 runs", answers.len());
    }
}
