//! The [`EonDb`] handle and cluster bootstrap (the commit protocol is
//! in [`crate::commit`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use eon_catalog::{CatalogOp, CatalogState, ShardDef, ShardKind, SubState, Subscription, Txn};
use eon_cluster::{Membership, NodeRuntime};
use eon_shard::rebalance_plan;
use eon_storage::{CircuitBreaker, MemFs, RetryFs, SharedFs};
use eon_types::{EonError, HashRange, NodeId, Result, ShardId, TxnVersion};

use crate::config::EonConfig;
use crate::maintenance::Reaper;

/// An Eon-mode database over a shared storage.
pub struct EonDb {
    pub(crate) shared: SharedFs,
    pub(crate) config: EonConfig,
    pub(crate) membership: Membership,
    /// Hex incarnation id; changes on revive (§3.5).
    pub(crate) incarnation: Mutex<String>,
    /// Serializes cluster commits (stand-in for the distributed commit
    /// protocol; Vertica's global catalog lock plays the same role). A
    /// commit batch forms while its leader waits for it.
    pub(crate) commit_lock: Mutex<()>,
    /// Session counter: varies participant selection per query (§4.1).
    pub(crate) session_counter: AtomicU64,
    /// Coordinator rotation. Deliberately separate from
    /// `session_counter`: if seeds and rotation shared one counter,
    /// every seed draw would skip a node in the rotation and fairness
    /// would depend on how many seeds each operation happens to draw.
    pub(crate) coordinator_counter: AtomicU64,
    pub(crate) next_node_id: AtomicU64,
    pub(crate) instance_seed: AtomicU64,
    pub(crate) reaper: Reaper,
    /// Per-subcluster admission pools (DESIGN.md "Admission control").
    pub(crate) admission: crate::admission::AdmissionControl,
    /// S3 circuit breaker (DESIGN.md "Failure detection & degraded
    /// modes"). Shared with the `RetryFs` wrapper around `shared`;
    /// `None` when disabled via config.
    pub(crate) breaker: Option<Arc<CircuitBreaker>>,
    /// Self-healing supervisor state: the failure detector plus repair
    /// bookkeeping, driven by [`EonDb::supervise_tick`].
    pub(crate) supervisor: Mutex<crate::supervisor::SupervisorState>,
    /// Group-commit accumulator (DESIGN.md "Group commit"): every
    /// commit parks here.
    pub(crate) group_commit: crate::commit::GroupCommit,
    /// Set when metadata divergence is detected (§3.4): a node applied
    /// a record in memory but could not persist it, or refused a record
    /// its peers accepted. A halted cluster reports `Down` from
    /// [`EonDb::cluster_health`] and admits nothing further.
    pub(crate) halted: Mutex<Option<String>>,
}

impl EonDb {
    /// Create a brand-new database on empty shared storage: commission
    /// nodes, define the shard layout (segment shards + one replica
    /// shard), and subscribe nodes via the ring rebalance.
    pub fn create(shared: SharedFs, config: EonConfig) -> Result<Arc<EonDb>> {
        assert!(config.num_nodes > 0 && config.num_shards > 0);
        let (shared, breaker) = Self::resilient(shared, &config);
        let db = Self::assemble(shared, breaker, config, format!("inc{:08x}", 0xe0ee_0000u32), 1);
        for i in 0..db.config.num_nodes {
            let node = db.commission_node(NodeId(i as u64));
            db.membership.add(node);
        }

        // Bootstrap transaction: shard layout + subscriptions.
        let coord = db.membership.leader().expect("fresh cluster has nodes");
        let mut txn = coord.catalog.begin();
        txn.push(CatalogOp::DefineShards(db.shard_defs()));
        db.commit_cluster(txn, &coord)?;

        // Subscriptions: segment shards via the ring plan, replica
        // shard on every node; a fresh cluster has no metadata or cache
        // to transfer, so promote straight to ACTIVE.
        let mut txn = coord.catalog.begin();
        for op in rebalance_plan(
            &coord.catalog.snapshot(),
            &db.membership.up_ids(),
            db.config.k_safety,
        ) {
            let op = match op {
                CatalogOp::UpsertSubscription(mut s) => {
                    s.state = SubState::Active;
                    CatalogOp::UpsertSubscription(s)
                }
                other => other,
            };
            txn.push(op);
        }
        for node in db.membership.up_ids() {
            txn.push(CatalogOp::UpsertSubscription(Subscription {
                node,
                shard: db.replica_shard(),
                state: SubState::Active,
            }));
        }
        db.commit_cluster(txn, &coord)?;
        Ok(db)
    }

    /// The database handle, before any node is commissioned: what
    /// `create` and `revive` differ in is the incarnation id and the
    /// first instance seed.
    pub(crate) fn assemble(
        shared: SharedFs,
        breaker: Option<Arc<CircuitBreaker>>,
        config: EonConfig,
        incarnation: String,
        instance_seed: u64,
    ) -> Arc<EonDb> {
        Arc::new(EonDb {
            shared,
            membership: Membership::new(),
            incarnation: Mutex::new(incarnation),
            commit_lock: Mutex::new(()),
            session_counter: AtomicU64::new(1),
            coordinator_counter: AtomicU64::new(0),
            next_node_id: AtomicU64::new(config.num_nodes as u64),
            instance_seed: AtomicU64::new(instance_seed),
            reaper: Reaper::default(),
            admission: crate::admission::AdmissionControl::new(
                crate::admission::AdmissionLimits::from_config(&config),
                config.obs.clone(),
            ),
            breaker,
            supervisor: Mutex::new(crate::supervisor::SupervisorState::new(&config)),
            group_commit: Default::default(),
            halted: Mutex::new(None),
            config,
        })
    }

    pub fn config(&self) -> &EonConfig {
        &self.config
    }

    /// The database metrics registry (DESIGN.md "Observability").
    pub fn metrics(&self) -> &eon_obs::Registry {
        &self.config.obs
    }

    /// Admission-control introspection (DESIGN.md "Admission control"):
    /// tests and the bench harness read pool depths to prove sessions
    /// neither leak running counts nor park past their deadline.
    pub fn admission(&self) -> &crate::admission::AdmissionControl {
        &self.admission
    }

    pub fn shared(&self) -> &SharedFs {
        &self.shared
    }

    /// The S3 circuit breaker, when enabled (`EonConfig::breaker`).
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Wrap raw shared storage in the one resilience layer (§5.3 retry
    /// loop, retry count in the database registry) behind the
    /// configured breaker, which the write-admission front door shares.
    /// Shared by `create` and `revive`.
    pub(crate) fn resilient(
        shared: SharedFs,
        config: &EonConfig,
    ) -> (SharedFs, Option<Arc<CircuitBreaker>>) {
        let breaker = config
            .breaker
            .clone()
            .map(|b| CircuitBreaker::with_metrics(b, &config.obs));
        // The default policy: 5 attempts (DESIGN.md "Retry everywhere").
        let fs = RetryFs::new(shared, Default::default(), &config.obs, breaker.clone());
        (Arc::new(fs), breaker)
    }

    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    pub fn incarnation(&self) -> String {
        self.incarnation.lock().clone()
    }

    /// The replica shard holding replicated-projection storage (§3.1).
    pub fn replica_shard(&self) -> ShardId {
        ShardId(self.config.num_shards as u64)
    }

    /// Segment shard ids.
    pub fn segment_shards(&self) -> Vec<ShardId> {
        (0..self.config.num_shards as u64).map(ShardId).collect()
    }

    pub(crate) fn shard_defs(&self) -> Vec<ShardDef> {
        let mut defs: Vec<ShardDef> = HashRange::split_even(self.config.num_shards)
            .into_iter()
            .enumerate()
            .map(|(i, range)| ShardDef {
                id: ShardId(i as u64),
                kind: ShardKind::Segment,
                range,
            })
            .collect();
        defs.push(ShardDef {
            id: self.replica_shard(),
            kind: ShardKind::Replica,
            range: HashRange::full(),
        });
        defs
    }

    /// A brand-new node process with empty local storage.
    pub(crate) fn commission_node(&self, id: NodeId) -> Arc<NodeRuntime> {
        self.start_node(id, Arc::new(MemFs::new()))
    }

    /// Start a node process over `local_disk` — the one place a node
    /// runtime is built, whether commissioned, restarted or cold
    /// restarted: a fresh instance id, depot and slots counting into
    /// the database registry, the crash-point plan installed.
    pub(crate) fn start_node(&self, id: NodeId, local_disk: SharedFs) -> Arc<NodeRuntime> {
        let seed = self.instance_seed.fetch_add(1, Ordering::Relaxed);
        let node = NodeRuntime::with_local_disk(
            id,
            local_disk,
            self.shared.clone(),
            &format!("{}/node{}", self.incarnation(), id.0),
            self.config.cache_bytes,
            self.config.exec_slots,
            seed,
            &self.config.obs,
        );
        node.set_faults(self.config.faults.clone());
        node
    }

    /// Scan-pipeline options for a session on `node`: one scan-pool
    /// worker per execution slot (§4.2).
    pub(crate) fn scan_options(
        &self,
        node: &NodeRuntime,
        profile: Option<&eon_obs::QueryProfile>,
        cancel: Option<eon_types::CancelToken>,
    ) -> crate::provider::ScanOptions {
        crate::provider::ScanOptions {
            workers: node.slots.capacity().max(1),
            obs: self.config.obs.clone(),
            profile: profile.cloned(),
            cancel,
        }
    }

    /// Any up node, rotated by the session counter — clients connect to
    /// different nodes, and the connection target is the coordinator.
    pub(crate) fn pick_coordinator(&self) -> Result<Arc<NodeRuntime>> {
        let up = self.membership.up_nodes();
        if up.is_empty() {
            return Err(EonError::ClusterDown("no nodes up".into()));
        }
        let i = self.coordinator_counter.fetch_add(1, Ordering::Relaxed) as usize % up.len();
        Ok(up[i].clone())
    }

    /// Next session seed (drives assignment edge-order variation).
    pub(crate) fn next_session_seed(&self) -> u64 {
        self.session_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Record metadata divergence (§3.4: "the cluster shuts down" —
    /// once nodes disagree, serving anything risks wrong answers) and
    /// return the typed error. The halt flag makes every later
    /// admission fail via [`EonDb::cluster_health`].
    pub(crate) fn declare_divergence(&self, node: NodeId, e: &EonError) -> EonError {
        let msg = format!("metadata divergence on {node}: {e}");
        *self.halted.lock() = Some(msg.clone());
        EonError::ClusterDown(msg)
    }

    /// Shared-storage keys a transaction's drop ops *might* orphan,
    /// resolved against the transaction's snapshot (before apply — the
    /// snapshot still holds them). `copy_table` can put the same file
    /// under several tables (§5.1), so the commit checks them against
    /// the post-commit state and only a key whose catalog reference
    /// count reached zero feeds the §6.5 reaper.
    pub(crate) fn dropped_keys(txn: &Txn) -> Vec<String> {
        let snap = txn.snapshot();
        let mut keys = Vec::new();
        for op in txn.ops() {
            match op {
                CatalogOp::DropContainer(oid) => {
                    if let Some(c) = snap.containers.get(oid) {
                        keys.push(c.key.clone());
                    }
                    for dv in snap.delete_vectors_for(*oid) {
                        keys.push(dv.key.clone());
                    }
                }
                CatalogOp::DropDeleteVector(oid) => {
                    if let Some(d) = snap.delete_vectors.get(oid) {
                        keys.push(d.key.clone());
                    }
                }
                CatalogOp::DropTable(oid) => {
                    for c in snap.containers.values().filter(|c| c.table == *oid) {
                        keys.push(c.key.clone());
                        for dv in snap.delete_vectors_for(c.oid) {
                            keys.push(dv.key.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        keys
    }

    /// A consistent catalog snapshot (from any up node; they are in
    /// lockstep).
    pub fn snapshot(&self) -> Result<Arc<CatalogState>> {
        Ok(self.pick_coordinator()?.catalog.snapshot())
    }

    /// The global catalog version (§3.4).
    pub fn version(&self) -> TxnVersion {
        self.membership
            .up_nodes()
            .first()
            .map(|n| n.catalog.version())
            .unwrap_or(TxnVersion::ZERO)
    }

    /// §3.4 viability check; most public operations call this first.
    pub fn ensure_viable(&self) -> Result<()> {
        let snapshot = self
            .membership
            .up_nodes()
            .first()
            .map(|n| n.catalog.snapshot())
            .ok_or_else(|| EonError::ClusterDown("no nodes up".into()))?;
        self.membership.check_viable(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Arc<EonDb> {
        EonDb::create(Arc::new(MemFs::new()), EonConfig::new(4, 3)).unwrap()
    }

    #[test]
    fn create_bootstraps_shards_and_subscriptions() {
        let db = db();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.shards.len(), 4); // 3 segment + 1 replica
        assert_eq!(snap.segment_shard_count(), 3);
        // Every segment shard has k+1 = 2 ACTIVE subscribers.
        for s in db.segment_shards() {
            assert_eq!(snap.subscribers_in(s, SubState::Active).len(), 2);
        }
        // Replica shard on all nodes.
        assert_eq!(
            snap.subscribers_in(db.replica_shard(), SubState::Active).len(),
            4
        );
        db.ensure_viable().unwrap();
    }

    #[test]
    fn all_nodes_share_catalog_version() {
        let db = db();
        let versions: Vec<TxnVersion> = db
            .membership
            .all()
            .iter()
            .map(|n| n.catalog.version())
            .collect();
        assert!(versions.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(db.version(), TxnVersion(2)); // shards + subscriptions
    }

    #[test]
    fn viability_fails_when_shard_uncovered() {
        let db = db();
        // Kill the two subscribers of shard 0 (ring layout: nodes 0,1).
        db.membership.get(NodeId(0)).unwrap().kill();
        db.membership.get(NodeId(1)).unwrap().kill();
        assert!(db.ensure_viable().is_err());
    }

    #[test]
    fn single_node_down_keeps_cluster_viable() {
        let db = db();
        db.membership.get(NodeId(0)).unwrap().kill();
        db.ensure_viable().unwrap();
    }

    /// Coordinator rotation is fair: N sessions on N up nodes land one
    /// coordinator each. Regression for the shared-counter bug where
    /// `next_session_seed` advanced the same counter as
    /// `pick_coordinator`, skipping nodes in the rotation.
    #[test]
    fn coordinator_rotation_visits_every_node() {
        let db = db();
        let n = db.membership.len() as u64;
        let mut hits = std::collections::HashMap::new();
        for _ in 0..n {
            // Interleave seed draws the way a real session does — with
            // the split counters they must not perturb the rotation.
            let _ = db.next_session_seed();
            let coord = db.pick_coordinator().unwrap();
            let _ = db.next_session_seed();
            *hits.entry(coord.id).or_insert(0u64) += 1;
        }
        for id in 0..n {
            assert_eq!(
                hits.get(&NodeId(id)).copied().unwrap_or(0),
                1,
                "node {id} should coordinate exactly once in one rotation ({hits:?})"
            );
        }
    }
}
