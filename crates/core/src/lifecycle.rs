//! Node lifecycle and elasticity (paper §3.3, §3.5, §6.1, §6.4).
//!
//! * kill / restart — process death loses in-memory state; restart
//!   recovers from the node's local transaction log, then
//!   *re-subscribes*: ACTIVE subscriptions flip to PENDING, metadata
//!   catches up incrementally from a peer, the cache warms from a
//!   peer's MRU list, and the subscriptions return to ACTIVE (§3.3).
//! * add / remove node — the §6.4 elasticity story: subscriptions
//!   rebalance over the new node set; no data moves, only metadata and
//!   (optionally) cache warming.
//! * revive — §3.5: start a cluster from nothing but shared storage,
//!   honoring the `cluster_info` lease and truncation version and
//!   stamping a fresh incarnation id.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use eon_catalog::{CatalogOp, CatalogState, ClusterInfo, SubState, Subscription};
use eon_cluster::NodeRuntime;
use eon_storage::fault::site as fault_site;
use eon_shard::{can_drop_subscription, rebalance_plan};
use eon_types::{EonError, NodeId, Result, TxnVersion};

use crate::config::EonConfig;
use crate::db::EonDb;

impl EonDb {
    /// Simulate a node process dying. Shards it served stay available
    /// through their other subscribers — no repair needed (§6.1).
    pub fn kill_node(&self, id: NodeId) -> Result<()> {
        let node = self
            .membership
            .get(id)
            .ok_or_else(|| EonError::NodeDown(format!("{id} not commissioned")))?;
        node.kill();
        Ok(())
    }

    /// Restart a killed node: recover its catalog from its local disk,
    /// re-subscribe (§3.3), catch up metadata from a peer, warm the
    /// cache from a peer, and return to full participation. Returns the
    /// number of files warmed into the cache.
    pub fn restart_node(&self, id: NodeId) -> Result<usize> {
        let old = self
            .membership
            .get(id)
            .ok_or_else(|| EonError::NodeDown(format!("{id} not commissioned")))?;
        if old.is_up() {
            return Err(EonError::Internal(format!("{id} is already up")));
        }
        // Fresh process over the same local disk (new instance id).
        let node = self.start_node(id, old.local_disk.clone());
        node.recover_local()?;

        // Metadata transfer *before* rejoining the commit fan-out: the
        // node must reach the cluster version or distributed records
        // would arrive out of order (§3.3's catch-up rounds). Both
        // happen under the commit lock: a commit landing between the
        // catch-up and the rejoin would be shipped to neither the
        // catch-up nor the new runtime.
        let coord = self.pick_up_peer(id)?;
        {
            let _no_commits = self.commit_lock.lock();
            self.catch_up_node(&node, &coord)?;
            self.membership.add(node.clone()); // replaces the dead runtime
        }

        // Re-subscription (§3.3): the cluster flips the rejoiner's
        // ACTIVE subscriptions to PENDING...
        let my_subs: Vec<Subscription> = coord
            .catalog
            .snapshot()
            .subscriptions_of(id)
            .into_iter()
            .cloned()
            .collect();
        let mut txn = coord.catalog.begin();
        for s in &my_subs {
            if s.state == SubState::Active {
                txn.push(CatalogOp::UpsertSubscription(Subscription {
                    state: SubState::Pending,
                    ..s.clone()
                }));
            }
        }
        if !txn.is_empty() {
            self.commit_cluster(txn, &coord)?;
        }

        // PENDING → PASSIVE under the commit lock, then cache warm and
        // ACTIVE (§3.3's two-step completion).
        self.promote_subscriptions(id, &coord)?;
        let warmed = self.warm_cache_from_peer(&node)?;
        Ok(warmed)
    }

    /// Add a brand-new node (§6.4): commission, install the catalog,
    /// rebalance subscriptions, promote, warm cache. Returns its id.
    pub fn add_node(&self) -> Result<NodeId> {
        self.ensure_viable()?;
        let id = NodeId(self.next_node_id.fetch_add(1, Ordering::Relaxed));
        let node = self.commission_node(id);
        let coord = self.pick_up_peer(id)?;
        // New node installs the current catalog wholesale. Install and
        // join happen under the commit lock, as in `restart_node`: a
        // commit landing between them would be distributed to a
        // membership without the newcomer, whose catalog then cannot
        // apply the next record consecutively. From the join on, the
        // commit fan-out keeps it current.
        {
            let _no_commits = self.commit_lock.lock();
            node.install_catalog((*coord.catalog.snapshot()).clone(), coord.catalog.version());
            node.checkpoint()?;
            self.membership.add(node.clone());
        }

        // Rebalance over the grown node set; the plan creates PENDING
        // subscriptions for the newcomer (and REMOVING for surplus).
        let mut txn = coord.catalog.begin();
        for op in rebalance_plan(
            &coord.catalog.snapshot(),
            &self.membership.up_ids(),
            self.config.k_safety,
        ) {
            txn.push(op);
        }
        // Replica shard: every node subscribes.
        txn.push(CatalogOp::UpsertSubscription(Subscription {
            node: id,
            shard: self.replica_shard(),
            state: SubState::Pending,
        }));
        self.commit_cluster(txn, &coord)?;

        // No metadata catch-up: the newcomer joined at the cluster
        // version and has been shipped every commit since.
        self.promote_subscriptions(id, &coord)?;
        self.warm_cache_from_peer(&node)?;
        Ok(id)
    }

    /// Whole-cluster process crash: every node's memory is lost at
    /// once, local disks survive. The commit fault sites model the
    /// coordinator process dying, and in this in-process cluster its
    /// death takes every in-memory catalog with it — so unlike
    /// [`EonDb::restart_node`], no surviving peer exists to snapshot
    /// from, and recovery must come from the durable logs alone.
    ///
    /// Every node recovers from its own local log (§3.5's durability
    /// point), then nodes behind the most-advanced *durable* log replay
    /// its tail — never a surviving in-memory catalog, because there is
    /// none. A mid-distribution crash (coordinator appended, some peers
    /// did not) converges here: the append is one atomic file, so each
    /// log holds the record or nothing, and each laggard applies the
    /// missing tail as one batch and appends it as one log file.
    /// Returns the converged version.
    pub fn cold_restart_all(&self) -> Result<TxnVersion> {
        let mut nodes: Vec<Arc<NodeRuntime>> = Vec::new();
        for old in self.membership.all() {
            if old.is_up() {
                old.kill();
            }
            let node = self.start_node(old.id, old.local_disk.clone());
            node.recover_local()?;
            nodes.push(node);
        }
        let tip = nodes
            .iter()
            .max_by_key(|n| n.catalog.version())
            .cloned()
            .ok_or_else(|| EonError::ClusterDown("no nodes to cold-restart".into()))?;
        for node in &nodes {
            while node.catalog.version() < tip.catalog.version() {
                let records = tip.store.read_records_after(node.catalog.version())?;
                if records.is_empty() {
                    return Err(EonError::Corrupt(format!(
                        "cold restart: {} cannot reach v{} from durable logs",
                        node.id,
                        tip.catalog.version().0
                    )));
                }
                node.catalog.apply_committed_batch(&records)?;
                node.store.append_local(&records)?;
            }
            self.membership.add(node.clone());
        }
        Ok(tip.catalog.version())
    }

    /// Remove a node (§6.4): move its responsibilities elsewhere first
    /// (REMOVING until safe, §3.3), then decommission.
    pub fn remove_node(&self, id: NodeId) -> Result<()> {
        self.ensure_viable()?;
        let coord = self.pick_up_peer(id)?;
        let remaining: Vec<NodeId> = self
            .membership
            .up_ids()
            .into_iter()
            .filter(|n| *n != id)
            .collect();
        if remaining.is_empty() {
            return Err(EonError::ClusterDown("cannot remove the last node".into()));
        }
        // Rebalance onto the remaining nodes and promote them so every
        // shard is safe without the leaver.
        let mut txn = coord.catalog.begin();
        for op in rebalance_plan(&coord.catalog.snapshot(), &remaining, self.config.k_safety) {
            txn.push(op);
        }
        if !txn.is_empty() {
            self.commit_cluster(txn, &coord)?;
        }
        for n in &remaining {
            self.promote_subscriptions(*n, &coord)?;
        }

        // Drop the leaver's subscriptions, checking fault tolerance per
        // shard (§3.3: REMOVING holds until enough other subscribers).
        let subs: Vec<Subscription> = coord
            .catalog
            .snapshot()
            .subscriptions_of(id)
            .into_iter()
            .cloned()
            .collect();
        let mut txn = coord.catalog.begin();
        for s in &subs {
            if can_drop_subscription(&coord.catalog.snapshot(), id, s.shard, self.config.k_safety)
                || s.shard == self.replica_shard()
            {
                txn.push(CatalogOp::RemoveSubscription {
                    node: id,
                    shard: s.shard,
                });
            } else {
                return Err(EonError::CommitInvariant(format!(
                    "shard {} would lose fault tolerance",
                    s.shard
                )));
            }
        }
        self.commit_cluster(txn, &coord)?;
        if let Some(node) = self.membership.get(id) {
            node.kill();
            node.cache.clear()?;
        }
        self.membership.remove(id);
        Ok(())
    }

    /// Advance all of `id`'s PENDING subscriptions to ACTIVE via
    /// PASSIVE (metadata already transferred by `catch_up_node`). Also
    /// used by the supervisor's takeover pass (DESIGN.md "Failure
    /// detection & degraded modes").
    pub(crate) fn promote_subscriptions(&self, id: NodeId, coord: &Arc<NodeRuntime>) -> Result<()> {
        for target in [SubState::Passive, SubState::Active] {
            let subs: Vec<Subscription> = coord
                .catalog
                .snapshot()
                .subscriptions_of(id)
                .into_iter()
                .cloned()
                .collect();
            let mut txn = coord.catalog.begin();
            for s in subs {
                let advance = matches!(
                    (s.state, target),
                    (SubState::Pending, SubState::Passive) | (SubState::Passive, SubState::Active)
                );
                if advance {
                    txn.push(CatalogOp::UpsertSubscription(Subscription {
                        state: target,
                        ..s
                    }));
                }
            }
            if !txn.is_empty() {
                self.commit_cluster(txn, coord)?;
            }
        }
        Ok(())
    }

    /// Metadata transfer (§3.3): ship the log tail the node is missing,
    /// applied as one batch and appended as one log file; if the peer's
    /// log no longer covers the gap (checkpoint pruning), ship a full
    /// snapshot.
    fn catch_up_node(&self, node: &Arc<NodeRuntime>, peer: &Arc<NodeRuntime>) -> Result<()> {
        loop {
            let have = node.catalog.version();
            let want = peer.catalog.version();
            if have >= want {
                return Ok(());
            }
            let records = peer.store.read_records_after(have)?;
            if records.is_empty() {
                // Gap: full snapshot install.
                node.install_catalog((*peer.catalog.snapshot()).clone(), peer.catalog.version());
                node.checkpoint()?;
                return Ok(());
            }
            node.catalog.apply_committed_batch(&records)?;
            node.store.append_local(&records)?;
        }
    }

    /// Warm the node's cache from the best peer (§5.2): same
    /// subcluster preferred, MRU list within the cache capacity.
    fn warm_cache_from_peer(&self, node: &Arc<NodeRuntime>) -> Result<usize> {
        let my_sc = node.subcluster.load(Ordering::Relaxed);
        let peers = self.membership.up_nodes();
        let peer = peers
            .iter()
            .filter(|p| p.id != node.id)
            .max_by_key(|p| (p.subcluster.load(Ordering::Relaxed) == my_sc) as u8);
        match peer {
            Some(p) => {
                let budget = node.cache.capacity();
                node.cache.warm_from(&p.cache.mru_list(budget))
            }
            None => Ok(0),
        }
    }

    pub(crate) fn pick_up_peer(&self, not: NodeId) -> Result<Arc<NodeRuntime>> {
        self.membership
            .up_nodes()
            .into_iter()
            .find(|n| n.id != not)
            .ok_or_else(|| EonError::ClusterDown("no live peer".into()))
    }

    /// Revive a cluster from shared storage (§3.5): read
    /// `cluster_info`, refuse while the lease is live, recover the
    /// catalog at the truncation version, start fresh nodes under a new
    /// incarnation id, and commit the revive by writing a new
    /// `cluster_info`.
    pub fn revive(
        shared: eon_storage::SharedFs,
        config: EonConfig,
        now_ms: u64,
    ) -> Result<Arc<EonDb>> {
        let (shared, breaker) = Self::resilient(shared, &config);
        let info = ClusterInfo::read(shared.as_ref())?
            .ok_or_else(|| EonError::Revive("no cluster_info on shared storage".into()))?;
        if info.lease_live(now_ms) {
            return Err(EonError::Revive(format!(
                "lease live until {}ms — another cluster may be running",
                info.lease_until_ms
            )));
        }
        let truncation = info.truncation_version;
        // Crash site: lease checked, nothing recovered yet — a retried
        // revive must start over cleanly.
        config.faults.hit(fault_site::REVIVE_POST_LEASE)?;

        // Find the best recoverable state at or below the truncation
        // version across the old incarnation's per-node uploads.
        let mut best: Option<(CatalogState, TxnVersion)> = None;
        for old_node in &info.nodes {
            let probe = eon_catalog::CatalogStore::new(
                Arc::new(eon_storage::MemFs::new()),
                shared.clone(),
                &format!("{}/node{}", info.incarnation, old_node),
            );
            if let Ok((state, v)) = probe.recover_from_shared(truncation) {
                if best.as_ref().map(|(_, bv)| v > *bv).unwrap_or(true) {
                    best = Some((state, v));
                }
            }
        }
        let (state, version) = best
            .ok_or_else(|| EonError::Revive("no recoverable catalog on shared storage".into()))?;
        if version < truncation {
            return Err(EonError::Revive(format!(
                "best recoverable version {version} below truncation {truncation}"
            )));
        }

        // Fresh incarnation id (§3.5): uploads from the revived cluster
        // land in a distinct namespace.
        let new_incarnation = format!("inc{:08x}", now_ms as u32 ^ 0x5eed_cafe);
        let seed = now_ms | 1;
        let db = Self::assemble(shared.clone(), breaker, config, new_incarnation.clone(), seed);
        for i in 0..db.config.num_nodes {
            let node = db.commission_node(NodeId(i as u64));
            node.install_catalog(state.clone(), version);
            node.store.truncate_local(version, &state)?;
            db.membership.add(node);
        }

        // Rewire subscriptions to the revived node set: the old
        // subscriptions referenced the previous cluster's nodes.
        let coord = db.membership.leader().expect("revived cluster has nodes");
        let mut txn = coord.catalog.begin();
        let old_subs: Vec<Subscription> =
            coord.catalog.snapshot().subscriptions.values().cloned().collect();
        let new_ids = db.membership.up_ids();
        for s in old_subs {
            if !new_ids.contains(&s.node) {
                txn.push(CatalogOp::RemoveSubscription {
                    node: s.node,
                    shard: s.shard,
                });
            }
        }
        for op in rebalance_plan(&coord.catalog.snapshot(), &new_ids, db.config.k_safety) {
            let op = match op {
                CatalogOp::UpsertSubscription(mut s) => {
                    s.state = SubState::Active;
                    CatalogOp::UpsertSubscription(s)
                }
                other => other,
            };
            txn.push(op);
        }
        for node in &new_ids {
            txn.push(CatalogOp::UpsertSubscription(Subscription {
                node: *node,
                shard: db.replica_shard(),
                state: SubState::Active,
            }));
        }
        db.commit_cluster(txn, &coord)?;

        // Crash site: cluster rebuilt in memory but the committing
        // `cluster_info` write never happens — the old info (and
        // its expired lease) still governs; a retried revive succeeds.
        db.config.faults.hit(fault_site::REVIVE_PRE_INFO_WRITE)?;

        // Commit point of revive: the new cluster_info (§3.5).
        let new_info = ClusterInfo {
            truncation_version: db.version(),
            incarnation: new_incarnation,
            database: db.config.database.clone(),
            timestamp_ms: now_ms,
            lease_until_ms: now_ms + crate::maintenance::LEASE_MS,
            nodes: new_ids.iter().map(|n| n.0).collect(),
        };
        new_info.write(shared.as_ref())?;
        Ok(db)
    }
}
