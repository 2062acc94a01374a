//! Self-healing supervisor (DESIGN.md "Failure detection & degraded
//! modes").
//!
//! Vertica's Eon mode keeps serving through node failures because shard
//! *subscriptions*, not data placement, define responsibility (§3.3,
//! §6.1): when a node dies, the survivors already hold every shard's
//! data on shared storage — the cluster only has to rewire
//! subscriptions so the remaining nodes cover the dead node's shards.
//! This module automates that repair loop:
//!
//! 1. **Detect** — a deterministic tick-driven
//!    [`eon_cluster::FailureDetector`] probes node liveness; `SUSPECT`
//!    after `health.suspect_after` missed beats, `DOWN` after
//!    `health.down_after`, with hysteresis so a flapping node is
//!    declared down once instead of thrashing the rebalancer.
//! 2. **Take over** — a `DOWN` declaration schedules a repair pass:
//!    [`eon_shard::rebalance_plan`] over the surviving nodes creates
//!    PENDING subscriptions restoring shard coverage and k-safety, and
//!    the survivors promote them ACTIVE. Subscriptions belonging to a
//!    commissioned-but-down node are never dropped by the supervisor —
//!    the node is expected back (decommissioning is `remove_node`'s
//!    job), and its subscriptions re-activate through the §3.3
//!    re-subscription path on restart.
//! 3. **Re-admit** — a node that stays down `supervisor_restart_ticks`
//!    ticks is restarted through the existing [`EonDb::restart_node`]
//!    path (catalog catch-up, re-subscription, cache warm), and a
//!    follow-up repair pass trims the takeover surplus so the layout
//!    converges back to the ring.
//!
//! Everything is counted in ticks and operations — no wall clock — so
//! the same kill/flap schedule yields a byte-identical detection trace
//! and repair sequence (the repo's determinism rules).

use std::collections::HashMap;
use std::fmt;

use eon_catalog::{CatalogOp, SubState, Subscription};
use eon_cluster::{FailureDetector, HealthEvent, HealthTransition, NodeHealth};
use eon_types::{EonError, NodeId, Result};

use crate::config::EonConfig;
use crate::db::EonDb;

/// Cluster-health state machine, most to least healthy. Computed on
/// demand from viability (§3.4), breaker state, and node liveness;
/// enforced at the admission front doors ([`EonDb::admit_read`] /
/// [`EonDb::admit_write`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterHealth {
    /// Every commissioned node up, storage answering.
    Healthy,
    /// Quorum and shard coverage hold but some node is down — service
    /// continues on the survivors.
    Degraded { reason: String },
    /// Shared storage is browned out (circuit breaker open): depot-only
    /// reads still serve; writes fast-fail with `StoreUnavailable`.
    ReadOnly { reason: String },
    /// Lost quorum or shard coverage — nothing can be served (§3.4).
    Down { reason: String },
}

impl fmt::Display for ClusterHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterHealth::Healthy => write!(f, "HEALTHY"),
            ClusterHealth::Degraded { reason } => write!(f, "DEGRADED ({reason})"),
            ClusterHealth::ReadOnly { reason } => write!(f, "READ-ONLY ({reason})"),
            ClusterHealth::Down { reason } => write!(f, "DOWN ({reason})"),
        }
    }
}

/// What one supervisor tick observed and did.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Detector tick this report belongs to.
    pub tick: u64,
    /// Health transitions declared this tick.
    pub events: Vec<HealthEvent>,
    /// Subscription-repair catalog ops committed this tick.
    pub takeover_ops: usize,
    /// Nodes auto-restarted through the `restart_node` path.
    pub restarted: Vec<NodeId>,
    /// Non-fatal repair errors; the supervisor retries next tick.
    pub errors: Vec<String>,
}

impl SupervisorReport {
    /// Did this tick change anything (declare, repair, or restart)?
    pub fn acted(&self) -> bool {
        !self.events.is_empty() || self.takeover_ops > 0 || !self.restarted.is_empty()
    }
}

/// Mutable supervisor state behind `EonDb`'s mutex.
pub struct SupervisorState {
    pub(crate) detector: FailureDetector,
    /// Tick at which each currently-down node was declared DOWN.
    down_since: HashMap<NodeId, u64>,
    /// A repair pass is owed (set by DOWN/RECOVERED declarations and
    /// restarts; cleared when a pass commits nothing).
    needs_rebalance: bool,
    restart_ticks: u64,
}

impl SupervisorState {
    pub(crate) fn new(config: &EonConfig) -> Self {
        SupervisorState {
            detector: FailureDetector::new(config.health.clone()),
            down_since: HashMap::new(),
            needs_rebalance: false,
            restart_ticks: config.supervisor_restart_ticks,
        }
    }
}

impl EonDb {
    /// Where the cluster stands right now. Ordered: loss of quorum or
    /// shard coverage dominates a storage brownout dominates a down
    /// node.
    pub fn cluster_health(&self) -> ClusterHealth {
        // A divergence halt (§3.4) dominates everything: nodes disagree
        // on metadata, so no answer can be trusted until revive.
        if let Some(reason) = self.halted.lock().clone() {
            return ClusterHealth::Down { reason };
        }
        if let Err(e) = self.ensure_viable() {
            let reason = match e {
                EonError::ClusterDown(r) => r,
                other => other.to_string(),
            };
            return ClusterHealth::Down { reason };
        }
        if let Some(b) = &self.breaker {
            if b.is_open() {
                return ClusterHealth::ReadOnly {
                    reason: "shared-storage circuit breaker open".into(),
                };
            }
        }
        let total = self.membership.len();
        let up = self.membership.up_nodes().len();
        if up < total {
            return ClusterHealth::Degraded {
                reason: format!("{up}/{total} nodes up"),
            };
        }
        ClusterHealth::Healthy
    }

    /// Read-admission front door: queries are served unless the cluster
    /// is down (§3.4). Degraded and read-only states still serve reads
    /// — that is the point of the depot and of k-safety.
    pub(crate) fn admit_read(&self) -> Result<()> {
        if let ClusterHealth::Down { reason } = self.cluster_health() {
            return Err(EonError::ClusterDown(reason));
        }
        Ok(())
    }

    /// Write-admission front door: typed fast-fail instead of deep
    /// failover errors. A down cluster rejects with `ClusterDown`; an
    /// open breaker rejects with `StoreUnavailable` *through the
    /// breaker* so fast-fails advance its cooldown and the post-cooldown
    /// admission proceeds as the half-open probe.
    pub(crate) fn admit_write(&self) -> Result<()> {
        if let ClusterHealth::Down { reason } = self.cluster_health() {
            return Err(EonError::ClusterDown(reason));
        }
        if let Some(b) = &self.breaker {
            b.admit()?;
        }
        Ok(())
    }

    /// One heartbeat of the self-healing loop: probe liveness, declare
    /// transitions, run at most one subscription-repair pass, and
    /// auto-restart nodes down long enough. Deterministic: the same
    /// kill/flap schedule against the same tick cadence produces the
    /// same report sequence and detection trace.
    pub fn supervise_tick(&self) -> SupervisorReport {
        let mut st = self.supervisor.lock();
        let events = st.detector.tick(&self.membership);
        let tick = st.detector.ticks();
        let mut report = SupervisorReport {
            tick,
            events: events.clone(),
            ..Default::default()
        };

        for e in &events {
            match e.transition {
                HealthTransition::Down => {
                    st.down_since.insert(e.node, e.tick);
                    st.needs_rebalance = true;
                }
                HealthTransition::Recovered => {
                    st.down_since.remove(&e.node);
                    st.needs_rebalance = true;
                }
                HealthTransition::Suspect => {}
            }
        }

        // Auto re-admission: a node down long enough gets the full
        // §3.3 restart path (recover local log, catch up, re-subscribe,
        // warm cache). "Already up" just means it raced a manual
        // restart or flapped back — the detector will declare recovery.
        if st.restart_ticks > 0 {
            let due: Vec<NodeId> = st
                .down_since
                .iter()
                .filter(|(_, since)| tick.saturating_sub(**since) >= st.restart_ticks)
                .map(|(id, _)| *id)
                .collect();
            for id in sorted(due) {
                match self.restart_node(id) {
                    Ok(_) => {
                        st.down_since.remove(&id);
                        st.needs_rebalance = true;
                        report.restarted.push(id);
                        self.config
                            .obs
                            .counter("supervisor_restarts_total", &[("subsystem", "supervisor")])
                            .inc();
                    }
                    Err(EonError::Internal(msg)) if msg.contains("already up") => {
                        st.down_since.remove(&id);
                    }
                    Err(e) => report.errors.push(format!("restart {id}: {e}")),
                }
            }
        }

        // Subscription takeover: one repair pass per tick until a pass
        // has nothing left to do.
        if st.needs_rebalance {
            match self.repair_subscriptions() {
                Ok(0) => st.needs_rebalance = false,
                Ok(n) => {
                    report.takeover_ops += n;
                    self.config
                        .obs
                        .counter("supervisor_takeover_ops_total", &[("subsystem", "supervisor")])
                        .add(n as u64);
                }
                Err(e) => report.errors.push(format!("repair: {e}")),
            }
        }
        report
    }

    /// Detector view of one node (tests and operators).
    pub fn node_health(&self, id: NodeId) -> NodeHealth {
        self.supervisor.lock().detector.health(id)
    }

    /// The deterministic detection trace: one line per declared
    /// transition, `t<tick> <node> SUSPECT|DOWN|RECOVERED`.
    pub fn health_trace(&self) -> String {
        self.supervisor.lock().detector.trace_text()
    }

    /// Ticks the detector has run.
    pub fn supervisor_ticks(&self) -> u64 {
        self.supervisor.lock().detector.ticks()
    }

    /// One subscription-repair pass over the surviving nodes. Returns
    /// the number of catalog ops committed (0 = converged). The raw
    /// `rebalance_plan` is filtered:
    ///
    /// * never drop (or mark REMOVING) a subscription of a
    ///   commissioned-but-down node — it is expected back;
    /// * never drop replica-shard subscriptions — every node keeps its
    ///   replicated-projection subscription for its whole life
    ///   (`remove_node` is the only decommission path).
    ///
    /// Surplus on *up* nodes (takeover subscriptions made redundant by
    /// a rejoining node) is trimmed normally, so repeated passes
    /// converge back to the ring layout.
    pub(crate) fn repair_subscriptions(&self) -> Result<usize> {
        let up_ids = self.membership.up_ids();
        let coord = self
            .membership
            .up_nodes()
            .into_iter()
            .next()
            .ok_or_else(|| EonError::ClusterDown("no nodes up".into()))?;
        let replica = self.replica_shard();
        let snapshot = coord.catalog.snapshot();
        let ops: Vec<CatalogOp> =
            eon_shard::rebalance_plan(&snapshot, &up_ids, self.config.k_safety)
                .into_iter()
                .filter(|op| match op {
                    CatalogOp::UpsertSubscription(Subscription {
                        node,
                        shard,
                        state: SubState::Removing,
                    }) => *shard != replica && up_ids.contains(node),
                    CatalogOp::RemoveSubscription { node, shard } => {
                        *shard != replica && up_ids.contains(node)
                    }
                    _ => true,
                })
                .collect();
        if ops.is_empty() {
            return Ok(0);
        }
        let n = ops.len();
        let mut txn = coord.catalog.begin();
        for op in ops {
            txn.push(op);
        }
        self.commit_cluster(txn, &coord)?;
        for id in sorted(up_ids) {
            self.promote_subscriptions(id, &coord)?;
        }
        Ok(n)
    }
}

/// Deterministic iteration order for repair and restart passes.
fn sorted(mut ids: Vec<NodeId>) -> Vec<NodeId> {
    ids.sort();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_storage::MemFs;
    use std::sync::Arc;

    fn db(config: EonConfig) -> Arc<EonDb> {
        EonDb::create(Arc::new(MemFs::new()), config).unwrap()
    }

    #[test]
    fn healthy_cluster_reports_healthy_and_ticks_do_nothing() {
        let db = db(EonConfig::new(3, 3));
        assert_eq!(db.cluster_health(), ClusterHealth::Healthy);
        for _ in 0..5 {
            let r = db.supervise_tick();
            assert!(!r.acted(), "healthy cluster must not trigger repair: {r:?}");
        }
        assert!(db.health_trace().is_empty());
    }

    #[test]
    fn dead_node_is_detected_taken_over_and_restarted() {
        // down after 2 ticks, restart after 2 more.
        let db = db(EonConfig::new(3, 3)
            .health_ticks(1, 2, 1)
            .supervisor_restart_ticks(2));
        db.kill_node(eon_types::NodeId(2)).unwrap();
        let mut restarted = false;
        for _ in 0..8 {
            let r = db.supervise_tick();
            restarted |= !r.restarted.is_empty();
        }
        assert!(restarted, "supervisor never restarted the dead node");
        assert!(
            db.membership().get(eon_types::NodeId(2)).unwrap().is_up(),
            "node 2 should be back up"
        );
        // Detection trace shows DOWN then RECOVERED for node 2.
        let trace = db.health_trace();
        assert!(trace.contains("node2 DOWN"), "trace: {trace}");
        assert!(trace.contains("node2 RECOVERED"), "trace: {trace}");
        assert_eq!(db.cluster_health(), ClusterHealth::Healthy);
        db.ensure_viable().unwrap();
    }

    #[test]
    fn takeover_restores_coverage_without_restart() {
        // Auto-restart off: the takeover alone must restore coverage.
        let db = db(EonConfig::new(3, 3)
            .health_ticks(1, 2, 1)
            .supervisor_restart_ticks(0));
        db.kill_node(eon_types::NodeId(0)).unwrap();
        for _ in 0..6 {
            db.supervise_tick();
        }
        let snap = db.snapshot().unwrap();
        // Every segment shard has k+1 ACTIVE subscribers among the
        // survivors (the dead node's subscriptions don't count).
        let up = db.membership().up_ids();
        for s in db.segment_shards() {
            let cover = snap
                .subscribers_in(s, eon_catalog::SubState::Active)
                .into_iter()
                .filter(|n| up.contains(n))
                .count();
            assert!(
                cover > db.config().k_safety,
                "shard {s} covered by {cover} survivors"
            );
        }
        // The dead node's subscriptions were not dropped.
        assert!(
            !snap.subscriptions_of(eon_types::NodeId(0)).is_empty(),
            "down node keeps its subscriptions"
        );
        matches!(db.cluster_health(), ClusterHealth::Degraded { .. });
    }

    #[test]
    fn down_cluster_rejects_with_typed_cluster_down() {
        let db = db(EonConfig::new(3, 3));
        for n in db.membership().all() {
            n.kill();
        }
        assert!(matches!(db.cluster_health(), ClusterHealth::Down { .. }));
        assert!(matches!(db.admit_read(), Err(EonError::ClusterDown(_))));
        assert!(matches!(db.admit_write(), Err(EonError::ClusterDown(_))));
    }

    #[test]
    fn same_schedule_same_trace_and_reports() {
        let run = || {
            let db = db(EonConfig::new(3, 3)
                .health_ticks(1, 2, 1)
                .supervisor_restart_ticks(2));
            let mut acted = Vec::new();
            for t in 0..10 {
                if t == 1 {
                    db.kill_node(eon_types::NodeId(1)).unwrap();
                }
                let r = db.supervise_tick();
                acted.push((r.tick, r.events.len(), r.takeover_ops, r.restarted.len()));
            }
            (db.health_trace(), acted)
        };
        assert_eq!(run(), run());
    }
}
