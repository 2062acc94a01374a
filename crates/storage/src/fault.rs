//! Deterministic crash-point fault injection.
//!
//! The paper's operational stance is that a node can die at *any*
//! instant: mid-upload, between a file upload and the catalog commit,
//! halfway through a metadata sync, or during revive (§3.5, §4.1,
//! §6.5). Clean request failures (see [`crate::S3SimFs`]) cannot
//! produce those states — a request either fails before it happens or
//! succeeds entirely. Crash *sites* can: named hooks threaded through
//! every commit path, driven by a seeded [`FaultPlan`] that decides,
//! reproducibly, at which site (and for node-scoped sites, on which
//! node) the process "dies".
//!
//! A firing site returns [`EonError::FaultInjected`], which is **not**
//! transient — retry loops must not swallow a crash — so the failure
//! propagates out of the operation exactly where a real process death
//! would cut it off, leaving whatever partial state (orphaned uploads,
//! stale `cluster_info`, un-dropped mergeout inputs) the paper's
//! recovery machinery has to clean up. The chaos harness then
//! restarts/revives and checks the §3.5/§6.5 invariants.
//!
//! Plans are one-shot: once fired, a plan disarms, so recovery code
//! running after the "crash" does not crash again (a restarted process
//! is a new process).

use std::collections::BTreeMap;
use std::sync::Arc;

use eon_types::{EonError, Result};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Named crash sites. Adding a site means instrumenting a commit path
/// and adding it here so seeded plans and the coverage suite see it.
pub mod site {
    /// COPY: before any container is written (nothing uploaded yet).
    pub const LOAD_PRE_UPLOAD: &str = "load.pre_upload";
    /// COPY: before each individual container upload (hit per
    /// container; the plan's occurrence index picks which one).
    pub const LOAD_UPLOAD: &str = "load.upload";
    /// COPY: all files on shared storage, catalog commit not yet run —
    /// the classic orphaned-upload crash (§3.5: committed transactions
    /// never lose files *because* data lands before commit).
    pub const LOAD_PRE_COMMIT: &str = "load.pre_commit";
    /// DELETE: before each delete-vector upload.
    pub const DML_UPLOAD: &str = "dml.upload";
    /// DELETE: delete vectors uploaded, commit not yet run.
    pub const DML_PRE_COMMIT: &str = "dml.pre_commit";
    /// Mergeout: before the merged container is written.
    pub const MERGEOUT_PRE_WRITE: &str = "mergeout.pre_write";
    /// Mergeout: merged container uploaded, the Add+Drop commit not yet
    /// run — old containers still live, new file orphaned (§6.5).
    pub const MERGEOUT_PRE_COMMIT: &str = "mergeout.pre_commit";
    /// Catalog: before a checkpoint is written locally.
    pub const CKPT_PRE_WRITE: &str = "catalog.ckpt.pre_write";
    /// Catalog sync: before any file is uploaded to shared storage.
    pub const SYNC_PRE_UPLOAD: &str = "catalog.sync.pre_upload";
    /// Catalog sync: before each individual checkpoint/log upload
    /// (hit per file; crashes leave a partially synced interval).
    pub const SYNC_MID_UPLOAD: &str = "catalog.sync.mid_upload";
    /// Metadata sync: catalogs uploaded, `cluster_info` not yet
    /// rewritten — the consensus truncation is stale (§3.5).
    pub const SYNC_PRE_INFO_WRITE: &str = "sync.pre_info_write";
    /// Revive: lease checked, nothing recovered yet.
    pub const REVIVE_POST_LEASE: &str = "revive.post_lease";
    /// Revive: cluster rebuilt in memory, the committing
    /// `cluster_info` write not yet done (§3.5's revive commit
    /// point).
    pub const REVIVE_PRE_INFO_WRITE: &str = "revive.pre_info_write";
    /// Query: a participant dies during its local phase (§4.1). Node-
    /// scoped: seeded plans pick the victim node id.
    pub const QUERY_WORKER_LOCAL: &str = "query.worker.local";
    /// Query: a participant's worker thread *panics* during its local
    /// phase (a bug, not a process death). The join must contain it as
    /// a typed error so the coordinator fails over instead of the
    /// whole process aborting.
    pub const QUERY_WORKER_PANIC: &str = "query.worker.panic";

    // Commit-protocol sites. Every commit runs the one commit
    // protocol, so every commit passes all four. Deliberately NOT in
    // [`SITES`], which stays exactly as it is so seeded plans keep
    // picking the same sites: a fired crash site here models the
    // coordinator process dying, which loses every in-memory catalog
    // at once and needs `cold_restart_all` — the
    // generic per-site recovery loop
    // (`every_named_site_crashes_and_recovers`) does not perform it —
    // and `COMMIT_PEER_APPEND` models a peer disk failure (classified
    // as metadata divergence), not a process death that loop can retry
    // through. The commit chaos schedule arms them from its own list.

    /// A peer's durable log append fails after it applied the record
    /// in memory — §3.4 metadata divergence, never a crash. Node-scoped:
    /// the plan picks the failing peer.
    pub const COMMIT_PEER_APPEND: &str = "commit.peer_append";
    /// The coordinator dies after committing the statement in memory,
    /// before its durable append — nothing is durable.
    pub const COMMIT_LEADER_APPEND: &str = "commit.leader_append";
    /// The coordinator dies mid-distribution, after its durable append
    /// but before this peer's — the record is durable, the peer
    /// catches up on restart (§3.3). Node-scoped.
    pub const COMMIT_MID_DISTRIBUTION: &str = "commit.mid_distribution";
    /// The coordinator dies after every durable append, before the
    /// statement returns — the record is fully durable but the
    /// statement observes a crash.
    pub const COMMIT_POST_APPEND: &str = "commit.post_append";
}

/// Every named crash site, for seeded plans and coverage sweeps.
pub const SITES: &[&str] = &[
    site::LOAD_PRE_UPLOAD,
    site::LOAD_UPLOAD,
    site::LOAD_PRE_COMMIT,
    site::DML_UPLOAD,
    site::DML_PRE_COMMIT,
    site::MERGEOUT_PRE_WRITE,
    site::MERGEOUT_PRE_COMMIT,
    site::CKPT_PRE_WRITE,
    site::SYNC_PRE_UPLOAD,
    site::SYNC_MID_UPLOAD,
    site::SYNC_PRE_INFO_WRITE,
    site::REVIVE_POST_LEASE,
    site::REVIVE_PRE_INFO_WRITE,
    site::QUERY_WORKER_LOCAL,
    site::QUERY_WORKER_PANIC,
];

/// Shared handle to a fault plan. Cloned into every layer that hosts a
/// crash site; an inert plan costs one mutex lock per site hit.
pub type FaultInjector = Arc<FaultPlan>;

/// A crash that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: String,
    /// Which occurrence of the site fired (0-based).
    pub occurrence: u64,
    /// Node id for node-scoped sites, if the hit carried one.
    pub node: Option<u64>,
}

#[derive(Debug, Clone)]
struct Armed {
    site: String,
    /// Fire on the nth (0-based) occurrence of the site.
    nth: u64,
    /// For node-scoped hits: only this node dies. `None` = any node.
    node: Option<u64>,
}

#[derive(Default)]
struct Inner {
    armed: Option<Armed>,
    /// Occurrence counters, keyed by site (node-scoped hits count per
    /// `site@node` so the victim's occurrence index is deterministic
    /// even when several workers hit the site concurrently).
    counts: BTreeMap<String, u64>,
    fired: Vec<FaultEvent>,
}

/// A deterministic, one-shot crash schedule.
pub struct FaultPlan {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("FaultPlan")
            .field("armed", &g.armed)
            .field("fired", &g.fired)
            .finish()
    }
}

impl FaultPlan {
    /// A plan that never fires. The default everywhere.
    pub fn inert() -> FaultInjector {
        Arc::new(FaultPlan {
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Crash on the `nth` (0-based) occurrence of `site`, any node.
    pub fn at(site: &str, nth: u64) -> FaultInjector {
        Self::armed(site, nth, None)
    }

    /// Crash on the `nth` occurrence of `site` on node `node` (only
    /// meaningful for node-scoped sites; others ignore the filter).
    pub fn at_node(site: &str, nth: u64, node: u64) -> FaultInjector {
        Self::armed(site, nth, Some(node))
    }

    fn armed(site: &str, nth: u64, node: Option<u64>) -> FaultInjector {
        Arc::new(FaultPlan {
            inner: Mutex::new(Inner {
                armed: Some(Armed {
                    site: site.to_owned(),
                    nth,
                    node,
                }),
                ..Inner::default()
            }),
        })
    }

    /// A seeded plan: deterministically pick one site from `sites`, an
    /// occurrence index, and (for node-scoped sites) a victim node in
    /// `0..nodes`. Same seed ⇒ same crash schedule, always.
    pub fn seeded(seed: u64, sites: &[&str], nodes: u64) -> FaultInjector {
        let mut rng = StdRng::seed_from_u64(seed);
        let site = sites[rng.gen_range(0..sites.len())];
        let nth = rng.gen_range(0..3u64);
        let node = rng.gen_range(0..nodes.max(1));
        Self::armed(site, nth, Some(node))
    }

    /// Re-arm a (shared) plan in place: lets a test bring a database up
    /// quietly and then schedule a crash for the operation under test.
    /// Occurrence counters reset, so `nth` counts from this arming.
    pub fn rearm(&self, site: &str, nth: u64, node: Option<u64>) {
        let mut g = self.inner.lock();
        g.armed = Some(Armed {
            site: site.to_owned(),
            nth,
            node,
        });
        g.counts.clear();
    }

    /// Whether this plan can still fire.
    pub fn is_armed(&self) -> bool {
        self.inner.lock().armed.is_some()
    }

    /// The site this plan targets, if still armed.
    pub fn armed_site(&self) -> Option<String> {
        self.inner.lock().armed.as_ref().map(|a| a.site.clone())
    }

    /// Crashes that fired so far, in order.
    pub fn fired(&self) -> Vec<FaultEvent> {
        self.inner.lock().fired.clone()
    }

    /// Occurrence counters per site (node-scoped hits count under
    /// `site@node`). Test/coverage introspection.
    pub fn site_counts(&self) -> BTreeMap<String, u64> {
        self.inner.lock().counts.clone()
    }

    /// Pass a crash site with no node context. Returns
    /// [`EonError::FaultInjected`] exactly when the plan says this
    /// occurrence is where the process dies.
    pub fn hit(&self, site: &str) -> Result<()> {
        self.hit_inner(site, None)
    }

    /// Pass a node-scoped crash site. A plan armed with a node filter
    /// only fires on the matching node, so the victim is deterministic
    /// even when many workers pass the site concurrently.
    pub fn hit_node(&self, site: &str, node: u64) -> Result<()> {
        self.hit_inner(site, Some(node))
    }

    fn hit_inner(&self, site: &str, node: Option<u64>) -> Result<()> {
        let mut g = self.inner.lock();
        let key = match node {
            Some(n) => format!("{site}@{n}"),
            None => site.to_owned(),
        };
        let count = g.counts.entry(key).or_insert(0);
        let occurrence = *count;
        *count += 1;
        let fires = match &g.armed {
            Some(a) => {
                a.site == site
                    && occurrence == a.nth
                    && match (a.node, node) {
                        // A node filter only constrains node-scoped hits.
                        (Some(want), Some(got)) => want == got,
                        _ => true,
                    }
            }
            None => false,
        };
        if fires {
            g.armed = None; // one-shot: the restarted process is new
            g.fired.push(FaultEvent {
                site: site.to_owned(),
                occurrence,
                node,
            });
            return Err(EonError::FaultInjected(site.to_owned()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::inert();
        for _ in 0..100 {
            p.hit(site::LOAD_PRE_COMMIT).unwrap();
        }
        assert!(p.fired().is_empty());
        assert!(!p.is_armed());
    }

    #[test]
    fn fires_on_nth_occurrence_then_disarms() {
        let p = FaultPlan::at(site::LOAD_UPLOAD, 2);
        p.hit(site::LOAD_UPLOAD).unwrap(); // 0
        p.hit(site::LOAD_PRE_COMMIT).unwrap(); // other site
        p.hit(site::LOAD_UPLOAD).unwrap(); // 1
        let err = p.hit(site::LOAD_UPLOAD).unwrap_err(); // 2 → fire
        assert!(matches!(err, EonError::FaultInjected(_)));
        assert!(!err.is_transient(), "crashes must not be retried away");
        // Disarmed: recovery re-runs the same path without crashing.
        p.hit(site::LOAD_UPLOAD).unwrap();
        assert_eq!(p.fired().len(), 1);
        assert_eq!(p.fired()[0].occurrence, 2);
    }

    #[test]
    fn node_filter_picks_the_victim() {
        let p = FaultPlan::at_node(site::QUERY_WORKER_LOCAL, 0, 2);
        p.hit_node(site::QUERY_WORKER_LOCAL, 0).unwrap();
        p.hit_node(site::QUERY_WORKER_LOCAL, 1).unwrap();
        assert!(p.hit_node(site::QUERY_WORKER_LOCAL, 2).is_err());
        assert_eq!(p.fired()[0].node, Some(2));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..50u64 {
            let a = FaultPlan::seeded(seed, SITES, 3);
            let b = FaultPlan::seeded(seed, SITES, 3);
            assert_eq!(a.armed_site(), b.armed_site(), "seed {seed}");
        }
        // Different seeds cover more than one site.
        let distinct: std::collections::HashSet<_> = (0..50u64)
            .filter_map(|s| FaultPlan::seeded(s, SITES, 3).armed_site())
            .collect();
        assert!(distinct.len() > 3, "seed sweep stuck on {distinct:?}");
    }

    #[test]
    fn node_scoped_counts_are_per_node() {
        let p = FaultPlan::at_node(site::QUERY_WORKER_LOCAL, 1, 0);
        // Node 1 hitting twice must not advance node 0's counter.
        p.hit_node(site::QUERY_WORKER_LOCAL, 1).unwrap();
        p.hit_node(site::QUERY_WORKER_LOCAL, 1).unwrap();
        p.hit_node(site::QUERY_WORKER_LOCAL, 0).unwrap(); // occurrence 0
        assert!(p.hit_node(site::QUERY_WORKER_LOCAL, 0).is_err()); // 1 → fire
    }
}
