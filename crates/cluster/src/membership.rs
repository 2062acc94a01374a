//! Cluster membership and viability (paper §3.4).
//!
//! "To form a cluster, Vertica needs a quorum of nodes, all the shards
//! to be represented by nodes with subscriptions that were ACTIVE …
//! If sufficient nodes fail such that the constraints are violated
//! during cluster operation, the cluster will shut down automatically
//! to avoid divergence or wrong answers."

use std::collections::HashMap;
use std::sync::Arc;

use eon_catalog::CatalogState;
use eon_types::{EonError, NodeId, Result};
use parking_lot::RwLock;

use crate::node::NodeRuntime;

/// The set of commissioned nodes, keyed by id.
#[derive(Default)]
pub struct Membership {
    nodes: RwLock<HashMap<NodeId, Arc<NodeRuntime>>>,
}

impl Membership {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&self, node: Arc<NodeRuntime>) {
        self.nodes.write().insert(node.id, node);
    }

    pub fn remove(&self, id: NodeId) -> Option<Arc<NodeRuntime>> {
        self.nodes.write().remove(&id)
    }

    pub fn get(&self, id: NodeId) -> Option<Arc<NodeRuntime>> {
        self.nodes.read().get(&id).cloned()
    }

    pub fn all(&self) -> Vec<Arc<NodeRuntime>> {
        let mut v: Vec<_> = self.nodes.read().values().cloned().collect();
        v.sort_by_key(|n| n.id);
        v
    }

    pub fn up_nodes(&self) -> Vec<Arc<NodeRuntime>> {
        self.all().into_iter().filter(|n| n.is_up()).collect()
    }

    pub fn up_ids(&self) -> Vec<NodeId> {
        self.up_nodes().iter().map(|n| n.id).collect()
    }

    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.read().is_empty()
    }

    /// Quorum: strictly more than half of commissioned nodes are up.
    pub fn has_quorum(&self) -> bool {
        let total = self.len();
        total > 0 && self.up_nodes().len() * 2 > total
    }

    /// Full §3.4 viability check: quorum + every shard served by an
    /// ACTIVE subscriber that is up. Err describes the violation.
    pub fn check_viable(&self, catalog: &CatalogState) -> Result<()> {
        if !self.has_quorum() {
            return Err(EonError::ClusterDown(format!(
                "quorum lost: {}/{} nodes up",
                self.up_nodes().len(),
                self.len()
            )));
        }
        let up = self.up_ids();
        if !catalog.shards_covered(&up) {
            return Err(EonError::ClusterDown(
                "some shard has no up ACTIVE subscriber".into(),
            ));
        }
        Ok(())
    }

    /// The node with the lowest id among up nodes — the deterministic
    /// "elected leader" used for truncation-version writing (§3.5).
    pub fn leader(&self) -> Option<Arc<NodeRuntime>> {
        self.up_nodes().into_iter().min_by_key(|n| n.id)
    }

    /// Cluster-wide minimum query version for §6.5 deletion decisions.
    /// `None` when **zero nodes are up**: during a full outage nobody
    /// can vouch that no query holds an old version (a restarting node
    /// may resume one), so the reaper must skip the pass rather than
    /// treat the cluster as quiescent. With up-but-idle nodes the value
    /// is `Some(u64::MAX)` — a genuine "nothing held" attestation.
    pub fn min_query_version(&self) -> Option<u64> {
        self.up_nodes()
            .iter()
            .map(|n| n.min_query_version())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_catalog::{CatalogOp, ShardDef, ShardKind, SubState, Subscription};
    use eon_storage::{MemFs, SharedFs};
    use eon_types::{HashRange, ShardId, TxnVersion};

    fn mk_membership(n: u64) -> Membership {
        let m = Membership::new();
        let shared: SharedFs = Arc::new(MemFs::new());
        for i in 0..n {
            m.add(NodeRuntime::new(NodeId(i), shared.clone(), "inc", 1 << 20, 4, 7, &Default::default()));
        }
        m
    }

    fn covered_state(shard_count: usize, nodes: &[u64]) -> CatalogState {
        let mut st = CatalogState::default();
        let defs: Vec<ShardDef> = HashRange::split_even(shard_count)
            .into_iter()
            .enumerate()
            .map(|(i, range)| ShardDef {
                id: ShardId(i as u64),
                kind: ShardKind::Segment,
                range,
            })
            .collect();
        st.apply(&CatalogOp::DefineShards(defs), TxnVersion(1)).unwrap();
        for (i, _) in (0..shard_count).enumerate() {
            for &n in nodes {
                st.apply(
                    &CatalogOp::UpsertSubscription(Subscription {
                        node: NodeId(n),
                        shard: ShardId(i as u64),
                        state: SubState::Active,
                    }),
                    TxnVersion(2),
                )
                .unwrap();
            }
        }
        st
    }

    #[test]
    fn quorum_thresholds() {
        let m = mk_membership(4);
        assert!(m.has_quorum());
        m.get(NodeId(0)).unwrap().kill();
        assert!(m.has_quorum()); // 3/4
        m.get(NodeId(1)).unwrap().kill();
        assert!(!m.has_quorum()); // 2/4 is not a majority
    }

    #[test]
    fn viability_needs_shard_coverage() {
        let m = mk_membership(2);
        // Shards only subscribed by node 0.
        let st = covered_state(2, &[0]);
        assert!(m.check_viable(&st).is_ok());
        m.get(NodeId(0)).unwrap().kill();
        // Quorum still fails (1/2); and coverage fails too.
        assert!(m.check_viable(&st).is_err());
    }

    #[test]
    fn leader_is_lowest_up_node() {
        let m = mk_membership(3);
        assert_eq!(m.leader().unwrap().id, NodeId(0));
        m.get(NodeId(0)).unwrap().kill();
        assert_eq!(m.leader().unwrap().id, NodeId(1));
    }

    #[test]
    fn min_query_version_across_cluster() {
        let m = mk_membership(2);
        // Up-but-idle nodes attest "nothing held".
        assert_eq!(m.min_query_version(), Some(u64::MAX));
        m.get(NodeId(1)).unwrap().begin_query(TxnVersion(4));
        assert_eq!(m.min_query_version(), Some(4));
        // Full outage: no attestation at all — the reaper must skip.
        m.get(NodeId(0)).unwrap().kill();
        m.get(NodeId(1)).unwrap().kill();
        assert_eq!(m.min_query_version(), None);
    }

    #[test]
    fn remove_and_len() {
        let m = mk_membership(2);
        assert_eq!(m.len(), 2);
        assert!(m.remove(NodeId(0)).is_some());
        assert_eq!(m.len(), 1);
        assert!(m.get(NodeId(0)).is_none());
    }
}
