//! The in-memory catalog state and the op-apply machinery.
//!
//! Readers take `Arc<CatalogState>` snapshots — a consistent view that
//! keeps serving even while commits replace the current state
//! (multi-version concurrency control with copy-on-write, §2.4). Each
//! object carries the version that last modified it; OCC validation
//! (§6.3) compares those against a transaction's write set.

use std::collections::BTreeMap;

use eon_types::{EonError, NodeId, Oid, Result, ShardId, TxnVersion, Value};

use crate::objects::{
    CatalogOp, ContainerMeta, DeleteVectorMeta, ShardDef, SubState, Subscription, Table,
};

/// A complete catalog snapshot. Cloning is O(catalog size); commits
/// clone-then-mutate, which at metadata scale (thousands of objects) is
/// cheap and keeps reader snapshots immutable without locks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogState {
    pub shards: Vec<ShardDef>,
    pub tables: BTreeMap<Oid, Table>,
    pub containers: BTreeMap<Oid, ContainerMeta>,
    pub delete_vectors: BTreeMap<Oid, DeleteVectorMeta>,
    /// Keyed by (node, shard); at most one subscription per pair.
    pub subscriptions: BTreeMap<(NodeId, ShardId), Subscription>,
    pub mergeout_coord: BTreeMap<ShardId, NodeId>,
    /// Version that last modified each object (for OCC validation).
    pub obj_versions: BTreeMap<Oid, TxnVersion>,
}

impl CatalogState {
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.tables.values().find(|t| t.name == name)
    }

    /// All containers realizing `projection` in `shard`.
    pub fn containers_for(&self, projection: Oid, shard: ShardId) -> Vec<&ContainerMeta> {
        self.containers
            .values()
            .filter(|c| c.projection == projection && c.shard == shard)
            .collect()
    }

    /// All containers of a projection regardless of shard.
    pub fn containers_for_projection(&self, projection: Oid) -> Vec<&ContainerMeta> {
        self.containers
            .values()
            .filter(|c| c.projection == projection)
            .collect()
    }

    /// Delete vectors tombstoning `container`.
    pub fn delete_vectors_for(&self, container: Oid) -> Vec<&DeleteVectorMeta> {
        self.delete_vectors
            .values()
            .filter(|d| d.container == container)
            .collect()
    }

    /// Subscriptions of `node`, any state.
    pub fn subscriptions_of(&self, node: NodeId) -> Vec<&Subscription> {
        self.subscriptions
            .values()
            .filter(|s| s.node == node)
            .collect()
    }

    /// Nodes subscribed to `shard` in the given state.
    pub fn subscribers_in(&self, shard: ShardId, state: SubState) -> Vec<NodeId> {
        self.subscriptions
            .values()
            .filter(|s| s.shard == shard && s.state == state)
            .map(|s| s.node)
            .collect()
    }

    /// Nodes allowed to *serve* `shard` right now: ACTIVE or REMOVING
    /// (a REMOVING subscriber continues to serve queries until enough
    /// other subscribers exist, §3.3).
    pub fn serving_subscribers(&self, shard: ShardId) -> Vec<NodeId> {
        self.subscriptions
            .values()
            .filter(|s| {
                s.shard == shard && matches!(s.state, SubState::Active | SubState::Removing)
            })
            .map(|s| s.node)
            .collect()
    }

    /// Cluster viability (§3.4): every shard has at least one ACTIVE
    /// subscriber among `up_nodes`.
    pub fn shards_covered(&self, up_nodes: &[NodeId]) -> bool {
        self.shards.iter().all(|sh| {
            self.subscribers_in(sh.id, SubState::Active)
                .iter()
                .any(|n| up_nodes.contains(n))
        })
    }

    /// The segment shard count (excludes the replica shard).
    pub fn segment_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.kind, crate::objects::ShardKind::Segment))
            .count()
    }

    /// Object version lookup (ZERO when never recorded).
    pub fn version_of(&self, oid: Oid) -> TxnVersion {
        self.obj_versions.get(&oid).copied().unwrap_or(TxnVersion::ZERO)
    }

    /// Apply one op at commit version `v`. Errors leave `self` in a
    /// partially-applied state — callers apply to a scratch clone and
    /// discard on failure.
    pub fn apply(&mut self, op: &CatalogOp, v: TxnVersion) -> Result<()> {
        match op {
            CatalogOp::DefineShards(defs) => {
                if !self.shards.is_empty() {
                    return Err(EonError::Catalog("shards already defined".into()));
                }
                self.shards = defs.clone();
            }
            CatalogOp::CreateTable(t) => {
                if self.table_by_name(&t.name).is_some() {
                    return Err(EonError::Catalog(format!("table {} exists", t.name)));
                }
                let mut t = t.clone();
                if t.defaults.len() != t.schema.len() {
                    t.defaults = vec![Value::Null; t.schema.len()];
                }
                self.obj_versions.insert(t.oid, v);
                self.tables.insert(t.oid, t);
            }
            CatalogOp::DropTable(oid) => {
                self.tables
                    .remove(oid)
                    .ok_or_else(|| EonError::Catalog(format!("no table {oid}")))?;
                let dropped: Vec<Oid> = self
                    .containers
                    .values()
                    .filter(|c| c.table == *oid)
                    .map(|c| c.oid)
                    .collect();
                for c in dropped {
                    self.containers.remove(&c);
                    self.obj_versions.insert(c, v);
                }
                self.obj_versions.insert(*oid, v);
            }
            CatalogOp::AddProjection {
                table,
                oid,
                projection,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| EonError::Catalog(format!("no table {table}")))?;
                projection.validate(&t.schema)?;
                t.projections.push((*oid, projection.clone()));
                self.obj_versions.insert(*table, v);
                self.obj_versions.insert(*oid, v);
            }
            CatalogOp::AddColumn {
                table,
                field,
                default,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| EonError::Catalog(format!("no table {table}")))?;
                if t.schema.index_of(&field.name).is_ok() {
                    return Err(EonError::Catalog(format!(
                        "column {} already exists",
                        field.name
                    )));
                }
                t.schema.fields.push(field.clone());
                t.defaults.push(default.clone());
                let new_idx = t.schema.len() - 1;
                // All-columns projections absorb the new column.
                for (_, p) in &mut t.projections {
                    if p.columns.len() == new_idx {
                        p.columns.push(new_idx);
                    }
                }
                self.obj_versions.insert(*table, v);
            }
            CatalogOp::AddContainer(c) => {
                if self.containers.contains_key(&c.oid) {
                    return Err(EonError::Catalog(format!("container {} exists", c.oid)));
                }
                self.obj_versions.insert(c.oid, v);
                self.containers.insert(c.oid, c.clone());
            }
            CatalogOp::DropContainer(oid) => {
                self.containers
                    .remove(oid)
                    .ok_or_else(|| EonError::Catalog(format!("no container {oid}")))?;
                // Cascade: delete vectors against the container die too.
                let dvs: Vec<Oid> = self
                    .delete_vectors
                    .values()
                    .filter(|d| d.container == *oid)
                    .map(|d| d.oid)
                    .collect();
                for d in dvs {
                    self.delete_vectors.remove(&d);
                    self.obj_versions.insert(d, v);
                }
                self.obj_versions.insert(*oid, v);
            }
            CatalogOp::AddDeleteVector(d) => {
                if !self.containers.contains_key(&d.container) {
                    return Err(EonError::Catalog(format!(
                        "delete vector targets missing container {}",
                        d.container
                    )));
                }
                self.obj_versions.insert(d.oid, v);
                self.delete_vectors.insert(d.oid, d.clone());
            }
            CatalogOp::DropDeleteVector(oid) => {
                self.delete_vectors
                    .remove(oid)
                    .ok_or_else(|| EonError::Catalog(format!("no delete vector {oid}")))?;
                self.obj_versions.insert(*oid, v);
            }
            CatalogOp::UpsertSubscription(s) => {
                self.subscriptions.insert((s.node, s.shard), s.clone());
            }
            CatalogOp::RemoveSubscription { node, shard } => {
                self.subscriptions.remove(&(*node, *shard));
            }
            CatalogOp::SetMergeoutCoordinator { shard, node } => {
                self.mergeout_coord.insert(*shard, *node);
            }
        }
        Ok(())
    }

    /// Drop storage objects for shards *not* in `keep`: what a node does
    /// when unsubscribing (§3.3 "drops the relevant metadata for the
    /// shard"). Global objects are untouched.
    pub fn retain_shards(&mut self, keep: &[ShardId]) {
        self.containers.retain(|_, c| keep.contains(&c.shard));
        self.delete_vectors.retain(|_, d| keep.contains(&d.shard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::ShardKind;
    use eon_columnar::Projection;
    use eon_types::{schema, Field, HashRange};

    fn mk_table(oid: u64, name: &str) -> Table {
        let s = schema![("id", Int), ("val", Str)];
        Table {
            oid: Oid(oid),
            name: name.into(),
            schema: s.clone(),
            projections: vec![(Oid(oid * 100), Projection::super_projection("p", &s, &[0], &[0]))],
            defaults: vec![Value::Null, Value::Null],
        }
    }

    fn mk_container(oid: u64, proj: u64, shard: u64) -> ContainerMeta {
        ContainerMeta {
            oid: Oid(oid),
            key: format!("data/xx/{oid}"),
            table: Oid(1),
            projection: Oid(proj),
            shard: ShardId(shard),
            rows: 10,
            size_bytes: 100,
            col_minmax: vec![],
        }
    }

    fn shard_defs(n: u64) -> Vec<ShardDef> {
        HashRange::split_even(n as usize)
            .into_iter()
            .enumerate()
            .map(|(i, range)| ShardDef {
                id: ShardId(i as u64),
                kind: ShardKind::Segment,
                range,
            })
            .collect()
    }

    #[test]
    fn create_and_lookup_table() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::CreateTable(mk_table(1, "t1")), TxnVersion(1))
            .unwrap();
        assert!(st.table_by_name("t1").is_some());
        assert_eq!(st.version_of(Oid(1)), TxnVersion(1));
        // duplicate name rejected
        assert!(st
            .apply(&CatalogOp::CreateTable(mk_table(2, "t1")), TxnVersion(2))
            .is_err());
    }

    #[test]
    fn drop_table_cascades_containers() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::CreateTable(mk_table(1, "t1")), TxnVersion(1))
            .unwrap();
        st.apply(&CatalogOp::AddContainer(mk_container(50, 100, 0)), TxnVersion(2))
            .unwrap();
        st.apply(&CatalogOp::DropTable(Oid(1)), TxnVersion(3)).unwrap();
        assert!(st.containers.is_empty());
        assert!(st.tables.is_empty());
    }

    #[test]
    fn drop_container_cascades_delete_vectors() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::AddContainer(mk_container(50, 100, 0)), TxnVersion(1))
            .unwrap();
        st.apply(
            &CatalogOp::AddDeleteVector(DeleteVectorMeta {
                oid: Oid(60),
                key: "dv".into(),
                container: Oid(50),
                shard: ShardId(0),
                deleted_rows: 3,
            }),
            TxnVersion(2),
        )
        .unwrap();
        assert_eq!(st.delete_vectors_for(Oid(50)).len(), 1);
        st.apply(&CatalogOp::DropContainer(Oid(50)), TxnVersion(3))
            .unwrap();
        assert!(st.delete_vectors.is_empty());
    }

    #[test]
    fn delete_vector_requires_container() {
        let mut st = CatalogState::default();
        let dv = DeleteVectorMeta {
            oid: Oid(60),
            key: "dv".into(),
            container: Oid(999),
            shard: ShardId(0),
            deleted_rows: 1,
        };
        assert!(st.apply(&CatalogOp::AddDeleteVector(dv), TxnVersion(1)).is_err());
    }

    #[test]
    fn add_column_extends_schema_and_superprojections() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::CreateTable(mk_table(1, "t1")), TxnVersion(1))
            .unwrap();
        st.apply(
            &CatalogOp::AddColumn {
                table: Oid(1),
                field: Field::new("extra", eon_types::DataType::Int),
                default: Value::Int(0),
            },
            TxnVersion(2),
        )
        .unwrap();
        let t = st.table_by_name("t1").unwrap();
        assert_eq!(t.schema.len(), 3);
        assert_eq!(t.defaults[2], Value::Int(0));
        assert_eq!(t.projections[0].1.columns, vec![0, 1, 2]);
        // duplicate column rejected
        assert!(st
            .apply(
                &CatalogOp::AddColumn {
                    table: Oid(1),
                    field: Field::new("extra", eon_types::DataType::Int),
                    default: Value::Null,
                },
                TxnVersion(3),
            )
            .is_err());
    }

    #[test]
    fn subscription_lifecycle_and_queries() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::DefineShards(shard_defs(2)), TxnVersion(1))
            .unwrap();
        for (n, sh, state) in [
            (1, 0, SubState::Active),
            (2, 0, SubState::Pending),
            (2, 1, SubState::Active),
            (1, 1, SubState::Removing),
        ] {
            st.apply(
                &CatalogOp::UpsertSubscription(Subscription {
                    node: NodeId(n),
                    shard: ShardId(sh),
                    state,
                }),
                TxnVersion(2),
            )
            .unwrap();
        }
        assert_eq!(st.subscribers_in(ShardId(0), SubState::Active), vec![NodeId(1)]);
        assert_eq!(
            st.serving_subscribers(ShardId(1)),
            vec![NodeId(1), NodeId(2)]
        );
        assert!(st.shards_covered(&[NodeId(1), NodeId(2)]));
        // Without node 1, shard 0 loses its only ACTIVE subscriber.
        assert!(!st.shards_covered(&[NodeId(2)]));

        st.apply(
            &CatalogOp::RemoveSubscription {
                node: NodeId(2),
                shard: ShardId(0),
            },
            TxnVersion(3),
        )
        .unwrap();
        assert_eq!(st.subscriptions_of(NodeId(2)).len(), 1);
    }

    #[test]
    fn retain_shards_drops_foreign_storage() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::AddContainer(mk_container(50, 100, 0)), TxnVersion(1))
            .unwrap();
        st.apply(&CatalogOp::AddContainer(mk_container(51, 100, 1)), TxnVersion(1))
            .unwrap();
        st.retain_shards(&[ShardId(1)]);
        assert!(st.containers.contains_key(&Oid(51)));
        assert!(!st.containers.contains_key(&Oid(50)));
    }

    #[test]
    fn snapshot_isolation_via_clone() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::CreateTable(mk_table(1, "t1")), TxnVersion(1))
            .unwrap();
        let snapshot = st.clone();
        st.apply(&CatalogOp::DropTable(Oid(1)), TxnVersion(2)).unwrap();
        // Reader's snapshot still sees the table.
        assert!(snapshot.table_by_name("t1").is_some());
        assert!(st.table_by_name("t1").is_none());
    }

    #[test]
    fn define_shards_only_once() {
        let mut st = CatalogState::default();
        st.apply(&CatalogOp::DefineShards(shard_defs(2)), TxnVersion(1))
            .unwrap();
        assert!(st
            .apply(&CatalogOp::DefineShards(shard_defs(3)), TxnVersion(2))
            .is_err());
        assert_eq!(st.segment_shard_count(), 2);
    }
}
