//! Catalog object model and the operation (redo) language.
//!
//! Transaction logs "contain only metadata as the data files are
//! written prior to commit" (§2.4) — so a [`CatalogOp`] never carries
//! tuple data, only object descriptions and shared-storage keys.

use eon_columnar::Projection;
use eon_types::{EonError, HashRange, NodeId, Oid, Result, Schema, ShardId, Value};

/// Whether a shard holds segmented or replicated storage (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// Owns a region of the 32-bit hash space.
    Segment,
    /// Holds metadata for replicated projections; every node may
    /// subscribe.
    Replica,
}

/// A shard definition: fixed at database creation (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDef {
    pub id: ShardId,
    pub kind: ShardKind,
    /// Hash region for segment shards; the full space for the replica
    /// shard (it is never consulted).
    pub range: HashRange,
}

/// Subscription state machine (§3.3, Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubState {
    /// Declared; metadata transfer in progress.
    Pending,
    /// Metadata complete: participates in commits, promotable.
    Passive,
    /// Serving queries.
    Active,
    /// Draining; still serves queries until enough other subscribers
    /// exist.
    Removing,
}

/// A node's subscription to a shard — itself a *global* catalog object
/// so every node can compute participating sets consistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    pub node: NodeId,
    pub shard: ShardId,
    pub state: SubState,
}

/// A table with its projections.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub oid: Oid,
    pub name: String,
    pub schema: Schema,
    /// (projection oid, definition)
    pub projections: Vec<(Oid, Projection)>,
    /// Per-column default values, aligned with `schema.fields`. Columns
    /// added by ALTER TABLE (§6.3) record their default here so
    /// containers written *before* the ADD COLUMN can be scanned — the
    /// missing column materializes as the default.
    pub defaults: Vec<Value>,
}

impl Table {
    pub fn projection(&self, oid: Oid) -> Option<&Projection> {
        self.projections
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, p)| p)
    }

    /// The projection that answers a scan reading the table columns
    /// `needed`: the one named `hint` when the scan is pinned, otherwise
    /// the first carrying every needed column, preferring replicated
    /// projections for global scans (one copy to read) and segmented ones
    /// for shard-local scans. The scan and the plan rule that reasons
    /// about its segmentation both ask here, so they cannot disagree.
    pub fn pick_projection(
        &self,
        needed: &[usize],
        global: bool,
        hint: Option<&str>,
    ) -> Result<(Oid, &Projection)> {
        if let Some(name) = hint {
            return self
                .projections
                .iter()
                .find(|(_, p)| p.name == name)
                .map(|(oid, p)| (*oid, p))
                .ok_or_else(|| {
                    EonError::Query(format!("{} has no projection named {name}", self.name))
                });
        }
        let qualifies = |p: &Projection| needed.iter().all(|c| p.columns.contains(c));
        let (mut segmented, mut replicated) = (None, None);
        for (oid, p) in &self.projections {
            // A LAP's rows are pre-aggregated; it never answers a scan
            // implicitly (§2.1) — only via an explicit projection pin.
            if p.is_live_aggregate() || !qualifies(p) {
                continue;
            }
            if p.is_replicated() {
                replicated.get_or_insert((*oid, p));
            } else {
                segmented.get_or_insert((*oid, p));
            }
        }
        let pick = if global {
            replicated.or(segmented)
        } else {
            segmented.or(replicated)
        };
        pick.ok_or_else(|| {
            EonError::Query(format!(
                "no projection of {} covers the required columns",
                self.name
            ))
        })
    }
}

/// A ROS container as the catalog sees it: a pointer to an immutable
/// shared-storage object plus planning statistics. Storage-scoped: only
/// subscribers of `shard` carry it (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMeta {
    pub oid: Oid,
    /// Shared-storage object key (from the SID scheme, §5.1).
    pub key: String,
    pub table: Oid,
    pub projection: Oid,
    pub shard: ShardId,
    pub rows: u64,
    pub size_bytes: u64,
    /// Per-column (min, max) for container-level pruning; `None` where
    /// a column slice is all-null.
    pub col_minmax: Vec<Option<(Value, Value)>>,
}

/// A delete vector as the catalog sees it (§2.3): positions are in the
/// object at `key`; `container` is the storage it tombstones.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteVectorMeta {
    pub oid: Oid,
    pub key: String,
    pub container: Oid,
    pub shard: ShardId,
    pub deleted_rows: u64,
}

/// The redo-log operation language. Applying the ops of a commit to a
/// catalog snapshot at version *v* yields the snapshot at *v+1*.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogOp {
    /// Database bootstrap: define the shard layout (once).
    DefineShards(Vec<ShardDef>),
    CreateTable(Table),
    DropTable(Oid),
    AddProjection {
        table: Oid,
        oid: Oid,
        projection: Projection,
    },
    /// ALTER TABLE ADD COLUMN with a default value (§6.3). Existing
    /// projections grow the column; new containers carry the default.
    AddColumn {
        table: Oid,
        field: eon_types::Field,
        default: Value,
    },
    AddContainer(ContainerMeta),
    DropContainer(Oid),
    AddDeleteVector(DeleteVectorMeta),
    DropDeleteVector(Oid),
    /// Create or update a node↔shard subscription (state transitions of
    /// Fig 4 are successive Upserts).
    UpsertSubscription(Subscription),
    RemoveSubscription {
        node: NodeId,
        shard: ShardId,
    },
    /// Select the mergeout coordinator for a shard (§6.2).
    SetMergeoutCoordinator {
        shard: ShardId,
        node: NodeId,
    },
}

impl CatalogOp {
    /// The shard whose subscribers must carry this op, or `None` for
    /// global objects that every node's catalog holds (§3.1).
    pub fn shard_scope(&self) -> Option<ShardId> {
        match self {
            CatalogOp::AddContainer(c) => Some(c.shard),
            CatalogOp::AddDeleteVector(d) => Some(d.shard),
            // Drops are resolved against local state; treat as global so
            // every holder of the object observes the drop.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::schema;

    #[test]
    fn op_shard_scope() {
        let c = ContainerMeta {
            oid: Oid(1),
            key: "k".into(),
            table: Oid(2),
            projection: Oid(3),
            shard: ShardId(7),
            rows: 0,
            size_bytes: 0,
            col_minmax: vec![],
        };
        assert_eq!(CatalogOp::AddContainer(c).shard_scope(), Some(ShardId(7)));
        assert_eq!(CatalogOp::DropTable(Oid(1)).shard_scope(), None);
    }

    #[test]
    fn table_projection_lookup() {
        let s = schema![("a", Int)];
        let t = Table {
            oid: Oid(1),
            name: "t".into(),
            schema: s.clone(),
            projections: vec![(
                Oid(10),
                Projection::super_projection("p", &s, &[0], &[0]),
            )],
            defaults: vec![Value::Null],
        };
        assert!(t.projection(Oid(10)).is_some());
        assert!(t.projection(Oid(11)).is_none());
    }
}
