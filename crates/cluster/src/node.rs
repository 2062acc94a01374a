//! The node runtime: everything one Vertica process owns.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use eon_cache::FileCache;
use eon_catalog::{Catalog, CatalogState, CatalogStore, Checkpoint};
use eon_obs::Registry;
use eon_storage::{FaultInjector, InstanceId, MemFs, SharedFs, SidFactory, StorageId};
use eon_types::{NodeId, Result, TxnVersion};

use crate::slots::ExecSlots;

/// One simulated node process.
///
/// Kill/restart semantics mirror a real process: [`NodeRuntime::kill`]
/// discards in-memory state (catalog, cache index, WOS-equivalents) but
/// the *local durable store* (transaction logs, checkpoints) survives,
/// exactly the §3.5 "process termination results in reading the local
/// transaction logs and no loss of transactions" scenario. The cache
/// directory also survives but is cheap to lose (instance storage, §8).
pub struct NodeRuntime {
    pub id: NodeId,
    /// Node-local durable storage for the catalog (survives restarts).
    pub local_disk: SharedFs,
    /// This process incarnation's catalog instance.
    pub catalog: Catalog,
    pub store: CatalogStore,
    pub cache: Arc<FileCache>,
    pub sids: SidFactory,
    pub slots: ExecSlots,
    up: AtomicBool,
    /// Subcluster assignment for workload isolation (§4.3); 0 = default.
    pub subcluster: AtomicU64,
    /// Lowest catalog version any in-flight query on this node reads
    /// (gossiped for §6.5 file deletion). u64::MAX when idle.
    min_query_version: AtomicU64,
    query_versions: parking_lot::Mutex<Vec<u64>>,
}

impl NodeRuntime {
    /// Commission a fresh node with empty local storage.
    pub fn new(
        id: NodeId,
        shared: SharedFs,
        incarnation: &str,
        cache_capacity: u64,
        exec_slots: usize,
        instance_seed: u64,
        registry: &Registry,
    ) -> Arc<Self> {
        let local_disk: SharedFs = Arc::new(MemFs::new());
        Self::with_local_disk(
            id,
            local_disk,
            shared,
            incarnation,
            cache_capacity,
            exec_slots,
            instance_seed,
            registry,
        )
    }

    /// Commission (or restart) a node on an existing local disk. Its
    /// depot and slots count into `registry` labeled `node<id>`, so a
    /// restarted node continues the series of the process it replaces.
    #[allow(clippy::too_many_arguments)]
    pub fn with_local_disk(
        id: NodeId,
        local_disk: SharedFs,
        shared: SharedFs,
        incarnation: &str,
        cache_capacity: u64,
        exec_slots: usize,
        instance_seed: u64,
        registry: &Registry,
    ) -> Arc<Self> {
        let label = format!("node{}", id.0);
        let store = CatalogStore::new(local_disk.clone(), shared.clone(), incarnation);
        let cache = Arc::new(FileCache::new(
            Arc::new(MemFs::new()),
            shared,
            cache_capacity,
            registry,
            &label,
        ));
        let catalog = Catalog::new();
        // OID namespace = node id + 1 (0 is reserved for "unassigned"),
        // so concurrent coordinators can never mint colliding OIDs.
        catalog.set_oid_namespace(id.0 + 1);
        Arc::new(NodeRuntime {
            id,
            local_disk,
            catalog,
            store,
            cache,
            // Fresh instance id per process start (§5.1).
            sids: SidFactory::new(InstanceId::from_seed(
                instance_seed.wrapping_mul(0x1000).wrapping_add(id.0),
            )),
            slots: ExecSlots::new(exec_slots, registry, &[("node", &label), ("subsystem", "exec")]),
            up: AtomicBool::new(true),
            subcluster: AtomicU64::new(0),
            min_query_version: AtomicU64::new(u64::MAX),
            query_versions: parking_lot::Mutex::new(Vec::new()),
        })
    }

    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Install the crash-point plan on this node's catalog store
    /// (called by the database when the node is commissioned or
    /// restarted, so recovery code paths are instrumented too).
    pub fn set_faults(&self, faults: FaultInjector) {
        self.store.set_faults(faults);
    }

    /// Simulate process death. In-memory catalog/cache index are gone;
    /// the caller creates a fresh runtime over the same `local_disk` to
    /// restart.
    pub fn kill(&self) {
        self.up.store(false, Ordering::SeqCst);
        // Wake every session parked on this node's execution slots:
        // they get NodeDown immediately and the coordinator fails over,
        // instead of waiting for slots a dead process will never free.
        self.slots.close();
    }

    pub fn instance(&self) -> InstanceId {
        self.sids.instance()
    }

    /// Mint a SID for a new storage object.
    pub fn next_sid(&self) -> StorageId {
        self.sids.next()
    }

    /// Recover the catalog from local disk (normal restart, §2.4).
    pub fn recover_local(&self) -> Result<TxnVersion> {
        let (state, version) = self.store.recover_local()?;
        self.install_catalog(state, version);
        Ok(version)
    }

    /// Install a whole catalog snapshot, then raise the OID floor past
    /// every object in it so this node never mints a colliding OID.
    pub fn install_catalog(&self, state: CatalogState, version: TxnVersion) {
        let oids: Vec<u64> = state.obj_versions.keys().map(|o| o.0).collect();
        self.catalog.install(state, version);
        for oid in oids {
            self.catalog.bump_oid_floor(oid);
        }
    }

    /// Write a catalog checkpoint for the current state.
    pub fn checkpoint(&self) -> Result<()> {
        self.store.write_checkpoint(&Checkpoint {
            version: self.catalog.version(),
            state: (*self.catalog.snapshot()).clone(),
        })
    }

    /// Register a running query's snapshot version; returns a token to
    /// pass to [`NodeRuntime::finish_query`].
    pub fn begin_query(&self, version: TxnVersion) -> u64 {
        let mut g = self.query_versions.lock();
        g.push(version.0);
        let min = g.iter().copied().min().unwrap_or(u64::MAX);
        self.min_query_version.store(min, Ordering::SeqCst);
        version.0
    }

    pub fn finish_query(&self, token: u64) {
        let mut g = self.query_versions.lock();
        if let Some(pos) = g.iter().position(|&v| v == token) {
            g.remove(pos);
        }
        let min = g.iter().copied().min().unwrap_or(u64::MAX);
        // Monotonically increasing as §6.5 requires: never store a
        // smaller value than previously gossiped... the per-node value
        // is min over *running* queries; with none running we report
        // MAX (nothing held).
        self.min_query_version.store(min, Ordering::SeqCst);
    }

    /// The gossiped minimum query version (§6.5). `u64::MAX` = no
    /// queries in flight.
    pub fn min_query_version(&self) -> u64 {
        self.min_query_version.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_catalog::CatalogOp;
    use eon_types::{schema, Oid, Value};

    fn mk_node(id: u64) -> Arc<NodeRuntime> {
        let shared: SharedFs = Arc::new(MemFs::new());
        NodeRuntime::new(NodeId(id), shared, "inc0", 1 << 20, 4, 42, &Default::default())
    }

    fn create_table_commit(node: &NodeRuntime, name: &str) {
        let mut t = node.catalog.begin();
        let oid = node.catalog.next_oid();
        t.push(CatalogOp::CreateTable(eon_catalog::Table {
            oid,
            name: name.into(),
            schema: schema![("a", Int)],
            projections: vec![],
            defaults: vec![Value::Null],
        }));
        let rec = node.catalog.commit(t).unwrap();
        node.store.append_local(&[rec]).unwrap();
    }

    #[test]
    fn restart_recovers_catalog_from_local_disk() {
        let node = mk_node(1);
        create_table_commit(&node, "t1");
        create_table_commit(&node, "t2");
        node.kill();
        assert!(!node.is_up());

        // Restart: new runtime over the same local disk.
        let shared: SharedFs = Arc::new(MemFs::new());
        let revived = NodeRuntime::with_local_disk(
            NodeId(1),
            node.local_disk.clone(),
            shared,
            "inc0",
            1 << 20,
            4,
            43,
            &Default::default(),
        );
        let v = revived.recover_local().unwrap();
        assert_eq!(v, TxnVersion(2));
        assert!(revived.catalog.snapshot().table_by_name("t2").is_some());
        // Fresh process = fresh instance id (§5.1).
        assert_ne!(node.instance(), revived.instance());
        // OID floor bumped: new OIDs don't collide with recovered ones.
        let recovered_max = revived
            .catalog
            .snapshot()
            .obj_versions
            .keys()
            .map(|o| o.0)
            .max()
            .unwrap();
        assert!(revived.catalog.next_oid() > Oid(recovered_max));
    }

    #[test]
    fn query_version_gossip() {
        let node = mk_node(1);
        assert_eq!(node.min_query_version(), u64::MAX);
        let t1 = node.begin_query(TxnVersion(5));
        let t2 = node.begin_query(TxnVersion(3));
        assert_eq!(node.min_query_version(), 3);
        node.finish_query(t2);
        assert_eq!(node.min_query_version(), 5);
        node.finish_query(t1);
        assert_eq!(node.min_query_version(), u64::MAX);
    }

    #[test]
    fn sids_are_unique_per_node() {
        let node = mk_node(1);
        let a = node.next_sid();
        let b = node.next_sid();
        assert_ne!(a, b);
        assert_eq!(a.instance, node.instance());
    }
}
