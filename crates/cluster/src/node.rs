//! The node runtime: everything one Vertica process owns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use eon_cache::FileCache;
use eon_catalog::{Catalog, CatalogState, CatalogStore, Checkpoint};
use eon_columnar::{ReadStats, RosReader};
use eon_obs::{Counter, Histogram, Registry};
use eon_storage::{FaultInjector, InstanceId, MemFs, SharedFs, SidFactory, StorageId};
use eon_types::{NodeId, Result, TxnVersion};

use crate::slots::ExecSlots;

/// One container's opened reader, filled by the first scan that opens
/// it; concurrent openers of the key wait on the slot instead of
/// reading the tail again.
type FooterSlot = Arc<parking_lot::Mutex<Option<Arc<RosReader>>>>;

/// Registry handles for one node's scan pipeline, registered once when
/// the node is built. Counters are deterministic functions of the
/// workload (which blocks were pruned, which bytes fetched); only the
/// queue-wait histogram is wall-clock.
pub struct ScanMetrics {
    pub pool_tasks: Arc<Counter>,
    pub queue_wait: Arc<Histogram>,
    pub blocks_pruned: Arc<Counter>,
    blocks_late_skipped: Arc<Counter>,
    encoded_blocks: Arc<Counter>,
    rows_short_circuited: Arc<Counter>,
    read_requests: Arc<Counter>,
    requests_saved: Arc<Counter>,
    coalesced_bytes: Arc<Counter>,
    gap_bytes: Arc<Counter>,
    waste_bytes: Arc<Counter>,
}

impl ScanMetrics {
    fn register(registry: &Registry, node: &str) -> Self {
        let labels: &[(&str, &str)] = &[("node", node), ("subsystem", "scan")];
        ScanMetrics {
            pool_tasks: registry.counter("scan_pool_tasks_total", labels),
            queue_wait: registry.timing_histogram("scan_pool_queue_wait_us", labels),
            blocks_pruned: registry.counter("scan_blocks_pruned_total", labels),
            blocks_late_skipped: registry.counter("scan_blocks_late_skipped_total", labels),
            encoded_blocks: registry.counter("scan_encoded_blocks_total", labels),
            rows_short_circuited: registry.counter("scan_rows_short_circuited_total", labels),
            read_requests: registry.counter("scan_read_requests_total", labels),
            requests_saved: registry.counter("scan_coalesced_requests_saved_total", labels),
            coalesced_bytes: registry.counter("scan_coalesced_bytes_total", labels),
            gap_bytes: registry.counter("scan_coalesced_gap_bytes_total", labels),
            waste_bytes: registry.counter("scan_coalesce_waste_bytes_total", labels),
        }
    }

    /// Count one container's reads.
    pub fn record_io(&self, s: &ReadStats) {
        self.read_requests.add(s.requests);
        self.requests_saved.add(s.requests_saved);
        self.coalesced_bytes.add(s.bytes_read);
        self.gap_bytes.add(s.gap_bytes);
        self.waste_bytes.add(s.waste_bytes);
        self.encoded_blocks.add(s.encoded_blocks);
        self.rows_short_circuited.add(s.rows_short_circuited);
        self.blocks_late_skipped.add(s.blocks_late_skipped);
    }
}

/// Registry handles for one node's write pipeline, registered once when
/// the node is built (rollbacks are counted per database, on `EonDb`).
/// All counters are deterministic functions of the workload (how many
/// containers, rows, bytes a statement wrote); only the queue-wait
/// histogram is wall-clock.
pub struct LoadMetrics {
    pub pool_tasks: Arc<Counter>,
    pub queue_wait: Arc<Histogram>,
    pub containers: Arc<Counter>,
    pub rows: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub peer_ships: Arc<Counter>,
}

impl LoadMetrics {
    pub fn register(registry: &Registry, node: &str) -> Self {
        let labels: &[(&str, &str)] = &[("node", node), ("subsystem", "load")];
        LoadMetrics {
            pool_tasks: registry.counter("load_pool_tasks_total", labels),
            queue_wait: registry.timing_histogram("load_pool_queue_wait_us", labels),
            containers: registry.counter("load_containers_written_total", labels),
            rows: registry.counter("load_rows_written_total", labels),
            bytes: registry.counter("load_bytes_uploaded_total", labels),
            peer_ships: registry.counter("load_peer_ships_total", labels),
        }
    }
}

/// One simulated node process.
///
/// Kill/restart semantics mirror a real process: [`NodeRuntime::kill`]
/// discards in-memory state (catalog, cache index, kept footers) but
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
    /// This node's scan-pipeline metric handles.
    pub scan_metrics: ScanMetrics,
    /// This node's write-pipeline metric handles.
    pub load_metrics: LoadMetrics,
    up: AtomicBool,
    /// Subcluster assignment for workload isolation (§4.3); 0 = default.
    pub subcluster: AtomicU64,
    /// Lowest catalog version any in-flight query on this node reads
    /// (gossiped for §6.5 file deletion). u64::MAX when idle.
    min_query_version: AtomicU64,
    query_versions: parking_lot::Mutex<Vec<u64>>,
    /// Opened containers by key (DESIGN.md "Scan pipeline"): containers
    /// are immutable and keys never reused, so a footer stays valid
    /// until the reaper deletes its object and forgets it here.
    footers: parking_lot::Mutex<HashMap<String, FooterSlot>>,
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
            scan_metrics: ScanMetrics::register(registry, &label),
            load_metrics: LoadMetrics::register(registry, &label),
            up: AtomicBool::new(true),
            subcluster: AtomicU64::new(0),
            min_query_version: AtomicU64::new(u64::MAX),
            query_versions: parking_lot::Mutex::new(Vec::new()),
            footers: parking_lot::Mutex::new(HashMap::new()),
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

    /// The opened container `key`: the kept reader, or `open`'s, which
    /// is kept. One open per key however many scans ask at once; a
    /// failed open keeps nothing, so the next scan tries again.
    pub fn footer(
        &self,
        key: &str,
        open: impl FnOnce() -> Result<RosReader>,
    ) -> Result<Arc<RosReader>> {
        let slot = self.footers.lock().entry(key.to_owned()).or_default().clone();
        let mut kept = slot.lock();
        if let Some(reader) = kept.as_ref() {
            return Ok(reader.clone());
        }
        let reader = Arc::new(open()?);
        *kept = Some(reader.clone());
        Ok(reader)
    }

    /// Forget the footer of a container whose object was deleted.
    pub fn forget_footer(&self, key: &str) {
        self.footers.lock().remove(key);
    }

    /// Keys whose footer this node keeps, sorted (invariant-checker
    /// introspection: a reaped key must not be among them).
    pub fn kept_footers(&self) -> Vec<String> {
        let map = self.footers.lock();
        let mut keys: Vec<String> =
            map.iter().filter(|(_, slot)| slot.lock().is_some()).map(|(k, _)| k.clone()).collect();
        keys.sort();
        keys
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
