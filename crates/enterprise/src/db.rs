//! The Enterprise database object.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use eon_cluster::pool::run_indexed;
use eon_cluster::ExecSlots;
use eon_columnar::{split_by_shard, Batch, Column, Projection, RosWriter};
use eon_exec::ops::encode_sorted;
use eon_exec::{auto_distribute, Plan};
use eon_storage::{MemFs, SharedFs};
use eon_tm::Wos;
use eon_types::{EonError, Oid, Result, Schema, Value};

/// Configuration for the baseline.
#[derive(Debug, Clone)]
pub struct EnterpriseConfig {
    pub num_nodes: usize,
    pub exec_slots: usize,
    /// Rows below which a load buffers in the WOS instead of writing a
    /// ROS container directly (§2.3).
    pub wos_threshold: usize,
}

impl Default for EnterpriseConfig {
    fn default() -> Self {
        EnterpriseConfig {
            num_nodes: 3,
            exec_slots: 4,
            wos_threshold: 1024,
        }
    }
}

/// A container as Enterprise's node-local catalog sees it.
#[derive(Debug, Clone)]
pub struct LocalContainer {
    pub key: String,
    pub projection: Oid,
    /// Which hash segment the rows belong to.
    pub segment: usize,
    pub rows: u64,
}

/// One Enterprise node: private disk, private WOS, private container
/// list (primary + buddy copies).
pub struct EnterpriseNode {
    pub index: usize,
    pub disk: SharedFs,
    pub wos: Wos,
    pub slots: ExecSlots,
    up: AtomicBool,
    /// Containers on this node's disk, including buddy copies.
    pub containers: RwLock<Vec<LocalContainer>>,
}

impl EnterpriseNode {
    fn new(index: usize, exec_slots: usize, wos_threshold: usize) -> Arc<Self> {
        Arc::new(EnterpriseNode {
            index,
            disk: Arc::new(MemFs::new()),
            wos: Wos::new(wos_threshold),
            slots: ExecSlots::new(exec_slots, &Default::default(), &[]),
            up: AtomicBool::new(true),
            containers: RwLock::new(Vec::new()),
        })
    }

    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Process death: WOS contents are lost (§5.1's Eon motivation),
    /// disk survives.
    pub fn kill(&self) {
        self.wos.crash();
        self.up.store(false, Ordering::SeqCst);
        // Waiters parked on a dead node's slots get NodeDown now.
        self.slots.close();
    }

    pub fn revive_process(&self) {
        self.up.store(true, Ordering::SeqCst);
        // Enterprise revives the same process object, so its slot
        // semaphore must come back into service too.
        self.slots.reopen();
    }

    /// Total bytes on this node's disk (recovery-cost metric, §6.1).
    pub fn disk_bytes(&self) -> u64 {
        self.disk
            .list("")
            .map(|keys| {
                keys.iter()
                    .map(|k| self.disk.size(k).unwrap_or(0))
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// A table in the (global, simplified) Enterprise catalog.
#[derive(Debug, Clone)]
pub struct EnterpriseTable {
    pub oid: Oid,
    pub name: String,
    pub schema: Schema,
    pub projection: Projection,
}

/// The Enterprise-mode database.
pub struct EnterpriseDb {
    pub config: EnterpriseConfig,
    nodes: Vec<Arc<EnterpriseNode>>,
    tables: RwLock<HashMap<String, EnterpriseTable>>,
    oid_counter: AtomicU64,
    key_counter: AtomicU64,
    load_lock: Mutex<()>,
}

impl EnterpriseDb {
    pub fn create(config: EnterpriseConfig) -> Arc<Self> {
        let nodes = (0..config.num_nodes)
            .map(|i| EnterpriseNode::new(i, config.exec_slots, config.wos_threshold))
            .collect();
        Arc::new(EnterpriseDb {
            nodes,
            tables: RwLock::new(HashMap::new()),
            oid_counter: AtomicU64::new(1),
            key_counter: AtomicU64::new(1),
            load_lock: Mutex::new(()),
            config,
        })
    }

    pub fn nodes(&self) -> &[Arc<EnterpriseNode>] {
        &self.nodes
    }

    pub fn node(&self, i: usize) -> &Arc<EnterpriseNode> {
        &self.nodes[i]
    }

    /// The buddy of node `i` in the rotated ring (§2.2).
    pub fn buddy_of(&self, i: usize) -> usize {
        (i + 1) % self.nodes.len()
    }

    pub fn create_table(&self, name: &str, schema: Schema, projection: Projection) -> Result<Oid> {
        projection.validate(&schema)?;
        let mut g = self.tables.write();
        if g.contains_key(name) {
            return Err(EonError::Catalog(format!("table {name} exists")));
        }
        let oid = Oid(self.oid_counter.fetch_add(1, Ordering::Relaxed));
        g.insert(
            name.to_owned(),
            EnterpriseTable {
                oid,
                name: name.to_owned(),
                schema,
                projection,
            },
        );
        Ok(oid)
    }

    pub fn table(&self, name: &str) -> Result<EnterpriseTable> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }

    /// Bulk-load a typed batch (COPY): the load path. The batch is
    /// checked against the schema a column at a time, its projection
    /// columns selected and split by the segmentation hash. Small
    /// buckets buffer in the WOS; larger ones write ROS containers to
    /// the owner node *and* its buddy (§2.2's replicated placement,
    /// done with duplicated work on each side: each sorts and encodes
    /// its own copy).
    pub fn copy_batch(&self, table: &str, batch: Batch) -> Result<u64> {
        let _g = self.load_lock.lock();
        let t = self.table(table)?;
        batch.check_schema(&t.schema)?;
        let proj = &t.projection;
        let cols: Vec<&Column> = proj.columns.iter().map(|&c| &batch.cols()[c]).collect();
        let seg_cols: Vec<&Column> = proj.seg_cols().iter().map(|&s| cols[s]).collect();
        let buckets = split_by_shard(&seg_cols, batch.rows(), self.nodes.len());
        for (seg, idx) in buckets.into_iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let bucket = Batch::new(cols.iter().map(|c| c.gather(&idx)).collect(), idx.len());
            let copies = [(seg, bucket.clone()), (self.buddy_of(seg), bucket)];
            if idx.len() < self.config.wos_threshold {
                // WOS path: buffer on owner and buddy (both must be able
                // to serve); moveout happens when the threshold trips.
                for (node_idx, bucket) in copies {
                    let node = &self.nodes[node_idx];
                    if node.is_up() && node.wos.append(wos_key(t.projection_oid(), seg), bucket) {
                        self.moveout(node_idx, &t, seg)?;
                    }
                }
            } else {
                for (node_idx, bucket) in copies {
                    self.write_ros(node_idx, &t, seg, bucket)?;
                }
            }
        }
        Ok(batch.rows() as u64)
    }

    /// Bulk-load rows: the row edge. Every row's width is checked, then
    /// the rows are transposed once for [`EnterpriseDb::copy_batch`].
    pub fn copy_into(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
        let width = self.table(table)?.schema.len();
        self.copy_batch(table, Batch::from_rows_checked(&rows, width)?)
    }

    /// Spill one node's WOS buffer for a projection into a sorted ROS
    /// container (§2.3 moveout).
    pub fn moveout(&self, node_idx: usize, t: &EnterpriseTable, segment: usize) -> Result<()> {
        match self.nodes[node_idx].wos.moveout(wos_key(t.projection_oid(), segment)) {
            Some(batch) => self.write_ros(node_idx, t, segment, batch),
            None => Ok(()),
        }
    }

    /// Sort one copy of a segment's rows by the projection and encode
    /// it ([`encode_sorted`], Eon's upload path too) onto a node's disk.
    fn write_ros(
        &self,
        node_idx: usize,
        t: &EnterpriseTable,
        segment: usize,
        batch: Batch,
    ) -> Result<()> {
        let node = &self.nodes[node_idx];
        if !node.is_up() {
            return Err(EonError::NodeDown(format!("node {node_idx}")));
        }
        let (bytes, footer) = encode_sorted(batch, &t.projection, &RosWriter::new())?;
        let key = format!(
            "node{node_idx}/seg{segment}/ros{:08}",
            self.key_counter.fetch_add(1, Ordering::Relaxed)
        );
        node.disk.write(&key, bytes)?;
        node.containers.write().push(LocalContainer {
            key,
            projection: t.projection_oid(),
            segment,
            rows: footer.total_rows,
        });
        Ok(())
    }

    /// Which node serves each segment right now: the owner, or the
    /// buddy when the owner is down. Errors when both are down (data
    /// unavailable — Enterprise's K-safety limit).
    pub fn segment_servers(&self) -> Result<Vec<usize>> {
        (0..self.nodes.len())
            .map(|seg| {
                if self.nodes[seg].is_up() {
                    Ok(seg)
                } else if self.nodes[self.buddy_of(seg)].is_up() {
                    Ok(self.buddy_of(seg))
                } else {
                    Err(EonError::ClusterDown(format!(
                        "segment {seg}: owner and buddy both down"
                    )))
                }
            })
            .collect()
    }

    /// Execute a query: the fixed layout means every up node
    /// participates, serving its own segment plus any down neighbour's
    /// (§2.2). Plans use the same language as Eon mode; the participants
    /// run on the one task pool, in node order, the first on this thread.
    pub fn query(&self, plan: &Plan) -> Result<Vec<Vec<Value>>> {
        let dp = auto_distribute(plan);
        let servers = self.segment_servers()?;
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        if dp.has_local_scan() {
            for (seg, node) in servers.iter().enumerate() {
                by_node.entry(*node).or_default().push(seg);
            }
        } else {
            // Global-only plan: one node answers (running it everywhere
            // would multiply broadcast rows into the merge).
            by_node.insert(servers[0], Vec::new());
        }
        let by_node: Vec<(usize, Vec<usize>)> = by_node.into_iter().collect();
        let tables = self.tables.read().clone();
        let results = run_indexed(by_node.len(), by_node.len(), None, None, |i| {
            let (node_idx, segments) = &by_node[i];
            let node = &self.nodes[*node_idx];
            let _slots = node.slots.acquire(segments.len().max(1))?;
            let provider = crate::provider::EnterpriseProvider {
                node,
                cluster: &self.nodes,
                servers: &servers,
                tables: &tables,
                segments,
            };
            dp.execute_local(&provider)
        });
        let results = results.into_iter().flatten().collect::<Result<Vec<_>>>()?;
        dp.finish(results).map(Batch::into_rows)
    }

    /// Rebuild a restarted node's data from its buddies: the §6.1
    /// Enterprise recovery path, proportional to the node's *entire*
    /// data set. Returns bytes copied.
    pub fn recover_node(&self, node_idx: usize) -> Result<u64> {
        let node = &self.nodes[node_idx];
        node.revive_process();
        // The node serves: its own segment (copy from buddy) and the
        // buddy copy of its predecessor's segment (copy from owner).
        let mut copied = 0u64;
        let n = self.nodes.len();
        let pred = (node_idx + n - 1) % n;
        for (segment, source_idx) in [(node_idx, self.buddy_of(node_idx)), (pred, pred)] {
            let source = &self.nodes[source_idx];
            if !source.is_up() {
                return Err(EonError::NodeDown(format!("rebuild source {source_idx}")));
            }
            let source_containers: Vec<LocalContainer> = source
                .containers
                .read()
                .iter()
                .filter(|c| c.segment == segment)
                .cloned()
                .collect();
            // Drop stale local copies of this segment, then re-copy.
            {
                let mut mine = node.containers.write();
                mine.retain(|c| c.segment != segment);
            }
            for c in source_containers {
                let data = source.disk.read(&c.key)?;
                copied += data.len() as u64;
                node.disk.write(&c.key, data)?;
                node.containers.write().push(c);
            }
        }
        Ok(copied)
    }

    /// Total rows across one projection (sanity metric).
    pub fn total_container_rows(&self, table: &str) -> Result<u64> {
        let t = self.table(table)?;
        let mut total = 0;
        for (seg, node) in self.nodes.iter().enumerate() {
            if !node.is_up() {
                continue;
            }
            total += node
                .containers
                .read()
                .iter()
                .filter(|c| c.projection == t.projection_oid() && c.segment == seg)
                .map(|c| c.rows)
                .sum::<u64>();
        }
        Ok(total)
    }
}

impl EnterpriseTable {
    pub fn projection_oid(&self) -> Oid {
        // One projection per table in the baseline; its oid is the
        // table oid (sufficient for WOS/container bookkeeping).
        self.oid
    }
}

/// WOS buffers are keyed by (projection, segment) so a node holding
/// buddy rows keeps them separable from its own segment's rows.
pub fn wos_key(projection: Oid, segment: usize) -> Oid {
    Oid((projection.0 << 16) | segment as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_exec::{AggSpec, Expr, ScanSpec, SortKey};
    use eon_types::schema;

    fn mk_db(nodes: usize) -> Arc<EnterpriseDb> {
        let db = EnterpriseDb::create(EnterpriseConfig {
            num_nodes: nodes,
            exec_slots: 4,
            wos_threshold: 200,
        });
        let s = schema![("id", Int), ("v", Int)];
        db.create_table("t", s.clone(), Projection::super_projection("p", &s, &[0], &[0]))
            .unwrap();
        db
    }

    fn rows(lo: i64, hi: i64) -> Vec<Vec<Value>> {
        (lo..hi).map(|i| vec![Value::Int(i), Value::Int(i % 5)]).collect()
    }

    fn count(db: &EnterpriseDb) -> i64 {
        let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
        db.query(&plan).unwrap()[0][0].as_int().unwrap()
    }

    #[test]
    fn load_and_query_roundtrip() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 3000)).unwrap();
        assert_eq!(count(&db), 3000);
        let plan = Plan::scan(ScanSpec::new("t"))
            .aggregate(vec![1], vec![AggSpec::sum(Expr::col(0))])
            .sort(vec![SortKey::asc(0)]);
        let out = db.query(&plan).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn small_loads_buffer_in_wos() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 90)).unwrap(); // ~30/segment < threshold
        // Data visible though still in WOS.
        assert_eq!(count(&db), 90);
        let wos_rows: usize = db.nodes().iter().map(|n| n.wos.total_rows()).sum();
        assert!(wos_rows > 0, "expected WOS buffering");
    }

    #[test]
    fn node_crash_loses_wos_rows() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 90)).unwrap();
        // Kill and revive every node: WOS contents gone — the §5.1
        // durability gap Eon mode closes.
        for n in db.nodes() {
            n.kill();
        }
        for n in db.nodes() {
            n.revive_process();
        }
        assert!(count(&db) < 90);
    }

    #[test]
    fn buddy_serves_when_owner_down() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 3000)).unwrap();
        db.node(1).kill();
        assert_eq!(count(&db), 3000);
        // Buddy is doing double duty: it serves two segments.
        let servers = db.segment_servers().unwrap();
        assert_eq!(servers[1], db.buddy_of(1));
    }

    #[test]
    fn two_adjacent_nodes_down_loses_data() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 3000)).unwrap();
        db.node(1).kill();
        db.node(2).kill(); // buddy of 1
        assert!(db.query(
            &Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()])
        )
        .is_err());
    }

    #[test]
    fn recovery_copies_full_node_dataset() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 6000)).unwrap();
        db.node(0).kill();
        let copied = db.recover_node(0).unwrap();
        assert!(copied > 0);
        assert_eq!(count(&db), 6000);
        // Recovery cost scales with data volume (§6.1): double the data,
        // roughly double the copy.
        let db2 = mk_db(3);
        db2.copy_into("t", rows(0, 12_000)).unwrap();
        db2.node(0).kill();
        let copied2 = db2.recover_node(0).unwrap();
        assert!(
            copied2 > copied * 3 / 2,
            "copied {copied} vs {copied2} for 2x data"
        );
    }

    /// Every container on every disk, by (node, segment), as bytes.
    fn container_bytes(db: &EnterpriseDb) -> Vec<(usize, usize, Vec<u8>)> {
        let mut out = Vec::new();
        for n in db.nodes() {
            for c in n.containers.read().iter() {
                out.push((n.index, c.segment, n.disk.read(&c.key).unwrap().to_vec()));
            }
        }
        out.sort();
        out
    }

    /// Moveout writes what a direct load writes: small loads buffered
    /// in load order, then moved out, encode to the same bytes on every
    /// (node, segment) as one direct load of the same rows — sort ties
    /// (the sort column holds five values) in load order, NULLs kept.
    #[test]
    fn moved_out_small_loads_write_the_bytes_of_one_direct_load() {
        let s = schema![("id", Int), ("k", Int), ("f", Float), ("s", Str)];
        let proj = Projection::super_projection("p", &s, &[1], &[0]);
        let rows: Vec<Vec<Value>> = (0..600i64)
            .map(|i| {
                let f = if i % 7 == 0 { Value::Null } else { Value::Float(i as f64 / 3.0) };
                let st = if i % 11 == 0 { Value::Null } else { Value::Str(format!("ü{}", i % 13)) };
                vec![Value::Int(i), Value::Int(i % 5), f, st]
            })
            .collect();
        let db_with = |wos_threshold| {
            let db = EnterpriseDb::create(EnterpriseConfig { num_nodes: 3, exec_slots: 4, wos_threshold });
            db.create_table("t", s.clone(), proj.clone()).unwrap();
            db
        };
        let buffered = db_with(usize::MAX);
        for chunk in rows.chunks(70) {
            buffered.copy_into("t", chunk.to_vec()).unwrap();
        }
        assert_eq!(container_bytes(&buffered), vec![]);
        let t = buffered.table("t").unwrap();
        for seg in 0..3 {
            buffered.moveout(seg, &t, seg).unwrap();
            buffered.moveout(buffered.buddy_of(seg), &t, seg).unwrap();
        }
        let direct = db_with(1);
        direct.copy_into("t", rows).unwrap();
        let (moved, loaded) = (container_bytes(&buffered), container_bytes(&direct));
        assert_eq!(moved.len(), 6, "one container per segment copy");
        assert!(moved == loaded, "moveout and direct load wrote different bytes");
    }

    #[test]
    fn moveout_spills_wos() {
        let db = mk_db(3);
        db.copy_into("t", rows(0, 90)).unwrap();
        let t = db.table("t").unwrap();
        for seg in 0..3 {
            db.moveout(seg, &t, seg).unwrap();
            db.moveout(db.buddy_of(seg), &t, seg).unwrap();
        }
        let wos_rows: usize = db.nodes().iter().map(|n| n.wos.total_rows()).sum();
        assert_eq!(wos_rows, 0);
        assert_eq!(count(&db), 90);
    }
}
