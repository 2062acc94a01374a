//! The Eon [`TableProvider`]: scans that resolve through the catalog
//! snapshot, read container blocks through the node's cache, prune by
//! min/max statistics at container and block level (§2.1), apply
//! delete vectors, and honor session shard assignments (§4) and crunch
//! slices (§4.4).
//!
//! Scans run as a *pipeline* (see DESIGN.md "Scan pipeline"): the
//! per-shard container list fans out across a bounded per-node worker
//! pool so shared-storage latency on one container overlaps decode and
//! filter compute on another; block ranges are coalesced into fewer
//! ranged reads; and predicates evaluate columnar-wise into selection
//! vectors so non-predicate columns are fetched only for blocks with
//! surviving rows (late materialization). Results merge in container
//! order, so output is identical to a serial scan.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eon_cache::CacheMode;
use eon_catalog::{CatalogState, ContainerMeta, Table};
use eon_cluster::NodeRuntime;
use eon_columnar::pruning::ColumnStats;
use eon_columnar::{
    BlockCol, DeleteVector, EncodedBlock, Predicate, Projection, ReadStats, RosFooter, RosReader,
};
use eon_exec::agg::{aggregate_partial, merge_partials, AggState, Partials};
use eon_exec::crunch::CrunchSlice;
use eon_exec::{AggSpec, Expr, ScanSpec, TableProvider};
use eon_obs::{Counter, Histogram, QueryProfile, Registry};
use eon_types::{EonError, Oid, Result, ShardId, Value};
use parking_lot::Mutex;

use crate::pushdown::{
    agg_pushable, estimate_selectivity, kept_bytes, predicate_cols, AggRequest, SelectRequest,
    SelectResponse,
};

/// Default coalescing gap: fetch up to this many dead bytes between
/// two surviving blocks rather than pay a second request round-trip.
pub const DEFAULT_COALESCE_GAP: u64 = 64 * 1024;

/// One container's scan output: `(position, row)` pairs in position
/// order (position is 0 when the caller didn't ask for it).
type PosRows = Vec<(u64, Vec<Value>)>;

/// Scan-pipeline tuning, carried per session (built from `EonConfig`
/// by the coordinator; defaults are serial + full optimisation, which
/// keeps DML/mergeout scans single-threaded).
#[derive(Clone)]
pub struct ScanOptions {
    /// Container-scan worker threads per node; 1 = serial. The
    /// coordinator clamps this to the node's execution-slot budget
    /// (§4.2) so a scan can't out-parallelize its admission.
    pub workers: usize,
    /// Coalesce ranged reads whose gap is at most this many bytes;
    /// `None` issues one read per surviving block.
    pub coalesce_gap: Option<u64>,
    /// Evaluate predicates into per-block selection vectors and skip
    /// fetching non-predicate columns for blocks with no survivors.
    /// `false` falls back to materialize-then-`eval_row`.
    pub late_materialization: bool,
    /// Compression-aware execution (DESIGN.md "Compression-aware
    /// execution"): serve blocks as [`EncodedBlock`] views so
    /// predicates evaluate once per RLE run / dictionary entry and
    /// survivors are gathered without materializing the block. `false`
    /// forces the decode-first path (every block decoded to rows up
    /// front) — output is identical either way.
    pub encoded_exec: bool,
    /// S3-Select-style pushdown (DESIGN.md "Pushdown execution"): issue
    /// `select` requests against shared storage for eligible scans
    /// instead of fetching blocks with plain GETs. Output is identical
    /// either way; the knobs below steer the cost crossover.
    pub pushdown: bool,
    /// Push a rows-mode select only when the footer-stats selectivity
    /// estimate is at or below this fraction.
    pub pushdown_max_selectivity: f64,
    /// Push only when the plain-GET path would fetch at least this many
    /// bytes from the container.
    pub pushdown_min_bytes: u64,
    /// Partial-aggregate pushdown group-cardinality cap; the store
    /// declines selects producing more groups than this.
    pub pushdown_max_groups: u64,
    /// Registry scan metrics land in.
    pub obs: Registry,
    /// Per-query profile for scan spans, when one is being collected.
    pub profile: Option<QueryProfile>,
    /// Session cancellation, checked at every scan-task claim so a
    /// cancelled session stops fetching instead of finishing the scan.
    pub cancel: Option<eon_types::CancelToken>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            workers: 1,
            coalesce_gap: Some(DEFAULT_COALESCE_GAP),
            late_materialization: true,
            encoded_exec: true,
            pushdown: false,
            pushdown_max_selectivity: 0.25,
            pushdown_min_bytes: 32 * 1024,
            pushdown_max_groups: 64,
            obs: Registry::new(),
            profile: None,
            cancel: None,
        }
    }
}

/// Registry handles for one node's scan pipeline. Counters are
/// deterministic functions of the workload (which blocks were pruned,
/// which bytes fetched); only the queue-wait histogram is wall-clock.
struct ScanMetrics {
    pool_tasks: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    blocks_pruned: Arc<Counter>,
    blocks_late_skipped: Arc<Counter>,
    encoded_blocks: Arc<Counter>,
    rows_short_circuited: Arc<Counter>,
    read_requests: Arc<Counter>,
    requests_saved: Arc<Counter>,
    coalesced_bytes: Arc<Counter>,
    gap_bytes: Arc<Counter>,
    waste_bytes: Arc<Counter>,
    pushdown_selects: Arc<Counter>,
    pushdown_fallbacks: Arc<Counter>,
    pushdown_bytes_saved: Arc<Counter>,
    /// Per-scan tallies (this struct is built fresh per scan call) that
    /// feed the query profile's pushdown annotations.
    profile_selects: AtomicUsize,
    profile_saved: AtomicUsize,
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
            pushdown_selects: registry.counter("scan_pushdown_selects_total", labels),
            pushdown_fallbacks: registry.counter("scan_pushdown_fallbacks_total", labels),
            pushdown_bytes_saved: registry.counter("scan_pushdown_bytes_saved_total", labels),
            profile_selects: AtomicUsize::new(0),
            profile_saved: AtomicUsize::new(0),
        }
    }

    fn record_io(&self, s: &ReadStats) {
        self.read_requests.add(s.requests);
        self.requests_saved.add(s.requests_saved);
        self.coalesced_bytes.add(s.bytes_read);
        self.gap_bytes.add(s.gap_bytes);
        self.waste_bytes.add(s.waste_bytes);
    }

    /// Record one answered select that spared `saved` plain-GET bytes.
    fn record_select(&self, saved: u64) {
        self.pushdown_selects.inc();
        self.pushdown_bytes_saved.add(saved);
        self.profile_selects.fetch_add(1, Ordering::Relaxed);
        self.profile_saved.fetch_add(saved as usize, Ordering::Relaxed);
    }
}

/// Per-session, per-node scan context.
pub struct NodeProvider {
    pub node: Arc<NodeRuntime>,
    pub snapshot: Arc<CatalogState>,
    /// Segment shards this node serves for the session.
    pub my_shards: Vec<ShardId>,
    /// All segment shards of the database.
    pub all_shards: Vec<ShardId>,
    pub replica_shard: ShardId,
    pub cache_mode: CacheMode,
    /// Crunch-scaling slice when several nodes share each shard (§4.4).
    pub crunch: Option<CrunchSlice>,
    /// Scan-pipeline tuning (worker pool, coalescing, filtering).
    pub scan: ScanOptions,
}

/// Rewrite a predicate from table column indices to projection-local
/// indices. Fails if the projection lacks a referenced column.
fn remap_predicate(p: &Predicate, map: &HashMap<usize, usize>) -> Result<Predicate> {
    Ok(match p {
        Predicate::True => Predicate::True,
        Predicate::Cmp { col, op, lit } => Predicate::Cmp {
            col: *map
                .get(col)
                .ok_or_else(|| EonError::Query(format!("projection lacks column {col}")))?,
            op: *op,
            lit: lit.clone(),
        },
        Predicate::IsNull(c) => Predicate::IsNull(
            *map.get(c)
                .ok_or_else(|| EonError::Query(format!("projection lacks column {c}")))?,
        ),
        Predicate::IsNotNull(c) => Predicate::IsNotNull(
            *map.get(c)
                .ok_or_else(|| EonError::Query(format!("projection lacks column {c}")))?,
        ),
        Predicate::And(ps) => Predicate::And(
            ps.iter().map(|q| remap_predicate(q, map)).collect::<Result<_>>()?,
        ),
        Predicate::Or(ps) => Predicate::Or(
            ps.iter().map(|q| remap_predicate(q, map)).collect::<Result<_>>()?,
        ),
    })
}

impl NodeProvider {
    /// The filesystem a session reads through: the depot, or shared
    /// storage directly when the session bypasses the cache (§5.2).
    fn fs(&self) -> &dyn eon_storage::FileSystem {
        if self.cache_mode == CacheMode::Bypass {
            self.node.cache.backing().as_ref()
        } else {
            self.node.cache.as_ref()
        }
    }

    /// The filesystem one container's blocks are read from. A container
    /// larger than the whole depot can never be admitted, so reading it
    /// through the depot would move the whole object on every miss:
    /// fetch just the ranges from shared storage instead, exactly as a
    /// bypass session does.
    fn fs_for(&self, c: &ContainerMeta) -> &dyn eon_storage::FileSystem {
        if c.size_bytes > self.node.cache.capacity() {
            self.node.cache.backing().as_ref()
        } else {
            self.fs()
        }
    }

    /// Whether a plain read of `c` would fault it into the depot.
    fn depot_cold(&self, c: &ContainerMeta) -> bool {
        self.cache_mode != CacheMode::Bypass && !self.node.cache.contains(&c.key)
    }

    /// Open `c`'s footer with one tail read, sized from the catalog.
    /// `direct` reads shared storage even for a depot-cold file that
    /// would fit: a pushdown candidate must not fault the file in just
    /// to read the footer, so an answered select leaves the depot
    /// untouched (DESIGN.md "Pushdown execution").
    fn open_container(&self, c: &ContainerMeta, direct: bool) -> Result<RosReader> {
        let fs = if direct {
            self.node.cache.backing().as_ref()
        } else {
            self.fs_for(c)
        };
        RosReader::open_sized(fs, &c.key, c.size_bytes)
    }

    /// Block-level pruning on footer min/max statistics; all columns
    /// share block boundaries, so one mask covers the container.
    fn prune_blocks(footer: &RosFooter, pred: &Predicate, metrics: &ScanMetrics) -> Vec<bool> {
        let nblocks = footer.columns.first().map_or(0, |col| col.blocks.len());
        let keep: Vec<bool> = (0..nblocks)
            .map(|b| {
                pred.could_match(&|col: usize| -> Option<ColumnStats> {
                    let meta = footer.columns.get(col)?.blocks.get(b)?;
                    Some(ColumnStats {
                        min: meta.min.clone(),
                        max: meta.max.clone(),
                        has_null: meta.has_null,
                    })
                })
            })
            .collect();
        metrics
            .blocks_pruned
            .add(keep.iter().filter(|&&k| !k).count() as u64);
        keep
    }

    /// Choose the projection to answer a scan: the first one carrying
    /// every needed column, preferring replicated projections for
    /// global scans (one copy to read) and segmented ones for
    /// shard-local scans.
    fn pick_projection<'t>(
        &self,
        table: &'t Table,
        needed: &[usize],
        global: bool,
        hint: Option<&str>,
    ) -> Result<(Oid, &'t Projection)> {
        if let Some(name) = hint {
            return table
                .projections
                .iter()
                .find(|(_, p)| p.name == name)
                .map(|(oid, p)| (*oid, p))
                .ok_or_else(|| {
                    EonError::Query(format!("{} has no projection named {name}", table.name))
                });
        }
        let qualifies = |p: &Projection| needed.iter().all(|c| p.columns.contains(c));
        let (mut segmented, mut replicated) = (None, None);
        for (oid, p) in &table.projections {
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
                table.name
            ))
        })
    }

    /// Merged delete-vector keep mask for a container, if any deletes
    /// exist.
    fn delete_mask(&self, c: &ContainerMeta) -> Result<Option<Vec<bool>>> {
        let dvs = self.snapshot.delete_vectors_for(c.oid);
        if dvs.is_empty() {
            return Ok(None);
        }
        let mut merged = DeleteVector::default();
        for dv in dvs {
            let data = self.fs().read(&dv.key)?;
            merged = merged.merge(&DeleteVector::decode(&data)?);
        }
        Ok(Some(merged.keep_mask(c.rows)))
    }

    /// Handles for this node's scan-pipeline metrics.
    fn scan_metrics(&self) -> ScanMetrics {
        ScanMetrics::register(&self.scan.obs, &format!("node{}", self.node.id.0))
    }

    /// Run `count` independent scan tasks on the session's scan pool
    /// and return their results in task order, so callers see exactly
    /// the serial iteration order. With one worker (or one task) this
    /// degenerates to the serial loop, early-exit on error included;
    /// in parallel the lowest-index error wins.
    fn run_scan_tasks<T, F>(&self, count: usize, metrics: &ScanMetrics, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        metrics.pool_tasks.add(count as u64);
        let workers = self.scan.workers.max(1).min(count);
        if workers <= 1 {
            return (0..count)
                .map(|i| {
                    if let Some(c) = &self.scan.cancel {
                        c.check("scan task claim")?;
                    }
                    f(i)
                })
                .collect();
        }
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(count));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // A fired cancel token stops the pool at the claim
                    // boundary. The claimed index records the error —
                    // not a silent break — so the merged result is an
                    // `Err`, never a truncated `Ok`.
                    if let Some(c) = &self.scan.cancel {
                        if let Err(e) = c.check("scan task claim") {
                            results.lock().push((i, Err(e)));
                            break;
                        }
                    }
                    metrics
                        .queue_wait
                        .observe(started.elapsed().as_micros() as u64);
                    let r = f(i);
                    results.lock().push((i, r));
                });
            }
        });
        let mut results = results.into_inner();
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Table default for a projection-local column (materialized for
    /// columns added after a container was written, §6.3).
    fn default_for(table: &Table, proj: &Projection, col: usize) -> Value {
        let table_idx = proj.columns[col];
        table.defaults.get(table_idx).cloned().unwrap_or(Value::Null)
    }

    /// Fetch the surviving blocks of `cols` into `col_blocks` with one
    /// pass of the container's range planner, as encoded views when
    /// compression-aware execution is on, decoded to plain rows when
    /// the session forces decode-first. Either way the scan loop sees
    /// [`EncodedBlock`]s — decode-first just never sees a compressed
    /// one, so the two modes share every line downstream of here.
    #[allow(clippy::too_many_arguments)]
    fn fetch_blocks(
        &self,
        reader: &RosReader,
        fs: &dyn eon_storage::FileSystem,
        cols: &[usize],
        keep: &[bool],
        rstats: &mut ReadStats,
        metrics: &ScanMetrics,
        col_blocks: &mut HashMap<usize, Vec<Option<EncodedBlock>>>,
    ) -> Result<()> {
        let fetched =
            reader.read_columns_encoded(fs, cols, keep, self.scan.coalesce_gap, rstats)?;
        for (&col, mut blocks) in cols.iter().zip(fetched) {
            if self.scan.encoded_exec {
                let encoded = blocks.iter().flatten().filter(|b| b.is_encoded()).count();
                metrics.encoded_blocks.add(encoded as u64);
            } else {
                for b in blocks.iter_mut().flatten() {
                    *b = EncodedBlock::Plain(b.decode());
                }
            }
            col_blocks.insert(col, blocks);
        }
        Ok(())
    }

    /// Scan one container, returning rows in projection column space
    /// (only `read_cols` populated; absent columns are the table
    /// default).
    ///
    /// Pipeline order: prune blocks on footer min/max stats, fetch
    /// predicate columns (coalesced, as encoded views), evaluate the
    /// predicate into a per-block selection vector — once per RLE run
    /// / dictionary entry on compressed blocks — intersected with the
    /// delete mask, drop blocks with no survivors, then fetch the
    /// remaining columns and gather only selected rows (for compressed
    /// blocks, without ever materializing the block). With
    /// `ScanOptions::late_materialization` off, every kept block is
    /// fully materialized and filtered row-at-a-time — same output.
    /// A caller that already opened the container passes its reader as
    /// `opened`, so the footer is fetched once.
    #[allow(clippy::too_many_arguments)]
    fn scan_container(
        &self,
        table: &Table,
        proj: &Projection,
        c: &ContainerMeta,
        read_cols: &[usize],
        pred_local: &Predicate,
        width: usize,
        with_positions: bool,
        apply_crunch: bool,
        allow_pushdown: bool,
        opened: Option<RosReader>,
        metrics: &ScanMetrics,
    ) -> Result<PosRows> {
        let fs = self.fs_for(c);
        let pd_candidate = allow_pushdown && self.scan.pushdown && *pred_local != Predicate::True;
        let cold = self.depot_cold(c);
        let reader = match opened {
            Some(reader) => reader,
            None => self.open_container(c, pd_candidate && cold)?,
        };
        let footer = reader.footer();
        let present = footer.columns.len();

        let mut keep = Self::prune_blocks(footer, pred_local, metrics);
        let nblocks = keep.len();
        if !keep.iter().any(|&k| k) {
            return Ok(Vec::new());
        }

        // Pushdown composes with pruning: only unpruned blocks ride in
        // the select's keep mask, and an answered select replaces every
        // plain block GET below this point. A decline — by policy, by a
        // depot hit, or by the store — falls through to the plain path.
        if pd_candidate && (self.cache_mode == CacheMode::Bypass || cold) {
            if let Some(out) = self.try_select_rows(
                table,
                proj,
                c,
                &reader,
                read_cols,
                pred_local,
                width,
                with_positions,
                apply_crunch,
                &keep,
                metrics,
            )? {
                return Ok(out);
            }
        }

        let mut rstats = ReadStats::default();
        let mask = self.delete_mask(c)?;
        // Block start positions (cumulative row counts).
        let mut block_start = Vec::with_capacity(nblocks);
        let mut acc = 0u64;
        if let Some(first) = footer.columns.first() {
            for bm in &first.blocks {
                block_start.push(acc);
                acc += bm.rows;
            }
        }

        let mut col_blocks: HashMap<usize, Vec<Option<EncodedBlock>>> = HashMap::new();
        // Per kept block: which rows survive predicate + delete mask.
        // `None` (only without late materialization) means "all rows,
        // filter during materialization".
        let mut selection: Vec<Option<Vec<bool>>> = vec![None; nblocks];
        let late = self.scan.late_materialization && *pred_local != Predicate::True;

        if late {
            // Fetch predicate columns first. Only columns the caller
            // asked to read participate — a predicate column outside
            // `read_cols` evaluates as Null, exactly as the serial
            // materialize-then-eval path would see it.
            let pcols: Vec<usize> = predicate_cols(pred_local)
                .into_iter()
                .filter(|col| read_cols.contains(col))
                .collect();
            let fetch: Vec<usize> = pcols.iter().copied().filter(|&col| col < present).collect();
            self.fetch_blocks(&reader, fs, &fetch, &keep, &mut rstats, metrics, &mut col_blocks)?;
            let defaults: HashMap<usize, Value> = pcols
                .iter()
                .filter(|&&col| col >= present)
                .map(|&col| (col, Self::default_for(table, proj, col)))
                .collect();
            let null = Value::Null;
            for b in 0..nblocks {
                if !keep[b] {
                    continue;
                }
                let rows_in_block = footer.columns[0].blocks[b].rows as usize;
                let cols_view: Vec<BlockCol> = (0..width)
                    .map(|col| match col_blocks.get(&col) {
                        Some(blocks) => match &blocks[b] {
                            Some(view) => {
                                metrics.rows_short_circuited.add(view.short_circuit_rows());
                                view.as_block_col()
                            }
                            None => BlockCol::Const(&null),
                        },
                        None => match defaults.get(&col) {
                            Some(d) => BlockCol::Const(d),
                            None => BlockCol::Const(&null),
                        },
                    })
                    .collect();
                let mut sel = pred_local.eval_block(&cols_view, rows_in_block);
                if let Some(m) = &mask {
                    for (r, s) in sel.iter_mut().enumerate() {
                        *s &= m[(block_start[b] + r as u64) as usize];
                    }
                }
                if sel.iter().any(|&s| s) {
                    selection[b] = Some(sel);
                } else {
                    // No survivors: don't fetch the other columns. The
                    // predicate-column bytes already fetched for this
                    // block contributed no row — count them as waste
                    // (a pushed select would not have returned them).
                    keep[b] = false;
                    metrics.blocks_late_skipped.inc();
                    for &col in &pcols {
                        if col < present {
                            rstats.waste_bytes += footer.columns[col].blocks[b].len;
                        }
                    }
                }
            }
            if !keep.iter().any(|&k| k) {
                metrics.record_io(&rstats);
                return Ok(Vec::new());
            }
        }

        // Fetch the remaining needed columns (those physically
        // present) under the — possibly refined — keep mask.
        let fetch: Vec<usize> = read_cols
            .iter()
            .copied()
            .filter(|col| *col < present && !col_blocks.contains_key(col))
            .collect();
        self.fetch_blocks(&reader, fs, &fetch, &keep, &mut rstats, metrics, &mut col_blocks)?;
        metrics.record_io(&rstats);

        let mut out = Vec::new();
        for b in 0..nblocks {
            if !keep[b] {
                continue;
            }
            let rows_in_block = footer.columns[0].blocks[b].rows as usize;
            // Survivor row indices within the block: the selection
            // vector when late materialization ran, otherwise every
            // row the delete mask keeps (row-at-a-time predicate and
            // crunch filters still apply below).
            let surv: Vec<usize> = match (late, &selection[b]) {
                (true, Some(sel)) => sel
                    .iter()
                    .enumerate()
                    .filter_map(|(r, &s)| s.then_some(r))
                    .collect(),
                (true, None) => continue,
                (false, _) => (0..rows_in_block)
                    .filter(|&r| {
                        mask.as_ref()
                            .map(|m| m[(block_start[b] + r as u64) as usize])
                            .unwrap_or(true)
                    })
                    .collect(),
            };
            if surv.is_empty() {
                continue;
            }
            // Gather survivor values per fetched column. Compressed
            // blocks yield survivors in one pass over their runs/codes
            // without materializing the other rows — this is late
            // materialization below the decode boundary.
            let mut gathered: HashMap<usize, Vec<Value>> = HashMap::new();
            for (&col, blocks) in &col_blocks {
                if let Some(view) = &blocks[b] {
                    gathered.insert(col, view.gather(&surv));
                }
            }
            for (j, &r) in surv.iter().enumerate() {
                let pos = block_start[b] + r as u64;
                let mut row = vec![Value::Null; width];
                for &col in read_cols {
                    row[col] = match col_blocks.get(&col) {
                        // Gathered values are each used exactly once:
                        // move them out instead of cloning.
                        Some(_) => gathered
                            .get_mut(&col)
                            .map(|vals| std::mem::replace(&mut vals[j], Value::Null))
                            .unwrap_or(Value::Null),
                        // Column added after this container was written
                        // (§6.3): materialize the default.
                        None => Self::default_for(table, proj, col),
                    };
                }
                if !late && !pred_local.eval_row(&row) {
                    continue;
                }
                if apply_crunch {
                    if let Some(slice) = &self.crunch {
                        if !slice.keeps_row(&row, proj.seg_cols()) {
                            continue;
                        }
                    }
                }
                let pos_out = if with_positions { pos } else { 0 };
                out.push((pos_out, row));
            }
        }
        Ok(out)
    }

    /// Attempt rows-mode pushdown for one container: predicate and
    /// projection run inside the store, the node rebuilds rows from the
    /// survivors. Returns `Ok(None)` when the crossover policy vetoes
    /// the select or the store declines — the caller runs the plain
    /// path, whose output is identical.
    ///
    /// Delete vectors, crunch slices, table defaults, and positions are
    /// applied node-side, in exactly the order the plain path applies
    /// them, so every caller feature composes with pushdown.
    #[allow(clippy::too_many_arguments)]
    fn try_select_rows(
        &self,
        table: &Table,
        proj: &Projection,
        c: &ContainerMeta,
        reader: &RosReader,
        read_cols: &[usize],
        pred_local: &Predicate,
        width: usize,
        with_positions: bool,
        apply_crunch: bool,
        keep: &[bool],
        metrics: &ScanMetrics,
    ) -> Result<Option<PosRows>> {
        let footer = reader.footer();
        let present = footer.columns.len();
        // Predicate columns that need table defaults stay local (the
        // store has no schema); columns outside `read_cols` evaluate as
        // Null on both paths, so they don't block pushdown.
        let pcols = predicate_cols(pred_local);
        if pcols.iter().any(|&col| read_cols.contains(&col) && col >= present) {
            return Ok(None);
        }
        let send_cols: Vec<usize> =
            read_cols.iter().copied().filter(|&col| col < present).collect();
        if send_cols.is_empty() {
            return Ok(None);
        }
        // Crossover policy: a select charges for bytes scanned; it only
        // pays off when it returns a small fraction of a large fetch.
        let plain_bytes = kept_bytes(footer, keep, &send_cols);
        if plain_bytes < self.scan.pushdown_min_bytes {
            return Ok(None);
        }
        if estimate_selectivity(pred_local, footer, keep) > self.scan.pushdown_max_selectivity {
            metrics.pushdown_fallbacks.inc();
            return Ok(None);
        }
        let req = SelectRequest {
            width,
            predicate: pred_local.clone(),
            keep: keep.to_vec(),
            read_cols: send_cols.clone(),
            agg: None,
        };
        let resp = match self.fs().select(&c.key, &req.encode()?)? {
            Some(bytes) => bytes,
            None => {
                metrics.pushdown_fallbacks.inc();
                return Ok(None);
            }
        };
        metrics.record_select(plain_bytes.saturating_sub(resp.len() as u64));
        let SelectResponse::Rows(blocks) = SelectResponse::decode(&resp)? else {
            return Err(EonError::Internal("rows select answered with partials".into()));
        };

        let mask = self.delete_mask(c)?;
        let mut block_start = Vec::with_capacity(footer.columns[0].blocks.len());
        let mut acc = 0u64;
        for bm in &footer.columns[0].blocks {
            block_start.push(acc);
            acc += bm.rows;
        }
        let mut out = Vec::new();
        for mut br in blocks {
            let b = br.block;
            if b >= block_start.len() || !keep[b] {
                return Err(EonError::Corrupt(format!(
                    "{}: select answered for unexpected block {b}",
                    c.key
                )));
            }
            let rows_in_block = footer.columns[0].blocks[b].rows as usize;
            for j in 0..br.rows.len() {
                let r = br.rows[j];
                if r >= rows_in_block {
                    return Err(EonError::Corrupt(format!(
                        "{}: select row {r} out of block bounds",
                        c.key
                    )));
                }
                let pos = block_start[b] + r as u64;
                if let Some(m) = &mask {
                    if !m[pos as usize] {
                        continue;
                    }
                }
                let mut row = vec![Value::Null; width];
                for &col in read_cols {
                    row[col] = match send_cols.iter().position(|&sc| sc == col) {
                        Some(ci) => std::mem::replace(&mut br.cols[ci][j], Value::Null),
                        // Column added after this container was written
                        // (§6.3): materialize the default locally.
                        None => Self::default_for(table, proj, col),
                    };
                }
                if apply_crunch {
                    if let Some(slice) = &self.crunch {
                        if !slice.keeps_row(&row, proj.seg_cols()) {
                            continue;
                        }
                    }
                }
                out.push((if with_positions { pos } else { 0 }, row));
            }
        }
        Ok(Some(out))
    }

    /// One container's partial aggregates, pushed below the GET when
    /// eligible (no delete vectors, all inputs physically present, big
    /// enough to beat the select overhead), otherwise folded locally
    /// from a plain scan. Either way the returned states are the ones
    /// the local fold would produce.
    #[allow(clippy::too_many_arguments)]
    fn partial_agg_container(
        &self,
        table: &Table,
        proj: &Projection,
        c: &ContainerMeta,
        read_cols: &[usize],
        pred_local: &Predicate,
        width: usize,
        group_local: &[usize],
        aggs_local: &[AggSpec],
        metrics: &ScanMetrics,
    ) -> Result<Partials> {
        let cold = self.depot_cold(c);
        let depot_ok = self.cache_mode == CacheMode::Bypass || cold;
        let no_dvs = self.snapshot.delete_vectors_for(c.oid).is_empty();
        let mut opened = None;
        if depot_ok && no_dvs {
            let reader = opened.insert(self.open_container(c, cold)?);
            let footer = reader.footer();
            let present = footer.columns.len();
            if read_cols.iter().all(|&col| col < present) {
                let keep = Self::prune_blocks(footer, pred_local, metrics);
                if !keep.iter().any(|&k| k) {
                    // Everything pruned: this container contributes the
                    // identity partial, no I/O at all.
                    return aggregate_partial(&Vec::new(), group_local, aggs_local);
                }
                let plain_bytes = kept_bytes(footer, &keep, read_cols);
                if plain_bytes >= self.scan.pushdown_min_bytes {
                    let req = SelectRequest {
                        width,
                        predicate: pred_local.clone(),
                        keep,
                        read_cols: read_cols.to_vec(),
                        agg: Some(AggRequest {
                            group_by: group_local.to_vec(),
                            aggs: aggs_local.to_vec(),
                            max_groups: self.scan.pushdown_max_groups,
                        }),
                    };
                    match self.fs().select(&c.key, &req.encode()?)? {
                        Some(resp) => {
                            metrics.record_select(plain_bytes.saturating_sub(resp.len() as u64));
                            let SelectResponse::Partials(parts) = SelectResponse::decode(&resp)?
                            else {
                                return Err(EonError::Internal(
                                    "agg select answered with rows".into(),
                                ));
                            };
                            return Ok(parts);
                        }
                        None => metrics.pushdown_fallbacks.inc(),
                    }
                }
            }
        }
        // Local fold over the plain scan of this container (rows-mode
        // pushdown may still kick in underneath for the fetch itself),
        // on the footer opened above if there is one.
        let rows = self.scan_container(
            table, proj, c, read_cols, pred_local, width, false, false, true, opened, metrics,
        )?;
        let rows: Vec<Vec<Value>> = rows.into_iter().map(|(_, row)| row).collect();
        aggregate_partial(&rows, group_local, aggs_local)
    }

    /// Forward this scan's pushdown tallies into the query profile, so
    /// `EXPLAIN ANALYZE` shows whether — and how much — the store
    /// filtered below the GET.
    fn annotate_pushdown(&self, metrics: &ScanMetrics) {
        if let Some(p) = &self.scan.profile {
            let selects = metrics.profile_selects.load(Ordering::Relaxed);
            if selects > 0 {
                p.annotate("pushdown_selects", selects as i64);
                p.annotate(
                    "pushdown_bytes_saved",
                    metrics.profile_saved.load(Ordering::Relaxed) as i64,
                );
            }
        }
    }

    /// The shards a scan covers given its distribution and projection.
    fn shards_for(&self, proj: &Projection, global: bool) -> Vec<ShardId> {
        if proj.is_replicated() {
            // One physical copy; for a shard-local scan only the node
            // serving the first session shard reads it (exactly one
            // node cluster-wide), for global scans this node reads it.
            if global || self.my_shards.contains(&self.all_shards[0]) {
                vec![self.replica_shard]
            } else {
                vec![]
            }
        } else if global {
            self.all_shards.clone()
        } else {
            self.my_shards.clone()
        }
    }

    /// Mergeout entry point: all surviving rows of one container in
    /// projection column space (delete vectors applied, sort order
    /// preserved).
    pub fn scan_container_for_merge(
        &self,
        table: &Table,
        proj: &Projection,
        c: &ContainerMeta,
        read_cols: &[usize],
        pred_local: &Predicate,
        width: usize,
    ) -> Result<Vec<Vec<Value>>> {
        let metrics = self.scan_metrics();
        Ok(self
            .scan_container(
                table, proj, c, read_cols, pred_local, width, false, false, false, None, &metrics,
            )?
            .into_iter()
            .map(|(_, row)| row)
            .collect())
    }

    /// Positions of rows matching `predicate`, per container — the DML
    /// path (delete vectors reference container positions).
    pub fn matching_positions(
        &self,
        table: &str,
        predicate: &Predicate,
    ) -> Result<Vec<(Oid, ShardId, Vec<u64>)>> {
        let t = self
            .snapshot
            .table_by_name(table)
            .ok_or_else(|| EonError::UnknownTable(table.to_owned()))?;
        let pred_cols = predicate_cols(predicate);
        let (proj_oid, proj) = self.pick_projection(t, &pred_cols, true, None)?;
        let table_to_proj: HashMap<usize, usize> = proj
            .columns
            .iter()
            .enumerate()
            .map(|(pi, &ti)| (ti, pi))
            .collect();
        let pred_local = remap_predicate(predicate, &table_to_proj)?;
        let read_cols: Vec<usize> = pred_cols.iter().map(|c| table_to_proj[c]).collect();
        let width = proj.columns.len();

        let metrics = self.scan_metrics();
        let mut work: Vec<(ShardId, &ContainerMeta)> = Vec::new();
        for shard in self.shards_for(proj, true) {
            for c in self.snapshot.containers_for(proj_oid, shard) {
                work.push((shard, c));
            }
        }
        let per_container = self.run_scan_tasks(work.len(), &metrics, |i| {
            let (_, c) = work[i];
            self.scan_container(
                t, proj, c, &read_cols, &pred_local, width, true, false, false, None, &metrics,
            )
        })?;
        let mut out = Vec::new();
        for ((shard, c), hits) in work.into_iter().zip(per_container) {
            if !hits.is_empty() {
                out.push((c.oid, shard, hits.into_iter().map(|(p, _)| p).collect()));
            }
        }
        Ok(out)
    }
}

impl TableProvider for NodeProvider {
    fn scan(&self, spec: &ScanSpec) -> Result<Vec<Vec<Value>>> {
        let t = self
            .snapshot
            .table_by_name(&spec.table)
            .ok_or_else(|| EonError::UnknownTable(spec.table.clone()))?;
        let out_cols: Vec<usize> = spec
            .columns
            .clone()
            .unwrap_or_else(|| (0..t.schema.len()).collect());
        let mut needed = out_cols.clone();
        needed.extend(predicate_cols(&spec.predicate));
        needed.sort_unstable();
        needed.dedup();
        let metrics = self.scan_metrics();
        let _span = self
            .scan
            .profile
            .as_ref()
            .map(|p| p.span("scan_pipeline", &format!("node{}:{}", self.node.id.0, spec.table)));

        let global = spec.distribute == eon_exec::Distribution::Global;
        let (proj_oid, proj) =
            self.pick_projection(t, &needed, global, spec.projection.as_deref())?;
        if proj.is_live_aggregate() {
            // Pinned LAP scan: yields the LAP's own layout; predicates
            // and column subsets don't apply to pre-aggregated rows.
            if spec.predicate != Predicate::True || spec.columns.is_some() {
                return Err(EonError::Query(format!(
                    "live aggregate projection {} supports only full unfiltered scans",
                    proj.name
                )));
            }
            let width = proj.columns.len();
            let read_cols: Vec<usize> = (0..width).collect();
            let mut work: Vec<&ContainerMeta> = Vec::new();
            for shard in self.shards_for(proj, global) {
                work.extend(self.snapshot.containers_for(proj_oid, shard));
            }
            let per_container = self.run_scan_tasks(work.len(), &metrics, |i| {
                self.scan_container(
                    t,
                    proj,
                    work[i],
                    &read_cols,
                    &Predicate::True,
                    width,
                    false,
                    false,
                    false,
                    None,
                    &metrics,
                )
            })?;
            return Ok(per_container
                .into_iter()
                .flatten()
                .map(|(_, row)| row)
                .collect());
        }
        let table_to_proj: HashMap<usize, usize> = proj
            .columns
            .iter()
            .enumerate()
            .map(|(pi, &ti)| (ti, pi))
            .collect();
        let pred_local = remap_predicate(&spec.predicate, &table_to_proj)?;
        let read_cols: Vec<usize> = needed.iter().map(|c| table_to_proj[c]).collect();
        let out_local: Vec<usize> = out_cols.iter().map(|c| table_to_proj[c]).collect();
        let width = proj.columns.len();

        // Crunch hash-filter splits only the shard-local fact scan;
        // broadcast/replicated sides must stay complete on every
        // worker or joins lose rows (§4.4).
        let apply_crunch = !global && !proj.is_replicated();
        // Container-level pruning from catalog statistics happens
        // while building the work list, so the pool only sees
        // containers that actually need I/O.
        let mut work: Vec<&ContainerMeta> = Vec::new();
        for shard in self.shards_for(proj, global) {
            for c in self.snapshot.containers_for(proj_oid, shard) {
                let stats = |col: usize| -> Option<ColumnStats> {
                    let table_idx = proj.columns.get(col).copied()?;
                    match c.col_minmax.get(col) {
                        Some(Some((mn, mx))) => Some(ColumnStats {
                            min: mn.clone(),
                            max: mx.clone(),
                            has_null: true, // catalog stats don't track nulls
                        }),
                        _ => {
                            let _ = table_idx;
                            None
                        }
                    }
                };
                if pred_local.could_match(&stats) {
                    work.push(c);
                }
            }
        }
        let per_container = self.run_scan_tasks(work.len(), &metrics, |i| {
            self.scan_container(
                t,
                proj,
                work[i],
                &read_cols,
                &pred_local,
                width,
                false,
                apply_crunch,
                true,
                None,
                &metrics,
            )
        })?;
        self.annotate_pushdown(&metrics);
        let mut rows = Vec::new();
        for (_, row) in per_container.into_iter().flatten() {
            rows.push(out_local.iter().map(|&c| row[c].clone()).collect());
        }
        Ok(rows)
    }

    fn scan_partial_agg(
        &self,
        spec: &ScanSpec,
        group_by: &[usize],
        aggs: &[AggSpec],
    ) -> Result<Option<Partials>> {
        // Crunch slicing filters rows node-side after the fetch;
        // pushing the fold below the GET would fold sliced-away rows
        // in, so crunch workers take the plain path.
        if !self.scan.pushdown || self.crunch.is_some() || !agg_pushable(aggs) {
            return Ok(None);
        }
        let Some(t) = self.snapshot.table_by_name(&spec.table) else {
            return Ok(None); // let the plain path surface the error
        };
        let out_cols: Vec<usize> = spec
            .columns
            .clone()
            .unwrap_or_else(|| (0..t.schema.len()).collect());
        let mut needed = out_cols.clone();
        needed.extend(predicate_cols(&spec.predicate));
        needed.sort_unstable();
        needed.dedup();
        let global = spec.distribute == eon_exec::Distribution::Global;
        let Ok((proj_oid, proj)) =
            self.pick_projection(t, &needed, global, spec.projection.as_deref())
        else {
            return Ok(None);
        };
        if proj.is_live_aggregate() {
            return Ok(None);
        }
        let table_to_proj: HashMap<usize, usize> = proj
            .columns
            .iter()
            .enumerate()
            .map(|(pi, &ti)| (ti, pi))
            .collect();
        let Ok(pred_local) = remap_predicate(&spec.predicate, &table_to_proj) else {
            return Ok(None);
        };
        let read_cols: Vec<usize> = needed.iter().map(|c| table_to_proj[c]).collect();
        let out_local: Vec<usize> = out_cols.iter().map(|c| table_to_proj[c]).collect();
        let width = proj.columns.len();
        // `group_by` / `aggs` index the scan's OUTPUT columns; the
        // per-container fold runs on projection-local rows, so remap.
        let mut group_local = Vec::with_capacity(group_by.len());
        for &g in group_by {
            match out_local.get(g) {
                Some(&l) => group_local.push(l),
                None => return Ok(None),
            }
        }
        let mut aggs_local = Vec::with_capacity(aggs.len());
        for a in aggs {
            let expr = match &a.expr {
                Expr::Col(k) => match out_local.get(*k) {
                    Some(&l) => Expr::col(l),
                    None => return Ok(None),
                },
                other => other.clone(), // CountStar ignores its expr
            };
            aggs_local.push(AggSpec { func: a.func, expr });
        }

        let metrics = self.scan_metrics();
        let _span = self
            .scan
            .profile
            .as_ref()
            .map(|p| p.span("scan_pipeline", &format!("node{}:{}", self.node.id.0, spec.table)));
        let mut work: Vec<&ContainerMeta> = Vec::new();
        for shard in self.shards_for(proj, global) {
            for c in self.snapshot.containers_for(proj_oid, shard) {
                let stats = |col: usize| -> Option<ColumnStats> {
                    match c.col_minmax.get(col) {
                        Some(Some((mn, mx))) => Some(ColumnStats {
                            min: mn.clone(),
                            max: mx.clone(),
                            has_null: true,
                        }),
                        _ => None,
                    }
                };
                if pred_local.could_match(&stats) {
                    work.push(c);
                }
            }
        }
        let per_container = self.run_scan_tasks(work.len(), &metrics, |i| {
            self.partial_agg_container(
                t,
                proj,
                work[i],
                &read_cols,
                &pred_local,
                width,
                &group_local,
                &aggs_local,
                &metrics,
            )
        })?;
        // Float addition is order-sensitive: folding per container and
        // merging would not be byte-identical to the single local fold.
        // Any Float sum state means the whole query falls back.
        let float_sum = per_container.iter().any(|parts| {
            parts.iter().any(|pg| {
                pg.states
                    .iter()
                    .any(|s| matches!(s, AggState::Sum { acc: Value::Float(_) }))
            })
        });
        if float_sum {
            metrics.pushdown_fallbacks.inc();
            return Ok(None);
        }
        let mut parts = per_container;
        // The identity partial makes zero-container global aggregates
        // produce their init group, matching the local path's SQL
        // semantics; with groups present it merges as a no-op.
        parts.push(aggregate_partial(&Vec::new(), &group_local, &aggs_local)?);
        let merged = merge_partials(parts, &aggs_local);
        self.annotate_pushdown(&metrics);
        Ok(Some(merged))
    }

    fn num_columns(&self, table: &str) -> Result<usize> {
        Ok(self
            .snapshot
            .table_by_name(table)
            .ok_or_else(|| EonError::UnknownTable(table.to_owned()))?
            .schema
            .len())
    }
}
