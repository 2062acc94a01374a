//! The Eon [`TableProvider`]: scans that resolve through the catalog
//! snapshot, read container blocks through the node's cache, prune by
//! min/max statistics at container and block level (§2.1), apply
//! delete vectors, and honor session shard assignments (§4) and crunch
//! slices (§4.4).
//!
//! Scans run as a *pipeline* (see DESIGN.md "Scan pipeline"): the
//! containers of every scan of a local phase fan out as one wave across
//! a bounded per-node worker pool, so shared-storage latency on one
//! container overlaps decode and filter compute on another, and every
//! container goes through the one
//! block-filter kernel, [`RosReader::filter_blocks`] — one wave of
//! coalesced ranged reads, predicates on encoded views, non-predicate
//! columns decoded only for blocks with surviving rows. Footers are
//! opened once per node and kept. A scan's output is its surviving
//! blocks, each one piece, in container order and then block order —
//! never concatenated here — so output does not depend on the pool
//! width.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use eon_cache::CacheMode;
use eon_catalog::{CatalogState, ContainerMeta, Table};
use eon_cluster::pool::run_indexed;
use eon_cluster::{NodeRuntime, ScanMetrics};
use eon_columnar::pruning::ColumnStats;
use eon_columnar::{
    hash_rows, Batch, BlockFilter, BlockRows, Column, DeleteVector, Predicate, Projection,
    ReadStats, RosReader,
};
use eon_exec::crunch::CrunchSlice;
use eon_exec::{Pieces, ScanSpec, TableProvider};
use eon_obs::QueryProfile;
use eon_storage::FileSystem;
use eon_types::{EonError, Oid, Result, ShardId, Value, ValueRef};

/// Coalescing gap for node reads: fetch up to this many dead bytes
/// between two surviving blocks rather than issue a second request in
/// the container's wave.
pub const DEFAULT_COALESCE_GAP: u64 = 64 * 1024;

/// Scan-pipeline tuning, carried per session (built by
/// `EonDb::scan_options`).
#[derive(Clone)]
pub struct ScanOptions {
    /// Container-scan worker threads per node: the node's
    /// execution-slot budget (§4.2) for queries and DML, so a scan
    /// can't out-parallelize its admission, and 1 for mergeout.
    pub workers: usize,
    /// Per-query profile for scan spans, when one is being collected.
    pub profile: Option<QueryProfile>,
    /// Session cancellation, checked at every scan-task claim so a
    /// cancelled session stops fetching instead of finishing the scan.
    pub cancel: Option<eon_types::CancelToken>,
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
    /// Scan-pipeline tuning (worker pool, metrics, cancellation).
    pub scan: ScanOptions,
}

/// A scan resolved against the catalog snapshot: the projection that
/// answers it, its predicate and columns in that projection's column
/// space, and the containers catalog statistics could not rule out.
struct ResolvedScan<'a> {
    table: &'a Table,
    proj: &'a Projection,
    pred: Predicate,
    /// Columns to read (output plus predicate columns).
    read_cols: Vec<usize>,
    /// The scan's output columns, in output order.
    out_local: Vec<usize>,
    /// Crunch hash-filter splits only the shard-local fact scan;
    /// broadcast/replicated sides must stay complete on every worker
    /// or joins lose rows (§4.4).
    apply_crunch: bool,
    work: Vec<(ShardId, &'a ContainerMeta)>,
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
    /// Merged delete-vector keep mask for a container, if any deletes
    /// exist.
    fn delete_mask(&self, c: &ContainerMeta) -> Result<Option<Vec<bool>>> {
        let dvs = self.snapshot.delete_vectors_for(c.oid);
        if dvs.is_empty() {
            return Ok(None);
        }
        let mut merged = DeleteVector::default();
        for dv in dvs {
            let data = self.node.cache.reader(self.cache_mode, None).read(&dv.key)?;
            merged = merged.merge(&DeleteVector::decode(&data)?);
        }
        Ok(Some(merged.keep_mask(c.rows)))
    }

    /// This node's scan-pipeline metric handles, registered with the node.
    pub(crate) fn metrics(&self) -> &ScanMetrics {
        &self.node.scan_metrics
    }

    /// Run `count` independent scan tasks on at most `width` of the
    /// session's scan workers and return their results in task order, so
    /// callers see exactly the iteration order of a one-worker scan. The
    /// lowest-index error wins; the pool claims nothing further once a
    /// task has failed.
    fn run_scan_tasks<T, F>(&self, width: usize, count: usize, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let metrics = self.metrics();
        metrics.pool_tasks.add(count as u64);
        let cancel = self.scan.cancel.as_ref();
        run_indexed(width, count, cancel, Some(&metrics.queue_wait), f)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Table default for a projection-local column (materialized for
    /// columns added after a container was written, §6.3).
    fn default_for(table: &Table, proj: &Projection, col: usize) -> Value {
        let table_idx = proj.columns[col];
        table.defaults.get(table_idx).cloned().unwrap_or(Value::Null)
    }

    /// Resolve a scan: table → needed columns → projection → predicate
    /// and columns in projection space → work list. Container-level
    /// pruning from catalog statistics happens here, so the pool only
    /// sees containers that actually need I/O. Read-only on the catalog.
    fn resolve_scan(&self, spec: &ScanSpec) -> Result<ResolvedScan<'_>> {
        let table = self
            .snapshot
            .table_by_name(&spec.table)
            .ok_or_else(|| EonError::UnknownTable(spec.table.clone()))?;
        let out_cols: Vec<usize> = spec
            .columns
            .clone()
            .unwrap_or_else(|| (0..table.schema.len()).collect());
        let needed = spec.needed_columns(table.schema.len());
        let global = spec.distribute == eon_exec::Distribution::Global;
        let (proj_oid, proj) =
            table.pick_projection(&needed, global, spec.projection.as_deref())?;

        let (pred, mut read_cols, out_local) = if proj.is_live_aggregate() {
            // Pinned LAP scan: yields the LAP's own layout; predicates
            // and column subsets don't apply to pre-aggregated rows.
            if spec.predicate != Predicate::True || spec.columns.is_some() {
                return Err(EonError::Query(format!(
                    "live aggregate projection {} supports only full unfiltered scans",
                    proj.name
                )));
            }
            let all: Vec<usize> = (0..proj.columns.len()).collect();
            (Predicate::True, all.clone(), all)
        } else {
            let table_to_proj: HashMap<usize, usize> = proj
                .columns
                .iter()
                .enumerate()
                .map(|(pi, &ti)| (ti, pi))
                .collect();
            // Only a pinned projection can lack a column (an unpinned
            // pick qualified on every needed one); `needed` covers the
            // predicate's columns, so this error names the projection
            // before `remap_predicate` could fail without it.
            let local = |c: &usize| {
                table_to_proj.get(c).copied().ok_or_else(|| {
                    EonError::Query(format!("projection {} lacks column {c}", proj.name))
                })
            };
            let read_cols = needed.iter().map(local).collect::<Result<_>>()?;
            (
                remap_predicate(&spec.predicate, &table_to_proj)?,
                read_cols,
                out_cols.iter().map(local).collect::<Result<_>>()?,
            )
        };

        let apply_crunch = !global && !proj.is_replicated() && !proj.is_live_aggregate();
        if apply_crunch && self.crunch.is_some() {
            // The slice hashes every row's segmentation columns.
            for c in proj.seg_cols() {
                if !read_cols.contains(c) {
                    read_cols.push(*c);
                }
            }
        }

        let mut work = Vec::new();
        for shard in self.shards_for(proj, global) {
            for c in self.snapshot.containers_for(proj_oid, shard) {
                let stats = |col: usize| {
                    let (min, max) = c.col_minmax.get(col)?.as_ref()?;
                    // Catalog stats don't track nulls.
                    Some(ColumnStats { min, max, has_null: true })
                };
                if pred.could_match(&stats) {
                    work.push((shard, c));
                }
            }
        }
        Ok(ResolvedScan {
            table,
            proj,
            pred,
            read_cols,
            out_local,
            apply_crunch,
            work,
        })
    }

    /// Scan one container: its surviving blocks, each carrying the
    /// scan's output columns (columns the container lacks carry the
    /// table default).
    ///
    /// The node's kept footer, or one tail read sized from the catalog
    /// on a first open → prune blocks on footer min/max stats → run the
    /// block-filter kernel (one wave of ranged reads) through this
    /// node's filesystem with the delete vector as its row mask →
    /// [`assemble`](Self::assemble).
    fn scan_container(&self, rs: &ResolvedScan, c: &ContainerMeta) -> Result<Vec<BlockRows>> {
        let fs = &self.node.cache.reader(self.cache_mode, Some(c.size_bytes));
        let reader = self.node.footer(&c.key, || RosReader::open_sized(fs, &c.key, c.size_bytes))?;
        let keep = reader.footer().keep_blocks(&rs.pred);
        self.metrics().blocks_pruned.add(keep.iter().filter(|&&k| !k).count() as u64);
        if !keep.iter().any(|&k| k) {
            return Ok(Vec::new());
        }
        // Columns the container holds, and the §6.3 default of each
        // column added to the table after it was written.
        let present = reader.column_count();
        let (held, added): (Vec<usize>, Vec<usize>) =
            rs.read_cols.iter().partition(|&&col| col < present);
        let absent: Vec<(usize, Value)> = added
            .into_iter()
            .map(|col| (col, Self::default_for(rs.table, rs.proj, col)))
            .collect();
        // The held columns the scan keeps: its output, and the
        // segmentation columns a crunch slice hashes. A column read only
        // for the predicate is tested and never materialized.
        let crunch = self.crunch.is_some() && rs.apply_crunch;
        let kept: Vec<usize> = (held.iter().copied())
            .filter(|c| rs.out_local.contains(c) || (crunch && rs.proj.seg_cols().contains(c)))
            .collect();
        let mask = self.delete_mask(c)?;
        let filter = BlockFilter {
            width: rs.proj.columns.len(),
            pred: &rs.pred,
            read_cols: &held,
            keep_cols: &kept,
            consts: &absent,
            row_mask: mask.as_deref(),
        };
        let mut rstats = ReadStats::default();
        let blocks = reader.filter_blocks(fs, &filter, &keep, DEFAULT_COALESCE_GAP, &mut rstats)?;
        self.metrics().record_io(&rstats);
        blocks.into_iter().map(|br| self.assemble(rs, reader.key(), br, &kept, &absent)).collect()
    }

    /// Turn one surviving block (carrying columns `cols`) into the
    /// scan's output columns: the crunch slice, when one applies, keeps
    /// the rows whose segmentation columns hash into it; defaults fill
    /// `absent` columns; every fetched column is moved, not copied, and
    /// gathered only when the slice dropped rows.
    fn assemble(
        &self,
        rs: &ResolvedScan,
        key: &str,
        mut br: BlockRows,
        cols: &[usize],
        absent: &[(usize, Value)],
    ) -> Result<BlockRows> {
        if br.cols.len() != cols.len() || br.cols.iter().any(|c| c.len() != br.rows.len()) {
            return Err(EonError::Corrupt(format!(
                "{key}: survivors of block {} do not fit the container",
                br.block
            )));
        }
        let rows = br.rows.len();
        let default_of = |col: usize| {
            let found = absent.iter().find(|(c, _)| *c == col);
            found.map_or(ValueRef::Null, |(_, v)| v.as_ref())
        };
        // Projection-local column `col` of this block: fetched (its
        // slot), a §6.3 default, or (nobody reads it) Null.
        let slot = |col: usize| cols.iter().position(|&c| c == col);
        // The crunch slice's rows, when it applies and drops some.
        let kept = self.crunch.as_ref().filter(|_| rs.apply_crunch).and_then(|slice| {
            let seg: Vec<Cow<Column>> = (rs.proj.seg_cols().iter())
                .map(|&c| match slot(c) {
                    Some(k) => Cow::Borrowed(&br.cols[k]),
                    None => Cow::Owned(Column::constant(default_of(c), rows)),
                })
                .collect();
            let hashes = hash_rows(&seg.iter().map(|c| c.as_ref()).collect::<Vec<_>>(), rows);
            let kept: Vec<usize> = (0..rows).filter(|&k| slice.keeps(hashes[k])).collect();
            (kept.len() < rows).then_some(kept)
        });
        let mut fetched: Vec<Option<Column>> =
            std::mem::take(&mut br.cols).into_iter().map(Some).collect();
        let mut out: Vec<Column> = Vec::with_capacity(rs.out_local.len());
        for &col in &rs.out_local {
            let column = match slot(col) {
                // An output column named twice is a copy of the first.
                Some(k) => fetched[k].take().unwrap_or_else(|| {
                    out[rs.out_local.iter().position(|&o| o == col).expect("named before")].clone()
                }),
                None => Column::constant(default_of(col), rows),
            };
            out.push(column);
        }
        if let Some(kept) = kept {
            out = out.iter().map(|c| c.gather(&kept)).collect();
            br.rows = kept.iter().map(|&k| br.rows[k]).collect();
        }
        br.cols = out;
        Ok(br)
    }

    /// The profile span covering one wave of scans on this node,
    /// labelled `node<id>:<t1>+<t2>+…` with the tables it reads.
    fn pipeline_span(&self, specs: &[&ScanSpec]) -> Option<eon_obs::SpanGuard> {
        self.scan.profile.as_ref().map(|p| {
            let tables: Vec<&str> = specs.iter().map(|s| s.table.as_str()).collect();
            p.span("scan_pipeline", &format!("node{}:{}", self.node.id.0, tables.join("+")))
        })
    }

    /// The shards a scan covers given its distribution and projection.
    fn shards_for(&self, proj: &Projection, global: bool) -> Vec<ShardId> {
        if proj.is_replicated() {
            // One physical copy; for a shard-local scan only the worker
            // serving the first session shard reads it (exactly one
            // worker cluster-wide: under crunch scaling, slice 0 of
            // that shard), for global scans this node reads it.
            let first_worker = self.crunch.is_none_or(|slice| slice.worker == 0);
            if global || (first_worker && self.my_shards.contains(&self.all_shards[0])) {
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
    /// preserved), one piece per surviving block.
    pub fn scan_container_for_merge(
        &self,
        table: &Table,
        proj: &Projection,
        c: &ContainerMeta,
    ) -> Result<Vec<Batch>> {
        let all: Vec<usize> = (0..proj.columns.len()).collect();
        let rs = ResolvedScan {
            table,
            proj,
            pred: Predicate::True,
            read_cols: all.clone(),
            out_local: all,
            apply_crunch: false,
            work: Vec::new(),
        };
        let blocks = self.scan_container(&rs, c)?.into_iter();
        Ok(blocks.map(|br| Batch::new(br.cols, br.rows.len())).collect())
    }

    /// Positions of rows matching `predicate`, per container — the DML
    /// path (delete vectors reference container positions).
    pub fn matching_positions(
        &self,
        table: &str,
        predicate: &Predicate,
    ) -> Result<Vec<(Oid, ShardId, Vec<u64>)>> {
        let spec = ScanSpec::new(table)
            .columns(Vec::new())
            .predicate(predicate.clone())
            .global();
        let rs = self.resolve_scan(&spec)?;
        let per_container = self.run_scan_tasks(self.scan.workers, rs.work.len(), |i| {
            self.scan_container(&rs, rs.work[i].1)
        })?;
        let mut out = Vec::new();
        for ((shard, c), blocks) in rs.work.iter().zip(per_container) {
            let position = |br: &BlockRows, r: usize| br.first + r as u64;
            let positions: Vec<u64> =
                blocks.iter().flat_map(|br| br.rows.iter().map(|&r| position(br, r))).collect();
            if !positions.is_empty() {
                out.push((c.oid, *shard, positions));
            }
        }
        Ok(out)
    }
}

impl TableProvider for NodeProvider {
    /// A local phase's scans as one wave: every spec resolved before any
    /// I/O, then every container of every scan claimed from one pool, as
    /// wide as the widest scan would run alone — never a thread a scan's
    /// own pool would not have had, so a wave of one-container scans runs
    /// inline. Each scan's pieces are its surviving blocks.
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>> {
        let _span = self.pipeline_span(specs);
        let scans = specs.iter().map(|spec| self.resolve_scan(spec)).collect::<Result<Vec<_>>>()?;
        let tasks: Vec<(usize, &ContainerMeta)> = scans
            .iter()
            .enumerate()
            .flat_map(|(s, rs)| rs.work.iter().map(move |&(_, c)| (s, c)))
            .collect();
        let width = scans.iter().map(|rs| rs.work.len().min(self.scan.workers)).max();
        let per_container = self.run_scan_tasks(width.unwrap_or(0), tasks.len(), |i| {
            let (s, c) = tasks[i];
            self.scan_container(&scans[s], c)
        })?;
        // Every surviving block of every container, in container order:
        // one piece each, moved.
        let empty = |rs: &ResolvedScan| Pieces { width: rs.out_local.len(), batches: Vec::new() };
        let mut out: Vec<Pieces> = scans.iter().map(empty).collect();
        for (&(s, _), container) in tasks.iter().zip(per_container) {
            let pieces = container.into_iter().map(|br| Batch::new(br.cols, br.rows.len()));
            out[s].batches.extend(pieces);
        }
        Ok(out)
    }
}
