//! The Enterprise [`TableProvider`]: scans the node-local disks of the
//! shared-nothing cluster, merging in WOS-resident rows (§2.3 — queries
//! must see buffered data).
//!
//! `LocalShards` scans read the segments this node serves for the
//! query. `Global` scans emulate Enterprise's runtime broadcast: the
//! node pulls every segment from whichever node serves it — exactly the
//! network traffic the fixed layout forces for non-co-segmented joins.

use std::collections::HashMap;
use std::sync::Arc;

use eon_columnar::{Batch, BlockFilter, BlockRows, Column, ReadStats, RosReader};
use eon_exec::{Distribution, Pieces, ScanSpec, TableProvider};
use eon_types::{EonError, Result};

use crate::db::{wos_key, EnterpriseNode, EnterpriseTable};

/// Per-query, per-node scan context, borrowed from the query.
pub struct EnterpriseProvider<'a> {
    /// The executing node.
    pub node: &'a EnterpriseNode,
    /// All cluster nodes (for broadcast reads).
    pub cluster: &'a [Arc<EnterpriseNode>],
    /// For each segment, the node serving it this query.
    pub servers: &'a [usize],
    /// The query's one snapshot of the table map.
    pub tables: &'a HashMap<String, EnterpriseTable>,
    /// Segments this node serves for the query.
    pub segments: &'a [usize],
}

impl EnterpriseProvider<'_> {
    fn table(&self, name: &str) -> Result<&EnterpriseTable> {
        self.tables
            .get(name)
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }

    /// One scan over the segments this node serves (or, broadcast,
    /// every segment): their containers through the block-filter kernel,
    /// one piece per surviving block, and their WOS buffers — unsorted
    /// and unencoded (§2.3) — tested by the kernel's predicate loops
    /// where they lie, one piece each.
    fn scan_one(&self, spec: &ScanSpec) -> Result<Pieces> {
        let t = self.table(&spec.table)?;
        let out_cols: Vec<usize> = spec
            .columns
            .clone()
            .unwrap_or_else(|| (0..t.schema.len()).collect());
        let needed = spec.needed_columns(t.schema.len());
        // Ascending, as `needed` is: a predicate-only column is never built.
        let kept: Vec<usize> = needed.iter().copied().filter(|c| out_cols.contains(c)).collect();
        let filter = BlockFilter {
            width: t.schema.len(),
            pred: &spec.predicate,
            read_cols: &needed,
            keep_cols: &kept,
            consts: &[],
            row_mask: None,
        };
        let sources: Vec<(&EnterpriseNode, usize)> = match spec.distribute {
            Distribution::LocalShards => self.segments.iter().map(|&seg| (self.node, seg)).collect(),
            // Broadcast: pull every segment from its server — this is
            // the cross-node traffic Enterprise pays for joins that
            // Eon's co-segmentation avoids (§9).
            Distribution::Global => {
                self.servers.iter().enumerate().map(|(seg, &n)| (&*self.cluster[n], seg)).collect()
            }
        };
        let mut pieces = Vec::new();
        for (source, seg) in sources {
            scan_containers(source, t, seg, &filter, &out_cols, &mut pieces)?;
            let wos = source.wos.read(wos_key(t.projection_oid(), seg), |buf| {
                let cols: Vec<&Column> = buf.cols().iter().collect();
                let keep = spec.predicate.eval_block(&cols, buf.rows());
                let idx: Vec<usize> = (0..buf.rows()).filter(|&r| keep[r]).collect();
                Batch::new(out_cols.iter().map(|&c| cols[c].gather(&idx)).collect(), idx.len())
            });
            pieces.extend(wos.filter(|b| b.rows() > 0));
        }
        Ok(Pieces { width: out_cols.len(), batches: pieces })
    }
}

impl TableProvider for EnterpriseProvider<'_> {
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>> {
        specs.iter().map(|spec| self.scan_one(spec)).collect()
    }
}

/// Segment `seg`'s containers on `source` through the block-filter
/// kernel Eon's scans run — footer pruning, the predicate on encoded
/// views, one wave of ranged reads — each surviving block appended to
/// `pieces` as a batch of the output columns `out_cols`.
fn scan_containers(
    source: &EnterpriseNode,
    t: &EnterpriseTable,
    seg: usize,
    filter: &BlockFilter<'_>,
    out_cols: &[usize],
    pieces: &mut Vec<Batch>,
) -> Result<()> {
    let disk = source.disk.as_ref();
    let keys: Vec<String> = (source.containers.read().iter())
        .filter(|c| c.projection == t.projection_oid() && c.segment == seg)
        .map(|c| c.key.clone())
        .collect();
    for key in keys {
        let reader = RosReader::open(disk, &key)?;
        let keep = reader.footer().keep_blocks(filter.pred);
        if !keep.contains(&true) {
            continue;
        }
        // A node-local disk charges nothing per request, so only
        // adjacent blocks share a read.
        let blocks = reader.filter_blocks(disk, filter, &keep, 0, &mut ReadStats::default())?;
        pieces.extend(blocks.into_iter().map(|br| block_output(br, filter.keep_cols, out_cols)));
    }
    Ok(())
}

/// One kernel block — carrying the columns `kept` names, in that
/// (ascending) order — as a batch of the output columns `out_cols`.
/// Each column moves to its last use; an earlier use is a copy.
fn block_output(br: BlockRows, kept: &[usize], out_cols: &[usize]) -> Batch {
    let rows = br.rows.len();
    let mut fetched: Vec<_> = br.cols.into_iter().map(Some).collect();
    let cols = out_cols.iter().enumerate().map(|(i, col)| {
        let k = kept.binary_search(col).expect("kept columns cover the output");
        let column =
            if out_cols[i + 1..].contains(col) { fetched[k].clone() } else { fetched[k].take() };
        column.expect("a column is moved at its last use only")
    });
    Batch::new(cols.collect(), rows)
}
