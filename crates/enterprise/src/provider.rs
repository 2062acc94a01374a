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

use eon_columnar::pruning::ColumnStats;
use eon_columnar::{Batch, RosReader};
use eon_exec::{Distribution, ScanSpec, TableProvider};
use eon_types::{EonError, Result, Value};

use crate::db::{wos_key, EnterpriseNode, EnterpriseTable};

/// Per-query, per-node scan context.
pub struct EnterpriseProvider {
    /// The executing node.
    pub node: Arc<EnterpriseNode>,
    /// All cluster nodes (for broadcast reads).
    pub cluster: Vec<Arc<EnterpriseNode>>,
    /// For each segment, the node serving it this query.
    pub servers: Vec<usize>,
    pub tables: HashMap<String, EnterpriseTable>,
    /// Segments this node serves for the query.
    pub segments: Vec<usize>,
}

impl EnterpriseProvider {
    fn table(&self, name: &str) -> Result<&EnterpriseTable> {
        self.tables
            .get(name)
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }

    /// Scan one segment's containers + WOS rows from `source`.
    #[allow(clippy::too_many_arguments)]
    fn scan_segment(
        &self,
        source: &EnterpriseNode,
        t: &EnterpriseTable,
        seg: usize,
        spec: &ScanSpec,
        out_cols: &[usize],
        needed: &[usize],
        rows: &mut Vec<Vec<Value>>,
    ) -> Result<()> {
        let width = t.schema.len();
        let containers: Vec<crate::db::LocalContainer> = source
            .containers
            .read()
            .iter()
            .filter(|c| c.projection == t.projection_oid() && c.segment == seg)
            .cloned()
            .collect();
        for c in containers {
            let reader = RosReader::open(source.disk.as_ref(), &c.key)?;
            let footer = reader.footer();
            let nblocks = footer
                .columns
                .first()
                .map(|col| col.blocks.len())
                .unwrap_or(0);
            let mut keep = vec![true; nblocks];
            for (b, slot) in keep.iter_mut().enumerate() {
                let stats = |col: usize| {
                    let m = footer.columns.get(col)?.blocks.get(b)?;
                    Some(ColumnStats { min: &m.min, max: &m.max, has_null: m.has_null })
                };
                *slot = spec.predicate.could_match(&stats);
            }
            if !keep.iter().any(|&k| k) {
                continue;
            }
            let mut col_data: HashMap<usize, Vec<Option<Vec<Value>>>> = HashMap::new();
            for &col in needed {
                col_data.insert(
                    col,
                    reader.read_column_blocks(source.disk.as_ref(), col, &keep)?,
                );
            }
            for b in 0..nblocks {
                if !keep[b] {
                    continue;
                }
                let n_rows = footer.columns[0].blocks[b].rows as usize;
                for r in 0..n_rows {
                    let mut row = vec![Value::Null; width];
                    for &col in needed {
                        if let Some(blocks) = col_data.get(&col) {
                            if let Some(vals) = &blocks[b] {
                                row[col] = vals[r].clone();
                            }
                        }
                    }
                    if !spec.predicate.eval_row(&row) {
                        continue;
                    }
                    rows.push(out_cols.iter().map(|&c| row[c].clone()).collect());
                }
            }
        }
        // WOS rows for this segment (unsorted, unencoded, §2.3).
        for row in source.wos.rows(wos_key(t.projection_oid(), seg)) {
            if !spec.predicate.eval_row(&row) {
                continue;
            }
            rows.push(out_cols.iter().map(|&c| row[c].clone()).collect());
        }
        Ok(())
    }
}

impl TableProvider for EnterpriseProvider {
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Batch>> {
        specs.iter().map(|spec| self.scan_one(spec)).collect()
    }
}

impl EnterpriseProvider {
    /// Decode to rows, `eval_row` each one — deliberately not the Eon
    /// scan kernel, so answers from here check it independently — and
    /// transpose to a batch only at this boundary.
    fn scan_one(&self, spec: &ScanSpec) -> Result<Batch> {
        let t = self.table(&spec.table)?;
        let out_cols: Vec<usize> = spec
            .columns
            .clone()
            .unwrap_or_else(|| (0..t.schema.len()).collect());
        let needed = spec.needed_columns(t.schema.len());

        let mut rows = Vec::new();
        match spec.distribute {
            Distribution::LocalShards => {
                for &seg in &self.segments {
                    self.scan_segment(&self.node, t, seg, spec, &out_cols, &needed, &mut rows)?;
                }
            }
            Distribution::Global => {
                // Broadcast: pull every segment from its server — this
                // is the cross-node traffic Enterprise pays for joins
                // that Eon's co-segmentation avoids (§9).
                for (seg, &server) in self.servers.iter().enumerate() {
                    let source = self.cluster[server].clone();
                    self.scan_segment(&source, t, seg, spec, &out_cols, &needed, &mut rows)?;
                }
            }
        }
        Ok(Batch::from_rows(&rows, out_cols.len()))
    }
}
