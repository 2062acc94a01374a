//! The reference provider: tables as in-memory rows, every scan a
//! `Predicate::eval_row` over each row — no containers, encodings,
//! block pruning, depot or shards.
//!
//! Eon's `NodeProvider` and Enterprise's `EnterpriseProvider` scan ROS
//! containers with the same block-filter kernel
//! (`eon_columnar::RosReader::filter_blocks`), so an answer one of them
//! gives cannot check that kernel. [`MemProvider`] shares nothing with
//! it below the plan: `execute(plan, &MemProvider::single(tables))`
//! over the rows a database was loaded with is the answer that
//! database's scans must reproduce. Its columns come out of
//! `Batch::from_rows`, so it also shares nothing with the kernel's
//! dictionary-coded output.

use std::collections::HashMap;

use eon_columnar::segment::shard_of_row;
use eon_columnar::Batch;
use eon_types::{EonError, Result, Value};

use crate::execute::{Pieces, TableProvider};
use crate::plan::{Distribution, ScanSpec};

/// Tables as materialized rows in table column order. `LocalShards`
/// scans return the node's slice — one shard per node, every table
/// segmented on its first column — and `Global` scans return every
/// row: segmentation without storage. A scan with no column list
/// returns as many columns as the table's first row has (none for an
/// empty table).
pub struct MemProvider {
    pub tables: HashMap<String, Vec<Vec<Value>>>,
    pub node: usize,
    pub nodes_total: usize,
}

impl MemProvider {
    /// The whole of every table on one node: `execute` over it runs a
    /// plan as one unsegmented engine.
    pub fn single(tables: HashMap<String, Vec<Vec<Value>>>) -> Self {
        MemProvider {
            tables,
            node: 0,
            nodes_total: 1,
        }
    }

    fn scan_one(&self, spec: &ScanSpec) -> Result<Batch> {
        let rows = self
            .tables
            .get(&spec.table)
            .ok_or_else(|| EonError::UnknownTable(spec.table.clone()))?;
        let width = rows.first().map_or(0, |r| r.len());
        let mut out = Vec::new();
        for row in rows {
            if spec.distribute == Distribution::LocalShards
                && shard_of_row(row, &[0], self.nodes_total) != self.node
            {
                continue;
            }
            if !spec.predicate.eval_row(row) {
                continue;
            }
            let projected: Vec<Value> = match &spec.columns {
                Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
                None => row.clone(),
            };
            out.push(projected);
        }
        Ok(Batch::from_rows(&out, spec.columns.as_ref().map_or(width, |c| c.len())))
    }
}

impl TableProvider for MemProvider {
    /// One piece per scan.
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>> {
        specs.iter().map(|spec| self.scan_one(spec).map(Pieces::one)).collect()
    }
}
