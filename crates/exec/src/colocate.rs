//! Plan rule: co-located joins (DESIGN.md "Plan rules").
//!
//! Every segmented projection hashes its segmentation columns into the
//! one 32-bit space the shards partition (§3.1), so two scans segmented
//! on the columns a join equates keep matching rows in the same shard,
//! and the join needs no broadcast (§4). [`co_locate_joins`] turns the
//! `Global` right input of such a join into a shard-local one. It asks
//! the catalog which projection each scan reads, so it runs after
//! `prune_columns`: that choice depends on the pruned column list, and
//! pruning leaves the scan it pins as it is.

use crate::expr::Expr;
use crate::plan::{Distribution, Plan, ScanSpec};
use crate::prune::{width, ScanWidth};

/// How the projection that answers a scan stores its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Hash-segmented on these table columns, in segmentation order.
    Segmented(Vec<usize>),
    /// Every row on every subscriber.
    Replicated,
    /// A Live Aggregate Projection: pre-aggregated rows in its own layout.
    LiveAggregate,
}

/// The projection a scan reads, by name and layout, or `None` when the
/// catalog cannot answer the scan. It must be the projection the scan
/// itself will pick.
pub type SegOf<'a> = &'a dyn Fn(&ScanSpec) -> Option<(String, Layout)>;

/// `plan` with the right input of every co-segmented join read
/// shard-local. A `Join` of any kind qualifies when:
///
/// * its right input is `Filter` / `Project` over one `Global` scan, and
///   every right key is a column of that scan;
/// * every left key traces — through `Filter`, `Sort`, `Limit`, a
///   `Project` column and the left side of joins — to one `LocalShards`
///   scan;
/// * `seg_of` says both scans read a segmented projection (neither
///   replicated nor a Live Aggregate Projection) with as many
///   segmentation columns, asking for the right scan as the shard-local
///   scan it would become;
/// * for each segmentation position `i`, some key pair equates the left
///   projection's `i`-th segmentation column with the right one's: the
///   segmentation hash is positional.
///
/// The right scan becomes `LocalShards`, pinned to the projection
/// `seg_of` named. That is exact for every join kind, with crunch slices
/// or without: values that compare equal hash equal (an `Int` hashes as
/// the equal `Float`), so the rows a key pair matches sit in one shard
/// and one slice, on one node. Applying the rule twice changes nothing.
pub fn co_locate_joins(plan: &Plan, scan_width: ScanWidth, seg_of: SegOf) -> Plan {
    match plan.map_inputs(|input| co_locate_joins(input, scan_width, seg_of)) {
        Plan::Join { left, right, left_keys, right_keys, kind } => {
            let local = co_located(&left, &right, &left_keys, &right_keys, scan_width, seg_of);
            Plan::Join { left, right: local.map_or(right, Box::new), left_keys, right_keys, kind }
        }
        plan => plan,
    }
}

/// `right` read shard-local, if the join qualifies.
fn co_located(
    left: &Plan,
    right: &Plan,
    left_keys: &[usize],
    right_keys: &[usize],
    scan_width: ScanWidth,
    seg_of: SegOf,
) -> Option<Plan> {
    let (r, r_cols) = traced(right, right_keys, scan_width, false)?;
    let (l, l_cols) = traced(left, left_keys, scan_width, true)?;
    if r.distribute != Distribution::Global || l.distribute != Distribution::LocalShards {
        return None;
    }
    let local = ScanSpec { distribute: Distribution::LocalShards, ..r.clone() };
    let (Some((_, Layout::Segmented(l_seg))), Some((name, Layout::Segmented(r_seg)))) =
        (seg_of(l), seg_of(&local))
    else {
        return None;
    };
    let pairs: Vec<(usize, usize)> = l_cols.into_iter().zip(r_cols).collect();
    let aligned = l_seg.len() == r_seg.len()
        && l_seg.iter().zip(&r_seg).all(|(&l, &r)| pairs.contains(&(l, r)));
    aligned.then(|| with_scan(right, &ScanSpec { projection: Some(name), ..local }))
}

/// The one scan every column of `cols` (outputs of `plan`) comes from,
/// with the table column each one is. `probe` lets a column also pass
/// through `Sort`, `Limit` and the left side of joins.
fn traced<'a>(
    plan: &'a Plan,
    cols: &[usize],
    scan_width: ScanWidth,
    probe: bool,
) -> Option<(&'a ScanSpec, Vec<usize>)> {
    let mut scan: Option<&ScanSpec> = None;
    let mut table_cols = Vec::with_capacity(cols.len());
    for &col in cols {
        let (spec, table_col) = origin(plan, col, scan_width, probe)?;
        if scan.is_some_and(|s| !std::ptr::eq(s, spec)) {
            return None;
        }
        scan = Some(spec);
        table_cols.push(table_col);
    }
    Some((scan?, table_cols))
}

/// The scan output column `col` of `plan` passes up from unchanged, and
/// its table column.
fn origin<'a>(
    plan: &'a Plan,
    col: usize,
    scan_width: ScanWidth,
    probe: bool,
) -> Option<(&'a ScanSpec, usize)> {
    match plan {
        Plan::Scan(spec) => match &spec.columns {
            Some(cols) => cols.get(col).map(|&c| (spec, c)),
            None => (col < scan_width(spec)?).then_some((spec, col)),
        },
        Plan::Filter { input, .. } => origin(input, col, scan_width, probe),
        Plan::Project { input, exprs, .. } => match exprs.get(col)? {
            Expr::Col(c) => origin(input, *c, scan_width, probe),
            _ => None,
        },
        Plan::Sort { input, .. } | Plan::Limit { input, .. } if probe => {
            origin(input, col, scan_width, probe)
        }
        Plan::Join { left, .. } if probe && col < width(left, scan_width)? => {
            origin(left, col, scan_width, probe)
        }
        _ => None,
    }
}

/// `plan`, a `Filter` / `Project` chain over one scan, reading `spec`.
fn with_scan(plan: &Plan, spec: &ScanSpec) -> Plan {
    match plan {
        Plan::Scan(_) => Plan::Scan(spec.clone()),
        _ => plan.map_inputs(|input| with_scan(input, spec)),
    }
}
