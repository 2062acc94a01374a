//! Plan rule: column pruning (DESIGN.md "Plan rules").
//!
//! A columnar scan should touch only the columns the query names
//! (§2.1). [`prune_columns`] walks a plan top-down with the set of
//! output columns the parent needs and rebuilds it bottom-up, narrowing
//! every scan to what is read above it and re-indexing the operators on
//! the way. It is a pure function of the plan; the one thing it asks of
//! the catalog is how wide a scan without a column list is.

use std::collections::BTreeSet;

use crate::expr::Expr;
use crate::plan::{AggSpec, JoinKind, Plan, ScanSpec, SortKey};

/// Output width of a scan that carries no column list or is pinned to a
/// projection; `None` for a table the catalog does not know.
pub type ScanWidth<'a> = &'a dyn Fn(&ScanSpec) -> Option<usize>;

/// `plan` with every scan narrowed to the columns the operators above
/// it read. The root's width, column order and names are unchanged, and
/// pruning a pruned plan changes nothing. What each node adds to the
/// need set:
///
/// * `Scan` narrows `columns` to the needed set, composing with a list
///   it already has; the pushed-down predicate is in table columns and
///   applies before the projection, so it keeps what it tests without
///   the scan outputting it. A scan pinned to a projection yields that
///   projection's layout and is left as it is.
/// * `Filter` / `Sort` add the columns they reference.
/// * `Project` drops the expressions nobody reads (none at the root,
///   where every output is needed) and needs what the rest name.
/// * `Aggregate` needs its group keys plus every column its input
///   expressions name, whatever the parent reads of its output.
/// * `Join` splits the need at the left width and adds both key lists;
///   `Semi` / `Anti` need only the keys of the right side.
///
/// A plan that references a column out of range, or scans an unknown
/// table, comes back unchanged: execution reports the error.
pub fn prune_columns(plan: &Plan, scan_width: ScanWidth) -> Plan {
    let pruned = width(plan, scan_width)
        .and_then(|w| prune(plan, &(0..w).collect(), scan_width))
        .map(|(pruned, _)| pruned);
    pruned.unwrap_or_else(|| plan.clone())
}

fn scan_output_width(spec: &ScanSpec, scan_width: ScanWidth) -> Option<usize> {
    match (&spec.columns, &spec.projection) {
        (Some(cols), None) => Some(cols.len()),
        _ => scan_width(spec),
    }
}

/// How many columns `plan` outputs; `None` when a scan's width is unknown.
pub(crate) fn width(plan: &Plan, scan_width: ScanWidth) -> Option<usize> {
    match plan {
        Plan::Scan(spec) => scan_output_width(spec, scan_width),
        Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            width(input, scan_width)
        }
        Plan::Project { exprs, .. } => Some(exprs.len()),
        Plan::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
        Plan::Join { left, right, kind, .. } => match kind {
            JoinKind::Semi | JoinKind::Anti => width(left, scan_width),
            JoinKind::Inner | JoinKind::Left => {
                Some(width(left, scan_width)? + width(right, scan_width)?)
            }
        },
    }
}

/// Add the columns `expr` references to `cols`.
fn add_cols(expr: &Expr, cols: &mut BTreeSet<usize>) {
    expr.visit_cols(&mut |c| {
        cols.insert(c);
    });
}

/// Where old output column `old` sits in the rebuilt node's output.
fn at(kept: &[usize], old: usize) -> Option<usize> {
    kept.binary_search(&old).ok()
}

/// `plan` rebuilt to output at least the columns in `need` (old output
/// indices), with the old index of each new output column, ascending.
/// `None` when a reference is out of range.
fn prune(
    plan: &Plan,
    need: &BTreeSet<usize>,
    scan_width: ScanWidth,
) -> Option<(Plan, Vec<usize>)> {
    let in_range = |width: usize| need.last().is_none_or(|&max| max < width);
    let needed = || need.iter().copied().collect::<Vec<_>>();
    Some(match plan {
        Plan::Scan(spec) => {
            let width = scan_output_width(spec, scan_width)?;
            if !in_range(width) {
                return None;
            }
            if spec.projection.is_some() || need.len() == width {
                return Some((plan.clone(), (0..width).collect()));
            }
            let columns = match &spec.columns {
                Some(cols) => need.iter().map(|&i| cols[i]).collect(),
                None => needed(),
            };
            let narrowed = ScanSpec { columns: Some(columns), ..spec.clone() };
            (Plan::Scan(narrowed), needed())
        }
        Plan::Filter { input, predicate } => {
            let mut below = need.clone();
            add_cols(predicate, &mut below);
            let (input, kept) = prune(input, &below, scan_width)?;
            let predicate = predicate.remap_cols(&|c| at(&kept, c))?;
            (Plan::Filter { input: Box::new(input), predicate }, kept)
        }
        Plan::Project { input, exprs, names } => {
            if !in_range(exprs.len()) {
                return None;
            }
            let mut below = BTreeSet::new();
            need.iter().for_each(|&i| add_cols(&exprs[i], &mut below));
            let (input, kept) = prune(input, &below, scan_width)?;
            let exprs = need
                .iter()
                .map(|&i| exprs[i].remap_cols(&|c| at(&kept, c)))
                .collect::<Option<_>>()?;
            let names = need.iter().filter_map(|&i| names.get(i).cloned()).collect();
            (Plan::Project { input: Box::new(input), exprs, names }, needed())
        }
        Plan::Join { left, right, left_keys, right_keys, kind } => {
            let left_width = width(left, scan_width)?;
            let left_only = matches!(kind, JoinKind::Semi | JoinKind::Anti);
            let mut left_need: BTreeSet<usize> = left_keys.iter().copied().collect();
            let mut right_need: BTreeSet<usize> = right_keys.iter().copied().collect();
            for &i in need {
                if i < left_width {
                    left_need.insert(i);
                } else if left_only {
                    return None;
                } else {
                    right_need.insert(i - left_width);
                }
            }
            let (left, mut kept) = prune(left, &left_need, scan_width)?;
            let (right, right_kept) = prune(right, &right_need, scan_width)?;
            let left_keys = left_keys.iter().map(|&k| at(&kept, k)).collect::<Option<_>>()?;
            let right_keys = right_keys.iter().map(|&k| at(&right_kept, k)).collect::<Option<_>>()?;
            if !left_only {
                kept.extend(right_kept.iter().map(|&c| left_width + c));
            }
            let join = Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_keys,
                right_keys,
                kind: *kind,
            };
            (join, kept)
        }
        Plan::Aggregate { input, group_by, aggs } => {
            let width = group_by.len() + aggs.len();
            if !in_range(width) {
                return None;
            }
            let mut below: BTreeSet<usize> = group_by.iter().copied().collect();
            aggs.iter().for_each(|a| add_cols(&a.expr, &mut below));
            let (input, kept) = prune(input, &below, scan_width)?;
            let group_by = group_by.iter().map(|&g| at(&kept, g)).collect::<Option<_>>()?;
            let aggs = aggs
                .iter()
                .map(|a| Some(AggSpec::new(a.func, a.expr.remap_cols(&|c| at(&kept, c))?)))
                .collect::<Option<_>>()?;
            (Plan::Aggregate { input: Box::new(input), group_by, aggs }, (0..width).collect())
        }
        Plan::Sort { input, keys } => {
            let mut below = need.clone();
            below.extend(keys.iter().map(|k| k.col));
            let (input, kept) = prune(input, &below, scan_width)?;
            let keys = keys
                .iter()
                .map(|k| Some(SortKey { col: at(&kept, k.col)?, desc: k.desc }))
                .collect::<Option<_>>()?;
            (Plan::Sort { input: Box::new(input), keys }, kept)
        }
        Plan::Limit { input, n } => {
            let (input, kept) = prune(input, need, scan_width)?;
            (Plan::Limit { input: Box::new(input), n: *n }, kept)
        }
    })
}
