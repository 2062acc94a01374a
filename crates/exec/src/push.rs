//! Plan rule: predicate placement (DESIGN.md "Plan rules").
//!
//! A scan prunes blocks by their min/max statistics (§2.1), and filters
//! rows before it decodes the rest of them, only with the predicate it
//! carries. [`push_predicates`] moves each `Filter` conjunct it can into
//! the one scan the conjunct tests. It is the only place predicates are
//! placed: the SQL binder leaves every scan bare and every WHERE conjunct
//! in one `Filter` above the joins.

use std::collections::BTreeMap;

use eon_columnar::pruning::CmpOp;
use eon_columnar::Predicate;

use crate::expr::Expr;
use crate::plan::{JoinKind, Plan, ScanSpec};
use crate::prune::{width, ScanWidth};

/// `plan` with every `Filter` conjunct that converts to a [`Predicate`]
/// and references exactly one scan moved into that scan's predicate,
/// after whatever predicate the scan already carries. A filter's
/// predicate moves whole if it can; an `AND` that cannot is split into
/// its terms, each tried the same way.
///
/// * Convertible: `col op lit` (flipped when the literal is on the left),
///   `IS [NOT] NULL`, non-negated `IN`, and `AND` / `OR` of convertible
///   tests on the same scan.
/// * A conjunct travels only through `Filter`, either side of an `Inner`
///   join and the left side of a `Left` / `Semi` / `Anti` join. It never
///   goes below the nullable side of a `Left` join, whose NULL-padded
///   rows it must still see, and never into a scan pinned to a
///   projection. A scan's output columns map to table columns through
///   its `columns` list.
/// * What does not move stays where it was; a `Filter` left empty is
///   dropped. Pushing a pushed plan changes nothing.
pub fn push_predicates(plan: &Plan, scan_width: ScanWidth) -> Plan {
    place(plan, &[], scan_width)
}

/// `plan` rebuilt with its filters' conjuncts placed, and with each
/// `(scan, predicate)` of `moving` (placed by a filter above) added to
/// its scan.
fn place<'a>(plan: &'a Plan, moving: &[(&'a ScanSpec, Predicate)], scan_width: ScanWidth) -> Plan {
    match plan {
        Plan::Scan(spec) => {
            let added: Vec<Predicate> = moving
                .iter()
                .filter(|(to, _)| std::ptr::eq(*to, spec))
                .map(|(_, p)| p.clone())
                .collect();
            if added.is_empty() {
                return plan.clone();
            }
            let carried = (spec.predicate != Predicate::True).then(|| spec.predicate.clone());
            let predicate = Predicate::and(carried.into_iter().chain(added).collect());
            Plan::Scan(ScanSpec { predicate, ..spec.clone() })
        }
        Plan::Filter { input, predicate } => {
            let mut moving = moving.to_vec();
            let placed_above = moving.len();
            let mut kept = Vec::new();
            split(input, predicate, scan_width, &mut moving, &mut kept);
            let none_moved = moving.len() == placed_above;
            let input = place(input, &moving, scan_width);
            match kept.len() {
                _ if none_moved => input.filter(predicate.clone()),
                0 => input,
                1 => input.filter(kept.remove(0)),
                _ => input.filter(Expr::And(kept)),
            }
        }
        _ => plan.map_inputs(|input| place(input, moving, scan_width)),
    }
}

/// Queue `conjunct` (over `input`'s output) to move into the scan it
/// tests; failing that, if it is an `AND`, each of its terms; and what
/// cannot move into `kept`.
fn split<'a>(
    input: &'a Plan,
    conjunct: &Expr,
    scan_width: ScanWidth,
    moving: &mut Vec<(&'a ScanSpec, Predicate)>,
    kept: &mut Vec<Expr>,
) {
    match (target(input, conjunct, scan_width), conjunct) {
        (Some(to), _) => moving.push(to),
        (None, Expr::And(terms)) => {
            terms.iter().for_each(|term| split(input, term, scan_width, moving, kept))
        }
        (None, _) => kept.push(conjunct.clone()),
    }
}

/// The one scan below `plan` that `conjunct` (over `plan`'s output) may
/// move into, and the conjunct as that scan's predicate.
fn target<'a>(plan: &'a Plan, conjunct: &Expr, scan_width: ScanWidth) -> Option<(&'a ScanSpec, Predicate)> {
    let mut scan: Option<&ScanSpec> = None;
    let mut to_table = BTreeMap::new();
    let mut one_scan = true;
    conjunct.visit_cols(&mut |c| match origin(plan, c, scan_width) {
        Some((spec, t)) if scan.is_none_or(|s| std::ptr::eq(s, spec)) => {
            scan = Some(spec);
            to_table.insert(c, t);
        }
        _ => one_scan = false,
    });
    let predicate = to_predicate(conjunct, &|c| to_table.get(&c).copied())?;
    Some((scan.filter(|_| one_scan)?, predicate))
}

/// The unpinned scan output column `col` of `plan` comes from, and its
/// table column, if a conjunct may travel there.
fn origin<'a>(plan: &'a Plan, col: usize, scan_width: ScanWidth) -> Option<(&'a ScanSpec, usize)> {
    match plan {
        Plan::Scan(spec) if spec.projection.is_none() => match &spec.columns {
            Some(cols) => cols.get(col).map(|&c| (spec, c)),
            None => (col < scan_width(spec)?).then_some((spec, col)),
        },
        Plan::Filter { input, .. } => origin(input, col, scan_width),
        Plan::Join { left, right, kind, .. } => match col.checked_sub(width(left, scan_width)?) {
            None => origin(left, col, scan_width),
            Some(c) if *kind == JoinKind::Inner => origin(right, c, scan_width),
            Some(_) => None,
        },
        _ => None,
    }
}

/// `e` as a scan predicate over table columns, `to_table` mapping its
/// column references, if it has one of the convertible shapes. A scan
/// rejects every row a `Filter` would, NULL tests included.
fn to_predicate(e: &Expr, to_table: &impl Fn(usize) -> Option<usize>) -> Option<Predicate> {
    let col = |e: &Expr| match e {
        Expr::Col(c) => to_table(*c),
        _ => None,
    };
    let each = |es: &[Expr]| es.iter().map(|e| to_predicate(e, to_table)).collect::<Option<Vec<_>>>();
    Some(match e {
        Expr::Cmp { op, l, r } => match (&**l, &**r) {
            (l, Expr::Lit(v)) => Predicate::cmp(col(l)?, *op, v.clone()),
            (Expr::Lit(v), r) => Predicate::cmp(col(r)?, flip(*op), v.clone()),
            _ => return None,
        },
        Expr::IsNull(x) => Predicate::IsNull(col(x)?),
        Expr::Not(x) => match &**x {
            Expr::IsNull(x) => Predicate::IsNotNull(col(x)?),
            _ => return None,
        },
        Expr::InList { expr, list, negated: false } => {
            let c = col(expr)?;
            Predicate::Or(list.iter().map(|v| Predicate::eq(c, v.clone())).collect())
        }
        Expr::And(es) => Predicate::And(each(es)?),
        Expr::Or(es) => Predicate::Or(each(es)?),
        _ => return None,
    })
}

/// `op` with its operands swapped: `lit < col` is `col > lit`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}
