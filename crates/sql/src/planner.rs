//! Name resolution: AST → `eon_exec::Plan`, with no optimization.
//!
//! The binder maps names to column ordinals and follows the same
//! conventions as the hand-built workloads: the leftmost table scans
//! shard-local and joined tables broadcast (`Global`). Every scan is
//! bare and the whole WHERE clause is one `Filter` above the joins;
//! placing its conjuncts is `eon_exec::push_predicates`' job.

use std::collections::HashMap;

use eon_columnar::pruning::CmpOp;
use eon_exec::{AggFunc, AggSpec, Distribution, Expr, JoinKind, Plan, ScanSpec, SortKey};
use eon_types::{EonError, Result, Schema};

use crate::ast::*;

/// Where the binder looks up table schemas. `eon_core::EonDb::sql`
/// adapts its catalog snapshot; tests can use a plain map.
pub trait SchemaSource {
    fn table_schema(&self, name: &str) -> Result<Schema>;
}

impl SchemaSource for HashMap<String, Schema> {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.get(name)
            .cloned()
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }
}

/// One relation in the FROM clause with its slot in the join output.
struct Relation {
    /// Lookup names: alias if given, else table name.
    binding: String,
    table: String,
    schema: Schema,
    /// Column offset of this relation in the join output row.
    offset: usize,
}

struct Namespace {
    relations: Vec<Relation>,
}

impl Namespace {
    /// Resolve a column reference to (relation index, absolute column).
    fn resolve(&self, c: &ColRef) -> Result<(usize, usize)> {
        if let Some(t) = &c.table {
            let (ri, rel) = self
                .relations
                .iter()
                .enumerate()
                .find(|(_, r)| r.binding.eq_ignore_ascii_case(t))
                .ok_or_else(|| EonError::Query(format!("unknown table or alias '{t}'")))?;
            let local = rel.schema.index_of(&c.column)?;
            Ok((ri, rel.offset + local))
        } else {
            let mut found = None;
            for (ri, rel) in self.relations.iter().enumerate() {
                if let Ok(local) = rel.schema.index_of(&c.column) {
                    if found.is_some() {
                        return Err(EonError::Query(format!(
                            "column '{}' is ambiguous",
                            c.column
                        )));
                    }
                    found = Some((ri, rel.offset + local));
                }
            }
            found.ok_or_else(|| EonError::UnknownColumn(c.column.clone()))
        }
    }
}

/// Bind a parsed statement to the given schemas.
pub fn bind(stmt: &SelectStmt, schemas: &dyn SchemaSource) -> Result<Plan> {
    // ---- namespace -------------------------------------------------
    let mut relations = Vec::new();
    let mut offset = 0;
    let add_rel = |tref: &TableRef, relations: &mut Vec<Relation>, offset: &mut usize| -> Result<()> {
        let schema = schemas.table_schema(&tref.table)?;
        let width = schema.len();
        relations.push(Relation {
            binding: tref.alias.clone().unwrap_or_else(|| tref.table.clone()),
            table: tref.table.clone(),
            schema,
            offset: *offset,
        });
        *offset += width;
        Ok(())
    };
    add_rel(&stmt.from, &mut relations, &mut offset)?;
    for j in &stmt.joins {
        add_rel(&j.table, &mut relations, &mut offset)?;
    }
    let ns = Namespace { relations };

    // ---- scans + joins ---------------------------------------------
    let mk_scan = |ri: usize, dist: Distribution| -> Plan {
        let mut spec = ScanSpec::new(ns.relations[ri].table.clone());
        spec.distribute = dist;
        Plan::Scan(spec)
    };
    let mut plan = mk_scan(0, Distribution::LocalShards);
    for (ji, j) in stmt.joins.iter().enumerate() {
        let right = mk_scan(ji + 1, Distribution::Global);
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        let right_offset = ns.relations[ji + 1].offset;
        for (a, b) in &j.on {
            let (ra, ia) = ns.resolve(a)?;
            let (rb, ib) = ns.resolve(b)?;
            // One side must be the newly joined relation.
            let (left_abs, right_abs) = if rb == ji + 1 {
                (ia, ib)
            } else if ra == ji + 1 {
                (ib, ia)
            } else {
                return Err(EonError::Query(
                    "ON clause must reference the joined table".into(),
                ));
            };
            lk.push(left_abs);
            rk.push(right_abs - right_offset);
        }
        let kind = match j.kind {
            JoinType::Inner => JoinKind::Inner,
            JoinType::Left => JoinKind::Left,
        };
        plan = plan.join_kind(right, lk, rk, kind);
    }
    if let Some(w) = &stmt.where_ {
        plan = plan.filter(to_expr(w, &ns)?);
    }

    // ---- aggregation ------------------------------------------------
    let has_agg = stmt
        .items
        .iter()
        .any(|i| contains_agg(&i.expr))
        || !stmt.group_by.is_empty();

    // Output naming for ORDER BY resolution.
    let item_name = |i: &SelectItem| -> Option<String> {
        i.alias.clone().or(match &i.expr {
            SqlExpr::Col(c) => Some(c.column.clone()),
            _ => None,
        })
    };

    let exprs: Vec<Expr> = if has_agg {
        // Group keys must be plain columns.
        let group_abs: Vec<usize> = stmt
            .group_by
            .iter()
            .map(|c| ns.resolve(c).map(|(_, abs)| abs))
            .collect::<Result<_>>()?;

        // Collect aggregates from the SELECT list (and HAVING).
        let mut agg_specs: Vec<(SqlExpr, AggSpec)> = Vec::new();
        for e in stmt.items.iter().map(|i| &i.expr).chain(&stmt.having) {
            collect_aggs(e, &ns, &mut agg_specs)?;
        }

        plan = plan.aggregate(
            group_abs.clone(),
            agg_specs.iter().map(|(_, s)| s.clone()).collect(),
        );

        // Aggregate output: group cols then aggs.
        let g = group_abs.len();
        if let Some(h) = &stmt.having {
            // HAVING references aliases, group columns, or aggregates.
            let resolved = resolve_having(h, stmt, &ns, &group_abs, &agg_specs, g)?;
            plan = plan.filter(resolved);
        }
        stmt.items
            .iter()
            .map(|i| map_post_agg(&i.expr, &ns, &group_abs, &agg_specs, g))
            .collect::<Result<_>>()?
    } else {
        stmt.items.iter().map(|i| to_expr(&i.expr, &ns)).collect::<Result<_>>()?
    };
    let names: Vec<String> = stmt
        .items
        .iter()
        .enumerate()
        .map(|(k, i)| item_name(i).unwrap_or_else(|| format!("col{k}")))
        .collect();
    plan = Plan::Project {
        input: Box::new(plan),
        exprs,
        names: names.clone(),
    };
    apply_order_limit(plan, stmt, &names)
}

fn apply_order_limit(mut plan: Plan, stmt: &SelectStmt, names: &[String]) -> Result<Plan> {
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|o| {
                let col = match &o.key {
                    OrderKey::Position(n) => {
                        if *n == 0 || *n > names.len() {
                            return Err(EonError::Query(format!(
                                "ORDER BY position {n} out of range"
                            )));
                        }
                        n - 1
                    }
                    OrderKey::Name(c) => names
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                        .ok_or_else(|| {
                            EonError::Query(format!(
                                "ORDER BY '{}' must name a SELECT column or alias",
                                c.column
                            ))
                        })?,
                };
                Ok(SortKey {
                    col,
                    desc: o.desc,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        plan = plan.sort(keys);
    }
    if let Some(n) = stmt.limit {
        plan = plan.limit(n);
    }
    Ok(plan)
}

fn contains_agg(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Agg { .. } => true,
        SqlExpr::Binary { l, r, .. } => contains_agg(l) || contains_agg(r),
        SqlExpr::And(es) | SqlExpr::Or(es) => es.iter().any(contains_agg),
        SqlExpr::Not(e) | SqlExpr::IsNull { expr: e, .. } | SqlExpr::Like { expr: e, .. } => {
            contains_agg(e)
        }
        SqlExpr::InList { expr, .. } => contains_agg(expr),
        SqlExpr::Between { expr, lo, hi } => {
            contains_agg(expr) || contains_agg(lo) || contains_agg(hi)
        }
        _ => false,
    }
}

/// Collect every aggregate call in `e` (deduplicated structurally).
fn collect_aggs(
    e: &SqlExpr,
    ns: &Namespace,
    out: &mut Vec<(SqlExpr, AggSpec)>,
) -> Result<()> {
    match e {
        SqlExpr::Agg {
            func,
            arg,
            distinct,
        } => {
            if out.iter().any(|(seen, _)| seen == e) {
                return Ok(());
            }
            let spec = match (func, distinct) {
                (AggCall::Count, true) => {
                    let a = arg
                        .as_ref()
                        .ok_or_else(|| EonError::Query("COUNT(DISTINCT *) is invalid".into()))?;
                    AggSpec::new(AggFunc::CountDistinct, to_expr(a, ns)?)
                }
                (AggCall::Count, false) => match arg {
                    None => AggSpec::count_star(),
                    Some(a) => AggSpec::new(AggFunc::Count, to_expr(a, ns)?),
                },
                (f, true) => {
                    return Err(EonError::Query(format!("DISTINCT unsupported for {f:?}")))
                }
                (AggCall::Sum, false) => AggSpec::sum(to_expr(
                    arg.as_ref().ok_or_else(|| EonError::Query("SUM(*)".into()))?,
                    ns,
                )?),
                (AggCall::Avg, false) => AggSpec::avg(to_expr(
                    arg.as_ref().ok_or_else(|| EonError::Query("AVG(*)".into()))?,
                    ns,
                )?),
                (AggCall::Min, false) => AggSpec::min(to_expr(
                    arg.as_ref().ok_or_else(|| EonError::Query("MIN(*)".into()))?,
                    ns,
                )?),
                (AggCall::Max, false) => AggSpec::max(to_expr(
                    arg.as_ref().ok_or_else(|| EonError::Query("MAX(*)".into()))?,
                    ns,
                )?),
            };
            out.push((e.clone(), spec));
            Ok(())
        }
        SqlExpr::Binary { l, r, .. } => {
            collect_aggs(l, ns, out)?;
            collect_aggs(r, ns, out)
        }
        SqlExpr::And(es) | SqlExpr::Or(es) => {
            for x in es {
                collect_aggs(x, ns, out)?;
            }
            Ok(())
        }
        SqlExpr::Not(x) => collect_aggs(x, ns, out),
        _ => Ok(()),
    }
}

/// Rewrite a SELECT-item expression into the aggregate-output space:
/// group columns become `col(i)`, aggregate calls become `col(g + j)`,
/// and arithmetic around them is preserved.
fn map_post_agg(
    e: &SqlExpr,
    ns: &Namespace,
    group_abs: &[usize],
    aggs: &[(SqlExpr, AggSpec)],
    g: usize,
) -> Result<Expr> {
    if let Some(j) = aggs.iter().position(|(seen, _)| seen == e) {
        return Ok(Expr::col(g + j));
    }
    match e {
        SqlExpr::Col(c) => {
            let (_, abs) = ns.resolve(c)?;
            let gi = group_abs
                .iter()
                .position(|&a| a == abs)
                .ok_or_else(|| {
                    EonError::Query(format!(
                        "column '{}' must appear in GROUP BY or inside an aggregate",
                        c.column
                    ))
                })?;
            Ok(Expr::col(gi))
        }
        SqlExpr::Lit(v) => Ok(Expr::lit(v.clone())),
        SqlExpr::Binary { op, l, r } => {
            let le = map_post_agg(l, ns, group_abs, aggs, g)?;
            let re = map_post_agg(r, ns, group_abs, aggs, g)?;
            Ok(binop(*op, le, re))
        }
        other => Err(EonError::Query(format!(
            "unsupported expression above aggregation: {other:?}"
        ))),
    }
}

/// Resolve a HAVING expression against the aggregate output: aliases
/// from the SELECT list, group columns, and aggregate calls.
fn resolve_having(
    e: &SqlExpr,
    stmt: &SelectStmt,
    ns: &Namespace,
    group_abs: &[usize],
    aggs: &[(SqlExpr, AggSpec)],
    g: usize,
) -> Result<Expr> {
    // Alias reference → the aliased item's post-aggregation expression.
    if let SqlExpr::Col(c) = e {
        if c.table.is_none() {
            if let Some(item) = stmt
                .items
                .iter()
                .find(|i| i.alias.as_deref().map(|a| a.eq_ignore_ascii_case(&c.column)).unwrap_or(false))
            {
                return map_post_agg(&item.expr, ns, group_abs, aggs, g);
            }
        }
    }
    let each = |es: &[SqlExpr]| {
        es.iter()
            .map(|x| resolve_having(x, stmt, ns, group_abs, aggs, g))
            .collect::<Result<_>>()
    };
    match e {
        SqlExpr::And(es) => Ok(Expr::And(each(es)?)),
        SqlExpr::Or(es) => Ok(Expr::Or(each(es)?)),
        SqlExpr::Not(x) => Ok(Expr::Not(Box::new(resolve_having(x, stmt, ns, group_abs, aggs, g)?))),
        SqlExpr::Binary { op, l, r } => {
            let le = resolve_having(l, stmt, ns, group_abs, aggs, g)?;
            let re = resolve_having(r, stmt, ns, group_abs, aggs, g)?;
            Ok(binop(*op, le, re))
        }
        other => map_post_agg(other, ns, group_abs, aggs, g),
    }
}

fn binop(op: BinOp, l: Expr, r: Expr) -> Expr {
    match op {
        BinOp::Add => Expr::add(l, r),
        BinOp::Sub => Expr::sub(l, r),
        BinOp::Mul => Expr::mul(l, r),
        BinOp::Div => Expr::div(l, r),
        BinOp::Eq => Expr::cmp(CmpOp::Eq, l, r),
        BinOp::Ne => Expr::cmp(CmpOp::Ne, l, r),
        BinOp::Lt => Expr::cmp(CmpOp::Lt, l, r),
        BinOp::Le => Expr::cmp(CmpOp::Le, l, r),
        BinOp::Gt => Expr::cmp(CmpOp::Gt, l, r),
        BinOp::Ge => Expr::cmp(CmpOp::Ge, l, r),
    }
}

/// Convert a scalar (non-aggregate) expression.
fn to_expr(e: &SqlExpr, ns: &Namespace) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Col(c) => Expr::col(ns.resolve(c)?.1),
        SqlExpr::Lit(v) => Expr::lit(v.clone()),
        SqlExpr::Binary { op, l, r } => binop(*op, to_expr(l, ns)?, to_expr(r, ns)?),
        SqlExpr::And(es) => Expr::And(es.iter().map(|x| to_expr(x, ns)).collect::<Result<_>>()?),
        SqlExpr::Or(es) => Expr::Or(es.iter().map(|x| to_expr(x, ns)).collect::<Result<_>>()?),
        SqlExpr::Not(x) => Expr::Not(Box::new(to_expr(x, ns)?)),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Expr::IsNull(Box::new(to_expr(expr, ns)?));
            if *negated {
                Expr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(to_expr(expr, ns)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(to_expr(expr, ns)?),
            list: list.clone(),
            negated: *negated,
        },
        SqlExpr::Between { expr, lo, hi } => {
            let x = to_expr(expr, ns)?;
            Expr::And(vec![
                Expr::cmp(CmpOp::Ge, x.clone(), to_expr(lo, ns)?),
                Expr::cmp(CmpOp::Le, x, to_expr(hi, ns)?),
            ])
        }
        SqlExpr::Agg { .. } => {
            return Err(EonError::Query(
                "aggregate calls are only allowed in SELECT/HAVING".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_columnar::Predicate;
    use eon_types::schema;

    fn schemas() -> HashMap<String, Schema> {
        HashMap::from([
            ("sales".to_owned(), schema![("id", Int), ("region_id", Int)]),
            ("regions".to_owned(), schema![("region_id", Int), ("region", Str)]),
        ])
    }

    /// The scans of `sql`'s compiled plan, left to right, and whether a
    /// residual `Filter` sits above the join.
    fn shape(sql: &str) -> (Vec<ScanSpec>, bool) {
        let plan = crate::compile(sql, &schemas()).unwrap();
        let mut scans = Vec::new();
        plan.visit_scans(&mut |s| scans.push(s.clone()));
        (scans, plan.describe().contains("Filter"))
    }

    /// The binder places nothing: bare scans, and the WHERE clause as one
    /// `Filter` above the joins, its conjuncts in order.
    #[test]
    fn bind_leaves_scans_bare_and_where_above_the_joins() {
        let stmt = crate::parse(
            "SELECT s.id FROM sales s JOIN regions r ON s.region_id = r.region_id \
             WHERE r.region = 'NA' AND s.id < 10",
        )
        .unwrap();
        let Plan::Project { input, .. } = bind(&stmt, &schemas()).unwrap() else { panic!() };
        let Plan::Filter { input, predicate } = *input else { panic!("{input:?}") };
        assert_eq!(
            predicate,
            Expr::And(vec![
                Expr::eq(Expr::col(3), Expr::lit("NA")),
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10i64)),
            ])
        );
        let mut scans = Vec::new();
        input.visit_scans(&mut |s| scans.push(s.clone()));
        assert_eq!(scans, vec![ScanSpec::new("sales"), ScanSpec::new("regions").global()]);
    }

    /// A disjunction of tests on one column is one conjunct the scan can
    /// evaluate, so it lands in the scan.
    #[test]
    fn where_or_on_one_table_lands_in_the_scan() {
        let (scans, filtered) = shape("SELECT id FROM sales WHERE id = 1 OR id = 2");
        assert_eq!(scans[0].predicate, Predicate::Or(vec![Predicate::eq(0, 1i64), Predicate::eq(0, 2i64)]));
        assert!(!filtered);
    }

    #[test]
    fn where_on_the_padded_side_of_a_left_join_stays_above_it() {
        let from = "SELECT s.id FROM sales s LEFT JOIN regions r ON s.region_id = r.region_id";
        for test in ["r.region = 'NA'", "r.region IS NULL"] {
            let (scans, filtered) = shape(&format!("{from} WHERE {test} AND s.id < 10"));
            assert_eq!(scans[0].predicate, Predicate::cmp(0, CmpOp::Lt, 10i64), "{test}");
            assert_eq!(scans[1].predicate, Predicate::True, "{test}");
            assert!(filtered, "{test}");
        }
        // An inner join commutes with the filter: both sides push down.
        let (scans, filtered) = shape(
            "SELECT s.id FROM sales s JOIN regions r ON s.region_id = r.region_id \
             WHERE r.region = 'NA' AND s.id < 10",
        );
        assert_eq!(scans[1].predicate, Predicate::eq(1, "NA"));
        assert!(!filtered);
    }
}
