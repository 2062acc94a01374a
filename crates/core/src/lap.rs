//! Live Aggregate Projection query rewriting (paper §2.1: LAPs "can be
//! used to dramatically speed up query performance for a variety of
//! aggregation … operations").
//!
//! An `Aggregate` whose input is a plain unfiltered scan, whose group-by
//! matches a LAP's group columns, and whose aggregates are all
//! maintained by that LAP, is rewritten to aggregate *over the LAP's
//! pre-computed rows* instead: SUM over partial sums, MIN over partial
//! minima, and COUNT(*) as the SUM of partial counts. The outer
//! aggregate stays in the plan because LAP rows are *partial* — each
//! load batch contributes one row per (group, shard) — and because the
//! distributed merge needs it anyway.

use eon_catalog::CatalogState;
use eon_columnar::{LapFunc, Predicate};
use eon_exec::{AggFunc, AggSpec, Expr, Plan, ScanSpec};

/// Rewrite every eligible aggregate in the plan to read from a matching
/// Live Aggregate Projection. Non-matching nodes pass through.
pub fn rewrite_for_laps(plan: &Plan, snapshot: &CatalogState) -> Plan {
    if let Plan::Aggregate { input, group_by, aggs } = plan {
        if let Plan::Scan(spec) = &**input {
            if let Some(rewritten) = try_rewrite(spec, group_by, aggs, snapshot) {
                return rewritten;
            }
        }
    }
    plan.map_inputs(|input| rewrite_for_laps(input, snapshot))
}

fn try_rewrite(
    spec: &ScanSpec,
    group_by: &[usize],
    aggs: &[AggSpec],
    snapshot: &CatalogState,
) -> Option<Plan> {
    // Only plain full scans qualify: a pushed-down predicate filters
    // base rows, which pre-aggregated rows cannot replicate.
    if spec.predicate != Predicate::True || spec.projection.is_some() {
        return None;
    }
    let table = snapshot.table_by_name(&spec.table)?;
    // Scan-output index → table column index.
    let to_table = |scan_idx: usize| -> Option<usize> {
        match &spec.columns {
            Some(cols) => cols.get(scan_idx).copied(),
            None => Some(scan_idx),
        }
    };
    let group_table: Vec<usize> = group_by
        .iter()
        .map(|&g| to_table(g))
        .collect::<Option<_>>()?;

    // What each aggregate needs from a LAP: (function, table column).
    let requirements: Vec<(LapFunc, Option<usize>)> = aggs
        .iter()
        .map(|a| {
            let source = match &a.expr {
                Expr::Col(c) => to_table(*c),
                _ => None,
            };
            match a.func {
                AggFunc::Sum => Some((LapFunc::Sum, Some(source?))),
                AggFunc::Min => Some((LapFunc::Min, Some(source?))),
                AggFunc::Max => Some((LapFunc::Max, Some(source?))),
                AggFunc::CountStar => Some((LapFunc::CountStar, None)),
                _ => None, // Avg / Count(col) / distinct: base only
            }
        })
        .collect::<Option<_>>()?;

    // Find a LAP matching the grouping exactly and carrying every
    // required aggregate.
    for (_, proj) in &table.projections {
        let Some(lap) = &proj.live_aggregate else {
            continue;
        };
        if lap.group_by != group_table {
            continue;
        }
        let g = lap.group_by.len();
        let mut new_aggs = Vec::with_capacity(aggs.len());
        let mut all_found = true;
        for (want_f, want_col) in &requirements {
            let pos = lap.aggs.iter().position(|(f, c)| {
                f == want_f && want_col.map(|w| *c == w).unwrap_or(*f == LapFunc::CountStar)
            });
            match pos {
                Some(j) => {
                    let col = Expr::col(g + j);
                    new_aggs.push(match want_f {
                        LapFunc::Sum => AggSpec::sum(col),
                        LapFunc::Min => AggSpec::min(col),
                        LapFunc::Max => AggSpec::max(col),
                        // Partial counts merge by summation.
                        LapFunc::CountStar => AggSpec::sum(col),
                    });
                }
                None => {
                    all_found = false;
                    break;
                }
            }
        }
        if !all_found {
            continue;
        }
        let mut lap_scan = ScanSpec::new(spec.table.clone()).projection(proj.name.clone());
        lap_scan.distribute = spec.distribute;
        return Some(Plan::Scan(lap_scan).aggregate((0..g).collect(), new_aggs));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use crate::db::EonDb;
    use eon_columnar::Projection;
    use eon_storage::MemFs;
    use eon_types::{schema, Value};
    use std::sync::Arc;

    fn db_with_lap() -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("grp", Int), ("v", Int)];
        db.create_table(
            "t",
            s.clone(),
            vec![
                Projection::super_projection("t_super", &s, &[0], &[0]),
                Projection::live_aggregate(
                    "t_lap",
                    &[1],
                    vec![
                        (LapFunc::Sum, 2),
                        (LapFunc::Min, 2),
                        (LapFunc::Max, 2),
                        (LapFunc::CountStar, 0),
                    ],
                ),
            ],
        )
        .unwrap();
        db
    }

    fn grouped_plan() -> Plan {
        Plan::scan(ScanSpec::new("t")).aggregate(
            vec![1],
            vec![
                AggSpec::sum(Expr::col(2)),
                AggSpec::min(Expr::col(2)),
                AggSpec::max(Expr::col(2)),
                AggSpec::count_star(),
            ],
        )
    }

    #[test]
    fn rewrite_targets_the_lap() {
        let db = db_with_lap();
        let snap = db.snapshot().unwrap();
        let rewritten = rewrite_for_laps(&grouped_plan(), &snap);
        let Plan::Aggregate { input, .. } = &rewritten else {
            panic!("not an aggregate")
        };
        let Plan::Scan(spec) = &**input else { panic!("not a scan") };
        assert_eq!(spec.projection.as_deref(), Some("t_lap"));
    }

    #[test]
    fn predicate_blocks_rewrite() {
        let db = db_with_lap();
        let snap = db.snapshot().unwrap();
        let plan = Plan::scan(
            ScanSpec::new("t").predicate(Predicate::eq(0, 1i64)),
        )
        .aggregate(vec![1], vec![AggSpec::sum(Expr::col(2))]);
        assert_eq!(rewrite_for_laps(&plan, &snap), plan);
    }

    #[test]
    fn avg_blocks_rewrite() {
        let db = db_with_lap();
        let snap = db.snapshot().unwrap();
        let plan = Plan::scan(ScanSpec::new("t"))
            .aggregate(vec![1], vec![AggSpec::avg(Expr::col(2))]);
        assert_eq!(rewrite_for_laps(&plan, &snap), plan);
    }

    #[test]
    fn wrong_grouping_blocks_rewrite() {
        let db = db_with_lap();
        let snap = db.snapshot().unwrap();
        let plan = Plan::scan(ScanSpec::new("t"))
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(2))]);
        assert_eq!(rewrite_for_laps(&plan, &snap), plan);
    }

    #[test]
    fn lap_answers_match_base_across_batches() {
        let db = db_with_lap();
        // Several load batches → several partial rows per group.
        for batch in 0..4i64 {
            db.copy_into(
                "t",
                (0..500)
                    .map(|i| {
                        vec![
                            Value::Int(batch * 500 + i),
                            Value::Int(i % 9),
                            Value::Int(i * 3 - 50),
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        }
        let base = Plan::scan(ScanSpec::new("t").projection("t_super")).aggregate(
            vec![1],
            vec![
                AggSpec::sum(Expr::col(2)),
                AggSpec::min(Expr::col(2)),
                AggSpec::max(Expr::col(2)),
                AggSpec::count_star(),
            ],
        );
        let mut want = db.query(&base).unwrap();
        want.sort();
        let mut got = db.query(&grouped_plan()).unwrap();
        got.sort();
        assert_eq!(got, want);

        // And the LAP really holds far fewer rows than the base table.
        let snap = db.snapshot().unwrap();
        let lap_oid = snap
            .tables
            .values()
            .next()
            .unwrap()
            .projections
            .iter()
            .find(|(_, p)| p.is_live_aggregate())
            .unwrap()
            .0;
        let lap_rows: u64 = snap
            .containers
            .values()
            .filter(|c| c.projection == lap_oid)
            .map(|c| c.rows)
            .sum();
        assert!(lap_rows <= 9 * 3 * 4, "lap has {lap_rows} rows");
    }

    #[test]
    fn deletes_are_rejected_with_lap() {
        let db = db_with_lap();
        db.copy_into("t", vec![vec![Value::Int(1), Value::Int(0), Value::Int(5)]])
            .unwrap();
        assert!(db.delete_where("t", &Predicate::True).is_err());
        assert!(db
            .update_where("t", &Predicate::True, &[(2, Value::Int(0))])
            .is_err());
    }
}
