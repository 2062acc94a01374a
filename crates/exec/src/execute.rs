//! Plan execution: the single-node interpreter and the distributed
//! split.
//!
//! [`execute`] runs a whole plan on one node through a
//! [`TableProvider`] (the storage integration point implemented by
//! `eon-core` for Eon mode and `eon-enterprise` for the baseline).
//!
//! [`auto_distribute`] splits a logical plan at the topmost aggregate:
//! everything below runs on every participating node (against its
//! session-assigned shards), aggregates fold into mergeable partial
//! states, and the coordinator merges partials then applies the
//! remaining operators (HAVING filters, final projections, sort,
//! limit). For plans with no aggregate, nodes return their pieces and
//! the coordinator concatenates them once.
//!
//! Rows flow between operators as [`Pieces`], in scan order: a scan's
//! pieces (Eon: one per surviving block) pass through filter, project
//! and the join probe a piece at a time and fold into a running
//! [`Aggregator`]. Only the pipeline breakers concatenate — the join's
//! build side, the sort and the coordinator.

use eon_columnar::Batch;
use eon_types::{EonError, Result};

use crate::agg::{finalize_partials, merge_partials, Aggregator, Partials};
use crate::expr::Expr;
use crate::ops;
use crate::plan::{AggSpec, JoinKind, Plan, ScanSpec, SortKey};

/// Storage integration point: materialize scans.
pub trait TableProvider {
    /// One [`Pieces`] per spec, in order: each scan's output columns, cut
    /// into batches in scan order wherever the provider likes (a scan
    /// that finds no rows may return no batch at all). [`execute`] asks
    /// once per plan, for all of its scans, so a provider may fetch them
    /// together.
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>>;
}

/// An operator's output: batches whose rows, in order, are its rows,
/// and the width they share — known even when there is no batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Pieces {
    pub width: usize,
    pub batches: Vec<Batch>,
}

impl Pieces {
    /// One batch as the whole output.
    pub fn one(batch: Batch) -> Pieces {
        Pieces { width: batch.width(), batches: vec![batch] }
    }

    /// Rows across every piece.
    pub fn rows(&self) -> usize {
        self.batches.iter().map(Batch::rows).sum()
    }

    /// `f` over each piece, into pieces `width` wide.
    fn map(self, width: usize, f: impl FnMut(Batch) -> Result<Batch>) -> Result<Pieces> {
        Ok(Pieces { width, batches: self.batches.into_iter().map(f).collect::<Result<_>>()? })
    }
}

/// Execute a plan on a single node: its scans in one provider call, in
/// `visit_scans` order, then the operators over their pieces, and the
/// output as one batch.
pub fn execute(plan: &Plan, provider: &dyn TableProvider) -> Result<Batch> {
    concatenate(vec![scan_and_run(plan, provider)?])
}

/// `plan`'s output pieces: its scans, then its operators.
fn scan_and_run(plan: &Plan, provider: &dyn TableProvider) -> Result<Pieces> {
    let mut specs = Vec::new();
    plan.visit_scans(&mut |spec| specs.push(spec));
    let scanned = provider.scan(&specs)?;
    if scanned.len() != specs.len() {
        return Err(EonError::Internal(format!(
            "the provider returned {} scans for {} specs",
            scanned.len(),
            specs.len()
        )));
    }
    run(plan, &mut scanned.into_iter())
}

/// `plan` over its scans' pieces, taken in `visit_scans` order.
fn run(plan: &Plan, scanned: &mut impl Iterator<Item = Pieces>) -> Result<Pieces> {
    match plan {
        Plan::Scan(_) => Ok(scanned.next().expect("execute checked one output per scan")),
        Plan::Filter { input, predicate } => {
            let input = run(input, scanned)?;
            let width = input.width;
            input.map(width, |piece| ops::filter(piece, predicate))
        }
        Plan::Project { input, exprs, .. } => {
            run(input, scanned)?.map(exprs.len(), |piece| ops::project(piece, exprs))
        }
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            kind,
        } => {
            let left = run(left, scanned)?;
            let right = run(right, scanned)?;
            let width = match kind {
                JoinKind::Inner | JoinKind::Left => left.width + right.width,
                JoinKind::Semi | JoinKind::Anti => left.width,
            };
            let build = ops::JoinBuild::new(Batch::concat(right.batches, right.width), right_keys);
            left.map(width, |piece| Ok(build.probe(&piece, left_keys, *kind)))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let parts = Aggregator::over(group_by, aggs, &run(input, scanned)?.batches)?;
            Ok(Pieces::one(finalize_partials(parts, group_by.len() + aggs.len())))
        }
        Plan::Sort { input, keys } => {
            let input = run(input, scanned)?;
            Ok(Pieces::one(ops::sort(Batch::concat(input.batches, input.width), keys)))
        }
        Plan::Limit { input, n } => {
            let input = run(input, scanned)?;
            let mut left = *n;
            let head = input.batches.into_iter().map_while(|piece| {
                let piece = (left > 0).then(|| ops::limit(piece, left))?;
                left -= piece.rows();
                Some(piece)
            });
            Ok(Pieces { width: input.width, batches: head.collect() })
        }
    }
}

/// The coordinator's one concatenation: every node's pieces, in node
/// order, as one batch.
fn concatenate(results: Vec<Pieces>) -> Result<Batch> {
    let unanswered = || EonError::Internal("no node answered the query".into());
    let width = results.first().map(|p| p.width).ok_or_else(unanswered)?;
    Ok(Batch::concat(results.into_iter().flat_map(|p| p.batches).collect(), width))
}

/// Coordinator-side steps applied after combining node results.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeStep {
    /// HAVING-style filter over aggregate output.
    Filter(Expr),
    Project { exprs: Vec<Expr>, names: Vec<String> },
    Sort(Vec<SortKey>),
    Limit(usize),
}

/// A plan split into a per-node local phase and a coordinator merge.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPlan {
    /// Runs on every participating node (aggregate removed).
    pub local: Plan,
    /// Partial aggregation applied on each node over `local`'s output;
    /// `None` when the plan has no top-level aggregate.
    pub partial_agg: Option<(Vec<usize>, Vec<AggSpec>)>,
    /// Applied at the coordinator after merging, bottom-up order.
    pub merge: Vec<MergeStep>,
}

/// What a node ships back to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalResult {
    Pieces(Pieces),
    Partials(Partials),
}

/// Split a logical plan at its topmost aggregate (if any).
pub fn auto_distribute(plan: &Plan) -> DistributedPlan {
    // Peel coordinator-side operators top-down until we hit an
    // aggregate or a non-peelable node.
    let mut merge_rev: Vec<MergeStep> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Limit { input, n } => {
                merge_rev.push(MergeStep::Limit(*n));
                cur = input;
            }
            Plan::Sort { input, keys } => {
                merge_rev.push(MergeStep::Sort(keys.clone()));
                cur = input;
            }
            Plan::Project { input, exprs, names } => {
                merge_rev.push(MergeStep::Project {
                    exprs: exprs.clone(),
                    names: names.clone(),
                });
                cur = input;
            }
            Plan::Filter { input, predicate } => {
                merge_rev.push(MergeStep::Filter(predicate.clone()));
                cur = input;
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                merge_rev.reverse();
                return DistributedPlan {
                    local: (**input).clone(),
                    partial_agg: Some((group_by.clone(), aggs.clone())),
                    merge: merge_rev,
                };
            }
            // Scan/Join boundary: no aggregate in the peeled spine. The
            // peeled steps run fine over concatenated rows *except*
            // Filter/Project, which are cheaper on the nodes — but
            // correctness-first: run everything at the coordinator.
            _ => {
                merge_rev.reverse();
                return DistributedPlan {
                    local: cur.clone(),
                    partial_agg: None,
                    merge: merge_rev,
                };
            }
        }
    }
}

impl DistributedPlan {
    /// Does the local phase touch any shard-local scan? If not, the
    /// coordinator should run it on exactly one node (running it on all
    /// nodes would multiply global rows into the merge).
    pub fn has_local_scan(&self) -> bool {
        let mut any = false;
        self.local.visit_scans(&mut |s| {
            if s.distribute == crate::plan::Distribution::LocalShards {
                any = true;
            }
        });
        any
    }

    /// Run the local phase on one node: its pieces, or their partial
    /// aggregates folded in scan order.
    pub fn execute_local(&self, provider: &dyn TableProvider) -> Result<LocalResult> {
        let pieces = scan_and_run(&self.local, provider)?;
        match &self.partial_agg {
            Some((group_by, aggs)) => {
                Ok(LocalResult::Partials(Aggregator::over(group_by, aggs, &pieces.batches)?))
            }
            None => Ok(LocalResult::Pieces(pieces)),
        }
    }

    /// Coordinator: combine node results — partials merged, pieces
    /// concatenated once in node order — and apply the merge steps.
    pub fn finish(&self, results: Vec<LocalResult>) -> Result<Batch> {
        let mut parts = Vec::new();
        let mut pieces = Vec::new();
        for r in results {
            match (r, &self.partial_agg) {
                (LocalResult::Partials(p), Some(_)) => parts.push(p),
                (LocalResult::Pieces(p), None) => pieces.push(p),
                (LocalResult::Pieces(_), Some(_)) => {
                    return Err(EonError::Internal("expected partial aggregates from node".into()))
                }
                (LocalResult::Partials(_), None) => {
                    return Err(EonError::Internal(
                        "unexpected partial aggregates from node".into(),
                    ))
                }
            }
        }
        let mut batch = match &self.partial_agg {
            Some((group_by, aggs)) => {
                finalize_partials(merge_partials(parts), group_by.len() + aggs.len())
            }
            None => concatenate(pieces)?,
        };
        for step in &self.merge {
            batch = match step {
                MergeStep::Filter(e) => ops::filter(batch, e)?,
                MergeStep::Project { exprs, .. } => ops::project(batch, exprs)?,
                MergeStep::Sort(keys) => ops::sort(batch, keys),
                MergeStep::Limit(n) => ops::limit(batch, *n),
            };
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use crate::MemProvider;
    use super::*;
    use crate::expr::CmpOp;
    use crate::plan::{AggFunc, JoinKind};
    use eon_columnar::Predicate;
    use eon_types::Value;
    use std::collections::HashMap;

    fn irows(data: &[&[i64]]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    fn provider() -> MemProvider {
        let mut tables = HashMap::new();
        // sales(region, amount)
        tables.insert(
            "sales".to_owned(),
            irows(&[&[1, 10], &[1, 20], &[2, 5], &[2, 15], &[3, 7]]),
        );
        // regions(id, tier)
        tables.insert("regions".to_owned(), irows(&[&[1, 100], &[2, 200], &[3, 100]]));
        MemProvider::single(tables)
    }

    fn sum_by_region() -> Plan {
        Plan::scan(ScanSpec::new("sales"))
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(1))])
            .sort(vec![SortKey::asc(0)])
    }

    #[test]
    fn end_to_end_aggregate() {
        let out = execute(&sum_by_region(), &provider()).unwrap().into_rows();
        assert_eq!(out, irows(&[&[1, 30], &[2, 20], &[3, 7]]));
    }

    #[test]
    fn scan_pushdown_predicate_and_columns() {
        let p = Plan::scan(
            ScanSpec::new("sales")
                .predicate(Predicate::cmp(1, eon_columnar::pruning::CmpOp::Gt, 9i64))
                .columns(vec![1]),
        );
        let out = execute(&p, &provider()).unwrap().into_rows();
        assert_eq!(out, irows(&[&[10], &[20], &[15]]));
    }

    #[test]
    fn join_then_aggregate() {
        // sum(amount) per region tier
        let p = Plan::scan(ScanSpec::new("sales"))
            .join(Plan::scan(ScanSpec::new("regions").global()), vec![0], vec![0])
            .aggregate(vec![3], vec![AggSpec::sum(Expr::col(1))])
            .sort(vec![SortKey::asc(0)]);
        let out = execute(&p, &provider()).unwrap().into_rows();
        // tier 100: regions 1,3 → 30 + 7 = 37; tier 200: region 2 → 20.
        assert_eq!(out, irows(&[&[100, 37], &[200, 20]]));
    }

    #[test]
    fn semi_join_width() {
        let p = Plan::scan(ScanSpec::new("sales")).join_kind(
            Plan::scan(ScanSpec::new("regions").global()),
            vec![0],
            vec![0],
            JoinKind::Semi,
        );
        assert_eq!(execute(&p, &provider()).unwrap().width(), 2);
    }

    #[test]
    fn distributed_matches_single_node() {
        // 3 "nodes" each see a slice of sales; distributed execution
        // must equal the single-node answer.
        let plan = sum_by_region();
        let single = execute(&plan, &provider()).unwrap().into_rows();

        let dp = auto_distribute(&plan);
        assert!(dp.has_local_scan());
        let mut results = Vec::new();
        for node in 0..3 {
            let mut p = provider();
            p.node = node;
            p.nodes_total = 3;
            results.push(dp.execute_local(&p).unwrap());
        }
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }

    #[test]
    fn distributed_join_with_broadcast_dimension() {
        let plan = Plan::scan(ScanSpec::new("sales"))
            .join(Plan::scan(ScanSpec::new("regions").global()), vec![0], vec![0])
            .aggregate(vec![3], vec![AggSpec::sum(Expr::col(1)), AggSpec::count_star()])
            .sort(vec![SortKey::asc(0)]);
        let single = execute(&plan, &provider()).unwrap().into_rows();
        let dp = auto_distribute(&plan);
        let results: Vec<_> = (0..2)
            .map(|node| {
                let mut p = provider();
                p.node = node;
                p.nodes_total = 2;
                dp.execute_local(&p).unwrap()
            })
            .collect();
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }

    /// Both sides shard-local: each node joins its slice of `sales` with
    /// its slice of `regions`, which holds exactly the keys it needs.
    #[test]
    fn distributed_co_segmented_join_is_exact() {
        let plan = Plan::scan(ScanSpec::new("sales"))
            .join(Plan::scan(ScanSpec::new("regions")), vec![0], vec![0])
            .aggregate(vec![3], vec![AggSpec::sum(Expr::col(1)), AggSpec::count_star()])
            .sort(vec![SortKey::asc(0)]);
        let single = execute(&plan, &provider()).unwrap().into_rows();
        assert_eq!(single, irows(&[&[100, 37, 3], &[200, 20, 2]]));
        let dp = auto_distribute(&plan);
        let results: Vec<_> = (0..3)
            .map(|node| {
                let mut p = provider();
                p.node = node;
                p.nodes_total = 3;
                dp.execute_local(&p).unwrap()
            })
            .collect();
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }

    #[test]
    fn distributed_having_and_limit() {
        // HAVING sum > 10 ORDER BY sum DESC LIMIT 1
        let plan = Plan::scan(ScanSpec::new("sales"))
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(1))])
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(10i64)))
            .sort(vec![SortKey::desc(1)])
            .limit(1);
        let single = execute(&plan, &provider()).unwrap().into_rows();
        assert_eq!(single, irows(&[&[1, 30]]));

        let dp = auto_distribute(&plan);
        assert_eq!(dp.merge.len(), 3); // filter, sort, limit
        let results: Vec<_> = (0..3)
            .map(|node| {
                let mut p = provider();
                p.node = node;
                p.nodes_total = 3;
                dp.execute_local(&p).unwrap()
            })
            .collect();
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }

    #[test]
    fn plan_without_aggregate_concatenates() {
        let plan = Plan::scan(ScanSpec::new("sales")).sort(vec![SortKey::asc(1)]).limit(3);
        let single = execute(&plan, &provider()).unwrap().into_rows();
        let dp = auto_distribute(&plan);
        assert!(dp.partial_agg.is_none());
        let results: Vec<_> = (0..2)
            .map(|node| {
                let mut p = provider();
                p.node = node;
                p.nodes_total = 2;
                dp.execute_local(&p).unwrap()
            })
            .collect();
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }

    #[test]
    fn global_only_plan_detected() {
        let plan = Plan::scan(ScanSpec::new("regions").global())
            .aggregate(vec![], vec![AggSpec::count_star()]);
        let dp = auto_distribute(&plan);
        assert!(!dp.has_local_scan());
        // Executed on ONE node, the answer is correct.
        let out = dp
            .finish(vec![dp.execute_local(&provider()).unwrap()])
            .unwrap()
            .into_rows();
        assert_eq!(out, irows(&[&[3]]));
    }

    #[test]
    fn count_distinct_distributes() {
        let plan = Plan::scan(ScanSpec::new("sales")).aggregate(
            vec![],
            vec![AggSpec::new(AggFunc::CountDistinct, Expr::col(0))],
        );
        let single = execute(&plan, &provider()).unwrap().into_rows();
        assert_eq!(single, irows(&[&[3]]));
        let dp = auto_distribute(&plan);
        let results: Vec<_> = (0..3)
            .map(|node| {
                let mut p = provider();
                p.node = node;
                p.nodes_total = 3;
                dp.execute_local(&p).unwrap()
            })
            .collect();
        assert_eq!(dp.finish(results).unwrap().into_rows(), single);
    }
}
