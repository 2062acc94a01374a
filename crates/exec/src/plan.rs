//! The logical plan language.
//!
//! Plans come from the SQL binder (`eon-sql`) or are built by hand (the
//! workload crate), and the plan rules (`prune`, `push`, `colocate`, and
//! in `eon-core` the Live Aggregate Projection rewrite) rewrite them before
//! Eon executes. A plan is explicit about the two things the paper's
//! execution model cares about: which predicate is *pushed down* into
//! the scan (for block pruning, §2.1) and how each scan *distributes*
//! over the cluster (shard-local vs global, §4).

use eon_columnar::Predicate;

use crate::expr::Expr;

/// How a scan spreads over participating nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distribution {
    /// Each participating node scans only the containers of the shards
    /// the session assigned to it — union over nodes sees each row
    /// exactly once. The default for fact tables.
    #[default]
    LocalShards,
    /// Every node scans the whole table (dimension/broadcast side of a
    /// non-co-segmented join; replicated projections read their single
    /// copy).
    Global,
}

/// A table scan with pushdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    pub table: String,
    /// Subset of table columns to materialize (`None` = all). Output
    /// column order follows this list.
    pub columns: Option<Vec<usize>>,
    /// Pushed-down predicate in *table column indices*; used for block
    /// pruning and early filtering. Applied before column projection.
    pub predicate: Predicate,
    pub distribute: Distribution,
    /// Pin the scan to a specific projection by name. Required to read
    /// a Live Aggregate Projection (its rows are pre-aggregated, so the
    /// planner never picks one implicitly); `columns` is ignored for a
    /// pinned LAP — the scan yields the LAP's own column layout.
    pub projection: Option<String>,
}

impl ScanSpec {
    pub fn new(table: impl Into<String>) -> Self {
        ScanSpec {
            table: table.into(),
            columns: None,
            predicate: Predicate::True,
            distribute: Distribution::LocalShards,
            projection: None,
        }
    }

    /// Pin to a named projection (Live Aggregate Projections must be
    /// addressed this way).
    pub fn projection(mut self, name: impl Into<String>) -> Self {
        self.projection = Some(name.into());
        self
    }

    pub fn columns(mut self, cols: Vec<usize>) -> Self {
        self.columns = Some(cols);
        self
    }

    pub fn predicate(mut self, p: Predicate) -> Self {
        self.predicate = p;
        self
    }

    pub fn global(mut self) -> Self {
        self.distribute = Distribution::Global;
        self
    }

    /// The table columns the scan reads, ascending: its output columns
    /// (all `width` of them without a list) and those its predicate
    /// tests. The projection that answers it must carry each one.
    pub fn needed_columns(&self, width: usize) -> Vec<usize> {
        let mut needed = self.columns.clone().unwrap_or_else(|| (0..width).collect());
        needed.extend(self.predicate.columns());
        needed.sort_unstable();
        needed.dedup();
        needed
    }
}

/// Join kinds used by the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Left outer; unmatched left rows pad the right side with NULLs.
    Left,
    /// Left semi join: left rows with at least one match (EXISTS).
    Semi,
    /// Left anti join: left rows with no match (NOT EXISTS).
    Anti,
}

/// Aggregate functions with mergeable partial states (see `agg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    /// COUNT(*) — counts rows, ignoring the expression.
    CountStar,
    Avg,
    Min,
    Max,
    /// COUNT(DISTINCT expr).
    CountDistinct,
}

/// One aggregate column: `func(expr)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub expr: Expr,
}

impl AggSpec {
    pub fn new(func: AggFunc, expr: Expr) -> Self {
        AggSpec { func, expr }
    }

    pub fn sum(expr: Expr) -> Self {
        Self::new(AggFunc::Sum, expr)
    }

    pub fn count_star() -> Self {
        Self::new(AggFunc::CountStar, Expr::lit(1i64))
    }

    pub fn avg(expr: Expr) -> Self {
        Self::new(AggFunc::Avg, expr)
    }

    pub fn min(expr: Expr) -> Self {
        Self::new(AggFunc::Min, expr)
    }

    pub fn max(expr: Expr) -> Self {
        Self::new(AggFunc::Max, expr)
    }
}

/// A sort key over output column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }

    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

/// The logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    Scan(ScanSpec),
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        /// Equi-join key columns: `left_keys[i] == right_keys[i]`.
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
    },
    /// Hash aggregation. Output columns: group-by columns (in order)
    /// followed by one column per aggregate.
    Aggregate {
        input: Box<Plan>,
        /// Group-by keys as input column indices.
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<Plan>,
        n: usize,
    },
}

impl Plan {
    pub fn scan(spec: ScanSpec) -> Plan {
        Plan::Scan(spec)
    }

    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<Expr>, names: Vec<&str>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs,
            names: names.into_iter().map(|s| s.to_owned()).collect(),
        }
    }

    pub fn join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            kind: JoinKind::Inner,
        }
    }

    pub fn join_kind(
        self,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            kind,
        }
    }

    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// All tables the plan scans (for admission control and metrics).
    pub fn tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit_scans(&mut |s| out.push(s.table.as_str()));
        out
    }

    /// Pretty tree rendering — the body of the SQL layer's `EXPLAIN`
    /// and the plan half of `EXPLAIN ANALYZE` profiles.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out, 0);
        out
    }

    fn describe_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Plan::Scan(s) => {
                out.push_str(&format!("Scan {}", s.table));
                if let Some(p) = &s.projection {
                    out.push_str(&format!(" (projection {p})"));
                }
                if let Some(cols) = &s.columns {
                    out.push_str(&format!(" cols={cols:?}"));
                }
                if s.predicate != Predicate::True {
                    out.push_str(" [pushdown]");
                }
                if s.distribute == Distribution::Global {
                    out.push_str(" [global]");
                }
                out.push('\n');
            }
            Plan::Filter { input, .. } => {
                out.push_str("Filter\n");
                input.describe_into(out, depth + 1);
            }
            Plan::Project { input, names, .. } => {
                out.push_str(&format!("Project {names:?}\n"));
                input.describe_into(out, depth + 1);
            }
            Plan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                out.push_str(&format!("Join {kind:?} on {left_keys:?}={right_keys:?}\n"));
                left.describe_into(out, depth + 1);
                right.describe_into(out, depth + 1);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let funcs: Vec<_> = aggs.iter().map(|a| a.func).collect();
                out.push_str(&format!("Aggregate group_by={group_by:?} {funcs:?}\n"));
                input.describe_into(out, depth + 1);
            }
            Plan::Sort { input, keys } => {
                let cols: Vec<_> = keys
                    .iter()
                    .map(|k| if k.desc { format!("{}v", k.col) } else { format!("{}^", k.col) })
                    .collect();
                out.push_str(&format!("Sort {cols:?}\n"));
                input.describe_into(out, depth + 1);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("Limit {n}\n"));
                input.describe_into(out, depth + 1);
            }
        }
    }

    /// This node with each direct input replaced by `f(input)`: the one
    /// child-rewriting walk the plan rules share.
    pub fn map_inputs(&self, mut f: impl FnMut(&Plan) -> Plan) -> Plan {
        let mut map = |p: &Plan| Box::new(f(p));
        match self {
            Plan::Scan(_) => self.clone(),
            Plan::Filter { input, predicate } => {
                Plan::Filter { input: map(input), predicate: predicate.clone() }
            }
            Plan::Project { input, exprs, names } => {
                Plan::Project { input: map(input), exprs: exprs.clone(), names: names.clone() }
            }
            Plan::Join { left, right, left_keys, right_keys, kind } => Plan::Join {
                left: map(left),
                right: map(right),
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                kind: *kind,
            },
            Plan::Aggregate { input, group_by, aggs } => {
                Plan::Aggregate { input: map(input), group_by: group_by.clone(), aggs: aggs.clone() }
            }
            Plan::Sort { input, keys } => Plan::Sort { input: map(input), keys: keys.clone() },
            Plan::Limit { input, n } => Plan::Limit { input: map(input), n: *n },
        }
    }

    /// Visit every scan in the tree.
    pub fn visit_scans<'a>(&'a self, f: &mut impl FnMut(&'a ScanSpec)) {
        match self {
            Plan::Scan(s) => f(s),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.visit_scans(f),
            Plan::Join { left, right, .. } => {
                left.visit_scans(f);
                right.visit_scans(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = Plan::scan(ScanSpec::new("lineitem"))
            .filter(Expr::eq(Expr::col(0), Expr::lit(1i64)))
            .aggregate(vec![1], vec![AggSpec::count_star()])
            .sort(vec![SortKey::desc(1)])
            .limit(10);
        assert_eq!(p.tables(), vec!["lineitem"]);
        // Shape sanity.
        let Plan::Limit { input, n } = &p else { panic!() };
        assert_eq!(*n, 10);
        assert!(matches!(**input, Plan::Sort { .. }));
    }

    #[test]
    fn join_collects_both_scans() {
        let p = Plan::scan(ScanSpec::new("orders"))
            .join(Plan::scan(ScanSpec::new("customer").global()), vec![1], vec![0]);
        assert_eq!(p.tables(), vec!["orders", "customer"]);
    }

    #[test]
    fn scan_spec_builder() {
        let s = ScanSpec::new("t").columns(vec![0, 2]).global();
        assert_eq!(s.columns, Some(vec![0, 2]));
        assert_eq!(s.distribute, Distribution::Global);
    }
}
