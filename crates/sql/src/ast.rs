//! The SQL AST: deliberately close to the SELECT grammar, with name
//! resolution deferred to the binder.

use eon_types::Value;

/// A (possibly qualified) column reference: `c` or `t.c`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

/// Scalar expression before name resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Col(ColRef),
    Lit(Value),
    Binary {
        op: BinOp,
        l: Box<SqlExpr>,
        r: Box<SqlExpr>,
    },
    And(Vec<SqlExpr>),
    Or(Vec<SqlExpr>),
    Not(Box<SqlExpr>),
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
    Like {
        expr: Box<SqlExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<SqlExpr>,
        list: Vec<Value>,
        negated: bool,
    },
    Between {
        expr: Box<SqlExpr>,
        lo: Box<SqlExpr>,
        hi: Box<SqlExpr>,
    },
    /// Aggregate call — only legal in the SELECT list / HAVING.
    Agg {
        func: AggCall,
        arg: Option<Box<SqlExpr>>,
        distinct: bool,
    },
}

impl SqlExpr {
    /// Levels from this node down to its deepest leaf; a column or a
    /// literal is one level.
    pub(crate) fn depth(&self) -> usize {
        1 + match self {
            SqlExpr::Col(_) | SqlExpr::Lit(_) => 0,
            SqlExpr::Binary { l, r, .. } => l.depth().max(r.depth()),
            SqlExpr::And(es) | SqlExpr::Or(es) => es.iter().map(SqlExpr::depth).max().unwrap_or(0),
            SqlExpr::Not(e)
            | SqlExpr::IsNull { expr: e, .. }
            | SqlExpr::Like { expr: e, .. }
            | SqlExpr::InList { expr: e, .. } => e.depth(),
            SqlExpr::Between { expr, lo, hi } => expr.depth().max(lo.depth()).max(hi.depth()),
            SqlExpr::Agg { arg, .. } => arg.as_ref().map_or(0, |a| a.depth()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggCall {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: SqlExpr,
    pub alias: Option<String>,
}

/// `FROM t [AS] a` with zero or more joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
}

/// `JOIN t ON a.x = b.y [AND a.p = b.q …]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinType,
    pub table: TableRef,
    /// Equality pairs from the ON clause.
    pub on: Vec<(ColRef, ColRef)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Column name, alias, or 1-based SELECT position.
    pub key: OrderKey,
    pub desc: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum OrderKey {
    Name(ColRef),
    Position(usize),
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub where_: Option<SqlExpr>,
    pub group_by: Vec<ColRef>,
    pub having: Option<SqlExpr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Output column labels, one per SELECT-list item: the alias when
    /// given, otherwise a rendering of the expression (`SUM(price)`,
    /// `t.c`, `?column?` for anything structural). This is what a
    /// network client shows as the result-table header.
    pub fn output_columns(&self) -> Vec<String> {
        self.items.iter().map(column_label).collect()
    }
}

/// Label for one SELECT-list item (alias, else rendered expression).
fn column_label(item: &SelectItem) -> String {
    match &item.alias {
        Some(a) => a.clone(),
        None => render_expr(&item.expr),
    }
}

fn render_colref(c: &ColRef) -> String {
    match &c.table {
        Some(t) => format!("{t}.{}", c.column),
        None => c.column.clone(),
    }
}

fn render_expr(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Col(c) => render_colref(c),
        SqlExpr::Lit(v) => v.to_string(),
        SqlExpr::Binary { op, l, r } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
            };
            format!("{} {sym} {}", render_expr(l), render_expr(r))
        }
        SqlExpr::Agg { func, arg, distinct } => {
            let name = match func {
                AggCall::Sum => "SUM",
                AggCall::Count => "COUNT",
                AggCall::Avg => "AVG",
                AggCall::Min => "MIN",
                AggCall::Max => "MAX",
            };
            let inner = match arg {
                Some(a) => format!(
                    "{}{}",
                    if *distinct { "DISTINCT " } else { "" },
                    render_expr(a)
                ),
                None => "*".to_string(),
            };
            format!("{name}({inner})")
        }
        // Predicates in a SELECT list are rare; a generic label keeps
        // headers short without losing the positional mapping.
        SqlExpr::And(_)
        | SqlExpr::Or(_)
        | SqlExpr::Not(_)
        | SqlExpr::IsNull { .. }
        | SqlExpr::Like { .. }
        | SqlExpr::InList { .. }
        | SqlExpr::Between { .. } => "?column?".to_string(),
    }
}
