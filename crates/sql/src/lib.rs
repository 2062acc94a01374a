//! A small SQL front end over the plan language.
//!
//! Vertica is a SQL database (§2); this crate closes the usability gap
//! between the hand-built plan API and a query language. It covers the
//! analytics subset the paper's workloads exercise:
//!
//! ```sql
//! SELECT c.region, SUM(s.price * s.qty) AS revenue, COUNT(*)
//! FROM sales s
//! JOIN customer c ON s.cust_id = c.id
//! WHERE s.price > 10 AND c.segment = 'BUILDING'
//! GROUP BY c.region
//! ORDER BY revenue DESC
//! LIMIT 10
//! ```
//!
//! — projections, arithmetic, comparisons, `AND`/`OR`/`NOT`, `LIKE`,
//! `IN`, `BETWEEN`, `IS [NOT] NULL`, inner/left joins with equality `ON`
//! chains, aggregates (`SUM`/`COUNT`/`AVG`/`MIN`/`MAX`,
//! `COUNT(DISTINCT …)`), `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`, and
//! date literals `DATE '1994-01-01'`.
//!
//! [`parse`] produces an AST; [`plan`] resolves names against a
//! [`SchemaSource`] (any catalog) and emits an `eon_exec::Plan`. Scans
//! of the leftmost table stay shard-local; joined tables broadcast —
//! the same safe defaults the hand-built workloads use.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::SelectStmt;
pub use parser::parse;
pub use planner::{plan, SchemaSource};

/// Parse + plan in one call.
pub fn compile(
    sql: &str,
    schemas: &dyn SchemaSource,
) -> eon_types::Result<eon_exec::Plan> {
    plan(&parse(sql)?, schemas)
}

/// [`compile`], additionally returning the output column labels (alias
/// or rendered expression, positionally aligned with result rows) —
/// the serverable surface: a network client needs headers to draw a
/// result table.
pub fn compile_with_columns(
    sql: &str,
    schemas: &dyn SchemaSource,
) -> eon_types::Result<(eon_exec::Plan, Vec<String>)> {
    let stmt = parse(sql)?;
    let columns = stmt.output_columns();
    Ok((plan(&stmt, schemas)?, columns))
}
