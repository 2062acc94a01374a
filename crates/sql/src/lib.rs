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
//! [`parse`] produces an AST, with expression nesting bounded so that
//! no statement can exhaust a thread's stack. [`bind`] resolves names
//! against a [`SchemaSource`] (any catalog) and emits an unoptimized
//! `eon_exec::Plan`: bare scans (the leftmost table shard-local, joined
//! tables broadcast — the same safe defaults the hand-built workloads
//! use) and the whole WHERE clause in one `Filter` above the joins.
//! Optimizing is the plan rules' job, in `eon-exec` and `eon-core`.
//! [`compile`] is parse, bind and `eon_exec::push_predicates`.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::SelectStmt;
pub use parser::parse;
pub use planner::{bind, SchemaSource};

/// Parse, bind, and move the WHERE conjuncts into the scans they test.
pub fn compile(
    sql: &str,
    schemas: &dyn SchemaSource,
) -> eon_types::Result<eon_exec::Plan> {
    Ok(compile_with_columns(sql, schemas)?.0)
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
    let plan = bind(&stmt, schemas)?;
    // A scan's width, for routing conjuncts through joins; bound scans
    // carry no column list and are never pinned.
    let scan_width = |spec: &eon_exec::ScanSpec| schemas.table_schema(&spec.table).ok().map(|s| s.len());
    Ok((eon_exec::push_predicates(&plan, &scan_width), stmt.output_columns()))
}
