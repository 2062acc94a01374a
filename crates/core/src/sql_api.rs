//! SQL convenience entry point: parse, plan against the live catalog,
//! execute.

use std::sync::Arc;

use eon_sql::SchemaSource;
use eon_types::{EonError, Result, Schema, Value};

use crate::db::EonDb;
use crate::query::{optimize, SessionOpts};

struct SnapshotSchemas(Arc<eon_catalog::CatalogState>);

impl SchemaSource for SnapshotSchemas {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.0
            .table_by_name(name)
            .map(|t| t.schema.clone())
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }
}

/// A SQL result with its output column labels — the shape a network
/// client renders as a table (see `eon-net`).
#[derive(Debug, Clone, PartialEq)]
pub struct SqlResult {
    /// One label per output column (alias or rendered expression).
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl EonDb {
    /// Run a SQL SELECT against the cluster. See `eon-sql` for the
    /// supported grammar.
    pub fn sql(&self, query: &str) -> Result<Vec<Vec<Value>>> {
        self.sql_with(query, &SessionOpts::default())
    }

    /// The serverable SQL surface: rows **plus column labels**, under
    /// full session options. This is what `eon-server` calls per
    /// request — everything (admission, slots, cancellation) rides the
    /// same path as [`EonDb::sql_with`].
    pub fn sql_query(&self, query: &str, opts: &SessionOpts) -> Result<SqlResult> {
        let schemas = SnapshotSchemas(self.snapshot()?);
        let (plan, columns) = eon_sql::compile_with_columns(query, &schemas)?;
        let rows = self.query_with(&plan, opts)?;
        Ok(SqlResult { columns, rows })
    }

    /// SQL with session options (subcluster, cache bypass, crunch).
    pub fn sql_with(&self, query: &str, opts: &SessionOpts) -> Result<Vec<Vec<Value>>> {
        let schemas = SnapshotSchemas(self.snapshot()?);
        let plan = eon_sql::compile(query, &schemas)?;
        self.query_with(&plan, opts)
    }

    /// `EXPLAIN`: render the plan a statement would run — after the
    /// plan rules, so scans show the columns they read — without
    /// executing it.
    pub fn sql_explain(&self, query: &str) -> Result<String> {
        let schemas = SnapshotSchemas(self.snapshot()?);
        let plan = eon_sql::compile(query, &schemas)?;
        Ok(optimize(&plan, &schemas.0).describe())
    }

    /// `EXPLAIN ANALYZE`: execute the statement and return its rows
    /// together with a text report combining the plan tree and the
    /// per-query profile (compile time, per-participant slot wait and
    /// local-phase time, coordinator merge, failovers, rows returned).
    pub fn sql_explain_analyze(
        &self,
        query: &str,
        opts: &SessionOpts,
    ) -> Result<(Vec<Vec<Value>>, String)> {
        let compile_started = std::time::Instant::now();
        let schemas = SnapshotSchemas(self.snapshot()?);
        let plan = eon_sql::compile(query, &schemas)?;
        let compile_us = compile_started.elapsed().as_micros() as u64;
        let (rows, profile) = self.query_profiled(&plan, opts)?;
        profile.record_span("compile", "", compile_us);
        let report = format!("{}\n{}", optimize(&plan, &schemas.0).describe(), profile.render());
        Ok((rows, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_columnar::Projection;
    use eon_storage::MemFs;
    use eon_types::schema;

    fn db_loaded() -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("grp", Str), ("price", Int), ("region_id", Int)];
        db.create_table(
            "sales",
            s.clone(),
            vec![Projection::super_projection("sales_super", &s, &[0], &[0])],
        )
        .unwrap();
        let r = schema![("region_id", Int), ("region", Str)];
        db.create_table(
            "regions",
            r.clone(),
            vec![Projection::replicated("regions_rep", &r, &[0])],
        )
        .unwrap();
        db.copy_into(
            "regions",
            vec![
                vec![Value::Int(0), Value::Str("NA".into())],
                vec![Value::Int(1), Value::Str("EU".into())],
            ],
        )
        .unwrap();
        db.copy_into(
            "sales",
            (0..1000)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Str(if i % 3 == 0 { "a" } else { "b" }.into()),
                        Value::Int(i % 50),
                        Value::Int(i % 2),
                    ]
                })
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn simple_filter_and_projection() {
        let db = db_loaded();
        let rows = db
            .sql("SELECT id, price FROM sales WHERE id < 3 ORDER BY id")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn grouped_aggregation_matches_manual_math() {
        let db = db_loaded();
        let rows = db
            .sql("SELECT grp, COUNT(*), SUM(price) FROM sales GROUP BY grp ORDER BY grp")
            .unwrap();
        assert_eq!(rows.len(), 2);
        let count_a: i64 = (0..1000).filter(|i| i % 3 == 0).count() as i64;
        let sum_a: i64 = (0..1000).filter(|i| i % 3 == 0).map(|i| i % 50).sum();
        assert_eq!(rows[0], vec![Value::Str("a".into()), Value::Int(count_a), Value::Int(sum_a)]);
    }

    #[test]
    fn join_with_aliases_and_having() {
        let db = db_loaded();
        let rows = db
            .sql(
                "SELECT r.region, SUM(s.price) AS total \
                 FROM sales s JOIN regions r ON s.region_id = r.region_id \
                 GROUP BY r.region HAVING total > 0 ORDER BY total DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Region with odd ids (EU) or even (NA): compute both and take
        // the max.
        let sum_for = |m: i64| -> i64 { (0..1000).filter(|i| i % 2 == m).map(|i| i % 50).sum() };
        let expect = sum_for(0).max(sum_for(1));
        assert_eq!(rows[0][1], Value::Int(expect));
    }

    #[test]
    fn where_pushdown_and_expressions() {
        let db = db_loaded();
        let rows = db
            .sql(
                "SELECT AVG(price * 2) FROM sales \
                 WHERE price BETWEEN 10 AND 19 AND grp = 'a'",
            )
            .unwrap();
        let matching: Vec<i64> = (0..1000i64)
            .filter(|i| i % 3 == 0 && (10..=19).contains(&(i % 50)))
            .map(|i| (i % 50) * 2)
            .collect();
        let expect = matching.iter().sum::<i64>() as f64 / matching.len() as f64;
        assert_eq!(rows[0][0], Value::Float(expect));
    }

    #[test]
    fn count_distinct_and_in_list() {
        let db = db_loaded();
        let rows = db
            .sql("SELECT COUNT(DISTINCT price) FROM sales WHERE grp IN ('a', 'b')")
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(50));
    }

    #[test]
    fn sql_query_returns_column_labels() {
        let db = db_loaded();
        let res = db
            .sql_query(
                "SELECT grp, COUNT(*), SUM(price) AS total FROM sales GROUP BY grp ORDER BY grp",
                &SessionOpts::default(),
            )
            .unwrap();
        assert_eq!(res.columns, vec!["grp", "COUNT(*)", "total"]);
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows.len(), db.sql("SELECT grp, COUNT(*), SUM(price) AS total FROM sales GROUP BY grp ORDER BY grp").unwrap().len());
    }

    #[test]
    fn multibyte_literals_execute_byte_exact() {
        // The lexer round-trips UTF-8; the executor must match on the
        // exact bytes, end to end.
        let db = db_loaded();
        db.copy_into(
            "regions",
            vec![vec![Value::Int(2), Value::Str("café ☕".into())]],
        )
        .unwrap();
        let rows = db
            .sql("SELECT region_id FROM regions WHERE region = 'café ☕'")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn errors_are_user_legible() {
        let db = db_loaded();
        assert!(db.sql("SELECT nope FROM sales").is_err());
        assert!(db.sql("SELECT id FROM ghost_table").is_err());
        assert!(db.sql("SELECT id FROM sales WHERE").is_err());
        // Ambiguous column across joined tables.
        assert!(db
            .sql("SELECT region_id FROM sales s JOIN regions r ON s.region_id = r.region_id")
            .is_err());
    }

    /// SUM / AVG over a string, boolean or date cell is a typed query
    /// error, never a number made up from it (`0.0`, the string itself,
    /// a count of days); a fold that reaches no non-NULL cell is NULL.
    #[test]
    fn sum_and_avg_over_non_numeric_columns_are_typed_errors() {
        let db = db_loaded();
        let s = schema![("id", Int), ("d", Date), ("ok", Bool)];
        let days = Projection::super_projection("days_super", &s, &[0], &[0]);
        db.create_table("days", s.clone(), vec![days]).unwrap();
        let day = |i: i64| vec![Value::Int(i), Value::Date(i as i32), Value::Bool(i % 2 == 0)];
        db.copy_into("days", (0..10).map(day).collect()).unwrap();
        for stmt in [
            "SELECT SUM(grp) FROM sales",
            "SELECT AVG(grp) FROM sales",
            "SELECT SUM(grp) FROM sales WHERE id = 3",
            "SELECT grp, SUM(grp) FROM sales GROUP BY grp",
            "SELECT SUM(d) FROM days",
            "SELECT AVG(d) FROM days",
            "SELECT SUM(ok) FROM days",
        ] {
            match db.sql(stmt) {
                Err(EonError::Query(msg)) => assert!(msg.contains("non-numeric"), "{stmt}: {msg}"),
                other => panic!("{stmt}: {other:?}"),
            }
        }
        let joined = "FROM sales JOIN days ON sales.id = days.id";
        let none_reached = db.sql(&format!("SELECT SUM(grp), AVG(d) {joined} WHERE sales.id < 0"));
        assert_eq!(none_reached.unwrap(), vec![vec![Value::Null, Value::Null]]);
        let any_type = db.sql(&format!("SELECT COUNT(grp), MIN(d) {joined}")).unwrap();
        assert_eq!(any_type, vec![vec![Value::Int(10), Value::Date(0)]]);
    }

    /// WHERE filters the output of a LEFT JOIN, NULL-padded rows
    /// included: with NA the only region, the 500 odd-region sales are
    /// padded, and neither test on `r.region` may thin the scan below
    /// the join (which pads all 1 000 and keeps them).
    #[test]
    fn where_on_the_nullable_side_of_a_left_join_filters_its_output() {
        let db = db_loaded();
        db.delete_where("regions", &eon_columnar::Predicate::eq(0, 1i64)).unwrap();
        let from = "SELECT s.id FROM sales s LEFT JOIN regions r ON s.region_id = r.region_id";
        assert_eq!(db.sql(from).unwrap().len(), 1000);
        let matched = db.sql(&format!("{from} WHERE r.region = 'NA' ORDER BY 1")).unwrap();
        assert_eq!(matched.len(), 500);
        assert_eq!(matched[1], vec![Value::Int(2)]);
        let padded = db.sql(&format!("{from} WHERE r.region IS NULL ORDER BY 1")).unwrap();
        assert_eq!(padded.len(), 500);
        assert_eq!(padded[1], vec![Value::Int(3)]);
    }

    #[test]
    fn explain_shows_pushdown_without_executing() {
        let db = db_loaded();
        let text = db
            .sql_explain("SELECT grp, COUNT(*) FROM sales WHERE price > 10 GROUP BY grp")
            .unwrap();
        // The plan that runs: `grp` is the one column the scan outputs,
        // `price` is read by the pushed-down predicate only.
        assert!(text.contains("Scan sales cols=[1] [pushdown]"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn explain_analyze_returns_rows_and_profile() {
        let db = db_loaded();
        let (rows, report) = db
            .sql_explain_analyze(
                "SELECT grp, COUNT(*) FROM sales GROUP BY grp ORDER BY grp",
                &SessionOpts::default(),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(report.contains("Scan sales cols=[1]"), "{report}");
        assert!(report.contains("Query Profile"), "{report}");
        assert!(report.contains("local_phase"), "{report}");
        assert!(report.contains("rows_returned = 2"), "{report}");
    }

    #[test]
    fn sql_agrees_with_plan_api() {
        use eon_exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
        let db = db_loaded();
        let via_sql = db
            .sql("SELECT grp, MIN(price), MAX(price) FROM sales GROUP BY grp ORDER BY grp")
            .unwrap();
        let plan = Plan::scan(ScanSpec::new("sales"))
            .aggregate(
                vec![1],
                vec![AggSpec::min(Expr::col(2)), AggSpec::max(Expr::col(2))],
            )
            .sort(vec![SortKey::asc(0)]);
        assert_eq!(via_sql, db.query(&plan).unwrap());
    }
}
