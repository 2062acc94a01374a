//! Cross-architecture validation: every TPC-H query must produce the
//! same answer on Eon mode (shared storage, distributed local phases +
//! coordinator merge), on the Enterprise baseline (shared nothing,
//! buddy projections) and on the reference provider (`MemProvider`:
//! the generator's rows scanned with `eval_row` on one node). Eon and
//! Enterprise share the executor and the block-filter kernel but
//! nothing about sharding, caching or distribution; the reference
//! shares only the operators above the scan. Enterprise runs twice:
//! once with every load buffered in its WOS, once at the default WOS
//! threshold (1 024 rows per load bucket), where `lineitem` is written
//! as ROS containers and the other tables stay WOS rows. SQL statements
//! also differ in the optimizer: Eon applies the plan rules, Enterprise
//! runs the bound plan as it is.

use std::collections::HashMap;
use std::sync::Arc;

use eon_columnar::{Batch, Projection};
use eon_core::{EonConfig, EonDb};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_exec::{execute, MemProvider};
use eon_storage::MemFs;
use eon_types::{schema, Schema, Value};
use eon_workload::tpch::{load_tpch_enterprise, load_tpch_eon, tpch_tables, TpchData};
use eon_workload::{tpch_query, TPCH_QUERY_COUNT};

/// Float aggregates are sensitive to summation order, which differs
/// across architectures and after mergeout re-sorts containers; compare
/// with a relative tolerance instead of bitwise.
fn rows_approx_eq(a: &[Vec<eon_types::Value>], b: &[Vec<eon_types::Value>]) -> bool {
    use eon_types::Value;
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() / scale < 1e-9
                }
                _ => va == vb,
            })
    })
}

/// The engines under comparison, loaded with one generated data set.
struct Engines {
    eon: Arc<EonDb>,
    /// Enterprise with every load buffered in the WOS, and Enterprise
    /// at the default WOS threshold (loads above it in ROS containers).
    ents: [Arc<EnterpriseDb>; 2],
    /// The generated tables as rows, scanned with `eval_row`.
    reference: MemProvider,
}

fn setup() -> Engines {
    let data = TpchData::generate(0.002, 0xeee);
    let eon = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(4, 3)).unwrap();
    load_tpch_eon(&eon, &data).unwrap();
    let ents = [1_000_000, EnterpriseConfig::default().wos_threshold].map(|wos_threshold| {
        let ent =
            EnterpriseDb::create(EnterpriseConfig { num_nodes: 4, exec_slots: 4, wos_threshold });
        load_tpch_enterprise(&ent, &data).unwrap();
        ent
    });
    let tables = (data.tables().into_iter())
        .map(|(name, batch)| (name.to_owned(), batch.clone().into_rows()))
        .collect();
    let reference = MemProvider::single(tables);
    Engines { eon, ents, reference }
}

#[test]
fn all_twenty_queries_agree_across_architectures() {
    let Engines { eon, ents, reference } = setup();
    let mut nonempty = 0;
    for q in 1..=TPCH_QUERY_COUNT {
        let plan = tpch_query(q);
        let a = eon.query(&plan).unwrap_or_else(|e| panic!("Q{q} failed on Eon: {e}"));
        for (ent, layout) in ents.iter().zip(["WOS", "ROS"]) {
            let b = ent
                .query(&plan)
                .unwrap_or_else(|e| panic!("Q{q} failed on Enterprise ({layout}): {e}"));
            assert!(
                rows_approx_eq(&a, &b),
                "Q{q}: Eon and Enterprise ({layout}) disagree\n eon: {a:?}\n ent: {b:?}"
            );
        }
        let c = execute(&plan, &reference)
            .unwrap_or_else(|e| panic!("Q{q} failed on the reference: {e}"))
            .into_rows();
        assert!(
            rows_approx_eq(&a, &c),
            "Q{q}: Eon and the reference disagree\n eon: {a:?}\n ref: {c:?}"
        );
        if !a.is_empty() {
            nonempty += 1;
        }
    }
    // The tiny scale factor can legitimately leave a few highly
    // selective queries empty, but most must return rows or the
    // workload itself is broken.
    assert!(nonempty >= 14, "only {nonempty}/20 queries returned rows");
}

#[test]
fn eon_answers_stable_under_node_failure() {
    let eon = setup().eon;
    let baseline: Vec<_> = (1..=6).map(|q| eon.query(&tpch_query(q)).unwrap()).collect();
    eon.kill_node(eon_types::NodeId(2)).unwrap();
    for (i, q) in (1..=6).enumerate() {
        assert!(
            rows_approx_eq(&eon.query(&tpch_query(q)).unwrap(), &baseline[i]),
            "Q{q} changed after node failure"
        );
    }
}

#[test]
fn eon_answers_stable_after_mergeout() {
    let eon = setup().eon;
    let baseline: Vec<_> = (1..=6).map(|q| eon.query(&tpch_query(q)).unwrap()).collect();
    eon.run_mergeout().unwrap();
    for (i, q) in (1..=6).enumerate() {
        assert!(
            rows_approx_eq(&eon.query(&tpch_query(q)).unwrap(), &baseline[i]),
            "Q{q} changed after mergeout"
        );
    }
}

/// Statements for the SQL differential test: the benchmark's Q1, Q3 and
/// `export` shapes, the LEFT JOIN pair whose WHERE tests the NULL-padded
/// side, and `OR` / `IN` / `BETWEEN` / `IS NULL` mixes, on both sides of
/// joins.
const SQL: [&str; 8] = [
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
     SUM(l_extendedprice * (1 - l_discount)), SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
     AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    "SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority, \
     SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue \
     FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey \
     JOIN customer c ON o.o_custkey = c.c_custkey \
     WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < DATE '1995-03-15' \
     AND l.l_shipdate > DATE '1995-03-15' \
     GROUP BY l.l_orderkey, o.o_orderdate, o.o_shippriority \
     ORDER BY revenue DESC, 2 ASC, 1 ASC LIMIT 10",
    "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate, l_shipmode \
     FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1995-04-01' \
     ORDER BY l_orderkey, l_linenumber",
    "SELECT s.id FROM sales s LEFT JOIN regions r ON s.region_id = r.region_id \
     WHERE r.region = 'NA'",
    "SELECT s.id FROM sales s LEFT JOIN regions r ON s.region_id = r.region_id \
     WHERE r.region IS NULL",
    "SELECT grp, r.region, COUNT(*), SUM(price) FROM sales s \
     LEFT JOIN regions r ON s.region_id = r.region_id \
     WHERE (price < 5 OR price > 45 OR r.region IS NOT NULL) AND grp IN ('a', 'b') \
     AND id BETWEEN 100 AND 900 GROUP BY grp, r.region",
    "SELECT l_orderkey, l_linenumber, l_quantity, l_shipmode FROM lineitem \
     WHERE (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP' OR l_quantity < 3) \
     AND l_returnflag IN ('R', 'A') AND l_discount BETWEEN 0.02 AND 0.04 \
     AND l_comment IS NOT NULL",
    "SELECT o.o_orderpriority, COUNT(*), SUM(o.o_totalprice) FROM orders o \
     LEFT JOIN customer c ON o.o_custkey = c.c_custkey \
     WHERE (c.c_mktsegment = 'BUILDING' OR c.c_mktsegment IS NULL) \
     AND o.o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1995-12-31' \
     AND o.o_orderstatus IN ('F', 'O') GROUP BY o.o_orderpriority",
];

/// SQL through both engines: Eon runs each statement through `sql` —
/// bound, then every plan rule — and both Enterprises run the
/// `eon_sql::bind` output with no rule at all. A rule that changes an
/// answer, such as a WHERE test moved below the NULL-padded side of a
/// LEFT JOIN (1 000 rows for 500 on both engines while they shared the
/// planner), shows up as a disagreement. Answers compare as sorted
/// multisets.
#[test]
fn sql_agrees_with_enterprise_running_the_bound_plan() {
    let Engines { eon, ents, .. } = setup();
    // Region 1 has no row, so the odd-region half of the sales is
    // NULL-padded by the LEFT JOIN.
    let sales = schema![("id", Int), ("grp", Str), ("price", Int), ("region_id", Int)];
    let sales_rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            let grp = if i % 3 == 0 { "a" } else { "b" };
            vec![Value::Int(i), Value::Str(grp.into()), Value::Int(i % 50), Value::Int(i % 2)]
        })
        .collect();
    let regions = schema![("region_id", Int), ("region", Str)];
    let region_rows = vec![vec![Value::Int(0), Value::Str("NA".into())]];
    let mut schemas: HashMap<String, Schema> =
        tpch_tables().into_iter().map(|(name, schema, ..)| (name.to_owned(), schema)).collect();
    for (name, schema, rows) in [("sales", sales, sales_rows), ("regions", regions, region_rows)] {
        let proj = Projection::super_projection(format!("{name}_super"), &schema, &[0], &[0]);
        eon.create_table(name, schema.clone(), vec![proj.clone()]).unwrap();
        let batch = Batch::from_rows(&rows, schema.len());
        eon.copy_batch(name, &batch).unwrap();
        for ent in &ents {
            ent.create_table(name, schema.clone(), proj.clone()).unwrap();
            ent.copy_batch(name, &batch).unwrap();
        }
        schemas.insert(name.to_owned(), schema);
    }

    for sql in SQL {
        let bound = eon_sql::bind(&eon_sql::parse(sql).unwrap(), &schemas).unwrap();
        let mut a = eon.sql(sql).unwrap_or_else(|e| panic!("Eon: {e}\n{sql}"));
        a.sort();
        for ent in &ents {
            let mut b = ent.query(&bound).unwrap_or_else(|e| panic!("Enterprise: {e}\n{sql}"));
            assert!(!b.is_empty(), "{sql}");
            b.sort();
            assert!(rows_approx_eq(&a, &b), "{sql}\n eon: {a:?}\n ent: {b:?}");
        }
    }
}
