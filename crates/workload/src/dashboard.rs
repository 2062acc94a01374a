//! The dashboard workload behind Fig 11a and Fig 12: "a
//! customer-supplied short query comprised of multiple joins and
//! aggregations that usually runs in about 100 milliseconds."
//!
//! We synthesize a star schema — a compact `events` fact table joined
//! to a replicated `product` dimension and a replicated `geo`
//! dimension — and a short query with two joins, a filter, and a
//! grouped aggregation. Operator mix matches the description; absolute
//! runtime depends on the generated volume.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Batch, Predicate, Projection};
use eon_exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
use eon_types::{schema, Schema, Value};

pub fn events_schema() -> Schema {
    schema![
        ("event_id", Int),
        ("product_id", Int),
        ("geo_id", Int),
        ("amount", Int),
        ("ts", Int),
    ]
}

pub fn product_schema() -> Schema {
    schema![("product_id", Int), ("category", Str), ("price", Int)]
}

pub fn geo_schema() -> Schema {
    schema![("geo_id", Int), ("region", Str)]
}

/// Generated dashboard data.
pub struct DashboardData {
    pub events: Vec<Vec<Value>>,
    pub products: Vec<Vec<Value>>,
    pub geos: Vec<Vec<Value>>,
}

const CATEGORIES: [&str; 6] = ["toys", "books", "tools", "garden", "music", "games"];
const REGIONS: [&str; 4] = ["NA", "EU", "APAC", "LATAM"];

pub fn generate(n_events: usize, seed: u64) -> DashboardData {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_products = 200.max(n_events / 100);
    let products = (0..n_products as i64)
        .map(|p| {
            vec![
                Value::Int(p),
                Value::Str(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].into()),
                Value::Int(rng.gen_range(1..500)),
            ]
        })
        .collect();
    let geos = (0..REGIONS.len() as i64)
        .map(|g| vec![Value::Int(g), Value::Str(REGIONS[g as usize].into())])
        .collect();
    let events = (0..n_events as i64)
        .map(|e| {
            vec![
                Value::Int(e),
                Value::Int(rng.gen_range(0..n_products as i64)),
                Value::Int(rng.gen_range(0..REGIONS.len() as i64)),
                Value::Int(rng.gen_range(1..100)),
                Value::Int(e), // monotone "timestamp"
            ]
        })
        .collect();
    DashboardData {
        events,
        products,
        geos,
    }
}

/// Create the star-schema tables and load them into an Eon database.
pub fn load_eon(db: &eon_core::EonDb, data: &DashboardData) -> eon_types::Result<()> {
    let es = events_schema();
    db.create_table(
        "events",
        es.clone(),
        vec![Projection::super_projection("events_super", &es, &[4], &[0])],
    )?;
    let ps = product_schema();
    db.create_table(
        "product",
        ps.clone(),
        vec![Projection::replicated("product_rep", &ps, &[0])],
    )?;
    let gs = geo_schema();
    db.create_table(
        "geo",
        gs.clone(),
        vec![Projection::replicated("geo_rep", &gs, &[0])],
    )?;
    db.copy_batch("events", &Batch::from_rows(&data.events, es.len()))?;
    db.copy_batch("product", &Batch::from_rows(&data.products, ps.len()))?;
    db.copy_batch("geo", &Batch::from_rows(&data.geos, gs.len()))?;
    Ok(())
}

/// Same for the Enterprise baseline.
pub fn load_enterprise(
    db: &eon_enterprise::EnterpriseDb,
    data: &DashboardData,
) -> eon_types::Result<()> {
    let es = events_schema();
    db.create_table(
        "events",
        es.clone(),
        Projection::super_projection("events_super", &es, &[4], &[0]),
    )?;
    let ps = product_schema();
    db.create_table(
        "product",
        ps.clone(),
        Projection::super_projection("product_super", &ps, &[0], &[0]),
    )?;
    let gs = geo_schema();
    db.create_table(
        "geo",
        gs.clone(),
        Projection::super_projection("geo_super", &gs, &[0], &[0]),
    )?;
    db.copy_batch("events", &Batch::from_rows(&data.events, es.len()))?;
    db.copy_batch("product", &Batch::from_rows(&data.products, ps.len()))?;
    db.copy_batch("geo", &Batch::from_rows(&data.geos, gs.len()))?;
    Ok(())
}

/// The short dashboard query: recent events ⋈ product ⋈ geo, revenue
/// per (category, region), sorted, top 10.
pub fn short_query(ts_floor: i64) -> Plan {
    // events(5) ⋈ product(3) → 8 (category 6, price 7) ⋈ geo(2) → 10
    // (region 9).
    Plan::scan(
        ScanSpec::new("events").predicate(Predicate::cmp(4, CmpOp::Ge, ts_floor)),
    )
    .join(Plan::scan(ScanSpec::new("product").global()), vec![1], vec![0])
    .join(Plan::scan(ScanSpec::new("geo").global()), vec![2], vec![0])
    .aggregate(
        vec![6, 9],
        vec![
            AggSpec::sum(Expr::mul(col(3), col(7))),
            AggSpec::count_star(),
        ],
    )
    .sort(vec![SortKey::desc(2)])
    .limit(10)
}

fn col(i: usize) -> Expr {
    Expr::col(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_core::{EonConfig, EonDb};
    use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
    use std::sync::Arc;

    #[test]
    fn eon_and_enterprise_agree_on_dashboard_query() {
        let data = generate(5_000, 11);
        let eon = EonDb::create(
            Arc::new(eon_storage::MemFs::new()),
            EonConfig::new(3, 3),
        )
        .unwrap();
        load_eon(&eon, &data).unwrap();
        let ent = EnterpriseDb::create(EnterpriseConfig {
            num_nodes: 3,
            exec_slots: 4,
            wos_threshold: 100_000,
        });
        load_enterprise(&ent, &data).unwrap();

        let plan = short_query(1_000);
        let a = eon.query(&plan).unwrap();
        let b = ent.query(&plan).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "two architectures, one answer");
    }

    #[test]
    fn short_query_is_selective() {
        let data = generate(2_000, 3);
        let eon = EonDb::create(
            Arc::new(eon_storage::MemFs::new()),
            EonConfig::new(3, 3),
        )
        .unwrap();
        load_eon(&eon, &data).unwrap();
        let out = eon.query(&short_query(0)).unwrap();
        assert!(out.len() <= 10);
    }
}
