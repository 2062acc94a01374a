//! TPC-H: schema, deterministic data generator, and Q1–Q20 plans.
//!
//! Substitution note (DESIGN.md §1): the paper runs official dbgen at
//! scale factor 200 on a 4-node cluster; we generate the same schema at
//! laptop scale. Row counts follow the spec's ratios: per unit of scale
//! factor — 150k customers, 1.5M orders, ~4.3 lineitems per order, 200k
//! parts, 10k suppliers, 800k partsupps, 25 nations, 5 regions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eon_columnar::{Batch, Projection};
use eon_types::value::ymd_to_days;
use eon_types::{schema, Schema, Value};

pub mod queries;

pub use queries::{tpch_query, TPCH_QUERY_COUNT};

// ---------------------------------------------------------------- schema

pub fn region_schema() -> Schema {
    schema![("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)]
}

pub fn nation_schema() -> Schema {
    schema![
        ("n_nationkey", Int),
        ("n_name", Str),
        ("n_regionkey", Int),
        ("n_comment", Str),
    ]
}

pub fn supplier_schema() -> Schema {
    schema![
        ("s_suppkey", Int),
        ("s_name", Str),
        ("s_address", Str),
        ("s_nationkey", Int),
        ("s_phone", Str),
        ("s_acctbal", Float),
        ("s_comment", Str),
    ]
}

pub fn customer_schema() -> Schema {
    schema![
        ("c_custkey", Int),
        ("c_name", Str),
        ("c_address", Str),
        ("c_nationkey", Int),
        ("c_phone", Str),
        ("c_acctbal", Float),
        ("c_mktsegment", Str),
        ("c_comment", Str),
    ]
}

pub fn part_schema() -> Schema {
    schema![
        ("p_partkey", Int),
        ("p_name", Str),
        ("p_mfgr", Str),
        ("p_brand", Str),
        ("p_type", Str),
        ("p_size", Int),
        ("p_container", Str),
        ("p_retailprice", Float),
        ("p_comment", Str),
    ]
}

pub fn partsupp_schema() -> Schema {
    schema![
        ("ps_partkey", Int),
        ("ps_suppkey", Int),
        ("ps_availqty", Int),
        ("ps_supplycost", Float),
        ("ps_comment", Str),
    ]
}

pub fn orders_schema() -> Schema {
    schema![
        ("o_orderkey", Int),
        ("o_custkey", Int),
        ("o_orderstatus", Str),
        ("o_totalprice", Float),
        ("o_orderdate", Date),
        ("o_orderpriority", Str),
        ("o_clerk", Str),
        ("o_shippriority", Int),
        ("o_comment", Str),
    ]
}

pub fn lineitem_schema() -> Schema {
    schema![
        ("l_orderkey", Int),
        ("l_partkey", Int),
        ("l_suppkey", Int),
        ("l_linenumber", Int),
        ("l_quantity", Float),
        ("l_extendedprice", Float),
        ("l_discount", Float),
        ("l_tax", Float),
        ("l_returnflag", Str),
        ("l_linestatus", Str),
        ("l_shipdate", Date),
        ("l_commitdate", Date),
        ("l_receiptdate", Date),
        ("l_shipinstruct", Str),
        ("l_shipmode", Str),
        ("l_comment", Str),
    ]
}

// ------------------------------------------------------------- generator

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const CONTAINERS: [&str; 8] = [
    "SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PKG", "WRAP JAR",
];
const TYPE_A: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_B: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_C: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const NAME_WORDS: [&str; 12] = [
    "almond", "antique", "aquamarine", "azure", "blanched", "blue", "chocolate", "forest",
    "green", "ivory", "linen", "navy",
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// All eight tables, generated.
pub struct TpchData {
    pub region: Vec<Vec<Value>>,
    pub nation: Vec<Vec<Value>>,
    pub supplier: Vec<Vec<Value>>,
    pub customer: Vec<Vec<Value>>,
    pub part: Vec<Vec<Value>>,
    pub partsupp: Vec<Vec<Value>>,
    pub orders: Vec<Vec<Value>>,
    pub lineitem: Vec<Vec<Value>>,
}

fn s(v: &str) -> Value {
    Value::Str(v.to_owned())
}

impl TpchData {
    /// Generate at the given scale factor (1.0 = full spec ratios;
    /// figure reproduction uses 0.01–0.05). Deterministic per seed.
    pub fn generate(sf: f64, seed: u64) -> TpchData {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_customer = ((150_000.0 * sf) as i64).max(50);
        let n_orders = n_customer * 10;
        let n_part = ((200_000.0 * sf) as i64).max(80);
        let n_supplier = ((10_000.0 * sf) as i64).max(10);

        let region: Vec<Vec<Value>> = REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| vec![Value::Int(i as i64), s(name), s("about the region")])
            .collect();

        let nation: Vec<Vec<Value>> = NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| {
                vec![Value::Int(i as i64), s(name), Value::Int(*region), s("nation notes")]
            })
            .collect();

        let supplier: Vec<Vec<Value>> = (0..n_supplier)
            .map(|k| {
                let complaint = rng.gen_bool(0.05);
                vec![
                    Value::Int(k),
                    Value::Str(format!("Supplier#{k:09}")),
                    Value::Str(format!("addr-{k}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Str(format!("27-{k:07}")),
                    Value::Float((rng.gen_range(-99_999i64..999_999) as f64) / 100.0),
                    s(if complaint {
                        "careful Customer Complaints noted"
                    } else {
                        "dependable supplier"
                    }),
                ]
            })
            .collect();

        let customer: Vec<Vec<Value>> = (0..n_customer)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::Str(format!("Customer#{k:09}")),
                    Value::Str(format!("addr-{k}")),
                    Value::Int(rng.gen_range(0..25)),
                    Value::Str(format!("13-{k:07}")),
                    Value::Float((rng.gen_range(-99_999i64..999_999) as f64) / 100.0),
                    s(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                    s("customer comment"),
                ]
            })
            .collect();

        let part: Vec<Vec<Value>> = (0..n_part)
            .map(|k| {
                let ty = format!(
                    "{} {} {}",
                    TYPE_A[rng.gen_range(0..TYPE_A.len())],
                    TYPE_B[rng.gen_range(0..TYPE_B.len())],
                    TYPE_C[rng.gen_range(0..TYPE_C.len())]
                );
                let name = format!(
                    "{} {}",
                    NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())],
                    NAME_WORDS[rng.gen_range(0..NAME_WORDS.len())]
                );
                vec![
                    Value::Int(k),
                    Value::Str(name),
                    Value::Str(format!("Manufacturer#{}", 1 + k % 5)),
                    Value::Str(format!("Brand#{}{}", 1 + k % 5, 1 + (k / 5) % 5)),
                    Value::Str(ty),
                    Value::Int(rng.gen_range(1..51)),
                    s(CONTAINERS[rng.gen_range(0..CONTAINERS.len())]),
                    Value::Float(900.0 + (k % 1000) as f64 / 10.0),
                    s("part comment"),
                ]
            })
            .collect();

        let partsupp: Vec<Vec<Value>> = (0..n_part)
            .flat_map(|p| {
                let mut rows = Vec::with_capacity(4);
                for i in 0..4 {
                    let sk = (p + i * (n_supplier / 4).max(1)) % n_supplier;
                    rows.push(vec![
                        Value::Int(p),
                        Value::Int(sk),
                        Value::Int(1 + (p * 7 + i * 13) % 9999),
                        Value::Float(1.0 + ((p * 31 + i * 17) % 99_900) as f64 / 100.0),
                        s("ps comment"),
                    ]);
                }
                rows
            })
            .collect();

        let start = ymd_to_days(1992, 1, 1);
        let span = ymd_to_days(1998, 8, 2) - start;

        let mut orders = Vec::with_capacity(n_orders as usize);
        let mut lineitem = Vec::new();
        for ok in 0..n_orders {
            let custkey = rng.gen_range(0..n_customer);
            let orderdate = start + rng.gen_range(0..span - 151);
            let special = rng.gen_bool(0.02);
            let n_lines = rng.gen_range(1..8);
            let mut total = 0.0f64;
            for ln in 0..n_lines {
                let partkey = rng.gen_range(0..n_part);
                let suppkey = rng.gen_range(0..n_supplier);
                let qty = rng.gen_range(1..51) as f64;
                let price = qty * (900.0 + (partkey % 1000) as f64 / 10.0) / 10.0;
                let discount = rng.gen_range(0..11) as f64 / 100.0;
                let tax = rng.gen_range(0..9) as f64 / 100.0;
                let shipdate = orderdate + rng.gen_range(1..122);
                let commitdate = orderdate + rng.gen_range(30..91);
                let receiptdate = shipdate + rng.gen_range(1..31);
                let today = ymd_to_days(1995, 6, 17);
                let (rf, ls) = if receiptdate <= today {
                    (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
                } else {
                    ("N", "O")
                };
                total += price * (1.0 - discount) * (1.0 + tax);
                lineitem.push(vec![
                    Value::Int(ok),
                    Value::Int(partkey),
                    Value::Int(suppkey),
                    Value::Int(ln),
                    Value::Float(qty),
                    Value::Float(price),
                    Value::Float(discount),
                    Value::Float(tax),
                    s(rf),
                    s(ls),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    s(INSTRUCTS[rng.gen_range(0..INSTRUCTS.len())]),
                    s(SHIPMODES[rng.gen_range(0..SHIPMODES.len())]),
                    s("lineitem comment"),
                ]);
            }
            orders.push(vec![
                Value::Int(ok),
                Value::Int(custkey),
                s(if rng.gen_bool(0.5) { "F" } else { "O" }),
                Value::Float(total),
                Value::Date(orderdate),
                s(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
                Value::Str(format!("Clerk#{:09}", rng.gen_range(0..1000))),
                Value::Int(0),
                s(if special {
                    "was told to handle special requests carefully"
                } else {
                    "ordinary order comment"
                }),
            ]);
        }

        TpchData {
            region,
            nation,
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
        }
    }

    pub fn total_rows(&self) -> usize {
        self.region.len()
            + self.nation.len()
            + self.supplier.len()
            + self.customer.len()
            + self.part.len()
            + self.partsupp.len()
            + self.orders.len()
            + self.lineitem.len()
    }
}

// ------------------------------------------------------------ DDL + load

/// Table name, schema, sort column, segmentation column, replicated?
pub fn tpch_tables() -> Vec<(&'static str, Schema, usize, usize, bool)> {
    vec![
        ("region", region_schema(), 0, 0, true),
        ("nation", nation_schema(), 0, 0, true),
        ("supplier", supplier_schema(), 0, 0, false),
        ("customer", customer_schema(), 0, 0, false),
        ("part", part_schema(), 0, 0, false),
        ("partsupp", partsupp_schema(), 0, 0, false),
        ("orders", orders_schema(), 4, 0, false), // sorted by o_orderdate
        ("lineitem", lineitem_schema(), 10, 0, false), // sorted by l_shipdate
    ]
}

/// Create TPC-H tables and load generated data into an Eon database.
pub fn load_tpch_eon(db: &eon_core::EonDb, data: &TpchData) -> eon_types::Result<()> {
    for (name, schema, sort, seg, replicated) in tpch_tables() {
        let proj = if replicated {
            Projection::replicated(format!("{name}_rep"), &schema, &[sort])
        } else {
            Projection::super_projection(format!("{name}_super"), &schema, &[sort], &[seg])
        };
        let width = schema.len();
        db.create_table(name, schema, vec![proj])?;
        db.copy_batch(name, Batch::from_rows(table_rows(data, name), width))?;
    }
    Ok(())
}

/// Same for the Enterprise baseline (no replicated projections there —
/// dimensions are segmented and broadcast at query time, the §9
/// contrast).
pub fn load_tpch_enterprise(
    db: &eon_enterprise::EnterpriseDb,
    data: &TpchData,
) -> eon_types::Result<()> {
    for (name, schema, sort, seg, _replicated) in tpch_tables() {
        let proj =
            Projection::super_projection(format!("{name}_super"), &schema, &[sort], &[seg]);
        let width = schema.len();
        db.create_table(name, schema, proj)?;
        db.copy_batch(name, Batch::from_rows(table_rows(data, name), width))?;
    }
    Ok(())
}

/// The generated rows of the TPC-H table `name`.
fn table_rows<'a>(data: &'a TpchData, name: &str) -> &'a [Vec<Value>] {
    match name {
        "region" => &data.region,
        "nation" => &data.nation,
        "supplier" => &data.supplier,
        "customer" => &data.customer,
        "part" => &data.part,
        "partsupp" => &data.partsupp,
        "orders" => &data.orders,
        "lineitem" => &data.lineitem,
        _ => unreachable!("{name} is not a TPC-H table"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(0.002, 7);
        let b = TpchData::generate(0.002, 7);
        assert_eq!(a.lineitem.len(), b.lineitem.len());
        assert_eq!(a.lineitem[0], b.lineitem[0]);
        assert_eq!(a.orders[10], b.orders[10]);
    }

    #[test]
    fn ratios_follow_spec() {
        let d = TpchData::generate(0.01, 1);
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert_eq!(d.customer.len(), 1500);
        assert_eq!(d.orders.len(), 15_000);
        assert_eq!(d.part.len(), 2000);
        assert_eq!(d.partsupp.len(), 8000);
        // ~4 lineitems per order
        let ratio = d.lineitem.len() as f64 / d.orders.len() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rows_satisfy_schemas() {
        let d = TpchData::generate(0.002, 3);
        for (rows, schema) in
            [(&d.lineitem, lineitem_schema()), (&d.orders, orders_schema()), (&d.nation, nation_schema())]
        {
            Batch::from_rows_checked(rows, schema.len()).unwrap().check_schema(&schema).unwrap();
        }
    }

    #[test]
    fn dates_are_consistent() {
        let d = TpchData::generate(0.002, 3);
        for row in d.lineitem.iter().take(200) {
            let ship = row[10].as_int().unwrap();
            let receipt = row[12].as_int().unwrap();
            assert!(receipt > ship, "receipt after ship");
        }
    }
}
