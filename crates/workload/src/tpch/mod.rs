//! TPC-H: schema, deterministic data generator, and Q1–Q20 plans.
//!
//! Substitution note (DESIGN.md §1): the paper runs official dbgen at
//! scale factor 200 on a 4-node cluster; we generate the same schema at
//! laptop scale. Row counts follow the spec's ratios: per unit of scale
//! factor — 150k customers, 1.5M orders, ~4.3 lineitems per order, 200k
//! parts, 10k suppliers, 800k partsupps, 25 nations, 5 regions.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eon_columnar::{Batch, Column, Data, Projection, StrVec};
use eon_types::value::ymd_to_days;
use eon_types::{schema, Schema, ValueRef};

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

const RETURNFLAGS: [&str; 3] = ["R", "A", "N"];
const STATUSES: [&str; 2] = ["F", "O"];
const SUPPLIER_COMMENTS: [&str; 2] = ["careful Customer Complaints noted", "dependable supplier"];
const ORDER_COMMENTS: [&str; 2] = ["was told to handle special requests carefully", "ordinary order comment"];

/// All eight tables, generated as typed columns in schema order. A
/// string drawn from a fixed list is a dictionary code into that list.
pub struct TpchData {
    pub region: Batch,
    pub nation: Batch,
    pub supplier: Batch,
    pub customer: Batch,
    pub part: Batch,
    pub partsupp: Batch,
    pub orders: Batch,
    pub lineitem: Batch,
}

/// A cell as the generator makes it: a value, or `Of(list, i)`, the
/// string `list[i]` kept as a dictionary code.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Is(ValueRef<'a>),
    Of(&'static [&'static str], usize),
}

/// The one string of a constant column.
fn constant(text: &'static [&'static str; 1]) -> Cell<'static> {
    Cell::Of(text, 0)
}

/// A string drawn uniformly from `list`.
fn pick(rng: &mut StdRng, list: &'static [&'static str]) -> Cell<'static> {
    Cell::Of(list, rng.gen_range(0..list.len()))
}

/// A table of `W` columns, filled a row at a time: a value cell through
/// [`Column::push`], which types the column by its first cell; an `Of`
/// cell's code into its column's list.
struct Table<const W: usize> {
    cols: [Column; W],
    coded: [Option<(&'static [&'static str], Vec<u32>)>; W],
}

impl<const W: usize> Table<W> {
    fn new() -> Table<W> {
        Table { cols: std::array::from_fn(|_| Column::nulls(0)), coded: std::array::from_fn(|_| None) }
    }

    fn push(&mut self, row: [Cell<'_>; W]) {
        for ((col, coded), cell) in self.cols.iter_mut().zip(&mut self.coded).zip(row) {
            match cell {
                Cell::Is(v) => col.push(v),
                Cell::Of(list, i) => coded.get_or_insert_with(|| (list, Vec::new())).1.push(i as u32),
            }
        }
    }

    fn finish(self) -> Batch {
        let cols: Vec<Column> = (self.cols.into_iter().zip(self.coded))
            .map(|(col, coded)| match coded {
                None => col,
                Some((list, codes)) => {
                    let mut dict = StrVec::default();
                    list.iter().for_each(|s| dict.push(s));
                    Column::new(Data::Dict { dict: Arc::new(dict), codes }, None)
                }
            })
            .collect();
        let rows = cols.first().map_or(0, Column::len);
        Batch::new(cols, rows)
    }
}

impl TpchData {
    /// Generate at the given scale factor (1.0 = full spec ratios;
    /// figure reproduction uses 0.01–0.05). Deterministic per seed.
    pub fn generate(sf: f64, seed: u64) -> TpchData {
        use Cell::Is;
        use ValueRef::{Date, Float, Int, Str};
        let mut rng = StdRng::seed_from_u64(seed);
        let n_customer = ((150_000.0 * sf) as i64).max(50);
        let n_orders = n_customer * 10;
        let n_part = ((200_000.0 * sf) as i64).max(80);
        let n_supplier = ((10_000.0 * sf) as i64).max(10);

        let mut region = Table::new();
        for (i, name) in REGIONS.iter().enumerate() {
            region.push([Is(Int(i as i64)), Is(Str(name)), constant(&["about the region"])]);
        }

        let mut nation = Table::new();
        for (i, (name, region)) in NATIONS.iter().enumerate() {
            nation.push([Is(Int(i as i64)), Is(Str(name)), Is(Int(*region)), constant(&["nation notes"])]);
        }

        let mut supplier = Table::new();
        for k in 0..n_supplier {
            let complaint = rng.gen_bool(0.05);
            supplier.push([
                Is(Int(k)),
                Is(Str(&format!("Supplier#{k:09}"))),
                Is(Str(&format!("addr-{k}"))),
                Is(Int(rng.gen_range(0..25))),
                Is(Str(&format!("27-{k:07}"))),
                Is(Float((rng.gen_range(-99_999i64..999_999) as f64) / 100.0)),
                Cell::Of(&SUPPLIER_COMMENTS, if complaint { 0 } else { 1 }),
            ]);
        }

        let mut customer = Table::new();
        for k in 0..n_customer {
            customer.push([
                Is(Int(k)),
                Is(Str(&format!("Customer#{k:09}"))),
                Is(Str(&format!("addr-{k}"))),
                Is(Int(rng.gen_range(0..25))),
                Is(Str(&format!("13-{k:07}"))),
                Is(Float((rng.gen_range(-99_999i64..999_999) as f64) / 100.0)),
                pick(&mut rng, &SEGMENTS),
                constant(&["customer comment"]),
            ]);
        }

        let mut part = Table::new();
        for k in 0..n_part {
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
            part.push([
                Is(Int(k)),
                Is(Str(&name)),
                Is(Str(&format!("Manufacturer#{}", 1 + k % 5))),
                Is(Str(&format!("Brand#{}{}", 1 + k % 5, 1 + (k / 5) % 5))),
                Is(Str(&ty)),
                Is(Int(rng.gen_range(1..51))),
                pick(&mut rng, &CONTAINERS),
                Is(Float(900.0 + (k % 1000) as f64 / 10.0)),
                constant(&["part comment"]),
            ]);
        }

        let mut partsupp = Table::new();
        for p in 0..n_part {
            for i in 0..4 {
                let sk = (p + i * (n_supplier / 4).max(1)) % n_supplier;
                partsupp.push([
                    Is(Int(p)),
                    Is(Int(sk)),
                    Is(Int(1 + (p * 7 + i * 13) % 9999)),
                    Is(Float(1.0 + ((p * 31 + i * 17) % 99_900) as f64 / 100.0)),
                    constant(&["ps comment"]),
                ]);
            }
        }

        let start = ymd_to_days(1992, 1, 1);
        let span = ymd_to_days(1998, 8, 2) - start;

        let mut orders = Table::new();
        let mut lineitem = Table::new();
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
                // Flag R or A and status F, or flag N and status O.
                let (rf, ls) = if receiptdate <= today {
                    (if rng.gen_bool(0.5) { 0 } else { 1 }, 0)
                } else {
                    (2, 1)
                };
                total += price * (1.0 - discount) * (1.0 + tax);
                lineitem.push([
                    Is(Int(ok)),
                    Is(Int(partkey)),
                    Is(Int(suppkey)),
                    Is(Int(ln)),
                    Is(Float(qty)),
                    Is(Float(price)),
                    Is(Float(discount)),
                    Is(Float(tax)),
                    Cell::Of(&RETURNFLAGS, rf),
                    Cell::Of(&STATUSES, ls),
                    Is(Date(shipdate)),
                    Is(Date(commitdate)),
                    Is(Date(receiptdate)),
                    pick(&mut rng, &INSTRUCTS),
                    pick(&mut rng, &SHIPMODES),
                    constant(&["lineitem comment"]),
                ]);
            }
            orders.push([
                Is(Int(ok)),
                Is(Int(custkey)),
                Cell::Of(&STATUSES, if rng.gen_bool(0.5) { 0 } else { 1 }),
                Is(Float(total)),
                Is(Date(orderdate)),
                pick(&mut rng, &PRIORITIES),
                Is(Str(&format!("Clerk#{:09}", rng.gen_range(0..1000)))),
                Is(Int(0)),
                Cell::Of(&ORDER_COMMENTS, if special { 0 } else { 1 }),
            ]);
        }

        TpchData {
            region: region.finish(),
            nation: nation.finish(),
            supplier: supplier.finish(),
            customer: customer.finish(),
            part: part.finish(),
            partsupp: partsupp.finish(),
            orders: orders.finish(),
            lineitem: lineitem.finish(),
        }
    }

    pub fn total_rows(&self) -> usize {
        self.tables().iter().map(|(_, b)| b.rows()).sum()
    }

    /// Each table's name and columns, in [`tpch_tables`] order.
    pub fn tables(&self) -> [(&'static str, &Batch); 8] {
        [
            ("region", &self.region),
            ("nation", &self.nation),
            ("supplier", &self.supplier),
            ("customer", &self.customer),
            ("part", &self.part),
            ("partsupp", &self.partsupp),
            ("orders", &self.orders),
            ("lineitem", &self.lineitem),
        ]
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

/// Create TPC-H tables and load generated data into an Eon database:
/// each table's columns handed to COPY as they are.
pub fn load_tpch_eon(db: &eon_core::EonDb, data: &TpchData) -> eon_types::Result<()> {
    for ((name, schema, sort, seg, replicated), (table, batch)) in tpch_tables().into_iter().zip(data.tables()) {
        assert_eq!(name, table, "TpchData::tables() follows tpch_tables() order");
        let proj = if replicated {
            Projection::replicated(format!("{name}_rep"), &schema, &[sort])
        } else {
            Projection::super_projection(format!("{name}_super"), &schema, &[sort], &[seg])
        };
        db.create_table(name, schema, vec![proj])?;
        db.copy_batch(name, batch)?;
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
    for ((name, schema, sort, seg, _replicated), (table, batch)) in tpch_tables().into_iter().zip(data.tables()) {
        assert_eq!(name, table, "TpchData::tables() follows tpch_tables() order");
        let proj =
            Projection::super_projection(format!("{name}_super"), &schema, &[sort], &[seg]);
        db.create_table(name, schema, proj)?;
        db.copy_batch(name, batch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(0.002, 7);
        let b = TpchData::generate(0.002, 7);
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
    }

    #[test]
    fn ratios_follow_spec() {
        let d = TpchData::generate(0.01, 1);
        assert_eq!(d.region.rows(), 5);
        assert_eq!(d.nation.rows(), 25);
        assert_eq!(d.customer.rows(), 1500);
        assert_eq!(d.orders.rows(), 15_000);
        assert_eq!(d.part.rows(), 2000);
        assert_eq!(d.partsupp.rows(), 8000);
        // ~4 lineitems per order
        let ratio = d.lineitem.rows() as f64 / d.orders.rows() as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rows_satisfy_schemas() {
        let d = TpchData::generate(0.002, 3);
        for ((name, schema, ..), (table, batch)) in tpch_tables().into_iter().zip(d.tables()) {
            assert_eq!(name, table);
            batch.check_schema(&schema).unwrap();
        }
    }

    #[test]
    fn dates_are_consistent() {
        let d = TpchData::generate(0.002, 3);
        let cols = d.lineitem.cols();
        let (Data::Date(ship), Data::Date(receipt)) = (cols[10].data(), cols[12].data()) else {
            panic!("l_shipdate and l_receiptdate are dates");
        };
        for (ship, receipt) in ship.iter().zip(receipt).take(200) {
            assert!(receipt > ship, "receipt after ship");
        }
    }
}
