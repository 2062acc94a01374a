//! Enterprise's storage layouts answer alike: rows held in the WOS
//! (typed column buffers, tested by the scan kernel's predicate loops),
//! in ROS containers (moved out of the WOS, or written directly) or in
//! a mix of both return, for random predicates × projections, the
//! sorted multiset `MemProvider` computes from the rows themselves —
//! `eval_row` over each row, no buffer and no container.
//!
//! The rows carry what the typed paths must keep apart: NULLs in every
//! column, NaN and -0.0 among the floats, multi-byte and empty strings,
//! and a sort column full of ties.

use std::collections::HashMap;

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Predicate, Projection};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_exec::{execute, MemProvider, Plan, ScanSpec};
use eon_types::{schema, Schema, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

const STRS: [&str; 6] = ["", "a", "ab", "é", "日本", "naïve"];
const FLOATS: [f64; 7] = [0.0, -0.0, 1.5, -2.25, f64::NAN, 1e300, -7.0];

fn table_schema() -> Schema {
    schema![("id", Int), ("k", Int), ("f", Float), ("s", Str)]
}

/// `n` rows: a distinct id, a sort key of four values, a float and a
/// string, each of the last three NULL about one time in six.
fn gen_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let mut cell = |v: Value| {
                if rng.gen_range(0..6u32) == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            let k = cell(Value::Int(i as i64 % 4));
            let f = cell(Value::Float(FLOATS[i * 7 % FLOATS.len()]));
            let s = cell(Value::Str(STRS[i * 5 % STRS.len()].to_owned()));
            vec![Value::Int(i as i64), k, f, s]
        })
        .collect()
}

/// A literal for column `col`: mostly of its type, sometimes NULL or
/// (for the float column) an Int, which compares across types.
fn gen_literal(rng: &mut StdRng, col: usize, n: usize) -> Value {
    match (col, rng.gen_range(0..8u32)) {
        (_, 0) => Value::Null,
        (2, 1) => Value::Int(rng.gen_range(-3..3i64)),
        (0, _) => Value::Int(rng.gen_range(0..n as i64 + 1)),
        (1, _) => Value::Int(rng.gen_range(0..5i64)),
        (2, _) => Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        _ => Value::Str(STRS[rng.gen_range(0..STRS.len())].to_owned()),
    }
}

fn gen_predicate(rng: &mut StdRng, n: usize, depth: u32) -> Predicate {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let leaf = depth == 0 || rng.gen_range(0..3u32) > 0;
    match (leaf, rng.gen_range(0..8u32)) {
        (true, 0) => Predicate::True,
        (true, 1) => Predicate::IsNull(rng.gen_range(0..4usize)),
        (true, 2) => Predicate::IsNotNull(rng.gen_range(0..4usize)),
        (true, _) => {
            let col = rng.gen_range(0..4usize);
            let lit = gen_literal(rng, col, n);
            Predicate::Cmp {
                col,
                op: ops[rng.gen_range(0..ops.len())],
                lit,
            }
        }
        (false, c) => {
            let parts = (0..rng.gen_range(2..4usize))
                .map(|_| gen_predicate(rng, n, depth - 1))
                .collect();
            if c % 2 == 0 {
                Predicate::And(parts)
            } else {
                Predicate::Or(parts)
            }
        }
    }
}

/// A scan with a random predicate and a random output list (repeats
/// allowed), or every column when the list is left out.
fn gen_plan(rng: &mut StdRng, n: usize) -> Plan {
    let mut spec = ScanSpec::new("t").predicate(gen_predicate(rng, n, 2));
    if rng.gen_range(0..4u32) > 0 {
        let cols = (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(0..4usize))
            .collect();
        spec = spec.columns(cols);
    }
    Plan::scan(spec)
}

#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Every load buffered, nothing moved out.
    AllWos,
    /// Every load buffered, then every buffer moved out.
    AllRos,
    /// A small threshold: direct ROS writes, tripped moveouts and rows
    /// still buffered, side by side.
    Mixed(usize),
}

/// Three nodes holding `rows` in `layout`, loaded `chunk` rows at a
/// time; the sort column is the tie-heavy `k`.
fn load(rows: &[Vec<Value>], layout: Layout, chunk: usize) -> std::sync::Arc<EnterpriseDb> {
    let wos_threshold = match layout {
        Layout::AllWos | Layout::AllRos => usize::MAX,
        Layout::Mixed(t) => t,
    };
    let db = EnterpriseDb::create(EnterpriseConfig {
        num_nodes: 3,
        exec_slots: 2,
        wos_threshold,
    });
    let s = table_schema();
    db.create_table(
        "t",
        s.clone(),
        Projection::super_projection("p", &s, &[1], &[0]),
    )
    .unwrap();
    for part in rows.chunks(chunk.max(1)) {
        db.copy_into("t", part.to_vec()).unwrap();
    }
    if let Layout::AllRos = layout {
        let t = db.table("t").unwrap();
        for seg in 0..3 {
            db.moveout(seg, &t, seg).unwrap();
            db.moveout(db.buddy_of(seg), &t, seg).unwrap();
        }
        assert_eq!(
            db.nodes().iter().map(|n| n.wos.total_rows()).sum::<usize>(),
            0
        );
    }
    db
}

/// Rows as a sorted multiset, each row by its `Debug` string: value
/// variants and float bits (NaN, -0.0) must match, not just compare
/// equal.
fn multiset(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

proptest! {
    #[test]
    fn every_layout_answers_like_the_reference(
        seed in 0u64..1_000_000,
        n in 0usize..160,
        chunk in 1usize..70,
        threshold in 2usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, n);
        let plans: Vec<Plan> = (0..6).map(|_| gen_plan(&mut rng, n)).collect();
        let tables = HashMap::from([("t".to_owned(), rows.clone())]);
        let reference = MemProvider::single(tables);
        for layout in [Layout::AllWos, Layout::AllRos, Layout::Mixed(threshold)] {
            let db = load(&rows, layout, chunk);
            for plan in &plans {
                let want = multiset(execute(plan, &reference).unwrap().into_rows());
                let got = multiset(db.query(plan).unwrap());
                prop_assert_eq!(got, want, "{:?} {:?}", layout, plan);
            }
        }
    }
}
