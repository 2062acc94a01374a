//! Property tests pinning S3-Select-style pushdown (DESIGN.md
//! "Pushdown execution") as *invisible*: executing predicates,
//! projections, and partial aggregates below the GET must be a pure
//! cost change.
//!
//! Three families of properties:
//!
//! * **A/B equivalence** — the same randomized workload (predicates ×
//!   projections × aggregates, with delete vectors layered in) returns
//!   byte-identical answers (down to `Debug` strings, so `Int(1)` can
//!   never silently become `Float(1.0)`) with pushdown on and off,
//!   across bypass mode, depot-cold normal mode, and repeat queries —
//!   while the on side is required to have actually issued selects.
//!
//! * **Fault participation** — selects ride the same retry/breaker
//!   path as every other S3 verb: under a seeded transient-failure
//!   rate the pushdown database must still answer every plan exactly
//!   like a clean pushdown-off database, with retries observed.
//!
//! * **Depot policy** — answering below the GET must never fault whole
//!   files into the depot ("selects leave the depot cold").

use std::sync::Arc;

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Predicate, Projection};
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_db as _;
use eon_exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
use eon_obs::Registry;
use eon_storage::{S3Config, S3SimFs};
use eon_types::{schema, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

const TAGS: [&str; 5] = ["ad", "api", "batch", "etl", "ui"];

/// Rows with an unsorted uniform value column (footer pruning cannot
/// help, pushdown can), a low-cardinality group key, strings, and
/// sprinkled NULLs.
fn gen_rows(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let val = if rng.gen_range(0..6u32) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-50..500i64))
            };
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..5i64)),
                Value::Str(TAGS[rng.gen_range(0..TAGS.len())].to_string()),
                val,
            ]
        })
        .collect()
}

/// A cluster over simulated S3. `pushdown` toggles the tentpole;
/// `fail_rate` arms seeded transient faults on every verb, selects
/// included. The crossover knobs are opened wide (`min_bytes 0`,
/// `max_selectivity 1.0`) so eligibility — not the cost model — decides
/// whether a select fires; the cost model has its own sweep in
/// `ablate_pushdown`.
fn make_db(pushdown: bool, fail_rate: f64, rows: &[Vec<Value>]) -> (Arc<EonDb>, Registry) {
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            fail_rate,
            seed: 0xeed5,
            ..S3Config::instant()
        },
        &registry,
    ));
    let cfg = EonConfig::new(2, 2)
        .exec_slots(2)
        .observability(registry.clone())
        .pushdown(pushdown)
        .pushdown_min_bytes(0)
        .pushdown_max_selectivity(1.0);
    let db = EonDb::create(s3, cfg).unwrap();
    let s = schema![("id", Int), ("grp", Int), ("tag", Str), ("val", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let half = rows.len().div_ceil(2).max(1);
    for chunk in rows.chunks(half) {
        db.copy_into("t", chunk.to_vec()).unwrap();
    }
    (db, registry)
}

/// Random predicates weighted toward every wire shape: comparisons on
/// sorted and unsorted columns, string equality, NULL tests, And/Or.
fn gen_predicate(rng: &mut StdRng, n: usize) -> Predicate {
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    match rng.gen_range(0..7u32) {
        0 => Predicate::cmp(0, ops[rng.gen_range(0..ops.len())], rng.gen_range(0..n as i64)),
        1 => Predicate::cmp(3, ops[rng.gen_range(0..ops.len())], rng.gen_range(-50..500i64)),
        2 => Predicate::cmp(2, CmpOp::Eq, TAGS[rng.gen_range(0..TAGS.len())]),
        3 => Predicate::IsNull(3),
        4 => Predicate::IsNotNull(3),
        5 => Predicate::and(vec![
            Predicate::cmp(1, CmpOp::Le, rng.gen_range(0..5i64)),
            Predicate::cmp(3, CmpOp::Ge, rng.gen_range(-50..500i64)),
        ]),
        _ => Predicate::Or(vec![
            Predicate::cmp(1, CmpOp::Le, rng.gen_range(0..5i64)),
            Predicate::cmp(2, CmpOp::Eq, TAGS[rng.gen_range(0..TAGS.len())]),
        ]),
    }
}

/// Random plans: projection scans, predicate scans, a fully pushable
/// grouped aggregate (Sum/Count/Min/Max over ints), and a mixed
/// aggregate with Avg that must fall back to rows-mode underneath.
fn gen_plans(rng: &mut StdRng, n: usize) -> Vec<Plan> {
    let mut plans = Vec::new();
    let mut cols: Vec<usize> = (0..4).filter(|_| rng.gen_range(0..2u32) == 0).collect();
    if cols.is_empty() {
        cols.push(rng.gen_range(0..4usize));
    }
    let keys: Vec<SortKey> = (0..cols.len()).map(SortKey::asc).collect();
    plans.push(
        Plan::scan(
            ScanSpec::new("t")
                .columns(cols)
                .predicate(gen_predicate(rng, n)),
        )
        .sort(keys),
    );
    plans.push(
        Plan::scan(ScanSpec::new("t").predicate(gen_predicate(rng, n))).sort(vec![
            SortKey::asc(0),
            SortKey::asc(1),
            SortKey::asc(2),
            SortKey::asc(3),
        ]),
    );
    // Pushable partial aggregates: the store folds and ships states.
    plans.push(
        Plan::scan(ScanSpec::new("t").predicate(gen_predicate(rng, n)))
            .aggregate(
                vec![1],
                vec![
                    AggSpec::sum(Expr::col(3)),
                    AggSpec::count_star(),
                    AggSpec::min(Expr::col(3)),
                    AggSpec::max(Expr::col(0)),
                ],
            )
            .sort(vec![SortKey::asc(0)]),
    );
    // Avg is not mergeable below the GET: the whole spec must decline
    // to partial-agg pushdown and take rows-mode instead.
    plans.push(
        Plan::scan(ScanSpec::new("t").predicate(gen_predicate(rng, n)))
            .aggregate(
                vec![2],
                vec![AggSpec::avg(Expr::col(3)), AggSpec::count_star()],
            )
            .sort(vec![SortKey::asc(0)]),
    );
    plans
}

fn metric_sum(registry: &Registry, name: &str) -> u64 {
    let snap = registry.snapshot();
    let prefix = format!("{name}{{");
    snap.as_object()
        .map(|obj| {
            obj.iter()
                .filter(|(k, _)| k.as_str() == name || k.starts_with(&prefix))
                .filter_map(|(_, v)| v.as_u64())
                .sum()
        })
        .unwrap_or(0)
}

fn clear_depots(db: &EonDb) {
    for node in db.membership().all() {
        node.cache.clear().unwrap();
    }
}

/// A Float `SUM` never merges bit-identically per container, and the
/// schema says so before any byte moves: the aggregate declines up
/// front — no select is issued (or billed), every container is read
/// exactly once — and the answer is the plain path's.
#[test]
fn float_sum_declines_before_any_io() {
    let make = |pushdown: bool| {
        let registry = Registry::new();
        let s3 = Arc::new(S3SimFs::with_metrics(S3Config::instant(), &registry));
        let cfg = EonConfig::new(2, 2)
            .observability(registry.clone())
            .pushdown(pushdown)
            .pushdown_min_bytes(0)
            .pushdown_max_selectivity(1.0);
        let db = EonDb::create(s3, cfg).unwrap();
        let s = schema![("id", Int), ("grp", Int), ("amount", Float)];
        db.create_table("t", s.clone(), vec![Projection::super_projection("p", &s, &[0], &[0])])
            .unwrap();
        let row = |i: i64| vec![Value::Int(i), Value::Int(i % 3), Value::Float(i as f64 * 0.1)];
        db.copy_into("t", (0..400).map(row).collect()).unwrap();
        db.copy_into("t", (400..800).map(row).collect()).unwrap();
        (db, registry)
    };
    let plan = Plan::scan(ScanSpec::new("t"))
        .aggregate(vec![1], vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()])
        .sort(vec![SortKey::asc(0)]);
    let (on, reg) = make(true);
    let (off, _) = make(false);
    clear_depots(&on);
    clear_depots(&off);
    let containers = on.snapshot().unwrap().containers.len() as u64;
    let gets = |reg: &Registry| metric_sum(reg, "s3_requests_total{subsystem=\"s3\",verb=\"get\"}");
    let g0 = gets(&reg);
    let got = on.query(&plan).unwrap();
    assert_eq!(format!("{got:?}"), format!("{:?}", off.query(&plan).unwrap()));
    assert_eq!(metric_sum(&reg, "s3_select_scanned_bytes_total"), 0);
    assert_eq!(metric_sum(&reg, "scan_pushdown_selects_total"), 0);
    assert!(containers >= 4, "two loads over two shards");
    assert_eq!(gets(&reg) - g0, containers, "each container faulted in once");
}

proptest! {
    /// The tentpole equivalence: pushdown on and off answer a random
    /// workload byte-identically in bypass mode, depot-cold normal
    /// mode, and on repeat — with delete vectors layered in halfway —
    /// and the on side must actually have executed below the GET.
    #[test]
    fn pushdown_on_and_off_agree(seed in 0u64..1_000_000, n in 60usize..200) {
        let rows = gen_rows(seed, n);
        let plans = gen_plans(&mut StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15), n);
        let (on, on_reg) = make_db(true, 0.0, &rows);
        let (off, _) = make_db(false, 0.0, &rows);
        let bypass = SessionOpts { bypass_cache: true, ..Default::default() };
        for round in 0..2 {
            for plan in &plans {
                let a = on.query_with(plan, &bypass).unwrap();
                let b = off.query_with(plan, &bypass).unwrap();
                prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "bypass diverged: seed {} round {}", seed, round
                );
                clear_depots(&on);
                clear_depots(&off);
                let a = on.query(plan).unwrap();
                let b = off.query(plan).unwrap();
                prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "depot-cold diverged: seed {} round {}", seed, round
                );
                // Repeat without clearing: warm/partially-warm depots.
                let a = on.query(plan).unwrap();
                let b = off.query(plan).unwrap();
                prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "repeat diverged: seed {} round {}", seed, round
                );
            }
            if round == 0 {
                // Delete a slice on both sides: rows-mode pushdown must
                // apply delete vectors node-side, and per-container agg
                // pushdown must decline on DV'd containers — invisibly.
                let cut = Predicate::cmp(0, CmpOp::Lt, (n / 5) as i64);
                let da = on.delete_where("t", &cut).unwrap();
                let db_ = off.delete_where("t", &cut).unwrap();
                prop_assert_eq!(da, db_, "delete counts diverged: seed {}", seed);
            }
        }
        prop_assert!(
            metric_sum(&on_reg, "scan_pushdown_selects_total") > 0,
            "pushdown never engaged: seed {}", seed
        );
    }

    /// Selects ride the retry path: with seeded transient faults armed
    /// on every S3 verb, the pushdown database must answer every plan
    /// exactly like a clean pushdown-off database.
    #[test]
    fn faulted_selects_retry_and_agree(seed in 0u64..1_000_000) {
        let n = 120usize;
        let rows = gen_rows(seed, n);
        let plans = gen_plans(&mut StdRng::seed_from_u64(seed ^ 0xbf58476d1ce4e5b9), n);
        let (on, on_reg) = make_db(true, 0.25, &rows);
        let (off, _) = make_db(false, 0.0, &rows);
        let bypass = SessionOpts { bypass_cache: true, ..Default::default() };
        for plan in &plans {
            let a = on.query_with(plan, &bypass).unwrap();
            let b = off.query_with(plan, &bypass).unwrap();
            prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "faulted bypass diverged: seed {}", seed
            );
        }
        prop_assert!(
            metric_sum(&on_reg, "scan_pushdown_selects_total") > 0,
            "pushdown never engaged under faults: seed {}", seed
        );
        prop_assert!(
            metric_sum(&on_reg, "s3_retries_total") > 0,
            "fault plan never fired: seed {}", seed
        );
    }

    /// Selects never fill the depot: a depot-cold selective query on
    /// the pushdown database answers below the GET without a single
    /// depot write, so cache capacity stays reserved for reads that
    /// benefit from it.
    #[test]
    fn selects_leave_the_depot_cold(seed in 0u64..1_000_000) {
        let n = 150usize;
        let rows = gen_rows(seed, n);
        let (on, on_reg) = make_db(true, 0.0, &rows);
        let plan = Plan::scan(
            ScanSpec::new("t").predicate(Predicate::cmp(3, CmpOp::Eq, 7i64)),
        )
        .sort(vec![SortKey::asc(0)]);
        clear_depots(&on);
        let w0 = metric_sum(&on_reg, "depot_writes_total");
        let s0 = metric_sum(&on_reg, "scan_pushdown_selects_total");
        on.query(&plan).unwrap();
        prop_assert!(
            metric_sum(&on_reg, "scan_pushdown_selects_total") > s0,
            "selective cold query did not push down: seed {}", seed
        );
        prop_assert_eq!(
            metric_sum(&on_reg, "depot_writes_total"),
            w0,
            "pushdown faulted files into the depot: seed {}", seed
        );
    }
}
