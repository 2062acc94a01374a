//! Allocation gate for the batch engine (DESIGN.md "Execution engine:
//! batches"): a warm scan → filter → join → partial-aggregate query, and
//! a TPC-H Q1-shaped one (two string group keys, computed Float sums,
//! AVG, COUNT(*)), allocate per block and per group, never per row or
//! per cell. Counted with this binary's own global allocator — no
//! timing, so it holds on any host — over N and 4N rows: the extra 3N
//! rows may cost at most 0.1 allocations each. A row engine pays
//! several per row (a `Vec` per row, a `String` per string cell, a key
//! per group lookup), so a transpose creeping back in between decode
//! and the `ROWS` edge, or an aggregate loop that allocates per cell,
//! fails here however fast the host is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Predicate, Projection};
use eon_core::{EonConfig, EonDb};
use eon_db as _;
use eon_exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
use eon_storage::MemFs;
use eon_types::{schema, Value};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LABELS: usize = 16;
const N: i64 = 30_000;

/// 3 nodes, 3 shards: `fact(id, k, amount, tag, day, flag, status,
/// disc)` with `rows` rows in two loads, and a 16-row `dim(k, label)`.
fn load(rows: i64) -> Arc<EonDb> {
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
    let fact = schema![
        ("id", Int),
        ("k", Int),
        ("amount", Float),
        ("tag", Str),
        ("day", Date),
        ("flag", Str),
        ("status", Str),
        ("disc", Float)
    ];
    db.create_table("fact", fact.clone(), vec![Projection::super_projection("p", &fact, &[0], &[0])])
        .unwrap();
    let dim = schema![("k", Int), ("label", Str)];
    db.create_table("dim", dim.clone(), vec![Projection::super_projection("p", &dim, &[0], &[0])])
        .unwrap();
    let row = |i: i64| {
        vec![
            Value::Int(i),
            Value::Int(i * 7 % LABELS as i64),
            Value::Float(i as f64 * 0.25),
            Value::Str(format!("tag-{}", i % 1000)),
            Value::Date((i % 365) as i32),
            Value::Str(["A", "N", "R"][i as usize % 3].into()),
            Value::Str(["F", "O"][i as usize % 2].into()),
            Value::Float((i % 11) as f64 * 0.01),
        ]
    };
    db.copy_into("fact", (0..rows / 2).map(row).collect()).unwrap();
    db.copy_into("fact", (rows / 2..rows).map(row).collect()).unwrap();
    let label = |k: i64| vec![Value::Int(k), Value::Str(format!("label-{k}"))];
    db.copy_into("dim", (0..LABELS as i64).map(label).collect()).unwrap();
    db
}

/// Pushed predicate → residual filter → join → grouped Float sum: the
/// shape of the benchmark's scan queries, every operator on the path.
fn plan() -> Plan {
    Plan::scan(ScanSpec::new("fact").predicate(Predicate::cmp(0, CmpOp::Ge, 10i64)))
        .filter(Expr::cmp(CmpOp::Ne, Expr::col(4), Expr::lit(Value::Date(7))))
        .join(Plan::scan(ScanSpec::new("dim").global()), vec![1], vec![0])
        .aggregate(vec![9], vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()]) // by dim.label
        .sort(vec![SortKey::asc(0)])
}

/// TPC-H Q1's shape: a date cut, six groups of two string keys, sums of
/// computed Float inputs, AVGs and COUNT(*).
fn q1_plan() -> Plan {
    let (amount, disc) = (Expr::col(2), Expr::col(7));
    let net = Expr::mul(amount.clone(), Expr::sub(Expr::lit(1i64), disc.clone()));
    let charge = Expr::mul(net.clone(), Expr::add(Expr::lit(1i64), disc.clone()));
    Plan::scan(ScanSpec::new("fact").predicate(Predicate::cmp(4, CmpOp::Le, Value::Date(300))))
        .aggregate(
            vec![5, 6],
            vec![
                AggSpec::sum(amount.clone()),
                AggSpec::sum(net),
                AggSpec::sum(charge),
                AggSpec::avg(amount),
                AggSpec::avg(disc),
                AggSpec::count_star(),
            ],
        )
        .sort(vec![SortKey::asc(0), SortKey::asc(1)])
}

/// Allocations of one warm query answering `groups` rows: the least of
/// a few runs, so a differently shaped participant assignment cannot
/// add noise.
fn allocs_per_query(db: &EonDb, plan: &Plan, groups: usize) -> u64 {
    assert_eq!(db.query(plan).unwrap().len(), groups); // warm the depots
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let rows = db.query(plan).unwrap();
            let spent = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(rows.len(), groups);
            spent
        })
        .min()
        .unwrap()
}

/// `plan`'s allocations over the N-row and the 4N-row database grow by
/// less than 0.1 per added row. The databases are loaded once; the
/// tests take turns, so one's allocations never count in another's.
fn assert_allocations_grow_with_blocks_and_groups(plan: &Plan, groups: usize) {
    static TURN: Mutex<()> = Mutex::new(());
    static DBS: OnceLock<[Arc<EonDb>; 2]> = OnceLock::new();
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let [small, large] = DBS.get_or_init(|| [load(N), load(4 * N)]);
    let small = allocs_per_query(small, plan, groups);
    let large = allocs_per_query(large, plan, groups);
    let per_added_row = large.saturating_sub(small) as f64 / (3 * N) as f64;
    assert!(
        per_added_row < 0.1,
        "{small} allocations over {N} rows, {large} over {}: {per_added_row:.3} per added row",
        4 * N
    );
}

#[test]
fn allocations_grow_with_blocks_and_groups_not_rows() {
    assert_allocations_grow_with_blocks_and_groups(&plan(), LABELS);
}

#[test]
fn q1_shaped_aggregation_allocates_per_group_not_per_row() {
    assert_allocations_grow_with_blocks_and_groups(&q1_plan(), 6);
}
