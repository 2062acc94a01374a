//! Allocation gate for the batch engine (DESIGN.md "Execution engine:
//! batches"): a warm scan → filter → join → partial-aggregate query
//! allocates per block and per group, never per row. Counted with this
//! binary's own global allocator — no timing, so it holds on any host —
//! over N and 4N rows: the extra 3N rows may cost at most 0.1
//! allocations each. A row engine pays several per row (a `Vec` per
//! row, a `String` per string cell, a key per group lookup), so a
//! transpose creeping back in between decode and the `ROWS` edge fails
//! here however fast the host is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// 3 nodes, 3 shards: `fact(id, k, amount, tag, day)` with `rows` rows
/// in two loads, and a 16-row `dim(k, label)`.
fn load(rows: i64) -> Arc<EonDb> {
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
    let fact = schema![("id", Int), ("k", Int), ("amount", Float), ("tag", Str), ("day", Date)];
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
        .aggregate(vec![6], vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()])
        .sort(vec![SortKey::asc(0)])
}

/// Allocations of one warm query: the least of a few runs, so a
/// differently shaped participant assignment cannot add noise.
fn allocs_per_query(db: &EonDb) -> u64 {
    let plan = plan();
    assert_eq!(db.query(&plan).unwrap().len(), LABELS); // warm the depots
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let rows = db.query(&plan).unwrap();
            let spent = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(rows.len(), LABELS);
            spent
        })
        .min()
        .unwrap()
}

#[test]
fn allocations_grow_with_blocks_and_groups_not_rows() {
    const N: i64 = 30_000;
    let small = allocs_per_query(&load(N));
    let large = allocs_per_query(&load(4 * N));
    let per_added_row = large.saturating_sub(small) as f64 / (3 * N) as f64;
    assert!(
        per_added_row < 0.1,
        "{small} allocations over {N} rows, {large} over {}: {per_added_row:.3} per added row",
        4 * N
    );
}
