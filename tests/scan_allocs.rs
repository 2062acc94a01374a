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
//! fails here however fast the host is. The same allocator counts bytes
//! too, and the Q1-shaped query's added rows may cost little more than
//! they do now: a second copy of the scan's output fails.

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
/// Bytes allocated: every allocation's size, and every realloc's growth.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
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

/// Allocations and bytes allocated by one warm query answering `groups`
/// rows: the least of a few runs each, so a differently shaped
/// participant assignment cannot add noise.
fn spent_per_query(db: &EonDb, plan: &Plan, groups: usize) -> (u64, u64) {
    assert_eq!(db.query(plan).unwrap().len(), groups); // warm the depots
    let runs: Vec<(u64, u64)> = (0..5)
        .map(|_| {
            let before = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            let rows = db.query(plan).unwrap();
            let after = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            assert_eq!(rows.len(), groups);
            (after.0 - before.0, after.1 - before.1)
        })
        .collect();
    (runs.iter().map(|r| r.0).min().unwrap(), runs.iter().map(|r| r.1).min().unwrap())
}

/// What `plan` spends over the 4N-row database beyond the N-row one,
/// per added row: (allocations, bytes). The databases are loaded once;
/// the tests take turns, so one's allocations never count in another's.
fn spent_per_added_row(plan: &Plan, groups: usize) -> (f64, f64) {
    static TURN: Mutex<()> = Mutex::new(());
    static DBS: OnceLock<[Arc<EonDb>; 2]> = OnceLock::new();
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let [small, large] = DBS.get_or_init(|| [load(N), load(4 * N)]);
    let small = spent_per_query(small, plan, groups);
    let large = spent_per_query(large, plan, groups);
    let per_row = |s: u64, l: u64| l.saturating_sub(s) as f64 / (3 * N) as f64;
    (per_row(small.0, large.0), per_row(small.1, large.1))
}

/// `plan`'s allocations grow by less than 0.1 per added row.
fn assert_allocations_grow_with_blocks_and_groups(plan: &Plan, groups: usize) {
    let (per_added_row, _) = spent_per_added_row(plan, groups);
    assert!(per_added_row < 0.1, "{per_added_row:.3} allocations per added row");
}

#[test]
fn allocations_grow_with_blocks_and_groups_not_rows() {
    assert_allocations_grow_with_blocks_and_groups(&plan(), LABELS);
}

#[test]
fn q1_shaped_aggregation_allocates_per_group_not_per_row() {
    assert_allocations_grow_with_blocks_and_groups(&q1_plan(), 6);
}

/// The Q1-shaped query's bytes over the added 3N rows, realloc growth
/// included. The scan returns `amount` and `disc` (8 bytes a row each)
/// and the two string keys as dictionary codes (4 each): one decoded
/// copy of its output is 24 bytes a row. An added row costs 99.9 bytes
/// at this writing — the scan's one decode (`day` decoded for the
/// predicate, then dropped) and its selection vectors, and the
/// aggregate's computed Float inputs and group ids. The scan's blocks
/// reach the aggregate as pieces, uncopied; Delta blocks decode into
/// vectors sized up front; each distinct aggregate input is evaluated
/// once, its literals broadcast; and the dictionary-coded keys are
/// numbered by slot, not hashed. The bound leaves half a copy of slack,
/// so a scan that copies its output again — a concatenation of its
/// pieces, a clone in `assemble` — fails here.
#[test]
fn q1_shaped_scan_copies_its_output_at_most_once() {
    const COPY: f64 = 24.0;
    const SPENT: f64 = 100.0;
    let (_, bytes) = spent_per_added_row(&q1_plan(), 6);
    assert!(bytes < SPENT + COPY / 2.0, "{bytes:.1} bytes per added row");
}
