//! Allocation gate for the write path (DESIGN.md "Write pipeline"): a
//! COPY of a TPC-H-shaped table — integers, floats, dates, a
//! low-cardinality and a high-cardinality string — through
//! `EonDb::copy_batch` allocates per column, per shard, per block and per
//! container, never per row or per cell. Counted with this binary's own
//! global allocator, no timing, so it holds on any host: loads of N and
//! 4N rows, the extra 3N rows may cost at most 0.1 allocations each. A
//! row path pays several per row (a `Vec` per row, a `String` per string
//! cell, a `Value` per cell moved through a transpose), so a per-row
//! transpose creeping back between the batch and the encoder fails here
//! however fast the host is. The same allocator counts bytes, and an
//! added row may cost little more than it does now: a second copy of the
//! loaded columns fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use eon_columnar::{Batch, Projection};
use eon_core::{EonConfig, EonDb};
use eon_db as _;
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

const N: i64 = 20_000;

/// `lineitem`-shaped rows: `(orderkey, quantity, price, shipdate,
/// returnflag, comment)`, the comment nearly unique per row.
fn rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 4 + i % 3),
                Value::Float((i % 50 + 1) as f64),
                Value::Float(i as f64 * 1.25 % 9_000.0),
                Value::Date(8_000 + (i * 37 % 2_500) as i32),
                Value::Str(["A", "N", "R"][i as usize % 3].into()),
                Value::Str(format!("carefully final deposits {}", i * 7_919 % 1_000_003)),
            ]
        })
        .collect()
}

/// Allocations and bytes one `copy_batch` of `n` rows spends, on a
/// fresh 3-node, 3-shard cluster sorted by the date: the least of a few
/// runs each, so a differently scheduled write pool cannot add noise.
/// Building the cluster and the batch is not counted.
fn spent_per_copy(n: i64) -> (u64, u64) {
    let table = rows(n);
    let runs: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
            let s = schema![
                ("orderkey", Int),
                ("quantity", Float),
                ("price", Float),
                ("shipdate", Date),
                ("returnflag", Str),
                ("comment", Str)
            ];
            let proj = Projection::super_projection("lineitem_super", &s, &[3], &[0]);
            db.create_table("lineitem", s, vec![proj]).unwrap();
            let batch = Batch::from_rows(&table, 6);
            let before = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            assert_eq!(db.copy_batch("lineitem", batch).unwrap(), n as u64);
            let after = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            (after.0 - before.0, after.1 - before.1)
        })
        .collect();
    (runs.iter().map(|r| r.0).min().unwrap(), runs.iter().map(|r| r.1).min().unwrap())
}

/// What a COPY of 4N rows spends beyond one of N, per added row:
/// (allocations, bytes). The tests take turns, so one's allocations
/// never count in another's.
fn spent_per_added_row() -> (f64, f64) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let small = spent_per_copy(N);
    let large = spent_per_copy(4 * N);
    let per_row = |s: u64, l: u64| l.saturating_sub(s) as f64 / (3 * N) as f64;
    (per_row(small.0, large.0), per_row(small.1, large.1))
}

#[test]
fn copy_allocates_per_block_and_container_not_per_row() {
    let (per_added_row, _) = spent_per_added_row();
    assert!(per_added_row < 0.1, "{per_added_row:.3} allocations per added row");
}

/// The bytes an added row costs, realloc growth included. One typed
/// copy of a row is 8 + 8 + 8 + 4 bytes of numbers plus two strings at
/// 4 bytes of offset each and their bytes (1 and ~31): about 68 bytes.
/// An added row costs 357.3 bytes at this writing (the row path, rows
/// moved into `copy_into`, cost 574.2 and 3.0 allocations): the shard
/// split's hashes and row indices, the gather into per-shard columns,
/// the sort's ranked keys, permutation and gathered columns, and the
/// encoder's output buffer as it grows. The bound leaves half a copy of
/// slack, so a stage that copies its input once more fails here.
#[test]
fn copy_copies_its_columns_a_bounded_number_of_times() {
    const COPY: f64 = 68.0;
    const SPENT: f64 = 358.0;
    let (_, bytes) = spent_per_added_row();
    assert!(bytes < SPENT + COPY / 2.0, "{bytes:.1} bytes per added row");
}
