//! Equivalence and concurrency tests for the pipelined parallel scan
//! (DESIGN.md "Scan pipeline").
//!
//! The scan pool, coalesced ranged reads, the block-filter kernel on
//! encoded views, and single-flight depot fills are all performance
//! machinery: none of them may change a query answer, the order of a
//! scan's output, or the exactness of the depot's hit/miss accounting.
//! There is one scan path, so the references are other *data* and no
//! storage at all, not another mode. These tests pin that:
//!
//! * a property test runs the same seeded workload (Normal, Bypass, and
//!   crunch sessions) over each forced block encoding and requires
//!   (a) exactly the answers of a database that stored the same rows
//!   `Plain` — same layout, no encoded view ever served — and (b) the
//!   answers of `MemProvider`, the plan over the rows themselves with
//!   an `eval_row` scan and no container, as a sorted multiset (Eon and
//!   Enterprise share the block-filter kernel, so neither can check
//!   it: a bug that drops the same row under every encoding passes
//!   (a) and fails (b));
//! * a single-node test compares *unsorted* scan output of an
//!   eight-worker pool with a one-slot (serial) node, which pins the
//!   deterministic container-order merge of the parallel pool;
//! * an armed `QUERY_WORKER_LOCAL` crash mid-scan must be absorbed by
//!   failover without changing answers;
//! * concurrent misses on one depot key over simulated S3 must issue
//!   exactly one backing GET, with `CacheStats` and the registry in
//!   agreement;
//! * a depot-cold container that fits the depot costs a predicate scan
//!   exactly one GET — the fault-in — and depot hits after it;
//! * a container the depot cannot hold is scanned with one tail read
//!   plus one wave of the range planner's runs — no size request, no
//!   whole-object GET — and answers as the warm and Bypass scans do;
//!   the node keeps its footer, so a second scan is the wave alone;
//! * a SQL statement naming k of n columns, and a Q3-shaped join, read
//!   cold exactly the tails plus the planned ranges of the columns they
//!   name — the column-pruning rule, in bytes;
//! * a second cold scan of an oversized container issues no tail read,
//!   all its parts reach the store in one batch below the retry layer, and
//!   after mergeout and a reap no node keeps a reaped key's footer;
//! * the multi-column range planner returns exactly the blocks of
//!   per-column reads, for any column subset, keep mask and gap.
//!
//! The kernel itself is property-tested against a naive evaluator in
//! `crates/columnar` (`filter_blocks_matches_naive_scan`).

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use eon_cache::{mem_cache, CacheMode};
use eon_columnar::container::TAIL_READ;
use eon_columnar::pruning::CmpOp;
use eon_columnar::{Column, Encoding, Predicate, Projection, ReadStats, RosFooter, RosReader, RosWriter};
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_db as _;
use eon_exec::{execute, AggSpec, Expr, MemProvider, Plan, ScanSpec, SortKey};
use eon_obs::Registry;
use eon_storage::fault::{site, FaultPlan};
use eon_storage::{FileSystem, MemFs, S3Config, S3SimFs, SharedFs, PART_BYTES};
use eon_types::{schema, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Deterministic three-column rows: a monotone sort key, a small group
/// key, and a value column with sprinkled NULLs (so selection vectors
/// see the same null semantics `eval_row` applies).
fn gen_rows(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let val = if rng.gen_range(0..8u32) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..1000i64))
            };
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..7i64)),
                val,
            ]
        })
        .collect()
}

fn load(db: &EonDb, rows: &[Vec<Value>], batches: usize) {
    let s = schema![("id", Int), ("grp", Int), ("val", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    let per = rows.len().div_ceil(batches.max(1));
    for chunk in rows.chunks(per.max(1)) {
        db.copy_into("t", chunk.to_vec()).unwrap();
    }
}

/// An eight-slot cluster (eight scan-pool workers per node) storing
/// every block under `force`.
fn cfg(nodes: usize, shards: usize, force: Option<Encoding>) -> EonConfig {
    EonConfig::new(nodes, shards).exec_slots(8).force_encoding(force)
}

/// `plan`'s answer over `rows` as table `t`, from the reference
/// provider: an `eval_row` scan of the rows, no storage.
fn reference(rows: &[Vec<Value>], plan: &Plan) -> Vec<Vec<Value>> {
    let tables = HashMap::from([("t".to_owned(), rows.to_vec())]);
    execute(plan, &MemProvider::single(tables)).unwrap().into_rows()
}

/// Reference for `ReadStats`: the bytes of `cols`' blocks kept by
/// `keep`, from the footer alone (no coalescing gaps).
/// The GETs a ranged read of `len` bytes costs: shared storage sends it
/// as parts of at most `PART_BYTES`.
fn parts(len: u64) -> u64 {
    len.div_ceil(PART_BYTES).max(1)
}

fn kept_bytes(footer: &RosFooter, keep: &[bool], cols: &[usize]) -> u64 {
    let kept = |c: &usize| footer.columns[*c].blocks.iter().zip(keep).filter(|(_, &k)| k);
    cols.iter().flat_map(kept).map(|(bm, _)| bm.len).sum()
}

fn window_pred(n: usize) -> Predicate {
    let lo = (n / 5) as i64;
    let hi = (4 * n / 5) as i64;
    Predicate::and(vec![
        Predicate::cmp(0, CmpOp::Ge, lo),
        Predicate::cmp(0, CmpOp::Lt, hi),
        Predicate::Or(vec![Predicate::cmp(1, CmpOp::Le, 4i64), Predicate::IsNull(2)]),
    ])
}

fn plans(n: usize) -> Vec<Plan> {
    vec![
        // Full scan, fully sorted so multi-node answers compare as sets.
        Plan::scan(ScanSpec::new("t")).sort(vec![
            SortKey::asc(0),
            SortKey::asc(1),
            SortKey::asc(2),
        ]),
        // Predicate scan exercising stats pruning, selection vectors,
        // and null semantics.
        Plan::scan(ScanSpec::new("t").predicate(window_pred(n))).sort(vec![SortKey::asc(0)]),
        // Grouped aggregate over the predicate scan (partials merge at
        // the coordinator, so per-node scan output feeds a reduction).
        Plan::scan(ScanSpec::new("t").predicate(window_pred(n)))
            .aggregate(
                vec![1],
                vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()],
            )
            .sort(vec![SortKey::asc(0)]),
    ]
}

proptest! {
    /// Whatever the stored encoding (heuristic / Plain / RLE / Dict /
    /// Delta), every answer — in Normal, Bypass, and crunch sessions —
    /// is exactly the answer over `Plain`-stored rows, row order and
    /// `Debug` value variants included, and the sorted multiset the
    /// reference provider computes from the same rows.
    #[test]
    fn scan_matches_plain_stored_and_reference(seed in 0u64..1_000_000, n in 100usize..400) {
        let force = match seed % 5 {
            0 => None,
            1 => Some(Encoding::Plain),
            2 => Some(Encoding::Rle),
            3 => Some(Encoding::Dict),
            _ => Some(Encoding::Delta),
        };
        let rows = gen_rows(seed, n);
        // 5 nodes over 2 shards so crunch sessions genuinely split
        // shards across extra participants.
        let plain =
            EonDb::create(Arc::new(MemFs::new()), cfg(5, 2, Some(Encoding::Plain))).unwrap();
        let forced = EonDb::create(Arc::new(MemFs::new()), cfg(5, 2, force)).unwrap();
        load(&plain, &rows, 2);
        load(&forced, &rows, 2);

        let sessions = [
            SessionOpts::default(),
            SessionOpts { bypass_cache: true, ..Default::default() },
            SessionOpts { crunch: true, ..Default::default() },
        ];
        for plan in &plans(n) {
            let mut want = reference(&rows, plan);
            want.sort();
            for opts in &sessions {
                let a = plain.query_with(plan, opts).unwrap();
                let b = forced.query_with(plan, opts).unwrap();
                prop_assert_eq!(&a, &b, "seed {} force {:?} opts {:?}", seed, force, opts);
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "value variants diverged");
                let mut got = b;
                got.sort();
                prop_assert_eq!(&got, &want, "reference disagrees: seed {} opts {:?}", seed, opts);
            }
        }
        // Plain-stored blocks have no compressed shape to serve.
        let summary = eon_bench::metrics_summary(&plain.metrics().snapshot());
        prop_assert_eq!(summary["scan_encoded_blocks"].as_u64(), Some(0));
    }
}

/// On one node the scan fans containers across pool workers but must
/// emit them back in container order: the *unsorted* output of an
/// eight-worker scan is byte-for-byte that of a one-slot node, whose
/// pool degenerates to the serial loop.
#[test]
fn parallel_merge_preserves_container_order() {
    let rows = gen_rows(0xbeef, 3_000);
    // RLE on both sides: encoded-view blocks must not perturb the
    // pool's container-order merge either.
    let rle = Some(Encoding::Rle);
    let serial = EonDb::create(Arc::new(MemFs::new()), cfg(1, 1, rle).exec_slots(1)).unwrap();
    let parallel = EonDb::create(Arc::new(MemFs::new()), cfg(1, 1, rle)).unwrap();
    // Several batches so one shard holds several containers — the
    // pool's fan-out/merge has real interleaving to get wrong.
    load(&serial, &rows, 4);
    load(&parallel, &rows, 4);

    let unsorted = [
        Plan::scan(ScanSpec::new("t")),
        Plan::scan(ScanSpec::new("t").predicate(window_pred(3_000))),
    ];
    let sessions = [
        SessionOpts::default(),
        SessionOpts { bypass_cache: true, ..Default::default() },
    ];
    for plan in &unsorted {
        for opts in &sessions {
            let a = serial.query_with(plan, opts).unwrap();
            let b = parallel.query_with(plan, opts).unwrap();
            assert_eq!(a, b, "unsorted scan output diverged (opts {opts:?})");
        }
    }
}

/// A participant dying mid-query under the parallel pipeline is
/// absorbed by coordinator failover, and answers still match a healthy
/// cluster over `Plain`-stored rows — before and after the crash
/// fires. The wounded cluster stores force-RLE containers served as
/// encoded views, so failover equivalence holds on compressed blocks.
#[test]
fn armed_worker_crash_does_not_change_answers() {
    let rows = gen_rows(0xfa11, 2_000);
    let healthy =
        EonDb::create(Arc::new(MemFs::new()), cfg(3, 3, Some(Encoding::Plain))).unwrap();
    let wounded = EonDb::create(
        Arc::new(MemFs::new()),
        cfg(3, 3, Some(Encoding::Rle)).faults(FaultPlan::at(site::QUERY_WORKER_LOCAL, 0)),
    )
    .unwrap();
    load(&healthy, &rows, 2);
    load(&wounded, &rows, 2);

    for plan in &plans(2_000) {
        // First query may fire the crash (killing one participant);
        // the second runs on the survivors. Both must match.
        for _ in 0..2 {
            let a = healthy.query(plan).unwrap();
            let b = wounded.query(plan).unwrap();
            assert_eq!(a, b, "answers diverged around a mid-query crash");
        }
    }
}

/// N threads missing the same depot key at once must cost exactly one
/// S3 GET: one leader fills, every other thread is served from that
/// fill, and the registry's counters agree with `CacheStats` exactly.
#[test]
fn concurrent_same_key_misses_issue_one_s3_get() {
    const THREADS: usize = 8;
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            // A wide fill window so every thread is in flight together.
            request_latency: Duration::from_millis(20),
            bytes_per_micro: 0,
            ..S3Config::instant()
        },
        &registry,
    ));
    let shared: SharedFs = s3.clone();
    shared
        .write("data/obj", bytes::Bytes::from(vec![7u8; 64 << 10]))
        .unwrap();
    let cache = mem_cache(shared.clone(), 1 << 20, &registry, "n0");

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                let data = cache.read_with("data/obj", CacheMode::Normal).unwrap();
                assert_eq!(data.len(), 64 << 10);
            });
        }
    });

    assert_eq!(s3.stats().gets, 1, "single-flight must dedup to one GET");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, (THREADS - 1) as u64);
    assert_eq!(stats.bypasses, 0);
    assert_eq!(
        stats.hits + stats.misses + stats.bypasses,
        THREADS as u64,
        "exact accounting: every read is a hit, miss, or bypass"
    );
    assert!(
        stats.singleflight_waits >= 1,
        "with a 20ms fill, at least one thread must have joined the in-flight fill"
    );
    assert!(stats.singleflight_waits <= (THREADS - 1) as u64);

    // Registry parity: the depot's counters are the same numbers.
    let snap = registry.snapshot();
    let metric = |name: &str| {
        snap.get(&format!("{name}{{node=\"n0\",subsystem=\"depot\"}}"))
            .and_then(|v| v.as_u64())
            .unwrap_or(u64::MAX)
    };
    assert_eq!(metric("depot_hits_total"), stats.hits);
    assert_eq!(metric("depot_misses_total"), stats.misses);
    assert_eq!(metric("depot_singleflight_waits_total"), stats.singleflight_waits);
}

/// A depot-cold container that fits the depot, scanned with a
/// predicate through `CacheMode::Normal`, costs exactly one S3 GET of
/// the whole file — sent as its `PART_BYTES` parts: the footer read
/// misses and faults the whole file in (§5.2), and every read after it
/// — the kernel's two phases — is a depot hit. No second request
/// reaches shared storage for the footer.
#[test]
fn cold_predicate_scan_of_a_depot_sized_container_costs_one_get() {
    const N: usize = 20_000;
    let rows = gen_rows(0xc01d, N);
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(S3Config::instant(), &registry));
    let db = EonDb::create(s3, EonConfig::new(1, 1).cache_bytes(64 << 20)).unwrap();
    load(&db, &rows, 1);
    let snapshot = db.snapshot().unwrap();
    assert_eq!(snapshot.containers.len(), 1, "one shard, one batch, one container");

    // The load wrote through the depot; start cold.
    let cache = &db.membership().all()[0].cache;
    cache.clear().unwrap();
    // Requests the store billed, by verb.
    let billed = |verb: &str| {
        let snap = registry.snapshot();
        snap.get(&format!("s3_requests_total{{subsystem=\"s3\",verb=\"{verb}\"}}"))
            .and_then(|v| v.as_u64())
            .unwrap_or(u64::MAX)
    };
    let plan = Plan::scan(ScanSpec::new("t").predicate(window_pred(N)));
    let (gets0, lists0, d0) = (billed("get"), billed("list"), cache.stats());
    let got = db.query(&plan).unwrap();
    let d1 = cache.stats();

    let size = snapshot.containers.values().next().expect("one container").size_bytes;
    assert_eq!(billed("get") - gets0, parts(size), "the fault-in, in parts, is the only GET");
    assert_eq!(billed("list") - lists0, 0, "the catalog knows the size: no size or list request");
    assert_eq!(d1.misses - d0.misses, 1, "the footer read is the one miss");
    assert!(d1.hits > d0.hits, "the block reads hit the faulted-in file");
    assert_eq!(d1.bypasses, d0.bypasses);

    let bypass = SessionOpts { bypass_cache: true, ..Default::default() };
    assert!(!got.is_empty());
    assert_eq!(got, db.query_with(&plan, &bypass).unwrap(), "cold scan differs from Bypass");
}

/// A container larger than the whole depot, scanned through
/// `CacheMode::Normal`, moves only what the scan uses: one tail read to
/// open it (sized from the catalog, so no size request), then one wave
/// of the range planner's runs — never the whole object, which the
/// depot could not keep. The node keeps the footer, so a second scan is
/// the wave alone. The rows are those of a warm-depot scan and of a
/// Bypass scan.
#[test]
fn oversized_container_scan_reads_tail_plus_planned_ranges() {
    const N: usize = 20_000;
    let rows = gen_rows(0xc01d, N);
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::new(S3Config::instant()));
    let cfg = |cache_bytes| EonConfig::new(1, 1).cache_bytes(cache_bytes);
    let cold = EonDb::create(s3.clone(), cfg(32 << 10).observability(registry.clone())).unwrap();
    let warm = EonDb::create(Arc::new(MemFs::new()), cfg(64 << 20)).unwrap();
    load(&cold, &rows, 1);
    load(&warm, &rows, 1);

    let snapshot = cold.snapshot().unwrap();
    let containers: Vec<_> = snapshot.containers.values().collect();
    assert_eq!(containers.len(), 1, "one shard, one batch, one container");
    let c = containers[0];
    assert!(c.size_bytes > 32 << 10, "the depot must be smaller than the container");

    // `id` is the sort key, so the window keeps a run of blocks of
    // every column; `grp` and `val` ride in the same wave.
    let (lo, hi) = (N as i64 / 5, N as i64 / 2);
    let window = Predicate::and(vec![
        Predicate::cmp(0, CmpOp::Ge, lo),
        Predicate::cmp(0, CmpOp::Lt, hi),
    ]);
    let plan = Plan::scan(ScanSpec::new("t").predicate(window));
    let counter = |name: &str| {
        let snap = registry.snapshot();
        snap.get(&format!("{name}{{node=\"node0\",subsystem=\"scan\"}}"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) // registered by the first scan
    };

    let (s0, requests0) = (s3.stats(), counter("scan_read_requests_total"));
    let (read0, gap0) = (
        counter("scan_coalesced_bytes_total"),
        counter("scan_coalesced_gap_bytes_total"),
    );
    let got = cold.query(&plan).unwrap();
    let s1 = s3.stats();
    let planned = counter("scan_read_requests_total") - requests0;
    let planned_bytes = counter("scan_coalesced_bytes_total") - read0;
    let gap_bytes = counter("scan_coalesced_gap_bytes_total") - gap0;

    // What the scan had to fetch, from the footer: every block of the
    // three columns whose id range meets the window.
    let reader = RosReader::open(cold.shared().as_ref(), &c.key).unwrap();
    let ids = &reader.footer().columns[0].blocks;
    let keep: Vec<bool> = ids
        .iter()
        .map(|b| b.max >= Value::Int(lo) && b.min < Value::Int(hi))
        .collect();
    let kept_bytes = kept_bytes(reader.footer(), &keep, &[0, 1, 2]);
    assert!(keep.iter().any(|&k| !k) && keep.iter().filter(|&&k| k).count() >= 2);

    let tail = c.size_bytes.min(TAIL_READ);
    assert_eq!(s1.lists - s0.lists, 0, "the catalog knows the size: no size or list request");
    // The pruned blocks between the columns' kept runs are small enough
    // to bridge: the whole wave is one coalesced read.
    assert_eq!(planned, 1, "one coalesced read for all three columns");
    assert_eq!(s1.gets - s0.gets, 1 + parts(planned_bytes), "one tail read plus the planner's run, in parts");
    assert_eq!(planned_bytes, kept_bytes + gap_bytes, "ReadStats: bytes_read = kept + gap");
    assert_eq!(s1.bytes_read - s0.bytes_read, tail + planned_bytes);
    assert!(
        s1.bytes_read - s0.bytes_read < c.size_bytes,
        "no GET of the whole object can hide in fewer bytes than the object has"
    );
    // The footer is kept: the same scan again is the wave alone.
    let s1 = s3.stats(); // past this test's own open above
    assert_eq!(cold.query(&plan).unwrap(), got);
    let s2 = s3.stats();
    assert_eq!(s2.gets - s1.gets, parts(planned_bytes), "a kept footer: no tail read");
    assert_eq!(s2.bytes_read - s1.bytes_read, planned_bytes);
    let depot = cold.membership().all()[0].cache.stats();
    assert_eq!((depot.hits, depot.misses), (0, 0), "routed around the depot, not through it");

    assert!(!got.is_empty());
    assert_eq!(got, warm.query(&plan).unwrap(), "cold scan differs from the warm scan");
    let bypass = SessionOpts { bypass_cache: true, ..Default::default() };
    assert_eq!(got, cold.query_with(&plan, &bypass).unwrap(), "cold scan differs from Bypass");
}

/// Bytes the scans of one statement planned, as `oversized_…` reads
/// them: (coalesced bytes, gap bytes among them) of node 0's registry.
fn planned_bytes(registry: &Registry) -> (u64, u64) {
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.get(&format!("{name}{{node=\"node0\",subsystem=\"scan\"}}"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) // registered by the first scan
    };
    (counter("scan_coalesced_bytes_total"), counter("scan_coalesced_gap_bytes_total"))
}

/// Column pruning, in bytes (DESIGN.md "Plan rules"): a
/// SQL statement naming two of a table's three columns, run cold on a
/// container the depot cannot hold, reads the tail plus one wave whose
/// planned blocks are those two columns' and none of the third's. (SQL
/// never lists scan columns; before the rule this read all three.) The
/// third column lies between the two in the file and is small, so the
/// wave's one coalesced read bridges it: those bytes are gap bytes,
/// counted as such, not a planned range. A second run is the wave
/// alone.
#[test]
fn sql_naming_k_of_n_columns_reads_tail_plus_their_planned_ranges() {
    const N: usize = 20_000;
    let rows = gen_rows(0xc01d, N);
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::new(S3Config::instant()));
    let cfg = |cache_bytes| EonConfig::new(1, 1).cache_bytes(cache_bytes);
    let cold = EonDb::create(s3.clone(), cfg(32 << 10).observability(registry.clone())).unwrap();
    let warm = EonDb::create(Arc::new(MemFs::new()), cfg(64 << 20)).unwrap();
    load(&cold, &rows, 1);
    load(&warm, &rows, 1);
    let snapshot = cold.snapshot().unwrap();
    let c = snapshot.containers.values().next().expect("one container");
    assert!(c.size_bytes > 32 << 10, "the depot must be smaller than the container");

    let (lo, hi) = (N as i64 / 5, N as i64 / 2);
    let sql = format!("SELECT id, val FROM t WHERE id >= {lo} AND id < {hi}");
    let explained = cold.sql_explain(&sql).unwrap();
    assert!(explained.contains("Scan t cols=[0, 2] [pushdown]"), "{explained}");

    let (s0, (read0, gap0)) = (s3.stats(), planned_bytes(&registry));
    let got = cold.sql(&sql).unwrap();
    let (s1, (read1, gap1)) = (s3.stats(), planned_bytes(&registry));

    let reader = RosReader::open(cold.shared().as_ref(), &c.key).unwrap();
    let ids = &reader.footer().columns[0].blocks;
    let keep: Vec<bool> =
        ids.iter().map(|b| b.max >= Value::Int(lo) && b.min < Value::Int(hi)).collect();
    assert!(keep.iter().any(|&k| !k) && keep.iter().filter(|&&k| k).count() >= 2);
    let named = kept_bytes(reader.footer(), &keep, &[0, 2]);
    let unnamed = kept_bytes(reader.footer(), &keep, &[1]);
    assert!(unnamed > 0);
    // The one run spans from `id`'s first kept block to `val`'s last:
    // every byte in it that is not a named kept block is gap.
    let blocks = |c: usize| reader.footer().columns[c].blocks.iter().zip(&keep).filter(|(_, &k)| k);
    let first = blocks(0).map(|(b, _)| b.offset).min().unwrap();
    let last = blocks(2).map(|(b, _)| b.offset + b.len).max().unwrap();
    let dead = last - first - named;

    assert_eq!(gap1 - gap0, dead, "the gap is exactly the dead bytes of the one run");
    assert_eq!(read1 - read0 - (gap1 - gap0), named, "planned blocks are the named columns' kept blocks");
    assert_eq!(s1.gets - s0.gets, 1 + parts(named + dead), "one tail read, one coalesced range in parts");
    assert_eq!(s1.bytes_read - s0.bytes_read, c.size_bytes.min(TAIL_READ) + named + dead);

    // The footer is kept: a second run is the wave alone.
    let s1 = s3.stats(); // past this test's own open above
    assert_eq!(cold.sql(&sql).unwrap(), got);
    let (s2, (read2, gap2)) = (s3.stats(), planned_bytes(&registry));
    assert_eq!((read2 - read1, gap2 - gap1), (read1 - read0, gap1 - gap0));
    assert_eq!(s2.gets - s1.gets, parts(named + dead), "a kept footer: no tail read");
    assert_eq!(s2.bytes_read - s1.bytes_read, named + dead);

    assert_eq!(got.len(), (hi - lo) as usize);
    assert_eq!(got, warm.sql(&sql).unwrap(), "cold scan differs from the warm scan");
}

/// A Q3-shaped three-table join over SQL plans no range of a comment
/// column — or of any column the statement does not name: cold, with
/// every container larger than the depot, the bytes read are the three
/// tails plus exactly the blocks of the 4 + 4 + 2 columns read (3, 4
/// and 1 of them scan outputs, the rest pushed-down predicates), one
/// wave a container. Run again, the footers are kept: the waves alone.
#[test]
fn q3_shaped_join_reads_no_range_of_a_comment_column() {
    // Far from compressible, and most of every container.
    let comment = |i: i64| Value::Str(format!("{:032x}", (i as u128 + 1) * 0x9e37_79b9_7f4a_7c15_f39c));
    let s = |v: &str| Value::Str(v.into());
    let li = schema![("l_orderkey", Int), ("l_price", Int), ("l_disc", Int), ("l_shipdate", Int), ("l_tax", Int), ("l_comment", Str)];
    let ord = schema![("o_orderkey", Int), ("o_custkey", Int), ("o_prio", Int), ("o_date", Int), ("o_clerk", Str), ("o_comment", Str)];
    let cust = schema![("c_custkey", Int), ("c_segment", Str), ("c_name", Str), ("c_comment", Str)];
    let li_rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|i| vec![Value::Int(i / 3), Value::Int(100 + i % 97), Value::Int(i % 10), Value::Int(i % 1000), Value::Int(i % 8), comment(i)])
        .collect();
    let ord_rows: Vec<Vec<Value>> = (0..1000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 5), Value::Int((i * 7) % 1000), s(&format!("clerk{}", i % 40)), comment(i)])
        .collect();
    let cust_rows: Vec<Vec<Value>> = (0..300i64)
        .map(|i| vec![Value::Int(i), s(["A", "B", "C"][i as usize % 3]), s(&format!("customer{i}")), comment(i)])
        .collect();
    let create = |db: &EonDb| {
        for (name, schema, rows) in [("li", &li, &li_rows), ("ord", &ord, &ord_rows)] {
            let p = Projection::super_projection(format!("{name}_p"), schema, &[0], &[0]);
            db.create_table(name, schema.clone(), vec![p]).unwrap();
            db.copy_into(name, rows.clone()).unwrap();
        }
        db.create_table("cust", cust.clone(), vec![Projection::replicated("cust_p", &cust, &[0])]).unwrap();
        db.copy_into("cust", cust_rows.clone()).unwrap();
    };
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::new(S3Config::instant()));
    let cfg = |cache_bytes| EonConfig::new(1, 1).cache_bytes(cache_bytes);
    let cold = EonDb::create(s3.clone(), cfg(8 << 10).observability(registry.clone())).unwrap();
    let warm = EonDb::create(Arc::new(MemFs::new()), cfg(64 << 20)).unwrap();
    create(&cold);
    create(&warm);

    let sql = "SELECT l.l_orderkey, o.o_date, o.o_prio, SUM(l.l_price * (100 - l.l_disc)) AS revenue \
               FROM li l JOIN ord o ON l.l_orderkey = o.o_orderkey \
               JOIN cust c ON o.o_custkey = c.c_custkey \
               WHERE c.c_segment = 'B' AND o.o_date < 500 AND l.l_shipdate > 200 \
               GROUP BY l.l_orderkey, o.o_date, o.o_prio ORDER BY revenue DESC, 2, 1 LIMIT 10";
    let explained = cold.sql_explain(sql).unwrap();
    // `ord` is co-segmented with `li` on the order key, so it reads
    // shard-local from the projection the rule pinned.
    for scan in ["Scan li cols=[0, 1, 2] [pushdown]", "Scan ord (projection ord_p) cols=[0, 1, 2, 3] [pushdown]", "Scan cust cols=[0] [pushdown]"] {
        assert!(explained.contains(scan), "no `{scan}` in\n{explained}");
    }

    let (s0, (read0, gap0)) = (s3.stats(), planned_bytes(&registry));
    let got = cold.sql(sql).unwrap();
    let (s1, (read1, gap1)) = (s3.stats(), planned_bytes(&registry));

    // One container a table, one block a column (under 4 096 rows), and
    // every predicate leaves survivors: a column is read whole or not
    // at all.
    let snapshot = cold.snapshot().unwrap();
    assert_eq!(snapshot.containers.len(), 3);
    let (mut tails, mut named, mut comments) = (0, 0, 0);
    for (table, read_cols) in [("li", &[0, 1, 2, 3][..]), ("ord", &[0, 1, 2, 3]), ("cust", &[0, 1])] {
        let t = snapshot.table_by_name(table).unwrap();
        let c = snapshot.containers.values().find(|c| c.table == t.oid).unwrap();
        assert!(c.size_bytes > 8 << 10, "{table}: the depot must be smaller than the container");
        let reader = RosReader::open(cold.shared().as_ref(), &c.key).unwrap();
        assert!(reader.footer().columns.iter().all(|col| col.blocks.len() == 1));
        tails += c.size_bytes.min(TAIL_READ);
        named += kept_bytes(reader.footer(), &[true], read_cols);
        comments += kept_bytes(reader.footer(), &[true], &[t.schema.len() - 1]);
    }
    // The columns a container reads are neighbours in the file: no gap
    // bytes, so every planned byte is a block of a named column.
    assert_eq!(gap1 - gap0, 0);
    assert_eq!(read1 - read0, named);
    assert_eq!(s1.bytes_read - s0.bytes_read, tails + named);
    assert!(comments > 2 * named, "the comments ({comments}B) are what a 16-column scan would drag");
    assert_eq!(s1.gets - s0.gets, 3 + 3, "three tail reads, one coalesced range a container");

    // The footers are kept: the same statement again is the waves alone.
    let s1 = s3.stats(); // past this test's own opens above
    assert_eq!(cold.sql(sql).unwrap(), got);
    let (s2, (read2, gap2)) = (s3.stats(), planned_bytes(&registry));
    assert_eq!((read2 - read1, gap2 - gap1), (named, 0));
    assert_eq!(s2.bytes_read - s1.bytes_read, named);
    assert_eq!(s2.gets - s1.gets, 3, "kept footers: no tail read");

    assert_eq!(got.len(), 10);
    assert_eq!(got, warm.sql(sql).unwrap(), "cold join differs from the warm join");
}

/// One batch of ranged reads: the object and its `(offset, len)`s.
type Batch = (String, Vec<(u64, u64)>);

/// A store that logs every batch of ranged reads it is sent, one entry
/// per call: a wave the layers above send at once arrives as one batch.
#[derive(Default)]
struct Batches {
    inner: MemFs,
    log: std::sync::Mutex<Vec<Batch>>,
}

impl FileSystem for Batches {
    fn write(&self, path: &str, data: bytes::Bytes) -> eon_types::Result<()> {
        self.inner.write(path, data)
    }
    fn read(&self, path: &str) -> eon_types::Result<bytes::Bytes> {
        self.inner.read(path)
    }
    fn read_range(&self, path: &str, offset: u64, len: u64) -> eon_types::Result<bytes::Bytes> {
        self.read_ranges(path, &[(offset, len)]).pop().expect("one result per range")
    }
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<eon_types::Result<bytes::Bytes>> {
        self.log.lock().unwrap().push((path.to_owned(), ranges.to_vec()));
        self.inner.read_ranges(path, ranges)
    }
    fn size(&self, path: &str) -> eon_types::Result<u64> {
        self.inner.size(path)
    }
    fn list(&self, prefix: &str) -> eon_types::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> eon_types::Result<()> {
        self.inner.delete(path)
    }
    fn stats(&self) -> eon_storage::FsStats {
        self.inner.stats()
    }
}

/// Kept footers, end to end: the first cold scan of an oversized
/// container opens it with one tail read; the second issues none, and
/// the store — below the retry layer, where every part is a request —
/// is sent all of the container's parts in one batch. After
/// mergeout replaces the containers and the reaper deletes them, no up
/// node keeps a reaped key's footer.
#[test]
fn second_cold_scan_is_one_wave_and_reaped_footers_are_forgotten() {
    // Four containers of 10 000 rows — enough for one mergeout job —
    // each three blocks of each column.
    const BATCH: i64 = 10_000;
    let s = schema![("id", Int), ("pad", Str)];
    // Incompressible padding: each `pad` block is far wider than the
    // coalescing gap, so every kept one is a run of its own.
    let row = |i: i64| vec![Value::Int(i), Value::Str(format!("{:064x}", (i as u128 + 7) * 0x9e37_79b9_7f4a_7c15_f39c))];
    let store = Arc::new(Batches::default());
    let db = EonDb::create(store.clone(), EonConfig::new(1, 1).cache_bytes(32 << 10)).unwrap();
    db.create_table("w", s.clone(), vec![Projection::super_projection("w_p", &s, &[0], &[0])]).unwrap();
    for b in 0..4 {
        db.copy_into("w", (b * BATCH..(b + 1) * BATCH).map(row).collect()).unwrap();
    }
    let snapshot = db.snapshot().unwrap();
    assert_eq!(snapshot.containers.len(), 4);
    assert!(snapshot.containers.values().all(|c| c.size_bytes > 32 << 10));

    // Blocks 0 and 2 of every container: two `pad` runs each.
    let blocks_0_and_2 = |lo: i64| {
        vec![
            Predicate::and(vec![Predicate::cmp(0, CmpOp::Ge, lo), Predicate::cmp(0, CmpOp::Lt, lo + 4_096)]),
            Predicate::and(vec![Predicate::cmp(0, CmpOp::Ge, lo + 8_192), Predicate::cmp(0, CmpOp::Lt, lo + BATCH)]),
        ]
    };
    let pred = Predicate::Or((0..4).flat_map(|b| blocks_0_and_2(b * BATCH)).collect());
    let plan = Plan::scan(ScanSpec::new("w").predicate(pred)).sort(vec![SortKey::asc(0)]);
    let is_tail = |key: &str, &(offset, len): &(u64, u64)| {
        snapshot.containers.values().any(|c| c.key == key && offset + len == c.size_bytes)
    };
    let tails = |log: &[Batch]| {
        log.iter().flat_map(|(key, batch)| batch.iter().filter(|r| is_tail(key, r))).count()
    };
    let logged = || std::mem::take(&mut *store.log.lock().unwrap());

    logged();
    let first = db.query(&plan).unwrap();
    let opened = logged();
    assert_eq!(tails(&opened), 4, "one tail read a container");
    let node = db.membership().all()[0].clone();
    assert_eq!(node.kept_footers().len(), 4);

    // The first container's wave: one batch of every part of its runs.
    let lower = snapshot.containers.values().find(|c| matches!(&c.col_minmax[0], Some((Value::Int(0), _))));
    let lower = &lower.expect("the container of the first batch").key;
    let waves: Vec<&Vec<(u64, u64)>> = (opened.iter())
        .filter(|(key, batch)| key == lower && !batch.iter().any(|r| is_tail(key, r)))
        .map(|(_, batch)| batch)
        .collect();
    assert_eq!(waves.len(), 1, "the container's parts in one batch: {waves:?}");
    let wave = waves[0].clone();
    assert!(wave.len() >= 2, "the container's wave has {} parts", wave.len());
    assert!(wave.iter().all(|&(_, len)| len <= eon_storage::PART_BYTES));
    // Scanned alone, the kept footer sends the same wave and nothing else.
    let one = Plan::scan(ScanSpec::new("w").predicate(Predicate::Or(blocks_0_and_2(0))));
    let again = db.query(&one).unwrap();
    assert_eq!(logged(), vec![(lower.clone(), wave)], "a kept footer: no tail read, one batch");
    assert_eq!(again, first.iter().filter(|r| r[0] < Value::Int(BATCH)).cloned().collect::<Vec<_>>());

    // Mergeout writes one new container; the reaper deletes the four
    // old ones, and every up node forgets their footers.
    let old: Vec<String> = snapshot.containers.values().map(|c| c.key.clone()).collect();
    assert_eq!(db.run_mergeout().unwrap(), 1);
    assert_eq!(db.query(&plan).unwrap(), first);
    db.sync_metadata(1_000).unwrap();
    let reaped = db.reap_files().unwrap();
    assert!(old.iter().all(|k| reaped.contains(k)), "{reaped:?}");
    for node in db.membership().up_nodes() {
        let kept = node.kept_footers();
        assert!(reaped.iter().all(|k| !kept.contains(k)), "node {} keeps {kept:?}", node.id.0);
        assert_eq!(kept.len(), 1, "the merged container's footer stays");
    }
    assert_eq!(db.query(&plan).unwrap(), first);
}

proptest! {
    /// The multi-column range planner is only a cheaper way to fetch:
    /// for any column subset, keep mask and gap it returns exactly the
    /// `EncodedBlock`s that one-column reads return, its `ReadStats`
    /// describe the GETs it issued, with gap 0 it fetches exactly the
    /// kept bytes, and with an unbounded gap everything bridges into
    /// one GET.
    #[test]
    fn multi_column_planner_matches_per_column_reads(
        seed in 0u64..1_000_000,
        col_mask in 1usize..8,
        keep_bits in 0u32..(1 << 10),
        gap in prop_oneof![Just(0u64), 1u64..4_000, Just(u64::MAX)],
    ) {
        // 1 000 rows in blocks of 100: ten blocks in each of 3 columns.
        let rows = gen_rows(seed, 1_000);
        let columns: Vec<Column> = (0..3).map(|c| Column::from_values(rows.iter().map(|r| r[c].as_ref()))).collect();
        let (bytes, footer) = RosWriter::with_block_rows(100).encode(&columns).unwrap();
        let size = bytes.len() as u64;
        let fs = MemFs::new();
        fs.write("c", bytes).unwrap();
        let reader = RosReader::open_sized(&fs, "c", size).unwrap();
        let cols: Vec<usize> = (0..3).filter(|c| col_mask & (1 << c) != 0).collect();
        let keep: Vec<bool> = (0..10).map(|b| keep_bits & (1 << b) != 0).collect();

        let mut one_by_one = ReadStats::default();
        let expect: Vec<_> = cols
            .iter()
            .map(|&c| {
                let one = reader.read_columns_encoded(&fs, &[c], &keep, gap, &mut one_by_one);
                one.unwrap().remove(0)
            })
            .collect();

        let before = fs.stats();
        let mut stats = ReadStats::default();
        let got = reader.read_columns_encoded(&fs, &cols, &keep, gap, &mut stats).unwrap();
        let after = fs.stats();
        prop_assert_eq!(&got, &expect);

        let kept_blocks = (cols.len() * keep.iter().filter(|&&k| k).count()) as u64;
        let kept_bytes = kept_bytes(&footer, &keep, &cols);
        prop_assert_eq!(after.gets - before.gets, stats.requests);
        prop_assert_eq!(after.bytes_read - before.bytes_read, stats.bytes_read);
        prop_assert_eq!(stats.bytes_read, kept_bytes + stats.gap_bytes);
        prop_assert_eq!(stats.requests + stats.requests_saved, kept_blocks);
        prop_assert!(stats.requests <= one_by_one.requests);
        match gap {
            // Only touching blocks share a read: no dead byte moves.
            0 => prop_assert_eq!(stats.gap_bytes, 0),
            // Everything bridges: one read for the whole request.
            u64::MAX => prop_assert_eq!(stats.requests, kept_blocks.min(1)),
            _ => {}
        }
    }
}
