//! Property tests pinning compression-aware execution (DESIGN.md
//! "Compression-aware execution") as *invisible*: running predicates
//! and aggregates directly on RLE/dict block views must be a pure
//! performance change.
//!
//! Two families of properties:
//!
//! * **Encoding equivalence** — the same randomized workload
//!   (predicates × projections × group-bys) over containers
//!   force-encoded as each of heuristic/RLE/Dict/Delta returns rows
//!   byte-identical (down to `Debug` strings, so `Int(1)` can never
//!   silently become `Float(1.0)`) to a database that stored the same
//!   rows `Plain` — same layout, pruning metrics in agreement, never an
//!   encoded view served — and, as a sorted multiset, the rows
//!   `MemProvider` computes from the rows themselves (`eval_row` each
//!   row, no container). The Plain comparison shares the block-filter
//!   kernel with the database under test, as Enterprise does; the
//!   reference shares nothing below the plan.
//!
//! * **Decoder hardening** — truncating or bit-flipping encoded column
//!   bytes must yield a typed [`EonError`], never a panic; at the
//!   container layer a corrupted block may only surface as an error or
//!   as a block of exactly the footer's row count — never silently
//!   short rows.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use eon_columnar::format::{Reader, Writer};
use eon_columnar::pruning::CmpOp;
use eon_columnar::{
    decode_column, encode_block, Column, Encoding, Predicate, Projection, ReadStats, RosReader,
    RosWriter,
};
use eon_core::{EonConfig, EonDb};
use eon_db as _;
use eon_exec::{execute, AggSpec, Expr, MemProvider, Plan, ScanSpec, SortKey};
use eon_storage::{FileSystem, MemFs};
use eon_types::{schema, EonError, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Every force-encoding configuration the write path accepts: the
/// heuristic, plus each encoding forced (with silent per-block fallback
/// where it cannot represent the data, e.g. Delta over strings).
const FORCES: [Option<Encoding>; 5] = [
    None,
    Some(Encoding::Plain),
    Some(Encoding::Rle),
    Some(Encoding::Dict),
    Some(Encoding::Delta),
];

/// Rows designed so every encoding has something to bite on: a
/// monotone id (delta-friendly), a small group key (RLE-friendly), a
/// low-cardinality string tag (dict-friendly), and a value column with
/// sprinkled NULLs.
fn gen_rows(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    const TAGS: [&str; 5] = ["ad", "api", "batch", "etl", "ui"];
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

fn make_db(force: Option<Encoding>, rows: &[Vec<Value>]) -> Arc<EonDb> {
    let cfg = EonConfig::new(1, 1).exec_slots(2).force_encoding(force);
    let db = EonDb::create(Arc::new(MemFs::new()), cfg).unwrap();
    let s = schema![("id", Int), ("grp", Int), ("tag", Str), ("val", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    // Two batches so each shard holds more than one container.
    let half = rows.len().div_ceil(2).max(1);
    for chunk in rows.chunks(half) {
        db.copy_into("t", chunk.to_vec()).unwrap();
    }
    db
}

/// `plan`'s answer over `rows` as table `t`, from the reference
/// provider: an `eval_row` scan of the rows, no storage.
fn reference(rows: &[Vec<Value>], plan: &Plan) -> Vec<Vec<Value>> {
    let tables = HashMap::from([("t".to_owned(), rows.to_vec())]);
    execute(plan, &MemProvider::single(tables)).unwrap().into_rows()
}

/// A random predicate over the four columns, weighted toward shapes the
/// encoded paths specialize: comparisons on the RLE-friendly group key,
/// equality on the dict-friendly tag, and NULL tests on the value.
fn gen_predicate(rng: &mut StdRng, n: usize) -> Predicate {
    const TAGS: [&str; 5] = ["ad", "api", "batch", "etl", "ui"];
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    match rng.gen_range(0..6u32) {
        0 => Predicate::cmp(0, ops[rng.gen_range(0..ops.len())], rng.gen_range(0..n as i64)),
        1 => Predicate::cmp(1, ops[rng.gen_range(0..ops.len())], rng.gen_range(0..5i64)),
        2 => Predicate::cmp(2, CmpOp::Eq, TAGS[rng.gen_range(0..TAGS.len())]),
        3 => Predicate::IsNull(3),
        4 => Predicate::IsNotNull(3),
        _ => Predicate::Or(vec![
            Predicate::cmp(1, CmpOp::Le, rng.gen_range(0..5i64)),
            Predicate::cmp(2, CmpOp::Eq, TAGS[rng.gen_range(0..TAGS.len())]),
        ]),
    }
}

/// Random plans: full/predicate scans under random projections (always
/// covering the predicate's columns), plus grouped aggregates with a
/// mixed function set.
fn gen_plans(rng: &mut StdRng, n: usize) -> Vec<Plan> {
    let mut plans = Vec::new();
    // Projection scan: a random non-empty column subset, sorted on
    // every output column so answers compare deterministically.
    let mut cols: Vec<usize> = (0..4).filter(|_| rng.gen_range(0..2u32) == 0).collect();
    if cols.is_empty() {
        cols.push(rng.gen_range(0..4usize));
    }
    let keys: Vec<SortKey> = (0..cols.len()).map(SortKey::asc).collect();
    plans.push(Plan::scan(ScanSpec::new("t").columns(cols)).sort(keys));
    // Predicate scan over all columns.
    plans.push(
        Plan::scan(ScanSpec::new("t").predicate(gen_predicate(rng, n))).sort(vec![
            SortKey::asc(0),
            SortKey::asc(1),
            SortKey::asc(2),
            SortKey::asc(3),
        ]),
    );
    // Grouped aggregate over a predicate scan: group by the RLE- or
    // dict-friendly key, with Sum/Count/Avg/Min/Max partials that merge
    // at the coordinator.
    let grp = if rng.gen_range(0..2u32) == 0 { 1 } else { 2 };
    plans.push(
        Plan::scan(ScanSpec::new("t").predicate(gen_predicate(rng, n)))
            .aggregate(
                vec![grp],
                vec![
                    AggSpec::sum(Expr::col(3)),
                    AggSpec::count_star(),
                    AggSpec::avg(Expr::col(3)),
                    AggSpec::min(Expr::col(3)),
                    AggSpec::max(Expr::col(0)),
                ],
            )
            .sort(vec![SortKey::asc(0)]),
    );
    plans
}

/// Sum a counter across all label sets in a database's registry.
fn metric_sum(db: &EonDb, name: &str) -> u64 {
    let snap = db.metrics().snapshot();
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

proptest! {
    /// The tentpole equivalence: for every forced encoding, a random
    /// workload answers with rows byte-identical to the same rows
    /// stored `Plain` — including the exact `Value` variants (`Debug`
    /// equality), so run-collapsed aggregates can never alias `Int` and
    /// `Float` — with pruning metrics in agreement, and with the sorted
    /// multiset the reference provider computes.
    #[test]
    fn encoded_blocks_answer_as_plain_stored_and_reference(
        seed in 0u64..1_000_000,
        n in 60usize..220,
    ) {
        let rows = gen_rows(seed, n);
        let plans = gen_plans(&mut StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15), n);
        let plain = make_db(Some(Encoding::Plain), &rows);
        let mut want = Vec::new();
        for plan in &plans {
            let a = plain.query(plan).unwrap();
            let (mut got, mut want_rows) = (a.clone(), reference(&rows, plan));
            got.sort();
            want_rows.sort();
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want_rows:?}"),
                "the reference disagrees: seed {}",
                seed
            );
            want.push(a);
        }
        // Force-Plain stores nothing *to* view encoded.
        prop_assert_eq!(metric_sum(&plain, "scan_encoded_blocks_total"), 0u64);
        for force in FORCES.into_iter().filter(|f| *f != Some(Encoding::Plain)) {
            let enc = make_db(force, &rows);
            for (plan, a) in plans.iter().zip(&want) {
                let b = enc.query(plan).unwrap();
                prop_assert_eq!(a, &b, "force {:?} seed {}", force, seed);
                prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "value representations diverged: force {:?} seed {}",
                    force,
                    seed
                );
            }
            // Force-RLE/Dict always fits, so the scan must have
            // genuinely executed on compressed views.
            if matches!(force, Some(Encoding::Rle) | Some(Encoding::Dict)) {
                prop_assert!(metric_sum(&enc, "scan_encoded_blocks_total") > 0);
            }
            // Stats pruning is upstream of block decoding: every
            // encoding must prune identically.
            prop_assert_eq!(
                metric_sum(&enc, "scan_blocks_pruned_total"),
                metric_sum(&plain, "scan_blocks_pruned_total"),
                "pruning diverged under force {:?}", force
            );
        }
    }

    /// Decoder hardening: any truncation of an encoded column is a
    /// typed [`EonError`] — never a panic, never a partial row set —
    /// and any single-bit flip either still decodes to the block's
    /// declared shape or fails typed.
    #[test]
    fn corrupted_column_bytes_fail_typed_never_panic(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200usize);
        // Int-only when Delta must fit; otherwise a mixed bag of types.
        let int_only = rng.gen_range(0..2u32) == 0;
        let values: Vec<Value> = (0..n)
            .map(|i| match if int_only { 0 } else { rng.gen_range(0..4u32) } {
                0 => Value::Int(rng.gen_range(-9..9i64) * (i as i64 / 7 + 1)),
                1 => Value::Str(format!("s{}", rng.gen_range(0..4u32))),
                2 => Value::Float(f64::from(rng.gen_range(-3..3i32)) * 0.5),
                _ => Value::Null,
            })
            .collect();
        let col = Column::from_values(values.iter().map(Value::as_ref));
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
            let mut w = Writer::new();
            // A forced encoding that does not fit the block falls back.
            if encode_block(&col, 0..n, Some(enc), &mut w) != enc {
                continue;
            }
            let bytes = w.as_slice().to_vec();

            // Pristine bytes round-trip exactly.
            let decoded = decode_column(&mut Reader::new(&bytes)).unwrap();
            prop_assert_eq!(format!("{decoded:?}"), format!("{values:?}"));

            // Truncation: a strict prefix is always missing payload, so
            // decode must return a typed Corrupt — not rows, not a panic.
            let cut = rng.gen_range(0..bytes.len());
            match decode_column(&mut Reader::new(&bytes[..cut])) {
                Ok(rows) => prop_assert!(
                    false,
                    "{enc:?}: truncation at {cut}/{} decoded {} rows",
                    bytes.len(),
                    rows.len()
                ),
                Err(e) => prop_assert!(
                    matches!(e, EonError::Corrupt(_)),
                    "{enc:?}: truncation surfaced untyped error {e}"
                ),
            }

            // Bit flip: decoding may still succeed (payload bits are
            // not checksummed at this layer — the container footer row
            // count is the integrity gate, tested below), but it must
            // never panic and errors must stay typed.
            let mut mutated = bytes.clone();
            let pos = rng.gen_range(0..mutated.len());
            mutated[pos] ^= 1 << rng.gen_range(0..8u32);
            if let Err(e) = decode_column(&mut Reader::new(&mutated)) {
                prop_assert!(
                    matches!(e, EonError::Corrupt(_)),
                    "{enc:?}: bit flip at {pos} surfaced untyped error {e}"
                );
            }
        }
    }

    /// Container-level integrity: flipping a bit anywhere in a ROS file
    /// (data region, footer, or trailer) can surface only as a typed
    /// error or as blocks of exactly the footer's declared row counts —
    /// a corrupted run length or dictionary can never silently shrink
    /// or stretch a block.
    #[test]
    fn corrupted_containers_never_yield_short_blocks(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(50..400usize);
        let force = FORCES[rng.gen_range(0..FORCES.len())];
        let cols: Vec<Vec<Value>> = vec![
            (0..n).map(|i| Value::Int(i as i64)).collect(),
            (0..n).map(|_| Value::Int(rng.gen_range(0..4i64))).collect(),
            (0..n).map(|_| Value::Str(format!("t{}", rng.gen_range(0..3u32)))).collect(),
        ];
        let cols: Vec<Column> = cols.iter().map(|c| Column::from_values(c.iter().map(Value::as_ref))).collect();
        let (bytes, footer) = RosWriter::with_block_rows(64)
            .force_encoding(force)
            .encode(&cols)
            .unwrap();

        let mut raw = bytes.to_vec();
        let pos = rng.gen_range(0..raw.len());
        raw[pos] ^= 1 << rng.gen_range(0..8u32);
        let truncate = rng.gen_range(0..4u32) == 0;
        if truncate {
            raw.truncate(rng.gen_range(0..raw.len()));
        }

        let fs = MemFs::new();
        fs.write("ros/corrupt", Bytes::from(raw)).unwrap();
        let reader = match RosReader::open(&fs, "ros/corrupt") {
            Ok(r) => r,
            // Footer/trailer damage detected at open: typed, done.
            Err(EonError::Corrupt(_)) => return,
            Err(e) => panic!("untyped open error: {e}"),
        };
        for (c, meta) in footer.columns.iter().enumerate() {
            let keep = vec![true; meta.blocks.len()];
            match reader.read_columns_encoded(&fs, &[c], &keep, 0, &mut ReadStats::default()) {
                Ok(mut cols) => {
                    for (b, view) in cols.remove(0).into_iter().enumerate() {
                        let got = view.map_or(0, |v| v.decode().to_values().len()) as u64;
                        prop_assert_eq!(
                            got, meta.blocks[b].rows,
                            "col {} block {}: short/long rows survived corruption at byte {}",
                            c, b, pos
                        );
                    }
                }
                Err(EonError::Corrupt(_)) => {}
                Err(EonError::NotFound(_) | EonError::Storage(_)) if truncate => {}
                Err(e) => panic!("untyped read error: {e}"),
            }
        }
    }
}
