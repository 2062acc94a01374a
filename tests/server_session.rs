//! End-to-end tests for the network front door (DESIGN.md "Network
//! service layer"): concurrent sessions over real TCP, typed
//! backpressure on the wire, disconnect-fires-CancelToken resource
//! release, and a malformed-frame fuzz that must never hang or panic
//! the server.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eon_columnar::Projection;
use eon_core::{EonConfig, EonDb};
use eon_net::wire::{read_frame, write_frame};
use eon_net::{
    ClientOpts, EonClient, EonServer, Request, Response, ServerHandle, ServerOpts, SqlOutcome,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use eon_storage::MemFs;
use eon_types::{schema, EonError, Value};

const SLOTS: usize = 4;

/// A served cluster: 3 nodes / 3 shards, a seeded table, and the given
/// admission-pool shape.
fn serve(
    max_concurrent: usize,
    max_queue: usize,
    timeout_ms: u64,
) -> (Arc<EonDb>, ServerHandle) {
    let db = EonDb::create(
        Arc::new(MemFs::new()),
        EonConfig::new(3, 3)
            .exec_slots(SLOTS)
            .admission_max_concurrent(max_concurrent)
            .admission_max_queue(max_queue)
            .admission_timeout_ms(timeout_ms)
            .slot_wait_ms(30_000),
    )
    .unwrap();
    let s = schema![("id", Int), ("grp", Str), ("price", Int)];
    db.create_table(
        "sales",
        s.clone(),
        vec![Projection::super_projection("sales_super", &s, &[0], &[0])],
    )
    .unwrap();
    db.copy_into(
        "sales",
        (0..2000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(if i % 3 == 0 { "a" } else { "b" }.into()),
                    Value::Int(i % 50),
                ]
            })
            .collect(),
    )
    .unwrap();
    let server = EonServer::bind(db.clone(), "127.0.0.1:0", ServerOpts::default()).unwrap();
    (db, server.spawn())
}

/// Every node's slot semaphore back at capacity, admission pool
/// drained, and no live server sessions — the quiesce invariant.
fn assert_quiesced(db: &Arc<EonDb>, handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "server sessions never quiesced ({} live)",
            handle.active_sessions()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for node in db.membership().up_nodes() {
        assert_eq!(
            node.slots.available(),
            node.slots.capacity(),
            "node {} leaked execution slots",
            node.id
        );
    }
    assert_eq!(db.admission().pool_depths(0), (0, 0), "admission pool did not drain");
}

/// Read a server counter: the registry interns by (name, labels), so
/// this resolves to the live counter the server increments.
fn counter(db: &Arc<EonDb>, name: &str) -> u64 {
    db.config()
        .obs
        .counter(name, &[("subsystem", "server")])
        .get()
}

#[test]
fn concurrent_sessions_resolve_with_typed_outcomes() {
    let (db, handle) = serve(2, 2, 1_000);
    let addr = handle.addr();

    // Hold every slot for 100ms so the pool and queue fill and the
    // overflow must bounce with Saturated instead of parking.
    let guards: Vec<_> = db
        .membership()
        .up_nodes()
        .iter()
        .map(|n| n.slots.acquire(n.slots.capacity()).unwrap())
        .collect();

    let mut clients = Vec::new();
    for _ in 0..16 {
        clients.push(std::thread::spawn(move || {
            let mut c = EonClient::connect(addr)?;
            c.sql("SELECT grp, COUNT(*) FROM sales GROUP BY grp ORDER BY grp")
        }));
    }
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(guards);
    });

    let (mut ok, mut saturated, mut deadline) = (0, 0, 0);
    for c in clients {
        match c.join().unwrap() {
            Ok(SqlOutcome::Rows { columns, rows }) => {
                assert_eq!(columns, vec!["grp", "COUNT(*)"]);
                assert_eq!(
                    rows,
                    vec![
                        vec![Value::Str("a".into()), Value::Int(667)],
                        vec![Value::Str("b".into()), Value::Int(1333)],
                    ]
                );
                ok += 1;
            }
            // The typed backpressure contract, reconstructed from the
            // wire code — payload intact, no string matching.
            Err(EonError::Saturated { queued, depth }) => {
                assert_eq!(depth, 2);
                assert!(queued <= depth, "queued {queued} > depth {depth}");
                saturated += 1;
            }
            Err(EonError::DeadlineExceeded(_)) => deadline += 1,
            Err(e) => panic!("untyped session outcome: {e}"),
            Ok(other) => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(ok + saturated + deadline, 16, "sessions went missing");
    assert!(ok > 0, "no session ever succeeded");
    assert!(
        saturated > 0,
        "16 sessions against a 2+2 pool never saturated (ok={ok} deadline={deadline})"
    );
    assert_quiesced(&db, &handle);
}

#[test]
fn disconnect_mid_query_cancels_and_frees_holds() {
    let (db, handle) = serve(0, 0, 0);
    let addr = handle.addr();

    // Park the next query at the slot semaphore (30s budget — if
    // disconnect did NOT cancel, quiesce would blow the 10s watchdog).
    let guards: Vec<_> = db
        .membership()
        .up_nodes()
        .iter()
        .map(|n| n.slots.acquire(n.slots.capacity()).unwrap())
        .collect();

    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = stream;
        write_frame(
            &mut w,
            &Request::Hello {
                protocol_version: PROTOCOL_VERSION,
                subcluster: None,
                bypass_cache: false,
                crunch: false,
            }
            .encode(),
        )
        .unwrap();
        let ack = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&ack).unwrap(),
            Response::HelloAck { .. }
        ));
        write_frame(
            &mut w,
            &Request::Sql {
                sql: "SELECT SUM(price) FROM sales".into(),
            }
            .encode(),
        )
        .unwrap();
        // Let the query reach the slot wait, then vanish.
        std::thread::sleep(Duration::from_millis(150));
        // Drop both halves: the server's reader sees EOF and fires the
        // session's CancelToken.
    }

    // The cancelled session must release everything it held *while the
    // slots are still spiked* — the freed state below cannot come from
    // the query completing.
    let t0 = Instant::now();
    while handle.active_sessions() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "disconnected session never unwound"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        counter(&db, "server_disconnect_cancels_total") >= 1,
        "disconnect did not fire the session CancelToken"
    );
    drop(guards);
    assert_quiesced(&db, &handle);

    // And the server still serves new sessions afterwards.
    let mut c = EonClient::connect(addr).unwrap();
    match c.sql("SELECT COUNT(*) FROM sales").unwrap() {
        SqlOutcome::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(2000)]]),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn malformed_frames_yield_typed_errors_never_hangs() {
    let (db, handle) = serve(0, 0, 0);
    let addr = handle.addr();
    let read_deadline = Some(Duration::from_secs(5));

    // (a) Junk payload in a well-formed frame: typed CORRUPT response.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(read_deadline).unwrap();
        write_frame(&mut s, &[0x7f, 0xde, 0xad]).unwrap();
        let resp = read_frame(&mut s.try_clone().unwrap(), MAX_FRAME_BYTES)
            .unwrap()
            .expect("server should respond before closing");
        match Response::decode(&resp).unwrap() {
            Response::Error(w) => {
                assert!(matches!(w.decode(), EonError::Corrupt(_)), "code {}", w.code)
            }
            other => panic!("expected typed error, got {other:?}"),
        }
    }

    // (b) Oversized length prefix: rejected before allocation, typed
    // CORRUPT response, connection closed.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(read_deadline).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        s.write_all(b"junk that will never be a frame").unwrap();
        let resp = read_frame(&mut s.try_clone().unwrap(), MAX_FRAME_BYTES)
            .unwrap()
            .expect("server should respond before closing");
        match Response::decode(&resp).unwrap() {
            Response::Error(w) => {
                assert!(matches!(w.decode(), EonError::Corrupt(_)), "code {}", w.code)
            }
            other => panic!("expected typed error, got {other:?}"),
        }
        // After a framing error the server closes: next read is EOF,
        // not a hang.
        let mut rest = Vec::new();
        let n = s.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "server kept talking after a framing error");
    }

    // (c) Truncated length prefix then half-close: the server must
    // tear the session down without hanging (no response owed — the
    // frame never completed).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(read_deadline).unwrap();
        s.write_all(&[0x00, 0x01]).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest); // typed error frame or clean EOF
        if !rest.is_empty() {
            let mut r = &rest[..];
            if let Ok(Some(frame)) = read_frame(&mut r, MAX_FRAME_BYTES) {
                match Response::decode(&frame) {
                    Ok(Response::Error(_)) | Err(_) => {}
                    Ok(other) => panic!("expected error frame, got {other:?}"),
                }
            }
        }
    }

    // (d) Raw junk bytes (not even a plausible prefix).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(read_deadline).unwrap();
        s.write_all(&[0xff; 64]).unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest); // must terminate
    }

    // The server survived all of it: a well-formed session still works
    // and nothing leaked.
    let mut c = EonClient::connect(addr).unwrap();
    c.set_read_timeout(read_deadline).unwrap();
    match c.sql("SELECT COUNT(*) FROM sales").unwrap() {
        SqlOutcome::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(2000)]]),
        other => panic!("unexpected outcome {other:?}"),
    }
    drop(c);
    assert_quiesced(&db, &handle);
}

#[test]
fn multibyte_literals_round_trip_lexer_to_wire_byte_exact() {
    let (db, handle) = serve(0, 0, 0);
    let addr = handle.addr();
    // Rows whose strings exercise 2-, 3-, and 4-byte UTF-8.
    let exotic = ["café", "名前", "🦀 crab", "it's"];
    db.copy_into(
        "sales",
        exotic
            .iter()
            .enumerate()
            .map(|(i, s)| {
                vec![
                    Value::Int(10_000 + i as i64),
                    Value::Str(s.to_string()),
                    Value::Int(1),
                ]
            })
            .collect(),
    )
    .unwrap();

    let mut c = EonClient::connect(addr).unwrap();
    for s in exotic {
        // The literal goes through the lexer (char-boundary-safe), the
        // executor (byte equality), and the wire (length-delimited
        // UTF-8) — and must come back identical.
        let escaped = s.replace('\'', "''");
        match c
            .sql(&format!("SELECT grp FROM sales WHERE grp = '{escaped}'"))
            .unwrap()
        {
            SqlOutcome::Rows { rows, .. } => {
                assert_eq!(rows, vec![vec![Value::Str(s.to_string())]], "literal {s:?}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    // Non-ASCII outside a literal is the typed lexer error, over the
    // wire, with its stable code.
    let err = c.sql("SELECT café FROM sales").unwrap_err();
    assert!(
        matches!(err, EonError::Query(ref m) if m.contains("non-ASCII")),
        "{err}"
    );
    drop(c);
    assert_quiesced(&db, &handle);
}

#[test]
fn explain_and_analyze_ride_the_session() {
    let (db, handle) = serve(0, 0, 0);
    let addr = handle.addr();
    let mut c = EonClient::connect_opts(
        addr,
        &ClientOpts {
            bypass_cache: true,
            ..Default::default()
        },
    )
    .unwrap();
    match c.sql("EXPLAIN SELECT id FROM sales WHERE price > 10").unwrap() {
        // The plan that runs: the scan lists the one column it outputs.
        SqlOutcome::Text(text) => assert!(text.contains("Scan sales cols=["), "{text}"),
        other => panic!("unexpected outcome {other:?}"),
    }
    match c
        .sql("EXPLAIN ANALYZE SELECT grp, COUNT(*) AS n FROM sales GROUP BY grp ORDER BY grp")
        .unwrap()
    {
        SqlOutcome::RowsWithReport {
            columns,
            rows,
            report,
        } => {
            assert_eq!(columns, vec!["grp", "n"]);
            assert_eq!(rows.len(), 2);
            assert!(report.contains("Query Profile"), "{report}");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    match c.sql("\u{0}nonsense").unwrap_err() {
        EonError::Query(_) => {}
        e => panic!("expected Query error, got {e}"),
    }
    drop(c);
    assert_quiesced(&db, &handle);
}

/// Expression nesting is bounded in the parser: nested parentheses, a
/// `NOT` chain and a left-deep `+` chain 100 000 deep each come back over
/// the wire as a typed `QUERY` error — they used to overflow the session
/// thread's stack and abort the server — and 100 deep they still run.
#[test]
fn deeply_nested_statements_are_typed_errors_and_the_server_keeps_answering() {
    let (db, handle) = serve(0, 0, 0);
    let mut c = EonClient::connect(handle.addr()).unwrap();
    let shapes = |n: usize| {
        [
            format!("SELECT {}id{} FROM sales WHERE id = 7", "(".repeat(n), ")".repeat(n)),
            format!("SELECT id FROM sales WHERE {}id = 7", "NOT NOT ".repeat(n / 2)),
            format!("SELECT id{} FROM sales WHERE id = 7", " + 0".repeat(n)),
        ]
    };
    for sql in shapes(100_000) {
        match c.sql(&sql) {
            Err(EonError::Query(m)) => assert!(m.contains("nests deeper"), "{m}"),
            other => panic!("{}…: {other:?}", &sql[..30]),
        }
    }
    for sql in shapes(100) {
        match c.sql(&sql).unwrap() {
            SqlOutcome::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(7)]], "{}…", &sql[..30]),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    drop(c);
    assert_quiesced(&db, &handle);
}
