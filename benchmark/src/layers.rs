//! The traced run: every per-layer metric of one workload. It has
//! three parts. A window like the untraced run's, half as long, gives
//! the counts that need real concurrency (registry deltas per
//! operation, kernel time, generator health). A single-threaded replay
//! of the workload's first operations puts a span of the benchmark's
//! own around each public call into a layer, and hangs the spans the
//! program recorded itself (`QueryProfile`) below them. Isolated
//! unit-cost probes close it. End-to-end metrics never come from here.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use crate::check::Answer;
use crate::gen::{self, Workload};
use crate::run::{self, put, Metrics, Outcome, Prepared, Read, Tally, Window};
use crate::stats::{self, median, percentile};
use crate::sut::{self, Conn, Counters, ProfileSpan, Res};
use crate::trace::Tracer;

/// The replay stops at the workload's operation count or when its
/// share of the run is used up, but never before this many reads.
const MIN_REPLAY_READS: usize = 6;
/// `ingest_mix` replays one COPY per this many reads (40 + 200); the
/// read-only workloads replay their COPYs into a scratch table.
const READS_PER_COPY: usize = 5;
const REPLAY_COPIES: usize = 20;

pub fn per_layer(
    workload: Workload,
    seed: u64,
    warmup_s: f64,
    secs: f64,
) -> Res<(Outcome, Tracer)> {
    let p = run::prepare(workload, seed, 1)?;
    let w = run::window(&p, warmup_s, secs / 2.0)?;
    let mut m = Metrics::new();
    window_metrics(&w, &mut m);

    let mut tracer = Tracer::new();
    let mut replayed = Replay {
        p: &p,
        conn: p.sut.connect()?,
        copies: 0,
        copy_counters: Counters::new(),
        tally: Tally::default(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(secs / 2.0);
    replayed.run(&mut tracer, w.acked_rows, deadline)?;
    span_metrics(&tracer, &mut m);
    per_copy(&replayed.copy_counters, replayed.copies, &mut m);
    for (name, value) in p.sut.unit_costs()? {
        m.insert(name.to_string(), value);
    }

    let mut tally = w.tally;
    tally.merge(replayed.tally);
    let outcome = Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        first_error: tally.first_error,
        read_samples: tally.read_ms.len(),
        copy_samples: tally.copy_ms.len(),
    };
    Ok((outcome, tracer))
}

// ------------------------------------------------------ the concurrent part

fn window_metrics(w: &Window, m: &mut Metrics) {
    let reads = stats::sorted(w.tally.read_ms.clone());
    let ops = reads.len() as f64;
    put(m, "gen.ops", Some(w.tally.attempted as f64));
    put(m, "gen.samples", Some(ops + w.tally.copy_ms.len() as f64));
    put(m, "gen.p99_ms", percentile(&reads, 99.0));
    // A closed loop has no schedule to be late for.
    let lag = stats::sorted(w.tally.lag_ms.clone());
    put(
        m,
        "gen.sched_lag_p90_ms",
        Some(percentile(&lag, 90.0).unwrap_or(0.0)),
    );

    let (before, after) = &w.counters;
    let delta = |name: &str| Some(after.get(name)? - before.get(name).copied().unwrap_or(0.0));
    for (metric, counter) in [
        ("cache.hits_per_op", "cache.hits"),
        ("cache.misses_per_op", "cache.misses"),
        ("cache.evictions_per_op", "cache.evictions"),
        (
            "cache.singleflight_waits_per_op",
            "cache.singleflight_waits",
        ),
        ("storage.s3_gets_per_op", "storage.s3_gets"),
        ("storage.s3_lists_per_op", "storage.s3_lists"),
        ("storage.s3_selects_per_op", "storage.s3_selects"),
        ("storage.s3_bytes_read_per_op", "storage.s3_bytes_read"),
        ("storage.s3_cost_nusd_per_op", "storage.s3_cost_nusd"),
        ("columnar.blocks_pruned_per_op", "columnar.blocks_pruned"),
        (
            "columnar.blocks_late_skipped_per_op",
            "columnar.blocks_late_skipped",
        ),
        ("columnar.encoded_blocks_per_op", "columnar.encoded_blocks"),
        (
            "columnar.rows_short_circuited_per_op",
            "columnar.rows_short_circuited",
        ),
        ("core.pushdown_selects_per_op", "core.pushdown_selects"),
        ("core.pushdown_fallbacks_per_op", "core.pushdown_fallbacks"),
        (
            "cluster.slot_acquisitions_per_op",
            "cluster.slot_acquisitions",
        ),
    ] {
        put(m, metric, delta(counter).map(|d| d / ops));
    }
    let reads_seen = delta("cache.hits").zip(delta("cache.misses"));
    put(
        m,
        "cache.hit_ratio",
        reads_seen.map(|(h, miss)| h / (h + miss)),
    );
    put(
        m,
        "cluster.slot_wait_us",
        delta("cluster.slot_wait_us_sum")
            .zip(delta("cluster.slot_waits"))
            .map(|(s, n)| s / n),
    );
    put(m, "core.failovers", delta("core.failovers"));
    put(m, "storage.retries", delta("storage.retries"));
    for level in [
        "cache.used_bytes",
        "storage.stored_bytes",
        "obs.series_count",
    ] {
        put(m, level, after.get(level).copied());
    }

    // Mergeout runs on the loader's thread; without a loader it reads 0.
    let mergeouts = stats::sorted(w.tally.mergeout_ms.clone());
    put(
        m,
        "tm.mergeout_ms_p50",
        Some(percentile(&mergeouts, 50.0).unwrap_or(0.0)),
    );
    put(
        m,
        "tm.mergeout_ms_max",
        Some(mergeouts.last().copied().unwrap_or(0.0)),
    );
    put(m, "tm.mergeout_jobs", Some(w.tally.mergeout_jobs as f64));
    put(
        m,
        "tm.mergeout_rows",
        Some(delta("tm.mergeout_rows").unwrap_or(0.0)),
    );
    put(
        m,
        "tm.stall_share",
        Some(mergeouts.iter().fold(0.0, |a, b| a + b) / (w.secs * 1e3)),
    );

    let (u0, u1) = w.usage;
    put(
        m,
        "os.cpu_ms_per_op",
        Some((u1.cpu_s - u0.cpu_s) * 1e3 / ops),
    );
    put(
        m,
        "os.ctx_switches_per_op",
        Some((u1.ctx_switches - u0.ctx_switches) / ops),
    );
}

fn per_copy(counters: &Counters, copies: usize, m: &mut Metrics) {
    for (metric, counter) in [
        ("catalog.log_appends_per_copy", "catalog.log_appends"),
        ("storage.s3_puts_per_copy", "storage.s3_puts"),
    ] {
        if let Some(total) = counters.get(counter).filter(|_| copies > 0) {
            m.insert(metric.to_string(), total / copies as f64);
        }
    }
}

// ------------------------------------------------------------- the replay

struct Replay<'a> {
    p: &'a Prepared,
    conn: Conn,
    copies: usize,
    /// Registry deltas across the COPY calls alone.
    copy_counters: Counters,
    tally: Tally,
}

impl Replay<'_> {
    /// `acked` rows are in `events`: the replay's COPYs go on from
    /// where the window stopped, so the sums stay checkable.
    fn run(&mut self, t: &mut Tracer, acked: i64, deadline: Instant) -> Res<()> {
        let p = self.p;
        let ingest = p.workload == Workload::IngestMix;
        let acked = AtomicI64::new(acked);
        let mut reads = run::reads(p, 0, &acked);
        for n in 0..p.workload.replay_ops() {
            if n >= MIN_REPLAY_READS && Instant::now() >= deadline {
                break;
            }
            if ingest && n % READS_PER_COPY == 0 {
                let first_id = acked.load(Ordering::SeqCst);
                self.copy(t, "events", &gen::batch(p.seed, first_id, gen::BATCH_ROWS))?;
                acked.store(first_id + gen::BATCH_ROWS, Ordering::SeqCst);
                if (self.copies as u64).is_multiple_of(gen::MERGEOUT_EVERY) {
                    t.op("mergeout", |t| t.span("tm.mergeout", |_| p.sut.mergeout()))?;
                }
            }
            self.read(t, &reads.next().expect("the stream is endless"))?;
        }
        if !ingest {
            p.sut.create_events_table("copy_probe")?;
            for i in 0..REPLAY_COPIES as i64 {
                let rows = gen::batch(p.seed, i * gen::BATCH_ROWS, gen::BATCH_ROWS);
                self.copy(t, "copy_probe", &rows)?;
            }
        }
        Ok(())
    }

    /// One read, four ways: over the wire, in process, in its parts,
    /// and profiled. Every way must give the right answer.
    fn read(&mut self, t: &mut Tracer, read: &Read) -> Res<()> {
        let sql: &str = &read.sql;
        let (sut, conn) = (&self.p.sut, &mut self.conn);
        // Varies the solver's edge order as the session counter would.
        let session = self.tally.attempted;
        let mut wrong = 0;
        let mut check = |rows: &Answer| wrong += u64::from(!(read.right)(rows));
        t.op(read.kind, |t| -> Res<()> {
            t.span("net.ping", |_| conn.ping())?;
            check(&t.span("net.wire_op", |_| conn.sql(sql))?);
            let local = t.span("core.sql_query", |_| sut.sql_query(sql))?;
            check(&local.answer());

            t.span("net.request_codec", |_| sut::request_round_trip(sql))?;
            t.span("sql.parse", |_| sut::parse(sql))?;
            let plan = t.span("sql.compile", |_| sut.compile(sql))?;
            t.span("catalog.snapshot", |_| sut.snapshot())?;
            t.span("core.participation", |_| sut.participation())?;
            let problem = sut.assignment()?;
            t.span("shard.select_participants", |_| {
                sut.select_participants(&problem, session)
            })?;
            check(&t.span("core.query_plain", |_| sut.query_plain(&plan))?);
            let (query, profiled) = t.span_id("core.query", |_| sut.query_profiled(&plan));
            let (rows, spans) = profiled?;
            hang_query_profile(t, query, &spans);
            check(&rows);

            let frame = local.into_frame();
            let payload = t.span("net.response_encode", |_| frame.encode());
            t.span("net.response_decode", |_| sut::decode_response(&payload))?;
            t.count("net.response_bytes", payload.len() as f64);
            t.span("obs.snapshot", |_| sut.metrics_snapshot());
            Ok(())
        })?;
        self.tally.attempted += 4;
        for _ in 0..wrong {
            self.tally.fail(format!("wrong answer in replay: {sql}"));
        }
        Ok(())
    }

    fn copy(&mut self, t: &mut Tracer, table: &str, rows: &[gen::EventRow]) -> Res<()> {
        let sut = &self.p.sut;
        let before = sut.counters();
        t.op("copy", |t| -> Res<()> {
            let (copy, spans) = t.span_id("core.copy", |_| sut.copy_profiled(table, rows));
            hang_copy_profile(t, copy, &spans?);
            Ok(())
        })?;
        for (name, after) in sut.counters() {
            *self.copy_counters.entry(name).or_default() +=
                after - before.get(name).copied().unwrap_or(0.0);
        }
        self.copies += 1;
        self.tally.attempted += 1;
        Ok(())
    }
}

fn named<'a>(spans: &'a [ProfileSpan], name: &'a str) -> impl Iterator<Item = &'a ProfileSpan> {
    spans.iter().filter(move |s| s.name == name)
}

/// Place the profile's spans inside the `core.query` span they
/// belong to: admission first, then each node's slot wait, local phase and
/// the scans inside it (nodes run side by side), the merge last.
fn hang_query_profile(t: &mut Tracer, query: usize, spans: &[ProfileSpan]) {
    let of = |name| named(spans, name);
    let admission: f64 = of("core.admission_wait").map(|s| s.micros).sum();
    t.attach(query, "core.admission_wait", 0.0, admission);
    for phase in of("core.local_phase") {
        let waited: f64 = of("cluster.slot_wait")
            .filter(|s| s.node == phase.node)
            .map(|s| s.micros)
            .sum();
        t.attach(query, "cluster.slot_wait", admission, waited);
        let local = t.attach(query, "core.local_phase", admission + waited, phase.micros);
        let mut at = 0.0;
        for scan in of("core.scan_pipeline").filter(|s| s.node == phase.node) {
            t.attach(local, "core.scan_pipeline", at, scan.micros);
            at += scan.micros;
        }
    }
    let merge: f64 = of("exec.merge").map(|s| s.micros).sum();
    let length = t.get(query).micros();
    t.attach(query, "exec.merge", length - merge, merge);
}

/// The load pipeline ends when the COPY does; upload comes first in
/// it and the commit last.
fn hang_copy_profile(t: &mut Tracer, copy: usize, spans: &[ProfileSpan]) {
    let of = |name| named(spans, name).map(|s| s.micros).sum::<f64>();
    let (pipeline, upload, commit) = (
        of("core.load_pipeline"),
        of("core.load_upload"),
        of("catalog.commit"),
    );
    let length = t.get(copy).micros();
    let pipe = t.attach(copy, "core.load_pipeline", length - pipeline, pipeline);
    let pipe_length = t.get(pipe).micros();
    t.attach(
        pipe,
        "core.load_upload",
        pipe_length - commit - upload,
        upload,
    );
    t.attach(pipe, "catalog.commit", pipe_length - commit, commit);
}

// ------------------------------------------------------- spans to metrics

fn span_metrics(t: &Tracer, m: &mut Metrics) {
    let mid = |span: &str| median(&t.micros_of(span));
    for (metric, span) in [
        ("net.ping_rtt_us", "net.ping"),
        ("net.request_codec_us", "net.request_codec"),
        ("net.response_encode_us", "net.response_encode"),
        ("net.response_decode_us", "net.response_decode"),
        ("sql.parse_us", "sql.parse"),
        ("sql.compile_us", "sql.compile"),
        ("catalog.snapshot_us", "catalog.snapshot"),
        ("catalog.commit_us", "catalog.commit"),
        ("shard.select_participants_us", "shard.select_participants"),
        ("core.sql_query_us", "core.sql_query"),
        ("core.participation_us", "core.participation"),
        ("core.admission_wait_us", "core.admission_wait"),
        ("core.load_pipeline_us", "core.load_pipeline"),
        ("core.load_upload_us", "core.load_upload"),
        ("exec.merge_us", "exec.merge"),
        ("obs.snapshot_us", "obs.snapshot"),
    ] {
        put(m, metric, mid(span));
    }

    // Per operation: the wire's extra over the in-process call, the
    // slowest node (which the query waits for), and the coordinator's
    // own time.
    let mut overhead = Vec::new();
    let mut slowest = Vec::new();
    let mut slowest_scans = Vec::new();
    let mut slowest_other = Vec::new();
    let mut coordinator = Vec::new();
    for op in t.spans().chunk_by(|a, b| a.op == b.op) {
        let one = |name: &str| op.iter().find(|s| s.name == name);
        if let Some((wire, local)) = one("net.wire_op").zip(one("core.sql_query")) {
            overhead.push(wire.micros() - local.micros());
        }
        if let Some(query) = one("core.query") {
            coordinator.push(t.self_micros(query.id));
        }
        let phases = op.iter().filter(|s| s.name == "core.local_phase");
        if let Some(phase) = phases.max_by(|a, b| a.micros().total_cmp(&b.micros())) {
            let own = t.self_micros(phase.id);
            slowest.push(phase.micros());
            slowest_other.push(own);
            slowest_scans.push(phase.micros() - own);
        }
    }
    put(
        m,
        "net.response_bytes",
        median(&t.counts_of("net.response_bytes")),
    );
    put(m, "net.wire_overhead_us", median(&overhead));
    put(m, "core.local_phase_max_us", median(&slowest));
    put(m, "core.scan_pipeline_us", median(&slowest_scans));
    put(m, "exec.local_ops_us", median(&slowest_other));
    put(m, "core.coordinator_other_us", median(&coordinator));

    let plain = mid("core.query_plain");
    put(
        m,
        "trace.overhead_pct",
        mid("core.query")
            .zip(plain)
            .map(|(traced, plain)| 100.0 * (traced - plain) / plain),
    );
    let parts = [
        "net.request_codec",
        "net.response_encode",
        "net.response_decode",
        "sql.compile",
        "catalog.snapshot",
        "core.query_plain",
    ];
    let named: Option<f64> = parts.iter().map(|s| mid(s)).sum();
    put(
        m,
        "trace.unattributed_pct",
        mid("net.wire_op")
            .zip(named)
            .map(|(wire, named)| 100.0 * (wire - named) / wire),
    );
}
