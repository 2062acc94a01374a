//! One run: set-up, warm-up, the measured window, the checks after
//! it, and the end-to-end metrics. At most two generator threads ever
//! drive the program (the host has two cores); the main thread only
//! sleeps and reads counters at the window's edges.

use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use crate::check::{same_answer, same_regions, Answer};
use crate::gen::{self, OpStream, Query, ReadStream, Workload};
use crate::os::{self, Usage};
use crate::stats::{self, percentile};
use crate::sut::{Counters, Dataset, Oracle, Res, Sut};

/// Warm-up before every window: fills the depot and the lazy paths,
/// and on `ingest_mix` gets a first mergeout behind the loader.
pub const WARMUP_S: f64 = 3.0;
/// Untraced runs set up this many times and report the median.
pub const SETUPS: usize = 5;
/// Connections of a closed loop.
pub const CONNECTIONS: usize = 2;

pub type Metrics = std::collections::BTreeMap<String, f64>;

/// Record a metric that could be computed; one that could not stays
/// absent and is reported as missing.
pub fn put(metrics: &mut Metrics, name: &str, value: Option<f64>) {
    if let Some(v) = value.filter(|v| v.is_finite()) {
        metrics.insert(name.to_string(), v);
    }
}

/// A cluster ready to serve, and what its answers must be.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub sut: Sut,
    pub queries: Vec<Query>,
    /// Per query, the answer `eon-enterprise` gives on the same rows.
    pub expected: Vec<Answer>,
    pub setup_s: Vec<f64>,
    /// Idle-COPY probe blocks taken on the clusters set-up discarded.
    pub probe_ms: Vec<Vec<f64>>,
}

/// Set up `setups` times (each one: build the cluster, COPY the data
/// in, start the server, open and ping the connections), keep the last
/// cluster, then record the reference answers outside the timing. The
/// read-only workloads probe COPY on every cluster but the last, which
/// the window needs as set-up left it.
pub fn prepare(workload: Workload, seed: u64, setups: usize) -> Res<Prepared> {
    let data = Dataset::generate(workload, seed);
    let cache = (workload == Workload::ScanCold).then_some(gen::COLD_CACHE_BYTES);
    let mut setup_s = Vec::with_capacity(setups);
    let mut probe_ms = Vec::new();
    let mut sut: Option<Sut> = None;
    for _ in 0..setups {
        if let Some(discarded) = sut.take().filter(|_| workload != Workload::IngestMix) {
            probe_ms.push(copy_probe(&discarded, seed)?);
        }
        let started = Instant::now();
        let built = Sut::start(&data, cache)?;
        for _ in 0..CONNECTIONS {
            built.connect()?.ping()?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        sut = Some(built);
    }
    let queries = gen::queries(workload, seed);
    let expected = if queries.is_empty() {
        Vec::new()
    } else {
        let oracle = Oracle::load(&data)?;
        queries
            .iter()
            .map(|q| oracle.answer(&q.sql))
            .collect::<Res<_>>()?
    };
    let sut = sut.ok_or("at least one set-up")?;
    let (depot, held) = sut.depot_and_node_bytes()?;
    eprintln!(
        "{}: {} rows loaded; depot {depot} bytes per node; nodes hold {held:?} bytes",
        workload.name(),
        data.rows()
    );
    Ok(Prepared {
        workload,
        seed,
        sut,
        queries,
        expected,
        setup_s,
        probe_ms,
    })
}

/// What the generator saw in one window.
#[derive(Default)]
pub struct Tally {
    /// Send → rows decoded, per correct read that began and ended
    /// inside the window.
    pub read_ms: Vec<f64>,
    /// Due time → acknowledged, per COPY due inside the window.
    pub copy_ms: Vec<f64>,
    /// How late the loader started each of those COPYs.
    pub lag_ms: Vec<f64>,
    pub mergeout_ms: Vec<f64>,
    pub mergeout_jobs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    pub fn merge(&mut self, other: Tally) {
        self.read_ms.extend(other.read_ms);
        self.copy_ms.extend(other.copy_ms);
        self.lag_ms.extend(other.lag_ms);
        self.mergeout_ms.extend(other.mergeout_ms);
        self.mergeout_jobs += other.mergeout_jobs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

pub struct Window {
    pub tally: Tally,
    pub secs: f64,
    /// Registry and kernel readings at the window's two edges.
    pub counters: (Counters, Counters),
    pub usage: (Usage, Usage),
    /// Rows acknowledged to the loader by the end of the run.
    pub acked_rows: i64,
}

struct Clock {
    warm_end: Instant,
    end: Instant,
}

impl Clock {
    /// An operation counts when it began after warm-up and ended
    /// before the window did.
    fn counts(&self, began: Instant, ended: Instant) -> bool {
        began >= self.warm_end && ended <= self.end
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One read of a closed loop, and how to tell its answer is right.
pub struct Read<'a> {
    pub kind: &'static str,
    pub sql: Cow<'a, str>,
    pub right: Box<dyn Fn(&Answer) -> bool + 'a>,
}

/// The workload's endless stream of reads for one connection. An
/// `ingest_mix` read is anchored to `acked` when it is drawn, which is
/// just before it is sent.
pub fn reads<'a>(
    p: &'a Prepared,
    connection: usize,
    acked: &'a AtomicI64,
) -> Box<dyn Iterator<Item = Read<'a>> + 'a> {
    if p.workload == Workload::IngestMix {
        Box::new(ReadStream::new(p.seed).map(move |shape| {
            let (lo, hi) = shape.window(acked.load(Ordering::SeqCst));
            let query = gen::ingest_read(lo, hi);
            Read {
                kind: query.kind,
                sql: Cow::Owned(query.sql),
                right: Box::new(move |rows| same_regions(rows, &gen::region_sums(p.seed, lo, hi))),
            }
        }))
    } else {
        Box::new(
            OpStream::new(p.workload, p.seed, connection).map(move |i| Read {
                kind: p.queries[i].kind,
                sql: Cow::Borrowed(p.queries[i].sql.as_str()),
                right: Box::new(move |rows| same_answer(rows, &p.expected[i])),
            }),
        )
    }
}

/// A closed loop: the next read goes out when the last one is answered.
fn closed_loop(p: &Prepared, connection: usize, clock: &Clock, acked: &AtomicI64) -> Res<Tally> {
    let mut conn = p.sut.connect()?;
    let mut tally = Tally::default();
    for read in reads(p, connection, acked) {
        let began = Instant::now();
        if began >= clock.end {
            break;
        }
        let got = conn.sql(&read.sql);
        let ended = Instant::now();
        if !clock.counts(began, ended) {
            continue;
        }
        tally.attempted += 1;
        match got {
            Ok(rows) if (read.right)(&rows) => tally.read_ms.push(ms(ended - began)),
            Ok(_) => tally.fail(format!("wrong answer: {}", read.sql)),
            Err(e) => tally.fail(e),
        }
    }
    Ok(tally)
}

/// Open loop: batch `i` is due `i` periods after the origin whatever
/// happened to the batches before it, and is timed from then.
fn loader(p: &Prepared, origin: Instant, clock: &Clock, acked: &AtomicI64) -> Tally {
    let mut tally = Tally::default();
    for i in 0u64.. {
        let due = origin + Duration::from_secs_f64(stats::due_at(i, gen::BATCH_PERIOD_S));
        if due >= clock.end {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let began = Instant::now();
        let late_s = stats::lateness(
            stats::due_at(i, gen::BATCH_PERIOD_S),
            (began - origin).as_secs_f64(),
        );
        let first_id = acked.load(Ordering::SeqCst);
        let rows = gen::batch(p.seed, first_id, gen::BATCH_ROWS);
        let result = p.sut.copy_events("events", &rows);
        let ended = Instant::now();
        if result.is_ok() {
            acked.store(first_id + gen::BATCH_ROWS, Ordering::SeqCst);
        }
        if due >= clock.warm_end && ended <= clock.end {
            tally.attempted += 1;
            match result {
                Ok(_) => {
                    tally.copy_ms.push(ms(ended - due));
                    tally.lag_ms.push(late_s * 1e3);
                }
                Err(e) => tally.fail(e),
            }
        }
        if (i + 1) % gen::MERGEOUT_EVERY == 0 {
            let began = Instant::now();
            let jobs = p.sut.mergeout();
            if began >= clock.warm_end {
                tally.mergeout_ms.push(ms(began.elapsed()));
                match jobs {
                    Ok(n) => tally.mergeout_jobs += n as u64,
                    Err(e) => tally.fail(e),
                }
            }
        }
    }
    tally
}

/// Warm up for `warmup_s`, then measure for `secs`.
pub fn window(p: &Prepared, warmup_s: f64, secs: f64) -> Res<Window> {
    let origin = Instant::now();
    let warm_end = origin + Duration::from_secs_f64(warmup_s);
    let clock = Clock {
        warm_end,
        end: warm_end + Duration::from_secs_f64(secs),
    };
    let acked = AtomicI64::new(gen::INGEST_INITIAL_ROWS);
    let edge = |at: Instant| {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        (p.sut.counters(), os::usage())
    };
    std::thread::scope(|scope| {
        let (clock, acked) = (&clock, &acked);
        let threads = if p.workload == Workload::IngestMix {
            vec![
                scope.spawn(move || Ok::<_, String>(loader(p, origin, clock, acked))),
                scope.spawn(move || closed_loop(p, 0, clock, acked)),
            ]
        } else {
            (0..CONNECTIONS)
                .map(|c| scope.spawn(move || closed_loop(p, c, clock, acked)))
                .collect()
        };
        let (counters_a, usage_a) = edge(clock.warm_end);
        let (counters_b, usage_b) = edge(clock.end);
        let mut tally = Tally::default();
        for t in threads {
            tally.merge(t.join().map_err(|_| "a generator thread panicked")??);
        }
        Ok(Window {
            tally,
            secs,
            counters: (counters_a, counters_b),
            usage: (usage_a, usage_b),
            acked_rows: acked.load(Ordering::SeqCst),
        })
    })
}

/// One block of COPYs into a scratch table on an otherwise idle
/// cluster: what the three read-only workloads report as `copy_*`.
/// A block lasts 0.2 s and the host stalls for longer than that, so a
/// run takes one block per set-up, seconds apart, and reports the
/// median block (README).
fn copy_probe(sut: &Sut, seed: u64) -> Res<Vec<f64>> {
    sut.create_events_table("copy_probe")?;
    (0..gen::COPY_PROBE_BATCHES)
        .map(|i| {
            let rows = gen::batch(seed, i * gen::BATCH_ROWS, gen::BATCH_ROWS);
            let began = Instant::now();
            sut.copy_events("copy_probe", &rows)?;
            Ok(ms(began.elapsed()))
        })
        .collect()
}

/// The median over blocks of each block's `p`-th percentile.
fn block_percentile(blocks: &[Vec<f64>], p: f64) -> Option<f64> {
    let per_block = blocks
        .iter()
        .map(|b| percentile(&stats::sorted(b.clone()), p));
    stats::median(&per_block.collect::<Option<Vec<_>>>()?)
}

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Sample counts behind the percentiles, for the report.
    pub read_samples: usize,
    pub copy_samples: usize,
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(workload: Workload, seed: u64, warmup_s: f64, secs: f64) -> Res<Outcome> {
    let mut p = prepare(workload, seed, SETUPS)?;
    let w = window(&p, warmup_s, secs)?;
    let mut tally = w.tally;

    let (stored_bytes, stored_rows) = p.sut.stored()?;
    let copy_blocks = if workload == Workload::IngestMix {
        // Durability: every acknowledged row survives a restart of all
        // nodes from their own logs.
        tally.attempted += 1;
        match p.sut.restart_and_count_events() {
            Ok(n) if n == w.acked_rows => {}
            Ok(n) => tally.fail(format!(
                "{n} events after restart, {} acknowledged",
                w.acked_rows
            )),
            Err(e) => tally.fail(e),
        }
        vec![std::mem::take(&mut tally.copy_ms)]
    } else {
        p.probe_ms.push(copy_probe(&p.sut, seed)?);
        std::mem::take(&mut p.probe_ms)
    };

    let reads = stats::sorted(std::mem::take(&mut tally.read_ms));
    let mut metrics = Metrics::new();
    put(&mut metrics, "setup_s", stats::median(&p.setup_s));
    put(&mut metrics, "qps", Some(reads.len() as f64 / w.secs));
    put(&mut metrics, "p50_ms", percentile(&reads, 50.0));
    put(&mut metrics, "p90_ms", percentile(&reads, 90.0));
    put(
        &mut metrics,
        "copy_p50_ms",
        block_percentile(&copy_blocks, 50.0),
    );
    put(
        &mut metrics,
        "copy_p90_ms",
        block_percentile(&copy_blocks, 90.0),
    );
    put(&mut metrics, "rss_peak_mb", Some(os::usage().rss_peak_mb));
    put(
        &mut metrics,
        "stored_bytes_per_row",
        Some(stored_bytes as f64 / stored_rows as f64),
    );
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        first_error: tally.first_error,
        read_samples: reads.len(),
        copy_samples: copy_blocks.iter().map(Vec::len).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stalled_block_does_not_move_the_probe() {
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let stalled: Vec<f64> = calm.iter().map(|v| v * 3.0).collect();
        let blocks = vec![calm.clone(), stalled, calm.clone()];
        assert_eq!(block_percentile(&blocks, 50.0), Some(5.0));
        assert_eq!(block_percentile(&blocks, 90.0), Some(9.0));
        // The in-window COPYs of `ingest_mix` are one block.
        assert_eq!(block_percentile(&[calm], 90.0), Some(9.0));
        assert_eq!(block_percentile(&[], 50.0), None);
        assert_eq!(block_percentile(&[vec![]], 50.0), None);
    }
}
