//! A simulated Amazon S3 (substitution for the paper's real S3 backend;
//! see DESIGN.md §1).
//!
//! Models the properties §5 says matter:
//!
//! * **Latency** — every request pays a time-to-first-byte, and
//!   transfers pay a bandwidth cost per stream; both are injected as
//!   real (but scaled-down) sleeps so concurrency behaves like it would
//!   against a remote service. A batch of ranged GETs
//!   ([`FileSystem::read_ranges`]) is concurrent requests, as an
//!   event-loop client sends them: it costs one first byte plus its
//!   longest transfer, slept once on the calling thread, while each
//!   request in it is billed, counted, traced and fault-rolled alone.
//! * **Cost** — GET/PUT/LIST/DELETE requests accumulate nano-dollar
//!   charges using the S3 price card shape (PUT/LIST ≫ GET).
//! * **Fallibility** — "any filesystem access can (and will) fail":
//!   a seeded RNG injects transient `Storage` errors and `Throttled`
//!   responses at configurable rates; callers reach it through the
//!   §5.3 retry loop ([`crate::RetryFs`]).
//! * **API shape** — whole-object writes, no rename/append, list by
//!   prefix, idempotent delete. Objects are immutable once written in
//!   the sense Vertica relies on: the engine never overwrites, and the
//!   simulator can be configured to reject overwrites to verify that.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use eon_obs::{Counter, Registry};
use eon_types::{EonError, Result};
use parking_lot::Mutex;

use crate::fs::{FileSystem, FsStats};
use crate::mem::MemFs;

/// Tuning knobs for the simulator.
#[derive(Debug, Clone)]
pub struct S3Config {
    /// Time-to-first-byte charged to every request.
    pub request_latency: Duration,
    /// Modelled transfer bandwidth in bytes per microsecond
    /// (e.g. 100 = 100 MB/s). 0 disables the bandwidth charge.
    pub bytes_per_micro: u64,
    /// Probability a request fails with a transient `Storage` error.
    pub fail_rate: f64,
    /// Probability a request is throttled (`EonError::Throttled`).
    pub throttle_rate: f64,
    /// Probability a PUT or DELETE is **applied but reports an error**
    /// — the response is lost in flight, so the caller cannot tell a
    /// failed request from a successful one (the ambiguous outcome the
    /// §5.3 idempotent-retry assumption exists for). The error is
    /// transient, so retry loops re-issue the request; correctness then
    /// rests on PUT-same-bytes and DELETE being idempotent.
    pub ambiguous_rate: f64,
    /// Reject PUTs to keys that already exist. Vertica never overwrites
    /// data files (§5.2), so enabling this in tests catches bugs; it is
    /// off by default because `cluster_info` (§3.5) *is* replaced.
    pub reject_overwrite: bool,
    /// RNG seed for failure injection, making runs reproducible.
    pub seed: u64,
    /// Nano-dollar price per GET request.
    pub get_price: u64,
    /// Nano-dollar price per PUT request.
    pub put_price: u64,
    /// Nano-dollar price per LIST request.
    pub list_price: u64,
}

impl Default for S3Config {
    fn default() -> Self {
        S3Config {
            // Scaled-down S3: real S3 TTFB is ~10-50ms; we charge 2ms so
            // figure-reproduction runs finish quickly while keeping the
            // local-vs-remote gap that drives Fig 10's "Eon on S3" bars.
            request_latency: Duration::from_micros(2000),
            bytes_per_micro: 100, // ~100 MB/s per stream
            fail_rate: 0.0,
            throttle_rate: 0.0,
            ambiguous_rate: 0.0,
            reject_overwrite: false,
            seed: 0x5e_ed,
            // S3 price card shape: GET $0.4/1M, PUT+LIST $5/1M.
            get_price: 400,
            put_price: 5_000,
            list_price: 5_000,
        }
    }
}

impl S3Config {
    /// A configuration with zero injected latency, for unit tests of
    /// higher layers that don't measure time.
    pub fn instant() -> Self {
        S3Config {
            request_latency: Duration::ZERO,
            bytes_per_micro: 0,
            ..Default::default()
        }
    }

    /// Instant but with the given failure/throttle rates.
    pub fn flaky(fail_rate: f64, throttle_rate: f64, seed: u64) -> Self {
        S3Config {
            fail_rate,
            throttle_rate,
            seed,
            ..Self::instant()
        }
    }

    /// Instant but with the given ambiguous-outcome rate: PUT/DELETE
    /// apply, then report a (transient) error.
    pub fn ambiguous(ambiguous_rate: f64, seed: u64) -> Self {
        S3Config {
            ambiguous_rate,
            seed,
            ..Self::instant()
        }
    }
}

/// Whether `EON_S3_TRACE` asks for a per-request log on stderr. Read
/// once: the environment lookup takes a process-wide lock and
/// allocates, and `request` runs on every simulated request.
fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("EON_S3_TRACE").is_some())
}

/// splitmix64 finalizer — turns a hash into well-mixed dice bits.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Registry handles for the simulator (DESIGN.md "Observability").
/// Always present; [`S3SimFs::new`] wires a private registry,
/// [`S3SimFs::with_metrics`] the shared one.
#[derive(Clone)]
struct S3Metrics {
    get: Arc<Counter>,
    put: Arc<Counter>,
    list: Arc<Counter>,
    delete: Arc<Counter>,
    cost: Arc<Counter>,
    fail: Arc<Counter>,
    throttle: Arc<Counter>,
    ambiguous: Arc<Counter>,
    brownout: Arc<Counter>,
}

impl S3Metrics {
    fn register(registry: &Registry) -> Self {
        let verb = |v| registry.counter("s3_requests_total", &[("subsystem", "s3"), ("verb", v)]);
        let kind =
            |k| registry.counter("s3_faults_injected_total", &[("subsystem", "s3"), ("kind", k)]);
        S3Metrics {
            get: verb("get"),
            put: verb("put"),
            list: verb("list"),
            delete: verb("delete"),
            cost: registry.counter("s3_cost_nanodollars_total", &[("subsystem", "s3")]),
            fail: kind("fail"),
            throttle: kind("throttle"),
            ambiguous: kind("ambiguous"),
            brownout: kind("brownout"),
        }
    }

    fn verb(&self, verb: &'static str) -> &Counter {
        match verb {
            "get" => &self.get,
            "put" => &self.put,
            "delete" => &self.delete,
            _ => &self.list,
        }
    }
}

/// The simulated object store. Internally delegates storage to
/// [`MemFs`]; this type adds the latency/cost/failure model.
///
/// Fault injection is **keyed-hash dice**, not a shared sequential RNG:
/// each roll is a pure function of (seed, verb, path, per-key attempt
/// number), so the multiset of injected faults does not depend on how
/// parallel workers interleave their requests. That is what makes
/// same-seed metric totals byte-identical across runs (the chaos
/// determinism tests rely on it).
pub struct S3SimFs {
    store: MemFs,
    config: S3Config,
    /// Per-(verb, path) request sequence numbers feeding the dice.
    attempts: Mutex<HashMap<(&'static str, String), u64>>,
    cost: Mutex<u64>,
    metrics: S3Metrics,
    /// Brownout switch (DESIGN.md "Failure detection & degraded
    /// modes"): while set, **every** request fails with a transient
    /// `Storage` error after paying its latency — the store is
    /// reachable but serving nothing, the §5.3 scenario the circuit
    /// breaker and depot-only read mode exist for.
    brownout: AtomicBool,
}

impl S3SimFs {
    pub fn new(config: S3Config) -> Self {
        Self::with_metrics(config, &Registry::new())
    }

    /// A simulator whose request/cost/fault counters land in `registry`.
    pub fn with_metrics(config: S3Config, registry: &Registry) -> Self {
        S3SimFs {
            store: MemFs::new(),
            config,
            attempts: Mutex::new(HashMap::new()),
            cost: Mutex::new(0),
            metrics: S3Metrics::register(registry),
            brownout: AtomicBool::new(false),
        }
    }

    pub fn with_defaults() -> Self {
        Self::new(S3Config::default())
    }

    pub fn config(&self) -> &S3Config {
        &self.config
    }

    /// Toggle a simulated brownout: while on, every request fails with
    /// a transient `Storage` error (after paying its latency charge).
    pub fn set_brownout(&self, on: bool) {
        self.brownout.store(on, Ordering::SeqCst);
    }

    pub fn brownout(&self) -> bool {
        self.brownout.load(Ordering::SeqCst)
    }

    /// Uniform [0, 1) roll keyed by (seed, salt, verb, path, attempt).
    fn unit_roll(&self, verb: &'static str, path: &str, attempt: u64, salt: u64) -> f64 {
        let mut h = DefaultHasher::new();
        (self.config.seed, salt, verb, path, attempt).hash(&mut h);
        let bits = mix64(h.finish());
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_attempt(&self, verb: &'static str, path: &str) -> u64 {
        let mut g = self.attempts.lock();
        let n = g.entry((verb, path.to_string())).or_insert(0);
        let attempt = *n;
        *n += 1;
        attempt
    }

    /// One request: [`wait`](Self::wait) out its latency, then
    /// [`charge`](Self::charge) it.
    fn request(&self, verb: &'static str, path: &str, transfer: usize, price: u64) -> Result<u64> {
        self.wait(transfer);
        self.charge(verb, path, transfer, price)
    }

    /// Sleep the per-request latency plus a bandwidth charge for
    /// `transfer` bytes: the time until a request's last byte arrives.
    fn wait(&self, transfer: usize) {
        let mut delay = self.config.request_latency;
        if let Some(per_byte) = (transfer as u64).checked_div(self.config.bytes_per_micro) {
            delay += Duration::from_micros(per_byte);
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Bill, count and trace one request, then roll the failure dice.
    /// Returns this request's attempt number for the ambiguous-outcome
    /// roll.
    fn charge(&self, verb: &'static str, path: &str, transfer: usize, price: u64) -> Result<u64> {
        if trace_enabled() {
            eprintln!("s3 {verb} {path} ({transfer}B)");
        }
        *self.cost.lock() += price;
        self.metrics.verb(verb).inc();
        self.metrics.cost.add(price);
        if self.brownout.load(Ordering::SeqCst) {
            self.metrics.brownout.inc();
            return Err(EonError::Storage(format!("simulated S3 brownout: {verb} {path}")));
        }
        let attempt = self.next_attempt(verb, path);
        let roll = self.unit_roll(verb, path, attempt, 0);
        if roll < self.config.throttle_rate {
            self.metrics.throttle.inc();
            return Err(EonError::Throttled);
        }
        if roll < self.config.throttle_rate + self.config.fail_rate {
            self.metrics.fail.inc();
            return Err(EonError::Storage("simulated S3 internal error".into()));
        }
        Ok(attempt)
    }

    /// Roll the ambiguous-outcome dice *after* a mutation has been
    /// applied: true means "eat the response" — the caller sees a
    /// transient error even though the store changed.
    fn ambiguous_roll(&self, verb: &'static str, path: &str, attempt: u64) -> bool {
        if self.config.ambiguous_rate <= 0.0 {
            return false;
        }
        let fired = self.unit_roll(verb, path, attempt, 1) < self.config.ambiguous_rate;
        if fired {
            self.metrics.ambiguous.inc();
        }
        fired
    }
}

impl FileSystem for S3SimFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        let attempt = self.request("put", path, data.len(), self.config.put_price)?;
        if self.config.reject_overwrite && self.store.exists(path)? {
            // An identical re-PUT is the idempotent retry of an
            // ambiguous outcome, not an overwrite — only *different*
            // bytes violate immutability (§5.2). Terminal
            // (`PreconditionFailed`): retrying an invariant violation
            // can never succeed, so it must not burn backoff budget or
            // trip the circuit breaker.
            if self.store.read(path)? != data {
                return Err(EonError::PreconditionFailed(format!(
                    "overwrite of immutable object {path}"
                )));
            }
        }
        self.store.write(path, data)?;
        if self.ambiguous_roll("put", path, attempt) {
            return Err(EonError::Storage(format!(
                "ambiguous outcome: PUT {path} applied but response lost"
            )));
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        // Probe the size first (O(log n) on the backing MemFs, not a
        // keyspace scan) so the bandwidth charge reflects the transfer;
        // a miss still pays the request latency.
        let transfer = self.store.size(path).unwrap_or(0) as usize;
        self.request("get", path, transfer, self.config.get_price)?;
        self.store.read(path)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.request("get", path, len as usize, self.config.get_price)?;
        // Delegate to the store's ranged read so `FsStats` bills the
        // range served, not the whole object.
        self.store.read_range(path, offset, len)
    }

    /// A batch is concurrent GETs, as an event-loop client sends them:
    /// it completes after one first byte plus its longest transfer — one
    /// sleep on the calling thread — and each range is billed, counted,
    /// traced and fault-rolled on its own.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        let Some(longest) = ranges.iter().map(|&(_, len)| len).max() else {
            return Vec::new();
        };
        self.wait(longest as usize);
        let get = |&(offset, len): &(u64, u64)| {
            self.charge("get", path, len as usize, self.config.get_price)?;
            self.store.read_range(path, offset, len)
        };
        ranges.iter().map(get).collect()
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.request("list", path, 0, self.config.list_price)?;
        self.store.size(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.request("list", prefix, 0, self.config.list_price)?;
        self.store.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        let attempt = self.request("delete", path, 0, self.config.put_price)?;
        self.store.delete(path)?;
        if self.ambiguous_roll("delete", path, attempt) {
            return Err(EonError::Storage(format!(
                "ambiguous outcome: DELETE {path} applied but response lost"
            )));
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.request("list", path, 0, self.config.list_price)?;
        self.store.exists(path)
    }

    fn stats(&self) -> FsStats {
        let mut s = self.store.stats();
        s.cost_nanodollars = *self.cost.lock();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant() -> S3SimFs {
        S3SimFs::new(S3Config::instant())
    }

    #[test]
    fn behaves_like_object_store() {
        let fs = instant();
        fs.write("bucket/key", Bytes::from_static(b"v")).unwrap();
        assert_eq!(fs.read("bucket/key").unwrap().as_ref(), b"v");
        assert_eq!(fs.list("bucket/").unwrap(), vec!["bucket/key"]);
        fs.delete("bucket/key").unwrap();
        assert!(matches!(fs.read("bucket/key"), Err(EonError::NotFound(_))));
    }

    #[test]
    fn accumulates_cost() {
        let fs = instant();
        fs.write("k", Bytes::from_static(b"abc")).unwrap(); // 5000
        fs.read("k").unwrap(); // 400
        fs.list("").unwrap(); // 5000
        let s = fs.stats();
        assert_eq!(s.cost_nanodollars, 10_400);
    }

    #[test]
    fn injects_failures_at_configured_rate() {
        let fs = S3SimFs::new(S3Config::flaky(0.5, 0.0, 42));
        let mut failures = 0;
        for i in 0..200 {
            if fs.write(&format!("k{i}"), Bytes::new()).is_err() {
                failures += 1;
            }
        }
        // 50% ± generous tolerance
        assert!((60..=140).contains(&failures), "failures={failures}");
    }

    #[test]
    fn throttle_is_distinguishable() {
        let fs = S3SimFs::new(S3Config::flaky(0.0, 1.0, 7));
        assert!(matches!(fs.read("x"), Err(EonError::Throttled)));
    }

    #[test]
    fn failure_injection_is_reproducible() {
        let run = || {
            let fs = S3SimFs::new(S3Config::flaky(0.3, 0.1, 99));
            (0..100)
                .map(|i| fs.write(&format!("k{i}"), Bytes::new()).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reject_overwrite_mode() {
        let fs = S3SimFs::new(S3Config {
            reject_overwrite: true,
            ..S3Config::instant()
        });
        fs.write("immutable", Bytes::from_static(b"a")).unwrap();
        // Terminal, not transient: an invariant violation must surface
        // immediately instead of burning retry budget.
        let err = fs.write("immutable", Bytes::from_static(b"b")).unwrap_err();
        assert!(matches!(err, EonError::PreconditionFailed(_)), "{err}");
        assert!(!err.is_transient());
        // Original data untouched.
        assert_eq!(fs.read("immutable").unwrap().as_ref(), b"a");
    }

    #[test]
    fn brownout_fails_everything_transiently_until_cleared() {
        let fs = instant();
        fs.write("pre", Bytes::from_static(b"v")).unwrap();
        fs.set_brownout(true);
        for outcome in [
            fs.write("k", Bytes::from_static(b"x")).err(),
            fs.read("pre").err(),
            fs.list("").err(),
            fs.delete("pre").err(),
            fs.exists("pre").err(),
        ] {
            let e = outcome.expect("brownout must fail every request");
            assert!(e.is_transient(), "brownout errors are retryable: {e}");
        }
        fs.set_brownout(false);
        // Nothing was applied during the brownout; service resumes.
        assert_eq!(fs.read("pre").unwrap().as_ref(), b"v");
        assert!(!fs.exists("k").unwrap());
    }

    #[test]
    fn ambiguous_put_applies_and_retry_is_idempotent() {
        // Force every mutation to report an ambiguous error.
        let fs = S3SimFs::new(S3Config {
            reject_overwrite: true, // must coexist with immutability checks
            ..S3Config::ambiguous(1.0, 11)
        });
        let err = fs.write("obj", Bytes::from_static(b"payload")).unwrap_err();
        assert!(err.is_transient(), "ambiguous outcomes must be retryable");
        // Applied despite the error:
        assert_eq!(fs.read("obj").unwrap().as_ref(), b"payload");
        // The §5.3 retry: same bytes again. Not an overwrite violation,
        // no duplicate, no corruption — at worst another ambiguous error.
        for _ in 0..3 {
            let _ = fs.write("obj", Bytes::from_static(b"payload"));
        }
        assert_eq!(fs.read("obj").unwrap().as_ref(), b"payload");
        assert_eq!(fs.list("obj").unwrap(), vec!["obj"]);
        // Different bytes are still rejected as an overwrite.
        assert!(fs.write("obj", Bytes::from_static(b"other")).is_err());
        assert_eq!(fs.read("obj").unwrap().as_ref(), b"payload");
    }

    #[test]
    fn ambiguous_delete_applies_and_retry_is_idempotent() {
        let fs = S3SimFs::new(S3Config::ambiguous(1.0, 12));
        let _ = fs.write("victim", Bytes::from_static(b"x"));
        let err = fs.delete("victim").unwrap_err();
        assert!(err.is_transient());
        assert!(!fs.exists("victim").unwrap());
        // Retrying the delete of a now-missing object stays harmless
        // (S3 delete semantics, §6.5's idempotent delete protocol).
        let _ = fs.delete("victim");
        assert!(!fs.exists("victim").unwrap());
    }

    #[test]
    fn ambiguous_rate_zero_never_fires() {
        let fs = instant();
        for i in 0..100 {
            fs.write(&format!("k{i}"), Bytes::from_static(b"v")).unwrap();
            fs.delete(&format!("k{i}")).unwrap();
        }
    }

    #[test]
    fn latency_is_charged() {
        let fs = S3SimFs::new(S3Config {
            request_latency: Duration::from_millis(5),
            bytes_per_micro: 0,
            ..S3Config::instant()
        });
        let t0 = std::time::Instant::now();
        fs.write("k", Bytes::new()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_batch_waits_one_first_byte_and_bills_every_range() {
        let fs = S3SimFs::new(S3Config {
            request_latency: Duration::from_millis(30),
            bytes_per_micro: 0,
            ..S3Config::instant()
        });
        fs.write("k", Bytes::from(vec![1u8; 1000])).unwrap();
        let before = fs.stats();
        let ranges: Vec<(u64, u64)> = (0..8).map(|i| (i * 120, 100)).collect();
        let t0 = std::time::Instant::now();
        let got = fs.read_ranges("k", &ranges);
        let took = t0.elapsed();
        assert!(got.iter().all(|r| r.as_ref().is_ok_and(|b| b.len() == 100)));
        // Concurrent: one first byte, not eight in a row.
        assert!(took >= Duration::from_millis(30) && took < Duration::from_millis(150), "{took:?}");
        let after = fs.stats();
        assert_eq!(after.gets - before.gets, 8, "every range is a GET");
        assert_eq!(after.cost_nanodollars - before.cost_nanodollars, 8 * 400);
        assert!(fs.read_ranges("k", &[]).is_empty());
    }

    #[test]
    fn read_after_write_for_new_objects() {
        // The consistency model Vertica relies on (§5.3): a freshly
        // written object is immediately visible to read and list.
        let fs = instant();
        fs.write("fresh", Bytes::from_static(b"now")).unwrap();
        assert!(fs.exists("fresh").unwrap());
        assert_eq!(fs.read("fresh").unwrap().as_ref(), b"now");
    }
}
