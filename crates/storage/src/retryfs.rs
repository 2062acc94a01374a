//! The one resilience layer of the storage column (DESIGN.md "Retry
//! everywhere"): a [`FileSystem`] decorator applying the §5.3 retry
//! loop and the circuit-breaker gate to every operation. `EonDb` wraps
//! its shared storage in this once, so all downstream access — depots'
//! backing reads and write-through, catalog uploads,
//! `cluster_info`, the leak scan — survives transient failures
//! and throttles uniformly. Nothing above this layer retries: one
//! logical operation is at most `max_attempts` store requests.
//!
//! Whole-object writes and deletes are idempotent on an object store,
//! so retrying them blindly is safe; that is precisely why the UDFS
//! API has no append or rename (§5.3).
//!
//! Ranged reads go out as parts: a range longer than [`PART_BYTES`] is
//! cut into near-equal contiguous parts, every part of a call is sent as
//! one batch through the store's own batch verb (concurrent requests, no
//! thread of ours), and each range comes back as one buffer. The part is
//! the unit of retry: each keeps its own attempt count, backoff and
//! breaker outcome, and only failed parts are sent again, as the next
//! batch.
//!
//! An optional [`CircuitBreaker`] gates every operation: while it is
//! open, requests fail fast with `StoreUnavailable` instead of burning
//! a full backoff budget against a browned-out store, and each
//! operation's final outcome (exhausted-retry transient failure vs.
//! answered) feeds the breaker's state machine.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use eon_obs::{Counter, Registry};
use eon_types::Result;

use crate::breaker::CircuitBreaker;
use crate::fs::{FileSystem, FsStats, SharedFs};
use crate::retry::{with_retry, RetryPolicy};

/// The longest request a ranged read goes out as. A longer range costs
/// more GETs (requests, not bytes, set the S3 bill) and waits one first
/// byte plus a part's transfer instead of its whole transfer.
pub const PART_BYTES: u64 = 64 * 1024;

/// `(offset, len)` as ⌈len / [`PART_BYTES`]⌉ near-equal contiguous
/// parts, in order, the first `len % k` of them one byte longer. A range
/// of at most one part — an empty one included, which still asks the
/// store — is its own single part.
fn parts(offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
    let k = len.div_ceil(PART_BYTES).max(1);
    let (base, extra) = (len / k, len % k);
    (0..k).map(move |i| (offset + i * base + i.min(extra), base + u64::from(i < extra)))
}

/// Retrying wrapper over any filesystem.
pub struct RetryFs {
    inner: SharedFs,
    policy: RetryPolicy,
    /// `s3_retries_total` — one tick per re-issued request.
    retries: Arc<Counter>,
    /// Optional brownout protection (DESIGN.md "Failure detection &
    /// degraded modes"). `None` = always retry.
    breaker: Option<Arc<CircuitBreaker>>,
}

impl RetryFs {
    /// Wrap `inner`: every operation retries per `policy` (its retry
    /// count lands in `registry`) behind `breaker` when one is given.
    pub fn new(
        inner: SharedFs,
        policy: RetryPolicy,
        registry: &Registry,
        breaker: Option<Arc<CircuitBreaker>>,
    ) -> Self {
        RetryFs {
            inner,
            policy,
            retries: registry.counter("s3_retries_total", &[("subsystem", "s3")]),
            breaker,
        }
    }

    /// Fast-fail while the breaker is open (it half-opens itself after
    /// its cooldown; that admission proceeds as the probe).
    fn admit(&self) -> Result<()> {
        self.breaker.as_ref().map_or(Ok(()), |b| b.admit())
    }

    /// Feed one operation's final outcome to the breaker.
    fn record<T>(&self, result: &Result<T>) {
        if let Some(b) = &self.breaker {
            match result {
                Ok(_) => b.record_success(),
                Err(e) if e.is_transient() => b.record_failure(),
                // Terminal (NotFound, precondition): the store answered
                // — never trips the breaker (DESIGN.md classification).
                Err(_) => b.record_success(),
            }
        }
    }

    fn retrying<T>(&self, op: impl FnMut() -> Result<T>) -> Result<T> {
        self.admit()?;
        let result = with_retry(&self.policy, || self.retries.inc(), op);
        self.record(&result);
        result
    }

    /// Send `parts` as one batch, then the failed ones again as the
    /// next batch after the longest of their backoffs, until every part
    /// has its final outcome. Each part is admitted by the breaker, counts
    /// its attempts and retries, and feeds its outcome back, as a lone
    /// request does through [`with_retry`].
    fn read_parts(&self, path: &str, parts: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        let mut out: Vec<Option<Result<Bytes>>> = parts.iter().map(|_| self.admit().err().map(Err)).collect();
        let mut attempt = 0;
        loop {
            let pending: Vec<usize> = (0..parts.len()).filter(|&i| out[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            let batch: Vec<(u64, u64)> = pending.iter().map(|&i| parts[i]).collect();
            let got = self.inner.read_ranges(path, &batch);
            debug_assert_eq!(got.len(), batch.len(), "one result per range");
            let mut wait = Duration::ZERO;
            for (i, got) in pending.into_iter().zip(got) {
                match got.as_ref().err().and_then(|e| self.policy.retry_after(attempt, e)) {
                    Some(backoff) => {
                        self.retries.inc();
                        wait = wait.max(backoff);
                    }
                    None => {
                        self.record(&got);
                        out[i] = Some(got);
                    }
                }
            }
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            attempt += 1;
        }
        out.into_iter().map(|r| r.expect("every part ends with an outcome")).collect()
    }
}

impl FileSystem for RetryFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.retrying(|| self.inner.write(path, data.clone()))
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.retrying(|| self.inner.read(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let mut got = self.read_ranges(path, &[(offset, len)]);
        got.pop().expect("one result per range")
    }

    /// Every part of every range in one batch ([`read_parts`]), each
    /// range handed back as one buffer: a range of one part as the
    /// store returned it, a longer one stitched in order — so a range
    /// past the object's end is exactly what one `read_range` of it
    /// returns. A range fails with its first failed part's error.
    ///
    /// [`read_parts`]: RetryFs::read_parts
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        let mut all = Vec::with_capacity(ranges.len());
        let mut counts = Vec::with_capacity(ranges.len());
        for &(offset, len) in ranges {
            let before = all.len();
            all.extend(parts(offset, len));
            counts.push(all.len() - before);
        }
        let mut got = self.read_parts(path, &all).into_iter();
        let stitch = |(&(_, len), n): (&(u64, u64), usize)| {
            let mine: Vec<Result<Bytes>> = got.by_ref().take(n).collect();
            let mut mine = mine.into_iter().collect::<Result<Vec<Bytes>>>()?;
            if n == 1 {
                return Ok(mine.pop().expect("one part"));
            }
            let mut buf = Vec::with_capacity(len as usize);
            for part in &mine {
                buf.extend_from_slice(part);
            }
            Ok(Bytes::from(buf))
        };
        ranges.iter().zip(counts).map(stitch).collect()
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.retrying(|| self.inner.size(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.retrying(|| self.inner.list(prefix))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.retrying(|| self.inner.exists(path))
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.retrying(|| self.inner.delete(path))
    }

    fn stats(&self) -> FsStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, BreakerState};
    use crate::mem::MemFs;
    use crate::s3sim::{S3Config, S3SimFs};
    use parking_lot::Mutex;
    use proptest::prelude::*;

    fn instant_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// A batch's per-range results, or its first error.
    fn all(got: Vec<Result<Bytes>>) -> Result<Vec<Bytes>> {
        got.into_iter().collect()
    }

    /// The store below a `RetryFs`, logging every batch it is sent.
    struct Logged {
        inner: Arc<S3SimFs>,
        batches: Mutex<Vec<Vec<(u64, u64)>>>,
    }

    impl FileSystem for Logged {
        fn write(&self, path: &str, data: Bytes) -> Result<()> {
            self.inner.write(path, data)
        }
        fn read(&self, path: &str) -> Result<Bytes> {
            self.inner.read(path)
        }
        fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
            self.batches.lock().push(ranges.to_vec());
            self.inner.read_ranges(path, ranges)
        }
        fn size(&self, path: &str) -> Result<u64> {
            self.inner.size(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.inner.delete(path)
        }
        fn stats(&self) -> FsStats {
            self.inner.stats()
        }
    }

    /// One range of the property's lists, by kind: empty, a length
    /// within one byte of a multiple of the part size, past the end,
    /// overlapping the previous range, or anywhere.
    fn range_of(kind: u8, a: u64, k: u64, size: u64, prev: (u64, u64)) -> (u64, u64) {
        match kind {
            0 => (a % (size + 1), 0),
            1 => (a % (size + 1), k * PART_BYTES + a % 3 - 1),
            2 => (size + a % 1_000, a % 200_000),
            3 => (prev.0 + a % (prev.1 + 1), a % 150_000),
            _ => (a % (size + 1), (a >> 20) % 300_000),
        }
    }

    proptest! {
        /// Parts, end to end on a flaky store: every range answers as
        /// one serial `read_range` of a plain store; the first batch
        /// carries every part, each at most `PART_BYTES`, tiling its
        /// range in order; every later batch re-sends only failed parts
        /// (one retry per injected fault, and billed GETs = parts +
        /// retries); and behind an open breaker nothing is sent.
        #[test]
        fn prop_parts_tile_their_ranges_and_retry_alone(
            size in 0u64..300_000,
            seed in 0u64..1_000_000,
            specs in proptest::collection::vec((0u8..5, 0u64..1 << 40, 1u64..5), 0..10),
        ) {
            let data: Vec<u8> = (0..size).map(|i| (i * 7 % 251) as u8).collect();
            let plain = MemFs::new();
            plain.write("obj", Bytes::from(data.clone())).unwrap();
            let registry = Registry::new();
            let sim = Arc::new(S3SimFs::with_metrics(S3Config::flaky(0.3, 0.1, seed), &registry));
            let logged = Arc::new(Logged { inner: sim.clone(), batches: Mutex::new(Vec::new()) });
            let fs = RetryFs::new(logged.clone(), instant_policy(25), &registry, None);
            fs.write("obj", Bytes::from(data)).unwrap();
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for &(kind, a, k) in &specs {
                let prev = ranges.last().copied().unwrap_or((0, size));
                ranges.push(range_of(kind, a, k, size, prev));
            }

            let billed = registry.counter("s3_requests_total", &[("subsystem", "s3"), ("verb", "get")]);
            let retries = registry.counter("s3_retries_total", &[("subsystem", "s3")]);
            let fault = |kind| registry.counter("s3_faults_injected_total", &[("subsystem", "s3"), ("kind", kind)]);
            let faults = || fault("fail").get() + fault("throttle").get();
            let (gets0, retries0, faults0) = (billed.get(), retries.get(), faults());
            logged.batches.lock().clear();
            let got = all(fs.read_ranges("obj", &ranges)).unwrap();
            let serial: Vec<Bytes> = ranges.iter().map(|&(o, l)| plain.read_range("obj", o, l).unwrap()).collect();
            prop_assert_eq!(got, serial);

            let batches = std::mem::take(&mut *logged.batches.lock());
            let first = batches.first().cloned().unwrap_or_default();
            prop_assert_eq!(batches.is_empty(), ranges.is_empty());
            let mut cut = first.iter();
            for &(offset, len) in &ranges {
                let k = len.div_ceil(PART_BYTES).max(1);
                let mine: Vec<(u64, u64)> = cut.by_ref().take(k as usize).copied().collect();
                prop_assert_eq!(mine.len() as u64, k);
                prop_assert!(mine.iter().all(|&(_, l)| l <= PART_BYTES), "{:?}", mine);
                prop_assert_eq!(mine[0].0, offset);
                prop_assert!(mine.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0), "{:?}", mine);
                prop_assert_eq!(mine.iter().map(|p| p.1).sum::<u64>(), len);
            }
            prop_assert!(cut.next().is_none());
            prop_assert!(batches[1.min(batches.len())..].iter().flatten().all(|p| first.contains(p)));
            let parts = first.len() as u64;
            let (gets, retried) = (billed.get() - gets0, retries.get() - retries0);
            prop_assert_eq!(gets, batches.iter().map(|b| b.len() as u64).sum::<u64>());
            prop_assert_eq!(gets, parts + retried);
            prop_assert_eq!(retried, faults() - faults0, "one retry per injected fault");

            // Open, and kept open: no part of any range reaches the store.
            let breaker = CircuitBreaker::new(BreakerConfig {
                failure_threshold: 1,
                cooldown: u32::MAX,
                half_open_probes: 1,
            });
            breaker.record_failure();
            let gated = RetryFs::new(logged.clone(), instant_policy(25), &registry, Some(breaker));
            let before = billed.get();
            let got = gated.read_ranges("obj", &ranges);
            prop_assert_eq!(got.len(), ranges.len());
            prop_assert!(got.iter().all(|r| matches!(r, Err(eon_types::EonError::StoreUnavailable(_)))));
            prop_assert_eq!(billed.get(), before, "an open breaker issues no GET");
            prop_assert!(logged.batches.lock().is_empty());
        }
    }

    #[test]
    fn operations_succeed_despite_failures() {
        let flaky = Arc::new(S3SimFs::new(S3Config::flaky(0.4, 0.2, 99)));
        // 60% of requests fail: give the loop enough attempts that the
        // whole test fails with probability < 1e-4.
        let fs = RetryFs::new(flaky, instant_policy(25), &Registry::new(), None);
        for i in 0..50 {
            let key = format!("k{i}");
            fs.write(&key, Bytes::from(vec![i as u8])).unwrap();
            assert_eq!(fs.read(&key).unwrap()[0], i as u8);
        }
        assert_eq!(fs.list("k").unwrap().len(), 50);
    }

    #[test]
    fn permanent_errors_still_surface() {
        let fs = RetryFs::new(
            Arc::new(crate::mem::MemFs::new()),
            RetryPolicy::default(),
            &Registry::new(),
            None,
        );
        assert!(matches!(
            fs.read("missing"),
            Err(eon_types::EonError::NotFound(_))
        ));
    }

    #[test]
    fn breaker_opens_on_exhausted_retries_and_fast_fails() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        sim.set_brownout(true);
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: 3,
            half_open_probes: 1,
        });
        let fs = RetryFs::new(
            sim.clone(),
            instant_policy(3),
            &Registry::new(),
            Some(breaker.clone()),
        );
        // Two operations exhaust their retries → breaker opens.
        assert!(matches!(fs.read("k"), Err(eon_types::EonError::Storage(_))));
        assert!(matches!(fs.read("k"), Err(eon_types::EonError::Storage(_))));
        assert_eq!(breaker.state(), BreakerState::Open);
        // Open: fast-fail without touching the store (request count
        // frozen through the cooldown window).
        let before = sim.stats().cost_nanodollars;
        for _ in 0..3 {
            assert!(matches!(
                fs.write("k", Bytes::from_static(b"v")),
                Err(eon_types::EonError::StoreUnavailable(_))
            ));
        }
        assert_eq!(sim.stats().cost_nanodollars, before, "open breaker must not hit the store");
        // Brownout over: the post-cooldown probe closes the breaker.
        sim.set_brownout(false);
        fs.write("k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(fs.read("k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn read_ranges_equal_serial_read_range() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
        sim.write("obj", Bytes::from(data)).unwrap();
        let fs = RetryFs::new(sim.clone(), instant_policy(3), &Registry::new(), None);
        let many: Vec<(u64, u64)> = (0..9).map(|i| (i * 400, 100 + i * 37)).collect();
        for ranges in [&[][..], &many[..1], &many[..], &[(4000, 500), (0, 0)][..]] {
            let gets = sim.stats().gets;
            let got = all(fs.read_ranges("obj", ranges)).unwrap();
            assert_eq!(sim.stats().gets - gets, ranges.len() as u64, "one GET a range");
            let serial: Vec<Bytes> =
                ranges.iter().map(|&(o, l)| fs.read_range("obj", o, l).unwrap()).collect();
            assert_eq!(got, serial);
        }
        assert!(matches!(
            all(fs.read_ranges("missing", &many)),
            Err(eon_types::EonError::NotFound(_))
        ));
    }

    #[test]
    fn read_ranges_reissue_only_the_failed_range() {
        let registry = Registry::new();
        let sim = Arc::new(S3SimFs::with_metrics(S3Config::flaky(0.3, 0.1, 7), &registry));
        let fs = RetryFs::new(sim.clone(), instant_policy(25), &registry, None);
        fs.write("obj", Bytes::from(vec![5u8; 8192])).unwrap();
        // Billed GETs, failed ones included.
        let billed = registry.counter("s3_requests_total", &[("subsystem", "s3"), ("verb", "get")]);
        let retries = registry.counter("s3_retries_total", &[("subsystem", "s3")]);
        let ranges: Vec<(u64, u64)> = (0..16).map(|i| (i * 512, 512)).collect();
        for _ in 0..4 {
            let (gets, retried) = (billed.get(), retries.get());
            let got = all(fs.read_ranges("obj", &ranges)).unwrap();
            assert!(got.iter().all(|b| b.len() == 512 && b.iter().all(|&x| x == 5)));
            // Every GET beyond one a range is a retry of a failed one.
            let (gets, retried) = (billed.get() - gets, retries.get() - retried);
            assert_eq!(gets, ranges.len() as u64 + retried);
        }
        assert!(retries.get() > 0, "40 % faults over 64 ranges must retry some");
    }

    #[test]
    fn read_ranges_fast_fail_behind_an_open_breaker() {
        let sim = Arc::new(S3SimFs::new(S3Config::instant()));
        sim.write("obj", Bytes::from(vec![1u8; 1024])).unwrap();
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: 100,
            half_open_probes: 1,
        });
        let fs = RetryFs::new(sim.clone(), instant_policy(2), &Registry::new(), Some(breaker.clone()));
        sim.set_brownout(true);
        assert!(fs.read_range("obj", 0, 10).is_err());
        assert_eq!(breaker.state(), BreakerState::Open);
        sim.set_brownout(false);
        let before = sim.stats();
        let ranges: Vec<(u64, u64)> = (0..8).map(|i| (i * 100, 100)).collect();
        assert!(matches!(
            all(fs.read_ranges("obj", &ranges)),
            Err(eon_types::EonError::StoreUnavailable(_))
        ));
        assert_eq!(sim.stats(), before, "an open breaker issues no request");
    }

    #[test]
    fn terminal_errors_do_not_feed_the_breaker() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            ..Default::default()
        });
        let fs = RetryFs::new(
            Arc::new(crate::mem::MemFs::new()),
            RetryPolicy::default(),
            &Registry::new(),
            Some(breaker.clone()),
        );
        for _ in 0..5 {
            assert!(matches!(
                fs.read("missing"),
                Err(eon_types::EonError::NotFound(_))
            ));
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}
