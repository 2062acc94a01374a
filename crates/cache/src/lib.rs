//! The Eon-mode depot: a node-local disk cache of whole shared-storage
//! files (paper §5.2).
//!
//! Key properties from the paper, all implemented here:
//!
//! * caches **entire data files**; files are immutable once written, so
//!   the cache handles only add and drop — never invalidate;
//! * **LRU** eviction;
//! * **write-through**: loads put new files in the cache *and* upload
//!   them, since fresh data is likely to be queried;
//! * **shaping policies**: bypass the cache for a query, pin hot
//!   objects, never-cache configured prefixes;
//! * **peer warm-up**: a new subscriber asks a peer for its
//!   most-recently-used file list within a capacity budget and
//!   prefetches those files.
//!
//! [`FileCache`] implements [`FileSystem`], so the scan path simply
//! reads "through" the cache. The contract of a read, whole or ranged:
//!
//! * a **hit** is decided and served from the local file inside one
//!   critical section, so a concurrent eviction can never turn it into
//!   `NotFound`;
//! * a **miss** costs exactly one backing fetch of the whole object
//!   (shared by concurrent misses on the key, one single-flight slot),
//!   the reader is answered from the fetched bytes, and the object is
//!   admitted if it fits. When the catalog gave the object's size to
//!   [`FileCache::reader`], the fetch is one ranged read of the whole
//!   object through the batch verb, which `eon_storage::RetryFs` sends
//!   as concurrent parts; otherwise (catalog logs, `cluster_info`,
//!   delete vectors) it is one whole `read`;
//! * a **bypass** goes straight to shared storage and is counted once
//!   per range (or whole read) it sends, however many parts shared
//!   storage cuts it into: a read from a [`CacheMode::Bypass`] session,
//!   a ranged read of an object larger than the whole depot — which
//!   could never be admitted, so a read through the depot would move
//!   the whole object — and a ranged read under a never-cache prefix,
//!   known beforehand not to be kept. [`FileCache::reader`] is the one
//!   place the first two are decided: the scan path (`eon-core::provider`)
//!   asks it how to read a container, and gets a [`Reader`] face that
//!   goes past the depot for those cases and through it otherwise.
//!
//! So `hits + misses + bypasses` equals the reads issued, whole and
//! ranged, on every path — the scan path's included. Shared storage's
//! own `s3_requests_total` counts parts.
//!
//! The depot **never retries**: every backing request below is issued
//! once. The §5.3 retry loop and the circuit breaker live in the
//! `eon_storage::RetryFs` the database wraps shared storage in, so one
//! logical depot operation is one operation to that layer.
//!
//! The depot counts into the registry it is built with, labeled by
//! node, and [`CacheStats`] is a read of those counters. Registry keys
//! are deduplicated, so the depot of a restarted node continues its
//! predecessor's series.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use eon_obs::{Counter, Determinism, Gauge, Registry};
use eon_storage::{FileSystem, FsStats, SharedFs};
use eon_types::{EonError, Result};
use parking_lot::{Condvar, Mutex};

/// Cache behaviour for a single request (§5.2's "don't use the cache
/// for this query" and write-through-off for archive loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Normal: read through the cache, write through the cache.
    #[default]
    Normal,
    /// Skip the cache entirely (large batch historical queries).
    Bypass,
}

/// Counters for cache effectiveness, read from the depot's registry
/// series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bypasses: u64,
    /// Misses that joined another thread's in-flight backing fetch
    /// instead of issuing their own GET (single-flight dedup).
    pub singleflight_waits: u64,
    /// Write-through puts (Fig 8 loads and DV uploads): cached locally
    /// *and* uploaded to shared storage.
    pub writes: u64,
}

/// One in-flight backing fetch that concurrent misses on the same key
/// can join instead of issuing their own GET.
struct FillSlot {
    result: Mutex<Option<Result<Bytes>>>,
    ready: Condvar,
}

#[derive(Debug)]
struct Entry {
    size: u64,
    stamp: u64,
    pinned: bool,
}

/// Registry handles behind [`CacheStats`], plus warm-up counters that
/// only exist in the registry.
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    bypasses: Arc<Counter>,
    warmup_files: Arc<Counter>,
    warmup_bytes: Arc<Counter>,
    singleflight_waits: Arc<Counter>,
    writes: Arc<Counter>,
    used_bytes: Arc<Gauge>,
}

impl CacheMetrics {
    fn register(registry: &Registry, node: &str) -> Self {
        let labels: &[(&str, &str)] = &[("node", node), ("subsystem", "depot")];
        CacheMetrics {
            hits: registry.counter("depot_hits_total", labels),
            misses: registry.counter("depot_misses_total", labels),
            evictions: registry.counter("depot_evictions_total", labels),
            bypasses: registry.counter("depot_bypasses_total", labels),
            warmup_files: registry.counter("depot_warmup_files_total", labels),
            warmup_bytes: registry.counter("depot_warmup_bytes_total", labels),
            // Which thread wins a concurrent fill race is scheduling,
            // not workload: keep this out of deterministic snapshots.
            singleflight_waits: registry.counter_with(
                "depot_singleflight_waits_total",
                labels,
                Determinism::WallClock,
            ),
            writes: registry.counter("depot_writes_total", labels),
            used_bytes: registry.gauge("depot_used_bytes", labels),
        }
    }
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// LRU index: (stamp, key) ascending — oldest first.
    lru: BTreeSet<(u64, String)>,
    clock: u64,
    used: u64,
    never_prefixes: Vec<String>,
}

impl Inner {
    fn touch(&mut self, key: &str) {
        if let Some(e) = self.entries.get_mut(key) {
            self.lru.remove(&(e.stamp, key.to_owned()));
            self.clock += 1;
            e.stamp = self.clock;
            self.lru.insert((e.stamp, key.to_owned()));
        }
    }
}

/// The disk file cache. `local` is the node's cache directory (instance
/// storage in the paper's deployments — loss is harmless, §8);
/// `backing` is the shared storage.
pub struct FileCache {
    local: SharedFs,
    backing: SharedFs,
    capacity: u64,
    metrics: CacheMetrics,
    inner: Mutex<Inner>,
    /// In-flight backing fetches keyed by object path (single-flight).
    inflight: Mutex<HashMap<String, Arc<FillSlot>>>,
}

impl FileCache {
    /// An empty depot counting into `registry` under `node`.
    pub fn new(
        local: SharedFs,
        backing: SharedFs,
        capacity_bytes: u64,
        registry: &Registry,
        node: &str,
    ) -> Self {
        let metrics = CacheMetrics::register(registry, node);
        // A new process starts with an empty depot.
        metrics.used_bytes.set(0);
        FileCache {
            local,
            backing,
            capacity: capacity_bytes,
            metrics,
            inflight: Mutex::new(HashMap::new()),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeSet::new(),
                clock: 0,
                used: 0,
                never_prefixes: Vec::new(),
            }),
        }
    }

    /// Serve `key` from the depot if it is resident. Residency check,
    /// local read and LRU touch share one critical section: an eviction
    /// (which deletes the local file under the same lock) cannot slip
    /// between the check and the read.
    fn read_hit(
        &self,
        key: &str,
        read: impl FnOnce(&dyn FileSystem) -> Result<Bytes>,
    ) -> Option<Result<Bytes>> {
        let mut g = self.inner.lock();
        if !g.entries.contains_key(key) {
            return None;
        }
        self.metrics.hits.inc();
        g.touch(key);
        Some(read(self.local.as_ref()))
    }

    /// Fault `key` in from shared storage with single-flight dedup:
    /// concurrent misses on the same key join one backing GET instead
    /// of each fetching. The winner counts the miss and populates the
    /// cache; a loser waits on the winner's result and counts a hit,
    /// since it was served without touching shared storage, keeping
    /// `hits + misses + bypasses == reads` exact. Never-cache keys
    /// skip dedup so their every-read-fetches accounting stays
    /// schedule-independent. Returns the whole object either way, so
    /// no caller goes back to shared storage for bytes it just moved.
    fn fault_in(&self, key: &str, size: Option<u64>) -> Result<Bytes> {
        if self.never_cached(key) {
            let data = self.fetch(key, size)?;
            self.metrics.misses.inc();
            self.insert_local(key, data.clone())?;
            return Ok(data);
        }
        enum Role {
            Leader(Arc<FillSlot>),
            Waiter(Arc<FillSlot>),
        }
        let role = {
            let mut m = self.inflight.lock();
            // A fill may have completed between the caller's miss
            // check and here; the entries map is authoritative, and
            // checking it under the inflight lock closes the race
            // where a leader finished and unregistered its slot.
            if let Some(hit) = self.read_hit(key, |local| local.read(key)) {
                return hit;
            }
            if let Some(slot) = m.get(key) {
                Role::Waiter(slot.clone())
            } else {
                let slot = Arc::new(FillSlot {
                    result: Mutex::new(None),
                    ready: Condvar::new(),
                });
                m.insert(key.to_owned(), slot.clone());
                Role::Leader(slot)
            }
        };
        match role {
            Role::Leader(slot) => {
                let res = self.fetch(key, size);
                let mut inserted = Ok(());
                if let Ok(data) = &res {
                    self.metrics.misses.inc();
                    inserted = self.insert_local(key, data.clone());
                }
                // Publish before unregistering so anyone who joined
                // this slot always finds a result.
                *slot.result.lock() = Some(res.clone());
                slot.ready.notify_all();
                self.inflight.lock().remove(key);
                inserted?;
                res
            }
            Role::Waiter(slot) => {
                self.metrics.singleflight_waits.inc();
                let mut r = slot.result.lock();
                while r.is_none() {
                    slot.ready.wait(&mut r);
                }
                let res = r.clone().expect("loop exits once the leader published");
                drop(r);
                if res.is_ok() {
                    self.metrics.hits.inc();
                    self.inner.lock().touch(key);
                }
                res
            }
        }
    }

    /// The backing fetch of a whole object for a miss: with its size
    /// known, one ranged read of all of it through the batch verb (shared
    /// storage sends it as concurrent parts), of which a shorter answer
    /// is `Corrupt`; otherwise one `read`.
    fn fetch(&self, key: &str, size: Option<u64>) -> Result<Bytes> {
        let Some(size) = size else {
            return self.backing.read(key);
        };
        let data = self.backing.read_ranges(key, &[(0, size)]).pop().expect("one result per range")?;
        if (data.len() as u64) < size {
            return Err(EonError::Corrupt(format!("{key}: {} bytes stored, {size} expected", data.len())));
        }
        Ok(data)
    }

    /// A whole read through the depot: a hit, or a miss that faults the
    /// object in.
    fn read_through(&self, key: &str, size: Option<u64>) -> Result<Bytes> {
        match self.read_hit(key, |local| local.read(key)) {
            Some(hit) => hit,
            None => self.fault_in(key, size),
        }
    }

    /// A ranged read through the depot. Whole-file caching: a hit
    /// slices the local file; a miss faults the object in and slices the
    /// bytes that fetch returned, admitted or not — never a second GET.
    /// A never-cache key is known beforehand not to be kept: bypass for
    /// just the range.
    fn read_range_through(&self, path: &str, offset: u64, len: u64, size: Option<u64>) -> Result<Bytes> {
        if let Some(hit) = self.read_hit(path, |local| local.read_range(path, offset, len)) {
            return hit;
        }
        if self.never_cached(path) {
            return self.bypass().read_range(path, offset, len);
        }
        let all = self.fault_in(path, size)?;
        let start = (offset as usize).min(all.len());
        let end = (offset.saturating_add(len) as usize).min(all.len());
        Ok(all.slice(start..end))
    }

    /// Ranges through the depot in turn, each one hit or one miss. A
    /// failure ends the batch — the ranges after it answer with its
    /// error — so a failing store is asked once, not once a range.
    fn read_ranges_through(&self, path: &str, ranges: &[(u64, u64)], size: Option<u64>) -> Vec<Result<Bytes>> {
        let mut failed: Option<EonError> = None;
        let read = |&(offset, len): &(u64, u64)| match &failed {
            Some(e) => Err(e.clone()),
            None => self.read_range_through(path, offset, len, size).inspect_err(|e| failed = Some(e.clone())),
        };
        ranges.iter().map(read).collect()
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// How a read of one object goes, given the session's cache mode and
    /// the object's size where the catalog knows it. A bypass session
    /// (§5.2) and an object larger than the whole depot — which
    /// [`insert_local`](Self::insert_local) would never keep, so every
    /// read through the depot would move the whole object — read
    /// straight from shared storage, one bypass per range; everything
    /// else reads through the depot, a miss filling by parts when the
    /// size is known.
    pub fn reader(&self, mode: CacheMode, size_bytes: Option<u64>) -> Reader<'_> {
        let bypass = mode == CacheMode::Bypass || !self.admits(size_bytes.unwrap_or(0));
        Reader { cache: self, bypass, size: size_bytes }
    }

    /// The depot's counting bypass face.
    fn bypass(&self) -> Reader<'_> {
        Reader { cache: self, bypass: true, size: None }
    }

    /// The one admission rule: an object larger than the whole depot
    /// is never kept (it would evict everything and still not fit).
    fn admits(&self, size: u64) -> bool {
        size <= self.capacity
    }

    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            bypasses: m.bypasses.get(),
            singleflight_waits: m.singleflight_waits.get(),
            writes: m.writes.get(),
        }
    }

    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// Configure a never-cache prefix ("never cache table T2", §5.2).
    pub fn never_cache_prefix(&self, prefix: impl Into<String>) {
        self.inner.lock().never_prefixes.push(prefix.into());
    }

    /// Pin or unpin a cached object (pinned objects skip eviction:
    /// "cache recent partitions of table T").
    pub fn set_pinned(&self, key: &str, pinned: bool) {
        let mut g = self.inner.lock();
        if let Some(e) = g.entries.get_mut(key) {
            e.pinned = pinned;
        }
    }

    /// Drop everything ("the cache can be cleared completely").
    pub fn clear(&self) -> Result<()> {
        let mut g = self.inner.lock();
        let keys: Vec<String> = g.entries.keys().cloned().collect();
        for k in keys {
            self.local.delete(&k)?;
        }
        g.entries.clear();
        g.lru.clear();
        g.used = 0;
        self.metrics.used_bytes.set(0);
        Ok(())
    }

    fn never_cached(&self, key: &str) -> bool {
        self.inner
            .lock()
            .never_prefixes
            .iter()
            .any(|p| key.starts_with(p))
    }

    /// Insert a file into the local cache (no backing write), evicting
    /// LRU entries as needed. Used by the fault-in path, by load
    /// write-through, and by peer-shipped files (Fig 8 step 3).
    pub fn insert_local(&self, key: &str, data: Bytes) -> Result<()> {
        if self.never_cached(key) {
            return Ok(());
        }
        let size = data.len() as u64;
        if !self.admits(size) {
            return Ok(());
        }
        // Write and register in one critical section: were the file
        // written first, an eviction of this key's previous entry could
        // delete it and leave a registered entry with no bytes.
        let mut g = self.inner.lock();
        self.local.write(key, data)?;
        if let Some(old) = g.entries.remove(key) {
            g.lru.remove(&(old.stamp, key.to_owned()));
            g.used -= old.size;
        }
        // Evict oldest unpinned entries until the new file fits.
        while g.used + size > self.capacity {
            let victim = g
                .lru
                .iter()
                .find(|(_, k)| !g.entries[k].pinned)
                .cloned();
            match victim {
                Some((stamp, k)) => {
                    g.lru.remove(&(stamp, k.clone()));
                    if let Some(e) = g.entries.remove(&k) {
                        g.used -= e.size;
                    }
                    self.metrics.evictions.inc();
                    self.local.delete(&k)?;
                }
                None => break, // everything pinned; overshoot rather than fail
            }
        }
        g.clock += 1;
        let stamp = g.clock;
        g.lru.insert((stamp, key.to_owned()));
        g.entries.insert(
            key.to_owned(),
            Entry {
                size,
                stamp,
                pinned: false,
            },
        );
        g.used += size;
        self.metrics.used_bytes.set(g.used as i64);
        Ok(())
    }

    /// Remove one object from the cache (e.g. when its reference count
    /// hits zero locally, §6.5 — the cached copy can go immediately).
    pub fn evict(&self, key: &str) -> Result<()> {
        let mut g = self.inner.lock();
        if let Some(e) = g.entries.remove(key) {
            g.lru.remove(&(e.stamp, key.to_owned()));
            g.used -= e.size;
            self.metrics.used_bytes.set(g.used as i64);
            self.local.delete(key)?;
        }
        Ok(())
    }

    /// Read a whole object with an explicit cache mode.
    pub fn read_with(&self, key: &str, mode: CacheMode) -> Result<Bytes> {
        if mode == CacheMode::Bypass {
            return self.bypass().read(key);
        }
        self.read_through(key, None)
    }

    /// Write-through put: cache locally, upload to shared storage. The
    /// data-load path (Fig 8 steps 2–3) calls this.
    pub fn put_through(&self, key: &str, data: Bytes) -> Result<()> {
        self.metrics.writes.inc();
        self.insert_local(key, data.clone())?;
        self.backing.write(key, data)
    }

    /// Most-recently-used keys fitting in `budget` bytes — what a peer
    /// sends a warming subscriber (§5.2). Newest first.
    pub fn mru_list(&self, budget: u64) -> Vec<String> {
        let g = self.inner.lock();
        let mut out = Vec::new();
        let mut total = 0u64;
        for (_, key) in g.lru.iter().rev() {
            let size = g.entries[key].size;
            if total + size > budget {
                continue;
            }
            total += size;
            out.push(key.clone());
        }
        out
    }

    /// Warm this cache from a peer's MRU list: fetch each file (from
    /// shared storage here; a real deployment may fetch from the peer
    /// itself, §5.2 allows either). Missing files are skipped, not
    /// fatal. Returns how many files landed.
    pub fn warm_from(&self, peer_mru: &[String]) -> Result<usize> {
        let mut n = 0;
        // Oldest first so the *newest* files end up most recent in LRU.
        for key in peer_mru.iter().rev() {
            // A peer may cache what this node is configured never to
            // (per-node never-cache policy): don't even fetch those.
            if self.never_cached(key) {
                continue;
            }
            match self.backing.read(key) {
                Ok(data) => {
                    self.metrics.warmup_files.inc();
                    self.metrics.warmup_bytes.add(data.len() as u64);
                    self.insert_local(key, data)?;
                    n += 1;
                }
                Err(EonError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }
}

impl FileSystem for FileCache {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.put_through(path, data)
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        self.read_with(path, CacheMode::Normal)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.read_range_through(path, offset, len, None)
    }

    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        self.read_ranges_through(path, ranges, None)
    }

    fn size(&self, path: &str) -> Result<u64> {
        if let Some(e) = self.inner.lock().entries.get(path) {
            return Ok(e.size);
        }
        self.backing.size(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.backing.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.evict(path)?;
        self.backing.delete(path)
    }

    fn stats(&self) -> FsStats {
        self.backing.stats()
    }
}

/// One object's read, as [`FileCache::reader`] decides it: past the
/// depot, each range — or whole read — counted as one
/// `depot_bypasses_total` however many parts shared storage cuts it
/// into; or through the depot, a miss filling by parts when `size` is
/// known. The depot's own reads that skip it go through here too, so
/// every bypass is counted in one place.
pub struct Reader<'a> {
    cache: &'a FileCache,
    /// Straight to shared storage.
    bypass: bool,
    /// The object's size, where the catalog knows it.
    size: Option<u64>,
}

impl Reader<'_> {
    /// Where this face's other verbs go.
    fn fs(&self) -> &dyn FileSystem {
        if self.bypass {
            self.cache.backing.as_ref()
        } else {
            self.cache
        }
    }
}

impl FileSystem for Reader<'_> {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        self.fs().write(path, data)
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        if !self.bypass {
            return self.cache.read_through(path, self.size);
        }
        self.cache.metrics.bypasses.inc();
        self.cache.backing.read(path)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        if !self.bypass {
            return self.cache.read_range_through(path, offset, len, self.size);
        }
        self.cache.metrics.bypasses.inc();
        self.cache.backing.read_range(path, offset, len)
    }

    /// Past the depot, one bypass per range, all sent as shared storage
    /// sends them (as one batch of parts, through `RetryFs`).
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        if !self.bypass {
            return self.cache.read_ranges_through(path, ranges, self.size);
        }
        self.cache.metrics.bypasses.add(ranges.len() as u64);
        self.cache.backing.read_ranges(path, ranges)
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.fs().size(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.fs().list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.fs().delete(path)
    }

    fn stats(&self) -> FsStats {
        self.fs().stats()
    }
}

/// Convenience constructor for an in-memory cache over any backing
/// store (tests, simulations).
pub fn mem_cache(
    backing: SharedFs,
    capacity_bytes: u64,
    registry: &Registry,
    node: &str,
) -> Arc<FileCache> {
    Arc::new(FileCache::new(
        Arc::new(eon_storage::MemFs::new()),
        backing,
        capacity_bytes,
        registry,
        node,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_storage::{MemFs, S3Config, S3SimFs};

    fn setup(capacity: u64) -> (Arc<MemFs>, FileCache) {
        let backing = Arc::new(MemFs::new());
        let cache = FileCache::new(
            Arc::new(MemFs::new()),
            backing.clone(),
            capacity,
            &Default::default(),
            "n0",
        );
        (backing, cache)
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn read_through_faults_in_once() {
        let (backing, cache) = setup(1000);
        backing.write("k", payload(10)).unwrap();
        assert_eq!(cache.read("k").unwrap().len(), 10);
        assert_eq!(cache.read("k").unwrap().len(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // backing GETs: 1 (the fault-in)
        assert_eq!(backing.stats().gets, 1);
    }

    #[test]
    fn put_through_writes_both() {
        let (backing, cache) = setup(1000);
        cache.put_through("k", payload(5)).unwrap();
        assert!(cache.contains("k"));
        assert_eq!(backing.read("k").unwrap().len(), 5);
        // Subsequent read is a pure hit: no backing GET.
        let gets = backing.stats().gets;
        cache.read("k").unwrap();
        assert_eq!(backing.stats().gets, gets);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (_, cache) = setup(30);
        cache.insert_local("a", payload(10)).unwrap();
        cache.insert_local("b", payload(10)).unwrap();
        cache.insert_local("c", payload(10)).unwrap();
        // Touch "a" so "b" is oldest, then overflow.
        cache.read_with("a", CacheMode::Normal).unwrap_or_default();
        cache.insert_local("d", payload(10)).unwrap();
        assert!(!cache.contains("b"), "b should be evicted");
        assert!(cache.contains("a") && cache.contains("c") && cache.contains("d"));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= 30);
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let (_, cache) = setup(25);
        cache.insert_local("pin", payload(10)).unwrap();
        cache.set_pinned("pin", true);
        cache.insert_local("x", payload(10)).unwrap();
        cache.insert_local("y", payload(10)).unwrap(); // evicts x, not pin
        assert!(cache.contains("pin"));
        assert!(!cache.contains("x"));
    }

    #[test]
    fn bypass_mode_skips_cache() {
        let (backing, cache) = setup(1000);
        backing.write("big", payload(100)).unwrap();
        cache.read_with("big", CacheMode::Bypass).unwrap();
        assert!(!cache.contains("big"));
        assert_eq!(cache.stats().bypasses, 1);
    }

    #[test]
    fn every_read_past_the_depot_counts_one_bypass_per_range() {
        let (backing, cache) = setup(50);
        backing.write("big", payload(100)).unwrap();
        backing.write("small", payload(10)).unwrap();
        // An object larger than the whole depot, read by a normal session.
        let oversize = cache.reader(CacheMode::Normal, Some(100));
        assert_eq!(oversize.read_range("big", 10, 5).unwrap().len(), 5);
        assert_eq!(cache.stats().bypasses, 1);
        // A bypass session's ranged read of an object that would fit.
        let bypass = cache.reader(CacheMode::Bypass, Some(10));
        assert_eq!(bypass.read_range("small", 0, 4).unwrap().len(), 4);
        assert_eq!(cache.stats().bypasses, 2);
        // A wave of three ranges is three bypasses; nothing was admitted.
        assert!(bypass.read_ranges("big", &[(0, 1), (10, 2), (20, 3)]).iter().all(|r| r.is_ok()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (0, 0, 5));
        assert!(!cache.contains("small") && !cache.contains("big"));
        // A read that fits goes through the depot: a miss, then a hit.
        let normal = cache.reader(CacheMode::Normal, Some(10));
        normal.read_range("small", 0, 4).unwrap();
        normal.read_range("small", 4, 4).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (1, 1, 5));
    }

    #[test]
    fn never_cache_prefix_respected() {
        let (backing, cache) = setup(1000);
        cache.never_cache_prefix("archive/");
        backing.write("archive/old", payload(10)).unwrap();
        cache.read("archive/old").unwrap();
        assert!(!cache.contains("archive/old"));
    }

    #[test]
    fn oversized_object_not_cached() {
        let (backing, cache) = setup(10);
        backing.write("huge", payload(100)).unwrap();
        assert_eq!(cache.read("huge").unwrap().len(), 100);
        assert!(!cache.contains("huge"));
    }

    #[test]
    fn mru_list_respects_budget_and_order() {
        let (_, cache) = setup(1000);
        for (k, n) in [("a", 10), ("b", 20), ("c", 30)] {
            cache.insert_local(k, payload(n)).unwrap();
        }
        // MRU order: c, b, a. Budget 55 fits c(30)+b(20) but skips a.
        let mru = cache.mru_list(55);
        assert_eq!(mru, vec!["c", "b"]);
        let all = cache.mru_list(1000);
        assert_eq!(all, vec!["c", "b", "a"]);
    }

    #[test]
    fn peer_warming_fills_cache() {
        let (backing, peer) = setup(1000);
        for k in ["f1", "f2", "f3"] {
            peer.put_through(k, payload(10)).unwrap();
        }
        let (_, newcomer) = {
            let cache = FileCache::new(
                Arc::new(MemFs::new()),
                backing.clone(),
                1000,
                &Default::default(),
                "n1",
            );
            (backing.clone(), cache)
        };
        let warmed = newcomer.warm_from(&peer.mru_list(25)).unwrap();
        assert_eq!(warmed, 2);
        assert!(newcomer.contains("f3") && newcomer.contains("f2"));
        // Missing files are skipped silently.
        assert_eq!(newcomer.warm_from(&["ghost".into()]).unwrap(), 0);
    }

    #[test]
    fn warm_from_respects_capacity_budget() {
        let (backing, peer) = setup(1000);
        for (k, n) in [("old", 40), ("mid", 40), ("new", 40)] {
            peer.put_through(k, payload(n)).unwrap();
        }
        // Newcomer can only hold two of the three files: warming must
        // stay within capacity and keep the *newest* ones.
        let newcomer =
            FileCache::new(Arc::new(MemFs::new()), backing, 80, &Default::default(), "n1");
        newcomer.warm_from(&peer.mru_list(1000)).unwrap();
        assert!(newcomer.used_bytes() <= 80);
        assert!(newcomer.contains("new") && newcomer.contains("mid"));
        assert!(!newcomer.contains("old"));
    }

    #[test]
    fn warm_from_skips_never_cache_prefixes() {
        let (backing, peer) = setup(1000);
        peer.put_through("archive/cold", payload(10)).unwrap();
        peer.put_through("hot", payload(10)).unwrap();
        let newcomer = FileCache::new(
            Arc::new(MemFs::new()),
            backing.clone(),
            1000,
            &Default::default(),
            "n1",
        );
        newcomer.never_cache_prefix("archive/");
        let gets = backing.stats().gets;
        let warmed = newcomer.warm_from(&peer.mru_list(1000)).unwrap();
        assert_eq!(warmed, 1);
        assert!(newcomer.contains("hot"));
        assert!(!newcomer.contains("archive/cold"));
        // The excluded file was not even fetched from shared storage.
        assert_eq!(backing.stats().gets, gets + 1);
    }

    #[test]
    fn warm_from_increments_warmup_metrics() {
        let (backing, peer) = setup(1000);
        peer.put_through("f1", payload(10)).unwrap();
        peer.put_through("f2", payload(30)).unwrap();
        let registry = Registry::new();
        let newcomer = FileCache::new(Arc::new(MemFs::new()), backing, 1000, &registry, "n1");
        newcomer.warm_from(&peer.mru_list(1000)).unwrap();
        let snap = registry.deterministic_snapshot();
        let metric = |name: &str| {
            snap.get(&format!("{name}{{node=\"n1\",subsystem=\"depot\"}}"))
                .and_then(|v| v.as_u64())
                .unwrap()
        };
        assert_eq!(metric("depot_warmup_files_total"), 2);
        assert_eq!(metric("depot_warmup_bytes_total"), 40);
    }

    #[test]
    fn clear_empties_everything() {
        let (_, cache) = setup(1000);
        cache.insert_local("a", payload(10)).unwrap();
        cache.insert_local("b", payload(10)).unwrap();
        cache.clear().unwrap();
        assert_eq!(cache.used_bytes(), 0);
        assert!(!cache.contains("a"));
    }

    #[test]
    fn ranged_reads_fault_in_whole_file() {
        let (backing, cache) = setup(1000);
        backing
            .write("obj", Bytes::from_static(b"0123456789"))
            .unwrap();
        let got = cache.read_range("obj", 2, 3).unwrap();
        assert_eq!(got.as_ref(), b"234");
        assert!(cache.contains("obj"), "whole file cached");
        // Second ranged read hits the cache only.
        let gets = backing.stats().gets;
        cache.read_range("obj", 5, 2).unwrap();
        assert_eq!(backing.stats().gets, gets);
    }

    #[test]
    fn delete_removes_both_copies() {
        let (backing, cache) = setup(1000);
        cache.put_through("k", payload(10)).unwrap();
        FileSystem::delete(&cache, "k").unwrap();
        assert!(!cache.contains("k"));
        assert!(!backing.exists("k").unwrap());
    }

    #[test]
    fn reinsert_same_key_updates_size_accounting() {
        let (_, cache) = setup(100);
        cache.insert_local("k", payload(10)).unwrap();
        cache.insert_local("k", payload(30)).unwrap();
        assert_eq!(cache.used_bytes(), 30);
    }

    /// A backing store whose every request takes `millis`, so
    /// concurrent misses reliably overlap.
    fn slow_backing(millis: u64) -> Arc<S3SimFs> {
        Arc::new(S3SimFs::new(S3Config {
            request_latency: std::time::Duration::from_millis(millis),
            ..S3Config::instant()
        }))
    }

    #[test]
    fn singleflight_dedups_concurrent_misses() {
        let backing = slow_backing(40);
        backing.write("k", payload(10)).unwrap();
        let cache = Arc::new(FileCache::new(
            Arc::new(MemFs::new()),
            backing.clone(),
            1000,
            &Default::default(),
            "n0",
        ));
        const N: usize = 6;
        let barrier = Arc::new(std::sync::Barrier::new(N));
        let mut handles = Vec::new();
        for _ in 0..N {
            let cache = cache.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache.read_with("k", CacheMode::Normal).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 10);
        }
        let s = cache.stats();
        assert_eq!(backing.stats().gets, 1, "one backing GET for N misses");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits as usize, N - 1);
        assert_eq!(s.singleflight_waits as usize, N - 1);
    }

    #[test]
    fn never_cache_keys_fetch_once_per_read_without_dedup() {
        let backing = slow_backing(20);
        backing.write("tmp/k", payload(10)).unwrap();
        let cache = Arc::new(FileCache::new(
            Arc::new(MemFs::new()),
            backing.clone(),
            1000,
            &Default::default(),
            "n0",
        ));
        cache.never_cache_prefix("tmp/");
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.read_with("tmp/k", CacheMode::Normal).unwrap()
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(backing.stats().gets, 2, "a never-cache key is fetched by every read");
        assert_eq!(cache.stats().singleflight_waits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn singleflight_waiters_share_ranged_fault_in() {
        let backing = slow_backing(40);
        backing.write("obj", Bytes::from_static(b"0123456789")).unwrap();
        let cache = Arc::new(FileCache::new(
            Arc::new(MemFs::new()),
            backing.clone(),
            1000,
            &Default::default(),
            "n0",
        ));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let cache = cache.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.read_range("obj", i * 2, 2).unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap().len(), 2);
        }
        let s = cache.stats();
        assert_eq!(backing.stats().gets, 1, "one fault-in for all ranges");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3, "a ranged read is one hit or one miss, like a whole read");
    }

    /// The catalog's size turns a miss into one ranged read of the whole
    /// object, which shared storage sends as parts: still one miss in
    /// one single-flight slot. A bypassed run is one bypass however many
    /// parts it goes out as.
    #[test]
    fn a_sized_miss_fills_by_parts_in_one_slot() {
        use eon_storage::{RetryFs, RetryPolicy, PART_BYTES};
        let registry = Registry::new();
        let sim = S3SimFs::with_metrics(
            S3Config { request_latency: std::time::Duration::from_millis(40), ..S3Config::instant() },
            &registry,
        );
        let size = 3 * PART_BYTES + 1;
        let body = Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        sim.write("big", body.clone()).unwrap();
        sim.write("short", payload(100)).unwrap();
        let backing = Arc::new(RetryFs::new(Arc::new(sim), RetryPolicy::default(), &registry, None));
        let cache = FileCache::new(Arc::new(MemFs::new()), backing, 1 << 20, &registry, "n0");
        let billed = registry.counter("s3_requests_total", &[("subsystem", "s3"), ("verb", "get")]);

        const N: u64 = 4;
        let barrier = std::sync::Barrier::new(N as usize);
        std::thread::scope(|s| {
            for i in 0..N {
                let (cache, barrier, body) = (&cache, &barrier, &body);
                s.spawn(move || {
                    barrier.wait();
                    let got = cache.reader(CacheMode::Normal, Some(size)).read_range("big", i * 50_000, 100);
                    assert_eq!(got.unwrap(), body.slice(i as usize * 50_000..i as usize * 50_000 + 100));
                });
            }
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.singleflight_waits), (1, N - 1, N - 1), "one miss, one slot");
        assert_eq!(billed.get(), 4, "one fill of four parts");
        assert!(cache.contains("big"));
        assert_eq!(cache.local.read("big").unwrap(), body);

        // A bypassed run of three parts: one bypass, three GETs.
        let run = (10, 2 * PART_BYTES + 5);
        let got = cache.reader(CacheMode::Bypass, Some(size)).read_ranges("big", &[run]);
        assert_eq!(got[0].as_ref().unwrap(), &body.slice(10..10 + run.1 as usize));
        assert_eq!(cache.stats().bypasses, 1);
        assert_eq!(billed.get(), 4 + 3);

        // An object shorter than its catalog size is `Corrupt`, not kept.
        let short = cache.reader(CacheMode::Normal, Some(200)).read_range("short", 0, 10);
        assert!(matches!(short, Err(EonError::Corrupt(_))), "{short:?}");
        assert!(!cache.contains("short"));
    }

    #[test]
    fn a_failed_fill_ends_the_batch() {
        let (backing, cache) = setup(1000);
        let got = cache.read_ranges("missing", &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|r| matches!(r, Err(EonError::NotFound(_)))), "{got:?}");
        assert_eq!(backing.stats().gets, 1, "one failed fill, not one a range");
    }

    #[test]
    fn unadmitted_ranged_miss_is_one_get() {
        // Larger than the whole depot: never admitted, and the range is
        // cut from the bytes the miss already fetched.
        let (backing, cache) = setup(5);
        backing.write("huge", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(cache.read_range("huge", 2, 3).unwrap().as_ref(), b"234");
        assert!(!cache.contains("huge"));
        assert_eq!(backing.stats().gets, 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
    }

    /// Hits racing evictions: the depot's residency check and its local
    /// read must be one step, or an eviction between them surfaces as
    /// `NotFound`. Four threads hammer a working set ten times the
    /// capacity (some objects larger than the whole depot) with whole
    /// reads, ranged reads and `size` calls against a zero-latency
    /// backing store, so fills, evictions and hits interleave freely.
    #[test]
    fn concurrent_reads_never_lose_a_hit_to_an_eviction() {
        const THREADS: u64 = 4;
        const CALLS: u64 = 20_000;
        const KEYS: u64 = 40;
        const CAPACITY: u64 = 1_000;
        // 37 objects of 250 B and three of 1 250 B: 13 kB in all.
        let len_of = |k: u64| if k % 16 == 5 { 1_250 } else { 250 };
        let body = |k: u64| Bytes::from((0..len_of(k)).map(|i| (i + k) as u8).collect::<Vec<u8>>());
        let (backing, cache) = setup(CAPACITY);
        for k in 0..KEYS {
            backing.write(&format!("data/{k}"), body(k)).unwrap();
        }
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                    start.wait();
                    for call in 0..CALLS {
                        // xorshift64: each thread walks its own key order.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        let (key, want) = (format!("data/{k}"), body(k));
                        match call % 3 {
                            0 => assert_eq!(cache.read(&key).unwrap(), want, "{key}"),
                            1 => {
                                let off = (x >> 32) % want.len() as u64;
                                let got = cache.read_range(&key, off, 64).unwrap();
                                let end = (off as usize + 64).min(want.len());
                                assert_eq!(got, want.slice(off as usize..end), "{key}@{off}");
                            }
                            _ => assert_eq!(cache.size(&key).unwrap(), want.len() as u64, "{key}"),
                        }
                    }
                });
            }
        });
        assert!(cache.used_bytes() <= CAPACITY);
        let s = cache.stats();
        let reads = THREADS * (CALLS - CALLS / 3);
        assert_eq!(s.hits + s.misses + s.bypasses, reads, "every read is a hit or a miss");
        for k in 0..KEYS {
            let key = format!("data/{k}");
            if cache.contains(&key) {
                assert_eq!(cache.local.read(&key).unwrap(), body(k), "{key} registered without bytes");
            }
        }
    }
}
