//! Property test for the depot file cache (DESIGN.md "Depot").
//!
//! A seeded op sequence (reads, bypass reads, write-through puts,
//! local inserts, pins, explicit evictions) runs against both a real
//! [`FileCache`] and a tiny reference model that mirrors the documented
//! semantics. After every op the two must agree, which pins the four
//! invariants the engine leans on:
//!
//! * used bytes never exceed capacity (the pinnable set is sized so
//!   the "everything pinned" overshoot escape hatch can't trigger);
//! * pinned objects survive LRU eviction;
//! * `mru_list` reflects true recency order (LRU discipline);
//! * `hits + misses + bypasses` equals the number of whole-object
//!   reads issued, and the registry counters agree with `CacheStats`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use eon_cache::{mem_cache, CacheMode, FileCache};
use eon_db as _;
use eon_obs::Registry;
use eon_storage::{MemFs, SharedFs};
use proptest::collection::vec;
use proptest::prelude::*;

/// Cacheable keys `k0..k7` with sizes 10, 20, …, 80 bytes.
const KEYS: usize = 8;
/// Only `k0`/`k1` (10 + 20 = 30 bytes) may be pinned, so with
/// capacity ≥ 120 the eviction loop always finds an unpinned victim
/// and `used ≤ capacity` holds unconditionally.
const PINNABLE: usize = 2;
/// Keys under the never-cache prefix (§5.2 "never cache table T2").
const TMP_KEYS: [&str; 2] = ["tmp/a", "tmp/b"];

fn key(i: usize) -> String {
    format!("k{i}")
}

fn size_of(i: usize) -> u64 {
    (i as u64 + 1) * 10
}

#[derive(Clone, Debug)]
enum Op {
    /// `read_with(Normal)`: hit or miss + fault-in.
    Read(usize),
    /// `read_with(Bypass)`: straight to backing, no cache mutation.
    Bypass(usize),
    /// Write-through put (load path).
    Put(usize),
    /// Cache-only insert (fault-in / peer warm-up path).
    Insert(usize),
    /// Pin or unpin one of the pinnable keys.
    Pin(usize, bool),
    /// Explicit removal (local refcount hit zero, §6.5).
    Evict(usize),
    /// Normal read of a never-cache key: behaves like a bypass-free
    /// miss that is never admitted.
    ReadTmp(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..KEYS).prop_map(Op::Read),
        (0usize..KEYS).prop_map(Op::Bypass),
        (0usize..KEYS).prop_map(Op::Put),
        (0usize..KEYS).prop_map(Op::Insert),
        (0usize..PINNABLE * 2).prop_map(|v| Op::Pin(v / 2, v % 2 == 0)),
        (0usize..KEYS).prop_map(Op::Evict),
        (0usize..TMP_KEYS.len()).prop_map(Op::ReadTmp),
    ]
}

/// Reference model mirroring the cache's documented semantics.
struct Model {
    capacity: u64,
    /// key → (size, pinned)
    entries: BTreeMap<String, (u64, bool)>,
    /// Oldest → newest.
    recency: Vec<String>,
    used: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    evictions: u64,
    reads: u64,
}

impl Model {
    fn new(capacity: u64) -> Self {
        Model {
            capacity,
            entries: BTreeMap::new(),
            recency: Vec::new(),
            used: 0,
            hits: 0,
            misses: 0,
            bypasses: 0,
            evictions: 0,
            reads: 0,
        }
    }

    fn touch(&mut self, key: &str) {
        self.recency.retain(|k| k != key);
        self.recency.push(key.to_owned());
    }

    fn insert(&mut self, key: &str, size: u64) {
        if key.starts_with("tmp/") || size > self.capacity {
            return;
        }
        if let Some((old, _)) = self.entries.remove(key) {
            self.recency.retain(|k| k != key);
            self.used -= old;
        }
        while self.used + size > self.capacity {
            let victim = self
                .recency
                .iter()
                .find(|k| !self.entries[*k].1)
                .cloned();
            match victim {
                Some(v) => {
                    let (sz, _) = self.entries.remove(&v).unwrap();
                    self.recency.retain(|k| k != &v);
                    self.used -= sz;
                    self.evictions += 1;
                }
                None => break,
            }
        }
        self.entries.insert(key.to_owned(), (size, false));
        self.recency.push(key.to_owned());
        self.used += size;
    }

    fn read(&mut self, key: &str, size: u64) {
        self.reads += 1;
        if self.entries.contains_key(key) {
            self.hits += 1;
            self.touch(key);
        } else {
            self.misses += 1;
            self.insert(key, size);
        }
    }

    fn evict(&mut self, key: &str) {
        if let Some((size, _)) = self.entries.remove(key) {
            self.recency.retain(|k| k != key);
            self.used -= size;
        }
    }
}

fn apply(cache: &FileCache, model: &mut Model, op: &Op) {
    match op {
        Op::Read(i) => {
            let data = cache.read_with(&key(*i), CacheMode::Normal).unwrap();
            assert_eq!(data.len() as u64, size_of(*i));
            model.read(&key(*i), size_of(*i));
        }
        Op::Bypass(i) => {
            cache.read_with(&key(*i), CacheMode::Bypass).unwrap();
            model.reads += 1;
            model.bypasses += 1;
        }
        Op::Put(i) => {
            cache
                .put_through(&key(*i), Bytes::from(vec![*i as u8; size_of(*i) as usize]))
                .unwrap();
            model.insert(&key(*i), size_of(*i));
        }
        Op::Insert(i) => {
            cache
                .insert_local(&key(*i), Bytes::from(vec![*i as u8; size_of(*i) as usize]))
                .unwrap();
            model.insert(&key(*i), size_of(*i));
        }
        Op::Pin(i, pinned) => {
            cache.set_pinned(&key(*i), *pinned);
            if let Some(e) = model.entries.get_mut(&key(*i)) {
                e.1 = *pinned;
            }
        }
        Op::Evict(i) => {
            cache.evict(&key(*i)).unwrap();
            model.evict(&key(*i));
        }
        Op::ReadTmp(i) => {
            let data = cache.read_with(TMP_KEYS[*i], CacheMode::Normal).unwrap();
            assert_eq!(data.len(), 15);
            model.read(TMP_KEYS[*i], 15);
        }
    }
}

fn check(cache: &FileCache, model: &Model) {
    let stats = cache.stats();
    assert_eq!(cache.used_bytes(), model.used, "used bytes diverged");
    assert!(
        cache.used_bytes() <= model.capacity,
        "cache over capacity: {} > {}",
        cache.used_bytes(),
        model.capacity
    );
    for (k, (_, pinned)) in &model.entries {
        assert!(cache.contains(k), "model entry {k} missing from cache");
        if *pinned {
            assert!(cache.contains(k), "pinned key {k} was evicted");
        }
    }
    for i in 0..KEYS {
        assert_eq!(
            cache.contains(&key(i)),
            model.entries.contains_key(&key(i)),
            "containment diverged on {}",
            key(i)
        );
    }
    for k in TMP_KEYS {
        assert!(!cache.contains(k), "never-cache key {k} was admitted");
    }
    // LRU discipline: mru_list with an unlimited budget is exactly the
    // model's recency order, newest first.
    let mru: Vec<String> = model.recency.iter().rev().cloned().collect();
    assert_eq!(cache.mru_list(u64::MAX / 2), mru, "recency order diverged");
    assert_eq!(stats.hits, model.hits);
    assert_eq!(stats.misses, model.misses);
    assert_eq!(stats.bypasses, model.bypasses);
    assert_eq!(stats.evictions, model.evictions);
    assert_eq!(
        stats.hits + stats.misses + stats.bypasses,
        model.reads,
        "hits + misses + bypasses must equal whole-object reads"
    );
}

proptest! {
    #[test]
    fn cache_agrees_with_reference_model(
        capacity in 120u64..200,
        ops in vec(op_strategy(), 1..300),
    ) {
        let backing: SharedFs = Arc::new(MemFs::new());
        for i in 0..KEYS {
            backing
                .write(&key(i), Bytes::from(vec![i as u8; size_of(i) as usize]))
                .unwrap();
        }
        for k in TMP_KEYS {
            backing.write(k, Bytes::from(vec![9u8; 15])).unwrap();
        }
        let registry = Registry::new();
        let cache = mem_cache(backing, capacity, &registry, "prop");
        cache.never_cache_prefix("tmp/");

        let mut model = Model::new(capacity);
        for op in &ops {
            apply(&cache, &mut model, op);
            check(&cache, &model);
        }

        // The registry view must agree with CacheStats at the end.
        let snap = registry.deterministic_snapshot();
        let metric = |name: &str| {
            snap.get(&format!("{name}{{node=\"prop\",subsystem=\"depot\"}}"))
                .and_then(|v| v.as_u64())
                .unwrap_or(u64::MAX)
        };
        prop_assert_eq!(metric("depot_hits_total"), model.hits);
        prop_assert_eq!(metric("depot_misses_total"), model.misses);
        prop_assert_eq!(metric("depot_bypasses_total"), model.bypasses);
        prop_assert_eq!(metric("depot_evictions_total"), model.evictions);
        prop_assert_eq!(metric("depot_used_bytes"), model.used);
    }
}
