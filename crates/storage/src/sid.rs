//! Globally unique storage identifiers (paper §5.1, Fig 7).
//!
//! A SID combines a 120-bit random *node instance id* (regenerated every
//! time a node process starts) with a 64-bit *local id* (the catalog OID
//! counter). Any node can mint SIDs with no coordination, all nodes
//! write into one flat shared-storage namespace without collisions, and
//! cloned clusters keep generating mutually-unique names because the
//! instance id is tied to the process lifetime.
//!
//! File keys use a *hash-based prefix scheme* (§5.3): real S3 shards its
//! keyspace by prefix, so leading with an incrementing counter would
//! hotspot one partition. We lead with two hash-derived hex characters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngCore;
/// The 120-bit node instance identifier. Stored in a u128 with the top
/// byte forced to zero so exactly 120 bits carry entropy, as in Fig 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u128);

const INSTANCE_MASK: u128 = (1u128 << 120) - 1;

impl InstanceId {
    /// Generate a fresh strongly-random instance id (the paper draws
    /// from /dev/random; `OsRng`-seeded `rand` is the Rust equivalent).
    pub fn generate() -> Self {
        let mut bytes = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut bytes);
        InstanceId(u128::from_le_bytes(bytes) & INSTANCE_MASK)
    }

    /// Deterministic instance id for tests and reproducible simulations.
    pub fn from_seed(seed: u64) -> Self {
        // Spread the seed over the 120 bits with a couple of odd
        // multipliers; uniqueness across distinct seeds is what matters.
        let a = (seed as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let b = (seed as u128).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) << 64;
        InstanceId((a ^ b) & INSTANCE_MASK)
    }

    /// The 30-hex-char string form used as a file-name component.
    pub fn to_hex(self) -> String {
        format!("{:030x}", self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A globally unique storage identifier: instance id + local OID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId {
    pub instance: InstanceId,
    pub local: u64,
}

impl StorageId {
    pub fn new(instance: InstanceId, local: u64) -> Self {
        StorageId { instance, local }
    }

    /// The flat-namespace object key for this SID:
    /// `data/<2-hex hash prefix>/<instance-hex>_<local-hex>`.
    ///
    /// The two leading characters are derived by hashing the SID, so
    /// consecutive local ids scatter across 256 prefixes instead of
    /// hotspotting one S3 partition (§5.3).
    pub fn object_key(&self) -> String {
        let name = format!("{}_{:016x}", self.instance.to_hex(), self.local);
        format!("data/{:02x}/{}", Self::prefix_byte(&name), name)
    }

    /// Key with an extra suffix, for multi-file storage objects
    /// (per-column files within one ROS container).
    pub fn object_key_with(&self, suffix: &str) -> String {
        let name = format!("{}_{:016x}.{suffix}", self.instance.to_hex(), self.local);
        format!("data/{:02x}/{}", Self::prefix_byte(&name), name)
    }

    fn prefix_byte(name: &str) -> u8 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Final avalanche so differences in the *last* bytes of the name
        // (the incrementing local id) reach every output bit.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h >> 32) as u8
    }

    /// Whether `key` was minted by the node instance `instance`. Used by
    /// the §6.5 leak scan to skip files belonging to live nodes.
    pub fn key_has_instance(key: &str, instance: InstanceId) -> bool {
        key.rsplit('/')
            .next()
            .map(|base| base.starts_with(&instance.to_hex()))
            .unwrap_or(false)
    }
}

impl fmt::Display for StorageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{:016x}", self.instance.to_hex(), self.local)
    }
}

/// Mints SIDs for one node process: a fixed instance id plus an
/// incrementing local counter, exactly the Fig 7 scheme.
pub struct SidFactory {
    instance: InstanceId,
    counter: AtomicU64,
}

impl SidFactory {
    pub fn new(instance: InstanceId) -> Self {
        SidFactory {
            instance,
            counter: AtomicU64::new(1),
        }
    }

    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    pub fn next(&self) -> StorageId {
        StorageId::new(self.instance, self.counter.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn instance_id_is_120_bits() {
        for seed in 0..32 {
            assert_eq!(InstanceId::from_seed(seed).0 >> 120, 0);
        }
        assert_eq!(InstanceId::generate().0 >> 120, 0);
        assert_eq!(InstanceId::from_seed(1).to_hex().len(), 30);
    }

    #[test]
    fn factory_mints_unique_sids() {
        let f = SidFactory::new(InstanceId::from_seed(1));
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(f.next()));
        }
    }

    #[test]
    fn different_instances_never_collide() {
        let f1 = SidFactory::new(InstanceId::from_seed(1));
        let f2 = SidFactory::new(InstanceId::from_seed(2));
        // Same local counters, different instances: distinct keys — the
        // property that makes cluster cloning safe (§5.1).
        for _ in 0..100 {
            assert_ne!(f1.next().object_key(), f2.next().object_key());
        }
    }

    #[test]
    fn keys_scatter_over_prefixes() {
        let f = SidFactory::new(InstanceId::from_seed(3));
        let mut prefixes = HashSet::new();
        for _ in 0..512 {
            let key = f.next().object_key();
            // key = data/<xx>/<name>
            prefixes.insert(key.split('/').nth(1).unwrap().to_owned());
        }
        // With 512 sequential ids over 256 buckets we expect wide
        // coverage; a counter-prefix scheme would produce exactly 1-2.
        assert!(prefixes.len() > 100, "only {} prefixes", prefixes.len());
    }

    #[test]
    fn instance_prefix_detection() {
        let inst = InstanceId::from_seed(9);
        let other = InstanceId::from_seed(10);
        let f = SidFactory::new(inst);
        let key = f.next().object_key();
        assert!(StorageId::key_has_instance(&key, inst));
        assert!(!StorageId::key_has_instance(&key, other));
    }

    #[test]
    fn suffixed_keys_differ_from_plain() {
        let sid = StorageId::new(InstanceId::from_seed(4), 7);
        assert_ne!(sid.object_key(), sid.object_key_with("col0"));
        assert!(sid.object_key_with("col0").ends_with(".col0"));
    }
}
