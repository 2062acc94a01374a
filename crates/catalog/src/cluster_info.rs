//! `cluster_info` (paper §3.5): the commit point for revive.
//!
//! A running cluster's elected leader periodically writes this file with
//! the consensus truncation version, a lease, and the incarnation id.
//! Revive reads it to learn where to truncate and refuses to start while
//! the lease is live (another cluster is probably running); writing a
//! new `cluster_info` with a fresh incarnation id *is* the atomic
//! commit of a revive. The paper's file is JSON; ours is framed and
//! checksummed like every catalog file ([`crate::codec`]).

use eon_types::{EonError, Result, TxnVersion};

use eon_storage::FileSystem;

use crate::codec::{decode_cluster_info, encode_cluster_info};

/// The shared-storage key. A single well-known object, deliberately not
/// SID-named: there is exactly one per database.
pub const CLUSTER_INFO_KEY: &str = "cluster_info";

/// Contents of `cluster_info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Consensus truncation version: the highest version consistent
    /// with respect to every shard (Fig 5).
    pub truncation_version: TxnVersion,
    /// Incarnation id of the cluster that wrote this (hex).
    pub incarnation: String,
    /// Database name, for operator sanity.
    pub database: String,
    /// Wall-clock write time, milliseconds since the epoch.
    pub timestamp_ms: u64,
    /// Lease expiry: revive aborts before this instant (§3.5).
    pub lease_until_ms: u64,
    /// Node ids of the writing cluster.
    pub nodes: Vec<u64>,
}

impl ClusterInfo {
    /// Read from shared storage; `Ok(None)` when no cluster has ever
    /// written one (fresh database).
    pub fn read(fs: &dyn FileSystem) -> Result<Option<ClusterInfo>> {
        match fs.read(CLUSTER_INFO_KEY) {
            Ok(data) => decode_cluster_info(&data).map(Some),
            Err(EonError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Write (replacing any previous version — this is the one object
    /// the engine intentionally overwrites).
    pub fn write(&self, fs: &dyn FileSystem) -> Result<()> {
        fs.write(CLUSTER_INFO_KEY, encode_cluster_info(self))
    }

    /// Is the lease still held at `now_ms`?
    pub fn lease_live(&self, now_ms: u64) -> bool {
        now_ms < self.lease_until_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_storage::MemFs;

    fn info() -> ClusterInfo {
        ClusterInfo {
            truncation_version: TxnVersion(42),
            incarnation: "abc123".into(),
            database: "tpch".into(),
            timestamp_ms: 1_000,
            lease_until_ms: 2_000,
            nodes: vec![1, 2, 3],
        }
    }

    #[test]
    fn roundtrip_via_shared_storage() {
        let fs = MemFs::new();
        assert_eq!(ClusterInfo::read(&fs).unwrap(), None);
        info().write(&fs).unwrap();
        assert_eq!(ClusterInfo::read(&fs).unwrap(), Some(info()));
    }

    #[test]
    fn lease_check() {
        let i = info();
        assert!(i.lease_live(1_500));
        assert!(!i.lease_live(2_000));
        assert!(!i.lease_live(9_999));
    }

    #[test]
    fn overwrite_updates_commit_point() {
        let fs = MemFs::new();
        info().write(&fs).unwrap();
        let mut next = info();
        next.incarnation = "def456".into();
        next.truncation_version = TxnVersion(50);
        next.write(&fs).unwrap();
        let got = ClusterInfo::read(&fs).unwrap().unwrap();
        assert_eq!(got.incarnation, "def456");
        assert_eq!(got.truncation_version, TxnVersion(50));
    }

    #[test]
    fn corrupt_file_is_error() {
        let fs = MemFs::new();
        fs.write(CLUSTER_INFO_KEY, bytes::Bytes::from_static(b"}{"))
            .unwrap();
        assert!(ClusterInfo::read(&fs).is_err());
    }
}
