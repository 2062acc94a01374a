//! The UDFS API (paper §5.3, Fig 9): one trait through which the
//! execution engine, catalog, and cache reach any filesystem.
//!
//! The API is deliberately shaped like an object store, not POSIX:
//! whole-object `write`, no rename, no append — because "S3 objects are
//! immutable" and Vertica's load path was reworked to not need those
//! operations (§5.3). `exists` is implemented via the list API rather
//! than a HEAD request, mirroring the paper's read-after-write
//! consistency workaround.

use std::sync::Arc;

use bytes::Bytes;
use eon_types::Result;

/// Counters every filesystem keeps. For [`crate::S3SimFs`] these also
/// drive the dollar-cost accounting (§5: "requests cost money").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FsStats {
    pub gets: u64,
    pub puts: u64,
    pub lists: u64,
    pub deletes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Accumulated request cost in nano-dollars (0 for local
    /// filesystems).
    pub cost_nanodollars: u64,
}

impl FsStats {
    pub fn requests(&self) -> u64 {
        self.gets + self.puts + self.lists + self.deletes
    }
}

/// The user-defined filesystem abstraction.
///
/// All paths are `/`-separated keys relative to the filesystem root; the
/// empty prefix lists everything. Implementations must be `Send + Sync`:
/// every node of the cluster shares one instance of the shared storage.
pub trait FileSystem: Send + Sync {
    /// Create or replace the object at `path` with `data`. Whole-object
    /// semantics: there is no append, matching S3 (§5.3).
    fn write(&self, path: &str, data: Bytes) -> Result<()>;

    /// Read the entire object.
    fn read(&self, path: &str) -> Result<Bytes>;

    /// Read `len` bytes starting at `offset`. Default implementation
    /// reads the whole object and slices; the backends override it so
    /// a ranged read bills and moves only its range.
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let all = self.read(path)?;
        let start = (offset as usize).min(all.len());
        let end = ((offset + len) as usize).min(all.len());
        Ok(all.slice(start..end))
    }

    /// Read several ranges of one object as one batch: one result per
    /// `(offset, len)`, in order, each as [`read_range`](Self::read_range)
    /// would answer it — so a caller can re-issue only the ranges that
    /// failed. The default reads them one after another, which suits a
    /// local store. [`crate::S3SimFs`] serves a batch as concurrent
    /// requests, and [`crate::RetryFs`], through which every
    /// shared-storage read passes, cuts long ranges into parts and
    /// retries each part on its own.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Vec<Result<Bytes>> {
        ranges.iter().map(|&(offset, len)| self.read_range(path, offset, len)).collect()
    }

    /// Object size in bytes.
    fn size(&self, path: &str) -> Result<u64>;

    /// All keys starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Existence check. Per §5.3 Vertica avoids HEAD (it poisons
    /// read-after-write consistency) and uses the list API instead; the
    /// default implementation does exactly that.
    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.list(path)?.iter().any(|k| k == path))
    }

    /// Delete the object. Deleting a missing object is not an error
    /// (S3 semantics), so the delete-file protocol of §6.5 is idempotent.
    fn delete(&self, path: &str) -> Result<()>;

    /// Snapshot of the request counters.
    fn stats(&self) -> FsStats;
}

/// Shared handle to a filesystem. Nodes, caches, and services all hold
/// clones of this.
pub type SharedFs = Arc<dyn FileSystem>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFs;

    #[test]
    fn exists_matches_exact_keys_only() {
        let fs = MemFs::new();
        fs.write("a/b", Bytes::from_static(b"x")).unwrap();
        assert!(fs.exists("a/b").unwrap());
        assert!(!fs.exists("a").unwrap()); // prefix but not a key
        assert!(!fs.exists("a/b/c").unwrap());
    }

    #[test]
    fn default_read_range_slices() {
        let fs = MemFs::new();
        fs.write("k", Bytes::from_static(b"hello world")).unwrap();
        assert_eq!(fs.read_range("k", 6, 5).unwrap().as_ref(), b"world");
        // Out-of-bounds clamps rather than erroring, like a short read.
        assert_eq!(fs.read_range("k", 6, 100).unwrap().as_ref(), b"world");
        assert_eq!(fs.read_range("k", 100, 5).unwrap().len(), 0);
    }

    #[test]
    fn default_read_ranges_reads_each_range_in_order() {
        let fs = MemFs::new();
        fs.write("k", Bytes::from_static(b"hello world")).unwrap();
        let got: Vec<Bytes> = fs.read_ranges("k", &[(6, 5), (0, 5), (6, 100)]).into_iter().collect::<Result<_>>().unwrap();
        let got: Vec<&[u8]> = got.iter().map(|b| b.as_ref()).collect();
        assert_eq!(got, [&b"world"[..], b"hello", b"world"]);
        assert_eq!(fs.stats().gets, 3);
        assert!(fs.read_ranges("k", &[]).is_empty());
        assert_eq!(fs.stats().gets, 3, "no range, no request");
    }

    #[test]
    fn stats_requests_sum() {
        let s = FsStats {
            gets: 1,
            puts: 2,
            lists: 3,
            deletes: 4,
            ..Default::default()
        };
        assert_eq!(s.requests(), 10);
    }
}
