//! In-memory object store. The reference implementation of the UDFS
//! trait: unit tests and the S3 simulator both build on it.

use std::collections::BTreeMap;

use bytes::Bytes;
use eon_types::{EonError, Result};
use parking_lot::Mutex;

use crate::fs::{FileSystem, FsStats};

/// A `BTreeMap`-backed object store. Keys are kept sorted so `list`
/// returns prefix ranges cheaply, like S3's paginated LIST.
pub struct MemFs {
    inner: Mutex<Inner>,
}

struct Inner {
    objects: BTreeMap<String, Bytes>,
    stats: FsStats,
}

impl MemFs {
    pub fn new() -> Self {
        MemFs {
            inner: Mutex::new(Inner {
                objects: BTreeMap::new(),
                stats: FsStats::default(),
            }),
        }
    }

    /// Number of stored objects (test helper).
    pub fn object_count(&self) -> usize {
        self.inner.lock().objects.len()
    }

    /// Total stored bytes (test helper).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().objects.values().map(|b| b.len() as u64).sum()
    }
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FileSystem for MemFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        let mut g = self.inner.lock();
        g.stats.puts += 1;
        g.stats.bytes_written += data.len() as u64;
        g.objects.insert(path.to_owned(), data);
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Bytes> {
        let mut g = self.inner.lock();
        g.stats.gets += 1;
        match g.objects.get(path).cloned() {
            Some(b) => {
                g.stats.bytes_read += b.len() as u64;
                Ok(b)
            }
            None => Err(EonError::NotFound(path.to_owned())),
        }
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        // Bill only the bytes actually served: the trait default reads
        // the whole object, which would make every ranged GET count as
        // a full-object transfer in [`FsStats`] and swamp the byte
        // accounting the scan and depot measurements rely on.
        let mut g = self.inner.lock();
        g.stats.gets += 1;
        match g.objects.get(path) {
            Some(b) => {
                let start = (offset as usize).min(b.len());
                let end = ((offset + len) as usize).min(b.len());
                let s = b.slice(start..end);
                g.stats.bytes_read += s.len() as u64;
                Ok(s)
            }
            None => Err(EonError::NotFound(path.to_owned())),
        }
    }

    fn size(&self, path: &str) -> Result<u64> {
        let mut g = self.inner.lock();
        g.stats.lists += 1;
        g.objects
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| EonError::NotFound(path.to_owned()))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut g = self.inner.lock();
        g.stats.lists += 1;
        Ok(g.objects
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn exists(&self, path: &str) -> Result<bool> {
        // Direct key probe; the trait default would list the whole
        // prefix range. Still billed as a list, like S3's LIST-based
        // existence check (§5.3).
        let mut g = self.inner.lock();
        g.stats.lists += 1;
        Ok(g.objects.contains_key(path))
    }

    fn delete(&self, path: &str) -> Result<()> {
        let mut g = self.inner.lock();
        g.stats.deletes += 1;
        g.objects.remove(path);
        Ok(())
    }

    fn stats(&self) -> FsStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let fs = MemFs::new();
        fs.write("x/y/z", Bytes::from_static(b"data")).unwrap();
        assert_eq!(fs.read("x/y/z").unwrap().as_ref(), b"data");
        assert_eq!(fs.size("x/y/z").unwrap(), 4);
    }

    #[test]
    fn read_missing_is_not_found() {
        let fs = MemFs::new();
        assert!(matches!(fs.read("nope"), Err(EonError::NotFound(_))));
        assert!(matches!(fs.size("nope"), Err(EonError::NotFound(_))));
    }

    #[test]
    fn overwrite_replaces() {
        let fs = MemFs::new();
        fs.write("k", Bytes::from_static(b"one")).unwrap();
        fs.write("k", Bytes::from_static(b"twotwo")).unwrap();
        assert_eq!(fs.read("k").unwrap().as_ref(), b"twotwo");
        assert_eq!(fs.object_count(), 1);
    }

    #[test]
    fn list_prefix_sorted() {
        let fs = MemFs::new();
        for k in ["b/2", "a/1", "a/3", "a/2", "c"] {
            fs.write(k, Bytes::new()).unwrap();
        }
        assert_eq!(fs.list("a/").unwrap(), vec!["a/1", "a/2", "a/3"]);
        assert_eq!(fs.list("").unwrap().len(), 5);
        assert!(fs.list("zz").unwrap().is_empty());
    }

    #[test]
    fn delete_is_idempotent() {
        let fs = MemFs::new();
        fs.write("k", Bytes::from_static(b"v")).unwrap();
        fs.delete("k").unwrap();
        fs.delete("k").unwrap(); // second delete: no error
        assert!(!fs.exists("k").unwrap());
    }

    #[test]
    fn stats_track_requests() {
        let fs = MemFs::new();
        fs.write("k", Bytes::from_static(b"abc")).unwrap();
        fs.read("k").unwrap();
        fs.list("").unwrap();
        fs.delete("k").unwrap();
        let s = fs.stats();
        assert_eq!((s.puts, s.gets, s.lists, s.deletes), (1, 1, 1, 1));
        assert_eq!(s.bytes_written, 3);
        assert_eq!(s.bytes_read, 3);
    }
}
