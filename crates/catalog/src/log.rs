//! Transaction-log records and checkpoints (paper §2.4).
//!
//! "Transaction commit results in transaction logs appended to a redo
//! log … broken into multiple files but totally ordered with an
//! incrementing version counter. When the total transaction log size
//! exceeds a threshold, the catalog writes out a checkpoint … Vertica
//! retains two checkpoints."
//!
//! Records serialize as JSON — catalog metadata is small relative to
//! data, and a self-describing format keeps revive debuggable, which is
//! worth more than bytes here.

use bytes::Bytes;
use eon_types::{EonError, Result, TxnVersion};
use serde::{Deserialize, Serialize};

use crate::objects::CatalogOp;
use crate::state::CatalogState;

/// One committed transaction: the ops that move the catalog from
/// `version - 1` to `version`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnRecord {
    pub version: TxnVersion,
    pub ops: Vec<CatalogOp>,
}

/// Encode one log file: a JSON array of consecutive records. Every
/// append is a batch — a lone commit is a batch of one.
pub fn encode_log_file(records: &[TxnRecord]) -> Bytes {
    Bytes::from(serde_json::to_vec(records).expect("txn log serialization cannot fail"))
}

/// Decode a log file. It must be a non-empty array of consecutive
/// versions — a malformed file is corruption, not a gap.
pub fn decode_log_file(data: &[u8]) -> Result<Vec<TxnRecord>> {
    let records: Vec<TxnRecord> = serde_json::from_slice(data)
        .map_err(|e| EonError::Corrupt(format!("bad txn log file: {e}")))?;
    if records.is_empty() {
        return Err(EonError::Corrupt("empty txn log file".into()));
    }
    for pair in records.windows(2) {
        if pair[1].version != pair[0].version.next() {
            return Err(EonError::Corrupt(format!(
                "non-consecutive txn log file: {} then {}",
                pair[0].version.0, pair[1].version.0
            )));
        }
    }
    Ok(records)
}

/// A full catalog snapshot labelled with its version, so it "can be
/// ordered relative to the transaction logs".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    pub version: TxnVersion,
    pub state: CatalogState,
}

impl Checkpoint {
    pub fn encode(&self) -> Bytes {
        Bytes::from(serde_json::to_vec(self).expect("checkpoint serialization cannot fail"))
    }

    pub fn decode(data: &[u8]) -> Result<Checkpoint> {
        serde_json::from_slice(data)
            .map_err(|e| EonError::Corrupt(format!("bad checkpoint: {e}")))
    }
}

/// Key for the log file holding versions `lo..=hi`. Zero-padded so
/// lexicographic order (by `lo`) equals version order — the property
/// `list`-based replay depends on.
pub fn txn_key(prefix: &str, lo: TxnVersion, hi: TxnVersion) -> String {
    format!("{prefix}txn/{:020}-{:020}", lo.0, hi.0)
}

/// Key for the checkpoint at `version` under `prefix`.
pub fn ckpt_key(prefix: &str, version: TxnVersion) -> String {
    format!("{prefix}ckpt/{:020}", version.0)
}

/// A version component is exactly the 20-digit zero-padded form the key
/// constructors emit — anything looser would let stray numeric-suffixed
/// objects under the catalog prefix be ingested by list-based replay.
fn parse_padded(s: &str) -> Option<TxnVersion> {
    if s.len() == 20 && s.bytes().all(|b| b.is_ascii_digit()) {
        s.parse::<u64>().ok().map(TxnVersion)
    } else {
        None
    }
}

/// A key's kind component (`txn`, `ckpt`, …) and its last component.
fn split_log_key(key: &str) -> Option<(&str, &str)> {
    let mut it = key.rsplit('/');
    let last = it.next()?;
    Some((it.next()?, last))
}

/// The inclusive version range of a key: `(lo, hi)` for a
/// `txn/{lo}-{hi}` log file, `(v, v)` for a `ckpt/{v}` checkpoint.
/// `None` for anything else under the prefix.
pub fn version_range_of_key(key: &str) -> Option<(TxnVersion, TxnVersion)> {
    match split_log_key(key)? {
        ("txn", last) => {
            let (lo, hi) = last.split_once('-')?;
            let (lo, hi) = (parse_padded(lo)?, parse_padded(hi)?);
            (lo <= hi).then_some((lo, hi))
        }
        ("ckpt", last) => parse_padded(last).map(|v| (v, v)),
        _ => None,
    }
}

/// The version of a checkpoint key; `None` for a log file or anything
/// else under the prefix.
pub fn version_of_key(key: &str) -> Option<TxnVersion> {
    match split_log_key(key)? {
        ("ckpt", last) => parse_padded(last),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::Oid;

    fn records(versions: std::ops::RangeInclusive<u64>) -> Vec<TxnRecord> {
        versions
            .map(|v| TxnRecord {
                version: TxnVersion(v),
                ops: vec![CatalogOp::DropTable(Oid(v))],
            })
            .collect()
    }

    #[test]
    fn log_file_roundtrip() {
        let recs = records(1..=3);
        assert_eq!(decode_log_file(&encode_log_file(&recs)).unwrap(), recs);
        // A lone commit is a file of exactly one record.
        let one = encode_log_file(&recs[..1]);
        assert_eq!(one.first(), Some(&b'['));
        assert_eq!(decode_log_file(&one).unwrap(), recs[..1]);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let c = Checkpoint {
            version: TxnVersion(3),
            state: CatalogState::default(),
        };
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn malformed_log_files_are_corrupt() {
        assert!(decode_log_file(b"{not json").is_err());
        // A bare record is not a log file: every file is an array.
        let bare = serde_json::to_vec(&records(1..=1)[0]).unwrap();
        assert!(decode_log_file(&bare).is_err());
        // Empty or gapped files are corruption.
        assert!(decode_log_file(b"[]").is_err());
        let recs = records(1..=3);
        let gapped = vec![recs[0].clone(), recs[2].clone()];
        assert!(decode_log_file(&encode_log_file(&gapped)).is_err());
        assert!(Checkpoint::decode(b"").is_err());
    }

    #[test]
    fn keys_sort_by_version() {
        let a = txn_key("meta/", TxnVersion(6), TxnVersion(9));
        let b = txn_key("meta/", TxnVersion(10), TxnVersion(10));
        let c = txn_key("meta/", TxnVersion(11), TxnVersion(100));
        assert!(a < b && b < c);
        assert!(ckpt_key("meta/", TxnVersion(9)) < ckpt_key("meta/", TxnVersion(10)));
    }

    #[test]
    fn version_of_key_reads_checkpoints_only() {
        assert_eq!(
            version_of_key(&ckpt_key("meta/inc0/", TxnVersion(3))),
            Some(TxnVersion(3))
        );
        assert_eq!(version_of_key("meta/ckpt/nope"), None);
        // Wrong path component: numeric suffix alone must not parse.
        assert_eq!(version_of_key("catalog/junk/00000000000000000007"), None);
        assert_eq!(version_of_key("catalog/ckpt/7"), None);
        assert_eq!(version_of_key("ckpt"), None);
        // Log files are not checkpoints.
        assert_eq!(
            version_of_key(&txn_key("catalog/", TxnVersion(4), TxnVersion(4))),
            None
        );
    }

    #[test]
    fn version_range_of_key_requires_log_shape() {
        assert_eq!(
            version_range_of_key(&txn_key("catalog/", TxnVersion(7), TxnVersion(7))),
            Some((TxnVersion(7), TxnVersion(7)))
        );
        assert_eq!(
            version_range_of_key(&txn_key("catalog/", TxnVersion(4), TxnVersion(6))),
            Some((TxnVersion(4), TxnVersion(6)))
        );
        assert_eq!(
            version_range_of_key(&ckpt_key("catalog/", TxnVersion(5))),
            Some((TxnVersion(5), TxnVersion(5)))
        );
        // Under `txn/` only `lo-hi` parses: a single version, an unpadded
        // or inverted range, and junk paths are rejected.
        assert_eq!(version_range_of_key("catalog/txn/00000000000000000007"), None);
        assert_eq!(version_range_of_key("catalog/txn/7-7"), None);
        assert_eq!(
            version_range_of_key(&txn_key("catalog/", TxnVersion(6), TxnVersion(4))),
            None
        );
        assert_eq!(version_range_of_key("catalog/junk/00000000000000000007"), None);
        assert_eq!(version_range_of_key("txn"), None);
    }
}
