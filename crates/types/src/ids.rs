//! Identifier newtypes used across the catalog, sharding, and cluster
//! layers. Keeping them distinct types prevents the classic "passed a
//! node id where a shard id was expected" bug in distributed code.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype!(
    /// A catalog object identifier (table, projection, storage
    /// container, delete vector, subscription, ...). OIDs are allocated
    /// by a per-node counter; global uniqueness of *file names* comes
    /// from the SID scheme in `eon-storage` (§5.1, Fig 7), not from the
    /// OID alone.
    Oid,
    "oid:"
);

id_newtype!(
    /// A cluster node.
    NodeId,
    "node"
);

id_newtype!(
    /// A segment or replica shard (§3.1).
    ShardId,
    "shard"
);

/// The global catalog version counter: increments on every transaction
/// commit (§3.4). Totally ordered; checkpoints and transaction logs are
/// labelled with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnVersion(pub u64);

impl TxnVersion {
    pub const ZERO: TxnVersion = TxnVersion(0);

    pub fn next(self) -> TxnVersion {
        TxnVersion(self.0 + 1)
    }
}

impl fmt::Display for TxnVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Oid(3).to_string(), "oid:3");
        assert_eq!(NodeId(1).to_string(), "node1");
        assert_eq!(ShardId(2).to_string(), "shard2");
        assert_eq!(TxnVersion(9).to_string(), "v9");
    }

    #[test]
    fn version_ordering() {
        assert!(TxnVersion(1) < TxnVersion(2));
        assert_eq!(TxnVersion::ZERO.next(), TxnVersion(1));
    }
}
