//! The Vertica catalog, re-architected for Eon mode (paper §2.4, §3.5,
//! §6.3).
//!
//! * [`objects`] — the catalog object model: *global* objects (tables,
//!   projections, shard definitions, subscriptions) present in every
//!   node's catalog, and *storage* objects (ROS containers, delete
//!   vectors) that only a shard's subscribers carry.
//! * [`state`] — the in-memory catalog: consistent snapshots for
//!   readers (`Arc`-shared, copy-on-write at commit) and the op-apply
//!   machinery.
//! * [`txn`] — transactions with Optimistic Concurrency Control: write
//!   sets validated against object versions at commit (§6.3).
//! * [`log`] — transaction-log records and checkpoints, totally ordered
//!   by the incrementing version counter; two checkpoints retained.
//! * [`codec`] — the one at-rest format of every catalog file: framed,
//!   checksummed records over `eon_columnar::format`.
//! * [`store`] — persistence: local append + asynchronous upload to
//!   shared storage, sync intervals, recovery replay (§3.5).
//! * [`cluster_info`] — the `cluster_info` commit point for revive:
//!   truncation version, incarnation id, lease (§3.5).

pub mod cluster_info;
pub mod codec;
pub mod log;
pub mod objects;
pub mod state;
pub mod store;
pub mod txn;

pub use cluster_info::ClusterInfo;
pub use log::{Checkpoint, TxnRecord};
pub use objects::{
    CatalogOp, ContainerMeta, DeleteVectorMeta, ShardDef, ShardKind, SubState, Subscription,
    Table,
};
pub use state::CatalogState;
pub use store::{CatalogStore, SyncInterval};
pub use txn::{Catalog, Txn};
