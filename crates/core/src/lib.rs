//! Eon mode itself: the shared-storage columnar database the paper
//! describes, assembled from the substrate crates.
//!
//! [`EonDb`] is the public entry point. It owns the shared storage
//! handle, the cluster membership, and the commit protocol, and
//! exposes:
//!
//! * DDL — `create_table`, `create_projection`, `add_column` (OCC,
//!   §6.3), `drop_table`;
//! * load — `copy_batch`, and `copy_into` for rows (the Fig 8
//!   workflow: split by shard, write through the cache, ship to peer
//!   caches, upload before commit);
//! * queries — `query` with participating-subscription selection
//!   (§4.1), execution slots (§4.2), subcluster isolation (§4.3), and
//!   crunch scaling (§4.4);
//! * DML — `delete_where`, `update_where` via delete vectors;
//! * maintenance — mergeout with per-shard coordinators (§6.2),
//!   metadata sync + consensus truncation + `cluster_info`
//!   (§3.5), reference-counted file deletion and the leak scan (§6.5);
//! * elasticity & fault tolerance — `kill_node`, `restart_node`
//!   (re-subscription, §3.3/§6.1), `add_node`/`remove_node` (§6.4),
//!   and `revive` (§3.5).

pub mod admission;
pub mod commit;
pub mod config;
pub mod db;
pub mod ddl;
pub mod invariants;
pub mod lap;
pub mod dml;
pub mod lifecycle;
pub mod load;
pub mod maintenance;
pub mod provider;
pub mod query;
pub mod sql_api;
pub mod supervisor;

pub use admission::{AdmissionControl, AdmissionLimits};
pub use config::EonConfig;
pub use db::EonDb;
pub use invariants::{check_crash_invariants, InvariantReport, TableModel};
pub use query::SessionOpts;
pub use sql_api::SqlResult;
pub use supervisor::{ClusterHealth, SupervisorReport};
