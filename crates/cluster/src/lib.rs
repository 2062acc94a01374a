//! Cluster substrate: the in-process node runtime and membership
//! machinery the Eon database (`eon-core`) is built on.
//!
//! The paper's evaluation runs on EC2 instances; we substitute an
//! in-process simulation (DESIGN.md §1). Each [`NodeRuntime`] owns what
//! a real node process owns — a catalog replica with its local
//! persistence, a disk cache, a SID factory, a pool of execution slots
//! — and can be killed (in-memory state lost, local disk retained) and
//! restarted, which is what drives the node-down experiments (Fig 12)
//! and the recovery claims of §6.1.

pub mod health;
pub mod membership;
pub mod node;
pub mod pool;
pub mod slots;

pub use health::{FailureDetector, HealthConfig, HealthEvent, HealthTransition, NodeHealth};
pub use membership::Membership;
pub use node::{LoadMetrics, NodeRuntime, ScanMetrics};
pub use slots::{ExecSlots, SlotGuard, SlotWait};
