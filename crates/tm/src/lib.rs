//! The Tuple Mover (paper §2.3, §6.2).
//!
//! * [`mergeout`] — compaction planning with the exponentially tiered
//!   strata algorithm ("merge each tuple a small fixed number of
//!   times") and coordinator selection for Eon mode (§6.2: one
//!   coordinator per shard so conflicting jobs never run concurrently,
//!   rebalanced when nodes fail).
//! * [`wos`] — the Write Optimized Store: typed column buffers that
//!   moveout sorts and encodes. Eon mode does **not** support the WOS
//!   (§5.1); this module exists solely for the Enterprise baseline the
//!   evaluation compares against.

pub mod mergeout;
pub mod wos;

pub use mergeout::{
    plan_mergeout, select_coordinators, MergeJob, MergeoutMetrics, MergeoutPolicy,
};
pub use wos::Wos;
