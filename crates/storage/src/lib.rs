//! Shared-storage substrate: the user-defined filesystem (UDFS) API of
//! paper §5.3, as one column with each concern written once —
//!
//! * a backend: [`MemFs`], an in-memory object store (local disks,
//!   fast tests), or [`S3SimFs`], a simulated S3 over it: injected
//!   request latency, bandwidth modelling, throttling and request
//!   failures, request-cost accounting, and S3's API shape (no
//!   rename/append, list-by-prefix);
//! * [`RetryFs`], the one resilience layer: the §5.3 retry loop and
//!   the circuit-breaker gate around every request to the backend, and
//!   the one place a long ranged read is cut into [`PART_BYTES`] parts
//!   sent as one concurrent batch.
//!
//! The depot (`eon-cache`) sits on top and never retries. Plus the
//! globally-unique storage identifier (SID) scheme of §5.1 / Fig 7.

pub mod breaker;
pub mod fault;
pub mod fs;
pub mod mem;
pub mod retry;
pub mod retryfs;
pub mod s3sim;
pub mod sid;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use fault::{FaultEvent, FaultInjector, FaultPlan};
pub use fs::{FileSystem, FsStats, SharedFs};
pub use mem::MemFs;
pub use retry::RetryPolicy;
pub use retryfs::{RetryFs, PART_BYTES};
pub use s3sim::{S3Config, S3SimFs};
pub use sid::{InstanceId, SidFactory, StorageId};
