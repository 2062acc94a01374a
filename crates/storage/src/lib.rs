//! Shared-storage substrate: the user-defined filesystem (UDFS) API of
//! paper §5.3, with three implementations —
//!
//! * [`MemFs`] — an in-memory object store (fast tests),
//! * [`PosixFs`] — a directory-rooted local filesystem,
//! * [`S3SimFs`] — a simulated S3: injected request latency, bandwidth
//!   modelling, throttling and request failures, request-cost
//!   accounting, and S3's API shape (no rename/append, list-by-prefix).
//!
//! Plus the globally-unique storage identifier (SID) scheme of §5.1 /
//! Fig 7 and the retry loop §5.3 demands around fallible shared-storage
//! access.

pub mod breaker;
pub mod fault;
pub mod fs;
pub mod mem;
pub mod posix;
pub mod retry;
pub mod retryfs;
pub mod s3sim;
pub mod sid;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use fault::{FaultEvent, FaultInjector, FaultPlan};
pub use fs::{FileSystem, FsStats, SharedFs};
pub use mem::MemFs;
pub use posix::PosixFs;
pub use retry::{with_retry, with_retry_observed, RetryPolicy};
pub use retryfs::RetryFs;
pub use s3sim::{S3Config, S3SimFs};
pub use sid::{InstanceId, SidFactory, StorageId};
