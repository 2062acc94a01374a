//! Query execution (paper §4).
//!
//! Eon mode reuses Vertica's optimizer and execution engine; this crate
//! is our from-scratch equivalent:
//!
//! * [`expr`] — scalar expressions (arithmetic, comparisons, boolean
//!   logic, CASE, LIKE, date extraction);
//! * [`plan`] — the logical plan language: scans with pushed-down
//!   predicates and a distribution mode, filter/project/join/
//!   aggregate/sort/limit;
//! * [`ops`] — the operators, each one implementation over typed column
//!   batches (`eon_columnar::Batch`);
//! * [`agg`] — a running aggregate with *mergeable partial states*, the
//!   basis of distributed group-by;
//! * [`execute`] — the single-node executor over a [`TableProvider`]'s
//!   [`Pieces`], plus [`execute::auto_distribute`], which splits a
//!   logical plan into a per-node local phase and a coordinator merge
//!   phase;
//! * [`prune`], [`push`] and [`colocate`] — the plan rules: scans read
//!   only the columns the plan uses, carry every filter conjunct they
//!   can evaluate, and co-segmented joins read shard-local;
//! * [`crunch`] — crunch scaling (§4.4): hash-filter and container-split
//!   predicates that let several nodes share one shard's scan;
//! * [`reference`] — [`MemProvider`], tables as in-memory rows scanned
//!   with `eval_row`: the answer the storage providers' shared scan
//!   kernel is checked against.
//!
//! The coordinator/participant wiring (which nodes run the local phase,
//! §4.1's max-flow selection) lives in `eon-core`; this crate is
//! cluster-agnostic.

pub mod agg;
pub mod colocate;
pub mod crunch;
pub mod execute;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod prune;
pub mod push;
pub mod reference;

pub use colocate::co_locate_joins;
pub use execute::{auto_distribute, execute, DistributedPlan, MergeStep, Pieces, TableProvider};
pub use expr::Expr;
pub use plan::{AggFunc, AggSpec, Distribution, JoinKind, Plan, ScanSpec, SortKey};
pub use prune::prune_columns;
pub use push::push_predicates;
pub use reference::MemProvider;
