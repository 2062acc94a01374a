//! Workloads for the paper's evaluation (§8):
//!
//! * [`tpch`] — a deterministic TPC-H-schema generator at laptop scale
//!   plus plan builders for queries Q1–Q20 (Fig 10's x-axis). Queries
//!   keep TPC-H's operator shapes — join graphs, aggregates,
//!   selectivities — with the handful of simplifications documented on
//!   each builder (we implement the engine, not a SQL front end).
//! * [`dashboard`] — the "customer-supplied short query comprised of
//!   multiple joins and aggregations" behind Fig 11a and Fig 12:
//!   a star schema with a compact fact table and two dimensions.
//! * [`copyload`] — the many-small-COPY generator of Fig 11b
//!   ("typical of an internet of things workload").
//!
//! TPC-H is generated as typed columns — one `Batch` per table, a
//! string drawn from a fixed list as a dictionary code into it — and
//! loaded as it is, so a set-up's COPY neither transposes nor copies
//! it. The dashboard and COPY generators still make rows: the
//! dashboard's fields are read as row vectors by the repo benchmark,
//! which this crate's changes must not break, and the COPY generators
//! model clients sending rows, which `copy_into`'s row edge exists for.

pub mod copyload;
pub mod dashboard;
pub mod tpch;

pub use tpch::{load_tpch_enterprise, load_tpch_eon, tpch_query, TpchData, TPCH_QUERY_COUNT};
