//! The columnar storage substrate (paper §2.1–§2.3): sorted projections
//! stored as immutable ROS containers with per-column block encodings,
//! min/max block metadata for pruning, delete vectors, and the
//! segmentation split used at load time.
//!
//! A ROS container here is one shared-storage object laid out as
//! `[column 0 blocks][column 1 blocks]…[footer][footer_len][magic]`,
//! which matches the paper's "column data, followed by a footer with a
//! position index" and its note that small column files are concatenated
//! to reduce file count. Column data is independently retrievable via
//! ranged reads, so the engine stays a true column store.

pub mod batch;
pub mod container;
pub mod delete;
pub mod encoding;
pub mod format;
pub mod projection;
pub mod pruning;
pub mod segment;

pub use batch::{hash_rows, Batch, Column, Data, StrVec};
pub use container::{
    BlockFilter, BlockMeta, BlockRows, ColumnMeta, ReadStats, RosFooter, RosReader, RosWriter,
};
pub use delete::DeleteVector;
pub use encoding::{block_stats, decode_column, decode_column_view, encode_block, EncodedBlock, Encoding};
pub use projection::{LapFunc, LiveAggregate, Projection, SortOrder};
pub use pruning::{ColumnStats, Predicate};
pub use segment::split_by_shard;
