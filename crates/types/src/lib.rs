//! Fundamental types shared by every crate in the Eon-mode reproduction:
//! the value model, table schemas, the 32-bit hash space that segment
//! shards carve up, object identifiers, and the common error type.
//!
//! The paper (§2, §3.1) describes Vertica as a typed columnar SQL engine
//! whose records are assigned to segment shards by hashing a list of
//! segmentation columns into a 32-bit hash space. This crate provides
//! exactly that substrate and nothing engine-specific.

pub mod cancel;
pub mod error;
pub mod hashspace;
pub mod ids;
pub mod row;
pub mod schema;
pub mod value;

pub use cancel::CancelToken;
pub use error::{all_error_exemplars, EonError, Result, WireError};
pub use hashspace::{
    hash_cells_32, hash_cells_finish, hash_cells_step, hash_row_32, hash_value, HashRange,
    HASH_CELLS_SEED, HASH_SPACE_BITS,
};
pub use ids::{NodeId, Oid, ShardId, TxnVersion};
pub use row::Row;
pub use schema::{Field, Schema};
pub use value::{DataType, Value, ValueRef};
