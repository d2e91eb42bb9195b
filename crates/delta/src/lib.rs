//! The updatable clustered columnstore.
//!
//! Implements the paper's main enhancement: a column store index that
//! serves as the base storage of a table and supports trickle inserts,
//! deletes, updates and bulk loads. The moving parts:
//!
//! * [`DeltaStore`] — uncompressed row groups absorbing trickle inserts,
//!   a vector of rows indexed by tuple id (the paper's B-tree delta store
//!   only ever appends, see `DESIGN.md` §2);
//! * [`DeleteBitmap`] — delete marks for rows in compressed row groups;
//! * [`ColumnStoreTable`] — the table: compressed row groups (from
//!   `cstore-storage`) + delta stores + delete bitmap + id allocation;
//! * [`TupleMover`] — background compression of closed delta stores;
//! * [`TableSnapshot`] — consistent scan views.

pub mod delete_bitmap;
pub mod delta_store;
pub mod snapshot;
pub mod table;
pub mod tuple_mover;
pub mod wal;

pub use delete_bitmap::DeleteBitmap;
pub use delta_store::{DeltaState, DeltaStore};
pub use snapshot::TableSnapshot;
pub use table::{
    BulkLoadReport, ColumnStoreTable, DeltaStoreIntrospection, MovePassReport, TableConfig,
    TableIntrospection, TableStats,
};
pub use tuple_mover::{MoverConfig, MoverState, MoverStatus, TupleMover};
pub use wal::{
    SegmentQuarantine, Wal, WalHandle, WalOptions, WalRecord, WalReplayReport, WalStatus,
    WalSyncMode,
};
