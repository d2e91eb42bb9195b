//! The user-facing database facade.
//!
//! [`Database`] ties the workspace together: a catalog of columnstore and
//! heap tables, the SQL front end, the optimizer, and both execution
//! engines — plus the administrative surface the paper's features need
//! (bulk load, tuple mover control, archival compression, statistics).

pub mod catalog;
pub mod database;
pub mod introspect;
pub mod persist;
pub mod query_store;
pub mod txn;
mod write;

pub use catalog::{Catalog, TableEntry};
pub use cstore_planner::ExecMode;
pub use database::{Database, QueryResult, TxnAck};
pub use introspect::{
    Introspection, QueryLog, QueryProfile, QueryStatus, SysCatalog, SYS_VIEW_NAMES,
};
pub use persist::{OpenMode, OpenReport, TableOpenReport, VerifyReport};
pub use query_store::QueryStore;
pub use txn::{TxnInfo, TxnManager, TxnState};
