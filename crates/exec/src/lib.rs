//! Batch-mode (vectorized) and row-mode query execution.
//!
//! The execution side of the paper:
//!
//! * [`batch`] / [`vector`] — columnar batches with qualifying-rows
//!   bitmaps, the unit of batch-mode data flow;
//! * [`expr`] — one expression tree, two evaluators (vectorized and
//!   row-at-a-time);
//! * [`ops`] — the batch operator repertoire: scan (segment elimination,
//!   predicate pushdown on encoded data, bitmap-filter application),
//!   filter, project, hash join (all join types, spilling, bitmap-filter
//!   generation), hash aggregation, sort/Top-N, UNION ALL, and the
//!   mixed-mode adapters;
//! * `keytable` — the packed-key hash table under hash join and hash
//!   aggregation;
//! * [`row_ops`] — the row-mode baseline operators;
//! * [`bloom`] — exact/Bloom bitmap filters;
//! * [`spill`] — spill files for graceful degradation;
//! * [`runtime`] — execution context, memory budget and metrics.

pub mod batch;
pub mod bloom;
pub mod expr;
mod keytable;
pub mod ops;
pub mod row_ops;
pub mod runtime;
pub mod spill;
pub mod vector;

pub use batch::{Batch, BATCH_SIZE};
pub use bloom::BitmapFilter;
pub use expr::{ArithOp, Expr};
pub use ops::hash_agg::{AggExpr, AggFunc, HashAggOp};
pub use ops::hash_join::{BatchHashJoin, JoinType};
pub use ops::introspect::IntrospectionScan;
pub use ops::parallel::ParallelScan;
pub use ops::scan::{BatchSource, ColumnStoreScan, FilterSlot};
pub use ops::stats_op::{RowStatsOp, StatsOp};
pub use ops::{BatchOperator, BoxedBatchOp, BoxedRowOp, RowOperator};
pub use runtime::{Counters, ExecContext, ExecProfile, ExecStats, Metrics, OpStats};
pub use vector::Vector;
