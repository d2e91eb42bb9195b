//! The `sys.*` introspection views (DMV-style virtual tables).
//!
//! Columnstore internals — row-group lifecycle, per-segment encodings,
//! dictionary sizes, tuple-mover progress, the recent-query ring — are
//! exposed as ordinary tables queryable through the normal SQL pipeline:
//!
//! ```sql
//! SELECT table_name, state, total_rows, deleted_rows FROM sys.row_groups;
//! SELECT s.column_name, s.encoding, d.entries
//!   FROM sys.column_segments s JOIN sys.dictionaries d
//!     ON s.dictionary_id = d.dictionary_id;
//! ```
//!
//! Each view is **materialized at bind time** from a point-in-time
//! snapshot ([`ColumnStoreTable::introspect`] holds one read lock per
//! table; mover/query-log state is copied under its own short lock), so
//! planning and execution never hold storage locks. Within one query,
//! [`SysCatalog`] memoizes each view, so every reference to the same view
//! in a join sees the same snapshot.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use cstore_common::DataType::{self, Float64, Int64, Utf8};
use cstore_common::{Field, FxHashMap, Row, Schema, Value};
use cstore_delta::{ColumnStoreTable, TableIntrospection};
use cstore_planner::catalog::{CatalogProvider, TableRef, VirtualTable};
use cstore_storage::encode::{PayloadKind, PrimaryEncoding};
use cstore_storage::{CompressedRowGroup, CompressionLevel, QuarantinedKind};

use crate::catalog::TableEntry;
use crate::database::Database;

/// Snapshot-materializer for the `sys.*` views: implemented by
/// [`Database`], consumed by [`SysCatalog`]. Implementations must not
/// return tables that keep storage locks alive — views are plain
/// materialized rows.
pub trait Introspection {
    /// Materialize the named view, or `None` if the name is not a view.
    /// `name` is already lower-cased.
    fn sys_view(&self, name: &str) -> Option<VirtualTable>;
}

/// A [`CatalogProvider`] that resolves `sys.`-prefixed names through an
/// [`Introspection`] source and everything else through the base catalog.
/// One instance lives per query; materialized views are memoized so a
/// self-join of a view sees a single consistent snapshot.
pub struct SysCatalog<'a> {
    base: &'a dyn CatalogProvider,
    sys: &'a dyn Introspection,
    materialized: RefCell<FxHashMap<String, TableRef>>,
}

impl<'a> SysCatalog<'a> {
    pub fn new(base: &'a dyn CatalogProvider, sys: &'a dyn Introspection) -> SysCatalog<'a> {
        SysCatalog {
            base,
            sys,
            materialized: RefCell::new(FxHashMap::default()),
        }
    }
}

impl CatalogProvider for SysCatalog<'_> {
    fn table(&self, name: &str) -> Option<TableRef> {
        let lower = name.to_ascii_lowercase();
        if !lower.starts_with("sys.") {
            return self.base.table(name);
        }
        if let Some(t) = self.materialized.borrow().get(&lower) {
            return Some(t.clone());
        }
        let view = self.sys.sys_view(&lower)?;
        let t = TableRef::Virtual(Arc::new(view));
        self.materialized.borrow_mut().insert(lower, t.clone());
        Some(t)
    }

    fn statistics(&self, name: &str) -> Option<cstore_planner::stats::TableStatistics> {
        if name.to_ascii_lowercase().starts_with("sys.") {
            return None; // virtual tables: row counts come from the rows
        }
        self.base.statistics(name)
    }
}

// ---------------------------------------------- the statement record

/// How a statement ended, as `sys.query_log.status` spells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    Ok,
    Error,
    /// A successful `ROLLBACK` (distinct from errors: nothing failed,
    /// but the transaction's work was discarded).
    Rollback,
    /// A write-write conflict aborted the statement or transaction.
    Conflict,
}

impl QueryStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            QueryStatus::Ok => "OK",
            QueryStatus::Error => "ERROR",
            QueryStatus::Rollback => "ROLLBACK",
            QueryStatus::Conflict => "CONFLICT",
        }
    }
}

/// The one record of a finished statement. `Database::execute` builds
/// exactly one per statement and it is the only thing `sys.query_log`,
/// the Query Store and the metrics registry are told about it (EXPLAIN
/// ANALYZE renders its `exec` half), so those surfaces cannot disagree.
pub struct QueryProfile {
    pub text: String,
    /// Normalized shape (literals → `?`): the hash `sys.query_log` and
    /// `sys.query_store` join on, and the template text.
    pub shape: cstore_sql::QueryShape,
    pub status: QueryStatus,
    /// Whether the error was the `SET query_timeout_ms` deadline.
    pub timed_out: bool,
    /// The error string; failed statements are recorded, not dropped.
    pub error: Option<String>,
    /// The whole statement, admission queueing included.
    pub elapsed: Duration,
    /// What the statement's plan did: rows, counters, per-operator
    /// stats, waits. All zero (but for the waits) when it ran no plan.
    pub exec: cstore_exec::ExecProfile,
}

impl QueryProfile {
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX)
    }
}

/// Bounded ring of the last N statements' profiles (successes *and*
/// errors).
pub struct QueryLog {
    entries: std::collections::VecDeque<QueryProfile>,
    capacity: usize,
    next_id: u64,
}

/// Queries retained by `sys.query_log`.
pub const QUERY_LOG_CAPACITY: usize = 128;

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog {
            entries: std::collections::VecDeque::new(),
            capacity: QUERY_LOG_CAPACITY,
            next_id: 1,
        }
    }
}

impl QueryLog {
    pub fn record(&mut self, profile: QueryProfile) {
        while self.entries.len() >= self.capacity.max(1) {
            self.entries.pop_front();
        }
        self.entries.push_back(profile);
        self.next_id += 1;
    }

    /// `SET query_log_size`: resize the ring, evicting oldest entries
    /// immediately if it shrinks below the current length.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(query id, profile)`, oldest first. Ids are consecutive, so the
    /// ring's are the last `len` issued.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &QueryProfile)> {
        (self.next_id - self.entries.len() as u64..).zip(&self.entries)
    }
}

// ------------------------------------------------------- value plumbing

fn int(v: usize) -> Value {
    Value::Int64(i64::try_from(v).unwrap_or(i64::MAX))
}

fn int_u64(v: u64) -> Value {
    Value::Int64(i64::try_from(v).unwrap_or(i64::MAX))
}

fn opt_str(v: Option<String>) -> Value {
    match v {
        Some(s) => Value::str(s),
        None => Value::Null,
    }
}

/// Deterministic dictionary ids, stable across views so
/// `sys.column_segments.dictionary_id` joins against
/// `sys.dictionaries.dictionary_id` without cross-table collisions
/// (both views enumerate tables in the same catalog order, so the
/// table ordinal is consistent): global (per-column, shared across
/// groups) dictionaries get `-(table * 65536 + column + 1)`;
/// group-local dictionaries get
/// `(table << 40) + group_id * 65536 + column`.
fn global_dict_id(table: usize, col: usize) -> i64 {
    -((table as i64) * 65_536 + col as i64 + 1)
}

fn local_dict_id(table: usize, group: u32, col: usize) -> i64 {
    ((table as i64) << 40) + i64::from(group) * 65_536 + col as i64
}

fn encoding_name(primary: PrimaryEncoding, payload: PayloadKind) -> &'static str {
    match (primary, payload) {
        (PrimaryEncoding::Dictionary, PayloadKind::Rle) => "DICT_RLE",
        (PrimaryEncoding::Dictionary, PayloadKind::BitPacked) => "DICT_BITPACK",
        (PrimaryEncoding::ValueBased, PayloadKind::Rle) => "VALUE_RLE",
        (PrimaryEncoding::ValueBased, PayloadKind::BitPacked) => "VALUE_BITPACK",
    }
}

/// Uncompressed size estimate of one segment (the denominator of the
/// per-segment compression ratio): fixed-width types are exact; strings
/// decode the segment and sum actual lengths (+2-byte length prefix),
/// falling back to the encoded size if an archived segment cannot be
/// opened.
fn segment_raw_bytes(g: &CompressedRowGroup, col: usize) -> usize {
    let m = g.seg_meta(col);
    if let Some(w) = m.data_type.fixed_width() {
        return w * m.row_count as usize;
    }
    match g.open_segment(col) {
        Ok(seg) => match seg.decode() {
            cstore_storage::SegmentValues::Str { codes, dict, nulls } => codes
                .iter()
                .enumerate()
                .filter(|(i, _)| !nulls.as_ref().is_some_and(|n| n.get(*i)))
                .map(|(_, &c)| dict.str_at(c).len() + 2)
                .sum(),
            _ => (m.payload_bytes + m.dict_bytes) as usize,
        },
        Err(_) => (m.payload_bytes + m.dict_bytes) as usize,
    }
}

/// The dictionary a segment uses, resolved to a deterministic id, or
/// `Value::Null`: value-encoded segments have no dictionary, and archived
/// segments do not expose one without decompressing.
fn segment_dict_id(
    intro: &TableIntrospection,
    table: usize,
    g: &CompressedRowGroup,
    col: usize,
) -> Value {
    if g.seg_meta(col).primary != PrimaryEncoding::Dictionary
        || g.level() == CompressionLevel::Archive
    {
        return Value::Null;
    }
    let Ok(seg) = g.open_segment(col) else {
        return Value::Null;
    };
    match seg.dictionary() {
        Some(d) => {
            let is_global = intro
                .global_dicts
                .get(col)
                .and_then(|o| o.as_ref())
                .is_some_and(|gd| Arc::ptr_eq(gd, d));
            if is_global {
                Value::Int64(global_dict_id(table, col))
            } else {
                Value::Int64(local_dict_id(table, g.id().0, col))
            }
        }
        None => Value::Null,
    }
}

// ------------------------------------------------------------ the views

fn columnstores(db: &Database) -> Vec<(String, ColumnStoreTable)> {
    let mut out = Vec::new();
    for name in db.catalog().table_names() {
        if let Some(TableEntry::ColumnStore(t)) = db.catalog().get(&name) {
            out.push((name, t));
        }
    }
    out
}

fn row_groups_rows(db: &Database) -> Vec<Row> {
    let generation = int_u64(db.open_report().generation);
    let mut rows = Vec::new();
    for (name, t) in columnstores(db) {
        let intro = t.introspect();
        let delta_row = |d: &cstore_delta::DeltaStoreIntrospection, state: &str| {
            Row::new(vec![
                Value::str(name.clone()),
                Value::Int64(i64::from(d.id.0)),
                Value::str(state),
                int(d.rows),
                Value::Int64(0),
                int(d.approx_bytes),
                generation.clone(),
            ])
        };
        for d in &intro.closed {
            rows.push(delta_row(d, "CLOSED"));
        }
        if let Some(d) = &intro.open {
            rows.push(delta_row(d, "OPEN"));
        }
        for (g, &deleted) in intro.groups.iter().zip(&intro.deleted_rows) {
            let state = match g.level() {
                CompressionLevel::Columnstore => "COMPRESSED",
                CompressionLevel::Archive => "ARCHIVED",
            };
            rows.push(Row::new(vec![
                Value::str(name.clone()),
                Value::Int64(i64::from(g.id().0)),
                Value::str(state),
                int(g.n_rows()),
                int(deleted),
                int(g.encoded_bytes()),
                generation.clone(),
            ]));
        }
    }
    // Quarantined blobs surface with null sizes instead of vanishing.
    for table in &db.open_report().tables {
        for q in &table.quarantined {
            let group_id = match q.kind {
                QuarantinedKind::RowGroup(id) => Value::Int64(i64::from(id.0)),
                _ => Value::Null,
            };
            rows.push(Row::new(vec![
                Value::str(table.table.clone()),
                group_id,
                Value::str("QUARANTINED"),
                Value::Null,
                Value::Null,
                Value::Null,
                generation.clone(),
            ]));
        }
    }
    rows
}

fn column_segments_rows(db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    for (t_ord, (name, t)) in columnstores(db).into_iter().enumerate() {
        let intro = t.introspect();
        for g in &intro.groups {
            for col in 0..g.n_columns() {
                let m = g.seg_meta(col);
                let encoded = (m.payload_bytes + m.dict_bytes) as usize
                    + m.row_count.div_ceil(64) as usize * 8 * usize::from(m.null_count > 0);
                let raw = segment_raw_bytes(g, col);
                let ratio = raw as f64 / encoded.max(1) as f64;
                rows.push(Row::new(vec![
                    Value::str(name.clone()),
                    Value::Int64(i64::from(g.id().0)),
                    int(col),
                    Value::str(intro.schema.field(col).name.clone()),
                    Value::str(encoding_name(m.primary, m.payload)),
                    int_u64(u64::from(m.row_count)),
                    int_u64(u64::from(m.null_count)),
                    opt_str(m.min.as_ref().map(|v| v.to_string())),
                    opt_str(m.max.as_ref().map(|v| v.to_string())),
                    segment_dict_id(&intro, t_ord, g, col),
                    int(encoded),
                    int(raw),
                    Value::Float64(ratio),
                ]));
            }
        }
    }
    rows
}

fn dictionaries_rows(db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    for (t_ord, (name, t)) in columnstores(db).into_iter().enumerate() {
        let intro = t.introspect();
        for (col, dict) in intro.global_dicts.iter().enumerate() {
            if let Some(d) = dict {
                rows.push(Row::new(vec![
                    Value::str(name.clone()),
                    Value::Int64(global_dict_id(t_ord, col)),
                    int(col),
                    Value::str(intro.schema.field(col).name.clone()),
                    Value::str("GLOBAL"),
                    int(d.len()),
                    int(d.heap_bytes()),
                ]));
            }
        }
        for g in &intro.groups {
            if g.level() == CompressionLevel::Archive {
                continue; // archived groups fold dictionaries into payload
            }
            for col in 0..g.n_columns() {
                let Ok(seg) = g.open_segment(col) else {
                    continue;
                };
                let Some(d) = seg.dictionary() else {
                    continue;
                };
                let is_global = intro
                    .global_dicts
                    .get(col)
                    .and_then(|o| o.as_ref())
                    .is_some_and(|gd| Arc::ptr_eq(gd, d));
                if is_global {
                    continue; // already listed once, table-wide
                }
                rows.push(Row::new(vec![
                    Value::str(name.clone()),
                    Value::Int64(local_dict_id(t_ord, g.id().0, col)),
                    int(col),
                    Value::str(intro.schema.field(col).name.clone()),
                    Value::str("LOCAL"),
                    int(d.len()),
                    int(d.heap_bytes()),
                ]));
            }
        }
    }
    rows
}

fn tuple_mover_rows(db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    for (table, status) in db.mover_statuses() {
        rows.push(Row::new(vec![
            Value::str(table),
            Value::str(format!("{:?}", status.state).to_ascii_uppercase()),
            int_u64(status.passes),
            int_u64(status.stores_moved),
            int_u64(status.rows_moved),
            int_u64(status.transient_retries),
            int_u64(u64::from(status.restarts)),
            int_u64(u64::from(status.consecutive_failures)),
            opt_str(status.last_error),
        ]));
    }
    rows
}

/// One row per retained statement. `rows`, `batches` and `plan_root`
/// describe a statement that completed; they are null for one that did
/// not.
fn query_log_rows(db: &Database) -> Vec<Row> {
    db.with_query_log(|log| {
        log.entries()
            .map(|(id, p)| {
                let if_ok = |v: Value| match p.status {
                    QueryStatus::Ok => v,
                    _ => Value::Null,
                };
                let plan_root = p.exec.operators.first().map(|op| op.label.clone());
                Row::new(vec![
                    int_u64(id),
                    Value::str(p.text.clone()),
                    Value::str(format!("{:016x}", p.shape.hash)),
                    Value::str(p.status.as_str()),
                    opt_str(p.error.clone()),
                    int_u64(p.elapsed_us()),
                    if_ok(int_u64(p.exec.rows_returned)),
                    if_ok(int_u64(p.exec.counters.batches)),
                    if_ok(opt_str(plan_root)),
                ])
            })
            .collect()
    })
}

/// One row per wait class with any recorded waits (process-wide
/// accumulator, cumulative since start — the engine's
/// `sys.dm_os_wait_stats`).
fn wait_stats_rows(_: &Database) -> Vec<Row> {
    cstore_common::waits::global_snapshot()
        .into_iter()
        .map(|s| {
            let avg_us = if s.count > 0 {
                s.total_ns as f64 / s.count as f64 / 1e3
            } else {
                0.0
            };
            Row::new(vec![
                Value::str(s.class),
                int_u64(s.count),
                int_u64(s.total_ns),
                int_u64(s.max_ns),
                Value::Float64(avg_us),
            ])
        })
        .collect()
}

/// One row per (interval, query shape): the Query Store surface.
/// `query_hash` is the same hex form `sys.query_log.query_hash` uses,
/// so the two views join directly.
fn query_store_rows(db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    for interval in db.query_store().snapshot() {
        for shape in interval.shapes.values() {
            let avg = if shape.executions > 0 {
                shape.total_elapsed_us as f64 / shape.executions as f64
            } else {
                0.0
            };
            let total_wait_ns: u64 = shape.waits.values().map(|w| w.total_ns).sum();
            let summary = shape.waits_summary();
            rows.push(Row::new(vec![
                int_u64(interval.start_unix_ms),
                Value::str(format!("{:016x}", shape.shape_hash)),
                Value::str(shape.shape_text.clone()),
                int_u64(shape.executions),
                int_u64(shape.failures),
                int_u64(shape.timeouts),
                int_u64(shape.rows_returned),
                Value::Float64(avg),
                int_u64(shape.elapsed_quantile_us(0.50)),
                int_u64(shape.elapsed_quantile_us(0.99)),
                int_u64(shape.max_elapsed_us),
                int_u64(total_wait_ns),
                if summary.is_empty() {
                    Value::Null
                } else {
                    Value::str(summary)
                },
                int_u64(shape.spill_partitions),
                int_u64(shape.spill_bytes),
            ]));
        }
    }
    rows
}

/// One row per transaction: active ones first (by id), then the
/// recently finished ring (newest last). `commit_lsn` is null for
/// anything but a committed transaction; `abort_reason` records why an
/// aborted one ended (ROLLBACK, conflict, or the poisoning error).
fn transactions_rows(db: &Database) -> Vec<Row> {
    db.txns()
        .view_rows()
        .into_iter()
        .map(|t| {
            Row::new(vec![
                int_u64(t.id),
                Value::str(t.state.as_str()),
                int_u64(t.statements),
                int_u64(t.write_ops),
                int_u64(t.snapshot_lsn),
                t.commit_lsn.map_or(Value::Null, int_u64),
                opt_str(t.abort_reason),
            ])
        })
        .collect()
}

/// One row per attached WAL (zero rows when the database runs without
/// one): segment layout, LSN watermarks, the last checkpoint and the
/// cumulative durability counters.
fn wal_rows(db: &Database) -> Vec<Row> {
    let mut rows = Vec::new();
    if let Some(s) = db.wal_status() {
        let opt_lsn = |v: Option<u64>| v.map_or(Value::Null, int_u64);
        let state = if s.failed.is_some() { "FAILED" } else { "OK" };
        rows.push(Row::new(vec![
            int_u64(s.segment_count),
            int_u64(s.active_segment),
            int_u64(s.tail_lsn),
            int_u64(s.durable_lsn),
            Value::str(s.sync_mode.as_str()),
            opt_lsn(s.last_checkpoint.map(|(g, _)| g)),
            opt_lsn(s.last_checkpoint.map(|(_, lsn)| lsn)),
            int_u64(s.counters.records_appended),
            int_u64(s.counters.bytes_appended),
            int_u64(s.counters.fsyncs),
            int_u64(s.counters.flushes),
            int_u64(s.counters.checkpoints),
            int_u64(s.counters.segments_retired),
            int_u64(s.counters.records_replayed),
            int_u64(s.counters.records_truncated),
            int_u64(s.counters.segments_quarantined),
            opt_str(s.failed.clone()),
            Value::str(state),
            opt_str(s.failed),
        ]));
    }
    rows
}

/// One row per leveled lock registered with the runtime lockdep layer
/// (`cstore_common::sync`), ordered by declared level: acquisition and
/// contention counters, cumulative wait time, the longest observed hold,
/// and the count of lock-order violations observed at runtime (always 0
/// under `cfg(test)`/the `lockdep` feature, where a violation panics).
fn lock_stats_rows(_: &Database) -> Vec<Row> {
    cstore_common::sync::lock_stats()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                int_u64(u64::from(s.level)),
                Value::str(s.name),
                int_u64(s.acquisitions),
                int_u64(s.contended),
                int_u64(s.total_wait_ns),
                int_u64(s.max_hold_ns),
                int_u64(s.violations),
            ])
        })
        .collect()
}

/// A single row summarizing the resource governor: admission-gate
/// occupancy, the shared memory ledger, delta backpressure counters and
/// the health state machine. Counters are cumulative since process start.
fn resource_governor_rows(db: &Database) -> Vec<Row> {
    let s = db.governor().snapshot();
    vec![Row::new(vec![
        int_u64(s.admission_running),
        int_u64(s.admission_queued),
        int_u64(s.admission_max_concurrent),
        int_u64(s.admission_admitted_total),
        int_u64(s.admission_rejected_total),
        int_u64(s.admission_timeouts_total),
        int_u64(s.mem_reserved_bytes),
        int_u64(s.mem_peak_bytes),
        int_u64(s.mem_limit_bytes),
        int_u64(s.mem_exhausted_total),
        int_u64(s.backpressure_high_water),
        int_u64(s.backpressure_waits_total),
        int_u64(s.backpressure_rejected_total),
        Value::str(s.health_state()),
        opt_str(s.health_cause.clone()),
        int_u64(s.degraded_total),
        int_u64(s.write_rejects_total),
        int_u64(s.recovery_probes_total),
    ])]
}

/// One `sys.*` view: its name, its columns as `(name, type, nullable)`,
/// and the function that materializes its rows from a point-in-time
/// snapshot of the database.
struct SysView {
    name: &'static str,
    columns: &'static [(&'static str, DataType, bool)],
    rows: fn(&Database) -> Vec<Row>,
}

/// Every view there is. The binder's name list and the dispatch below
/// both derive from this table.
const SYS_VIEWS: [SysView; 11] = [
    SysView {
        name: "sys.row_groups",
        columns: &[
            ("table_name", Utf8, false),
            ("group_id", Int64, true),
            ("state", Utf8, false),
            ("total_rows", Int64, true),
            ("deleted_rows", Int64, true),
            ("bytes", Int64, true),
            ("generation", Int64, false),
        ],
        rows: row_groups_rows,
    },
    SysView {
        name: "sys.column_segments",
        columns: &[
            ("table_name", Utf8, false),
            ("group_id", Int64, false),
            ("column_id", Int64, false),
            ("column_name", Utf8, false),
            ("encoding", Utf8, false),
            ("row_count", Int64, false),
            ("null_count", Int64, false),
            ("min_value", Utf8, true),
            ("max_value", Utf8, true),
            ("dictionary_id", Int64, true),
            ("encoded_bytes", Int64, false),
            ("raw_bytes", Int64, false),
            ("compression_ratio", Float64, false),
        ],
        rows: column_segments_rows,
    },
    SysView {
        name: "sys.dictionaries",
        columns: &[
            ("table_name", Utf8, false),
            ("dictionary_id", Int64, false),
            ("column_id", Int64, false),
            ("column_name", Utf8, false),
            ("scope", Utf8, false),
            ("entries", Int64, false),
            ("bytes", Int64, false),
        ],
        rows: dictionaries_rows,
    },
    SysView {
        name: "sys.tuple_mover",
        columns: &[
            ("table_name", Utf8, false),
            ("state", Utf8, false),
            ("passes", Int64, false),
            ("stores_moved", Int64, false),
            ("rows_moved", Int64, false),
            ("transient_retries", Int64, false),
            ("restarts", Int64, false),
            ("consecutive_failures", Int64, false),
            ("last_error", Utf8, true),
        ],
        rows: tuple_mover_rows,
    },
    SysView {
        name: "sys.query_log",
        columns: &[
            ("query_id", Int64, false),
            ("query", Utf8, false),
            ("query_hash", Utf8, false),
            ("status", Utf8, false),
            ("error", Utf8, true),
            ("duration_us", Int64, false),
            ("rows", Int64, true),
            ("batches", Int64, true),
            ("plan_root", Utf8, true),
        ],
        rows: query_log_rows,
    },
    SysView {
        name: "sys.wal",
        columns: &[
            ("segment_count", Int64, false),
            ("active_segment", Int64, false),
            ("tail_lsn", Int64, false),
            ("durable_lsn", Int64, false),
            ("sync_mode", Utf8, false),
            ("checkpoint_generation", Int64, true),
            ("checkpoint_lsn", Int64, true),
            ("records_appended", Int64, false),
            ("bytes_appended", Int64, false),
            ("fsyncs", Int64, false),
            ("flushes", Int64, false),
            ("checkpoints", Int64, false),
            ("segments_retired", Int64, false),
            ("records_replayed", Int64, false),
            ("records_truncated", Int64, false),
            ("segments_quarantined", Int64, false),
            ("failed", Utf8, true),
            ("state", Utf8, false),
            ("last_error", Utf8, true),
        ],
        rows: wal_rows,
    },
    SysView {
        name: "sys.lock_stats",
        columns: &[
            ("level", Int64, false),
            ("name", Utf8, false),
            ("acquisitions", Int64, false),
            ("contended", Int64, false),
            ("total_wait_ns", Int64, false),
            ("max_hold_ns", Int64, false),
            ("violations", Int64, false),
        ],
        rows: lock_stats_rows,
    },
    SysView {
        name: "sys.resource_governor",
        columns: &[
            ("admission_running", Int64, false),
            ("admission_queued", Int64, false),
            ("max_concurrent_queries", Int64, false),
            ("admitted_total", Int64, false),
            ("admission_rejected_total", Int64, false),
            ("admission_timeouts_total", Int64, false),
            ("mem_reserved_bytes", Int64, false),
            ("mem_peak_bytes", Int64, false),
            ("mem_limit_bytes", Int64, false),
            ("mem_exhausted_total", Int64, false),
            ("delta_high_water_mark", Int64, false),
            ("backpressure_waits_total", Int64, false),
            ("backpressure_rejected_total", Int64, false),
            ("health_state", Utf8, false),
            ("health_cause", Utf8, true),
            ("degraded_total", Int64, false),
            ("write_rejects_total", Int64, false),
            ("recovery_probes_total", Int64, false),
        ],
        rows: resource_governor_rows,
    },
    SysView {
        name: "sys.wait_stats",
        columns: &[
            ("wait_class", Utf8, false),
            ("wait_count", Int64, false),
            ("total_wait_ns", Int64, false),
            ("max_wait_ns", Int64, false),
            ("avg_wait_us", Float64, false),
        ],
        rows: wait_stats_rows,
    },
    SysView {
        name: "sys.query_store",
        columns: &[
            ("interval_start_ms", Int64, false),
            ("query_hash", Utf8, false),
            ("query_shape", Utf8, false),
            ("executions", Int64, false),
            ("failures", Int64, false),
            ("timeouts", Int64, false),
            ("rows_returned", Int64, false),
            ("avg_elapsed_us", Float64, false),
            ("p50_elapsed_us", Int64, false),
            ("p99_elapsed_us", Int64, false),
            ("max_elapsed_us", Int64, false),
            ("total_wait_ns", Int64, false),
            ("waits", Utf8, true),
            ("spill_partitions", Int64, false),
            ("spill_bytes", Int64, false),
        ],
        rows: query_store_rows,
    },
    SysView {
        name: "sys.transactions",
        columns: &[
            ("txn_id", Int64, false),
            ("state", Utf8, false),
            ("statements", Int64, false),
            ("write_ops", Int64, false),
            ("snapshot_lsn", Int64, false),
            ("commit_lsn", Int64, true),
            ("abort_reason", Utf8, true),
        ],
        rows: transactions_rows,
    },
];

/// The names the binder recognizes as virtual tables.
pub const SYS_VIEW_NAMES: [&str; SYS_VIEWS.len()] = {
    let mut names = [""; SYS_VIEWS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = SYS_VIEWS[i].name;
        i += 1;
    }
    names
};

impl Introspection for Database {
    fn sys_view(&self, name: &str) -> Option<VirtualTable> {
        let view = SYS_VIEWS.iter().find(|v| v.name == name)?;
        let columns = view.columns.iter();
        let fields = columns.map(|&(name, ty, nullable)| Field::new(name, ty, nullable));
        let schema = Schema::new(fields.collect());
        Some(VirtualTable::new(view.name, schema, (view.rows)(self)))
    }
}
