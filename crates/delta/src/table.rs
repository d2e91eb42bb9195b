//! The updatable clustered columnstore table.
//!
//! This is the paper's headline enhancement: a column store index that is
//! the *base storage* of the table and supports inserts, deletes, updates
//! and bulk loads:
//!
//! * trickle **inserts** go to the open [`DeltaStore`]; a full delta store
//!   is closed and later compressed by the tuple mover;
//! * **bulk loads** at or above `bulk_load_threshold` rows bypass delta
//!   stores and compress directly (the trailing partial chunk below the
//!   threshold goes to the delta store);
//! * **deletes** of compressed rows mark the [`DeleteBitmap`]; deletes of
//!   delta rows remove them from their delta store;
//! * **updates** are delete + insert;
//! * scans read a [`TableSnapshot`] that merges compressed row groups
//!   (minus deleted rows) with delta-store rows.
//!
//! The table changes in one place, `Inner::apply_ops` (which queues
//! row-group replacements for `Inner::apply_logged` to install once the
//! write set's frames are logged), whether the change is a transaction
//! commit ([`ColumnStoreTable::apply_write_set`]), a load, WAL replay
//! ([`ColumnStoreTable::wal_apply`]), or a write set from
//! `ColumnStoreTable::commit`: the direct `insert` / `insert_batch` /
//! `delete` calls, a bulk load, a tuple-mover install, a group rebuild
//! or an archive. The last four build their row groups with no table
//! lock held; the write lock only checks that what a group replaces is
//! still as it was read, applies, logs and installs.

use std::sync::Arc;
use std::time::Instant;

use cstore_common::governor::Governor;
use cstore_common::sync::RwLock;

use cstore_common::{convert, Error, FaultInjector, Result, Row, RowGroupId, RowId, Schema, Value};
use cstore_storage::builder::RowGroupBuilder;
use cstore_storage::{BlobQuarantine, ColumnStore, CompressedRowGroup, QuarantinedKind, SortMode};

use crate::delete_bitmap::DeleteBitmap;
use crate::delta_store::DeltaStore;
use crate::snapshot::TableSnapshot;
use crate::wal::{TxnApplyOp, WalHandle, WalRecord};

/// Tuning knobs of a columnstore table.
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// Rows per delta store before it closes (paper/product: ~1M).
    pub delta_capacity: usize,
    /// Minimum batch size for a bulk load to bypass the delta store
    /// (product default: 102,400 rows).
    pub bulk_load_threshold: usize,
    /// Maximum rows per compressed row group (~1M).
    pub max_rowgroup_rows: usize,
    /// Row-reordering policy for compression.
    pub sort_mode: SortMode,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            delta_capacity: 1 << 20,
            bulk_load_threshold: 102_400,
            max_rowgroup_rows: 1 << 20,
            sort_mode: SortMode::default(),
        }
    }
}

/// Outcome of a bulk load.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BulkLoadReport {
    /// Row groups created directly (bypassing delta stores).
    pub compressed_groups: Vec<RowGroupId>,
    /// Rows that fell below the threshold and went to the delta store.
    pub delta_rows: usize,
}

/// Rows per `InsertBatch` WAL frame: batched statements are chunked so
/// one frame stays well under the WAL's 64 MB frame limit while still
/// amortizing the commit across the whole statement.
const WAL_BATCH_ROWS: usize = 4096;

/// Point-in-time statistics of a table.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    pub compressed_rows: usize,
    pub deleted_rows: usize,
    pub delta_rows: usize,
    pub n_compressed_groups: usize,
    pub n_open_deltas: usize,
    pub n_closed_deltas: usize,
    /// Encoded bytes of the compressed portion.
    pub compressed_bytes: usize,
    /// Approximate bytes held by delta stores.
    pub delta_bytes: usize,
}

/// One delta store as seen by [`ColumnStoreTable::introspect`].
#[derive(Clone, Debug)]
pub struct DeltaStoreIntrospection {
    pub id: RowGroupId,
    pub rows: usize,
    pub approx_bytes: usize,
}

/// A consistent point-in-time view of a table's physical state for the
/// `sys.*` introspection views, captured under a single read lock.
#[derive(Clone)]
pub struct TableIntrospection {
    pub schema: Schema,
    /// The open (accepting inserts) delta store, if any.
    pub open: Option<DeltaStoreIntrospection>,
    /// Closed delta stores awaiting the tuple mover.
    pub closed: Vec<DeltaStoreIntrospection>,
    /// Compressed row groups (`Arc`-shared segment handles).
    pub groups: Vec<cstore_storage::CompressedRowGroup>,
    /// Deleted-row count per entry of `groups`, from the delete bitmap in
    /// the same critical section.
    pub deleted_rows: Vec<usize>,
    /// Per-column global dictionaries (None where the column has none).
    pub global_dicts: Vec<Option<std::sync::Arc<cstore_storage::encode::Dictionary>>>,
}

/// Outcome of one tuple-mover pass over the closed delta stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MovePassReport {
    /// Closed delta stores compressed into row groups.
    pub stores: usize,
    /// Rows those stores held.
    pub rows: usize,
}

/// What a write set did ([`ColumnStoreTable::apply_write_set`], or
/// `ColumnStoreTable::commit`): enough to undo it exactly, plus the
/// commit obligation of the frames logged with it.
#[derive(Default)]
pub struct AppliedWrites {
    /// Where the inserted rows landed, in op order.
    inserted: Vec<RowId>,
    /// The rows the deletes removed.
    deleted: Vec<Row>,
    /// Row groups a bulk load installed.
    loaded: Vec<RowGroupId>,
    /// Replacements, with their groups until installed.
    replaced: Vec<(Option<CompressedRowGroup>, Old)>,
    /// LSN of the last frame logged with the apply — commit it after the
    /// call returns. `None` when nothing was logged.
    pub lsn: Option<u64>,
}

/// One change [`Inner::apply_ops`] makes. Transactions and replay carry
/// only `Row` ops; the others install row groups built with no table
/// lock held.
pub(crate) enum Op<'a> {
    /// A trickle insert or delete.
    Row(TxnApplyOp),
    /// Bulk-loaded rows: compressed into the group when one was built,
    /// else inserted into the delta store. Logged as `InsertBatch`
    /// frames, plus a `RowGroupSealed` marker for a group.
    Load(&'a [Row], Option<CompressedRowGroup>),
    /// Put the group (`None`: no row survived) in place of `Old`.
    Install(Option<CompressedRowGroup>, Old),
}

/// What an [`Op::Install`] replaces, as it was read when the group was
/// built. Under the lock a changed source makes the install a miss.
pub(crate) enum Old {
    /// A closed delta store with this many rows (the tuple mover).
    Store(RowGroupId, usize),
    /// A compressed group with this many delete marks (a rebuild, which
    /// drops the marked rows and with them the marks).
    Group(RowGroupId, usize),
    /// The group an archived copy replaces. Archiving keeps tuple order,
    /// so the group's delete marks carry over.
    Hot(RowGroupId),
}

impl Op<'_> {
    /// This op's WAL frames against `table`. A mover install logs an
    /// informational `RowGroupSealed`; a rebuild or archive changes no
    /// row and logs nothing.
    fn frames(&self, table: &str) -> Vec<WalRecord> {
        let (rows, group): (&[Row], _) = match self {
            Op::Row(op) => return vec![op.record(table)],
            Op::Load(rows, group) => (rows, group),
            Op::Install(group, Old::Store(..)) => (&[], group),
            Op::Install(..) => return Vec::new(),
        };
        let batch = |rows: &[Row]| WalRecord::InsertBatch {
            table: table.into(),
            rows: rows.to_vec(),
        };
        let sealed = |g: &CompressedRowGroup| WalRecord::RowGroupSealed {
            table: table.into(),
            group: g.id().0,
            rows: g.n_rows() as u64,
        };
        let batches = rows.chunks(WAL_BATCH_ROWS).map(batch);
        batches.chain(group.as_ref().map(sealed)).collect()
    }
}

fn no_group(id: RowGroupId) -> Error {
    Error::Storage(format!("no row group {id}"))
}

struct Inner {
    cs: ColumnStore,
    open: Option<DeltaStore>,
    closed: Vec<DeltaStore>,
    deleted: DeleteBitmap,
    config: TableConfig,
    /// Chaos hook: when set, tuple-mover passes consult the injector at
    /// the `mover.pass` point before touching any data.
    faults: Option<FaultInjector>,
    /// WAL wiring: when set, every mutation logs a record under this
    /// guard (buffered) and commits after the guard is released.
    wal: Option<WalHandle>,
    /// Watermark: every WAL record for this table with an LSN at or below
    /// this value is reflected in the table's state. Persisted with the
    /// delta blob so replay after a crash skips already-saved records.
    last_lsn: u64,
    /// Resource governor: trickle inserts consult its backpressure gate,
    /// and delta-store bytes are charged to its shared memory ledger.
    governor: Option<Arc<Governor>>,
    /// Delta bytes currently charged to the governor's ledger; kept in
    /// sync with the stores' `approx_bytes` by [`Inner::sync_delta_charge`].
    delta_charged: usize,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(gov) = &self.governor {
            gov.ledger().uncharge(self.delta_charged as u64);
        }
    }
}

impl Inner {
    /// Whether the piece a replacement was built from is still as it was
    /// read: the closed store with its row count, the group with its
    /// delete count, the group to archive.
    fn expects(&self, op: &Op<'_>) -> bool {
        let Op::Install(_, old) = op else { return true };
        match *old {
            Old::Store(id, len) => self.closed.iter().any(|d| d.id() == id && d.len() == len),
            Old::Group(id, n) => {
                self.cs.group_by_id(id).is_some() && self.deleted.deleted_in_group(id) == n
            }
            Old::Hot(id) => self.cs.group_by_id(id).is_some(),
        }
    }

    /// Apply `ops` in order, recording what was done in `applied`: the
    /// one place the table's rows and row groups change (replacements are
    /// queued in `applied` for [`Inner::apply_logged`]). Deletes are
    /// value-verified ([`Inner::delete_matching`]). Returns how many
    /// deletes found no live row; the commit path undoes on any, replay
    /// counts them. Takes the ops by value: their rows move into the
    /// store.
    fn apply_ops<'a>(
        &mut self,
        ops: impl IntoIterator<Item = Op<'a>>,
        applied: &mut AppliedWrites,
    ) -> Result<u64> {
        let mut misses = 0;
        for op in ops {
            match op {
                Op::Row(TxnApplyOp::Insert(rows)) => {
                    for row in rows {
                        applied.inserted.push(self.insert_row(row)?);
                    }
                }
                Op::Row(TxnApplyOp::Delete(rid, row)) => match self.delete_matching(rid, &row)? {
                    Some((_, row)) => applied.deleted.push(row),
                    None => misses += 1,
                },
                Op::Load(rows, None) => {
                    for row in rows {
                        applied.inserted.push(self.insert_row(row.clone())?);
                    }
                }
                Op::Load(_, Some(group)) => {
                    applied.loaded.push(group.id());
                    self.cs.add_rowgroup(group);
                }
                // Installed by `apply_logged` once the frames are logged.
                Op::Install(group, old) => applied.replaced.push((group, old)),
            }
        }
        Ok(misses)
    }

    /// Apply `ops` and log `frames` in one critical section, all or
    /// nothing: a delete that finds no live row (`Ok(None)`) or a
    /// refused append undoes the applied part. Replacements are installed
    /// last, once the frames are logged; they cannot fail.
    fn apply_logged(
        &mut self,
        ops: Vec<Op<'_>>,
        frames: &[WalRecord],
    ) -> Result<Option<AppliedWrites>> {
        let mut applied = AppliedWrites::default();
        let outcome = self.apply_ops(ops, &mut applied).and_then(|misses| {
            // One WAL critical section: the frames share a flush, in the
            // order the ops were applied.
            if let (0, Some(h)) = (misses, &self.wal) {
                applied.lsn = h.wal.log_all(frames)?;
                self.last_lsn = applied.lsn.unwrap_or(self.last_lsn);
            }
            Ok(misses == 0)
        });
        if matches!(outcome, Ok(true)) {
            for (group, old) in &mut applied.replaced {
                match *old {
                    Old::Store(id, _) => self.closed.retain(|d| d.id() != id),
                    Old::Group(id, _) => {
                        self.cs.remove_group(id);
                        self.deleted.clear_group(id);
                    }
                    Old::Hot(id) => drop(self.cs.remove_group(id)),
                }
                if let Some(group) = group.take() {
                    self.cs.add_rowgroup(group);
                }
            }
        } else {
            self.undo_ops(None, &applied);
        }
        self.sync_delta_charge();
        Ok(outcome?.then_some(applied))
    }

    /// Reverse the contents `applied` records (a prefix, if the apply
    /// stopped early): put deleted rows back, then take out inserted rows
    /// and bulk-loaded groups. Inside the critical section that applied
    /// them row ids are exact (`ops` is `None`); after it the tuple mover
    /// may have renumbered them, so they go by the values in `ops`. A
    /// miss can only mean a concurrent writer raced the same row in the
    /// failure window; it is counted, not fatal.
    fn undo_ops(&mut self, ops: Option<&[TxnApplyOp]>, applied: &AppliedWrites) {
        let mut misses = 0;
        for row in &applied.deleted {
            misses += u64::from(self.insert_row(row.clone()).is_err());
        }
        for &id in &applied.loaded {
            misses += u64::from(self.cs.remove_group(id).is_none());
            self.deleted.clear_group(id);
        }
        match ops {
            Some(ops) => {
                let inserted_rows = ops.iter().flat_map(|op| match op {
                    TxnApplyOp::Insert(rows) => rows.as_slice(),
                    TxnApplyOp::Delete(..) => &[],
                });
                // Paired from the end: a bulk load's frames carry its
                // compressed groups' rows ahead of the rows it put in
                // delta stores.
                for (rid, row) in applied.inserted.iter().rev().zip(inserted_rows.rev()) {
                    misses += u64::from(!matches!(self.delete_matching(*rid, row), Ok(Some(_))));
                }
            }
            None => {
                for rid in &applied.inserted {
                    let removed = self.delta_mut(rid.group).and_then(|d| d.delete(*rid));
                    misses += u64::from(removed.is_none());
                }
            }
        }
        if misses > 0 {
            cstore_common::metrics::global().add("cstore_txn_undo_errors_total", misses);
        }
    }

    /// Find and remove the row for a value-verified delete: the exact
    /// `rid` when the resident row's values still equal `expected`, else
    /// the first row equal to `expected` anywhere in the table. Row ids
    /// are not stable — the tuple mover renumbers rows positionally when
    /// it compresses a delta store with holes, and replay reassigns ids
    /// wholesale — so a bare rid can alias an unrelated row. Returns the
    /// rid actually deleted (with the row, for WAL logging), or `None`
    /// if no matching row is live.
    fn delete_matching(&mut self, rid: RowId, expected: &Row) -> Result<Option<(RowId, Row)>> {
        // Exact row-id match first, values verified.
        if let Some(d) = self.delta_mut(rid.group) {
            if d.get(rid) == Some(expected) {
                return Ok(d.delete(rid).map(|row| (rid, row)));
            }
        } else if self.cs.group_by_id(rid.group).is_some()
            && self.row_at(rid)?.as_ref() == Some(expected)
            && self.deleted.delete(rid)
        {
            return Ok(Some((rid, expected.clone())));
        }
        // By value: delta stores first (replayed inserts land there).
        for d in self.closed.iter_mut().chain(self.open.as_mut()) {
            let found = d.iter().find(|&(_, r)| r == expected).map(|(rid, _)| rid);
            if let Some(found) = found {
                if let Some(row) = d.delete(found) {
                    return Ok(Some((found, row)));
                }
            }
        }
        // Then live compressed rows.
        for g in self.cs.groups() {
            for tuple in 0..g.n_rows() {
                let cand = RowId::new(g.id(), convert::u32_from_usize(tuple)?);
                if !self.deleted.is_deleted(cand)
                    && Row::new(g.row_values(tuple)?) == *expected
                    && self.deleted.delete(cand)
                {
                    return Ok(Some((cand, expected.clone())));
                }
            }
        }
        Ok(None)
    }

    /// The delta store (open or closed) with id `group`, if any.
    fn delta_mut(&mut self, group: RowGroupId) -> Option<&mut DeltaStore> {
        self.open
            .iter_mut()
            .chain(&mut self.closed)
            .find(|d| d.id() == group)
    }

    /// The live row at `rid`: `None` when it was deleted or its tuple id
    /// was never issued, an error when `rid` names no row group.
    fn row_at(&self, rid: RowId) -> Result<Option<Row>> {
        if let Some(d) = self
            .open
            .iter()
            .chain(&self.closed)
            .find(|d| d.id() == rid.group)
        {
            return Ok(d.get(rid).cloned());
        }
        let g = self
            .cs
            .group_by_id(rid.group)
            .ok_or_else(|| no_group(rid.group))?;
        let tuple = rid.tuple as usize;
        if tuple >= g.n_rows() || self.deleted.is_deleted(rid) {
            return Ok(None);
        }
        Ok(Some(Row::new(g.row_values(tuple)?)))
    }

    /// Trickle-insert into the open delta store, rotating a full one.
    fn insert_row(&mut self, row: Row) -> Result<RowId> {
        if self.open.as_ref().is_none_or(|d| d.is_full()) {
            if let Some(mut full) = self.open.take() {
                full.close();
                self.closed.push(full);
            }
            let id = self.cs.alloc_group_id();
            self.open = Some(DeltaStore::new(id, self.config.delta_capacity));
        }
        match self.open.as_mut() {
            Some(open) => open.insert(row),
            None => Err(Error::Execution("no open delta store after refill".into())),
        }
    }

    /// Reconcile the governor ledger's delta charge with the stores'
    /// current footprint. Exact (diff-based), so deletes and mover
    /// installs return bytes and nothing leaks. Called at the end of
    /// every write-lock section that changes delta contents.
    fn sync_delta_charge(&mut self) {
        let Some(gov) = &self.governor else { return };
        let cur: usize = self
            .closed
            .iter()
            .chain(self.open.as_ref())
            .map(|d| d.approx_bytes())
            .sum();
        if cur >= self.delta_charged {
            gov.ledger().charge((cur - self.delta_charged) as u64);
        } else {
            gov.ledger().uncharge((self.delta_charged - cur) as u64);
        }
        self.delta_charged = cur;
    }
}

/// An updatable clustered columnstore table. Cheap to clone (shared state);
/// all methods take `&self` and synchronize internally, so a background
/// tuple mover can run against a clone.
#[derive(Clone)]
pub struct ColumnStoreTable {
    schema: Schema,
    inner: Arc<RwLock<Inner>>,
}

impl ColumnStoreTable {
    pub fn new(schema: Schema, config: TableConfig) -> Self {
        let cs = ColumnStore::new(schema.clone()).with_sort_mode(config.sort_mode.clone());
        Self::from_parts(schema, cs, config)
    }

    fn from_parts(schema: Schema, cs: ColumnStore, config: TableConfig) -> Self {
        ColumnStoreTable {
            schema,
            inner: Arc::new(RwLock::new_leveled(
                3,
                "table.inner",
                Inner {
                    cs,
                    open: None,
                    closed: Vec::new(),
                    deleted: DeleteBitmap::new(),
                    config,
                    faults: None,
                    wal: None,
                    last_lsn: 0,
                    governor: None,
                    delta_charged: 0,
                },
            )),
        }
    }

    /// Install a fault injector consulted at the `mover.pass` point by
    /// every tuple-mover pass (chaos testing).
    pub fn set_fault_injector(&self, faults: FaultInjector) {
        self.inner.write().faults = Some(faults);
    }

    /// Wire this table to a write-ahead log: every subsequent mutation
    /// logs a record and group-commits it before returning.
    pub fn set_wal(&self, handle: WalHandle) {
        self.inner.write().wal = Some(handle);
    }

    /// Detach the WAL (used when tearing a database down in tests).
    pub fn clear_wal(&self) {
        self.inner.write().wal = None;
    }

    /// Wire this table to the resource governor: trickle inserts park at
    /// the delta high-water mark, and delta bytes (existing ones
    /// immediately, future ones as they land) are charged to the shared
    /// memory ledger.
    pub fn set_governor(&self, governor: Arc<Governor>) {
        let mut inner = self.inner.write();
        inner.governor = Some(governor);
        inner.sync_delta_charge();
    }

    /// Block until the closed-delta count is below the governor's
    /// high-water mark (waking on tuple-mover progress), or fail with
    /// [`Error::ResourceExhausted`] at the backpressure deadline. Holds
    /// **no** table lock while parked — the condition is re-read under a
    /// brief read lock every wait slice, so a missed wakeup costs one
    /// slice, never a deadline.
    pub fn backpressure_admit(&self) -> Result<()> {
        let Some(gov) = self.inner.read().governor.clone() else {
            return Ok(());
        };
        let bp = Arc::clone(gov.backpressure());
        let hwm = bp.high_water();
        if hwm == 0 || (self.inner.read().closed.len() as u64) < hwm {
            return Ok(());
        }
        bp.note_wait();
        let deadline = Instant::now() + bp.timeout();
        loop {
            bp.wait_slice(deadline);
            let hwm = bp.high_water();
            let closed = self.inner.read().closed.len() as u64;
            if hwm == 0 || closed < hwm {
                return Ok(());
            }
            if Instant::now() >= deadline {
                bp.note_rejected();
                return Err(Error::ResourceExhausted(format!(
                    "delta-store backpressure: {closed} closed delta stores at or above \
                     the high-water mark {hwm} and no tuple-mover progress within {}ms",
                    bp.timeout().as_millis()
                )));
            }
        }
    }

    /// The table's persisted-or-replayed LSN watermark.
    pub fn wal_last_lsn(&self) -> u64 {
        self.inner.read().last_lsn
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Trickle-insert one row. Returns its RowId (which may later change if
    /// the tuple mover compresses the row's delta store). With a WAL
    /// attached the insert is durable when this returns.
    pub fn insert(&self, row: Row) -> Result<RowId> {
        self.backpressure_admit()?;
        self.schema.check_row(&row)?;
        match self
            .commit(vec![Op::Row(TxnApplyOp::Insert(vec![row]))])?
            .map(|a| a.inserted)
            .as_deref()
        {
            Some(&[rid]) => Ok(rid),
            _ => Err(Error::Execution("trickle insert placed no row".into())),
        }
    }

    /// Insert every row of one statement under a single commit
    /// obligation: the whole batch rides `InsertBatch` WAL frames
    /// (chunked at [`WAL_BATCH_ROWS`]) and one group commit, so a
    /// multi-row `INSERT ... VALUES (...),(...)` pays one fsync for the
    /// statement instead of one per row. With a WAL attached every row
    /// is durable when this returns.
    pub fn insert_batch(&self, rows: &[Row]) -> Result<Vec<RowId>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        self.backpressure_admit()?;
        let ops: Vec<TxnApplyOp> = rows
            .chunks(WAL_BATCH_ROWS)
            .map(|chunk| TxnApplyOp::Insert(chunk.to_vec()))
            .collect();
        self.check_rows(&ops)?;
        let applied = self.commit(ops.into_iter().map(Op::Row).collect())?;
        Ok(applied.map(|a| a.inserted).unwrap_or_default())
    }

    /// Every change outside a transaction goes through here — trickle
    /// writes, bulk loads, mover installs, rebuilds and archives. Under
    /// the write lock: drop each replacement whose source changed since
    /// it was read (a miss), then apply the rest and log their frames in
    /// one critical section. Then commit with no lock held. If the commit
    /// fails, replay will not see the write set, so its contents are
    /// undone: inserts, deletes, a bulk load's groups and remainder.
    /// Replacements stay; a delete committed against a new group in the
    /// failure window would otherwise come back. Returns `None` when a
    /// delete found no live row (and nothing was applied).
    fn commit(&self, mut ops: Vec<Op<'_>>) -> Result<Option<AppliedWrites>> {
        let (applied, wal, frames) = {
            let mut inner = self.inner.write();
            ops.retain(|op| inner.expects(op));
            let wal = inner.wal.as_ref().map(|h| Arc::clone(&h.wal));
            let frames: Vec<WalRecord> = (inner.wal.iter())
                .flat_map(|h| ops.iter().flat_map(|op| op.frames(&h.table)))
                .collect();
            (inner.apply_logged(ops, &frames)?, wal, frames)
        };
        let Some(applied) = applied else {
            return Ok(None);
        };
        if let (Some(wal), Some(lsn)) = (wal, applied.lsn) {
            if let Err(e) = wal.commit(lsn) {
                // The frames carry the rows to undo by.
                let ops: Vec<TxnApplyOp> = frames
                    .into_iter()
                    .filter_map(TxnApplyOp::from_record)
                    .map(|(_, op)| op)
                    .collect();
                self.undo_write_set(&ops, &applied);
                return Err(e);
            }
        }
        Ok(Some(applied))
    }

    /// Schema-check every row `ops` would insert.
    fn check_rows(&self, ops: &[TxnApplyOp]) -> Result<()> {
        for op in ops {
            if let TxnApplyOp::Insert(rows) = op {
                for row in rows {
                    self.schema.check_row(row)?;
                }
            }
        }
        Ok(())
    }

    /// Encode a row group `id` of `n_rows` rows that `fill` pushes, with
    /// the table's sort mode and current global dictionaries. Runs with
    /// no table lock held.
    fn build_group(
        &self,
        id: RowGroupId,
        n_rows: usize,
        fill: impl FnOnce(&mut RowGroupBuilder) -> Result<()>,
    ) -> Result<CompressedRowGroup> {
        let (mut b, dicts) = {
            let inner = self.inner.read();
            let sort = inner.config.sort_mode.clone();
            let b = RowGroupBuilder::new(self.schema.clone(), sort).with_max_rows(n_rows.max(1));
            (b, inner.cs.global_dicts().to_vec())
        };
        fill(&mut b)?;
        b.finish(id, &dicts)
    }

    /// Bulk-insert rows. Batches at/above the threshold compress directly;
    /// a trailing remainder below it goes through the delta store. The
    /// chunks compress with no lock held, so a large load blocks neither
    /// readers nor writers; then the groups and the remainder are one
    /// write set, logged as `InsertBatch` frames (plus a `RowGroupSealed`
    /// per group) and committed or undone as a whole.
    pub fn bulk_insert(&self, rows: &[Row]) -> Result<BulkLoadReport> {
        for row in rows {
            self.schema.check_row(row)?;
        }
        let config = self.inner.read().config.clone();
        let mut chunks: Vec<&[Row]> = Vec::new();
        let mut remaining = rows;
        while remaining.len() >= config.bulk_load_threshold {
            let take = remaining.len().min(config.max_rowgroup_rows);
            let (chunk, rest) = remaining.split_at(take);
            chunks.push(chunk);
            remaining = rest;
        }
        // Group ids must come from the store's allocator (briefly under
        // the write lock).
        let ids: Vec<RowGroupId> = {
            let mut inner = self.inner.write();
            chunks.iter().map(|_| inner.cs.alloc_group_id()).collect()
        };
        let mut ops = Vec::with_capacity(chunks.len() + 1);
        for (chunk, id) in chunks.into_iter().zip(&ids) {
            let fill = |b: &mut RowGroupBuilder| chunk.iter().try_for_each(|row| b.push_row(row));
            ops.push(Op::Load(
                chunk,
                Some(self.build_group(*id, chunk.len(), fill)?),
            ));
        }
        ops.push(Op::Load(remaining, None));
        self.commit(ops)?;
        Ok(BulkLoadReport {
            compressed_groups: ids,
            delta_rows: remaining.len(),
        })
    }

    /// Delete the row at `rid`. Returns `true` if a live row was deleted,
    /// `false` if the row was already deleted or never existed, and an
    /// error if `rid` names no row group. With a WAL attached a
    /// successful delete is durable when this returns; the record carries
    /// the row's values because row ids are not stable across crash
    /// replay.
    pub fn delete(&self, rid: RowId) -> Result<bool> {
        let Some(row) = self.get_row(rid)? else {
            return Ok(false);
        };
        Ok(self
            .commit(vec![Op::Row(TxnApplyOp::Delete(rid, row))])?
            .is_some())
    }

    /// Fetch the row at `rid` if it is live; an error if `rid` names no
    /// row group.
    pub fn get_row(&self, rid: RowId) -> Result<Option<Row>> {
        self.inner.read().row_at(rid)
    }

    /// Compress every closed delta store into a columnar row group (one
    /// tuple-mover pass). Returns the number of delta stores moved.
    ///
    /// The compressed group reuses the delta store's row-group id, so row
    /// ids remain unique; tuple ids within the group are reassigned
    /// (compression reorders rows).
    pub fn tuple_move_once(&self) -> Result<usize> {
        self.tuple_move_pass().map(|r| r.stores)
    }

    /// One tuple-mover pass, reporting stores and rows moved. Consults the
    /// installed fault injector (if any) at `mover.pass` before touching
    /// data, so chaos tests can fail whole passes deterministically.
    pub fn tuple_move_pass(&self) -> Result<MovePassReport> {
        let _span = cstore_common::trace::global().span("mover.pass");
        let (faults, governor) = {
            let inner = self.inner.read();
            (inner.faults.clone(), inner.governor.clone())
        };
        if let Some(kind) = faults.and_then(|f| f.hit("mover.pass")) {
            return Err(kind.to_error("mover.pass"));
        }
        // Snapshot the closed stores' contents under a read lock and
        // compress them with no lock held. Deletes can hit a closed store
        // while it compresses; its install then misses and the store is
        // retried on the next pass, so no delete is ever lost.
        let work: Vec<(RowGroupId, usize, Vec<Vec<Value>>)> = {
            let inner = self.inner.read();
            inner
                .closed
                .iter()
                .map(|d| (d.id(), d.len(), d.to_columns(&self.schema)))
                .collect()
        };
        if work.is_empty() {
            return Ok(MovePassReport::default());
        }
        let mut ops = Vec::with_capacity(work.len());
        for (id, len, cols) in work {
            let _span = cstore_common::trace::global().span("compress_rowgroup");
            let group = self.build_group(id, len, |b| b.push_columns(cols))?;
            ops.push(Op::Install(Some(group), Old::Store(id, len)));
        }
        let applied = self.commit(ops);
        // Wake parked inserters *after* the write lock is released, so a
        // woken thread's re-check sees the shrunken closed-delta count;
        // also after a failed commit, whose installs stay.
        if let Some(gov) = governor {
            gov.backpressure().notify_progress();
        }
        let mut moved = MovePassReport::default();
        for (_, old) in applied?.map(|a| a.replaced).unwrap_or_default() {
            if let Old::Store(_, len) = old {
                moved.stores += 1;
                moved.rows += len;
            }
        }
        Ok(moved)
    }

    /// Force-close the open delta store (so the next tuple-mover pass picks
    /// it up). Used by tests, benchmarks and explicit REORGANIZE calls.
    pub fn close_open_delta(&self) {
        let mut inner = self.inner.write();
        if let Some(mut d) = inner.open.take() {
            if !d.is_empty() {
                d.close();
                inner.closed.push(d);
            }
        }
    }

    /// Rebuild one compressed row group, dropping deleted rows and
    /// re-encoding (REORGANIZE of a group with many deletes). A delete
    /// that lands on the group while it is rebuilt makes the install a
    /// miss: the group stays as it is, for the next REORGANIZE.
    pub fn rebuild_group(&self, id: RowGroupId) -> Result<()> {
        self.install(self.build_rebuild(id)?).map(drop)
    }

    /// The build step of [`ColumnStoreTable::rebuild_group`]: read the
    /// group's live rows and re-encode them as a new group with no lock
    /// held.
    pub(crate) fn build_rebuild(&self, id: RowGroupId) -> Result<Op<'static>> {
        let (g, marks) = {
            let inner = self.inner.read();
            let marks = inner.deleted.group_bitmap(id).cloned();
            (inner.cs.group_by_id(id).cloned(), marks.unwrap_or_default())
        };
        let g = g.ok_or_else(|| no_group(id))?;
        let mut surviving = Vec::with_capacity(g.n_rows());
        for t in (0..g.n_rows()).filter(|&t| t >= marks.len() || !marks.get(t)) {
            surviving.push(Row::new(g.row_values(t)?));
        }
        let group = if surviving.is_empty() {
            None
        } else {
            let new_id = self.inner.write().cs.alloc_group_id();
            let fill = |b: &mut RowGroupBuilder| surviving.iter().try_for_each(|r| b.push_row(r));
            Some(self.build_group(new_id, surviving.len(), fill)?)
        };
        Ok(Op::Install(group, Old::Group(id, marks.count_ones())))
    }

    /// The install step of a rebuild or an archive: one replacement
    /// through [`ColumnStoreTable::commit`]. `false` when what it
    /// replaces changed since it was read.
    pub(crate) fn install(&self, op: Op<'_>) -> Result<bool> {
        Ok(self
            .commit(vec![op])?
            .is_some_and(|a| !a.replaced.is_empty()))
    }

    /// REORGANIZE: compress closed delta stores and rebuild compressed row
    /// groups whose deleted fraction reaches `deleted_threshold` (dropping
    /// the dead rows and re-encoding). Returns `(groups_rebuilt,
    /// deltas_compressed)`.
    pub fn reorganize(&self, deleted_threshold: f64) -> Result<(usize, usize)> {
        let moved = self.tuple_move_once()?;
        let victims: Vec<RowGroupId> = {
            let inner = self.inner.read();
            inner
                .cs
                .groups()
                .iter()
                .filter(|g| {
                    let dead = inner.deleted.deleted_in_group(g.id());
                    g.n_rows() > 0 && dead as f64 / g.n_rows() as f64 >= deleted_threshold
                })
                .map(|g| g.id())
                .collect()
        };
        let mut rebuilt = 0;
        for id in victims {
            rebuilt += usize::from(self.install(self.build_rebuild(id)?)?);
        }
        Ok((rebuilt, moved))
    }

    /// Switch a compressed row group to archival compression: compress a
    /// copy with no lock held, then swap it in.
    pub fn archive_group(&self, id: RowGroupId) -> Result<()> {
        let group = self.inner.read().cs.group_by_id(id).cloned();
        let mut group = group.ok_or_else(|| no_group(id))?;
        group.archive()?;
        self.install(Op::Install(Some(group), Old::Hot(id)))
            .map(drop)
    }

    /// Archive every compressed row group (`ALTER ... COLUMNSTORE_ARCHIVE`).
    pub fn archive_all(&self) -> Result<()> {
        let ids: Vec<RowGroupId> = {
            let inner = self.inner.read();
            inner.cs.groups().iter().map(|g| g.id()).collect()
        };
        for id in ids {
            self.archive_group(id)?;
        }
        Ok(())
    }

    /// Persist the whole table (compressed row groups, delta rows, delete
    /// bitmap, config) into `store` under `prefix`. Returns the table's
    /// WAL watermark as of this snapshot: every record for this table at
    /// or below the returned LSN is contained in what was just written
    /// (with no WAL attached this is the table's stored watermark).
    pub fn persist(
        &self,
        store: &mut dyn cstore_storage::blob::BlobStore,
        prefix: &str,
    ) -> Result<u64> {
        use cstore_storage::format::{write_value, Writer};
        let inner = self.inner.read();
        // The global WAL tail is a valid per-table watermark (so a quiet
        // table does not pin retirement) because every frame at or below
        // it falls in one of two classes. Plain frames and autocommit
        // brackets are logged inside the write-lock critical section that
        // applies them (`apply_logged` logs its `frames` under the lock,
        // for bulk loads and mover installs too), so under this read lock
        // each one is already applied.
        // `TxnOp` frames of an explicit transaction are not — they are
        // logged at statement time and applied at COMMIT — but replay
        // never gates them on their own LSNs: it applies a transaction
        // once, at its `TxnCommit` record's LSN, and a save is refused
        // while any explicit transaction is open, so no commit record can
        // straddle this boundary. An op frame below it belongs to a
        // transaction that is fully applied here or will never commit.
        let boundary = match &inner.wal {
            Some(h) => h.wal.tail_lsn().max(inner.last_lsn),
            None => inner.last_lsn,
        };
        inner.cs.persist(store, prefix)?;
        // Delta rows (open + closed) flatten into one blob; on load they
        // re-insert through the normal trickle path, so delta-store
        // boundaries may differ — row ids are not durable, rows are.
        let mut w = Writer::new();
        w.u32(0x4454_5343); // "CSTD"
        w.u16(cstore_storage::format::FORMAT_VERSION);
        w.u64(boundary);
        let delta_rows: Vec<&Row> = inner
            .closed
            .iter()
            .chain(inner.open.as_ref())
            .flat_map(|d| d.iter().map(|(_, r)| r))
            .collect();
        w.u32(convert::u32_from_usize(delta_rows.len())?);
        for row in delta_rows {
            for v in row.values() {
                write_value(&mut w, v)?;
            }
        }
        // Delete bitmap: per-group bitmaps.
        let groups: Vec<RowGroupId> = inner.cs.groups().iter().map(|g| g.id()).collect();
        w.u32(convert::u32_from_usize(groups.len())?);
        for gid in groups {
            w.u32(gid.0);
            match inner.deleted.group_bitmap(gid) {
                Some(b) => {
                    w.u32(convert::u32_from_usize(b.len())?);
                    for &word in b.words() {
                        w.u64(word);
                    }
                }
                None => w.u32(0),
            }
        }
        store.put(&format!("{prefix}.delta"), &w.seal())?;
        Ok(boundary)
    }

    /// Load a table persisted by [`ColumnStoreTable::persist`]. Strict:
    /// any unreadable blob fails the whole load.
    pub fn load(
        store: &dyn cstore_storage::blob::BlobStore,
        prefix: &str,
        schema: Schema,
        config: TableConfig,
    ) -> Result<ColumnStoreTable> {
        let cs = ColumnStore::load(store, prefix, schema.clone())?;
        let table = Self::from_parts(schema.clone(), cs, config);
        let blob = store.get(&format!("{prefix}.delta"))?;
        let (rows, deletes, last_lsn) = Self::parse_delta_blob(&blob, &schema)?;
        table.apply_delta(rows, deletes)?;
        table.inner.write().last_lsn = last_lsn;
        Ok(table)
    }

    /// Load a table, quarantining unreadable row-group blobs and an
    /// unreadable delta blob instead of failing. A quarantined delta blob
    /// loses both its rows *and* its delete bitmap (deleted compressed rows
    /// may resurrect) — the returned report is the caller's signal that the
    /// table needs repair. The row-group manifest itself must be readable.
    pub fn load_degraded(
        store: &dyn cstore_storage::blob::BlobStore,
        prefix: &str,
        schema: Schema,
        config: TableConfig,
    ) -> Result<(ColumnStoreTable, Vec<BlobQuarantine>)> {
        let (cs, mut quarantined) = ColumnStore::load_degraded(store, prefix, schema.clone())?;
        let table = Self::from_parts(schema.clone(), cs, config);
        let key = format!("{prefix}.delta");
        match store
            .get(&key)
            .and_then(|blob| Self::parse_delta_blob(&blob, &schema))
        {
            Ok((rows, deletes, last_lsn)) => {
                table.apply_delta(rows, deletes)?;
                table.inner.write().last_lsn = last_lsn;
            }
            Err(e) => quarantined.push(BlobQuarantine {
                key,
                kind: QuarantinedKind::Delta,
                error: e.to_string(),
            }),
        }
        Ok((table, quarantined))
    }

    /// Parse a `.delta` blob into its rows and deleted row ids without
    /// touching any table state, so a parse failure mid-blob cannot leave a
    /// table half-loaded.
    fn parse_delta_blob(blob: &[u8], schema: &Schema) -> Result<(Vec<Row>, Vec<RowId>, u64)> {
        use cstore_storage::format::{read_value, Reader};
        let payload = Reader::check_crc(blob)?;
        let mut r = Reader::new(payload);
        if r.u32()? != 0x4454_5343 {
            return Err(Error::Storage("bad delta blob magic".into()));
        }
        let version = r.u16()?;
        if version != cstore_storage::format::FORMAT_VERSION {
            return Err(Error::Storage(format!(
                "unsupported delta blob version {version}"
            )));
        }
        let last_lsn = r.u64()?;
        let n_rows = convert::usize_from_u32(r.u32()?);
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut values = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                values.push(read_value(&mut r)?);
            }
            rows.push(Row::new(values));
        }
        let n_groups = convert::usize_from_u32(r.u32()?);
        let mut deletes = Vec::new();
        for _ in 0..n_groups {
            let gid = RowGroupId(r.u32()?);
            let len = convert::usize_from_u32(r.u32()?);
            if len > 0 {
                let mut words = Vec::with_capacity(len.div_ceil(64));
                for _ in 0..len.div_ceil(64) {
                    words.push(r.u64()?);
                }
                let bitmap = cstore_common::Bitmap::from_words(words, len);
                for tuple in bitmap.iter_ones() {
                    deletes.push(RowId::new(gid, convert::u32_from_usize(tuple)?));
                }
            }
        }
        Ok((rows, deletes, last_lsn))
    }

    /// Re-insert parsed delta rows and re-mark deletes, under one lock.
    /// Delete marks for row groups absent from the column store
    /// (quarantined in a degraded open) are skipped, keeping row
    /// accounting consistent.
    fn apply_delta(&self, rows: Vec<Row>, deletes: Vec<RowId>) -> Result<()> {
        let ops = [TxnApplyOp::Insert(rows)];
        self.check_rows(&ops)?;
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        inner.apply_ops(ops.map(Op::Row), &mut AppliedWrites::default())?;
        for rid in deletes {
            if inner.cs.group_by_id(rid.group).is_some() {
                inner.deleted.delete(rid);
            }
        }
        inner.sync_delta_charge();
        Ok(())
    }

    /// Replay the ops of one WAL record — a plain Insert, InsertBatch or
    /// Delete frame, or this table's share of a committed transaction —
    /// iff `lsn` is past the table's watermark. A transaction is stamped
    /// with its TxnCommit record's LSN, its atomicity point: its ops keep
    /// earlier LSNs in the log, but interleaved autocommit frames may
    /// have advanced the watermark past them. Deletes are value-verified,
    /// since row ids are reassigned on load and replay. Never logs
    /// (replay runs before a WAL handle is attached) and advances the
    /// watermark, so replay is idempotent. Returns `None` below the
    /// watermark, else how many deletes found no live row.
    pub fn wal_apply(&self, lsn: u64, ops: Vec<TxnApplyOp>) -> Result<Option<u64>> {
        self.check_rows(&ops)?;
        let mut inner = self.inner.write();
        if lsn <= inner.last_lsn {
            return Ok(None);
        }
        let misses =
            inner.apply_ops(ops.into_iter().map(Op::Row), &mut AppliedWrites::default())?;
        inner.last_lsn = lsn;
        inner.sync_delta_charge();
        Ok(Some(misses))
    }

    // ---------------------------------------- transaction commit apply

    /// Apply one transaction's writes to this table, all or nothing, in
    /// a single write-lock critical section — readers see the whole set
    /// or none of it. Deletes are value-verified, so rids gone stale
    /// under a tuple-mover pass still resolve; a delete that finds no
    /// live row means a concurrent committer consumed that row version
    /// first — the applied prefix is undone and `Ok(None)` reports the
    /// write-write conflict.
    ///
    /// `frames` are logged after the apply, still under the lock: an
    /// autocommit statement passes its write set's frames here so that
    /// logging and applying stay one critical section (what keeps the
    /// WAL tail a valid watermark in [`ColumnStoreTable::persist`]); an
    /// explicit transaction logged its `TxnOp` frames at statement time
    /// and passes none. A refused append undoes the apply. The caller
    /// commits [`AppliedWrites::lsn`] with no table lock held, and calls
    /// [`undo_write_set`](Self::undo_write_set) if that fails, with the
    /// same `ops` (the apply works on a copy, made before the lock).
    pub fn apply_write_set(
        &self,
        ops: &[TxnApplyOp],
        frames: &[WalRecord],
    ) -> Result<Option<AppliedWrites>> {
        self.check_rows(ops)?;
        let ops = ops.iter().cloned().map(Op::Row).collect();
        self.inner.write().apply_logged(ops, frames)
    }

    /// Take back an applied write set whose commit record could not be
    /// made durable: replay will discard the transaction, so the live
    /// image must agree. Unlogged, for the same reason.
    pub fn undo_write_set(&self, ops: &[TxnApplyOp], applied: &AppliedWrites) {
        let mut inner = self.inner.write();
        inner.undo_ops(Some(ops), applied);
        inner.sync_delta_charge();
    }

    /// A consistent snapshot for scans.
    pub fn snapshot(&self) -> TableSnapshot {
        let inner = self.inner.read();
        let mut delta_rows = Vec::new();
        for d in inner.closed.iter().chain(inner.open.as_ref()) {
            for (rid, row) in d.iter() {
                delta_rows.push((rid, row.clone()));
            }
        }
        TableSnapshot::new(
            self.schema.clone(),
            inner.cs.groups().to_vec(),
            delta_rows,
            inner.deleted.clone(),
        )
    }

    /// Point-in-time introspection snapshot for the `sys.*` views:
    /// delta-store lifecycle (open/closed), compressed row-group handles,
    /// per-group delete counts and the table's global dictionaries — all
    /// captured under **one** read-lock critical section, so the delete
    /// counts always agree with the captured groups even while the tuple
    /// mover is installing compressions concurrently. Per-segment work
    /// (metadata, size estimates) happens on the returned `Arc`-shared
    /// handles after the lock is released.
    pub fn introspect(&self) -> TableIntrospection {
        let inner = self.inner.read();
        let delta_info = |d: &crate::delta_store::DeltaStore| DeltaStoreIntrospection {
            id: d.id(),
            rows: d.len(),
            approx_bytes: d.approx_bytes(),
        };
        let groups = inner.cs.groups().to_vec();
        let deleted_rows = groups
            .iter()
            .map(|g| inner.deleted.deleted_in_group(g.id()))
            .collect();
        TableIntrospection {
            schema: self.schema.clone(),
            open: inner.open.as_ref().map(delta_info),
            closed: inner.closed.iter().map(delta_info).collect(),
            groups,
            deleted_rows,
            global_dicts: inner.cs.global_dicts().to_vec(),
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> TableStats {
        let inner = self.inner.read();
        let delta_rows: usize = inner
            .closed
            .iter()
            .chain(inner.open.as_ref())
            .map(|d| d.len())
            .sum();
        TableStats {
            compressed_rows: inner.cs.total_rows(),
            deleted_rows: inner.deleted.total_deleted(),
            delta_rows,
            n_compressed_groups: inner.cs.groups().len(),
            n_open_deltas: usize::from(inner.open.is_some()),
            n_closed_deltas: inner.closed.len(),
            compressed_bytes: inner.cs.encoded_bytes(),
            delta_bytes: inner
                .closed
                .iter()
                .chain(inner.open.as_ref())
                .map(|d| d.approx_bytes())
                .sum(),
        }
    }

    /// Live rows (compressed − deleted + delta).
    pub fn total_rows(&self) -> usize {
        let s = self.stats();
        s.compressed_rows - s.deleted_rows + s.delta_rows
    }

    /// Run `f` with read access to the compressed column store (scan path).
    pub fn with_columnstore<R>(&self, f: impl FnOnce(&ColumnStore) -> R) -> R {
        f(&self.inner.read().cs)
    }

    /// Sum of a column over a snapshot — convenience used by tests.
    pub fn sum_i64(&self, col: usize) -> Result<i64> {
        let snap = self.snapshot();
        let mut total = 0i64;
        for row in snap.scan_rows() {
            if let Some(v) = row.get(col).as_i64() {
                total += v;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;
    use cstore_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("k", DataType::Int64),
            Field::not_null("s", DataType::Utf8),
        ])
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int64(i), Value::str(format!("v{}", i % 5))])
    }

    fn small_config() -> TableConfig {
        TableConfig {
            delta_capacity: 100,
            bulk_load_threshold: 500,
            max_rowgroup_rows: 1000,
            sort_mode: SortMode::None,
        }
    }

    #[test]
    fn trickle_inserts_fill_and_close_deltas() {
        let t = ColumnStoreTable::new(schema(), small_config());
        for i in 0..250 {
            t.insert(row(i)).unwrap();
        }
        let s = t.stats();
        assert_eq!(s.delta_rows, 250);
        assert_eq!(s.n_closed_deltas, 2);
        assert_eq!(s.n_open_deltas, 1);
        assert_eq!(t.total_rows(), 250);
    }

    #[test]
    fn tuple_mover_compresses_closed_deltas() {
        let t = ColumnStoreTable::new(schema(), small_config());
        for i in 0..250 {
            t.insert(row(i)).unwrap();
        }
        let moved = t.tuple_move_once().unwrap();
        assert_eq!(moved, 2);
        let s = t.stats();
        assert_eq!(s.compressed_rows, 200);
        assert_eq!(s.delta_rows, 50);
        assert_eq!(s.n_closed_deltas, 0);
        assert_eq!(t.total_rows(), 250);
        // Data survives the move.
        let all: i64 = t.sum_i64(0).unwrap();
        assert_eq!(all, (0..250).sum::<i64>());
    }

    #[test]
    fn verified_delete_survives_mover_renumbering() {
        // A delta store with a hole compresses into dense positions, so
        // tuple ids captured before the move no longer line up: a bare
        // rid delete would hit the wrong row (or fall off the end).
        let config = TableConfig {
            delta_capacity: 10,
            ..small_config()
        };
        let t = ColumnStoreTable::new(schema(), config);
        let rids: Vec<RowId> = (0..10).map(|i| t.insert(row(i)).unwrap()).collect();
        assert!(t.delete(rids[3]).unwrap());
        t.close_open_delta();
        assert_eq!(t.tuple_move_once().unwrap(), 1);
        let delete_verified = |rid: RowId, expected: Row| {
            let ops = [TxnApplyOp::Delete(rid, expected)];
            t.apply_write_set(&ops, &[]).unwrap().is_some()
        };
        // Row 7 now sits at position 6 of the compressed group; its old
        // rid points at row 8. The verified delete removes row 7 anyway.
        assert!(delete_verified(rids[7], row(7)));
        // Row 9 is the last row; its old tuple id (9) is past the end of
        // the 9-row group, which a bare rid lookup cannot resolve at all.
        assert!(delete_verified(rids[9], row(9)));
        // Already-deleted rows are not found again.
        assert!(!delete_verified(rids[7], row(7)));
        assert_eq!(t.total_rows(), 7);
        assert_eq!(t.sum_i64(0).unwrap(), (0..10).sum::<i64>() - 3 - 7 - 9);
    }

    #[test]
    fn bulk_insert_above_threshold_bypasses_delta() {
        let t = ColumnStoreTable::new(schema(), small_config());
        let rows: Vec<Row> = (0..2300).map(row).collect();
        let report = t.bulk_insert(&rows).unwrap();
        // 2300 rows, max group 1000, threshold 500: groups of 1000+1000,
        // remainder 300 < 500 → delta.
        assert_eq!(report.compressed_groups.len(), 2);
        assert_eq!(report.delta_rows, 300);
        let s = t.stats();
        assert_eq!(s.compressed_rows, 2000);
        assert_eq!(s.delta_rows, 300);
    }

    #[test]
    fn bulk_insert_below_threshold_goes_to_delta() {
        let t = ColumnStoreTable::new(schema(), small_config());
        let rows: Vec<Row> = (0..400).map(row).collect();
        let report = t.bulk_insert(&rows).unwrap();
        assert!(report.compressed_groups.is_empty());
        assert_eq!(report.delta_rows, 400);
        assert_eq!(t.stats().compressed_rows, 0);
    }

    fn wal_fixture(
        seed: u64,
    ) -> (
        ColumnStoreTable,
        std::sync::Arc<Wal>,
        FaultInjector,
        cstore_storage::log::MemLogStore,
    ) {
        let t = ColumnStoreTable::new(schema(), small_config());
        let store = cstore_storage::log::MemLogStore::new();
        let faults = FaultInjector::new(seed);
        let (wal, _) = Wal::open(
            Box::new(store.clone()),
            crate::wal::WalOptions::default(),
            Some(faults.clone()),
            &[],
        )
        .unwrap();
        t.set_wal(WalHandle {
            wal: Arc::clone(&wal),
            table: "t".into(),
        });
        (t, wal, faults, store)
    }

    /// With the WAL wedged, `bulk_insert` must propagate the append error
    /// and leave no unlogged row group sealed: the refused append undoes
    /// the whole write set inside its critical section. (A commit that
    /// fails after the append is covered by
    /// `failed_commit_flush_undoes_direct_writes`.)
    #[test]
    fn bulk_insert_propagates_wal_errors_without_sealing() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let (t, wal, faults, _) = wal_fixture(21);
        // Wedge the WAL with a failed flush (sticky).
        faults.arm("wal.append", FaultSpec::new(FaultKind::IoError).always());
        assert!(t.insert(row(0)).is_err());
        assert!(wal.status().failed.is_some());
        // ≥ threshold (500), so the bulk path would seal a group.
        let rows: Vec<Row> = (0..600).map(row).collect();
        let err = t.bulk_insert(&rows).unwrap_err();
        assert!(err.to_string().contains("WAL is failed"), "{err}");
        let s = t.stats();
        assert_eq!(
            s.n_compressed_groups, 0,
            "a refused append must not seal a row group"
        );
        assert_eq!(s.compressed_rows, 0);
        assert_eq!(
            s.delta_rows, 0,
            "the wedging insert's failed commit took its row back too"
        );
    }

    /// A direct write whose commit flush fails is undone, as a SQL
    /// autocommit statement is: replay will not see it, so readers must
    /// not either.
    #[test]
    fn failed_commit_flush_undoes_direct_writes() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let (t, wal, faults, _) = wal_fixture(24);
        let kept = t.insert(row(1)).unwrap();
        let fail_next_flush =
            || faults.arm("wal.fsync", FaultSpec::new(FaultKind::IoError).always());
        let recover = || {
            faults.disarm_all();
            wal.try_clear_failure().unwrap();
        };
        fail_next_flush();
        assert!(t.insert(row(2)).is_err());
        assert_eq!(t.total_rows(), 1, "a single-row insert is undone");
        recover();
        fail_next_flush();
        let batch: Vec<Row> = (10..60).map(row).collect();
        assert!(t.insert_batch(&batch).is_err());
        assert_eq!(t.total_rows(), 1, "a batch is undone");
        recover();
        fail_next_flush();
        assert!(t.delete(kept).is_err());
        assert_eq!(t.total_rows(), 1, "a delete is undone");
        assert_eq!(t.sum_i64(0).unwrap(), 1);
        recover();
        fail_next_flush();
        // ≥ threshold (500): one compressed group plus a delta remainder.
        let bulk: Vec<Row> = (100..1150).map(row).collect();
        assert!(t.bulk_insert(&bulk).is_err());
        let s = t.stats();
        assert_eq!(t.total_rows(), 1, "a bulk load is undone");
        assert_eq!(s.n_compressed_groups, 0, "its groups are taken out");
        assert_eq!(t.sum_i64(0).unwrap(), 1);
    }

    /// Review fix: insert paths log before applying, so a statement
    /// that fails at WAL logging leaves no visible-but-unlogged rows
    /// behind (previously the rows stayed queryable until restart and
    /// silently vanished after a crash).
    #[test]
    fn refused_wal_log_leaves_no_visible_rows() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        let (t, wal, faults, _) = wal_fixture(23);
        faults.arm("wal.append", FaultSpec::new(FaultKind::IoError).always());
        // The wedging insert fails at *commit* (its frame was buffered)
        // and takes its row back out — the flush-failure case, covered
        // by `failed_commit_flush_undoes_direct_writes`.
        assert!(t.insert(row(0)).is_err());
        assert!(wal.status().failed.is_some());
        let before = t.total_rows();
        // With the WAL failed, logging is refused up front: neither the
        // single-row, batched, nor bulk path may apply anything.
        assert!(t.insert(row(1)).is_err());
        let batch: Vec<Row> = (0..50).map(row).collect();
        assert!(t.insert_batch(&batch).is_err());
        let bulk: Vec<Row> = (0..600).map(row).collect();
        assert!(t.bulk_insert(&bulk).is_err());
        assert_eq!(
            t.total_rows(),
            before,
            "a refused WAL append must not leave rows visible"
        );
    }

    /// Satellite-2 regression: a multi-row batch is one commit
    /// obligation — one `InsertBatch` frame, one flush, one fsync.
    #[test]
    fn insert_batch_is_one_frame_and_one_fsync() {
        let (t, wal, _, store) = wal_fixture(22);
        let rows: Vec<Row> = (0..50).map(row).collect();
        let rids = t.insert_batch(&rows).unwrap();
        assert_eq!(rids.len(), 50);
        assert_eq!(t.total_rows(), 50);
        let c = wal.status().counters;
        assert_eq!(c.records_appended, 1, "one InsertBatch frame per statement");
        assert_eq!(c.fsyncs, 1, "one fsync per statement, not per row");
        // And it replays: reopening the durable image into a fresh table
        // recovers every row of the batch.
        t.clear_wal();
        drop(wal); // joins the writer; the crash image is fully durable
        let t2 = ColumnStoreTable::new(schema(), small_config());
        let (_wal2, report) = Wal::open(
            Box::new(store.crash_image()),
            crate::wal::WalOptions::default(),
            None,
            &[("t".into(), t2.clone())],
        )
        .unwrap();
        assert_eq!(report.records_applied, 1);
        assert_eq!(t2.total_rows(), 50);
    }

    /// Replaying the same `InsertBatch` frame twice applies it once: the
    /// batch shares one LSN and the watermark gates it all-or-nothing.
    #[test]
    fn insert_batch_replay_is_idempotent() {
        let t = ColumnStoreTable::new(schema(), small_config());
        let ops = || vec![TxnApplyOp::Insert((0..10).map(row).collect())];
        assert_eq!(t.wal_apply(5, ops()).unwrap(), Some(0));
        assert_eq!(t.total_rows(), 10);
        assert_eq!(t.wal_apply(5, ops()).unwrap(), None);
        assert_eq!(t.total_rows(), 10, "below-watermark replay is skipped");
        assert_eq!(t.wal_apply(6, ops()).unwrap(), Some(0));
        assert_eq!(t.total_rows(), 20);
        assert_eq!(t.wal_last_lsn(), 6);
    }

    #[test]
    fn delete_from_delta_and_compressed() {
        let t = ColumnStoreTable::new(schema(), small_config());
        // Compressed rows via bulk load.
        t.bulk_insert(&(0..1000).map(row).collect::<Vec<_>>())
            .unwrap();
        // Delta rows via trickle.
        let rid_delta = t.insert(row(5000)).unwrap();
        let rid_comp = RowId::new(RowGroupId(0), 10);
        assert!(t.delete(rid_comp).unwrap());
        assert!(!t.delete(rid_comp).unwrap(), "double delete");
        assert!(t.delete(rid_delta).unwrap());
        assert!(!t.delete(rid_delta).unwrap());
        assert_eq!(t.total_rows(), 999);
        assert_eq!(t.get_row(rid_comp).unwrap(), None);
    }

    #[test]
    fn delete_unknown_group_errors() {
        let t = ColumnStoreTable::new(schema(), small_config());
        assert!(t.delete(RowId::new(RowGroupId(99), 0)).is_err());
    }

    /// A write set is all-or-nothing: a delete that finds no live row
    /// takes the already-applied prefix back out, and a set whose commit
    /// record was never made durable can be undone exactly afterwards.
    #[test]
    fn write_set_applies_atomically_and_undoes_exactly() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..1000).map(row).collect::<Vec<_>>())
            .unwrap();
        let old = RowId::new(RowGroupId(0), 7);
        let old_row = t.get_row(old).unwrap().unwrap();
        let before = t.sum_i64(0).unwrap();
        // UPDATE = delete + insert; the second delete conflicts.
        let conflicting = [
            TxnApplyOp::Delete(old, old_row.clone()),
            TxnApplyOp::Insert(vec![row(9999)]),
            TxnApplyOp::Delete(old, row(123_456)),
        ];
        assert!(t.apply_write_set(&conflicting, &[]).unwrap().is_none());
        assert_eq!(t.total_rows(), 1000);
        assert_eq!(t.sum_i64(0).unwrap(), before);
        // Without the conflict the same update lands in a delta store…
        let update = &conflicting[..2];
        let applied = t.apply_write_set(update, &[]).unwrap().unwrap();
        assert_eq!(t.get_row(old).unwrap(), None);
        assert_eq!(t.stats().delta_rows, 1);
        assert_eq!(t.total_rows(), 1000);
        // …and can be taken back out.
        t.undo_write_set(update, &applied);
        assert_eq!(t.stats().delta_rows, 1, "the old version is re-inserted");
        assert_eq!(t.total_rows(), 1000);
        assert_eq!(t.sum_i64(0).unwrap(), before);
    }

    #[test]
    fn snapshot_merges_all_sources() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..1000).map(row).collect::<Vec<_>>())
            .unwrap();
        t.insert(row(1000)).unwrap();
        t.delete(RowId::new(RowGroupId(0), 0)).unwrap();
        let snap = t.snapshot();
        let keys: std::collections::BTreeSet<i64> = snap
            .scan_rows()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(keys.len(), 1000);
        assert!(!keys.contains(&0), "deleted row visible");
        assert!(keys.contains(&1000), "delta row missing");
    }

    #[test]
    fn rebuild_group_drops_deleted() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..1000).map(row).collect::<Vec<_>>())
            .unwrap();
        for tpl in 0..500 {
            t.delete(RowId::new(RowGroupId(0), tpl)).unwrap();
        }
        assert_eq!(t.stats().deleted_rows, 500);
        t.rebuild_group(RowGroupId(0)).unwrap();
        let s = t.stats();
        assert_eq!(s.deleted_rows, 0);
        assert_eq!(s.compressed_rows, 500);
        assert_eq!(t.total_rows(), 500);
    }

    /// A delete that lands on a group while it is rebuilt (no lock is
    /// held between the build and the install) makes the install miss:
    /// the old group and the delete both stand, and the next rebuild
    /// succeeds.
    #[test]
    fn rebuild_misses_a_racing_delete_and_loses_nothing() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..1000).map(row).collect::<Vec<_>>())
            .unwrap();
        let g = RowGroupId(0);
        for tuple in 0..10 {
            t.delete(RowId::new(g, tuple)).unwrap();
        }
        let built = t.build_rebuild(g).unwrap();
        assert!(t.delete(RowId::new(g, 500)).unwrap());
        assert!(!t.install(built).unwrap(), "the delete changed the group");
        let s = t.stats();
        assert_eq!((s.n_compressed_groups, s.deleted_rows), (1, 11));
        assert_eq!(t.get_row(RowId::new(g, 500)).unwrap(), None);
        assert!(t.install(t.build_rebuild(g).unwrap()).unwrap());
        let s = t.stats();
        assert_eq!((s.compressed_rows, s.deleted_rows), (989, 0));
        assert!(t.get_row(RowId::new(g, 11)).is_err(), "group 0 is gone");
        let dead = (0..10).sum::<i64>() + 500;
        assert_eq!(t.sum_i64(0).unwrap(), (0..1000).sum::<i64>() - dead);
    }

    #[test]
    fn reorganize_rebuilds_heavily_deleted_groups() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..2000).map(row).collect::<Vec<_>>())
            .unwrap();
        // Kill 60% of group 0, 1% of group 1.
        for tuple in 0..600 {
            t.delete(RowId::new(RowGroupId(0), tuple)).unwrap();
        }
        for tuple in 0..10 {
            t.delete(RowId::new(RowGroupId(1), tuple)).unwrap();
        }
        // Some closed delta stores too.
        for i in 0..250 {
            t.insert(row(10_000 + i)).unwrap();
        }
        let before = t.total_rows();
        let (rebuilt, moved) = t.reorganize(0.3).unwrap();
        assert_eq!(rebuilt, 1, "only the 60%-dead group crosses the threshold");
        assert_eq!(moved, 2);
        assert_eq!(t.total_rows(), before);
        let s = t.stats();
        assert_eq!(s.deleted_rows, 10, "group 0's marks were purged");
        // Deleted: group 0 rows k=0..600, group 1 rows k=1000..1010.
        assert_eq!(
            t.sum_i64(0).unwrap(),
            (600..2000).sum::<i64>() - (1000..1010).sum::<i64>() + (10_000..10_250).sum::<i64>(),
        );
    }

    #[test]
    fn archive_all_preserves_scans() {
        let t = ColumnStoreTable::new(schema(), small_config());
        t.bulk_insert(&(0..2000).map(row).collect::<Vec<_>>())
            .unwrap();
        assert!(t.delete(RowId::new(RowGroupId(1), 7)).unwrap());
        let before: i64 = t.sum_i64(0).unwrap();
        t.archive_all().unwrap();
        assert_eq!(t.sum_i64(0).unwrap(), before, "delete marks carry over");
        assert_eq!(t.stats().deleted_rows, 1);
    }

    #[test]
    fn governor_ledger_tracks_delta_bytes() {
        use cstore_common::fault::{FaultKind, FaultSpec};
        use cstore_common::governor::Governor;
        let (t, _wal, faults, _) = wal_fixture(25);
        let gov = Arc::new(Governor::new());
        for i in 0..50 {
            t.insert(row(i)).unwrap();
        }
        // Attaching charges the *existing* delta footprint.
        t.set_governor(Arc::clone(&gov));
        let charged = gov.ledger().reserved();
        assert_eq!(charged as usize, t.stats().delta_bytes);
        assert!(charged > 0);
        t.insert(row(50)).unwrap();
        assert!(gov.ledger().reserved() > charged, "insert charges bytes");
        // Compressing the delta stores returns their bytes.
        t.close_open_delta();
        t.tuple_move_once().unwrap();
        assert_eq!(gov.ledger().reserved(), 0);
        // A delta delete returns the row's bytes too.
        let rid = t.insert(row(99)).unwrap();
        assert!(gov.ledger().reserved() > 0);
        t.delete(rid).unwrap();
        assert_eq!(gov.ledger().reserved(), 0);
        // A pass whose sealed markers are refused installs nothing, and
        // the ledger still charges exactly the stores that remain.
        for i in 200..400 {
            t.insert(row(i)).unwrap();
        }
        t.close_open_delta();
        let before = t.stats();
        assert!(before.n_closed_deltas >= 2);
        faults.arm("wal.append", FaultSpec::new(FaultKind::IoError).always());
        assert!(t.insert(row(0)).is_err(), "the failed flush wedges the WAL");
        assert!(t.tuple_move_pass().is_err());
        let s = t.stats();
        assert_eq!(s.n_closed_deltas, before.n_closed_deltas);
        assert_eq!(s.n_compressed_groups, before.n_compressed_groups);
        assert_eq!(gov.ledger().reserved() as usize, s.delta_bytes);
        // Dropping the table returns whatever is still charged.
        assert!(gov.ledger().reserved() > 0);
        drop(t);
        assert_eq!(gov.ledger().reserved(), 0);
    }

    #[test]
    fn governor_backpressure_rejects_then_resumes_on_mover_progress() {
        use cstore_common::governor::Governor;
        use std::time::Duration;
        let config = TableConfig {
            delta_capacity: 10,
            ..small_config()
        };
        let t = ColumnStoreTable::new(schema(), config);
        let gov = Arc::new(Governor::new());
        gov.backpressure().set_high_water(2);
        gov.backpressure().set_timeout_ms(150);
        t.set_governor(Arc::clone(&gov));
        // 21 inserts = two closed stores + one row in the third; the
        // high-water check precedes each insert, so the fill itself never
        // sees the mark crossed.
        for i in 0..21 {
            t.insert(row(i)).unwrap();
        }
        assert_eq!(t.stats().n_closed_deltas, 2);
        // No mover running: a blocked insert gives up at the deadline.
        let err = t.insert(row(100)).unwrap_err();
        assert_eq!(err.code(), "RESOURCE_EXHAUSTED", "{err}");
        assert!(
            err.to_string().contains("delta-store backpressure"),
            "{err}"
        );
        assert_eq!(gov.snapshot().backpressure_rejected_total, 1);
        // With a mover making progress, the parked insert resumes.
        gov.backpressure().set_timeout_ms(5_000);
        let t2 = t.clone();
        let mover = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            t2.tuple_move_once().unwrap();
        });
        t.insert(row(101)).unwrap();
        mover.join().unwrap();
        assert!(gov.snapshot().backpressure_waits_total >= 2);
        assert_eq!(t.stats().n_closed_deltas, 0);
    }

    #[test]
    fn concurrent_inserts_and_mover() {
        let t = ColumnStoreTable::new(schema(), small_config());
        let t2 = t.clone();
        let writer = std::thread::spawn(move || {
            for i in 0..2000 {
                t2.insert(row(i)).unwrap();
            }
        });
        let t3 = t.clone();
        let mover = std::thread::spawn(move || {
            for _ in 0..50 {
                t3.tuple_move_once().unwrap();
                std::thread::yield_now();
            }
        });
        writer.join().unwrap();
        mover.join().unwrap();
        t.tuple_move_once().unwrap();
        assert_eq!(t.total_rows(), 2000);
        assert_eq!(t.sum_i64(0).unwrap(), (0..2000).sum::<i64>());
    }
}
