//! The write path: how a write becomes visible and durable.
//!
//! Every columnstore INSERT, DELETE and UPDATE runs inside a transaction
//! and has exactly one implementation, here. `BEGIN…COMMIT` brackets an
//! explicit transaction (state in the session slot); a DML statement
//! outside one runs as an implicit single-statement transaction through
//! the same write-set building ([`Database::execute_in_txn`]) and the
//! same commit ([`Database::commit_active`]). The module owns the session
//! state machine, the private write sets and their read view, the WAL
//! framing decision (statement-time `TxnOp` frames for explicit
//! transactions; the single-frame commit rule for implicit ones), and
//! the non-transactional heap DML helper. See `DESIGN.md` §12.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cstore_common::{DataType, Error, Result, Row, RowGroupId, RowId, Schema, Value};
use cstore_delta::table::AppliedWrites;
use cstore_delta::wal::TxnApplyOp;
use cstore_delta::{ColumnStoreTable, TableSnapshot, Wal, WalRecord};
use cstore_exec::{ExecProfile, Expr};
use cstore_rowstore::HeapTable;
use cstore_sql::ast::{AstExpr, Statement};
use cstore_sql::{bind_expr_on_schema, bind_victim_scan, coerce, literal_value};

use crate::catalog::{Catalog, TableEntry};
use crate::database::{Database, QueryResult, TxnAck};
use crate::txn::TxnState;

/// The pseudo row-group id of rows a transaction has inserted but not
/// yet committed. Real row groups never reach this id, so a synthetic
/// rid can't collide with a live one, and commit-time replay resolves
/// it by value (the group does not exist in the live table).
const TXN_GROUP: RowGroupId = RowGroupId(u32::MAX);

/// Rows per buffered insert op, and so per WAL frame: a larger INSERT
/// becomes several ops, keeping every frame well under the WAL's 64 MB
/// frame limit and replay cost bounded per frame.
const TXN_WAL_BATCH_ROWS: usize = 4096;

/// One session's transaction state (guarded by the `db.session` mutex,
/// level 17 — a leaf that is never held across statement execution).
pub(crate) enum SessionTxn {
    /// No explicit transaction: every statement commits by itself (DML
    /// as an implicit single-statement transaction).
    None,
    /// An explicit transaction is open and accepting statements.
    Active(Box<ActiveTxn>),
    /// A statement inside the transaction failed: the transaction is
    /// abort-only. Every further statement is rejected until ROLLBACK
    /// (or COMMIT, which rolls back and reports the original error).
    Poisoned { txn: Box<ActiveTxn>, reason: String },
}

/// A buffered, uncommitted transaction: pinned base snapshots plus a
/// private write set. Nothing here is visible to other sessions until
/// commit applies it.
pub(crate) struct ActiveTxn {
    id: u64,
    /// An autocommit statement running as its own single-statement
    /// transaction, rather than one opened by `BEGIN`. It is invisible
    /// to `sys.transactions` (its id is never registered) and logs
    /// nothing until commit, where the length of its write set picks
    /// the WAL framing — see [`Database::autocommit_frames`].
    implicit: bool,
    /// The tables as this transaction sees them, keyed by lowercased
    /// name. `BEGIN` pins nothing. An explicit transaction pins every
    /// table at its first statement — one instant for the whole view;
    /// an implicit one pins just the table its statement reads, when it
    /// reads it, so an autocommit INSERT never takes a snapshot.
    pinned: BTreeMap<String, TableSnapshot>,
    /// This transaction's writes to each table it wrote, by the same key.
    overlays: BTreeMap<String, TableOverlay>,
    /// Statements executed so far (for `sys.transactions`).
    statements: u64,
}

/// Rollback point for statement-level atomicity: a mark per overlay. A
/// failed statement restores this, leaving any WAL frames the
/// half-statement logged as orphans — safe only because the transaction
/// is then poisoned and can never log a TxnCommit that would replay them.
struct TxnCheckpoint {
    overlays: BTreeMap<String, OverlayMark>,
}

/// Where one overlay stood: lengths for what a statement only appends
/// to, a copy of `inserted` (a delete of an own insert removes from it).
struct OverlayMark {
    ops: usize,
    deleted: usize,
    inserted: Vec<(u32, Row)>,
    next_synth: u32,
}

impl ActiveTxn {
    fn new(id: u64, implicit: bool) -> Self {
        ActiveTxn {
            id,
            implicit,
            pinned: BTreeMap::new(),
            overlays: BTreeMap::new(),
            statements: 0,
        }
    }

    /// Buffered write operations (inserts + deletes; an UPDATE is two).
    fn write_ops(&self) -> u64 {
        self.overlays.values().map(|ov| ov.ops.len() as u64).sum()
    }

    fn checkpoint(&self) -> TxnCheckpoint {
        TxnCheckpoint {
            overlays: self
                .overlays
                .iter()
                .map(|(name, ov)| {
                    let mark = OverlayMark {
                        ops: ov.ops.len(),
                        deleted: ov.deleted.len(),
                        inserted: ov.inserted.clone(),
                        next_synth: ov.next_synth,
                    };
                    (name.clone(), mark)
                })
                .collect(),
        }
    }

    fn restore(&mut self, ckpt: TxnCheckpoint) {
        // Overlays only ever gain entries within a statement; drop any
        // the failed statement created, restore the rest.
        self.overlays
            .retain(|name, _| ckpt.overlays.contains_key(name));
        for (name, mark) in ckpt.overlays {
            if let Some(ov) = self.overlays.get_mut(&name) {
                ov.ops.truncate(mark.ops);
                ov.deleted.truncate(mark.deleted);
                ov.inserted = mark.inserted;
                ov.next_synth = mark.next_synth;
            }
        }
    }

    /// Pin every columnstore table not pinned yet, all at this instant.
    fn pin_all(&mut self, catalog: &Catalog) {
        for name in catalog.table_names() {
            if let Some(TableEntry::ColumnStore(t)) = catalog.get(&name) {
                self.pinned
                    .entry(name.to_ascii_lowercase())
                    .or_insert_with(|| t.snapshot());
            }
        }
    }

    /// This transaction's view of table `key`: the base pinned from `t`
    /// now if it was not yet, plus own writes.
    fn effective(&mut self, key: &str, t: &ColumnStoreTable) -> Cow<'_, TableSnapshot> {
        let base = self
            .pinned
            .entry(key.to_string())
            .or_insert_with(|| t.snapshot());
        match self.overlays.get(key) {
            Some(ov) => ov.effective(base),
            None => Cow::Borrowed(base),
        }
    }

    /// Per-table effective snapshots (base + overlay), for scans. A scan
    /// can name any table, so any created since the first statement are
    /// pinned now.
    fn snapshots(&mut self, catalog: &Catalog) -> Arc<HashMap<String, TableSnapshot>> {
        self.pin_all(catalog);
        let effective = |(key, base): (&String, &TableSnapshot)| {
            let snap = match self.overlays.get(key) {
                Some(ov) => ov.effective(base).into_owned(),
                None => base.clone(),
            };
            (key.clone(), snap)
        };
        Arc::new(self.pinned.iter().map(effective).collect())
    }
}

/// One table's share of a transaction's write set, plus the read-view
/// buffers that let the transaction see its own writes.
#[derive(Default)]
struct TableOverlay {
    /// The writes in log order — for an explicit transaction exactly the
    /// TxnOp frames already in the WAL, so commit-apply and crash-replay
    /// perform the same operations in the same order. An UPDATE
    /// contributes a Delete and an Insert per victim.
    ops: Vec<TxnApplyOp>,
    /// Base rows this transaction deleted, value-verified at commit.
    deleted: Vec<(RowId, Row)>,
    /// Rows this transaction inserted, under synthetic tuple ids in
    /// [`TXN_GROUP`]. Deleting an own insert removes it from here.
    inserted: Vec<(u32, Row)>,
    /// Next synthetic tuple id.
    next_synth: u32,
}

impl TableOverlay {
    /// The view scans see: `base` minus own deletes plus own inserts (as
    /// delta rows in the synthetic group).
    fn effective<'a>(&self, base: &'a TableSnapshot) -> Cow<'a, TableSnapshot> {
        if self.deleted.is_empty() && self.inserted.is_empty() {
            return Cow::Borrowed(base);
        }
        let mut deleted = base.deleted().clone();
        let mut delta: Vec<(RowId, Row)> = base.delta_rows().to_vec();
        for (rid, _) in &self.deleted {
            if base.group_by_id(rid.group).is_some() {
                deleted.delete(*rid);
            } else if let Some(pos) = delta.iter().position(|(r, _)| r == rid) {
                delta.remove(pos);
            }
        }
        for (synth, row) in &self.inserted {
            delta.push((RowId::new(TXN_GROUP, *synth), row.clone()));
        }
        Cow::Owned(TableSnapshot::new(
            base.schema().clone(),
            base.groups().to_vec(),
            delta,
            deleted,
        ))
    }
}

impl Database {
    pub(crate) fn execute_statement(
        &self,
        stmt: Statement,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        // Transaction control first: these transition the session state
        // and never run inside the statement wrapper below.
        match stmt {
            Statement::Begin => return self.txn_begin(),
            Statement::Commit => return self.txn_commit(),
            Statement::Rollback => return self.txn_rollback(),
            _ => {}
        }
        // Take any open transaction out of the session for the
        // statement's duration: `db.session` is a leaf mutex (level 17)
        // and must not be held across execution. Sessions are
        // single-threaded by contract (one client connection each).
        let open = {
            let mut s = self.session.lock();
            if let SessionTxn::Poisoned { reason, .. } = &*s {
                return Err(Error::Sql(format!(
                    "transaction aborted by an earlier error ({reason}); ROLLBACK required"
                )));
            }
            match std::mem::replace(&mut *s, SessionTxn::None) {
                SessionTxn::Active(t) => Some(t),
                other => {
                    *s = other;
                    None
                }
            }
        };
        let Some(mut txn) = open else {
            return self.dispatch_autocommit(stmt, exec);
        };
        if txn.statements == 0 {
            // The snapshot instant of an explicit transaction is its
            // first statement, whatever that statement is.
            txn.pin_all(&self.catalog);
        }
        let ckpt = txn.checkpoint();
        let result = self.execute_in_txn(&mut txn, stmt, exec);
        match result {
            Ok(r) => {
                txn.statements += 1;
                self.txns
                    .note_progress(txn.id, txn.statements, txn.write_ops());
                *self.session.lock() = SessionTxn::Active(txn);
                Ok(r)
            }
            Err(e) => {
                // Statement-level atomicity: undo the half-statement's
                // buffered writes, then poison the transaction. Any WAL
                // frames the half-statement already logged become
                // orphans — safe, because a poisoned transaction can
                // never log the TxnCommit that would replay them.
                txn.restore(ckpt);
                *self.session.lock() = SessionTxn::Poisoned {
                    txn,
                    reason: e.to_string(),
                };
                Err(e)
            }
        }
    }

    /// Autocommit DML. On a columnstore the statement runs as an implicit
    /// single-statement transaction — the same write-set building and the
    /// same commit as `BEGIN; <stmt>; COMMIT`, so there is one victim
    /// search, one conflict rule, one backpressure admission point, and
    /// a statement that fails or loses a conflict leaves nothing behind.
    /// Heap tables are not transactional and keep their direct path.
    pub(crate) fn run_autocommit_dml(
        &self,
        stmt: Statement,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        let (Statement::Insert { table, .. }
        | Statement::Delete { table, .. }
        | Statement::Update { table, .. }) = &stmt
        else {
            return Err(Error::Sql(format!("not a DML statement: {stmt:?}")));
        };
        if let TableEntry::Heap(h) = self.catalog.try_get(table)? {
            return self.run_heap_dml(&h, stmt);
        }
        let mut txn = ActiveTxn::new(self.txns.next_id(), true);
        match self.txn_dml(&mut txn, stmt, exec) {
            Ok(result) => self.commit_active(txn).map(|()| result),
            Err(e) => {
                self.abort_txn(&txn, e.to_string());
                Err(e)
            }
        }
    }

    /// Run one statement against a transaction: reads see the pinned
    /// snapshots plus the private write set; writes buffer into the
    /// overlay (an explicit transaction also logs them as TxnOp frames
    /// at statement time).
    fn execute_in_txn(
        &self,
        txn: &mut ActiveTxn,
        stmt: Statement,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Select(_) | Statement::UnionAll(_) => {
                self.run_query(&stmt, Some(txn.snapshots(&self.catalog)), exec)
            }
            Statement::Explain { analyze, stmt } => {
                self.run_explain(&stmt, analyze, Some(txn.snapshots(&self.catalog)), exec)
            }
            // SET tunes session options, not data — it runs (and can
            // fail) outside the transaction's write set either way.
            Statement::Set { option, value } => self.run_set(&option, value),
            Statement::CreateTable { .. } | Statement::Analyze { .. } => Err(Error::Unsupported(
                "DDL is not supported inside a transaction; COMMIT or ROLLBACK first".into(),
            )),
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::Sql(
                "transaction control cannot nest inside a statement".into(),
            )),
            dml => self.txn_dml(txn, dml, exec),
        }
    }

    /// Buffer one INSERT, DELETE or UPDATE into the transaction's overlay.
    /// `exec` is left holding what an UPDATE's or DELETE's victim scan did.
    fn txn_dml(
        &self,
        txn: &mut ActiveTxn,
        stmt: Statement,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Insert { table, rows } => self.txn_insert(txn, &table, rows),
            Statement::Delete { table, selection } => self.txn_delete(txn, &table, selection, exec),
            Statement::Update {
                table,
                assignments,
                selection,
            } => self.txn_update(txn, &table, assignments, selection, exec),
            other => Err(Error::Sql(format!("not a DML statement: {other:?}"))),
        }
    }

    // --------------------------------------------------- transactions

    /// `BEGIN`: register the transaction and log a TxnBegin frame. O(1):
    /// nothing is pinned until the transaction's first statement.
    fn txn_begin(&self) -> Result<QueryResult> {
        if self.in_transaction() {
            // Not a poisoning event: the open transaction is untouched.
            return Err(Error::Sql(
                "a transaction is already open (nested BEGIN is not supported)".into(),
            ));
        }
        self.check_writable()?;
        let wal = self.wal.lock().clone();
        let snapshot_lsn = wal.as_ref().map_or(0, |w| w.tail_lsn());
        let id = self.txns.begin(snapshot_lsn);
        if let Some(w) = &wal {
            let logged = w
                .fault_check("wal.txn_begin")
                .and_then(|()| w.log(&WalRecord::TxnBegin { txn: id }).map(drop));
            if let Err(e) = logged {
                self.txns.finish(
                    id,
                    TxnState::Aborted,
                    None,
                    Some(format!("BEGIN logging failed: {e}")),
                    0,
                    0,
                );
                return Err(e);
            }
        }
        let mut s = self.session.lock();
        if !matches!(*s, SessionTxn::None) {
            // Lost a BEGIN race on a shared session handle; abandon ours.
            drop(s);
            self.txns.finish(
                id,
                TxnState::Aborted,
                None,
                Some("concurrent BEGIN on the same session".into()),
                0,
                0,
            );
            return Err(Error::Sql(
                "a transaction is already open (nested BEGIN is not supported)".into(),
            ));
        }
        *s = SessionTxn::Active(Box::new(ActiveTxn::new(id, false)));
        Ok(QueryResult::Txn(TxnAck::Begun))
    }

    /// `ROLLBACK`: discard the write set (nothing was applied), release
    /// row locks and log a best-effort TxnAbort frame.
    fn txn_rollback(&self) -> Result<QueryResult> {
        let taken = std::mem::replace(&mut *self.session.lock(), SessionTxn::None);
        let txn = match taken {
            SessionTxn::None => return Err(Error::Sql("no open transaction to roll back".into())),
            SessionTxn::Active(t) => t,
            SessionTxn::Poisoned { txn, .. } => txn,
        };
        self.abort_txn(&txn, "ROLLBACK".into());
        Ok(QueryResult::Txn(TxnAck::RolledBack))
    }

    /// Release a transaction's locks and log a TxnAbort frame.
    /// Best-effort on the WAL side: replay discards any transaction
    /// without a commit record, so a lost abort record costs nothing —
    /// and an implicit transaction has logged nothing to abort.
    fn abort_txn(&self, txn: &ActiveTxn, reason: String) {
        self.txns.finish(
            txn.id,
            TxnState::Aborted,
            None,
            Some(reason),
            txn.statements,
            txn.write_ops(),
        );
        if txn.implicit {
            return;
        }
        let wal = self.wal.lock().clone();
        if let Some(w) = wal {
            // lint: allow(discard) — see the doc comment: abort records
            // are an optimization for replay, not a correctness point.
            let _ = w
                .fault_check("wal.txn_abort")
                .and_then(|()| w.log(&WalRecord::TxnAbort { txn: txn.id }).map(drop));
        }
    }

    /// `COMMIT`: apply the buffered write set to the live tables, then
    /// log the TxnCommit record and make it durable — the atomicity
    /// point. Any failure before the commit record is durable undoes
    /// the applied prefix exactly, so the live image never shows a
    /// transaction that crash-replay would discard.
    fn txn_commit(&self) -> Result<QueryResult> {
        let taken = std::mem::replace(&mut *self.session.lock(), SessionTxn::None);
        match taken {
            SessionTxn::None => Err(Error::Sql("no open transaction to commit".into())),
            SessionTxn::Poisoned { txn, reason } => {
                self.abort_txn(&txn, format!("COMMIT after error: {reason}"));
                Err(Error::Sql(format!(
                    "transaction aborted by an earlier error ({reason}); rolled back"
                )))
            }
            SessionTxn::Active(txn) => self
                .commit_active(*txn)
                .map(|()| QueryResult::Txn(TxnAck::Committed)),
        }
    }

    /// How every write becomes visible and durable — explicit COMMIT and
    /// autocommit statement alike: apply the write set, log its commit
    /// point, flush; on any failure undo what was applied.
    fn commit_active(&self, txn: ActiveTxn) -> Result<()> {
        let wal = self.wal.lock().clone();
        let mut applied = Vec::new();
        match self.apply_and_log(&txn, wal.as_deref(), &mut applied) {
            Ok(commit_lsn) => {
                self.txns.finish(
                    txn.id,
                    TxnState::Committed,
                    commit_lsn,
                    None,
                    txn.statements,
                    txn.write_ops(),
                );
                Ok(())
            }
            Err(e) => {
                // The commit point is not durable (fault points fire
                // before bytes land), so replay will discard the
                // transaction — make the live image agree.
                for (t, ops, done) in applied.iter().rev() {
                    t.undo_write_set(ops, done);
                }
                self.abort_txn(&txn, format!("commit failed: {e}"));
                Err(e)
            }
        }
    }

    /// The fallible part of a commit; returns the durable commit LSN.
    /// Whatever it applied before failing is left in `applied` for the
    /// caller to undo.
    fn apply_and_log<'t>(
        &self,
        txn: &'t ActiveTxn,
        wal: Option<&Wal>,
        applied: &mut Vec<(ColumnStoreTable, &'t [TxnApplyOp], AppliedWrites)>,
    ) -> Result<Option<u64>> {
        // 1. Apply each table's share, atomically per table. Deletes are
        //    value-verified: a miss means a concurrent *committed*
        //    writer removed the row after our lock-free snapshot read —
        //    the transaction loses with a CONFLICT, exactly once.
        let mut lsn = None;
        for (table, ov) in &txn.overlays {
            if ov.ops.is_empty() {
                continue;
            }
            let t = self.txn_table(table)?;
            let frames = match wal {
                Some(_) if txn.implicit => Self::autocommit_frames(txn.id, table, &ov.ops),
                _ => Vec::new(),
            };
            let Some(done) = t.apply_write_set(&ov.ops, &frames)? else {
                self.txns.note_conflict();
                return Err(Error::Conflict(
                    "write-write conflict discovered at commit: a concurrent transaction \
                     removed a row this transaction deleted or updated"
                        .into(),
                ));
            };
            lsn = done.lsn.or(lsn);
            applied.push((t, &ov.ops, done));
        }
        // 2. The atomicity point, flushed durable. An explicit
        //    transaction's frames (TxnBegin, TxnOps, and now TxnCommit)
        //    all ride this one group-commit flush; an implicit one's
        //    were logged with the apply above.
        let Some(w) = wal else { return Ok(None) };
        if !txn.implicit {
            w.fault_check("wal.txn_commit")?;
            lsn = Some(w.log(&WalRecord::TxnCommit { txn: txn.id })?);
        }
        if let Some(lsn) = lsn {
            w.commit(lsn)?;
        }
        Ok(lsn)
    }

    /// The WAL frames of an autocommit statement's write set, chosen from
    /// its length. One op is its own atomicity point and is logged as
    /// the plain `Insert`/`InsertBatch`/`Delete` frame — what a trickle
    /// insert has always cost. Several ops (every UPDATE, a multi-row
    /// DELETE) need the `TxnBegin`/`TxnOp`…/`TxnCommit` bracket, so that
    /// replay applies all of them or none. The `TxnBegin` is not
    /// decoration: transaction ids restart after a reopen, and the begin
    /// record is what clears ops a dead transaction left buffered under
    /// the same id.
    fn autocommit_frames(txn: u64, table: &str, ops: &[TxnApplyOp]) -> Vec<WalRecord> {
        if let [op] = ops {
            return vec![op.record(table)];
        }
        let txn_ops = ops.iter().map(|op| WalRecord::TxnOp {
            txn,
            op: Box::new(op.record(table)),
        });
        std::iter::once(WalRecord::TxnBegin { txn })
            .chain(txn_ops)
            .chain(std::iter::once(WalRecord::TxnCommit { txn }))
            .collect()
    }

    /// Append one op to `table`'s share of the write set, returning that
    /// overlay for the caller to update its read view. An explicit
    /// transaction logs the op first, as a TxnOp frame (log-before-buffer;
    /// no flush — the frame becomes durable with the commit record or is
    /// discarded by replay). An implicit one logs at commit.
    fn buffer_op<'t>(
        &self,
        txn: &'t mut ActiveTxn,
        table: &str,
        op: TxnApplyOp,
    ) -> Result<&'t mut TableOverlay> {
        if !txn.implicit {
            let wal = self.wal.lock().clone();
            if let Some(w) = wal {
                w.log(&WalRecord::TxnOp {
                    txn: txn.id,
                    op: Box::new(op.record(table)),
                })?;
            }
        }
        let ov = txn.overlays.entry(table.to_string()).or_default();
        ov.ops.push(op);
        Ok(ov)
    }

    /// The columnstore behind a transactional DML statement (heap
    /// tables don't participate in transactions).
    fn txn_table(&self, table: &str) -> Result<ColumnStoreTable> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => Ok(t),
            TableEntry::Heap(_) => Err(Error::Unsupported(
                "heap tables do not support explicit transactions".into(),
            )),
        }
    }

    fn txn_insert(
        &self,
        txn: &mut ActiveTxn,
        table: &str,
        value_rows: Vec<Vec<AstExpr>>,
    ) -> Result<QueryResult> {
        self.check_writable()?;
        let t = self.txn_table(table)?;
        let rows = Self::literal_rows(table, t.schema(), value_rows)?;
        // Validate the whole statement before logging or buffering a
        // single row: a NULL-into-NOT-NULL in row 3 must not leave rows
        // 1–2 buffered (statement-level atomicity).
        for row in &rows {
            t.schema().check_row(row)?;
        }
        t.backpressure_admit()?;
        let n = rows.len();
        self.buffer_insert(txn, &table.to_ascii_lowercase(), rows)?;
        Ok(QueryResult::Affected(n))
    }

    /// Buffer validated, admitted rows for insert: one op (and so one
    /// WAL frame) per [`TXN_WAL_BATCH_ROWS`] chunk, mirrored into the
    /// overlay's read view under fresh synthetic rids.
    fn buffer_insert(&self, txn: &mut ActiveTxn, key: &str, mut rows: Vec<Row>) -> Result<()> {
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(TXN_WAL_BATCH_ROWS));
            let chunk = std::mem::replace(&mut rows, rest);
            let mirror = chunk.clone();
            let ov = self.buffer_op(txn, key, TxnApplyOp::Insert(chunk))?;
            for row in mirror {
                ov.inserted.push((ov.next_synth, row));
                ov.next_synth += 1;
            }
        }
        Ok(())
    }

    fn txn_delete(
        &self,
        txn: &mut ActiveTxn,
        table: &str,
        selection: Option<AstExpr>,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        self.check_writable()?;
        let t = self.txn_table(table)?;
        let key = table.to_ascii_lowercase();
        let victims = self.scan_victims(txn, table, &key, &t, selection.as_ref(), exec)?;
        let n = victims.len();
        for (rid, row) in victims {
            self.txn_delete_one(txn, &key, rid, row)?;
        }
        Ok(QueryResult::Affected(n))
    }

    /// Buffer one delete: lock the row (base rows only), then record it
    /// in the write set and the overlay's read view.
    fn txn_delete_one(&self, txn: &mut ActiveTxn, key: &str, rid: RowId, row: Row) -> Result<()> {
        if rid.group != TXN_GROUP {
            // A base row: claim it, so a concurrent transaction gets a
            // deterministic CONFLICT instead of a silent lost update.
            self.txns.lock_row(txn.id, key, rid)?;
        }
        let ov = self.buffer_op(txn, key, TxnApplyOp::Delete(rid, row.clone()))?;
        if rid.group == TXN_GROUP {
            // Deleting an own uncommitted insert: drop it from the
            // buffer. The logged insert+delete pair nets out by value
            // at replay (and at commit-apply).
            ov.inserted.retain(|(synth, _)| *synth != rid.tuple);
        } else {
            ov.deleted.push((rid, row));
        }
        Ok(())
    }

    fn txn_update(
        &self,
        txn: &mut ActiveTxn,
        table: &str,
        assignments: Vec<(String, AstExpr)>,
        selection: Option<AstExpr>,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        self.check_writable()?;
        let t = self.txn_table(table)?;
        let schema = t.schema();
        let bound_assign = Self::bind_assignments(&assignments, schema, table)?;
        let key = table.to_ascii_lowercase();
        let victims = self.scan_victims(txn, table, &key, &t, selection.as_ref(), exec)?;
        // Compute and validate every replacement before touching
        // anything: a bad assignment must not half-delete a row.
        let mut updates = Vec::with_capacity(victims.len());
        for (rid, old) in victims {
            let new = Self::apply_assignments(&bound_assign, &old)?;
            schema.check_row(&new)?;
            updates.push((rid, old, new));
        }
        // The new versions land in the delta store like any insert: same
        // admission, and before anything is buffered, so a refusal
        // leaves every row with its old value.
        if !updates.is_empty() {
            t.backpressure_admit()?;
        }
        let n = updates.len();
        for (rid, old, new) in updates {
            // An UPDATE is a delete + insert, the same two frames
            // crash-replay applies in this order.
            self.txn_delete_one(txn, &key, rid, old)?;
            self.buffer_insert(txn, &key, vec![new])?;
        }
        Ok(QueryResult::Affected(n))
    }

    /// The victim search of an UPDATE or DELETE, planned as what it is —
    /// `SELECT *, <row id> FROM table WHERE selection` — and run through
    /// the query pipeline over the transaction's effective view of the
    /// table: segment elimination, predicates on encoded data, batch mode,
    /// the statement deadline, and a profile left in `exec`. Its errors
    /// are a SELECT's, too: a pushed predicate may drop a row before a
    /// residual expression would have failed on it.
    fn scan_victims(
        &self,
        txn: &mut ActiveTxn,
        table: &str,
        key: &str,
        t: &ColumnStoreTable,
        selection: Option<&AstExpr>,
        exec: &mut ExecProfile,
    ) -> Result<Vec<(RowId, Row)>> {
        let plan = bind_victim_scan(table, selection, &self.catalog)?;
        let view = txn.effective(key, t).into_owned();
        let snaps = Arc::new(HashMap::from([(key.to_owned(), view)]));
        let run = self.run_plan(plan, &self.catalog, Some(snaps), exec)?;
        run.rows
            .into_iter()
            .map(|row| {
                let mut values = row.into_values();
                match values.pop().and_then(|rid| rid.as_i64()) {
                    Some(rid) => Ok((RowId::from_i64(rid), Row::new(values))),
                    None => Err(Error::Execution("victim scan lost its row ids".into())),
                }
            })
            .collect()
    }

    /// Evaluate INSERT value lists into rows, coercing each literal to
    /// its column's type.
    fn literal_rows(
        table: &str,
        schema: &Schema,
        value_rows: Vec<Vec<AstExpr>>,
    ) -> Result<Vec<Row>> {
        let mut rows = Vec::with_capacity(value_rows.len());
        for exprs in value_rows {
            if exprs.len() != schema.len() {
                return Err(Error::Type(format!(
                    "INSERT has {} values, table '{table}' has {} columns",
                    exprs.len(),
                    schema.len()
                )));
            }
            let values = exprs
                .iter()
                .zip(schema.fields())
                .map(|(e, f)| literal_value(e, f.data_type))
                .collect::<Result<Vec<_>>>()?;
            rows.push(Row::new(values));
        }
        Ok(rows)
    }

    /// Bind `SET col = expr` pairs to (column index, column type, expr).
    fn bind_assignments(
        assignments: &[(String, AstExpr)],
        schema: &Schema,
        table: &str,
    ) -> Result<Vec<(usize, DataType, Expr)>> {
        assignments
            .iter()
            .map(|(col, e)| {
                let idx = schema.try_index_of(col)?;
                Ok((
                    idx,
                    schema.field(idx).data_type,
                    bind_expr_on_schema(e, schema, table)?,
                ))
            })
            .collect()
    }

    /// The updated version of `row`; every assignment reads the old row.
    fn apply_assignments(bound: &[(usize, DataType, Expr)], row: &Row) -> Result<Row> {
        let mut values = row.values().to_vec();
        for (idx, ty, e) in bound {
            values[*idx] = coerce(e.eval_row(row)?, *ty)?;
        }
        Ok(Row::new(values))
    }

    /// DML on a heap table. The row-store baseline is not transactional:
    /// the statement applies directly, under the catalog's write lock. Its
    /// victims come from a row-at-a-time loop, the right shape over a row
    /// store.
    fn run_heap_dml(&self, h: &HeapTable, stmt: Statement) -> Result<QueryResult> {
        self.check_writable()?;
        let schema = h.schema();
        let victims = |selection: Option<AstExpr>, table: &str| -> Result<Vec<_>> {
            let bound = selection
                .map(|s| bind_expr_on_schema(&s, schema, table))
                .transpose()?;
            let mut out = Vec::new();
            for (rid, row) in h.scan_with_rids() {
                let hit = match &bound {
                    None => true,
                    Some(e) => matches!(e.eval_row(&row)?, Value::Bool(true)),
                };
                if hit {
                    out.push((rid, row));
                }
            }
            Ok(out)
        };
        match stmt {
            Statement::Insert { table, rows } => {
                let rows = Self::literal_rows(&table, schema, rows)?;
                self.catalog
                    .with_heap_mut(&table, |h| h.insert_all(&rows))?;
                Ok(QueryResult::Affected(rows.len()))
            }
            Statement::Delete { table, selection } => {
                let victims = victims(selection, &table)?;
                self.catalog.with_heap_mut(&table, |h| {
                    for (rid, _) in &victims {
                        h.delete(*rid);
                    }
                    Ok(())
                })?;
                Ok(QueryResult::Affected(victims.len()))
            }
            Statement::Update {
                table,
                assignments,
                selection,
            } => {
                let bound = Self::bind_assignments(&assignments, schema, &table)?;
                let updates = victims(selection, &table)?
                    .into_iter()
                    .map(|(rid, old)| Ok((rid, Self::apply_assignments(&bound, &old)?)))
                    .collect::<Result<Vec<_>>>()?;
                self.catalog.with_heap_mut(&table, |h| {
                    for (rid, new) in &updates {
                        h.delete(*rid);
                        h.insert(new)?;
                    }
                    Ok(())
                })?;
                Ok(QueryResult::Affected(updates.len()))
            }
            other => Err(Error::Sql(format!("not a DML statement: {other:?}"))),
        }
    }
}
