//! The transaction manager: ids, row locks, and the `sys.transactions`
//! history ring.
//!
//! One [`TxnManager`] is shared by every session of a database. It is
//! deliberately small: per-transaction *state* (the write set, the
//! pinned snapshots) lives in the owning session; what must be global
//! is only (a) the id allocator, (b) the row-lock table that makes
//! write-write conflicts deterministic — first writer locks, second
//! writer gets a clean `CONFLICT` error — and (c) enough bookkeeping to
//! serve `sys.transactions`.
//!
//! ## Locking
//!
//! The single `txn.manager` mutex (level 16, see `LOCK_ORDER.md`) is a
//! leaf: every method acquires it, mutates plain maps, and releases it
//! before returning. No method calls into tables, the WAL, or any other
//! locked subsystem while holding it.
//!
//! ## Conflict rule
//!
//! A transaction locks `(table, rid)` before buffering a delete/update
//! of that row. Locks are held until the transaction finishes (commit
//! or abort) — there is no deadlock risk because lock acquisition never
//! blocks: a held lock is an immediate `Error::Conflict` for the loser,
//! the paper-engine analogue of SQL Server's update conflict under
//! snapshot isolation. There is no second rule for autocommit: an
//! autocommit statement *is* a transaction (see `write.rs`), so it takes
//! the same locks through the same [`TxnManager::lock_row`].
//!
//! ## Implicit transactions
//!
//! An autocommit statement's single-statement transaction draws its id
//! from [`TxnManager::next_id`] without [`TxnManager::begin`]: it can
//! own row locks and frame WAL records, but it is never *registered* —
//! it does not appear in `sys.transactions`, cannot evict an explicit
//! transaction from the recent ring, and moves no started/committed
//! counter. [`TxnManager::finish`] on such an id only releases its locks.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cstore_common::sync::Mutex;
use cstore_common::{Error, Result, RowId};

/// How many finished transactions `sys.transactions` remembers.
const RECENT_CAP: usize = 64;

/// Lifecycle state of a transaction, as shown in `sys.transactions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

impl TxnState {
    pub fn as_str(self) -> &'static str {
        match self {
            TxnState::Active => "ACTIVE",
            TxnState::Committed => "COMMITTED",
            TxnState::Aborted => "ABORTED",
        }
    }
}

/// Bookkeeping for one transaction (active or recently finished).
#[derive(Debug, Clone)]
pub struct TxnInfo {
    pub id: u64,
    pub state: TxnState,
    /// Statements executed inside the transaction (BEGIN excluded).
    pub statements: u64,
    /// Buffered write operations (inserts + deletes; an UPDATE is two).
    pub write_ops: u64,
    /// WAL tail LSN at BEGIN: everything the transaction's snapshots
    /// (pinned later, at its first statement) show is at or after this
    /// point.
    pub snapshot_lsn: u64,
    /// LSN of the TxnCommit record, for committed transactions.
    pub commit_lsn: Option<u64>,
    /// Why the transaction aborted (rollback, conflict, poison cause).
    pub abort_reason: Option<String>,
}

/// Cumulative counters surfaced through `sys.transactions` consumers.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnCounters {
    pub started: u64,
    pub committed: u64,
    pub rolled_back: u64,
    pub conflicts: u64,
}

/// A locked row: `(lowercased table, packed rid)`.
type RowKey = (String, u64);

#[derive(Default)]
struct TxnTable {
    active: BTreeMap<u64, TxnInfo>,
    /// Locked row -> owning txn id. Never blocks: a foreign owner is an
    /// immediate conflict.
    row_locks: HashMap<RowKey, u64>,
    /// The inverse, so finishing a transaction releases exactly its own
    /// locks instead of scanning everyone's.
    held: HashMap<u64, Vec<RowKey>>,
    /// Recently finished transactions, newest last.
    recent: VecDeque<TxnInfo>,
    counters: TxnCounters,
}

/// Shared transaction manager; see the module docs.
pub struct TxnManager {
    /// Last id handed out; outside the mutex so an autocommit statement
    /// gets its id without taking it.
    last_id: AtomicU64,
    txn_state: Mutex<TxnTable>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    pub fn new() -> Self {
        TxnManager {
            last_id: AtomicU64::new(0),
            txn_state: Mutex::new_leveled(16, "txn.manager", TxnTable::default()),
        }
    }

    /// A fresh transaction id, unique for this manager's lifetime. The
    /// counter publishes nothing else, so `Relaxed` suffices.
    pub fn next_id(&self) -> u64 {
        self.last_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocate an id and register an ACTIVE transaction.
    pub fn begin(&self, snapshot_lsn: u64) -> u64 {
        let id = self.next_id();
        let mut st = self.txn_state.lock();
        st.counters.started += 1;
        st.active.insert(
            id,
            TxnInfo {
                id,
                state: TxnState::Active,
                statements: 0,
                write_ops: 0,
                snapshot_lsn,
                commit_lsn: None,
                abort_reason: None,
            },
        );
        id
    }

    /// Lock `(table, rid)` for `txn`, or fail with `Error::Conflict` if
    /// another active transaction holds it. Re-locking an own lock is a
    /// no-op.
    pub fn lock_row(&self, txn: u64, table: &str, rid: RowId) -> Result<()> {
        let key = (table.to_ascii_lowercase(), rid.pack());
        let mut st = self.txn_state.lock();
        match st.row_locks.get(&key) {
            Some(&owner) if owner != txn => {
                st.counters.conflicts += 1;
                Err(Error::Conflict(format!(
                    "row {}:{} is write-locked by transaction {owner}",
                    key.0, key.1
                )))
            }
            Some(_) => Ok(()),
            None => {
                st.row_locks.insert(key.clone(), txn);
                st.held.entry(txn).or_default().push(key);
                Ok(())
            }
        }
    }

    /// Count a conflict surfaced outside `lock_row` (commit-time
    /// verification losses).
    pub fn note_conflict(&self) {
        self.txn_state.lock().counters.conflicts += 1;
    }

    /// Update the live statement/write-op tallies for an active txn.
    pub fn note_progress(&self, txn: u64, statements: u64, write_ops: u64) {
        let mut st = self.txn_state.lock();
        if let Some(info) = st.active.get_mut(&txn) {
            info.statements = statements;
            info.write_ops = write_ops;
        }
    }

    /// Finish `txn`: release its row locks, stamp the outcome, move it
    /// to the recent ring, and bump counters. For an implicit
    /// transaction (never registered by `begin`) only the locks go.
    pub fn finish(
        &self,
        txn: u64,
        state: TxnState,
        commit_lsn: Option<u64>,
        abort_reason: Option<String>,
        statements: u64,
        write_ops: u64,
    ) {
        let mut st = self.txn_state.lock();
        for key in st.held.remove(&txn).unwrap_or_default() {
            st.row_locks.remove(&key);
        }
        let Some(mut info) = st.active.remove(&txn) else {
            return;
        };
        info.state = state;
        info.commit_lsn = commit_lsn;
        info.abort_reason = abort_reason;
        info.statements = statements;
        info.write_ops = write_ops;
        match state {
            TxnState::Committed => st.counters.committed += 1,
            TxnState::Aborted => st.counters.rolled_back += 1,
            TxnState::Active => {}
        }
        st.recent.push_back(info);
        while st.recent.len() > RECENT_CAP {
            st.recent.pop_front();
        }
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.txn_state.lock().active.len()
    }

    pub fn counters(&self) -> TxnCounters {
        self.txn_state.lock().counters
    }

    /// Active transactions first (by id), then the recent ring (newest
    /// last) — the rows behind `sys.transactions`.
    pub fn view_rows(&self) -> Vec<TxnInfo> {
        let st = self.txn_state.lock();
        st.active
            .values()
            .cloned()
            .chain(st.recent.iter().cloned())
            .collect()
    }
}

/// Convenience alias: the manager is always shared.
pub type SharedTxnManager = Arc<TxnManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use cstore_common::RowGroupId;

    fn rid(g: u32, t: u32) -> RowId {
        RowId::new(RowGroupId(g), t)
    }

    #[test]
    fn ids_are_unique_and_counted() {
        let m = TxnManager::new();
        let a = m.begin(5);
        let b = m.begin(9);
        assert_ne!(a, b);
        assert_eq!(m.active_count(), 2);
        assert_eq!(m.counters().started, 2);
    }

    #[test]
    fn second_locker_conflicts_and_finish_releases() {
        let m = TxnManager::new();
        let a = m.begin(0);
        let b = m.begin(0);
        m.lock_row(a, "t", rid(1, 2)).unwrap();
        // Re-lock by the owner is fine; another txn conflicts.
        m.lock_row(a, "T", rid(1, 2)).unwrap();
        let err = m.lock_row(b, "t", rid(1, 2)).unwrap_err();
        assert_eq!(err.code(), "CONFLICT");
        assert_eq!(m.counters().conflicts, 1);
        m.finish(a, TxnState::Aborted, None, Some("rollback".into()), 1, 1);
        m.lock_row(b, "t", rid(1, 2)).unwrap();
        assert_eq!(m.counters().rolled_back, 1);
    }

    #[test]
    fn implicit_ids_lock_rows_but_are_never_registered() {
        let m = TxnManager::new();
        let explicit = m.begin(0);
        let implicit = m.next_id();
        assert_ne!(explicit, implicit);
        m.lock_row(implicit, "t", rid(1, 2)).unwrap();
        assert_eq!(
            m.lock_row(explicit, "t", rid(1, 2)).unwrap_err().code(),
            "CONFLICT"
        );
        m.finish(implicit, TxnState::Committed, Some(9), None, 1, 1);
        m.lock_row(explicit, "t", rid(1, 2)).unwrap();
        // Only the explicit transaction is visible or counted.
        assert_eq!(m.view_rows().len(), 1);
        assert_eq!(m.active_count(), 1);
        let c = m.counters();
        assert_eq!((c.started, c.committed), (1, 0));
    }

    #[test]
    fn view_rows_holds_active_then_recent() {
        let m = TxnManager::new();
        let a = m.begin(3);
        m.finish(a, TxnState::Committed, Some(17), None, 2, 4);
        let b = m.begin(20);
        let rows = m.view_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, b);
        assert_eq!(rows[0].state, TxnState::Active);
        assert_eq!(rows[1].id, a);
        assert_eq!(rows[1].state, TxnState::Committed);
        assert_eq!(rows[1].commit_lsn, Some(17));
        assert_eq!(rows[1].write_ops, 4);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let m = TxnManager::new();
        for _ in 0..(RECENT_CAP + 10) {
            let id = m.begin(0);
            m.finish(id, TxnState::Committed, None, None, 0, 0);
        }
        assert_eq!(m.view_rows().len(), RECENT_CAP);
    }
}
