//! Multi-statement transactions: snapshot isolation, atomic rollback,
//! write-write conflict detection — including under a racing tuple mover
//! that renumbers row ids while transactions are open.
//!
//! The contract under test: a transaction reads a stable BEGIN-time view
//! and never blocks readers or writers; of two transactions writing the
//! same row, exactly one commits; a failed statement inside a transaction
//! leaves no partial effects and poisons the transaction until ROLLBACK.

use cstore::common::Value;
use cstore::delta::TableConfig;
use cstore::{Database, QueryResult, TableEntry, TxnAck};

/// Tiny delta stores so the tuple mover always has closed stores to
/// compress underneath open transactions.
fn make_db() -> Database {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 16,
        bulk_load_threshold: 1 << 30,
        max_rowgroup_rows: 1 << 20,
        ..TableConfig::default()
    });
    db.execute("CREATE TABLE acct (id BIGINT NOT NULL, bal BIGINT NOT NULL)")
        .unwrap();
    for base in (0..100i64).step_by(10) {
        let values = (base..base + 10)
            .map(|i| format!("({i}, 1000)"))
            .collect::<Vec<_>>()
            .join(", ");
        db.execute(&format!("INSERT INTO acct VALUES {values}"))
            .unwrap();
    }
    db
}

fn count(db: &Database, sql: &str) -> i64 {
    db.execute(sql).unwrap().rows()[0].get(0).as_i64().unwrap()
}

fn compress(db: &Database) {
    let TableEntry::ColumnStore(t) = db.catalog().get("acct").unwrap() else {
        panic!("acct is a columnstore");
    };
    t.close_open_delta();
    assert!(db.tuple_move("acct").unwrap() > 0, "mover must compress");
}

/// Two sessions with overlapping transactions while the tuple mover
/// compresses the delta store underneath them: both keep their BEGIN-time
/// view, disjoint writes both commit, and a write to the other session's
/// locked row aborts exactly the second writer.
#[test]
fn interleaved_transactions_survive_tuple_mover_compression() {
    let db = make_db();
    let a = db.new_session();
    let b = db.new_session();

    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    // Pin both snapshots with a read, then renumber every rid.
    assert_eq!(count(&a, "SELECT COUNT(*) FROM acct"), 100);
    assert_eq!(count(&b, "SELECT COUNT(*) FROM acct"), 100);
    compress(&db);

    // Disjoint writes against pre-move rids.
    a.execute("UPDATE acct SET bal = 2000 WHERE id < 5")
        .unwrap();
    b.execute("UPDATE acct SET bal = 3000 WHERE id >= 95")
        .unwrap();

    // Snapshot stability: each side sees its own writes but not the
    // other's, and untouched rows keep their BEGIN-time value.
    assert_eq!(count(&a, "SELECT COUNT(*) FROM acct WHERE bal = 2000"), 5);
    assert_eq!(count(&a, "SELECT COUNT(*) FROM acct WHERE bal = 3000"), 0);
    assert_eq!(count(&b, "SELECT COUNT(*) FROM acct WHERE bal = 2000"), 0);
    assert_eq!(count(&b, "SELECT COUNT(*) FROM acct WHERE bal = 3000"), 5);
    let r = a.execute("SELECT bal FROM acct WHERE id = 50").unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(1000));

    // B touches a row A already write-locked: immediate conflict, B is
    // poisoned and must roll back — exactly one of the two commits.
    let err = b
        .execute("UPDATE acct SET bal = 0 WHERE id = 2")
        .unwrap_err();
    assert_eq!(err.code(), "CONFLICT");
    assert!(matches!(
        b.execute("ROLLBACK").unwrap(),
        QueryResult::Txn(TxnAck::RolledBack)
    ));
    assert!(matches!(
        a.execute("COMMIT").unwrap(),
        QueryResult::Txn(TxnAck::Committed)
    ));

    // Only A's writes survive; nothing was lost or duplicated.
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct"), 100);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct WHERE bal = 2000"), 5);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct WHERE bal = 3000"), 0);
    assert!(db.txns().counters().conflicts >= 1);
}

/// The lock-free window: B's snapshot predates A's commit, but B's write
/// lands *after* A released its row lock. Statement-time lock checks see
/// nothing; the stale write must still be caught at commit time by the
/// value-verified delete — the first committer wins, the second aborts.
/// A mover pass between the two commits renumbers A's new row version,
/// so the check also survives rid churn.
#[test]
fn conflict_detection_survives_rid_renumbering() {
    let db = make_db();
    let a = db.new_session();
    let b = db.new_session();

    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    // Pin B's snapshot before A commits.
    assert_eq!(count(&b, "SELECT COUNT(*) FROM acct"), 100);

    a.execute("UPDATE acct SET bal = 1111 WHERE id = 2")
        .unwrap();
    a.execute("COMMIT").unwrap();
    compress(&db);

    // A's lock is gone and B's snapshot still shows the old row, so this
    // statement succeeds — the conflict is only discoverable at COMMIT.
    b.execute("UPDATE acct SET bal = 2222 WHERE id = 2")
        .unwrap();
    let err = b.execute("COMMIT").unwrap_err();
    assert_eq!(err.code(), "CONFLICT", "{err}");
    assert!(!b.in_transaction());

    let r = db.execute("SELECT bal FROM acct WHERE id = 2").unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(1111));
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct"), 100);
    // The loser is visible as ABORTED with a recorded reason.
    assert!(
        count(
            &db,
            "SELECT COUNT(*) FROM sys.transactions WHERE state = 'ABORTED'"
        ) >= 1
    );
}

/// A failed statement inside a transaction (here: a multi-row INSERT that
/// trips NOT NULL mid-batch) must leave no partial rows visible anywhere
/// and poison the transaction into an abort-only state.
#[test]
fn failed_statement_poisons_and_leaves_no_partial_rows() {
    let db = make_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO acct VALUES (500, 1)").unwrap();
    let err = db
        .execute("INSERT INTO acct VALUES (501, 2), (502, NULL), (503, 4)")
        .unwrap_err();
    assert!(err.to_string().contains("NULL"), "{err}");

    // Poisoned: reads and writes are rejected until ROLLBACK.
    for sql in [
        "SELECT COUNT(*) FROM acct",
        "INSERT INTO acct VALUES (504, 5)",
    ] {
        let msg = db.execute(sql).unwrap_err().to_string();
        assert!(msg.contains("ROLLBACK required"), "{sql}: {msg}");
    }
    db.execute("ROLLBACK").unwrap();

    // Nothing from the transaction — not even the pre-failure statement's
    // rows, since it was rolled back — and no half of the failed batch.
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct WHERE id >= 500"), 0);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct"), 100);
}

/// A `query_timeout_ms` expiry inside an open transaction is a statement
/// failure like any other: the transaction is poisoned, COMMIT refuses
/// and rolls back, and none of the buffered writes survive.
#[test]
fn query_timeout_inside_transaction_poisons_it() {
    let db = make_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO acct VALUES (600, 9)").unwrap();
    db.execute("SET query_timeout_ms = 1").unwrap();
    // ~10^6 rows through the second join: far more than a millisecond of
    // work (one join's ~10^4 rows took 1.1 ms in a debug build, and the
    // test failed whenever that dipped under the deadline), with an
    // operator boundary for the deadline check at every batch.
    let err = db
        .execute(
            "SELECT COUNT(*) FROM acct a JOIN acct b ON a.bal = b.bal \
             JOIN acct c ON b.bal = c.bal",
        )
        .unwrap_err();
    assert!(err.to_string().contains("query timeout exceeded"), "{err}");

    // COMMIT on the poisoned transaction rolls back and reports why.
    let msg = db.execute("COMMIT").unwrap_err().to_string();
    assert!(msg.contains("rolled back"), "{msg}");
    assert!(!db.in_transaction());

    db.execute("SET query_timeout_ms = 0").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct WHERE id = 600"), 0);
    // The session is fully usable again.
    db.execute("INSERT INTO acct VALUES (601, 9)").unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM acct WHERE id = 601"), 1);
}

/// Open transactions are visible across sessions through
/// `sys.transactions`, and the query log records rollback and conflict
/// outcomes distinctly from errors.
#[test]
fn transaction_outcomes_are_observable() {
    let db = make_db();
    let a = db.new_session();
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO acct VALUES (700, 1)").unwrap();

    let r = db
        .execute(
            "SELECT state, statements, write_ops FROM sys.transactions \
             WHERE state = 'ACTIVE'",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0].get(1), &Value::Int64(1));
    assert_eq!(r.rows()[0].get(2), &Value::Int64(1));

    a.execute("ROLLBACK").unwrap();
    assert_eq!(
        count(
            &db,
            "SELECT COUNT(*) FROM sys.transactions WHERE state = 'ACTIVE'"
        ),
        0
    );
    assert!(
        count(
            &a,
            "SELECT COUNT(*) FROM sys.query_log WHERE status = 'ROLLBACK'"
        ) >= 1
    );
    // Rollbacks count as failures in the query store, not successes.
    let r = a
        .execute("SELECT failures FROM sys.query_store WHERE query_shape = 'rollback'")
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert!(r.rows()[0].get(0).as_i64().unwrap() >= 1);
}
