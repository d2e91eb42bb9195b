//! Resource-governor chaos suite: the four mechanisms — admission
//! control, the shared memory ledger, delta-store backpressure and the
//! read-only health state machine — exercised end to end through the SQL
//! surface, with storage failures driven by the deterministic fault
//! injector.

use std::sync::Arc;

use cstore::common::fault::{FaultInjector, FaultKind, FaultSpec};
use cstore::common::{Error, Row, Value};
use cstore::delta::TableConfig;
use cstore::storage::blob::{BlobStore, MemBlobStore};
use cstore::storage::FaultyBlobStore;
use cstore::Database;

fn loaded_db() -> Database {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 100,
        bulk_load_threshold: 200,
        max_rowgroup_rows: 500,
        ..TableConfig::default()
    });
    db.execute("CREATE TABLE cs (id BIGINT NOT NULL, name VARCHAR)")
        .unwrap();
    let rows: Vec<Row> = (0..2000)
        .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("n{}", i % 37))]))
        .collect();
    db.bulk_load("cs", &rows).unwrap();
    db
}

fn count(db: &Database) -> i64 {
    let r = db.execute("SELECT COUNT(*) FROM cs").unwrap();
    match r.rows()[0].get(0) {
        Value::Int64(v) => *v,
        other => panic!("expected Int64, got {other:?}"),
    }
}

/// The acceptance chaos schedule: injected ENOSPC on a blob put flips
/// the database to read-only without a panic; reads and `sys.*` views
/// keep serving; writes fail with an error naming the cause; a recovery
/// probe fails while the fault is armed and returns the database to
/// `Healthy` once it clears; every acknowledged row survives.
#[test]
fn enospc_degrades_to_read_only_and_probe_recovers() {
    let db = loaded_db();
    db.execute("INSERT INTO cs VALUES (9001, 'acked')").unwrap();
    let before = count(&db);

    let faults = FaultInjector::new(42);
    let mut store = FaultyBlobStore::new(MemBlobStore::new(), faults.clone());
    // The recovery probe round-trips a scratch blob through the same
    // injector, so recovery is only possible once the fault clears.
    {
        let faults = faults.clone();
        db.governor().set_storage_probe(move || {
            let mut probe = FaultyBlobStore::new(MemBlobStore::new(), faults.clone());
            probe.put("governor.probe", b"ok")?;
            probe.delete("governor.probe")
        });
    }

    faults.arm("blob.put", FaultSpec::new(FaultKind::IoError).always());
    let err = db.save_to_store(&mut store).unwrap_err();
    assert!(matches!(err, Error::Io(_) | Error::Storage(_)), "{err}");

    // Degraded: reads and introspection keep serving.
    let health = Arc::clone(db.governor().health());
    assert!(health.is_read_only());
    let cause = health.cause().unwrap();
    assert!(cause.contains("blob store write failure"), "{cause}");
    assert_eq!(count(&db), before);
    let r = db
        .execute("SELECT health_state, health_cause FROM sys.resource_governor")
        .unwrap();
    assert_eq!(r.rows()[0].get(0).to_string(), "READ_ONLY");
    assert!(
        r.rows()[0].get(1).to_string().contains("blob store"),
        "{:?}",
        r.rows()[0]
    );

    // Writes are rejected with the cause in the message.
    for sql in [
        "INSERT INTO cs VALUES (9002, 'rejected')",
        "UPDATE cs SET name = 'x' WHERE id = 0",
        "DELETE FROM cs WHERE id = 1",
    ] {
        let err = db.execute(sql).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("read-only"), "{sql}: {msg}");
        assert!(msg.contains("blob store write failure"), "{sql}: {msg}");
    }

    // Metrics carry the health gauge and the write-reject counter.
    let metrics = db.metrics();
    assert!(
        metrics.contains("cstore_governor_health{state=\"READ_ONLY\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cstore_governor_write_rejects_total"),
        "{metrics}"
    );

    // A probe with the fault still armed fails and leaves us read-only.
    assert!(db.probe_recovery().is_err());
    assert!(health.is_read_only());

    // Storage recovers: the probe succeeds, writes resume, data is intact.
    faults.disarm_all();
    db.probe_recovery().unwrap();
    assert!(!health.is_read_only());
    db.execute("INSERT INTO cs VALUES (9002, 'post-recovery')")
        .unwrap();
    assert_eq!(count(&db), before + 1);
    db.save_to_store(&mut store).unwrap();
    let snap = db.governor().snapshot();
    assert!(snap.degraded_total >= 1, "{snap:?}");
    assert!(snap.write_rejects_total >= 3, "{snap:?}");
    assert!(snap.recovery_probes_total >= 2, "{snap:?}");
}

/// `SET max_concurrent_queries` caps concurrency through the admission
/// gate: with the single slot held, a query times out with an
/// actionable error; once the slot frees, queries run again.
#[test]
fn admission_gate_times_out_when_slots_are_held() {
    let db = loaded_db();
    db.execute("SET admission_timeout_ms = 100").unwrap();
    db.execute("SET max_concurrent_queries = 1").unwrap();

    let gate = Arc::clone(db.governor().admission());
    let permit = gate.admit().unwrap();
    let err = db.execute("SELECT COUNT(*) FROM cs").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("admission timeout"), "{msg}");
    assert!(msg.contains("max_concurrent_queries"), "{msg}");

    drop(permit);
    assert_eq!(count(&db), 2000);
    let snap = db.governor().snapshot();
    assert!(snap.admission_timeouts_total >= 1, "{snap:?}");
    assert!(snap.admission_rejected_total >= 1, "{snap:?}");
}

/// The `governor.admit` fault point rejects queries deterministically —
/// the chaos hook for admission failures.
#[test]
fn admit_fault_point_rejects_queries() {
    let db = loaded_db();
    let faults = FaultInjector::new(7);
    db.governor().set_fault_injector(faults.clone());
    faults.arm(
        "governor.admit",
        FaultSpec::new(FaultKind::IoError).times(1),
    );
    assert!(db.execute("SELECT COUNT(*) FROM cs").is_err());
    assert_eq!(faults.fired("governor.admit"), 1);
    assert_eq!(count(&db), 2000); // next query admits normally
}

/// Sixteen concurrent ORDER BY queries run against one small shared
/// memory ledger: each either completes (spilling under pressure) or
/// fails cleanly with the ledger-exhausted error — never a panic — and
/// all reservations are returned afterwards.
#[test]
fn concurrent_queries_share_one_memory_ledger() {
    let db = loaded_db();
    let baseline = db.governor().ledger().reserved();
    db.execute("SET memory_limit_bytes = 262144").unwrap();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let db = &db;
                s.spawn(move || {
                    let sql = format!(
                        "SELECT name, id FROM cs WHERE id >= {} ORDER BY name, id",
                        (i % 4) * 100
                    );
                    match db.execute(&sql) {
                        Ok(r) => {
                            assert!(!r.rows().is_empty());
                        }
                        Err(Error::ResourceExhausted(m)) => {
                            assert!(m.contains("memory ledger exhausted"), "{m}");
                        }
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let ledger = db.governor().ledger();
    assert_eq!(ledger.reserved(), baseline, "reservations must drain");
    let snap = db.governor().snapshot();
    assert!(snap.mem_peak_bytes > 0, "{snap:?}");
    assert_eq!(snap.admission_running, 0, "{snap:?}");
}

/// Hash aggregation charges the shared ledger for its key table and
/// state arrays: a high-cardinality `GROUP BY` under a small limit is
/// refused with the ledger's error instead of running over budget, a
/// low-cardinality one over the same rows fits, and nothing stays
/// reserved either way.
#[test]
fn high_cardinality_group_by_is_refused_under_a_small_memory_limit() {
    let db = loaded_db();
    let ledger = db.governor().ledger();
    let baseline = ledger.reserved();
    // 2000 groups: key words + hashes + chain + buckets + counts alone
    // are past 64 KiB; 37 groups are a few hundred bytes.
    db.execute("SET memory_limit_bytes = 65536").unwrap();
    for sql in [
        "SELECT id, COUNT(*) FROM cs GROUP BY id",
        "SELECT COUNT(DISTINCT id) FROM cs",
    ] {
        match db.execute(sql) {
            Err(Error::ResourceExhausted(m)) => {
                assert!(m.contains("memory ledger exhausted"), "{m}")
            }
            other => panic!("{sql}: expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(ledger.reserved(), baseline, "{sql} leaked its reservation");
    }
    let r = db
        .execute("SELECT name, COUNT(*), SUM(id) FROM cs GROUP BY name")
        .unwrap();
    assert_eq!(r.rows().len(), 37);
    assert_eq!(ledger.reserved(), baseline, "reservations must drain");
    assert!(db.governor().snapshot().mem_peak_bytes > 0);
}

/// Delta-store backpressure through the SQL surface: with the high-water
/// mark at two closed stores and a short timeout, trickle inserts fail
/// with the backpressure error until a tuple-mover pass drains the
/// closed stores, after which inserts resume.
#[test]
fn backpressure_rejects_inserts_until_mover_drains() {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 10,
        bulk_load_threshold: 200,
        max_rowgroup_rows: 500,
        ..TableConfig::default()
    });
    db.execute("CREATE TABLE t (id BIGINT NOT NULL)").unwrap();
    db.execute("SET delta_high_water_mark = 2").unwrap();
    db.execute("SET backpressure_timeout_ms = 50").unwrap();

    // 21 single-row inserts: two closed stores (10 rows each) plus one
    // row in the third. The high-water check runs before each insert,
    // so the fill itself never sits at the mark.
    for i in 0..21 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let err = db.execute("INSERT INTO t VALUES (99)").unwrap_err();
    match &err {
        Error::ResourceExhausted(m) => {
            assert!(m.contains("delta-store backpressure"), "{m}");
            assert!(m.contains("high-water mark 2"), "{m}");
        }
        other => panic!("expected ResourceExhausted, got {other}"),
    }

    // An insert inside a transaction meets the same admission point: the
    // statement is refused, not deferred to a commit that would bypass
    // the throttle.
    db.execute("BEGIN").unwrap();
    let err = db.execute("INSERT INTO t VALUES (98)").unwrap_err();
    assert!(
        matches!(&err, Error::ResourceExhausted(m) if m.contains("delta-store backpressure")),
        "transactional insert must be refused at the high-water mark, got {err}"
    );
    db.execute("ROLLBACK").unwrap();

    // A mover pass compresses the closed stores; inserts resume.
    assert!(db.tuple_move("t").unwrap() > 0);
    db.execute("INSERT INTO t VALUES (99)").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0].get(0).to_string(), "22");
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (98)").unwrap();
    db.execute("COMMIT").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0].get(0).to_string(), "23");

    let snap = db.governor().snapshot();
    assert!(snap.backpressure_rejected_total >= 1, "{snap:?}");
    assert_eq!(snap.backpressure_high_water, 2, "{snap:?}");
}

/// An UPDATE is a delete plus an insert, and the insert half can be
/// refused by delta backpressure. The statement must then fail whole:
/// the row keeps its old value. (The old autocommit path committed the
/// delete first, so the refused re-insert lost the row.)
#[test]
fn refused_update_keeps_the_row() {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 10,
        bulk_load_threshold: 200,
        max_rowgroup_rows: 500,
        ..TableConfig::default()
    });
    db.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    db.execute("SET delta_high_water_mark = 2").unwrap();
    db.execute("SET backpressure_timeout_ms = 50").unwrap();
    // Two closed stores plus one row: at the high-water mark.
    for i in 0..21 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 7)"))
            .unwrap();
    }
    let value_of_5 = || {
        let r = db.execute("SELECT v FROM t WHERE id = 5").unwrap();
        assert_eq!(r.rows().len(), 1, "row 5 must exist exactly once");
        r.rows()[0].get(0).clone()
    };

    let err = db.execute("UPDATE t SET v = 8 WHERE id = 5").unwrap_err();
    assert!(
        matches!(&err, Error::ResourceExhausted(m) if m.contains("delta-store backpressure")),
        "{err}"
    );
    assert_eq!(value_of_5(), Value::Int64(7));

    // Once the mover drains the closed stores the same UPDATE goes through.
    assert!(db.tuple_move("t").unwrap() > 0);
    assert_eq!(
        db.execute("UPDATE t SET v = 8 WHERE id = 5")
            .unwrap()
            .affected(),
        1
    );
    assert_eq!(value_of_5(), Value::Int64(8));
}

/// `sys.resource_governor` and the `cstore_governor_*` metric series
/// report all four mechanisms from one snapshot.
#[test]
fn sys_view_and_metrics_cover_all_mechanisms() {
    let db = loaded_db();
    let r = db
        .execute(
            "SELECT admitted_total, mem_limit_bytes, delta_high_water_mark, \
                    health_state FROM sys.resource_governor",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0].get(3).to_string(), "HEALTHY");

    let metrics = db.metrics();
    for series in [
        "cstore_governor_admission_running",
        "cstore_governor_admitted_total",
        "cstore_governor_mem_reserved_bytes",
        "cstore_governor_mem_limit_bytes",
        "cstore_governor_backpressure_high_water",
        "cstore_governor_health{state=\"HEALTHY\"} 1",
        "cstore_governor_degraded_total",
        "cstore_governor_recovery_probes_total",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
}
