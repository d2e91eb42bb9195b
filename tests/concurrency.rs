//! Concurrency: the updatable columnstore must stay consistent under
//! concurrent readers, writers and the background tuple mover — the
//! operational mode the paper's design (snapshots + delta stores +
//! delete bitmap) exists to support.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cstore::common::{Row, Value};
use cstore::delta::{TableConfig, TupleMover};
use cstore::{Database, ExecMode};

fn make_db() -> Database {
    let db = Database::new()
        .with_exec_mode(ExecMode::Batch)
        .with_table_config(TableConfig {
            delta_capacity: 2_000,
            bulk_load_threshold: 10_000,
            max_rowgroup_rows: 20_000,
            ..Default::default()
        });
    db.execute("CREATE TABLE ledger (id BIGINT NOT NULL, amount BIGINT NOT NULL)")
        .unwrap();
    db
}

#[test]
fn readers_see_consistent_sums_during_writes() {
    // Writers insert matched pairs (+x, -x), so any consistent snapshot
    // sums to zero. Readers must never observe a half-applied pair.
    let db = make_db();
    // Pre-seed with pairs through the bulk path.
    let seed: Vec<Row> = (0..20_000)
        .flat_map(|i| {
            [
                Row::new(vec![Value::Int64(2 * i), Value::Int64(7)]),
                Row::new(vec![Value::Int64(2 * i + 1), Value::Int64(-7)]),
            ]
        })
        .collect();
    db.bulk_load("ledger", &seed).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writer_db = db.clone();
    let writer_stop = stop.clone();
    let writer = std::thread::spawn(move || {
        let mut i: i64 = 1_000_000;
        while !writer_stop.load(Ordering::Relaxed) {
            // One INSERT statement with both rows: atomic within the
            // table's write lock per statement pair is NOT guaranteed, so
            // insert both in one statement.
            writer_db
                .execute(&format!(
                    "INSERT INTO ledger VALUES ({}, 13), ({}, -13)",
                    i,
                    i + 1
                ))
                .unwrap();
            i += 2;
        }
        i - 1_000_000
    });

    let mover = {
        let entry = db.catalog().try_get("ledger").unwrap();
        let cstore::TableEntry::ColumnStore(t) = entry else {
            panic!()
        };
        TupleMover::start(t, Duration::from_millis(3)).unwrap()
    };

    // Readers: the pre-seeded prefix always sums to zero regardless of
    // in-flight pairs.
    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut checks = 0;
    while std::time::Instant::now() < deadline {
        let r = db
            .execute("SELECT SUM(amount), COUNT(*) FROM ledger WHERE id < 1000000")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(0), "prefix sum drifted");
        assert_eq!(r.rows()[0].get(1), &Value::Int64(40_000));
        checks += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let inserted = writer.join().unwrap();
    mover.stop().unwrap();
    assert!(checks > 5, "only {checks} reader checks ran");
    // Quiesced: everything adds up.
    let r = db
        .execute("SELECT SUM(amount), COUNT(*) FROM ledger")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(0));
    assert_eq!(
        r.rows()[0].get(1),
        &Value::Int64(40_000 + inserted),
        "lost or duplicated inserts"
    );
}

#[test]
fn concurrent_deletes_and_mover_lose_nothing() {
    let db = make_db();
    let rows: Vec<Row> = (0..30_000)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(1)]))
        .collect();
    db.bulk_load("ledger", &rows).unwrap();
    // Plus a delta tail.
    for i in 30_000..33_000 {
        db.execute(&format!("INSERT INTO ledger VALUES ({i}, 1)"))
            .unwrap();
    }
    let entry = db.catalog().try_get("ledger").unwrap();
    let cstore::TableEntry::ColumnStore(t) = entry else {
        panic!()
    };
    let mover = TupleMover::start(t, Duration::from_millis(1)).unwrap();
    // Delete every third row by predicate while the mover churns.
    let deleted = db
        .execute("DELETE FROM ledger WHERE id >= 30000 AND id < 31000")
        .unwrap()
        .affected();
    assert_eq!(deleted, 1000);
    std::thread::sleep(Duration::from_millis(50));
    mover.stop().unwrap();
    let r = db.execute("SELECT COUNT(*) FROM ledger").unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(33_000 - 1000));
}

/// REORGANIZE and archival read and re-encode row groups with no table
/// lock held, then install the copy only if the group is still as read.
/// Scans and deletes running beside them must see every row exactly
/// once, and no delete may be lost to a group swapped in underneath it.
#[test]
fn reorganize_and_archive_race_scans_and_deletes() {
    use std::sync::atomic::AtomicUsize;
    let db = Database::new()
        .with_exec_mode(ExecMode::Batch)
        .with_table_config(TableConfig {
            delta_capacity: 500,
            bulk_load_threshold: 1_000,
            max_rowgroup_rows: 2_000,
            ..Default::default()
        });
    db.execute("CREATE TABLE ledger (id BIGINT NOT NULL, amount BIGINT NOT NULL)")
        .unwrap();
    let rows: Vec<Row> = (0..10_000)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(1)]))
        .collect();
    db.bulk_load("ledger", &rows).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let passes = Arc::new(AtomicUsize::new(0));
    let maintenance = {
        let (db, stop, passes) = (db.clone(), stop.clone(), passes.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.reorganize("ledger", 0.001).unwrap();
                db.archive_table("ledger").unwrap();
                passes.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let reader = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut scans = 0;
            while !stop.load(Ordering::Relaxed) {
                // Every row has amount 1: a consistent snapshot sums to its count.
                let r = db
                    .execute("SELECT COUNT(*), SUM(amount) FROM ledger")
                    .unwrap();
                assert_eq!(r.rows()[0].get(0), r.rows()[0].get(1), "torn snapshot");
                scans += 1;
            }
            scans
        })
    };
    let mut dead = 0i64;
    for k in 0..40i64 {
        let lo = k * 250;
        let hit = db
            .execute(&format!(
                "DELETE FROM ledger WHERE id >= {lo} AND id < {}",
                lo + 20
            ))
            .unwrap()
            .affected();
        assert_eq!(hit, 20, "range at {lo}");
        dead += (lo..lo + 20).sum::<i64>();
        std::thread::sleep(Duration::from_millis(2));
    }
    while passes.load(Ordering::Relaxed) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    maintenance.join().unwrap();
    assert!(reader.join().unwrap() > 0);

    // The serial reference, before and after one more rebuild.
    for _ in 0..2 {
        let r = db.execute("SELECT COUNT(*), SUM(id) FROM ledger").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(10_000 - 800));
        assert_eq!(
            r.rows()[0].get(1),
            &Value::Int64((0..10_000).sum::<i64>() - dead)
        );
        db.reorganize("ledger", 0.001).unwrap();
    }
}

/// With the `lockdep` feature on, the runtime checker aborts a real
/// inversion loudly: acquiring a lower-leveled lock while a higher one
/// is held panics with both lock names. (Integration tests compile the
/// library without `cfg(test)`, so this only fires under the feature —
/// exactly the release-diagnostics configuration ci.sh exercises.)
#[cfg(feature = "lockdep")]
#[test]
fn lockdep_feature_panics_on_deliberate_inversion() {
    use cstore::common::sync::Mutex;

    // Levels far above the engine's 1–11 band so this test cannot
    // interfere with real engine locks on other threads.
    let err = std::thread::spawn(|| {
        let low = Mutex::new_leveled(901, "itest.low", 0);
        let high = Mutex::new_leveled(902, "itest.high", 0);
        let _hi = high.lock();
        let _lo = low.lock(); // 901 <= 902: inversion
    })
    .join()
    .expect_err("inversion must panic under the lockdep feature");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("itest.low"), "{msg}");
    assert!(msg.contains("itest.high"), "{msg}");
    assert!(msg.contains("LOCK_ORDER.md"), "{msg}");

    // And the well-ordered path stays silent.
    std::thread::spawn(|| {
        let low = Mutex::new_leveled(901, "itest.low", 0);
        let high = Mutex::new_leveled(902, "itest.high", 0);
        let _lo = low.lock();
        let _hi = high.lock();
    })
    .join()
    .expect("ascending order must not panic");
}
