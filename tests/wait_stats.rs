//! Wait-statistics and Query Store suite: attribution of blocking time
//! to the query that waited, the `sys.wait_stats` / `sys.query_store`
//! views, the EXPLAIN ANALYZE wait footer, and Query Store persistence.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cstore::common::{Row, Value};
use cstore::delta::{TableConfig, WalOptions};
use cstore::sql::query_shape;
use cstore::storage::blob::MemBlobStore;
use cstore::storage::MemLogStore;
use cstore::{Database, OpenMode, QueryResult};

fn small_db() -> Database {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 100,
        bulk_load_threshold: 500,
        max_rowgroup_rows: 1000,
        ..TableConfig::default()
    });
    db.execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    let rows: Vec<Row> = (0..2000)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i % 7)]))
        .collect();
    db.bulk_load("t", &rows).unwrap();
    db
}

/// Aggregate (count, total_ns) of one wait class for `sql`'s shape
/// across every Query Store interval; `None` if the shape never ran.
fn shape_wait(db: &Database, sql: &str, class: &str) -> Option<(u64, u64)> {
    let hash = query_shape(sql).hash;
    let mut seen = false;
    let (mut count, mut total) = (0u64, 0u64);
    for iv in db.query_store().snapshot() {
        if let Some(agg) = iv.shapes.get(&hash) {
            seen = true;
            if let Some(w) = agg.waits.get(class) {
                count += w.count;
                total += w.total_ns;
            }
        }
    }
    seen.then_some((count, total))
}

/// Regression: time queued at the admission gate is charged to the
/// *queued* query's wait frame — not to whatever query holds the slot —
/// because `Database::execute` installs the frame before calling
/// `admit_query`.
#[test]
fn admission_wait_attributed_to_queued_query() {
    let db = Arc::new(small_db());
    db.execute("SET max_concurrent_queries = 1").unwrap();
    db.execute("SET admission_timeout_ms = 30000").unwrap();
    // Control: with the gate free this query is admitted on the fast
    // path and must record no ADMISSION wait.
    let control = "SELECT COUNT(*) FROM t WHERE id >= 0";
    db.execute(control).unwrap();

    // Occupy the only slot, then run a query that has to queue.
    let permit = db.governor().admit_query().unwrap();
    let queued_sql = "SELECT COUNT(*) FROM t";
    let h = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.execute(queued_sql).unwrap())
    };
    std::thread::sleep(Duration::from_millis(80));
    drop(permit);
    h.join().unwrap();

    let (n, total) = shape_wait(&db, queued_sql, "ADMISSION").expect("queued shape recorded");
    assert!(n >= 1, "queued query must record an ADMISSION wait");
    assert!(
        total >= 40_000_000,
        "ADMISSION wait should cover most of the 80ms the slot was held, got {total}ns"
    );
    let (cn, ct) = shape_wait(&db, control, "ADMISSION").expect("control shape recorded");
    assert_eq!(
        (cn, ct),
        (0, 0),
        "fast-path admission must not record a wait"
    );
}

/// Regression: a committer parked until the WAL flusher thread makes its
/// LSN durable records WAL_COMMIT on *its own* frame. In group mode the
/// fsync always happens on the dedicated flusher thread, so every one of
/// the 16 writers here is parked on another thread's flush. Also the
/// acceptance check: the per-shape WAL_COMMIT total stays within an
/// order of magnitude of wall-clock commit latency.
#[test]
fn wal_commit_wait_attributed_to_committers() {
    let mut db = Database::new();
    db.execute("CREATE TABLE w (id BIGINT NOT NULL)").unwrap();
    db.attach_wal_store(
        Box::new(MemLogStore::new()),
        WalOptions {
            segment_bytes: 1 << 16,
            strict: true,
        },
        None,
    )
    .unwrap();
    db.execute("SET wal_sync = group").unwrap();
    let db = Arc::new(db);

    const WRITERS: usize = 16;
    const PER_WRITER: i64 = 25;
    let started = Instant::now();
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    db.execute(&format!("INSERT INTO w VALUES ({})", w as i64 * 1000 + i))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let wall = started.elapsed();

    let insert_shape = "INSERT INTO w VALUES (1)"; // same shape as every insert
    let (n, total) = shape_wait(&db, insert_shape, "WAL_COMMIT").expect("insert shape recorded");
    assert!(n >= 1, "group-committed inserts must record WAL_COMMIT");
    assert!(total > 0);
    // Order-of-magnitude sanity: the summed wait cannot exceed every
    // writer spending the whole wall-clock parked (plus slack for timer
    // coarseness).
    let upper = (WRITERS as u128) * wall.as_nanos() * 10;
    assert!(
        (total as u128) <= upper,
        "WAL_COMMIT total {total}ns exceeds {WRITERS} writers x wall {wall:?}"
    );

    // A read-only query on the same database never touches the WAL.
    let select = "SELECT COUNT(*) FROM w";
    db.execute(select).unwrap();
    let (sn, st) = shape_wait(&db, select, "WAL_COMMIT").expect("select shape recorded");
    assert_eq!((sn, st), (0, 0), "reads must not be charged WAL_COMMIT");

    // The global view surfaces the same activity.
    let rows = db
        .execute(
            "SELECT wait_count, total_wait_ns FROM sys.wait_stats \
             WHERE wait_class = 'WAL_COMMIT'",
        )
        .unwrap();
    let row = &rows.rows()[0];
    let Value::Int64(global_count) = row.get(0) else {
        panic!("wait_count not an int: {row:?}");
    };
    assert!(
        *global_count >= n as i64,
        "global WAL_COMMIT count {global_count} below per-shape count {n}"
    );
}

/// EXPLAIN ANALYZE on a memory-starved (spilling) join prints the wait
/// footer and it includes SPILL_IO.
#[test]
fn explain_analyze_spilling_join_reports_spill_io_wait() {
    use cstore::exec::ExecContext;
    use cstore::workload::StarSchema;
    let db = Database::new()
        .with_exec_mode(cstore::ExecMode::Batch)
        .with_exec_context(ExecContext::default().with_budget(16 << 10));
    StarSchema::scale(50_000).load_into(&db).unwrap();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT c.region, COUNT(*) AS n FROM sales s \
             JOIN customer c ON s.cust_key = c.cust_key GROUP BY c.region",
        )
        .unwrap();
    let QueryResult::Explain(text) = r else {
        panic!("expected explain output");
    };
    assert!(text.contains("waits:"), "no wait footer in {text}");
    assert!(
        text.contains("SPILL_IO"),
        "spilling join must report SPILL_IO in the wait footer: {text}"
    );
    // The spill counters agree that spilling actually happened.
    let spill_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("spill:"))
        .unwrap();
    assert!(
        !spill_line.contains("partitions=0"),
        "join did not spill: {spill_line}"
    );
}

/// `sys.query_store` aggregates repeated shapes and survives a
/// save/open round trip with per-shape execution counts intact.
#[test]
fn query_store_survives_save_open_round_trip() {
    let db = small_db();
    for i in 0..7 {
        db.execute(&format!("SELECT SUM(v) FROM t WHERE id > {i}"))
            .unwrap();
    }
    let shape = query_shape("SELECT SUM(v) FROM t WHERE id > 0");
    assert_eq!(db.query_store().executions_for(shape.hash), 7);

    // The view shows one aggregated row for the shape, keyed by the
    // same hex hash sys.query_log uses.
    let hex = format!("{:016x}", shape.hash);
    let rows = db
        .execute(&format!(
            "SELECT executions, query_shape FROM sys.query_store WHERE query_hash = '{hex}'"
        ))
        .unwrap();
    assert_eq!(rows.rows().len(), 1, "one aggregated row per shape");
    assert_eq!(rows.rows()[0].get(0), &Value::Int64(7));

    let mut store = MemBlobStore::new();
    db.save_to_store(&mut store).unwrap();
    let (db2, _) = Database::open_from_store(&store, OpenMode::Strict).unwrap();
    assert_eq!(
        db2.query_store().executions_for(shape.hash),
        7,
        "execution counts must survive restart"
    );
    let rows = db2
        .execute(&format!(
            "SELECT executions FROM sys.query_store WHERE query_hash = '{hex}'"
        ))
        .unwrap();
    assert_eq!(rows.rows()[0].get(0), &Value::Int64(7));

    // Older generations without a querystore blob still open (and a
    // second save/open keeps the history flowing).
    db2.execute("SELECT SUM(v) FROM t WHERE id > 99").unwrap();
    let mut store2 = MemBlobStore::new();
    db2.save_to_store(&mut store2).unwrap();
    let (db3, _) = Database::open_from_store(&store2, OpenMode::Strict).unwrap();
    assert_eq!(db3.query_store().executions_for(shape.hash), 8);
}

/// `sys.query_log` carries the normalized shape hash, and `SET
/// query_log_size` bounds the ring.
#[test]
fn query_log_hash_and_capacity() {
    let db = small_db();
    db.execute("SELECT v FROM t WHERE id = 17").unwrap();
    db.execute("SELECT v FROM t WHERE id = 99").unwrap();
    let (h1, h2) = db.with_query_log(|log| {
        let find = |needle: &str| {
            log.entries()
                .find(|(_, e)| e.text.contains(needle))
                .map(|(_, e)| e.shape.hash)
                .unwrap()
        };
        (find("id = 17"), find("id = 99"))
    });
    assert_eq!(h1, h2, "literal-differing texts share one shape hash");

    // The view exposes the hash as hex, joinable against
    // sys.query_store.
    let hex = format!("{:016x}", h1);
    let rows = db
        .execute(&format!(
            "SELECT COUNT(*) FROM sys.query_log WHERE query_hash = '{hex}'"
        ))
        .unwrap();
    let Value::Int64(n) = rows.rows()[0].get(0) else {
        panic!("count not an int");
    };
    assert!(*n >= 2, "both executions logged under the shape hash: {n}");

    db.execute("SET query_log_size = 2").unwrap();
    db.with_query_log(|log| assert!(log.entries().count() <= 2));
    db.execute("SELECT COUNT(*) FROM t").unwrap();
    db.with_query_log(|log| assert!(log.entries().count() <= 2));
}
