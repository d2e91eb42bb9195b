//! Observability suite: per-query ExecStats, EXPLAIN ANALYZE actuals,
//! and the database-wide metrics dump.
//!
//! The star-schema fixture is sized so the interesting counters have
//! independently computable expected values: 4,000 fact rows in row
//! groups of 1,000, `day = id / 100` (so a day predicate maps to exactly
//! one group), and `cust_id = id % 20` joined against 20 customers split
//! evenly between two regions (so a region filter's bitmap prunes
//! exactly half the scanned fact rows).

use std::collections::HashMap;
use std::time::Duration;

use cstore::common::metrics::{global as registry, LATENCY_BUCKETS_US};
use cstore::common::{Row, Value};
use cstore::delta::TableConfig;
use cstore::exec::{ExecContext, Metrics};
use cstore::sql::query_shape;
use cstore::{Database, QueryResult};

fn db() -> Database {
    let db = Database::new().with_table_config(TableConfig {
        delta_capacity: 100,
        bulk_load_threshold: 500,
        max_rowgroup_rows: 1000,
        ..TableConfig::default()
    });
    db.execute(
        "CREATE TABLE sales (id BIGINT NOT NULL, cust_id BIGINT NOT NULL, \
         amount DOUBLE, day DATE NOT NULL)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE customers (id BIGINT NOT NULL, name VARCHAR NOT NULL, \
         region VARCHAR NOT NULL)",
    )
    .unwrap();
    let rows: Vec<Row> = (0..4000)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::Int64(i % 20),
                Value::Float64((i % 100) as f64),
                Value::Date((i / 100) as i32),
            ])
        })
        .collect();
    db.bulk_load("sales", &rows).unwrap();
    let custs: Vec<Row> = (0..20)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::str(format!("cust{i}")),
                Value::str(["north", "south"][(i % 2) as usize]),
            ])
        })
        .collect();
    db.bulk_load("customers", &custs).unwrap();
    db
}

/// The per-query execution counters a result set came with, by name.
fn counters(r: &QueryResult) -> HashMap<&'static str, u64> {
    let QueryResult::Rows { metrics, .. } = r else {
        panic!("expected rows, got {r:?}");
    };
    metrics.iter().copied().collect()
}

/// The number that follows the first `key` in EXPLAIN ANALYZE text.
fn number_after(text: &str, key: &str) -> u64 {
    let tail = text
        .split(key)
        .nth(1)
        .unwrap_or_else(|| panic!("no `{key}` in: {text}"));
    tail.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap()
}

/// Pull `rows=N` out of an EXPLAIN ANALYZE operator line.
fn actual_rows(line: &str) -> u64 {
    number_after(line, "[actual rows=")
}

/// A `sys.*` result set grouped by its first column (the hex
/// `query_hash`), the remaining columns kept per row.
fn by_hash(db: &Database, sql: &str) -> HashMap<String, Vec<Vec<Value>>> {
    let mut out: HashMap<String, Vec<Vec<Value>>> = HashMap::new();
    for row in db.execute(sql).unwrap().rows() {
        let hash = row.get(0).as_str().unwrap().to_owned();
        out.entry(hash)
            .or_default()
            .push(row.values()[1..].to_vec());
    }
    out
}

fn int(v: &Value) -> u64 {
    v.as_i64()
        .unwrap_or_else(|| panic!("not an integer: {v:?}")) as u64
}

#[test]
fn per_query_metrics_report_elimination_and_bitmap_prunes() {
    let db = db();
    let r = db
        .execute(
            "SELECT c.region, COUNT(*) AS n FROM sales s \
             JOIN customers c ON s.cust_id = c.id \
             WHERE s.day < DATE 10 AND c.region = 'north' GROUP BY c.region",
        )
        .unwrap();
    assert_eq!(r.rows()[0].get(1), &Value::Int64(500));
    let m = counters(&r);
    // day < 10 → ids 0..1000 → row group 0 of 4: three groups eliminated.
    assert_eq!(m["groups_scanned"], 1, "{m:?}");
    assert_eq!(m["groups_eliminated"], 3, "{m:?}");
    // The region bitmap admits the 10 even cust_ids: of the 1,000
    // scanned fact rows, the 500 with odd cust_id are pruned.
    assert_eq!(m["rows_dropped_by_bitmap"], 500);
    assert!(m["bitmap_probes"] >= 1000);
    assert_eq!(m["bitmap_filters_exact"], 1);
    assert_eq!(m["bitmap_filters_bloom"], 0);
    // Build side: the 10 north customers; probe side: surviving fact rows.
    assert_eq!(m["join_build_rows"], 10);
    assert_eq!(m["join_probe_rows"], 500);
    // Metrics are per-query: an unrelated query reports its own counters,
    // not an accumulation.
    let m2 = counters(&db.execute("SELECT COUNT(*) FROM customers").unwrap());
    assert_eq!(m2["rows_dropped_by_bitmap"], 0);
    assert_eq!(m2["groups_eliminated"], 0);
}

#[test]
fn explain_analyze_actuals_match_executed_query() {
    let db = db();
    let sql = "SELECT c.region, COUNT(*) AS n FROM sales s \
               JOIN customers c ON s.cust_id = c.id \
               WHERE s.day < DATE 10 AND c.region = 'north' GROUP BY c.region";
    let baseline = db.execute(sql).unwrap();
    let n_result_rows = baseline.rows().len() as u64;

    let r = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let QueryResult::Explain(text) = r else {
        panic!("expected explain output, got {r:?}");
    };
    println!("{text}"); // ci.sh greps this smoke output
                        // Every operator line carries actuals.
    let op_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("(~") && !l.starts_with("mode="))
        .collect();
    assert!(op_lines.len() >= 4, "{text}");
    for l in &op_lines {
        assert!(l.contains("[actual rows="), "missing actuals: {l}");
        assert!(l.contains("time="), "missing timing: {l}");
    }
    // The root operator's actual row count is the result cardinality.
    assert_eq!(actual_rows(op_lines[0]), n_result_rows, "{text}");
    assert!(text.contains(&format!("rows returned={n_result_rows}")));
    // The join's actual output equals the independently computed
    // post-bitmap row count.
    let join_line = op_lines
        .iter()
        .find(|l| l.contains("HashJoin"))
        .unwrap_or_else(|| panic!("no join in {text}"));
    assert_eq!(actual_rows(join_line), 500, "{text}");
    // Counter footer: elimination and bitmap prunes with exact values.
    assert!(text.contains("groups_eliminated=3"), "{text}");
    assert!(text.contains("pruned=500"), "{text}");
    assert!(text.contains("exact=1"), "{text}");
}

#[test]
fn explain_without_analyze_reports_no_actuals() {
    let db = db();
    let r = db
        .execute("EXPLAIN SELECT COUNT(*) FROM sales WHERE day = 3")
        .unwrap();
    let QueryResult::Explain(text) = r else {
        panic!("expected explain output");
    };
    assert!(!text.contains("[actual"), "{text}");
    assert!(!text.contains("actuals:"), "{text}");
}

#[test]
fn database_metrics_dump_is_complete() {
    let db = db();
    db.execute("SELECT COUNT(*) FROM sales WHERE day = 3")
        .unwrap();
    // Trickle rows so the mover has delta stores to move, then run one
    // supervised pass and stop; the status handle outlives the mover.
    for i in 0..150 {
        db.execute(&format!(
            "INSERT INTO sales VALUES ({}, 1, 1.0, 0)",
            10_000 + i
        ))
        .unwrap();
    }
    let mover = db
        .start_tuple_mover("sales", Duration::from_secs(3600))
        .unwrap();
    mover.kick();
    mover.stop().unwrap();
    let text = db.metrics();
    // Query counters from the process-wide registry.
    assert!(text.contains("cstore_queries_total"), "{text}");
    assert!(text.contains("cstore_query_latency_us_bucket"), "{text}");
    assert!(text.contains("cstore_query_rows_scanned_total"), "{text}");
    // Tuple-mover counters, labelled by table.
    assert!(
        text.contains("cstore_mover_passes{table=\"sales\"}"),
        "{text}"
    );
    assert!(
        text.contains("cstore_mover_rows_moved{table=\"sales\"}"),
        "{text}"
    );
    // Recovery quarantine gauges are present (zero for a fresh database).
    assert!(text.contains("cstore_open_quarantined_blobs 0"), "{text}");
    assert!(text.contains("cstore_open_skipped_manifests 0"), "{text}");
}

#[test]
fn cumulative_context_metrics_still_accumulate_across_queries() {
    let db = db();
    let before = Metrics::get(&db.exec_context().metrics.rows_scanned);
    db.execute("SELECT COUNT(*) FROM sales").unwrap();
    db.execute("SELECT COUNT(*) FROM sales").unwrap();
    let after = Metrics::get(&db.exec_context().metrics.rows_scanned);
    // Two full scans of 4,000 rows folded back into the shared context —
    // the bench binaries rely on these before/after deltas.
    assert_eq!(after - before, 8000);
}

/// The counting rule: every statement that reaches `execute` is counted
/// once whatever its end, and a SELECT that fails mid-execution still
/// reports the work it did.
#[test]
fn failed_statements_are_counted_with_the_work_they_did() {
    let db = db();
    let scanned = || Metrics::get(&db.exec_context().metrics.rows_scanned);
    let total = || registry().counter("cstore_queries_total").get();
    let (scanned_before, total_before) = (scanned(), total());
    // Fails in the projection, after the scan produced its first batch.
    let err = db.execute("SELECT id / (id - id) FROM sales").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    assert!(
        scanned() > scanned_before,
        "the failed SELECT's scan vanished from the cumulative metrics"
    );
    db.execute("SELECT nope FROM sales").unwrap_err();
    db.execute("INSERT INTO sales VALUES (9000, 1, 1.0, 0)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("ROLLBACK").unwrap();
    // The registry is process-wide (other tests add to it), hence `>=`.
    assert!(
        total() - total_before >= 5,
        "DML, txn control and failures count"
    );
}

/// The guard on how UPDATE/DELETE find their victims, in counts rather
/// than time: a single-key statement over a table clustered on the key
/// reads one row group of sixteen (segment elimination), evaluates the
/// predicate there on encoded data so that one row comes out of the scan,
/// and reads none at all for a key that lives in a delta store.
#[test]
fn single_key_dml_reads_one_row_group_of_sixteen() {
    let db = db();
    db.execute("CREATE TABLE events (k BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    let rows: Vec<Row> = (0..16_000)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i % 7)]))
        .collect();
    db.bulk_load("events", &rows).unwrap();
    for k in 100_000..100_030 {
        db.execute(&format!("INSERT INTO events VALUES ({k}, 0)"))
            .unwrap();
    }
    let stats = db.table_stats("events").unwrap();
    assert_eq!((stats.n_compressed_groups, stats.delta_rows), (16, 30));
    // (groups eliminated, groups scanned, rows scanned, of them delta rows)
    let run = |sql: &str| {
        assert_eq!(db.execute(sql).unwrap().affected(), 1, "{sql}");
        db.with_query_log(|log| {
            let c = log.entries().last().expect("logged").1.exec.counters;
            (
                c.groups_eliminated,
                c.groups_scanned,
                c.rows_scanned,
                c.rows_scanned_delta,
            )
        })
    };
    let one_group = (15, 1, 1, 0);
    assert_eq!(run("DELETE FROM events WHERE k = 5432"), one_group);
    assert_eq!(run("UPDATE events SET v = 9 WHERE k = 15999"), one_group);
    let delta_only = (16, 0, 1, 1);
    assert_eq!(run("DELETE FROM events WHERE k = 100007"), delta_only);
    // The updated row moved to the delta store. Its old group still
    // spans the key, so it is not eliminated — its predicate runs, on
    // codes, and finds only the deleted version: no group is read.
    assert_eq!(
        run("UPDATE events SET v = 8 WHERE k = 15999"),
        (15, 0, 1, 1)
    );
    // A residual predicate narrows nothing: every visible row is scanned,
    // and no more — one group's rows plus the delta rows is the bound a
    // key predicate stays under.
    let (eliminated, scanned, rows, delta) = run("DELETE FROM events WHERE k + v = 0");
    assert_eq!((eliminated, scanned), (0, 16));
    assert_eq!((rows, delta), (15_998 + 30, 30));
}

/// One script, every kind of ending; then every surface that keeps
/// statements must tell the same story about each statement shape.
#[test]
fn query_log_query_store_registry_and_explain_analyze_agree() {
    // A 64-byte operator budget makes every hash join spill.
    let db = db().with_exec_context(ExecContext::default().with_budget(64));
    let peer = db.new_session();
    let join = "SELECT c.region, COUNT(*) AS n FROM sales s \
                JOIN customers c ON s.cust_id = c.id GROUP BY c.region";
    let explain = format!("EXPLAIN ANALYZE {join}");
    // Fails in the projection — after the join's build side has spilled.
    let fails_late = "SELECT s.id / (s.id - s.id) FROM sales s \
                      JOIN customers c ON s.cust_id = c.id";
    let times_out = "SELECT COUNT(*) FROM sales a JOIN sales b ON a.cust_id = b.cust_id";
    let scan = "SELECT COUNT(*) FROM sales WHERE day = 3";
    // (session, statement, the status `sys.query_log` must show)
    let script: Vec<(&Database, &str, &str)> = vec![
        (&db, scan, "OK"),
        (&db, "SELECT nope FROM sales", "ERROR"),
        (&db, fails_late, "ERROR"),
        (&db, "SET query_timeout_ms = 1", "OK"),
        (&db, times_out, "ERROR"),
        (&db, "SET query_timeout_ms = 0", "OK"),
        (&db, join, "OK"),
        (&db, &explain, "OK"),
        (&db, "INSERT INTO sales VALUES (9001, 1, 1.0, 0)", "OK"),
        (&db, "UPDATE sales SET amount = 2.0 WHERE id = 9001", "OK"),
        (&db, "DELETE FROM sales WHERE id = 9001", "OK"),
        (&db, "BEGIN", "OK"),
        (&db, "INSERT INTO sales VALUES (9002, 1, 1.0, 0)", "OK"),
        (&db, "ROLLBACK", "ROLLBACK"),
        (&db, "BEGIN", "OK"),
        (&db, "UPDATE sales SET amount = 3.0 WHERE id = 7", "OK"),
        (&peer, "DELETE FROM sales WHERE id = 7", "CONFLICT"),
        (&db, "COMMIT", "OK"),
    ];
    let latency = || {
        registry()
            .histogram("cstore_query_latency_us", &LATENCY_BUCKETS_US)
            .count()
    };
    let total = || registry().counter("cstore_queries_total").get();
    let spilled = || Metrics::get(&db.exec_context().metrics.bytes_spilled);
    let (latency_before, total_before, spilled_before) = (latency(), total(), spilled());

    let hash = |sql: &str| format!("{:016x}", query_shape(sql).hash);
    let mut expected: HashMap<String, Vec<&str>> = HashMap::new();
    let mut results: HashMap<&str, _> = HashMap::new();
    for (session, sql, status) in &script {
        let r = session.execute(sql);
        assert_eq!(
            r.is_ok(),
            matches!(*status, "OK" | "ROLLBACK"),
            "{sql}: {r:?}"
        );
        expected.entry(hash(sql)).or_default().push(*status);
        results.insert(*sql, r);
    }
    assert_eq!(results[times_out].as_ref().unwrap_err().code(), "TIMEOUT");

    // Registry: one count and one latency observation per statement. The
    // registry is process-wide (other tests add to it), hence `>=`.
    let n = script.len() as u64;
    assert!(total() - total_before >= n, "cstore_queries_total");
    assert!(latency() - latency_before >= n, "cstore_query_latency_us");

    let log = by_hash(
        &db,
        "SELECT query_hash, status, error, rows, batches FROM sys.query_log",
    );
    let store = by_hash(
        &db,
        "SELECT query_hash, executions, failures, timeouts, spill_partitions, spill_bytes \
         FROM sys.query_store",
    );
    // A shape's Query Store columns, summed over the intervals it spans.
    let stored = |shape: &str| -> Vec<u64> {
        let rows = &store[shape];
        (0..5)
            .map(|c| rows.iter().map(|r| int(&r[c])).sum())
            .collect()
    };
    for (shape, statuses) in &mut expected {
        let logged = &log[shape];
        let mut seen: Vec<&str> = logged.iter().map(|r| r[0].as_str().unwrap()).collect();
        seen.sort_unstable();
        statuses.sort_unstable();
        assert_eq!(&seen, statuses, "sys.query_log statuses of {shape}");
        let timeouts = logged
            .iter()
            .filter(|r| r[1].as_str().is_some_and(|e| e.contains("query timeout")))
            .count();
        let failures = seen.iter().filter(|s| **s != "OK").count();
        assert_eq!(
            stored(shape)[..3],
            [seen.len() as u64, failures as u64, timeouts as u64],
            "sys.query_store executions/failures/timeouts of {shape}"
        );
    }
    assert_eq!(stored(&hash(times_out))[2], 1, "the timeout is a timeout");

    // What a result set said about itself is what was logged and stored.
    for sql in [scan, join] {
        let r = results[sql].as_ref().unwrap();
        let m = counters(r);
        let logged = &log[&hash(sql)][0];
        assert_eq!(int(&logged[2]), r.rows().len() as u64, "rows of {sql}");
        assert_eq!(int(&logged[3]), m["batches"], "batches of {sql}");
        assert_eq!(
            stored(&hash(sql))[3..],
            [m["partitions_spilled"], m["bytes_spilled"]],
            "spill of {sql}"
        );
    }
    let join_spill = &stored(&hash(join))[3..];
    assert!(
        join_spill[0] > 0,
        "a 64-byte budget must make the join spill"
    );
    // EXPLAIN ANALYZE ran the same plan: its text, its log row and its
    // Query Store row describe one execution.
    let Ok(QueryResult::Explain(text)) = &results[explain.as_str()] else {
        panic!("expected explain output");
    };
    assert_eq!(
        int(&log[&hash(&explain)][0][2]),
        number_after(text, "rows returned="),
        "{text}"
    );
    let spill_line = text.split("spill:").nth(1).unwrap();
    assert_eq!(
        stored(&hash(&explain))[3..],
        [
            number_after(spill_line, "partitions="),
            number_after(spill_line, "bytes="),
        ],
        "{text}"
    );
    assert_eq!(&stored(&hash(&explain))[3..], join_spill, "same plan");
    // A SELECT that failed after spilling still reports the spill, and
    // the database's cumulative counters hold exactly what the Query
    // Store holds.
    assert!(
        stored(&hash(fails_late))[3] > 0,
        "the failed SELECT's spill vanished"
    );
    let stored_bytes: u64 = store.values().flatten().map(|r| int(&r[4])).sum();
    assert_eq!(stored_bytes, spilled() - spilled_before);

    // UPDATE and DELETE find their victims with a planned scan, and the
    // statement's record is that scan's: `(rows it returned, groups
    // eliminated, groups scanned, rows scanned, of them delta rows)`.
    let victim_scan = |sql: &str| {
        db.with_query_log(|log| {
            let (_, p) = log
                .entries()
                .find(|(_, p)| p.text == sql)
                .unwrap_or_else(|| panic!("{sql} is not in the log"));
            let c = p.exec.counters;
            (
                p.exec.rows_returned,
                c.groups_eliminated,
                c.groups_scanned,
                c.rows_scanned,
                c.rows_scanned_delta,
            )
        })
    };
    // Row 9001 lives in the delta store: all four row groups eliminated.
    let in_delta = (1, 4, 0, 1, 1);
    assert_eq!(
        victim_scan("UPDATE sales SET amount = 2.0 WHERE id = 9001"),
        in_delta
    );
    assert_eq!(victim_scan("DELETE FROM sales WHERE id = 9001"), in_delta);
    // Row 7 is in the first of the four groups — found there inside the
    // transaction, and by the peer whose DELETE then lost the conflict.
    let in_group = (1, 3, 1, 1, 0);
    assert_eq!(
        victim_scan("UPDATE sales SET amount = 3.0 WHERE id = 7"),
        in_group
    );
    assert_eq!(victim_scan("DELETE FROM sales WHERE id = 7"), in_group);
    let update = hash("UPDATE sales SET amount = 2.0 WHERE id = 9001");
    let roots = by_hash(&db, "SELECT query_hash, rows, plan_root FROM sys.query_log");
    assert_eq!(
        roots[&update],
        vec![vec![Value::Int64(1), Value::str("Scan sales")]; 2],
        "both UPDATEs log the row they hit and their scan"
    );
    let returned = by_hash(&db, "SELECT query_hash, rows_returned FROM sys.query_store");
    let returned: u64 = returned[&update].iter().map(|r| int(&r[0])).sum();
    assert_eq!(returned, 2, "the Query Store counts the rows UPDATE hit");
}
