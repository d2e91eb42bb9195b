//! End-to-end SQL behavior over the whole stack (parser → binder →
//! optimizer → batch/row execution → columnstore/delta storage).

use cstore::common::{Row, Value};
use cstore::delta::TableConfig;
use cstore::{Database, ExecMode};

fn small_db() -> Database {
    Database::new().with_table_config(TableConfig {
        delta_capacity: 64,
        bulk_load_threshold: 128,
        max_rowgroup_rows: 256,
        ..Default::default()
    })
}

fn setup() -> Database {
    let db = small_db();
    db.execute(
        "CREATE TABLE t (id BIGINT NOT NULL, grp VARCHAR NOT NULL, \
         val INT, price DECIMAL(8, 2), flag BOOL NOT NULL, d DATE NOT NULL)",
    )
    .unwrap();
    let rows: Vec<Row> = (0..1000)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::str(["red", "green", "blue"][(i % 3) as usize]),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int32((i % 100) as i32)
                },
                Value::Decimal(i * 7 % 10_000),
                Value::Bool(i % 2 == 0),
                Value::Date((i / 10) as i32),
            ])
        })
        .collect();
    db.bulk_load("t", &rows).unwrap();
    db
}

#[test]
fn predicates_cover_all_types() {
    let db = setup();
    let count = |sql: &str| -> i64 { db.execute(sql).unwrap().rows()[0].get(0).as_i64().unwrap() };
    assert_eq!(count("SELECT COUNT(*) FROM t"), 1000);
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE id < 10"), 10);
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE grp = 'red'"), 334);
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE val IS NULL"), 91);
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE val IS NOT NULL"),
        1000 - 91
    );
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE flag = TRUE"), 500);
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE d BETWEEN 10 AND 19"),
        100
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE grp IN ('red', 'blue')"),
        667
    );
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE NOT (grp = 'red' OR grp = 'blue')"),
        333
    );
    // Decimal literal coerces to the column scale: price < 1.00 means
    // mantissa < 100; mantissas are i*7 % 10000.
    let expect = (0..1000).filter(|i| i * 7 % 10_000 < 100).count() as i64;
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE price < 1.00"), expect);
}

#[test]
fn three_valued_logic_matches_sql() {
    let db = setup();
    // val > 50 OR val <= 50 is NOT a tautology under NULLs.
    let r = db
        .execute("SELECT COUNT(*) FROM t WHERE val > 50 OR val <= 50")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(1000 - 91));
}

#[test]
fn arithmetic_and_projection() {
    let db = setup();
    let r = db
        .execute("SELECT id, id * 2 + 1 AS x, val / 10 AS v FROM t WHERE id = 21")
        .unwrap();
    assert_eq!(r.rows()[0].get(1), &Value::Int64(43));
    assert_eq!(r.rows()[0].get(2), &Value::Int64(2));
}

#[test]
fn group_by_having_order_limit() {
    let db = setup();
    let r = db
        .execute(
            "SELECT grp, COUNT(*) AS n, MIN(id) AS lo, MAX(id) AS hi \
             FROM t WHERE id < 300 GROUP BY grp \
             HAVING COUNT(*) > 10 ORDER BY grp ASC LIMIT 2",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0].get(0), &Value::str("blue"));
    assert_eq!(r.rows()[0].get(1), &Value::Int64(100));
    assert_eq!(r.rows()[0].get(2), &Value::Int64(2));
    assert_eq!(r.rows()[0].get(3), &Value::Int64(299));
}

#[test]
fn aggregates_handle_nulls_and_decimals() {
    let db = setup();
    let r = db
        .execute("SELECT COUNT(val), SUM(val), AVG(price), SUM(price) FROM t WHERE id < 22")
        .unwrap();
    // ids 0 and 11 have NULL val.
    assert_eq!(r.rows()[0].get(0), &Value::Int64(20));
    let sum: i64 = (0..22).filter(|i| i % 11 != 0).map(|i| i % 100).sum();
    assert_eq!(r.rows()[0].get(1), &Value::Int64(sum));
    // AVG over decimals scales down by 10^2.
    let mantissas: Vec<i64> = (0..22).map(|i| i * 7 % 10_000).collect();
    let avg = mantissas.iter().sum::<i64>() as f64 / mantissas.len() as f64 / 100.0;
    assert_eq!(r.rows()[0].get(2), &Value::Float64(avg));
    assert_eq!(
        r.rows()[0].get(3),
        &Value::Decimal(mantissas.iter().sum::<i64>())
    );
}

#[test]
fn every_join_type_over_sql() {
    let db = small_db();
    db.execute("CREATE TABLE l (k BIGINT NOT NULL, tag VARCHAR NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE r (k BIGINT NOT NULL, name VARCHAR NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO l VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    db.execute("INSERT INTO r VALUES (2, 'two'), (3, 'three'), (4, 'four')")
        .unwrap();
    let count = |sql: &str| db.execute(sql).unwrap().rows().len();
    assert_eq!(count("SELECT * FROM l JOIN r ON l.k = r.k"), 2);
    assert_eq!(count("SELECT * FROM l LEFT JOIN r ON l.k = r.k"), 3);
    assert_eq!(count("SELECT * FROM l RIGHT JOIN r ON l.k = r.k"), 3);
    assert_eq!(count("SELECT * FROM l FULL OUTER JOIN r ON l.k = r.k"), 4);
    assert_eq!(count("SELECT * FROM l LEFT SEMI JOIN r ON l.k = r.k"), 2);
    assert_eq!(count("SELECT * FROM l LEFT ANTI JOIN r ON l.k = r.k"), 1);
    // Outer join null-extends.
    let r = db
        .execute("SELECT l.tag, r.name FROM l LEFT JOIN r ON l.k = r.k ORDER BY tag")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::str("a"));
    assert_eq!(r.rows()[0].get(1), &Value::Null);
}

#[test]
fn batch_and_row_mode_agree_across_query_shapes() {
    let sqls = [
        "SELECT COUNT(*) FROM t WHERE val > 50 AND flag = TRUE",
        "SELECT grp, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp",
        "SELECT id, price FROM t WHERE d = 5 ORDER BY id DESC LIMIT 4",
        "SELECT grp, COUNT(val) AS c FROM t WHERE id BETWEEN 100 AND 700 GROUP BY grp ORDER BY c DESC",
    ];
    let batch = setup().with_exec_mode(ExecMode::Batch);
    let row = setup().with_exec_mode(ExecMode::Row);
    for sql in sqls {
        let mut a = batch.execute(sql).unwrap().rows().to_vec();
        let mut b = row.execute(sql).unwrap().rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "modes disagree on: {sql}");
    }
}

#[test]
fn results_consistent_across_storage_lifecycle() {
    // The same logical table must answer identically as rows move:
    // delta-only → mixed → compressed → archived.
    let db = small_db();
    db.execute("CREATE TABLE lc (id BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    for i in 0..200i64 {
        db.execute(&format!("INSERT INTO lc VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    let q = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM lc WHERE id >= 50";
    let baseline = db.execute(q).unwrap().rows().to_vec();
    db.tuple_move("lc").unwrap(); // compress closed deltas
    assert_eq!(db.execute(q).unwrap().rows(), baseline, "after tuple move");
    db.archive_table("lc").unwrap();
    assert_eq!(db.execute(q).unwrap().rows(), baseline, "after archive");
}

#[test]
fn errors_surface_with_context() {
    let db = setup();
    let err = db.execute("SELECT nope FROM t").unwrap_err();
    assert!(err.to_string().contains("nope"));
    let err = db.execute("SELECT * FROM t WHERE grp > 5").unwrap_err();
    assert!(err.to_string().contains("compare"), "{err}");
    let err = db
        .execute("SELECT grp, SUM(id) FROM t GROUP BY grp ORDER BY missing")
        .unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn distinct_and_count_distinct() {
    let db = setup();
    let r = db
        .execute("SELECT DISTINCT grp FROM t ORDER BY grp")
        .unwrap();
    let got: Vec<&str> = r
        .rows()
        .iter()
        .map(|x| x.get(0).as_str().unwrap())
        .collect();
    assert_eq!(got, vec!["blue", "green", "red"]);
    let r = db
        .execute("SELECT COUNT(DISTINCT grp), COUNT(DISTINCT val), COUNT(val) FROM t")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(3));
    assert_eq!(r.rows()[0].get(1), &Value::Int64(100));
    assert_eq!(r.rows()[0].get(2), &Value::Int64(909));
    // Grouped COUNT(DISTINCT).
    let r = db
        .execute("SELECT grp, COUNT(DISTINCT d) AS days FROM t GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(r.rows()[0].get(1), &Value::Int64(100));
    // Batch and row modes agree.
    let row = setup().with_exec_mode(ExecMode::Row);
    let a = db.execute("SELECT COUNT(DISTINCT val) FROM t").unwrap();
    let b = row.execute("SELECT COUNT(DISTINCT val) FROM t").unwrap();
    assert_eq!(a.rows(), b.rows());
}

#[test]
fn union_all_concatenates_and_orders() {
    let db = setup();
    let r = db
        .execute(
            "SELECT id, grp FROM t WHERE id < 2 \
             UNION ALL SELECT id, grp FROM t WHERE id BETWEEN 500 AND 501 \
             UNION ALL SELECT id, grp FROM t WHERE id > 997 \
             ORDER BY id DESC LIMIT 5",
        )
        .unwrap();
    let ids: Vec<i64> = r
        .rows()
        .iter()
        .map(|x| x.get(0).as_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![999, 998, 501, 500, 1]);
    // Mismatched branch schemas rejected.
    assert!(db
        .execute("SELECT id FROM t UNION ALL SELECT grp FROM t")
        .is_err());
    // ORDER BY on a non-final branch rejected.
    assert!(db
        .execute("SELECT id FROM t ORDER BY id UNION ALL SELECT id FROM t")
        .is_err());
}

#[test]
fn analyze_improves_skewed_estimates() {
    let db = small_db();
    db.execute("CREATE TABLE skew (k BIGINT NOT NULL)").unwrap();
    // 90% zeros, tail spread to 1e6.
    let rows: Vec<Row> = (0..5000)
        .map(|i| Row::new(vec![Value::Int64(if i % 10 < 9 { 0 } else { i * 200 })]))
        .collect();
    db.bulk_load("skew", &rows).unwrap();
    let estimate = |db: &Database| -> f64 {
        let cstore::QueryResult::Explain(text) = db
            .execute("EXPLAIN SELECT COUNT(*) FROM skew WHERE k = 0")
            .unwrap()
        else {
            panic!()
        };
        // Scan line reads "... (~N rows)".
        let line = text.lines().find(|l| l.contains("Scan skew")).unwrap();
        let n = line.split("(~").nth(1).unwrap();
        n.split(' ').next().unwrap().parse().unwrap()
    };
    let before = estimate(&db);
    db.execute("ANALYZE skew").unwrap();
    let after = estimate(&db);
    // Truth: 4500 rows have k = 0. The uniform estimate is tiny; the
    // histogram one should be within 2x of the truth.
    assert!(before < 500.0, "uniform estimate {before}");
    assert!(
        (2250.0..=9000.0).contains(&after),
        "histogram estimate {after}"
    );
}

#[test]
fn count_star_over_multi_join_with_reordering() {
    // Regression: COUNT(*) above a reordered join chain's compensating
    // projection used to prune the projection to zero columns and crash.
    let db = Database::new();
    cstore::workload::StarSchema::scale(5000)
        .load_into(&db)
        .unwrap();
    let r = db
        .execute(
            "SELECT COUNT(*) FROM sales s \
             JOIN customer c ON s.cust_key = c.cust_key \
             JOIN product p ON s.prod_key = p.prod_key",
        )
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(5000));
}

#[test]
fn like_predicates_with_prefix_pushdown() {
    let db = setup();
    // grp values: red/green/blue.
    let count = |sql: &str| -> i64 { db.execute(sql).unwrap().rows()[0].get(0).as_i64().unwrap() };
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE grp LIKE 'gr%'"), 333);
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE grp LIKE '%ee%'"), 333);
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE grp LIKE 'r_d'"), 334);
    assert_eq!(
        count("SELECT COUNT(*) FROM t WHERE grp NOT LIKE 'gr%'"),
        667
    );
    assert_eq!(count("SELECT COUNT(*) FROM t WHERE grp LIKE 'z%'"), 0);
    // The prefix becomes a pushed range on the scan.
    let cstore::QueryResult::Explain(text) = db
        .execute("EXPLAIN SELECT COUNT(*) FROM t WHERE grp LIKE 'gr%'")
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("pushed="), "{text}");
    assert!(text.contains(">= gr"), "{text}");
    // Batch and row modes agree.
    let row = setup().with_exec_mode(ExecMode::Row);
    for sql in [
        "SELECT COUNT(*) FROM t WHERE grp LIKE '%e%'",
        "SELECT COUNT(*) FROM t WHERE grp LIKE 'b%e'",
    ] {
        assert_eq!(
            db.execute(sql).unwrap().rows(),
            row.execute(sql).unwrap().rows(),
            "{sql}"
        );
    }
    // LIKE on a non-string column is a bind error.
    assert!(db.execute("SELECT * FROM t WHERE id LIKE '1%'").is_err());
}

#[test]
fn join_null_payload_columns_survive() {
    // Build-side columns with NULLs must gather correctly through the
    // typed join output (null bitmaps, not sentinel values).
    let db = small_db();
    db.execute("CREATE TABLE f (k BIGINT NOT NULL)").unwrap();
    db.execute("CREATE TABLE d (k BIGINT NOT NULL, label VARCHAR, score DOUBLE, n INT)")
        .unwrap();
    db.execute("INSERT INTO f VALUES (1), (2), (3)").unwrap();
    db.execute(
        "INSERT INTO d VALUES (1, 'one', 1.5, 10), (2, NULL, NULL, NULL), (3, 'three', NULL, 30)",
    )
    .unwrap();
    let r = db
        .execute("SELECT f.k, d.label, d.score, d.n FROM f JOIN d ON f.k = d.k ORDER BY k")
        .unwrap();
    assert_eq!(r.rows()[0].get(1), &Value::str("one"));
    assert_eq!(r.rows()[1].get(1), &Value::Null);
    assert_eq!(r.rows()[1].get(2), &Value::Null);
    assert_eq!(r.rows()[1].get(3), &Value::Null);
    assert_eq!(r.rows()[2].get(2), &Value::Null);
    assert_eq!(r.rows()[2].get(3), &Value::Int32(30));
    // Aggregates over the (nullable) joined columns respect the NULLs.
    let r = db
        .execute("SELECT COUNT(d.label), COUNT(d.n) FROM f JOIN d ON f.k = d.k")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(2));
    assert_eq!(r.rows()[0].get(1), &Value::Int64(2));
}

#[test]
fn snowflake_join_keys_block_reordering() {
    // When a join key comes from an earlier dimension (snowflake), the
    // star-reorder rule must leave the chain alone and still answer right.
    let db = small_db();
    db.execute("CREATE TABLE fact (a BIGINT NOT NULL)").unwrap();
    db.execute("CREATE TABLE dim1 (a BIGINT NOT NULL, b BIGINT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE dim2 (b BIGINT NOT NULL, name VARCHAR NOT NULL)")
        .unwrap();
    for i in 0..100 {
        db.execute(&format!("INSERT INTO fact VALUES ({i})"))
            .unwrap();
    }
    for i in 0..10 {
        db.execute(&format!("INSERT INTO dim1 VALUES ({i}, {})", i % 3))
            .unwrap();
    }
    for i in 0..3 {
        db.execute(&format!("INSERT INTO dim2 VALUES ({i}, 'd{i}')"))
            .unwrap();
    }
    let r = db
        .execute(
            "SELECT dim2.name, COUNT(*) AS n FROM fact \
             JOIN dim1 ON fact.a = dim1.a \
             JOIN dim2 ON dim1.b = dim2.b \
             GROUP BY dim2.name ORDER BY name",
        )
        .unwrap();
    let total: i64 = r.rows().iter().map(|x| x.get(1).as_i64().unwrap()).sum();
    assert_eq!(total, 10, "only fact rows 0..10 have dim1 matches");
}

#[test]
fn having_supports_between_in_like_over_keys() {
    let db = setup();
    let r = db
        .execute(
            "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp \
             HAVING grp LIKE '%e%' AND COUNT(*) BETWEEN 1 AND 100000 \
             AND grp IN ('red', 'green', 'blue') ORDER BY grp",
        )
        .unwrap();
    let names: Vec<&str> = r
        .rows()
        .iter()
        .map(|x| x.get(0).as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["blue", "green", "red"]);
}

/// Satellite: `SET query_timeout_ms` bounds query wall time. An absurdly
/// tight deadline aborts a heavy query with a clean SQL error; `SET
/// query_timeout_ms = 0` clears the bound; bad options and values are
/// rejected at the statement level.
#[test]
fn set_query_timeout_aborts_slow_queries_cleanly() {
    let db = setup();
    // A self-join fans out to ~10^6 probe rows — plenty of operator
    // boundaries for the deadline check to fire at.
    let heavy = "SELECT COUNT(*) FROM t a JOIN t b ON a.grp = b.grp";

    db.execute("SET query_timeout_ms = 1").unwrap();
    let err = db.execute(heavy).unwrap_err();
    assert_eq!(err.code(), "TIMEOUT", "{err}");
    assert!(
        err.to_string().contains("query timeout exceeded"),
        "expected a clean timeout error, got: {err}"
    );

    // Zero clears the deadline.
    db.execute("SET query_timeout_ms = 0").unwrap();
    // The expiry is filed as a timeout, not just as a failure.
    let hash = format!("{:016x}", cstore::sql::query_shape(heavy).hash);
    let stored = db
        .execute(&format!(
            "SELECT executions, failures, timeouts FROM sys.query_store \
             WHERE query_hash = '{hash}'"
        ))
        .unwrap();
    assert_eq!(stored.rows()[0].values(), vec![Value::Int64(1); 3]);
    let logged = db
        .execute(&format!(
            "SELECT status, error FROM sys.query_log WHERE query_hash = '{hash}'"
        ))
        .unwrap();
    assert_eq!(logged.rows()[0].get(0), &Value::str("ERROR"));
    let error = logged.rows()[0].get(1).as_str().unwrap();
    assert!(error.contains("query timeout exceeded"), "{error}");

    // With the deadline cleared the same query completes.
    let rows = db.execute(heavy).unwrap();
    assert!(rows.rows()[0].get(0).as_i64().unwrap() > 0);

    // A generous deadline does not fire on a fast query.
    db.execute("SET query_timeout_ms = 60000").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int64(1000));

    assert!(db.execute("SET no_such_option = 1").is_err());
    assert!(db.execute("SET query_timeout_ms = -5").is_err());
}

/// The victim search of UPDATE/DELETE is a planned scan, so the statement
/// deadline interrupts it like any query's: the autocommit statement
/// leaves nothing behind, an explicit transaction is poisoned.
#[test]
fn query_timeout_interrupts_a_long_victim_scan() {
    let db = small_db();
    db.execute("CREATE TABLE big (id BIGINT NOT NULL, val BIGINT NOT NULL, tag VARCHAR)")
        .unwrap();
    // 160 row groups: as many operator boundaries for the deadline to
    // fire at, and far more than a millisecond of decoding.
    let rows: Vec<Row> = (0..40_960)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::Int64(i % 977),
                Value::str(format!("tag{}", i % 31)),
            ])
        })
        .collect();
    db.bulk_load("big", &rows).unwrap();
    let state = |db: &Database| {
        let r = db.execute("SELECT COUNT(*), SUM(val) FROM big").unwrap();
        r.rows()[0].values().to_vec()
    };
    let before = state(&db);
    let update = "UPDATE big SET val = val + 1 WHERE val + id >= 0";

    db.execute("SET query_timeout_ms = 1").unwrap();
    let err = db.execute(update).unwrap_err();
    assert_eq!(err.code(), "TIMEOUT", "{err}");
    db.execute("SET query_timeout_ms = 0").unwrap();
    assert_eq!(state(&db), before, "the timed-out UPDATE left rows behind");
    let hash = format!("{:016x}", cstore::sql::query_shape(update).hash);
    let stored = db
        .execute(&format!(
            "SELECT executions, failures, timeouts FROM sys.query_store \
             WHERE query_hash = '{hash}'"
        ))
        .unwrap();
    assert_eq!(stored.rows()[0].values(), vec![Value::Int64(1); 3]);

    // Inside BEGIN the timeout is a failed statement: abort-only.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO big VALUES (-1, 5, NULL)").unwrap();
    db.execute("SET query_timeout_ms = 1").unwrap();
    let err = db.execute("DELETE FROM big").unwrap_err();
    assert_eq!(err.code(), "TIMEOUT", "{err}");
    let msg = db.execute("SELECT COUNT(*) FROM big").unwrap_err();
    assert!(msg.to_string().contains("ROLLBACK required"), "{msg}");
    db.execute("ROLLBACK").unwrap();
    db.execute("SET query_timeout_ms = 0").unwrap();
    assert_eq!(state(&db), before, "the poisoned transaction leaked writes");

    // With the deadline cleared the same UPDATE goes through.
    assert_eq!(db.execute(update).unwrap().affected(), rows.len());
    assert_eq!(
        state(&db)[1],
        Value::Int64(before[1].as_i64().unwrap() + rows.len() as i64)
    );
}

/// A bulk-loaded row group whose nullable columns hold nothing but NULLs
/// has empty dictionaries; decoding it used to index entry 0 and panic.
#[test]
fn all_null_columns_in_a_compressed_group_aggregate_and_group() {
    let db = small_db();
    db.execute("CREATE TABLE n (id BIGINT NOT NULL, f DOUBLE, b BIGINT, v VARCHAR)")
        .unwrap();
    let rows: Vec<Row> = (0..200)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Null, Value::Null, Value::Null]))
        .collect();
    db.bulk_load("n", &rows).unwrap();
    for mode in [ExecMode::Batch, ExecMode::Row] {
        let db = db.clone().with_exec_mode(mode);
        let r = db
            .execute("SELECT COUNT(*), COUNT(f), COUNT(b), COUNT(v), SUM(f), MIN(b), MAX(v) FROM n")
            .unwrap();
        assert_eq!(
            r.rows()[0].values(),
            &[
                Value::Int64(200),
                Value::Int64(0),
                Value::Int64(0),
                Value::Int64(0),
                Value::Null,
                Value::Null,
                Value::Null
            ],
            "{mode:?}"
        );
        for col in ["f", "b", "v"] {
            let r = db
                .execute(&format!("SELECT {col}, COUNT(*) FROM n GROUP BY {col}"))
                .unwrap();
            assert_eq!(
                r.rows(),
                &[Row::new(vec![Value::Null, Value::Int64(200)])],
                "{mode:?} GROUP BY {col}"
            );
        }
        let r = db
            .execute("SELECT COUNT(*) FROM n WHERE v LIKE 'a%'")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(0), "{mode:?}");
    }
}
