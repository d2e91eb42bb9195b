//! Randomized tests on the engine's core invariants.
//!
//! * segment encode/decode is lossless for arbitrary typed data;
//! * predicate evaluation on *encoded* data matches naive row-at-a-time
//!   evaluation (the pushdown correctness invariant);
//! * the archival codec roundtrips arbitrary bytes;
//! * batch-mode and row-mode execution agree on arbitrary filters;
//! * the delete/insert lifecycle preserves the multiset of live rows;
//! * UPDATE and DELETE hit exactly the rows a SELECT with the same `WHERE`
//!   counts and a nested loop over `SELECT *` picks, in every storage state;
//! * hash joins (all six types) and hash aggregation agree with row mode
//!   and a nested-loop reference over every key shape, in memory and
//!   spilled.
//!
//! Deterministic seeded `Rng` replaces proptest so the suite builds
//! offline; each case runs many independent seeds.

use cstore::common::testutil::Rng;
use cstore::common::{DataType, Field, Row, Schema, Value};
use cstore::delta::{ColumnStoreTable, TableConfig};
use cstore::storage::builder::encode_column;
use cstore::storage::pred::{CmpOp, ColumnPred};

fn random_value(rng: &mut Rng, ty: DataType) -> Value {
    match ty {
        DataType::Int64 => match rng.below(6) {
            0..=2 => Value::Int64(rng.next_u64() as i64),
            3..=4 => Value::Int64(rng.range_i64(-50, 50)),
            _ => Value::Null,
        },
        DataType::Utf8 => {
            if rng.gen_bool(0.25) {
                Value::Null
            } else {
                let len = rng.range_usize(0, 7);
                Value::str(
                    (0..len)
                        .map(|_| ['a', 'b', 'c', 'd', 'e'][rng.range_usize(0, 5)])
                        .collect::<String>(),
                )
            }
        }
        DataType::Float64 => {
            if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Float64(rng.next_u32() as i32 as f64 / 8.0)
            }
        }
        _ => unreachable!("unsupported random type"),
    }
}

fn random_column(rng: &mut Rng) -> (DataType, Vec<Value>) {
    let ty = [DataType::Int64, DataType::Utf8, DataType::Float64][rng.range_usize(0, 3)];
    let n = rng.range_usize(0, 300);
    let vs = (0..n).map(|_| random_value(rng, ty)).collect();
    (ty, vs)
}

#[test]
fn segment_roundtrip_is_lossless() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let (ty, values) = random_column(&mut rng);
        let seg = encode_column(ty, &values, None).unwrap();
        assert_eq!(seg.row_count(), values.len(), "seed {seed}");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&seg.value_at(i), v, "seed {seed} row {i}");
        }
        // Serialization roundtrip too.
        let bytes = cstore::storage::format::serialize_segment(&seg).unwrap();
        let back = cstore::storage::format::deserialize_segment(&bytes).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&back.value_at(i), v, "seed {seed} row {i}");
        }
    }
}

#[test]
fn pushdown_matches_naive_eval() {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed ^ 0x9D);
        let n = rng.range_usize(1, 300);
        let values: Vec<Value> = (0..n)
            .map(|_| random_value(&mut rng, DataType::Int64))
            .collect();
        let k = rng.range_i64(-60, 60);
        let op = ops[rng.range_usize(0, ops.len())];
        let pred = ColumnPred::Cmp {
            op,
            value: Value::Int64(k),
        };
        let seg = encode_column(DataType::Int64, &values, None).unwrap();
        let got = seg.eval_pred(&pred).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(got.get(i), pred.matches(v), "seed {seed} row {i} = {v:?}");
        }
        // Elimination must never claim a false negative: if any row
        // matches, may_match must be true.
        if got.any() {
            assert!(seg.may_match(&pred), "seed {seed} k {k} op {op:?}");
        }
    }
}

#[test]
fn archival_codec_roundtrips() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed ^ 0xAC);
        let n = rng.range_usize(0, 4096);
        let data: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        let compressed = cstore::storage::archive::compress(&data);
        let back = cstore::storage::archive::decompress(&compressed).unwrap();
        assert_eq!(back, data, "seed {seed}");
    }
}

#[test]
fn batch_and_row_filters_agree() {
    use cstore::{Database, ExecMode};
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed ^ 0xBF);
        let n = rng.range_usize(1, 200);
        let values: Vec<Value> = (0..n)
            .map(|_| random_value(&mut rng, DataType::Int64))
            .collect();
        let lo = rng.range_i64(-40, 0);
        let hi = rng.range_i64(0, 40);
        let mk = |mode| {
            let db = Database::new()
                .with_table_config(TableConfig {
                    bulk_load_threshold: 16,
                    max_rowgroup_rows: 64,
                    ..Default::default()
                })
                .with_exec_mode(mode);
            db.execute("CREATE TABLE p (v BIGINT)").unwrap();
            let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
            db.bulk_load("p", &rows).unwrap();
            db
        };
        let sql = format!("SELECT COUNT(v), COUNT(*) FROM p WHERE v BETWEEN {lo} AND {hi}");
        let b = mk(ExecMode::Batch).execute(&sql).unwrap().rows().to_vec();
        let r = mk(ExecMode::Row).execute(&sql).unwrap().rows().to_vec();
        assert_eq!(&b, &r, "seed {seed}");
        // And both match a naive count.
        let naive = values
            .iter()
            .filter(|v| v.as_i64().is_some_and(|x| (lo..=hi).contains(&x)))
            .count() as i64;
        assert_eq!(b[0].get(0), &Value::Int64(naive), "seed {seed}");
    }
}

#[test]
fn delete_lifecycle_preserves_live_rows() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed ^ 0xDE1);
        let n = rng.range_usize(1, 150);
        let n_deletes = rng.range_usize(0, 80);
        let deletes: Vec<usize> = (0..n_deletes).map(|_| rng.range_usize(0, 150)).collect();
        let move_at = rng.range_usize(0, 4);
        let schema = Schema::new(vec![Field::not_null("id", DataType::Int64)]);
        let t = ColumnStoreTable::new(
            schema,
            TableConfig {
                delta_capacity: 32,
                bulk_load_threshold: 64,
                max_rowgroup_rows: 64,
                ..Default::default()
            },
        );
        let mut rids = Vec::new();
        let mut live: std::collections::BTreeSet<i64> = (0..n as i64).collect();
        for i in 0..n as i64 {
            rids.push(t.insert(Row::new(vec![Value::Int64(i)])).unwrap());
        }
        for (step, &d) in deletes.iter().enumerate() {
            if step == move_at {
                t.close_open_delta();
                t.tuple_move_once().unwrap();
                // Row ids may have changed; re-derive them from a scan.
                rids = t
                    .snapshot()
                    .groups()
                    .iter()
                    .flat_map(|g| {
                        let snap = t.snapshot();
                        let vis = snap.visible_bitmap(g);
                        vis.to_indices()
                            .into_iter()
                            .map(|tu| cstore::common::RowId::new(g.id(), tu))
                            .collect::<Vec<_>>()
                    })
                    .chain(t.snapshot().delta_rows().iter().map(|(r, _)| *r))
                    .collect();
            }
            if d < rids.len() {
                let rid = rids[d];
                if let Some(row) = t.get_row(rid).unwrap() {
                    let id = row.get(0).as_i64().unwrap();
                    assert!(t.delete(rid).unwrap(), "seed {seed} step {step}");
                    live.remove(&id);
                }
            }
        }
        let seen: std::collections::BTreeSet<i64> = t
            .snapshot()
            .scan_rows()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        let n_live = live.len();
        assert_eq!(seen, live, "seed {seed}");
        assert_eq!(t.total_rows(), n_live, "seed {seed}");
    }
}

/// One seeded DML script: single- and multi-row inserts, updates and
/// deletes by id and by range, a delete of a row the script itself just
/// inserted, and a tuple-mover pass in the middle (`None`).
fn dml_script(seed: u64) -> Vec<Option<String>> {
    let mut rng = Rng::new(seed ^ 0xD1FF);
    let mut next_id = 0i64;
    let mut script = Vec::new();
    let n = rng.range_usize(24, 40);
    for step in 0..n {
        if step == n / 2 {
            script.push(None);
        }
        let id = rng.range_i64(0, next_id.max(1));
        let stmt = match rng.below(8) {
            0..=1 => {
                next_id += 1;
                format!("INSERT INTO t VALUES ({}, 'one')", next_id - 1)
            }
            2 => {
                next_id += 3;
                let (a, b, c) = (next_id - 3, next_id - 2, next_id - 1);
                format!("INSERT INTO t VALUES ({a}, 'm'), ({b}, 'm'), ({c}, 'm')")
            }
            3 => format!("UPDATE t SET v = 'u{step}' WHERE id = {id}"),
            4 => format!(
                "UPDATE t SET v = 'r{step}' WHERE id >= {id} AND id < {}",
                id + 4
            ),
            5 => format!("DELETE FROM t WHERE id = {id}"),
            6 => format!("DELETE FROM t WHERE id >= {id} AND id < {}", id + 3),
            _ => {
                next_id += 1;
                script.push(Some(format!(
                    "INSERT INTO t VALUES ({}, 'own')",
                    next_id - 1
                )));
                format!("DELETE FROM t WHERE id = {}", next_id - 1)
            }
        };
        script.push(Some(stmt));
    }
    script
}

/// The "autocommit vs inside a transaction" axis of the differential
/// oracle: one DML script run (a) as autocommit statements, (b) each
/// statement in its own `BEGIN…COMMIT`, (c) as one transaction must leave
/// identical table contents — live, and again after dropping the database
/// without a save and replaying the WAL, whose frames differ per mode
/// (plain frames and implicit brackets, per-statement brackets, one big
/// bracket).
#[test]
fn autocommit_and_transactional_dml_agree_live_and_after_replay() {
    use cstore::storage::blob::MemBlobStore;
    use cstore::storage::MemLogStore;
    use cstore::{Database, OpenMode};

    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Autocommit,
        TxnPerStatement,
        OneTxn,
    }
    let contents = |db: &Database| {
        db.execute("SELECT id, v FROM t ORDER BY id, v")
            .unwrap()
            .rows()
            .to_vec()
    };
    for seed in 0..12u64 {
        let script = dml_script(seed);
        let mut outcomes = Vec::new();
        for mode in [Mode::Autocommit, Mode::TxnPerStatement, Mode::OneTxn] {
            let mut db = Database::new().with_table_config(TableConfig {
                delta_capacity: 8,
                bulk_load_threshold: 1 << 30,
                ..Default::default()
            });
            db.execute("CREATE TABLE t (id BIGINT NOT NULL, v VARCHAR)")
                .unwrap();
            let mut disk = MemBlobStore::new();
            db.save_to_store(&mut disk).unwrap();
            let logs = MemLogStore::new();
            db.attach_wal_store(Box::new(logs.clone()), Default::default(), None)
                .unwrap();

            let run = |sql: &str| {
                db.execute(sql)
                    .unwrap_or_else(|e| panic!("seed {seed} {mode:?}: {sql}: {e}"))
            };
            if let Mode::OneTxn = mode {
                run("BEGIN");
            }
            for step in &script {
                match (step, mode) {
                    (None, _) => {
                        db.tuple_move("t").unwrap();
                    }
                    (Some(sql), Mode::TxnPerStatement) => {
                        run("BEGIN");
                        run(sql);
                        run("COMMIT");
                    }
                    (Some(sql), _) => {
                        run(sql);
                    }
                }
            }
            if let Mode::OneTxn = mode {
                run("COMMIT");
            }
            let live = contents(&db);
            drop(db); // no save: the WAL alone carries the script

            let (mut reopened, _) = Database::open_from_store(&disk, OpenMode::Strict).unwrap();
            let report = reopened
                .attach_wal_store(Box::new(logs.crash_image()), Default::default(), None)
                .unwrap();
            assert!(report.is_clean(), "seed {seed} {mode:?}: {report:?}");
            assert_eq!(
                contents(&reopened),
                live,
                "seed {seed} {mode:?}: replay disagrees with the live image"
            );
            outcomes.push(live);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "seed {seed}: autocommit vs txn/stmt"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "seed {seed}: autocommit vs one txn"
        );
    }
}

/// One `WHERE` clause with the reference predicate a nested loop over
/// `SELECT *` applies. Rows are `(id, k, a, b, s, c)`.
struct VictimPred {
    sql: String,
    matches: Box<dyn Fn(&Row) -> bool>,
}

/// The predicate kinds a victim search meets: pushed into the scan (key
/// equality, a range on the clustered column, `IN`, string equality,
/// `IS NULL`, `<>` that yields NULL on NULL), left as a residual filter
/// (arithmetic, a column-to-column comparison that yields NULL), and none
/// — ordered so that rows with NULLs outlive the DELETEs before them.
fn victim_preds(rng: &mut Rng, max_id: i64) -> Vec<VictimPred> {
    let int = |r: &Row, c: usize| r.get(c).as_i64();
    let pred = |sql: String, matches: Box<dyn Fn(&Row) -> bool>| VictimPred { sql, matches };
    let id = rng.range_i64(0, max_id);
    let lo = rng.range_i64(0, 150);
    let hi = lo + rng.range_i64(1, 40);
    let ids: Vec<i64> = (0..5).map(|_| rng.range_i64(0, max_id + 10)).collect();
    let in_list = ids
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let word = ["ant", "bee", "cat", "dog"][rng.range_usize(0, 4)];
    let sum = rng.range_i64(-10, 25);
    let ne = rng.range_i64(-20, 20);
    vec![
        pred(
            format!("WHERE id = {id}"),
            Box::new(move |r| int(r, 0) == Some(id)),
        ),
        pred(
            format!("WHERE k >= {lo} AND k < {hi}"),
            Box::new(move |r| int(r, 1).is_some_and(|k| (lo..hi).contains(&k))),
        ),
        pred(
            format!("WHERE id IN ({in_list})"),
            Box::new(move |r| int(r, 0).is_some_and(|v| ids.contains(&v))),
        ),
        pred(
            format!("WHERE s = '{word}'"),
            Box::new(move |r| r.get(4).as_str() == Some(word)),
        ),
        pred(
            format!("WHERE a + b > {sum}"),
            Box::new(move |r| matches!((int(r, 2), int(r, 3)), (Some(a), Some(b)) if a + b > sum)),
        ),
        pred(
            "WHERE a < b".into(),
            Box::new(move |r| matches!((int(r, 2), int(r, 3)), (Some(a), Some(b)) if a < b)),
        ),
        pred("WHERE a IS NULL".into(), Box::new(|r| r.get(2).is_null())),
        pred(
            format!("WHERE a <> {ne}"),
            Box::new(move |r| int(r, 2).is_some_and(|a| a != ne)),
        ),
        pred(String::new(), Box::new(|_| true)),
    ]
}

/// UPDATE and DELETE find their victims with the query scan; this holds
/// that search against two references at every step of a seeded script:
/// `SELECT COUNT(*)` with the same `WHERE` (batch and row mode) and a
/// nested loop over `SELECT *`. The table is in every storage state at
/// once — compressed groups clustered on `k`, archived ones, closed and
/// open delta stores, rows in the delete bitmap — and, by seed, the
/// statements run inside `BEGIN` after own uncommitted inserts and
/// deletes, under a parallel scan, and across a tuple-mover pass that
/// renumbers row ids under the open transaction.
#[test]
fn update_and_delete_hit_what_select_counts_and_a_nested_loop_picks() {
    use cstore::exec::ExecContext;
    use cstore::storage::SortMode;
    use cstore::{Database, ExecMode};

    fn keyed(rng: &mut Rng, id: i64) -> Row {
        let nullable = |rng: &mut Rng, lo: i64, hi: i64| {
            if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Int64(rng.range_i64(lo, hi))
            }
        };
        Row::new(vec![
            Value::Int64(id),
            Value::Int64(id / 2 + rng.range_i64(0, 6)),
            nullable(rng, -20, 20),
            nullable(rng, -20, 20),
            if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::str(["ant", "bee", "cat", "dog"][rng.range_usize(0, 4)])
            },
            Value::Int64(rng.range_i64(0, 100)),
        ])
    }
    fn values_sql(rows: &[Row]) -> String {
        let tuple = |r: &Row| {
            let cells: Vec<String> = r
                .values()
                .iter()
                .map(|v| match v {
                    Value::Null => "NULL".into(),
                    Value::Str(s) => format!("'{s}'"),
                    other => other.to_string(),
                })
                .collect();
            format!("({})", cells.join(", "))
        };
        rows.iter().map(tuple).collect::<Vec<_>>().join(", ")
    }

    for seed in 0..16u64 {
        let mut rng = Rng::new(seed ^ 0x51C7);
        let in_txn = seed % 2 == 1;
        let db = Database::new()
            .with_table_config(TableConfig {
                delta_capacity: 16,
                bulk_load_threshold: 32,
                max_rowgroup_rows: 48,
                sort_mode: SortMode::Columns(vec![1]),
            })
            .with_exec_mode(ExecMode::Batch)
            .with_exec_context(ExecContext::default().with_parallelism(1 + (seed % 3) as usize));
        let row_db = db.clone().with_exec_mode(ExecMode::Row);
        let run = |sql: &str| {
            db.execute(sql)
                .unwrap_or_else(|e| panic!("seed {seed}: {sql}: {e}"))
        };
        run(
            "CREATE TABLE t (id BIGINT NOT NULL, k BIGINT NOT NULL, a BIGINT, b BIGINT, \
             s VARCHAR, c BIGINT NOT NULL)",
        );
        // Three groups that are then archived, three hot ones, then
        // trickle rows: two closed delta stores and an open one.
        let mut next_id = 0i64;
        let mut fresh = |rng: &mut Rng, n: usize| -> Vec<Row> {
            let rows = (next_id..next_id + n as i64)
                .map(|id| keyed(rng, id))
                .collect();
            next_id += n as i64;
            rows
        };
        db.bulk_load("t", &fresh(&mut rng, 140)).unwrap();
        db.archive_table("t").unwrap();
        db.bulk_load("t", &fresh(&mut rng, 130)).unwrap();
        for _ in 0..5 {
            run(&format!(
                "INSERT INTO t VALUES {}",
                values_sql(&fresh(&mut rng, 8))
            ));
        }
        // Rows already in the delete bitmap (and gone from a delta store).
        run("DELETE FROM t WHERE id IN (3, 50, 51, 139, 141, 200, 272, 290)");
        if seed % 4 >= 2 {
            db.tuple_move("t").unwrap();
        }
        let states = run("SELECT state FROM sys.row_groups WHERE table_name = 't'");
        let has = |state: &str| states.rows().iter().any(|r| r.get(0) == &Value::str(state));
        assert!(has("COMPRESSED") && has("OPEN"), "{:?}", states.rows());
        if in_txn {
            // Own uncommitted writes: inserts (one of them deleted again)
            // and deletes of a compressed and of a delta row.
            run("BEGIN");
            run(&format!(
                "INSERT INTO t VALUES {}",
                values_sql(&fresh(&mut rng, 6))
            ));
            run(&format!("DELETE FROM t WHERE id = {}", next_id - 2));
            run("DELETE FROM t WHERE id = 7");
            run("DELETE FROM t WHERE id = 295");
        }

        let contents = || sorted(run("SELECT * FROM t").rows().to_vec());
        let count = |on: &Database, filter: &str| -> i64 {
            let r = on
                .execute(&format!("SELECT COUNT(*) FROM t {filter}"))
                .unwrap();
            r.rows()[0].get(0).as_i64().unwrap()
        };
        let sum_c = || {
            run("SELECT SUM(c) FROM t").rows()[0]
                .get(0)
                .as_i64()
                .unwrap_or(0)
        };
        let ids =
            |rows: &[Row]| -> Vec<i64> { rows.iter().filter_map(|r| r.get(0).as_i64()).collect() };

        let preds = victim_preds(&mut rng, next_id);
        for (step, p) in preds.iter().enumerate() {
            let what = format!("seed {seed}: {}", p.sql);
            if step == preds.len() / 2 {
                // Renumbers the row ids of every delta row it compresses,
                // under this session's open transaction if there is one.
                db.tuple_move("t").unwrap();
            }
            // UPDATE … SET c = c + bump.
            let before = contents();
            let victims: Vec<&Row> = before.iter().filter(|r| (p.matches)(r)).collect();
            let n = victims.len();
            assert_eq!(count(&db, &p.sql), n as i64, "batch count, {what}");
            assert_eq!(count(&row_db, &p.sql), n as i64, "row-mode count, {what}");
            let (bump, sum_before) = (rng.range_i64(1, 9), sum_c());
            let updated = run(&format!("UPDATE t SET c = c + {bump} {}", p.sql));
            assert_eq!(updated.affected(), n, "UPDATE, {what}");
            assert_eq!(sum_c() - sum_before, bump * n as i64, "SUM(c), {what}");
            let expected: Vec<Row> = before
                .iter()
                .map(|r| {
                    let mut v = r.values().to_vec();
                    if (p.matches)(r) {
                        v[5] = Value::Int64(v[5].as_i64().unwrap() + bump);
                    }
                    Row::new(v)
                })
                .collect();
            assert_eq!(contents(), sorted(expected), "rows after UPDATE, {what}");
            // DELETE with the same WHERE (none of the predicates reads `c`).
            let before = contents();
            let (victims, survivors): (Vec<Row>, Vec<Row>) =
                before.into_iter().partition(|r| (p.matches)(r));
            assert_eq!(victims.len(), n, "{what}");
            let deleted = run(&format!("DELETE FROM t {}", p.sql));
            assert_eq!(deleted.affected(), n, "DELETE, {what}");
            assert_eq!(count(&db, &p.sql), 0, "still matching after DELETE, {what}");
            assert_eq!(count(&row_db, &p.sql), 0, "row mode after DELETE, {what}");
            assert_eq!(ids(&contents()), ids(&survivors), "deleted keys, {what}");
            assert_eq!(contents(), survivors, "rows after DELETE, {what}");
        }
        assert_eq!(
            count(&db, ""),
            0,
            "seed {seed}: the last DELETE had no WHERE"
        );
        if in_txn {
            run("COMMIT");
            assert_eq!(count(&db, ""), 0, "seed {seed}: after COMMIT");
        }
    }
}

// ------------------------------------------------- hash join / aggregation

/// What a join or group key is made of.
#[derive(Clone, Copy, Debug)]
enum KeyShape {
    Int,
    IntPair,
    Str,
    Float,
}

impl KeyShape {
    const ALL: [KeyShape; 4] = [
        KeyShape::Int,
        KeyShape::IntPair,
        KeyShape::Str,
        KeyShape::Float,
    ];

    /// The key columns' definitions; they sit at ordinals `1..`.
    fn ddl(self) -> &'static str {
        match self {
            KeyShape::Int => "k BIGINT",
            KeyShape::IntPair => "k BIGINT, k2 INT",
            KeyShape::Str => "k VARCHAR",
            KeyShape::Float => "k DOUBLE",
        }
    }

    fn names(self) -> &'static [&'static str] {
        match self {
            KeyShape::IntPair => &["k", "k2"],
            _ => &["k"],
        }
    }

    /// A key from a small domain, so keys repeat on both sides, with NULLs,
    /// the empty string, and the floats whose equality is by bit pattern.
    fn random_key(self, rng: &mut Rng) -> Vec<Value> {
        let null = rng.gen_bool(0.12);
        match self {
            _ if null && !matches!(self, KeyShape::IntPair) => vec![Value::Null],
            KeyShape::Int => vec![Value::Int64(rng.range_i64(-3, 9))],
            KeyShape::IntPair => vec![
                if null {
                    Value::Null
                } else {
                    Value::Int64(rng.range_i64(0, 4))
                },
                if rng.gen_bool(0.12) {
                    Value::Null
                } else {
                    Value::Int32(rng.range_i64(0, 3) as i32)
                },
            ],
            KeyShape::Str => vec![Value::str(
                ["", "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"][rng.range_usize(0, 9)],
            )],
            KeyShape::Float => vec![Value::Float64(
                [0.0, -0.0, f64::NAN, 1.5, -2.25, 1e300, 7.0][rng.range_usize(0, 7)],
            )],
        }
    }
}

/// `(id, key.., p, s)` rows with ids from `first_id`.
fn keyed_rows(rng: &mut Rng, shape: KeyShape, first_id: i64, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let mut values = vec![Value::Int64(first_id + i as i64)];
            values.extend(shape.random_key(rng));
            values.push(if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Int64(rng.range_i64(-20, 20))
            });
            values.push(if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::str(["ant", "bee", "cat", "dog"][rng.range_usize(0, 4)])
            });
            Row::new(values)
        })
        .collect()
}

/// Create `name` and load `rows`: the first `compressed` of them as
/// compressed row groups (several, each with its own dictionaries), the
/// rest into the delta store — so equal strings reach the operators both
/// dictionary-coded and owned.
fn load_keyed(db: &cstore::Database, name: &str, shape: KeyShape, rows: &[Row], compressed: usize) {
    db.execute(&format!(
        "CREATE TABLE {name} (id BIGINT NOT NULL, {}, p BIGINT, s VARCHAR)",
        shape.ddl()
    ))
    .unwrap();
    db.bulk_load(name, &rows[..compressed]).unwrap();
    db.bulk_load(name, &rows[compressed..]).unwrap();
    let states = db
        .execute(&format!(
            "SELECT state FROM sys.row_groups WHERE table_name = '{name}'"
        ))
        .unwrap();
    let has = |state: &str| states.rows().iter().any(|r| r.get(0) == &Value::str(state));
    assert!(has("COMPRESSED") && has("OPEN"), "{:?}", states.rows());
}

fn keyed_db() -> cstore::Database {
    cstore::Database::new().with_table_config(TableConfig {
        bulk_load_threshold: 32,
        max_rowgroup_rows: 48,
        ..Default::default()
    })
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn hash_joins_agree_with_row_mode_nested_loops_and_their_spilled_selves() {
    use cstore::exec::{ExecContext, JoinType};
    use cstore::ExecMode;
    let joins = [
        (JoinType::Inner, "JOIN"),
        (JoinType::LeftOuter, "LEFT JOIN"),
        (JoinType::RightOuter, "RIGHT JOIN"),
        (JoinType::FullOuter, "FULL JOIN"),
        (JoinType::LeftSemi, "LEFT SEMI JOIN"),
        (JoinType::LeftAnti, "LEFT ANTI JOIN"),
    ];
    for shape in KeyShape::ALL {
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0x101A);
            let db = keyed_db().with_exec_mode(ExecMode::Batch);
            let l = keyed_rows(&mut rng, shape, 0, 130);
            let r = keyed_rows(&mut rng, shape, 1000, 70);
            load_keyed(&db, "l", shape, &l, 110);
            load_keyed(&db, "r", shape, &r, 50);
            let row_db = db.clone().with_exec_mode(ExecMode::Row);
            let starved = db
                .clone()
                .with_exec_context(ExecContext::default().with_budget(64));
            let n_keys = shape.names().len();
            // NULL never matches; everything else by storage equality
            // (floats by total order: NaN = NaN, -0.0 <> 0.0).
            let matches = |a: &Row, b: &Row| {
                (1..=n_keys).all(|c| !a.get(c).is_null() && a.get(c) == b.get(c))
            };
            let on = shape
                .names()
                .iter()
                .map(|k| format!("l.{k} = r.{k}"))
                .collect::<Vec<_>>()
                .join(" AND ");
            for (join_type, keyword) in joins {
                let probe_only = matches!(join_type, JoinType::LeftSemi | JoinType::LeftAnti);
                let select = if probe_only {
                    "l.id, l.s"
                } else {
                    "l.id, l.s, r.id, r.p"
                };
                let sql = format!("SELECT {select} FROM l {keyword} r ON {on}");
                let what = format!("{shape:?} seed {seed}: {sql}");
                let (s_col, p_col) = (n_keys + 2, n_keys + 1);
                let left = |a: &Row| vec![a.get(0).clone(), a.get(s_col).clone()];
                let right = |b: &Row| vec![b.get(0).clone(), b.get(p_col).clone()];
                let mut expected: Vec<Row> = Vec::new();
                for a in &l {
                    let partners: Vec<&Row> = r.iter().filter(|b| matches(a, b)).collect();
                    match join_type {
                        JoinType::LeftSemi if !partners.is_empty() => {
                            expected.push(Row::new(left(a)))
                        }
                        JoinType::LeftAnti if partners.is_empty() => {
                            expected.push(Row::new(left(a)))
                        }
                        JoinType::LeftSemi | JoinType::LeftAnti => {}
                        _ => {
                            for b in &partners {
                                expected.push(Row::new([left(a), right(b)].concat()));
                            }
                            if partners.is_empty()
                                && matches!(join_type, JoinType::LeftOuter | JoinType::FullOuter)
                            {
                                expected.push(Row::new([left(a), vec![Value::Null; 2]].concat()));
                            }
                        }
                    }
                }
                if matches!(join_type, JoinType::RightOuter | JoinType::FullOuter) {
                    for b in r.iter().filter(|b| !l.iter().any(|a| matches(a, b))) {
                        expected.push(Row::new([vec![Value::Null; 2], right(b)].concat()));
                    }
                }
                let expected = sorted(expected);
                let batch = sorted(db.execute(&sql).unwrap().rows().to_vec());
                assert_eq!(batch, expected, "batch vs nested loops, {what}");
                // Row mode has no right/full outer hash join.
                if !matches!(join_type, JoinType::RightOuter | JoinType::FullOuter) {
                    let row = sorted(row_db.execute(&sql).unwrap().rows().to_vec());
                    assert_eq!(batch, row, "batch vs row mode, {what}");
                }
                let spilled = sorted(starved.execute(&sql).unwrap().rows().to_vec());
                assert_eq!(batch, spilled, "in memory vs spilled, {what}");
            }
            assert!(
                starved.exec_context().metrics.counters().partitions_spilled > 0,
                "{shape:?} seed {seed}: the 64-byte budget never spilled"
            );
        }
    }
}

#[test]
fn hash_aggregation_agrees_with_row_mode_across_key_shapes() {
    use cstore::ExecMode;
    let aggs = "COUNT(*), COUNT(p), SUM(p), MIN(p), MAX(p), AVG(p), COUNT(DISTINCT p), \
                MIN(s), MAX(s), COUNT(DISTINCT s)";
    for shape in KeyShape::ALL {
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0xA66);
            let db = keyed_db().with_exec_mode(ExecMode::Batch);
            let rows = keyed_rows(&mut rng, shape, 0, 150);
            load_keyed(&db, "l", shape, &rows, 120);
            let row_db = db.clone().with_exec_mode(ExecMode::Row);
            let keys = shape.names().join(", ");
            let n_keys = shape.names().len();
            for sql in [
                format!("SELECT {keys}, {aggs} FROM l GROUP BY {keys}"),
                format!("SELECT {aggs} FROM l"),
                // Float and string aggregate arguments, and no input rows.
                "SELECT s, COUNT(DISTINCT k), MIN(k), MAX(k) FROM l GROUP BY s".to_string(),
                format!("SELECT {aggs} FROM l WHERE id < 0"),
            ] {
                let what = format!("{shape:?} seed {seed}: {sql}");
                let batch = db.execute(&sql).unwrap().rows().to_vec();
                let row = row_db.execute(&sql).unwrap().rows().to_vec();
                assert_eq!(
                    sorted(batch.clone()),
                    sorted(row),
                    "batch vs row mode, {what}"
                );
                assert_eq!(batch, sorted(batch.clone()), "groups ascend by key, {what}");
            }
            // Grouping agrees with a direct count per distinct key, NULLs
            // forming one group of their own.
            let grouped = db
                .execute(&format!("SELECT {keys}, COUNT(*) FROM l GROUP BY {keys}"))
                .unwrap();
            let mut expected: Vec<(Vec<Value>, i64)> = Vec::new();
            for r in &rows {
                let key = r.values()[1..=n_keys].to_vec();
                match expected.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => expected.push((key, 1)),
                }
            }
            let expected: Vec<Row> = expected
                .into_iter()
                .map(|(mut k, n)| {
                    k.push(Value::Int64(n));
                    Row::new(k)
                })
                .collect();
            assert_eq!(
                grouped.rows(),
                sorted(expected),
                "{shape:?} seed {seed}: groups vs direct count"
            );
        }
    }
}
