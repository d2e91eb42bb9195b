//! E5 — Trickle inserts: delta stores absorb single-row inserts; the
//! tuple mover compresses them in the background.
//!
//! Paper shape: trickle inserts sustain high rates (delta-store appends, no
//! compression on the insert path); delta rows accumulate until the store
//! closes; the tuple mover converts closed stores to compressed row groups
//! so the delta tail stays bounded; queries stay correct throughout and
//! get faster once data is compressed.

use std::sync::Arc;
use std::time::Instant;

use cstore_bench::report::{banner, Table};
use cstore_bench::{fmt_bytes, fmt_ms, median_time, BenchResult, Scale};
use cstore_common::{Row, Value};
use cstore_core::Database;
use cstore_delta::{
    ColumnStoreTable, TableConfig, TupleMover, Wal, WalHandle, WalOptions, WalSyncMode,
};
use cstore_storage::FileLogStore;
use cstore_workload::StarSchema;

fn row(i: i64) -> Row {
    Row::new(vec![
        Value::Int64(i),
        Value::Date((i % 365) as i32),
        Value::Int64(i % 997),
        Value::Int64(i % 199),
        Value::Int64(i % 50),
        Value::Int32((i % 10) as i32 + 1),
        Value::Decimal(100 + i % 5000),
        Value::Null,
    ])
}

struct SingleKeyDml {
    row_groups: usize,
    update_ms: f64,
    delete_ms: f64,
    /// Median row groups a statement's victim scan read.
    groups_scanned: f64,
}

/// Median latency of `UPDATE … WHERE sale_id = ?` and `DELETE … WHERE
/// sale_id = ?` over a bulk-loaded table of `rows` rows in 65,536-row
/// groups (no WAL: the search and the in-memory commit are what is timed).
fn single_key_dml(rows: usize) -> SingleKeyDml {
    const STATEMENTS: usize = 41;
    let config = TableConfig {
        max_rowgroup_rows: 1 << 16,
        bulk_load_threshold: 1024,
        ..Default::default()
    };
    let db = Database::new();
    db.catalog()
        .create_columnstore("sales", StarSchema::sales_schema(), config)
        .expect("create sales");
    let data: Vec<Row> = (0..rows as i64).map(row).collect();
    db.bulk_load("sales", &data).expect("bulk load");
    let row_groups = db.table_stats("sales").expect("stats").n_compressed_groups;
    // Keys spread over the whole table; UPDATEs and DELETEs take different
    // ones, so every victim is a compressed row.
    let stride = rows / (STATEMENTS + 1);
    let mut groups_scanned = Vec::new();
    let mut timed = |sql: &dyn Fn(usize) -> String| -> f64 {
        let mut ms: Vec<f64> = (1..=STATEMENTS)
            .map(|i| {
                let stmt = sql(i * stride);
                let start = Instant::now();
                let affected = db.execute(&stmt).expect("dml").affected();
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(affected, 1, "{stmt}");
                let scanned = db.with_query_log(|log| {
                    log.entries()
                        .last()
                        .map_or(0, |(_, p)| p.exec.counters.groups_scanned)
                });
                groups_scanned.push(scanned as f64);
                elapsed
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let update_ms =
        timed(&|k| format!("UPDATE sales SET quantity = quantity + 1 WHERE sale_id = {k}"));
    let delete_ms = timed(&|k| format!("DELETE FROM sales WHERE sale_id = {}", k + 1));
    groups_scanned.sort_by(f64::total_cmp);
    SingleKeyDml {
        row_groups,
        update_ms,
        delete_ms,
        groups_scanned: groups_scanned[groups_scanned.len() / 2],
    }
}

fn main() {
    let scale = Scale::from_env();
    let n = (scale.fact_rows() / 4).max(50_000);
    banner(
        "E5",
        "Trickle insert path: delta stores + tuple mover",
        &format!("{n} single-row inserts; delta capacity 100k rows"),
    );
    let config = TableConfig {
        delta_capacity: 100_000,
        ..Default::default()
    };

    // Phase 1: inserts with the mover off — delta stores pile up.
    let t1 = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
    let start = Instant::now();
    for i in 0..n as i64 {
        t1.insert(row(i)).expect("insert");
    }
    let insert_time = start.elapsed();
    let s = t1.stats();
    println!(
        "mover OFF : {:>9.0} inserts/s; {} delta rows in {} open + {} closed stores ({}), 0 compressed",
        n as f64 / insert_time.as_secs_f64(),
        s.delta_rows,
        s.n_open_deltas,
        s.n_closed_deltas,
        fmt_bytes(s.delta_bytes),
    );

    // Phase 2: same inserts with a background mover — the backlog drains.
    let t2 = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
    let mover =
        TupleMover::start(t2.clone(), std::time::Duration::from_millis(10)).expect("mover start");
    let start = Instant::now();
    for i in 0..n as i64 {
        t2.insert(row(i)).expect("insert");
    }
    let insert_time2 = start.elapsed();
    // Let the mover catch up.
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while t2.stats().n_closed_deltas > 0 && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let moved = mover.stop().expect("mover stop");
    let s2 = t2.stats();
    println!(
        "mover ON  : {:>9.0} inserts/s; mover compressed {moved} stores → {} compressed rows ({}), {} left in delta",
        n as f64 / insert_time2.as_secs_f64(),
        s2.compressed_rows,
        fmt_bytes(s2.compressed_bytes),
        s2.delta_rows,
    );
    assert_eq!(t1.total_rows(), n);
    assert_eq!(t2.total_rows(), n);

    // Phase 3: query cost before vs after compression.
    let scan_sum = |t: &ColumnStoreTable| {
        let t = t.clone();
        median_time(3, move || {
            t.sum_i64(0).expect("sum");
        })
    };
    let before = scan_sum(&t1);
    t1.close_open_delta();
    t1.tuple_move_once().expect("move");
    let after = scan_sum(&t1);
    let mut table = Table::new(&["state", "scan_ms"]);
    table.row(&["all rows in delta stores".into(), fmt_ms(before)]);
    table.row(&["after tuple mover (compressed)".into(), fmt_ms(after)]);
    table.print();
    println!("\nshape check: inserts stay in the millions/second either way (compression happens off the insert path; the background mover costs some concurrency), and scans speed up once row groups are compressed.");

    // Phase 4: durability tax. The same trickle inserts with a real
    // file-backed WAL (one commit = one fsync, single writer, so group
    // commit cannot batch) versus without one. Fewer rows: each insert
    // pays a physical fsync.
    let n_wal = (n / 10).clamp(2_000, 20_000) as i64;
    let t_off = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
    let start = Instant::now();
    for i in 0..n_wal {
        t_off.insert(row(i)).expect("insert");
    }
    let off_rate = n_wal as f64 / start.elapsed().as_secs_f64();

    let wal_dir = std::env::temp_dir().join(format!("cstore-e5-wal-{}", std::process::id()));
    let t_on = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
    let (wal, _) = Wal::open(
        Box::new(FileLogStore::open(&wal_dir).expect("wal dir")),
        WalOptions::default(),
        None,
        &[],
    )
    .expect("wal open");
    t_on.set_wal(WalHandle {
        wal,
        table: "sales".into(),
    });
    let start = Instant::now();
    for i in 0..n_wal {
        t_on.insert(row(i)).expect("insert");
    }
    let on_rate = n_wal as f64 / start.elapsed().as_secs_f64();
    // lint: allow(discard) — best-effort scratch cleanup
    let _ = std::fs::remove_dir_all(&wal_dir);
    let overhead_pct = (off_rate / on_rate - 1.0) * 100.0;
    println!(
        "WAL tax   : {off_rate:>9.0} inserts/s without WAL, {on_rate:>9.0} with (fsync per commit): {overhead_pct:.0}% overhead"
    );

    // Phase 5: 16 concurrent writers issuing multi-row statements (128
    // rows each — the batched ingest path: one InsertBatch frame and one
    // commit obligation per statement), one trial per durability mode.
    // Group commit earns its keep under concurrency: committers pile up
    // behind the log-writer thread and many statements ride one fsync.
    const WRITERS: i64 = 16;
    const STMT_ROWS: i64 = 128;
    let stmts_per_writer = (n_wal / WRITERS).max(250);
    let rows16 = stmts_per_writer * STMT_ROWS * WRITERS;
    let run16 = |mode: Option<WalSyncMode>| -> (f64, f64) {
        let t = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
        let dir = std::env::temp_dir().join(format!(
            "cstore-e5-wal16-{}-{}",
            std::process::id(),
            mode.map_or("none", |m| m.as_str()),
        ));
        let wal = mode.map(|m| {
            let (wal, _) = Wal::open(
                Box::new(FileLogStore::open(&dir).expect("wal dir")),
                WalOptions::default(),
                None,
                &[],
            )
            .expect("wal open");
            wal.set_sync_mode(m);
            t.set_wal(WalHandle {
                wal: Arc::clone(&wal),
                table: "sales".into(),
            });
            wal
        });
        let start = Instant::now();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let t = t.clone();
                s.spawn(move || {
                    for stmt in 0..stmts_per_writer {
                        let base = w * 10_000_000 + stmt * STMT_ROWS;
                        let rows: Vec<Row> = (base..base + STMT_ROWS).map(row).collect();
                        t.insert_batch(&rows).expect("insert_batch");
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let fsyncs = wal.as_ref().map_or(0, |w| w.status().counters.fsyncs);
        drop(wal); // join the log-writer thread before deleting its files
                   // lint: allow(discard) — best-effort scratch cleanup
        let _ = std::fs::remove_dir_all(&dir);
        (rows16 as f64 / secs, fsyncs as f64 / rows16 as f64)
    };
    let (off16_rate, _) = run16(None);
    let (nosync16_rate, nosync16_fpr) = run16(Some(WalSyncMode::Off));
    let (group16_rate, group16_fpr) = run16(Some(WalSyncMode::Group));
    let (strict16_rate, strict16_fpr) = run16(Some(WalSyncMode::Strict));
    let group_ratio = off16_rate / group16_rate;
    let mut t16 = Table::new(&[
        "wal_sync (16 writers x 128-row stmts)",
        "rows_per_s",
        "fsyncs_per_row",
    ]);
    t16.row(&["no WAL".into(), format!("{off16_rate:.0}"), "-".into()]);
    t16.row(&[
        "off".into(),
        format!("{nosync16_rate:.0}"),
        format!("{nosync16_fpr:.4}"),
    ]);
    t16.row(&[
        "group".into(),
        format!("{group16_rate:.0}"),
        format!("{group16_fpr:.4}"),
    ]);
    t16.row(&[
        "strict".into(),
        format!("{strict16_rate:.0}"),
        format!("{strict16_fpr:.4}"),
    ]);
    t16.print();
    println!(
        "group commit: {group_ratio:.1}x off the WAL-free rate ({:.0} inserts amortize each fsync)",
        1.0 / group16_fpr.max(1e-9)
    );

    // Phase 6: what a single-key UPDATE/DELETE costs, at two table sizes.
    // The victim is located by the query scan: every row group but the
    // one whose `sale_id` range holds the key is eliminated on min/max
    // metadata, the predicate runs on that group's encoded segment and
    // the one row is fetched by position. So the cost is one row group's,
    // whatever the table's size — and still a scan of 65,536 codes, not
    // the microseconds an indexed row store takes to look one key up.
    // Whole row groups: 3 and 24 of them (≈ 200 k and 1.6 M rows).
    let (small, large) = match scale {
        Scale::Small => (2 << 16, 8 << 16),
        _ => (3 << 16, 24 << 16),
    };
    let mut dml = Table::new(&[
        "rows",
        "row_groups",
        "update_ms",
        "delete_ms",
        "groups_scanned",
    ]);
    let mut dml_extras = Vec::new();
    for (label, rows) in [("small", small), ("large", large)] {
        let m = single_key_dml(rows);
        dml.row(&[
            rows.to_string(),
            m.row_groups.to_string(),
            format!("{:.3}", m.update_ms),
            format!("{:.3}", m.delete_ms),
            format!("{:.0}", m.groups_scanned),
        ]);
        dml_extras.extend([
            (format!("dml_{label}_rows"), rows as f64),
            (format!("dml_{label}_update_ms"), m.update_ms),
            (format!("dml_{label}_delete_ms"), m.delete_ms),
            (format!("dml_{label}_groups_scanned"), m.groups_scanned),
        ]);
    }
    dml.print();
    println!("single-key UPDATE/DELETE: one row group, independent of table size — not a point lookup");

    let result = BenchResult {
        experiment: "E5".into(),
        rows: n,
        wall_ms: insert_time2.as_secs_f64() * 1e3,
        bytes: s2.compressed_bytes + s2.delta_bytes,
        compression_ratio: 1.0,
        extras: vec![
            ("wal_off_inserts_per_s".into(), off_rate),
            ("wal_on_inserts_per_s".into(), on_rate),
            ("wal_overhead_pct".into(), overhead_pct),
            ("wal16_off_rows_per_s".into(), off16_rate),
            ("wal16_nosync_rows_per_s".into(), nosync16_rate),
            ("wal16_nosync_fsyncs_per_row".into(), nosync16_fpr),
            ("wal16_group_rows_per_s".into(), group16_rate),
            ("wal16_group_fsyncs_per_row".into(), group16_fpr),
            ("wal16_strict_rows_per_s".into(), strict16_rate),
            ("wal16_strict_fsyncs_per_row".into(), strict16_fpr),
            ("wal16_group_vs_off_ratio".into(), group_ratio),
        ]
        .into_iter()
        .chain(dml_extras)
        .collect(),
    };
    match result.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write machine-readable result: {e}"),
    }
}
