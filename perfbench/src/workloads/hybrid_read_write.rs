//! `hybrid_read_write` — the same scan layer used differently: reads
//! beside writes, over compressed row groups, open and closed delta
//! stores and the delete bitmap, while the tuple mover runs.
//!
//! A 300 k-row preloaded `sales`, WAL on, `delta_capacity = 2_048`, mover
//! every 50 ms. Session A is an **open-loop** writer at a fixed 500
//! operations a second (4-row INSERTs with today's date; one in 250 is a
//! DELETE of an old, compressed row), each timed from when it was due.
//! A DELETE scans the table for its victim (~100 ms here) and the
//! operations that fall due meanwhile queue behind it, so about a fifth
//! of the INSERTs carry queueing delay: `write_p50_ms` is the undisturbed
//! path, `write_p95_ms` the stall a median hides. (At 2 % DELETEs the
//! writer would need 1.5 s of scans per second and never keep up.) Session B
//! is a closed-loop reader alternating the probe class (`COUNT(*),
//! SUM(quantity)` over all of `sales`) with a rotation of a recent-range
//! scan and two star joins. An ingest gain bought by pushing cost onto
//! scans, or a mover or lock stall that a median hides, shows here.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cstore_common::testutil::Rng;
use cstore_core::{Database, QueryResult};
use cstore_delta::TableConfig;
use cstore_workload::StarSchema;

use super::{report_waits, WalWindow};
use crate::harness::{
    canned_query, expect_affected, load_star, persist_and_attach_wal, read_loop, repeat_setup,
    report_reads, report_writes, restart_and_measure, runtime_row_sql, Check, Limit, ReadClass,
    Report, RunArgs, Shadow, StarData, LAST_DAY, RUNTIME_ID_BASE,
};
use crate::pacing::{Pacer, Schedule};
use crate::probes;
use crate::staged::traced_pass;
use crate::stats;

const WRITER_OPS_PER_S: f64 = 500.0;
const ROWS_PER_INSERT: i64 = 4;
/// One write operation in this many is a DELETE of a preloaded row.
const DELETE_1_IN: u64 = 250;
const MOVER_INTERVAL: Duration = Duration::from_millis(50);

fn sales_config() -> TableConfig {
    TableConfig {
        delta_capacity: 2_048,
        max_rowgroup_rows: 1 << 16,
        bulk_load_threshold: 1024,
        ..TableConfig::default()
    }
}

/// What the writer has sent and had acknowledged, published so the reader
/// can bound what a concurrent `COUNT(*)` may return.
#[derive(Default)]
struct Progress {
    rows_sent: AtomicI64,
    rows_acked: AtomicI64,
    deletes_sent: AtomicI64,
    deletes_acked: AtomicI64,
}

fn read_classes() -> Vec<ReadClass> {
    const AGG: &str = "SELECT COUNT(*), SUM(quantity) FROM sales";
    vec![
        ReadClass::fixed("probe_full_agg", AGG, Check::Caller),
        ReadClass::fixed(
            "recent_range",
            &format!("{AGG} WHERE date_key >= {}", LAST_DAY - 6),
            Check::Caller,
        ),
        ReadClass::fixed("q3_one_join", canned_query("Q3"), Check::RowCount(12)),
        ReadClass::fixed("q5_selective", canned_query("Q5"), Check::RowCount(1)),
    ]
}

struct WriterOutcome {
    insert_ms: Vec<f64>,
    late_ms: Vec<f64>,
    deleted_ids: Vec<i64>,
    next_id: i64,
    wall_s: f64,
    report: Report,
}

/// The open-loop writer: operation `i` is due at `i / 500` s whether or
/// not the previous one has returned.
fn writer(
    db: &Database,
    schema: &StarSchema,
    seed: u64,
    duration: Duration,
    progress: &Progress,
) -> WriterOutcome {
    let mut out = WriterOutcome {
        insert_ms: Vec::new(),
        late_ms: Vec::new(),
        deleted_ids: Vec::new(),
        next_id: RUNTIME_ID_BASE,
        wall_s: 0.0,
        report: Report::default(),
    };
    // Victims: preloaded ids in a seeded order that never repeats within
    // a run (a stride coprime with the row count walks every id once).
    let n = schema.n_sales as u64;
    let stride = (0x9E37_79B9_7F4A_7C15u64 % n) | 1;
    let stride = (stride..)
        .find(|s| gcd(*s, n) == 1)
        .expect("coprime stride");
    let mut victim = Rng::new(seed ^ 0xDE1).below(n);
    let mut pacer = Pacer::start(Schedule::per_second(WRITER_OPS_PER_S));
    let started = Instant::now();
    let mut op = 0u64;
    // Everything due within `duration` is sent; a writer still behind a
    // quarter of a second after the last due time gives up, and the
    // operations it never sent count as failed.
    let cutoff = duration + Duration::from_millis(250);
    while pacer.next_due_before(duration) {
        if started.elapsed() > cutoff {
            out.report.check(false, || {
                format!("the open-loop writer fell behind after {op} operations")
            });
            break;
        }
        op += 1;
        if op.is_multiple_of(DELETE_1_IN) {
            victim = (victim + stride) % n;
            let id = victim as i64;
            let sql = format!("DELETE FROM sales WHERE sale_id = {id}");
            progress.deletes_sent.fetch_add(1, Ordering::SeqCst);
            let (result, timing) = pacer.run(|| db.execute(&sql));
            let outcome = expect_affected(&result, 1);
            if outcome.is_ok() {
                progress.deletes_acked.fetch_add(1, Ordering::SeqCst);
                out.deleted_ids.push(id);
            }
            out.late_ms.push(timing.late_ns as f64 / 1e6);
            out.report.op(outcome, &sql);
        } else {
            let ids = out.next_id..out.next_id + ROWS_PER_INSERT;
            out.next_id += ROWS_PER_INSERT;
            let values: Vec<String> = ids
                .map(|id| runtime_row_sql(id, schema.n_customers, schema.n_products))
                .collect();
            let sql = format!("INSERT INTO sales VALUES {}", values.join(", "));
            progress
                .rows_sent
                .fetch_add(ROWS_PER_INSERT, Ordering::SeqCst);
            let (result, timing) = pacer.run(|| db.execute(&sql));
            let outcome = expect_affected(&result, ROWS_PER_INSERT as usize);
            if outcome.is_ok() {
                progress
                    .rows_acked
                    .fetch_add(ROWS_PER_INSERT, Ordering::SeqCst);
            }
            out.insert_ms.push(timing.latency_ns as f64 / 1e6);
            out.late_ms.push(timing.late_ns as f64 / 1e6);
            out.report.op(outcome, &sql);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

struct State {
    db: Database,
    data: Arc<StarData>,
    mover: cstore_delta::TupleMover,
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let dir = args.scratch.join("db");
    let schema = StarSchema::scale(args.scaled(300_000)).with_seed(args.seed);

    let (state, setup_s) = repeat_setup(args.setup_reps(), || {
        let data = Arc::new(StarData::generate(schema.clone()));
        let mut db = Database::new();
        load_star(&db, &data, sales_config());
        persist_and_attach_wal(&mut db, &dir);
        let mover = db
            .start_tuple_mover("sales", MOVER_INTERVAL)
            .expect("start tuple mover");
        // Warm-up: every read class once. The writer's two statement
        // classes are left cold — an INSERT here would change what the
        // shadow must hold, and 5 000 operations follow.
        for class in read_classes() {
            let q = (class.make)(&mut Rng::new(args.seed));
            db.execute(&q.sql).expect("warm-up read");
        }
        State { db, data, mover }
    });
    report.e2e.insert("setup_s", setup_s);
    let State { db, data, mover } = state;
    let preload = data.oracle.n;

    // ---- the timed phase: writer and reader side by side ----
    let wal = WalWindow::open(&db);
    let progress = Progress::default();
    let duration = args.phase(1.0);
    let classes = read_classes();
    let writer_db = db.new_session();
    let reader_db = db.new_session();
    let mut reader_report = Report::default();
    let mut rng = Rng::new(args.seed ^ 0x5EED);
    let (written, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&writer_db, &schema, args.seed, duration, &progress));
        let mut acked_before = (0, 0);
        let reads = read_loop(
            &reader_db,
            &classes,
            &mut rng,
            Limit::For(duration),
            &mut reader_report,
            |class, result| {
                // What a scan may see is bounded by what had been
                // acknowledged before it started and what had been sent
                // by the time it ended. (`acked_before` is refreshed
                // after every statement, i.e. before the next starts.)
                let before = std::mem::replace(
                    &mut acked_before,
                    (
                        progress.rows_acked.load(Ordering::SeqCst),
                        progress.deletes_acked.load(Ordering::SeqCst),
                    ),
                );
                if class != 0 {
                    return Ok(());
                }
                let count = match result {
                    Ok(QueryResult::Rows { rows, .. }) => {
                        rows.first().and_then(|r| r.get(0).as_i64()).unwrap_or(-1)
                    }
                    _ => return Ok(()), // already failed by `verify`
                };
                let lo = preload + before.0 - progress.deletes_sent.load(Ordering::SeqCst);
                let hi = preload + progress.rows_sent.load(Ordering::SeqCst) - before.1;
                if (lo..=hi).contains(&count) {
                    Ok(())
                } else {
                    Err(format!("COUNT(*) = {count} outside [{lo}, {hi}]"))
                }
            },
        );
        (w.join().expect("writer panicked"), reads)
    });
    report.merge_counts(reader_report);
    report_reads(&mut report, &classes, &reads);
    let rows_acked = progress.rows_acked.load(Ordering::SeqCst);
    // One window: the p95 here is set by twenty DELETE stalls, and four
    // to a window would make each window's p95 a coin toss.
    report_writes(
        &mut report,
        &[&written.insert_ms],
        1,
        rows_acked as u64,
        written.wall_s,
    );
    let ops = written.late_ms.len() as u64;
    let status = mover.status();

    if args.trace {
        wal.report(&db, ops, rows_acked as u64, &mut report);
        let late = stats::sorted(written.late_ms.clone());
        report.layer(
            "gen.late_p95_ms",
            stats::percentile(&late, 95.0).unwrap_or(0.0),
        );
        report.layer("delta.mover.passes", status.passes as f64);
        report.layer("delta.mover.rows_moved", status.rows_moved as f64);
        let stats = db.table_stats("sales").expect("table stats");
        report.layer("delta.delta_rows_at_end", stats.delta_rows as f64);
        report.layer("delta.closed_stores_max", stats.n_closed_deltas as f64);
    }
    // The mover must have kept up (nine stores fill in ten seconds) for
    // the numbers to describe a steady state, not a growing backlog.
    let status = mover.status();
    let filled = rows_acked as u64 / sales_config().delta_capacity as u64;
    report.check(status.stores_moved + 2 >= filled, || {
        format!(
            "the tuple mover compressed {} of the {filled} delta stores the writer filled",
            status.stores_moved
        )
    });
    report.merge_counts(written.report);

    // The traced pass runs with the mover stopped, so the mix of
    // compressed and delta rows under each statement holds still.
    mover.stop().expect("stop tuple mover");
    if args.trace {
        report_waits(&mut report);
        traced_pass(
            &db,
            &classes,
            &mut Rng::new(args.seed ^ 0x7ACE),
            15,
            &mut report,
        );
    }

    // ---- restart, then the final count against the shadow ----
    drop((classes, writer_db, reader_db, db));
    let inserted = RUNTIME_ID_BASE..written.next_id;
    let shadow = Shadow {
        count: preload + rows_acked - written.deleted_ids.len() as i64,
        sum_id: data.oracle.sum_id + inserted.sum::<i64>()
            - written.deleted_ids.iter().sum::<i64>(),
    };
    let db = restart_and_measure(&dir, &data, shadow, &mut report);
    if args.trace {
        probes::run_all(
            &db,
            &data.sales,
            &sales_config(),
            &args.scratch,
            &mut report,
        );
        let per_store = probes::mover_seconds_per_store(&data.sales, &sales_config(), &mut report);
        report.layer(
            "delta.mover.busy_share",
            per_store * status.stores_moved as f64 / written.wall_s,
        );
    }
    report
}
