//! `trickle_ingest` — the write path: `core` DML, `delta` stores and
//! `delta::wal` do the work, scans almost none.
//!
//! A persisted directory with the WAL attached (`wal_sync = group`), a
//! 200 k-row preloaded `sales`, `delta_capacity = 8_192` and a background
//! tuple mover every 50 ms. Two closed-loop sessions each issue a seeded
//! mix — 70 % autocommit single-row INSERT, 15 % 16-row INSERT, 14.96 %
//! `BEGIN; 4× INSERT; COMMIT`, 0.02 % UPDATE and 0.02 % DELETE by
//! `sale_id` — so both of the engine's write paths (autocommit and
//! transactional) carry weight. (UPDATE and DELETE scan the whole table
//! for their victim, ~100 ms at this size: at 1 % each they would be
//! nearly all of the sessions' time and this would be a scan workload;
//! at 0.02 % they are about a tenth of it.) Each session owns a
//! disjoint `sale_id` range, so no conflict is expected and any is a
//! failure. The read tail then queries
//! what was ingested (trickle ingest must stay queryable), and the
//! restart must bring back every acknowledged row.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cstore_common::testutil::Rng;
use cstore_core::{Database, QueryResult};
use cstore_delta::{TableConfig, TupleMover};
use cstore_workload::StarSchema;

use super::{report_waits, WalWindow};
use crate::harness::{
    columnstore, expect_affected, load_star, persist_and_attach_wal, read_loop, repeat_setup,
    report_reads, report_writes, restart_and_measure, runtime_quantity, runtime_row_sql, Check,
    Limit, Query, ReadClass, Report, RunArgs, Shadow, StarData, LAST_DAY, RUNTIME_ID_BASE,
};
use crate::probes;
use crate::staged::traced_pass;
use crate::stats::median_or_zero;

/// Share of `--seconds` the two writers get; the read tail gets the rest.
const WRITE_SHARE: f64 = 0.7;
const MOVER_INTERVAL: Duration = Duration::from_millis(50);
/// Sale ids a session may use.
const ID_RANGE: i64 = 10_000_000;
/// The quantity an UPDATE sets; outside what any insert writes.
const UPDATED_QUANTITY: i64 = 11;

fn sales_config() -> TableConfig {
    TableConfig {
        delta_capacity: 8_192,
        max_rowgroup_rows: 1 << 16,
        bulk_load_threshold: 1024,
        ..TableConfig::default()
    }
}

/// One writer session: its id range, what it has changed, its samples.
struct Session {
    db: Database,
    rng: Rng,
    schema: StarSchema,
    next_id: i64,
    /// Next of its own rows to UPDATE or DELETE (each row at most once).
    victim: i64,
    /// Net effect of acknowledged operations on `sales`.
    count: i64,
    sum_id: i64,
    sum_qty: i64,
    rows_inserted: u64,
    ops: u64,
    lat_ms: [Vec<f64>; 5],
    report: Report,
}

impl Session {
    fn new(db: Database, schema: StarSchema, index: i64, seed: u64) -> Session {
        let first = RUNTIME_ID_BASE + index * ID_RANGE;
        Session {
            db,
            rng: Rng::new(seed ^ (0x5E55 + index as u64)),
            schema,
            next_id: first,
            victim: first,
            count: 0,
            sum_id: 0,
            sum_qty: 0,
            rows_inserted: 0,
            ops: 0,
            lat_ms: Default::default(),
            report: Report::default(),
        }
    }

    fn timed(&mut self, class: usize, sql: &str) -> cstore_common::Result<QueryResult> {
        let t = Instant::now();
        let r = self.db.execute(sql);
        self.lat_ms[class].push(t.elapsed().as_secs_f64() * 1e3);
        r
    }

    fn values(&self, ids: std::ops::Range<i64>) -> String {
        ids.map(|id| runtime_row_sql(id, self.schema.n_customers, self.schema.n_products))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn inserted(&mut self, ids: std::ops::Range<i64>) {
        for id in ids {
            self.count += 1;
            self.sum_id += id;
            self.sum_qty += runtime_quantity(id);
            self.rows_inserted += 1;
        }
    }

    fn insert(&mut self, class: usize, n: i64) {
        let ids = self.next_id..self.next_id + n;
        self.next_id += n;
        let sql = format!("INSERT INTO sales VALUES {}", self.values(ids.clone()));
        let result = self.timed(class, &sql);
        let outcome = expect_affected(&result, n as usize);
        if outcome.is_ok() {
            self.inserted(ids);
        }
        self.report.op(outcome, &sql);
    }

    /// `BEGIN; 4× INSERT; COMMIT` — the transactional write path. The
    /// COMMIT is the timed statement of its class.
    fn txn(&mut self) {
        let ids = self.next_id..self.next_id + 4;
        self.next_id += 4;
        let mut outcome = self
            .db
            .execute("BEGIN")
            .map(|_| ())
            .map_err(|e| e.to_string());
        for id in ids.clone() {
            if outcome.is_err() {
                break;
            }
            let sql = format!("INSERT INTO sales VALUES {}", self.values(id..id + 1));
            outcome = expect_affected(&self.db.execute(&sql), 1);
        }
        if outcome.is_ok() {
            outcome = self
                .timed(2, "COMMIT")
                .map(|_| ())
                .map_err(|e| format!("{} {e}", e.code()));
        }
        if outcome.is_ok() {
            self.inserted(ids);
        } else if self.db.in_transaction() {
            // Leave the session usable; the failure is already counted.
            let _ = self.db.execute("ROLLBACK");
        }
        self.report
            .op(outcome, "BEGIN; 4x INSERT INTO sales; COMMIT");
    }

    fn update(&mut self) {
        let id = self.victim;
        self.victim += 1;
        let sql = format!("UPDATE sales SET quantity = {UPDATED_QUANTITY} WHERE sale_id = {id}");
        let result = self.timed(3, &sql);
        let outcome = expect_affected(&result, 1);
        if outcome.is_ok() {
            self.sum_qty += UPDATED_QUANTITY - runtime_quantity(id);
        }
        self.report.op(outcome, &sql);
    }

    fn delete(&mut self) {
        let id = self.victim;
        self.victim += 1;
        let sql = format!("DELETE FROM sales WHERE sale_id = {id}");
        let result = self.timed(4, &sql);
        let outcome = expect_affected(&result, 1);
        if outcome.is_ok() {
            self.count -= 1;
            self.sum_id -= id;
            self.sum_qty -= runtime_quantity(id);
        }
        self.report.op(outcome, &sql);
    }

    /// One operation of the seeded mix.
    fn step(&mut self) {
        self.ops += 1;
        // A victim must be a row this session inserted a while ago.
        let has_victim = self.victim + 64 < self.next_id;
        match self.rng.below(10_000) {
            0..=6_999 => self.insert(0, 1),
            7_000..=8_499 => self.insert(1, 16),
            8_500..=9_995 => self.txn(),
            9_996 | 9_997 if has_victim => self.update(),
            9_998 | 9_999 if has_victim => self.delete(),
            _ => self.insert(0, 1),
        }
    }

    /// One operation of every class, in a fixed order.
    fn warm_up(&mut self) {
        for _ in 0..8 {
            self.insert(0, 1);
        }
        self.insert(1, 16);
        self.txn();
        self.update();
        self.delete();
    }
}

/// Delta rows under the read tail's scans.
const SETTLED_DELTA_ROWS: usize = 4_096;

/// Bring `sales` to the read tail's defined state: close the open delta
/// store, wait for the background mover to compress every closed store,
/// then insert exactly [`SETTLED_DELTA_ROWS`] rows (untimed).
fn settle_delta(db: &Database, session: &mut Session, report: &mut Report) {
    columnstore(db, "sales").close_open_delta();
    let waited = Instant::now();
    let drained = loop {
        let stats = db.table_stats("sales").expect("table stats");
        if stats.n_closed_deltas == 0 {
            break true;
        }
        if waited.elapsed() > Duration::from_secs(10) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    report.check(drained, || {
        "the tuple mover did not drain the closed delta stores in 10 s".to_string()
    });
    for _ in 0..SETTLED_DELTA_ROWS / 16 {
        session.insert(1, 16);
    }
}

struct State {
    db: Database,
    data: Arc<StarData>,
    mover: TupleMover,
    warm: Session,
}

/// The read tail's classes: exact answers from the generator plus the
/// shadow of acknowledged writes (`extra` = net rows, quantity).
fn read_classes(data: &Arc<StarData>, extra: (i64, i64)) -> Vec<ReadClass> {
    const AGG: &str = "SELECT COUNT(*), SUM(quantity) FROM sales";
    let o = &data.oracle;
    let last = LAST_DAY as usize;
    let (today_n, today_q) = o.date_range(last, last);
    let month_data = Arc::clone(data);
    vec![
        ReadClass::fixed(
            "full_agg",
            AGG,
            Check::CountSum(o.n + extra.0, o.sum_qty + extra.1),
        ),
        // Everything ingested carries today's date.
        ReadClass::fixed(
            "today",
            &format!("{AGG} WHERE date_key = {LAST_DAY}"),
            Check::CountSum(today_n + extra.0, today_q + extra.1),
        ),
        ReadClass::new("date_month", move |rng| {
            let lo = rng.range_usize(0, last - 31);
            let (count, sum) = month_data.oracle.date_range(lo, lo + 29);
            Query {
                sql: format!("{AGG} WHERE date_key BETWEEN {lo} AND {}", lo + 29),
                check: Check::CountSum(count, sum),
            }
        }),
    ]
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let dir = args.scratch.join("db");
    let schema = StarSchema::scale(args.scaled(200_000)).with_seed(args.seed);

    let (state, setup_s) = repeat_setup(args.setup_reps(), || {
        let data = Arc::new(StarData::generate(schema.clone()));
        let mut db = Database::new();
        load_star(&db, &data, sales_config());
        persist_and_attach_wal(&mut db, &dir);
        let mover = db
            .start_tuple_mover("sales", MOVER_INTERVAL)
            .expect("start tuple mover");
        // Warm-up: one statement of every write and read class.
        let mut warm = Session::new(db.new_session(), schema.clone(), 2, args.seed);
        warm.warm_up();
        for class in read_classes(&data, (warm.count, warm.sum_qty)) {
            let q = (class.make)(&mut Rng::new(args.seed));
            db.execute(&q.sql).expect("warm-up read");
        }
        State {
            db,
            data,
            mover,
            warm,
        }
    });
    report.e2e.insert("setup_s", setup_s);
    let State {
        db,
        data,
        mover,
        warm,
    } = state;

    // ---- write phase: two closed-loop sessions ----
    let wal = WalWindow::open(&db);
    let deadline = args.phase(WRITE_SHARE);
    let mut sessions: Vec<Session> = (0..2)
        .map(|i| Session::new(db.new_session(), schema.clone(), i, args.seed))
        .collect();
    let mut closed_max = 0usize;
    let started = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                s.spawn(move || {
                    let t = Instant::now();
                    while t.elapsed() < deadline {
                        session.step();
                    }
                })
            })
            .collect();
        // This thread is no client: while the writers run it samples the
        // backlog of closed delta stores (traced run only — the sampler
        // takes the table lock).
        while args.trace && !handles.iter().all(|h| h.is_finished()) {
            if let Ok(stats) = db.table_stats("sales") {
                closed_max = closed_max.max(stats.n_closed_deltas);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for h in handles {
            h.join().expect("writer session panicked");
        }
    });
    let write_wall_s = started.elapsed().as_secs_f64();
    let status = mover.status();

    let rows: u64 = sessions.iter().map(|s| s.rows_inserted).sum();
    let ops: u64 = sessions.iter().map(|s| s.ops).sum();
    let headline: Vec<&[f64]> = sessions.iter().map(|s| s.lat_ms[0].as_slice()).collect();
    report_writes(&mut report, &headline, 5, rows, write_wall_s);

    if args.trace {
        wal.report(&db, ops, rows, &mut report);
        let class_median_ms = |class: usize| {
            let both: Vec<f64> = sessions
                .iter()
                .flat_map(|s| s.lat_ms[class].iter().copied())
                .collect();
            median_or_zero(&both)
        };
        report.layer("core.insert16_us", class_median_ms(1) * 1e3);
        report.layer("core.txn_commit_us", class_median_ms(2) * 1e3);
        report.layer("core.update_ms", class_median_ms(3));
        report.layer("core.delete_ms", class_median_ms(4));
        report.layer("delta.mover.passes", status.passes as f64);
        report.layer("delta.mover.rows_moved", status.rows_moved as f64);
        report.layer("delta.closed_stores_max", closed_max as f64);
        let stats = db.table_stats("sales").expect("table stats");
        report.layer("delta.delta_rows_at_end", stats.delta_rows as f64);
    }
    // The mover must have kept up for the numbers to describe a steady
    // state rather than a growing backlog.
    let filled = rows / sales_config().delta_capacity as u64;
    report.check(status.stores_moved + 2 >= filled, || {
        format!(
            "the tuple mover compressed {} of the {filled} delta stores the writers filled",
            status.stores_moved
        )
    });

    // ---- read tail: the ingested data stays queryable ----
    // Where the writers stopped is chance: anything from none to a full
    // store of delta rows, which cost a scan ~100x a compressed row. So
    // the tail reads a defined state instead: everything written so far
    // compressed by the mover, plus SETTLED_DELTA_ROWS fresh delta rows.
    let mut settle = Session::new(db.new_session(), schema.clone(), 3, args.seed);
    settle_delta(&db, &mut settle, &mut report);
    let mut extra = (0, 0, 0);
    for session in sessions.drain(..).chain([warm, settle]) {
        extra.0 += session.count;
        extra.1 += session.sum_id;
        extra.2 += session.sum_qty;
        report.merge_counts(session.report);
    }
    let classes = read_classes(&data, (extra.0, extra.2));
    let mut rng = Rng::new(args.seed ^ 0x5EED);
    let reads = read_loop(
        &db,
        &classes,
        &mut rng,
        Limit::For(args.phase(1.0 - WRITE_SHARE)),
        &mut report,
        |_, _| Ok(()),
    );
    report_reads(&mut report, &classes, &reads);
    if args.trace {
        traced_pass(
            &db,
            &classes,
            &mut Rng::new(args.seed ^ 0x7ACE),
            25,
            &mut report,
        );
    }

    // ---- restart: every acknowledged write must come back ----
    mover.stop().expect("stop tuple mover");
    if args.trace {
        report_waits(&mut report);
    }
    drop(classes);
    drop(db);
    let shadow = Shadow {
        count: data.oracle.n + extra.0,
        sum_id: data.oracle.sum_id + extra.1,
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
            per_store * status.stores_moved as f64 / write_wall_s,
        );
    }
    report
}
