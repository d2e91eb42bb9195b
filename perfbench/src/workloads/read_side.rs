//! The life-cycle the two read-majority workloads share. They differ only
//! in data shape and statement classes (see `scan_filter`,
//! `star_join_agg`), which is the point: the same client, the same
//! phases, different engine layers under load.
//!
//! 1. set-up (repeated; median is `setup_s`): generate, bulk-load,
//!    archive, save, attach the WAL, run every class once;
//! 2. read phase, 85 % of `--seconds`: one closed-loop session;
//! 3. traced run only: the traced pass (the layer probes run last);
//! 4. insert tail, 15 % of `--seconds`: autocommit single-row INSERTs
//!    through the WAL. It runs after every read so it cannot disturb them
//!    (the read phase scans no delta row and logs nothing), and gives the
//!    write-side metrics every workload must report;
//! 5. drop everything without saving, reopen (WAL replay), check that
//!    every acknowledged row is there, save, measure size and memory.

use std::sync::Arc;

use cstore_common::testutil::Rng;
use cstore_core::Database;
use cstore_delta::TableConfig;
use cstore_workload::StarSchema;

use super::{report_waits, WalWindow};
use crate::harness::{
    check_against_row_mode, columnstore, insert_tail, load_star, persist_and_attach_wal, read_loop,
    repeat_setup, report_reads, report_writes, restart_and_measure, Limit, ReadClass, Report,
    RunArgs, Shadow, StarData, RUNTIME_ID_BASE,
};
use crate::probes;
use crate::staged::traced_pass;

/// Share of `--seconds` the read phase gets; the insert tail gets the rest.
const READ_SHARE: f64 = 0.85;

/// What distinguishes one read-majority workload from the other.
pub struct ReadWorkload {
    pub schema: StarSchema,
    pub sales_config: TableConfig,
    /// How many of the fact table's row groups (the newest) to archive.
    pub archived_groups: fn(usize) -> usize,
    /// Statement classes, probe class first.
    pub classes: fn(&Arc<StarData>) -> Vec<ReadClass>,
    /// Repetitions per class in the traced pass.
    pub traced_reps: usize,
}

pub fn run(args: &RunArgs, w: ReadWorkload) -> Report {
    let mut report = Report::default();
    let dir = args.scratch.join("db");
    let mut rng = Rng::new(args.seed ^ 0x5EED);

    let ((db, data, classes), setup_s) = repeat_setup(args.setup_reps(), || {
        let data = Arc::new(StarData::generate(w.schema.clone()));
        let mut db = Database::new();
        load_star(&db, &data, w.sales_config.clone());
        let sales = columnstore(&db, "sales");
        let ids: Vec<_> = sales.with_columnstore(|cs| cs.groups().iter().map(|g| g.id()).collect());
        for id in &ids[ids.len() - (w.archived_groups)(ids.len())..] {
            sales.archive_group(*id).expect("archive group");
        }
        persist_and_attach_wal(&mut db, &dir);
        let classes = (w.classes)(&data);
        // Warm-up: one statement of every class (reads only — an INSERT
        // here would leave a delta row under every scan of the read
        // phase).
        let mut warm = Rng::new(args.seed);
        for class in &classes {
            db.execute(&(class.make)(&mut warm).sql).expect("warm-up");
        }
        (db, data, classes)
    });
    report.e2e.insert("setup_s", setup_s);

    // Join and group-by classes are fixed statements; check them against
    // row mode on a sample before trusting their row counts.
    check_against_row_mode(args.seed, &classes, &mut report);

    let wal = WalWindow::open(&db);
    let reads = read_loop(
        &db,
        &classes,
        &mut rng,
        Limit::For(args.phase(READ_SHARE)),
        &mut report,
        |_, _| Ok(()),
    );
    report_reads(&mut report, &classes, &reads);

    if args.trace {
        traced_pass(
            &db,
            &classes,
            &mut Rng::new(args.seed ^ 0x7ACE),
            w.traced_reps,
            &mut report,
        );
    }
    report.check(wal.untouched(&db), || {
        "the read phase wrote to the WAL".to_string()
    });
    let wal = WalWindow::open(&db);

    let (writes, next_id) = insert_tail(
        &db,
        &data.schema,
        RUNTIME_ID_BASE,
        Limit::For(args.phase(1.0 - READ_SHARE)),
        &mut report,
    );
    report_writes(
        &mut report,
        &[&writes.lat_ms],
        5,
        writes.rows,
        writes.wall_s,
    );
    if args.trace {
        wal.report(&db, writes.rows, writes.rows, &mut report);
        let stats = db.table_stats("sales").expect("table stats");
        report.layer("delta.delta_rows_at_end", stats.delta_rows as f64);
        report.layer("delta.closed_stores_max", stats.n_closed_deltas as f64);
    }

    let tail_ids = RUNTIME_ID_BASE..next_id;
    let shadow = Shadow {
        count: data.oracle.n + writes.rows as i64,
        sum_id: data.oracle.sum_id + tail_ids.sum::<i64>(),
    };
    drop(classes);
    drop(db);
    let db = restart_and_measure(&dir, &data, shadow, &mut report);
    if args.trace {
        // Last, so the probes' own WAL and waits stay out of the numbers
        // above.
        report_waits(&mut report);
        probes::run_all(
            &db,
            &data.sales,
            &w.sales_config,
            &args.scratch,
            &mut report,
        );
    }
    report
}
