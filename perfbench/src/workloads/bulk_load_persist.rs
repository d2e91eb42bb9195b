//! `bulk_load_persist` — encode, archive, persist: the write-cost and
//! space corners of the read-write-space triangle.
//!
//! Each repetition builds a database from nothing: `bulk_load` the fact
//! table in 250 k-row batches (the direct-compress path), one batch below
//! `bulk_load_threshold` followed by `tuple_move` (the delta path), six
//! `customer_dbs` datasets (strings, floats, skew — dictionary, RLE,
//! bit-pack and value encodings all carry weight), `archive_table`,
//! `save_to`, drop, `open_from`, then a short read and insert tail on the
//! reopened database. Repetitions run until `--seconds` is used up (at
//! least three); every metric is a median over repetitions, except the
//! two percentiles, which pool the repetitions' samples.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cstore_common::testutil::Rng;
use cstore_core::Database;
use cstore_delta::TableConfig;
use cstore_workload::customer_dbs::{self, CustomerDb};
use cstore_workload::StarSchema;

use super::{report_waits, WalWindow};
use crate::harness::{
    self, dir_bytes, insert_tail, load_star_with, peak_rss_mb, raw_bytes, read_loop, report_reads,
    report_writes, sales_row_raw_bytes, verify, Check, Limit, Query, ReadClass, ReadStats, Report,
    RunArgs, StarData, RUNTIME_ID_BASE,
};
use crate::probes;
use crate::staged::traced_pass;
use crate::stats;

const MIN_REPS: usize = 3;
/// Per repetition: statements read from, and rows inserted into, the
/// reopened database. Counts, not times, so that the minimum of three
/// repetitions always collects enough samples for the percentiles.
const READ_TAIL: Limit = Limit::Ops(160);
const INSERT_TAIL: Limit = Limit::Ops(600);

/// Engine defaults: a 102,400-row direct-compress threshold and 1 M-row
/// groups, so each 250 k batch is one row group (both ÷ 10 with the data
/// under `--quick`).
fn sales_config(args: &RunArgs) -> TableConfig {
    TableConfig {
        bulk_load_threshold: args.scaled(102_400),
        ..TableConfig::default()
    }
}

/// Everything one repetition loads, generated once from the seed.
struct Inputs {
    /// Dimensions, the oracle, and the fact rows: `bulk` of them go in
    /// large batches, the rest in one small batch.
    star: Arc<StarData>,
    bulk: usize,
    batch: usize,
    config: TableConfig,
    customer: Vec<CustomerDb>,
    raw_bytes: u64,
}

impl Inputs {
    fn generate(args: &RunArgs) -> Inputs {
        let bulk = args.scaled(500_000);
        let small = args.scaled(50_000);
        let star = Arc::new(StarData::generate(
            StarSchema::scale(bulk + small).with_seed(args.seed),
        ));
        let n = args.scaled(50_000);
        let customer = vec![
            customer_dbs::telco(n, args.seed),
            customer_dbs::retail(n, args.seed),
            customer_dbs::sensor(n, args.seed),
            customer_dbs::weblog(n, args.seed),
            customer_dbs::finance(n, args.seed),
            customer_dbs::inventory(n, args.seed),
        ];
        let raw_bytes = star.dimension_raw_bytes()
            + star.sales.len() as u64 * sales_row_raw_bytes()
            + customer
                .iter()
                .map(|c| raw_bytes(&c.schema, &c.rows))
                .sum::<u64>();
        Inputs {
            star,
            bulk,
            batch: args.scaled(250_000),
            config: sales_config(args),
            customer,
            raw_bytes,
        }
    }

    fn rows(&self) -> u64 {
        (self.star.sales.len() + self.customer.iter().map(|c| c.rows.len()).sum::<usize>()) as u64
    }
}

fn customer_table(c: &CustomerDb) -> String {
    format!("cust_{}", c.id.to_ascii_lowercase())
}

/// Load everything into a fresh in-memory database, returning it and the
/// seconds spent inside the engine's load calls.
fn load(inputs: &Inputs) -> (Database, f64) {
    let db = Database::new();
    let t = Instant::now();
    load_star_with(&db, &inputs.star, inputs.config.clone(), |sales| {
        for batch in sales[..inputs.bulk].chunks(inputs.batch) {
            let r = db.bulk_load("sales", batch).expect("bulk load");
            assert_eq!(r.delta_rows, 0, "a 250k-row batch compresses directly");
        }
        // Below the threshold: through a delta store, then the tuple mover.
        let r = db
            .bulk_load("sales", &sales[inputs.bulk..])
            .expect("small batch");
        assert!(
            r.compressed_groups.is_empty(),
            "the small batch goes to a delta store"
        );
    });
    harness::compact(&db, "sales");
    for c in &inputs.customer {
        let name = customer_table(c);
        db.catalog()
            .create_columnstore(
                &name,
                c.schema.clone(),
                TableConfig {
                    bulk_load_threshold: 1024,
                    ..TableConfig::default()
                },
            )
            .expect("create customer table");
        db.bulk_load(&name, &c.rows).expect("load customer table");
    }
    (db, t.elapsed().as_secs_f64())
}

fn read_classes(star: &Arc<StarData>) -> Vec<ReadClass> {
    const AGG: &str = "SELECT COUNT(*), SUM(quantity) FROM sales";
    let o = &star.oracle;
    let month = Arc::clone(star);
    let (gt8_n, gt8_q) = o.quantity_above(8);
    vec![
        // The Q1 checksum against the generator's own sum.
        ReadClass::fixed("full_agg", AGG, Check::CountSum(o.n, o.sum_qty)),
        ReadClass::new("date_month", move |rng| {
            let lo = rng.range_usize(0, month.schema.n_dates - 31);
            let (count, sum) = month.oracle.date_range(lo, lo + 29);
            Query {
                sql: format!("{AGG} WHERE date_key BETWEEN {lo} AND {}", lo + 29),
                check: Check::CountSum(count, sum),
            }
        }),
        ReadClass::fixed(
            "pred_quantity",
            &format!("{AGG} WHERE quantity > 8"),
            Check::CountSum(gt8_n, gt8_q),
        ),
    ]
}

/// One repetition's numbers.
#[derive(Default)]
struct Rep {
    load_s: f64,
    save_s: f64,
    recovery_s: f64,
    open_s: f64,
    stored_per_raw: f64,
}

/// One full cycle in `dir`. Returns the reopened database too, so the
/// caller can run the probes on the last one. With `traced`, the traced
/// pass runs between the read and the insert tail (before any delta row
/// exists) and the insert tail's WAL activity is reported.
#[allow(clippy::too_many_arguments)]
fn repetition(
    inputs: &Inputs,
    dir: &Path,
    classes: &[ReadClass],
    rng: &mut Rng,
    reads: &mut ReadStats,
    insert_ms: &mut Vec<Vec<f64>>,
    traced: Option<u64>,
    report: &mut Report,
) -> (Rep, Database) {
    let mut rep = Rep::default();
    let (db, load_s) = load(inputs);
    rep.load_s = load_s;

    db.archive_table("sales").expect("archive sales");
    for c in &inputs.customer {
        db.archive_table(&customer_table(c)).expect("archive");
    }

    // lint: a leftover directory from an earlier repetition is stale
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create database directory");
    let t = Instant::now();
    db.save_to(dir).expect("save_to");
    rep.save_s = t.elapsed().as_secs_f64();
    rep.stored_per_raw = dir_bytes(dir) as f64 / inputs.raw_bytes as f64;
    drop(db);

    let t = Instant::now();
    let db = harness::reopen(dir);
    rep.open_s = t.elapsed().as_secs_f64();
    const COUNT: &str = "SELECT COUNT(*), SUM(sale_id) FROM sales";
    let o = &inputs.star.oracle;
    let result = db.execute(COUNT);
    rep.recovery_s = t.elapsed().as_secs_f64();
    report.op(verify(&result, &Check::CountSum(o.n, o.sum_id)), COUNT);
    for c in &inputs.customer {
        let sql = format!("SELECT COUNT(*) FROM {}", customer_table(c));
        let ok = db
            .execute(&sql)
            .map(|r| r.rows()[0].get(0).as_i64() == Some(c.rows.len() as i64));
        report.op(
            match ok {
                Ok(true) => Ok(()),
                Ok(false) => Err("wrong row count after reopen".to_string()),
                Err(e) => Err(e.to_string()),
            },
            &sql,
        );
    }

    // Read tail on the reopened, archived data; then the insert tail
    // (the reopened database has its WAL attached).
    let r = read_loop(&db, classes, rng, READ_TAIL, report, |_, _| Ok(()));
    for (all, mine) in reads.per_class.iter_mut().zip(r.per_class) {
        all.extend(mine);
    }
    reads.wall_s += r.wall_s;
    if let Some(seed) = traced {
        traced_pass(&db, classes, &mut Rng::new(seed ^ 0x7ACE), 25, report);
    }
    let wal = WalWindow::open(&db);
    let (writes, _) = insert_tail(
        &db,
        &inputs.star.schema,
        RUNTIME_ID_BASE,
        INSERT_TAIL,
        report,
    );
    if traced.is_some() {
        wal.report(&db, writes.rows, writes.rows, report);
    }
    insert_ms.push(writes.lat_ms);
    (rep, db)
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let dir = args.scratch.join("db");

    // Set-up: generate the inputs and run one untimed load as warm-up.
    let (inputs, setup_s) = harness::repeat_setup(args.setup_reps(), || {
        let inputs = Inputs::generate(args);
        drop(load(&inputs));
        inputs
    });
    report.e2e.insert("setup_s", setup_s);

    let classes = read_classes(&inputs.star);
    let mut rng = Rng::new(args.seed ^ 0x5EED);
    let mut reads = ReadStats {
        per_class: classes.iter().map(|_| Vec::new()).collect(),
        wall_s: 0.0,
    };
    let mut insert_ms = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last_db = None;
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed() < args.phase(1.0) {
        drop(last_db.take());
        let (rep, db) = repetition(
            &inputs,
            &dir,
            &classes,
            &mut rng,
            &mut reads,
            &mut insert_ms,
            (args.trace && reps.is_empty()).then_some(args.seed),
            &mut report,
        );
        reps.push(rep);
        last_db = Some(db);
    }
    let db = last_db.expect("at least one repetition");
    let median = |f: fn(&Rep) -> f64| {
        stats::median(&stats::sorted(reps.iter().map(f).collect())).expect("repetitions ran")
    };

    report_reads(&mut report, &classes, &reads);
    // The ingest rate is rows over the time inside the engine's load
    // calls, per repetition; the insert tail only supplies latencies.
    let load_s = median(|r| r.load_s);
    let series: Vec<&[f64]> = insert_ms.iter().map(Vec::as_slice).collect();
    report_writes(&mut report, &series, 5, inputs.rows(), load_s);
    report.e2e.insert("recovery_s", median(|r| r.recovery_s));
    report
        .e2e
        .insert("stored_bytes_per_raw_byte", median(|r| r.stored_per_raw));
    report.e2e.insert("peak_rss_mb", peak_rss_mb());

    if args.trace {
        report.layer("storage.save_s", median(|r| r.save_s));
        report.layer("storage.open_s", median(|r| r.open_s));
        report_waits(&mut report);
        probes::run_all(
            &db,
            &inputs.star.sales,
            &inputs.config,
            &args.scratch,
            &mut report,
        );
    }
    report
}
