//! What the five workloads share: the run's arguments and report, the
//! generated star data with its generator-side answers, database set-up,
//! the closed-loop read client, the insert tail, recovery and sizing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cstore_common::testutil::Rng;
use cstore_common::{Row, Schema, Value};
use cstore_core::{Database, ExecMode, OpenMode, QueryResult, TableEntry};
use cstore_delta::{ColumnStoreTable, TableConfig, WalOptions};
use cstore_storage::blob::FileBlobStore;
use cstore_storage::{FileLogStore, LogStore};
use cstore_workload::StarSchema;

use crate::spans::SpanLog;
use crate::stats;

/// The newest date key of the generated star schema; trickle writers
/// insert "today's" rows with it.
pub const LAST_DAY: i32 = 364;
/// Sale ids of rows written during a run start here, far above any
/// preloaded id.
pub const RUNTIME_ID_BASE: i64 = 100_000_000;

/// One run's command-line arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Data sizes ÷ 10, for smoke runs only; refused by `compare`.
    pub quick: bool,
    /// Where on-disk state goes; removed when the run ends.
    pub scratch: PathBuf,
}

impl RunArgs {
    /// `n` rows, or a tenth of them under `--quick`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }

    /// How often set-up is repeated (its median is `setup_s`). The traced
    /// run reports no end-to-end metric, so it sets up once and spends the
    /// time on the traced pass instead.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a run found: operation counts, failures, metric values, spans.
#[derive(Default)]
pub struct Report {
    /// Lines for the human-readable output: sample counts per class.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, each with the SQL that produced it.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    pub spans: SpanLog,
}

impl Report {
    /// Count one attempted operation; a failure is printed with its SQL
    /// and counts against the run.
    pub fn op(&mut self, outcome: Result<(), String>, sql: &str) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("{why}: {sql}"));
            }
        }
    }

    /// A whole-state check (shadow vs database, sample counts).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) }, "(state check)");
    }

    pub fn merge_counts(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

// ------------------------------------------------------------ generated data

/// The generated star schema rows plus the answers the generator itself
/// can give about the fact table, so results are checked against
/// something that never went through the engine.
pub struct StarData {
    pub schema: StarSchema,
    pub sales: Vec<Row>,
    pub dates: Vec<Row>,
    pub customers: Vec<Row>,
    pub products: Vec<Row>,
    pub stores: Vec<Row>,
    pub oracle: SalesOracle,
}

impl StarData {
    pub fn generate(schema: StarSchema) -> StarData {
        let sales = schema.sales();
        let oracle = SalesOracle::build(&sales, schema.n_dates, schema.n_stores);
        StarData {
            dates: schema.dates(),
            customers: schema.customers(),
            products: schema.products(),
            stores: schema.stores(),
            sales,
            oracle,
            schema,
        }
    }

    /// Raw (uncompressed row-store image) bytes of the dimension rows.
    pub fn dimension_raw_bytes(&self) -> u64 {
        raw_bytes(&StarSchema::date_schema(), &self.dates)
            + raw_bytes(&StarSchema::customer_schema(), &self.customers)
            + raw_bytes(&StarSchema::product_schema(), &self.products)
            + raw_bytes(&StarSchema::store_schema(), &self.stores)
    }
}

/// Column ordinals of `sales`.
pub mod col {
    pub const SALE_ID: usize = 0;
    pub const DATE_KEY: usize = 1;
    pub const CUST_KEY: usize = 2;
    pub const STORE_KEY: usize = 4;
    pub const QUANTITY: usize = 5;
    pub const DISCOUNT: usize = 7;
}

/// Generator-side sums and counts over the generated `sales` rows.
pub struct SalesOracle {
    pub n: i64,
    pub sum_qty: i64,
    pub sum_id: i64,
    n_stores: usize,
    /// Prefix sums by day: `day_cnt[d]` = rows with date_key < d.
    day_cnt: Vec<i64>,
    day_qty: Vec<i64>,
    day_disc_cnt: Vec<i64>,
    store_cnt: Vec<i64>,
    store_qty: Vec<i64>,
    /// Rows and quantity per quantity value (1..=10).
    qty_cnt: [i64; 11],
    pub disc_cnt: i64,
    pub disc_qty: i64,
    day_store_cnt: Vec<i64>,
    day_store_id: Vec<i64>,
    pub distinct_customers: usize,
}

impl SalesOracle {
    pub fn build(sales: &[Row], n_dates: usize, n_stores: usize) -> SalesOracle {
        let mut o = SalesOracle {
            n: 0,
            sum_qty: 0,
            sum_id: 0,
            n_stores,
            day_cnt: vec![0; n_dates + 1],
            day_qty: vec![0; n_dates + 1],
            day_disc_cnt: vec![0; n_dates + 1],
            store_cnt: vec![0; n_stores],
            store_qty: vec![0; n_stores],
            qty_cnt: [0; 11],
            disc_cnt: 0,
            disc_qty: 0,
            day_store_cnt: vec![0; n_dates * n_stores],
            day_store_id: vec![0; n_dates * n_stores],
            distinct_customers: 0,
        };
        let int = |row: &Row, c: usize| row.get(c).as_i64().expect("integer-backed column");
        let mut customers = std::collections::HashSet::new();
        for row in sales {
            let (id, day, store, qty) = (
                int(row, col::SALE_ID),
                int(row, col::DATE_KEY) as usize,
                int(row, col::STORE_KEY) as usize,
                int(row, col::QUANTITY),
            );
            o.n += 1;
            o.sum_qty += qty;
            o.sum_id += id;
            o.day_cnt[day + 1] += 1;
            o.day_qty[day + 1] += qty;
            o.store_cnt[store] += 1;
            o.store_qty[store] += qty;
            o.qty_cnt[qty as usize] += 1;
            if !row.get(col::DISCOUNT).is_null() {
                o.disc_cnt += 1;
                o.disc_qty += qty;
                o.day_disc_cnt[day + 1] += 1;
            }
            o.day_store_cnt[day * n_stores + store] += 1;
            o.day_store_id[day * n_stores + store] += id;
            customers.insert(int(row, col::CUST_KEY));
        }
        for d in 0..n_dates {
            o.day_cnt[d + 1] += o.day_cnt[d];
            o.day_qty[d + 1] += o.day_qty[d];
            o.day_disc_cnt[d + 1] += o.day_disc_cnt[d];
        }
        o.distinct_customers = customers.len();
        o
    }

    /// (count, sum of quantity) over `date_key BETWEEN lo AND hi`.
    pub fn date_range(&self, lo: usize, hi: usize) -> (i64, i64) {
        (
            self.day_cnt[hi + 1] - self.day_cnt[lo],
            self.day_qty[hi + 1] - self.day_qty[lo],
        )
    }

    /// Rows with a discount and `date_key < day`.
    pub fn discounted_before(&self, day: usize) -> i64 {
        self.day_disc_cnt[day]
    }

    pub fn store(&self, store: usize) -> (i64, i64) {
        (self.store_cnt[store], self.store_qty[store])
    }

    /// (count, sum of quantity) over `quantity > q`.
    pub fn quantity_above(&self, q: usize) -> (i64, i64) {
        let mut r = (0, 0);
        for v in q + 1..self.qty_cnt.len() {
            r.0 += self.qty_cnt[v];
            r.1 += self.qty_cnt[v] * v as i64;
        }
        r
    }

    /// (rows, sum of sale_id) at one day and store.
    pub fn day_store(&self, day: usize, store: usize) -> (i64, i64) {
        let i = day * self.n_stores + store;
        (self.day_store_cnt[i], self.day_store_id[i])
    }
}

/// Raw size of rows as an uncompressed row-store image, the way
/// `ColumnStore::raw_bytes` counts it: fixed widths, and for strings the
/// byte length plus a two-byte length prefix.
pub fn raw_bytes(schema: &Schema, rows: &[Row]) -> u64 {
    let mut fixed = 0u64;
    let mut string_cols = Vec::new();
    for (i, f) in schema.fields().iter().enumerate() {
        match f.data_type.fixed_width() {
            Some(w) => fixed += w as u64,
            None => string_cols.push(i),
        }
    }
    let mut total = fixed * rows.len() as u64;
    for row in rows {
        for &c in &string_cols {
            if let Some(s) = row.get(c).as_str() {
                total += s.len() as u64 + 2;
            }
        }
    }
    total
}

/// Raw bytes of one `sales` row (the schema has no string column).
pub fn sales_row_raw_bytes() -> u64 {
    StarSchema::sales_schema()
        .fields()
        .iter()
        .map(|f| {
            f.data_type
                .fixed_width()
                .expect("sales has fixed-width columns") as u64
        })
        .sum()
}

/// The `sales` row a runtime INSERT with this id writes: every column is
/// a function of the id, so a shadow of acknowledged ids is enough to
/// know the table's sums.
pub fn runtime_row_sql(id: i64, n_customers: usize, n_products: usize) -> String {
    format!(
        "({id}, {LAST_DAY}, {}, {}, {}, {}, {}.{:02}, NULL)",
        id % n_customers as i64,
        id % n_products as i64,
        id % 50,
        runtime_quantity(id),
        1 + id % 90,
        id % 100,
    )
}

pub fn runtime_quantity(id: i64) -> i64 {
    1 + id % 10
}

// --------------------------------------------------------------- databases

/// Create the five star tables as columnstores with `config` for the
/// fact table (dimensions compress directly whatever their size, so no
/// dimension row sits in a delta store) and bulk-load them. No WAL is attached yet:
/// a bulk load through the WAL would log every row.
pub fn load_star(db: &Database, data: &StarData, sales_config: TableConfig) {
    load_star_with(db, data, sales_config, |rows| {
        db.bulk_load("sales", rows).expect("bulk load");
    });
}

/// [`load_star`] with the fact rows loaded by `load_sales` (in batches,
/// say) once the empty `sales` table exists.
pub fn load_star_with(
    db: &Database,
    data: &StarData,
    sales_config: TableConfig,
    load_sales: impl FnOnce(&[Row]),
) {
    let dim_config = TableConfig {
        bulk_load_threshold: 1,
        ..TableConfig::default()
    };
    db.catalog()
        .create_columnstore("sales", StarSchema::sales_schema(), sales_config)
        .expect("create table");
    load_sales(&data.sales);
    let dimensions: [(&str, Schema, &[Row]); 4] = [
        ("date_dim", StarSchema::date_schema(), &data.dates),
        ("customer", StarSchema::customer_schema(), &data.customers),
        ("product", StarSchema::product_schema(), &data.products),
        ("store", StarSchema::store_schema(), &data.stores),
    ];
    for (name, schema, rows) in dimensions {
        db.catalog()
            .create_columnstore(name, schema, dim_config.clone())
            .expect("create table");
        db.bulk_load(name, rows).expect("bulk load");
    }
}

/// The columnstore table behind `name`.
pub fn columnstore(db: &Database, name: &str) -> ColumnStoreTable {
    match db.catalog().get(name) {
        Some(TableEntry::ColumnStore(t)) => t,
        _ => panic!("'{name}' is not a columnstore table"),
    }
}

/// The engine's file-backed log store with the device flush elided:
/// `sync` returns at once, everything else goes to the files.
///
/// Every commit still encodes, appends and "syncs" its log records before
/// it is acknowledged, but `fsync(2)` is not issued. On this sandbox its
/// latency drifts between 0.08 and 0.19 ms over minutes (see README), and
/// an autocommit INSERT costs 0.01 ms without it, so with the flush in,
/// the write metrics would gate on the host's storage and not on the
/// engine. The appended bytes are in the OS page cache and survive
/// the restart this benchmark performs (dropping every handle), which is
/// all a process restart tests; torn-write and power-loss fidelity stay
/// with `tests/chaos.rs`. The `delta.insert_wal_us` probe keeps the real
/// flush, ungated, so the fsync cost stays visible.
struct UnsyncedFileLog(FileLogStore);

impl LogStore for UnsyncedFileLog {
    fn segment_ids(&self) -> cstore_common::Result<Vec<u64>> {
        self.0.segment_ids()
    }
    fn create(&mut self, seg: u64) -> cstore_common::Result<()> {
        self.0.create(seg)
    }
    fn append(&mut self, seg: u64, bytes: &[u8]) -> cstore_common::Result<()> {
        self.0.append(seg, bytes)
    }
    fn sync(&mut self, _seg: u64) -> cstore_common::Result<()> {
        Ok(())
    }
    fn read(&self, seg: u64) -> cstore_common::Result<Vec<u8>> {
        self.0.read(seg)
    }
    fn truncate(&mut self, seg: u64, len: u64) -> cstore_common::Result<()> {
        self.0.truncate(seg, len)
    }
    fn remove(&mut self, seg: u64) -> cstore_common::Result<()> {
        self.0.remove(seg)
    }
}

/// Attach the WAL under `dir/wal` (where `Database::attach_wal` puts it),
/// replaying whatever it holds.
fn attach_wal(db: &mut Database, dir: &Path, strict: bool) {
    let log = FileLogStore::open(dir.join("wal")).expect("open WAL directory");
    let options = WalOptions {
        strict,
        ..WalOptions::default()
    };
    db.attach_wal_store(Box::new(UnsyncedFileLog(log)), options, None)
        .expect("attach WAL");
    // Strict: the committer appends inline instead of handing its commit
    // to the log-writer thread and parking. With the flush elided that
    // hand-off is all `group` adds for a single writer, and a parked
    // thread's wake-up time is the host's (0.003 to 0.04 ms here,
    // changing by the quarter-hour), not the engine's.
    db.execute("SET wal_sync = strict").expect("SET wal_sync");
}

/// Save `db` into a fresh directory and attach a WAL there, which is how
/// a durable deployment runs: every later DML statement is logged and
/// group-committed (see [`UnsyncedFileLog`] for the flush policy).
pub fn persist_and_attach_wal(db: &mut Database, dir: &Path) {
    // A leftover directory from an earlier repetition is stale.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create database directory");
    db.save_to(dir).expect("save_to");
    attach_wal(db, dir, false);
}

/// Restart: what `Database::open_from` does — open the newest saved
/// generation strictly, then attach the WAL in strict mode, which replays
/// it — with this benchmark's log store.
pub fn reopen(dir: &Path) -> Database {
    let blobs = FileBlobStore::open(dir).expect("open database directory");
    let (mut db, _) = Database::open_from_store(&blobs, OpenMode::Strict).expect("open database");
    attach_wal(&mut db, dir, true);
    db
}

/// Run set-up `reps` times, returning the last repetition's state and
/// the median set-up time in seconds. Earlier repetitions are dropped
/// before the next starts, so peaks do not stack.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&stats::sorted(times)).expect("at least one set-up repetition");
    (state.expect("at least one set-up repetition"), median)
}

// ------------------------------------------------------------- read client

/// The SQL of a canned star-join query (`cstore_workload::queries`).
pub fn canned_query(id: &str) -> &'static str {
    cstore_workload::queries::all()
        .into_iter()
        .find(|q| q.id == id)
        .map(|q| q.sql)
        .expect("canned query id")
}

/// What a query's result must be.
#[derive(Clone, Debug)]
pub enum Check {
    /// One row `(COUNT(*), SUM(quantity))` with the generator's answer.
    CountSum(i64, i64),
    /// `rows` result rows whose first column sums to `sum0`.
    Gather { rows: usize, sum0: i64 },
    /// `rows` result rows whose column `col` sums to `total`.
    ColumnTotal { rows: usize, col: usize, total: i64 },
    /// The statement is fixed, so its row count must repeat.
    RowCount(usize),
    /// Checked by the caller (concurrent writers make the answer a range).
    Caller,
}

/// One statement with its expected answer.
pub struct Query {
    pub sql: String,
    pub check: Check,
}

/// A statement class: a name and a seeded generator of its statements.
pub struct ReadClass {
    pub name: &'static str,
    pub make: Box<dyn Fn(&mut Rng) -> Query + Send>,
    /// The generator cannot answer this class in full (joins, group-bys):
    /// also compare it with row mode on a sample, see
    /// [`check_against_row_mode`].
    pub check_on_sample: bool,
}

impl ReadClass {
    pub fn new(name: &'static str, make: impl Fn(&mut Rng) -> Query + Send + 'static) -> ReadClass {
        ReadClass {
            name,
            make: Box::new(make),
            check_on_sample: false,
        }
    }

    pub fn checked_on_sample(mut self) -> ReadClass {
        self.check_on_sample = true;
        self
    }

    /// A class whose statement never changes.
    pub fn fixed(name: &'static str, sql: &str, check: Check) -> ReadClass {
        let sql = sql.to_string();
        ReadClass::new(name, move |_| Query {
            sql: sql.clone(),
            check: check.clone(),
        })
    }
}

fn int_at(row: &Row, c: usize) -> Result<i64, String> {
    row.values()
        .get(c)
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("column {c} of {row:?} is not an integer"))
}

/// Compare a result with what the generator says it must be.
pub fn verify(result: &cstore_common::Result<QueryResult>, check: &Check) -> Result<(), String> {
    let rows = match result {
        Ok(QueryResult::Rows { rows, .. }) => rows,
        Ok(other) => return Err(format!("expected rows, got {other:?}")),
        Err(e) => return Err(format!("{} {e}", e.code())),
    };
    let sum_col = |c: usize| -> Result<i64, String> {
        rows.iter().try_fold(0i64, |acc, r| Ok(acc + int_at(r, c)?))
    };
    match check {
        Check::CountSum(count, sum) => {
            let got = match rows.as_slice() {
                [r] => (int_at(r, 0)?, int_at(r, 1)?),
                _ => return Err(format!("expected one row, got {}", rows.len())),
            };
            if got != (*count, *sum) {
                return Err(format!("expected ({count}, {sum}), got {got:?}"));
            }
        }
        Check::Gather { rows: n, sum0 } => {
            if rows.len() != *n || sum_col(0)? != *sum0 {
                return Err(format!(
                    "expected {n} rows summing to {sum0}, got {}",
                    rows.len()
                ));
            }
        }
        Check::ColumnTotal {
            rows: n,
            col,
            total,
        } => {
            let got = sum_col(*col)?;
            if rows.len() != *n || got != *total {
                return Err(format!(
                    "expected {n} rows with column {col} totalling {total}, got {} rows totalling {got}",
                    rows.len()
                ));
            }
        }
        Check::RowCount(n) => {
            if rows.len() != *n {
                return Err(format!("expected {n} rows, got {}", rows.len()));
            }
        }
        Check::Caller => {}
    }
    Ok(())
}

/// How long a closed-loop phase runs: for a time, or for a fixed number
/// of operations (pairs of probe + rotation statement for reads).
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    For(Duration),
    Ops(usize),
}

impl Limit {
    fn reached(self, started: Instant, ops: usize) -> bool {
        match self {
            Limit::For(d) => started.elapsed() >= d,
            Limit::Ops(n) => ops >= n,
        }
    }
}

/// Latency samples of a closed-loop read phase, per class, in ms.
pub struct ReadStats {
    pub per_class: Vec<Vec<f64>>,
    pub wall_s: f64,
}

impl ReadStats {
    pub fn total(&self) -> usize {
        self.per_class.iter().map(Vec::len).sum()
    }
}

/// The closed-loop read client: one session that sends its next
/// statement when the previous one returns, alternating the probe class
/// (`classes[0]`, the one `read_p95_ms` is taken from, so it collects
/// samples fastest) with a rotation over the other classes. Every result
/// is checked. `on_result` sees each result after its latency is taken.
pub fn read_loop(
    db: &Database,
    classes: &[ReadClass],
    rng: &mut Rng,
    limit: Limit,
    report: &mut Report,
    mut on_result: impl FnMut(usize, &cstore_common::Result<QueryResult>) -> Result<(), String>,
) -> ReadStats {
    let mut per_class: Vec<Vec<f64>> = classes.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut turn = 0usize;
    let mut rotation = 0usize;
    while !limit.reached(start, turn) {
        let c = if turn.is_multiple_of(2) || classes.len() == 1 {
            0
        } else {
            rotation += 1;
            1 + (rotation - 1) % (classes.len() - 1)
        };
        turn += 1;
        let q = (classes[c].make)(rng);
        let t = Instant::now();
        let result = db.execute(&q.sql);
        per_class[c].push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = verify(&result, &q.check).and_then(|()| on_result(c, &result));
        report.op(outcome, &q.sql);
    }
    ReadStats {
        per_class,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Fill in the three read metrics from a read phase. `read_p95_ms` needs
/// at least ten probe samples beyond it (per window, see
/// [`stats::windowed_p95`]); fewer is a failed run, not a quieter
/// percentile under the same name.
pub fn report_reads(report: &mut Report, classes: &[ReadClass], stats: &ReadStats) {
    for (class, samples) in classes.iter().zip(&stats.per_class) {
        report.notes.push(format!(
            "read class {:<16} {:>6} samples, median {:.4} ms",
            class.name,
            samples.len(),
            stats::median_or_zero(samples)
        ));
    }
    let p50 = stats::geomean_of_medians(&stats.per_class);
    report.check(p50.is_some(), || {
        "a read class collected no sample".to_string()
    });
    // Samples are in time order, so the probe's p95 can be windowed like
    // the write side's.
    let probe = &stats.per_class[0];
    let p95 = stats::windowed_p95(&[probe], 5);
    report.check(p95.is_some(), || {
        format!(
            "probe class has {} samples, too few for a p95 with {} beyond it",
            probe.len(),
            stats::MIN_BEYOND
        )
    });
    report.e2e.insert("read_p50_ms", p50.unwrap_or(f64::MAX));
    report.e2e.insert("read_p95_ms", p95.unwrap_or(f64::MAX));
    report
        .e2e
        .insert("reads_per_s", stats.total() as f64 / stats.wall_s);
}

// ------------------------------------------------------------- write client

/// Latency samples (ms) of one write class plus rows acknowledged.
#[derive(Default)]
pub struct WriteStats {
    pub lat_ms: Vec<f64>,
    pub rows: u64,
    pub wall_s: f64,
}

/// The insert tail: one closed-loop session issuing autocommit single-row
/// INSERTs through the WAL up to `limit`, starting at `first_id`.
/// Returns the samples and the next unused id.
pub fn insert_tail(
    db: &Database,
    schema: &StarSchema,
    first_id: i64,
    limit: Limit,
    report: &mut Report,
) -> (WriteStats, i64) {
    let mut stats = WriteStats::default();
    let mut id = first_id;
    let start = Instant::now();
    while !limit.reached(start, stats.lat_ms.len()) {
        let sql = format!(
            "INSERT INTO sales VALUES {}",
            runtime_row_sql(id, schema.n_customers, schema.n_products)
        );
        let t = Instant::now();
        let result = db.execute(&sql);
        stats.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.op(expect_affected(&result, 1), &sql);
        stats.rows += 1;
        id += 1;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    (stats, id)
}

/// A DML statement must succeed and touch exactly `n` rows.
pub fn expect_affected(
    result: &cstore_common::Result<QueryResult>,
    n: usize,
) -> Result<(), String> {
    match result {
        Ok(QueryResult::Affected(got)) if *got == n => Ok(()),
        Ok(other) => Err(format!("expected {n} affected rows, got {other:?}")),
        Err(e) => Err(format!("{} {e}", e.code())),
    }
}

/// Fill in the three write metrics. The percentiles are of the
/// autocommit single-statement INSERT class in `headline` (one
/// time-ordered series per session; the p95 is the median over up to
/// `windows` windows per series, see [`stats::windowed_p95`]); the ingest
/// rate counts every acknowledged row over the write phase's wall time.
pub fn report_writes(
    report: &mut Report,
    headline: &[&[f64]],
    windows: usize,
    rows: u64,
    wall_s: f64,
) {
    let sorted = stats::sorted(headline.concat());
    report.notes.push(format!(
        "headline INSERT class {:>6} samples; {rows} rows acknowledged in {wall_s:.3} s",
        sorted.len()
    ));
    let p50 = stats::median(&sorted);
    let p95 = stats::windowed_p95(headline, windows);
    report.check(p95.is_some(), || {
        format!(
            "insert class has {} samples, too few for a p95",
            sorted.len()
        )
    });
    report.e2e.insert("write_p50_ms", p50.unwrap_or(f64::MAX));
    report.e2e.insert("write_p95_ms", p95.unwrap_or(f64::MAX));
    report
        .e2e
        .insert("rows_ingested_per_s", rows as f64 / wall_s);
}

// ------------------------------------------------- recovery, size, memory

/// What the fact table must hold after a restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shadow {
    pub count: i64,
    pub sum_id: i64,
}

/// Restart from `dir` (every handle has been dropped, nothing saved since
/// set-up, so the WAL is replayed) and time it until the first `COUNT(*)`
/// is answered. Repeated, because one open takes a fraction of a second;
/// the median is `recovery_s`. Every acknowledged write must be there.
fn recover(dir: &Path, shadow: Shadow, report: &mut Report) -> (Database, f64) {
    const SQL: &str = "SELECT COUNT(*), SUM(sale_id) FROM sales";
    let mut times = Vec::new();
    let mut open_times = Vec::new();
    let mut spent = 0.0;
    loop {
        let t = Instant::now();
        let db = reopen(dir);
        open_times.push(t.elapsed().as_secs_f64());
        let result = db.execute(SQL);
        let took = t.elapsed().as_secs_f64();
        times.push(took);
        spent += took;
        report.op(
            verify(&result, &Check::CountSum(shadow.count, shadow.sum_id)),
            SQL,
        );
        if times.len() >= 3 && (times.len() >= 7 || spent > 1.0) {
            let median = stats::median(&stats::sorted(times)).expect("recovery ran");
            report.layer("storage.open_s", stats::median_or_zero(&open_times));
            return (db, median);
        }
        drop(db);
    }
}

/// The end of every star-schema workload's run: restart and check
/// (`recovery_s`), compress every delta row, save and measure
/// (`stored_bytes_per_raw_byte`), read the peak memory (`peak_rss_mb`).
/// Returns the reopened database for the probes.
pub fn restart_and_measure(
    dir: &Path,
    data: &StarData,
    shadow: Shadow,
    report: &mut Report,
) -> Database {
    let (db, recovery_s) = recover(dir, shadow, report);
    report.e2e.insert("recovery_s", recovery_s);
    compact(&db, "sales");
    let raw = data.dimension_raw_bytes() + shadow.count as u64 * sales_row_raw_bytes();
    let stored = stored_per_raw(&db, dir, raw, report);
    report.e2e.insert("stored_bytes_per_raw_byte", stored);
    report.e2e.insert("peak_rss_mb", peak_rss_mb());
    db
}

/// Compress every delta row of `table` (close the open store, move all
/// closed ones), so the stored size does not depend on where in a delta
/// store's life the run happened to end.
pub fn compact(db: &Database, table: &str) {
    let t = columnstore(db, table);
    t.close_open_delta();
    t.tuple_move_once().expect("tuple move");
}

/// Save and measure: bytes on disk under `dir` after `save_to`, per raw
/// byte of the same rows.
fn stored_per_raw(db: &Database, dir: &Path, raw: u64, report: &mut Report) -> f64 {
    let t = Instant::now();
    db.save_to(dir).expect("final save_to");
    report.layer("storage.save_s", t.elapsed().as_secs_f64());
    dir_bytes(dir) as f64 / raw as f64
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read database directory") {
        let entry = entry.expect("directory entry");
        let meta = entry.metadata().expect("file metadata");
        total += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    total
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each
/// workload runs in its own process, so peaks do not leak across.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

// -------------------------------------------------------- sample-size oracle

/// Check join and group-by classes the generator cannot answer itself:
/// run each on a small sample of the same schema in the engine's default
/// mode and in row mode (`ExecMode::Row`, a separate implementation of
/// every operator) and require the same rows.
pub fn check_against_row_mode(seed: u64, classes: &[ReadClass], report: &mut Report) {
    let classes: Vec<(&str, String)> = classes
        .iter()
        .filter(|c| c.check_on_sample)
        .map(|c| (c.name, (c.make)(&mut Rng::new(seed)).sql))
        .collect();
    if classes.is_empty() {
        return;
    }
    let data = StarData::generate(StarSchema::scale(50_000).with_seed(seed));
    let load = |mode| {
        let db = Database::new().with_exec_mode(mode);
        load_star(
            &db,
            &data,
            TableConfig {
                bulk_load_threshold: 1024,
                max_rowgroup_rows: 1 << 14,
                ..TableConfig::default()
            },
        );
        db
    };
    let (auto_db, row_db) = (load(ExecMode::Auto), load(ExecMode::Row));
    for (name, sql) in &classes {
        let rows_of = |db: &Database| -> Result<Vec<Row>, String> {
            match db.execute(sql) {
                Ok(QueryResult::Rows { mut rows, .. }) => {
                    rows.sort();
                    Ok(rows)
                }
                Ok(other) => Err(format!("expected rows, got {other:?}")),
                Err(e) => Err(format!("{} {e}", e.code())),
            }
        };
        let outcome = rows_of(&auto_db).and_then(|a| {
            let r = rows_of(&row_db)?;
            if a.len() == r.len() && a.iter().zip(&r).all(|(x, y)| rows_agree(x, y)) {
                Ok(())
            } else {
                Err(format!(
                    "class {name}: default mode and row mode disagree on the 50k-row sample"
                ))
            }
        });
        report.op(outcome, sql);
    }
}

/// Row equality that lets floating-point aggregates differ in the last
/// digits (the two modes add in different orders).
fn rows_agree(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| match (x, y) {
                (Value::Float64(x), Value::Float64(y)) => {
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                }
                _ => x == y,
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees_with_a_direct_count() {
        let schema = StarSchema::scale(5_000).with_seed(9);
        let data = StarData::generate(schema);
        let o = &data.oracle;
        let direct = |pred: &dyn Fn(&Row) -> bool| -> (i64, i64) {
            data.sales.iter().filter(|r| pred(r)).fold((0, 0), |a, r| {
                (a.0 + 1, a.1 + r.get(col::QUANTITY).as_i64().unwrap())
            })
        };
        assert_eq!((o.n, o.sum_qty), direct(&|_| true));
        assert_eq!(
            o.date_range(10, 40),
            direct(&|r| (10..=40).contains(&r.get(col::DATE_KEY).as_i64().unwrap()))
        );
        assert_eq!(
            o.quantity_above(8),
            direct(&|r| r.get(col::QUANTITY).as_i64().unwrap() > 8)
        );
        assert_eq!(
            o.store(7),
            direct(&|r| r.get(col::STORE_KEY).as_i64().unwrap() == 7)
        );
        assert_eq!(
            (o.disc_cnt, o.disc_qty),
            direct(&|r| !r.get(col::DISCOUNT).is_null())
        );
        assert_eq!(
            o.discounted_before(200),
            direct(&|r| !r.get(col::DISCOUNT).is_null()
                && r.get(col::DATE_KEY).as_i64().unwrap() < 200)
            .0
        );
        let (rows, _) = o.day_store(3, 7);
        assert_eq!(
            rows,
            direct(&|r| r.get(col::DATE_KEY).as_i64().unwrap() == 3
                && r.get(col::STORE_KEY).as_i64().unwrap() == 7)
            .0
        );
    }

    #[test]
    fn verify_accepts_right_and_rejects_wrong_answers() {
        let db = Database::new();
        let data = StarData::generate(StarSchema::scale(3_000).with_seed(3));
        load_star(&db, &data, TableConfig::default());
        let r = db.execute("SELECT COUNT(*), SUM(quantity) FROM sales");
        let o = &data.oracle;
        assert_eq!(verify(&r, &Check::CountSum(o.n, o.sum_qty)), Ok(()));
        assert!(verify(&r, &Check::CountSum(o.n + 1, o.sum_qty)).is_err());
        assert!(verify(&r, &Check::RowCount(2)).is_err());
        let bad = db.execute("SELECT nope FROM sales");
        assert!(verify(&bad, &Check::Caller).is_err());
        let mut report = Report::default();
        report.op(verify(&bad, &Check::Caller), "SELECT nope FROM sales");
        assert_eq!((report.attempted, report.failed), (1, 1));
        assert!(report.problems[0].contains("SELECT nope"));
    }

    #[test]
    fn raw_bytes_counts_fixed_widths_and_string_lengths() {
        let data = StarData::generate(StarSchema::scale(1_000));
        assert_eq!(sales_row_raw_bytes(), 8 + 4 + 8 + 8 + 8 + 4 + 8 + 8);
        assert_eq!(
            raw_bytes(&StarSchema::sales_schema(), &data.sales),
            1_000 * sales_row_raw_bytes()
        );
        // store: key 8 + "store-000" (9+2) + state (2+2).
        assert_eq!(
            raw_bytes(&StarSchema::store_schema(), &data.stores),
            50 * (8 + 11 + 4)
        );
    }
}
