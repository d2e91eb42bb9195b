//! The `Database` facade: SQL in, results out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cstore_common::fault::FaultInjector;
use cstore_common::governor::Governor;
use cstore_common::metrics::{self, LATENCY_BUCKETS_US};
use cstore_common::sync::Mutex;
use cstore_common::{convert, DataType, Error, Field, Result, Row, Schema, Value};
use cstore_delta::{
    MoverState, MoverStatus, TableConfig, TableSnapshot, TupleMover, Wal, WalHandle, WalOptions,
    WalReplayReport, WalStatus, WalSyncMode,
};
use cstore_exec::ops::collect_rows;
use cstore_exec::{ExecContext, ExecProfile};
use cstore_planner::explain::{explain, explain_analyze};
use cstore_planner::physical::build_physical;
use cstore_planner::rules::optimize;
use cstore_planner::ExecMode;
use cstore_sql::ast::{SetValue, Statement, TableOrganization};
use cstore_sql::bind_select;

use crate::catalog::{Catalog, TableEntry};
use crate::introspect::{QueryLog, QueryProfile, QueryStatus, SysCatalog};
use crate::persist::{self, OpenMode, OpenReport, TableOpenReport, VerifyReport};
use crate::txn::TxnManager;
use crate::write::SessionTxn;

/// Catalog manifest magic: "CSCB".
const CATALOG_MAGIC: u32 = 0x4243_5343;
/// Catalog manifest version 2: generation-stamped (v1 had no generation
/// and lived under the un-prefixed `catalog` key).
const CATALOG_VERSION: u16 = 2;

/// One table as described by a catalog manifest.
struct CatalogEntry {
    name: String,
    is_heap: bool,
    schema: Schema,
}

/// What [`Database::run_plan`] hands back besides the profile.
pub(crate) struct PlanRun {
    /// The optimized plan that ran.
    pub(crate) plan: cstore_planner::LogicalPlan,
    pub(crate) rows: Vec<Row>,
    pub(crate) mode: ExecMode,
    pub(crate) bitmap_filters: usize,
}

/// The result of executing one statement.
#[derive(Debug)]
pub enum QueryResult {
    /// A result set.
    Rows {
        columns: Vec<String>,
        /// Output column types (decimal scales drive display formatting).
        types: Vec<DataType>,
        rows: Vec<Row>,
        /// The execution mode the optimizer chose.
        mode: ExecMode,
        /// Execution counters (segment elimination, bitmap drops, ...).
        metrics: Vec<(&'static str, u64)>,
        elapsed: Duration,
    },
    /// DML row count.
    Affected(usize),
    /// DDL acknowledgement.
    Created,
    /// EXPLAIN output.
    Explain(String),
    /// Transaction-control acknowledgement (BEGIN / COMMIT / ROLLBACK).
    Txn(TxnAck),
}

/// Which transaction-control statement succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnAck {
    Begun,
    Committed,
    RolledBack,
}

impl QueryResult {
    /// The rows of a result set (panics on non-queries; test/demo helper).
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            // lint: allow(panic) — documented panicking accessor for
            // tests and demos
            other => panic!("expected rows, got {other:?}"),
        }
    }

    pub fn columns(&self) -> &[String] {
        match self {
            QueryResult::Rows { columns, .. } => columns,
            // lint: allow(panic) — documented panicking accessor for
            // tests and demos
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Rows affected by DML (panics otherwise).
    pub fn affected(&self) -> usize {
        match self {
            QueryResult::Affected(n) => *n,
            // lint: allow(panic) — documented panicking accessor for
            // tests and demos
            other => panic!("expected affected count, got {other:?}"),
        }
    }

    /// Render one value for display, applying the column's decimal scale.
    pub fn format_value(v: &Value, ty: DataType) -> String {
        match (v, ty) {
            (Value::Decimal(m), DataType::Decimal { scale: 0 }) => m.to_string(),
            (Value::Decimal(m), DataType::Decimal { scale }) => {
                let factor = 10i64.pow(scale as u32);
                let sign = if *m < 0 { "-" } else { "" };
                let (int, frac) = ((m / factor).abs(), (m % factor).abs());
                format!("{sign}{int}.{frac:0width$}", width = scale as usize)
            }
            _ => v.to_string(),
        }
    }

    /// Render a result set as an aligned text table.
    pub fn to_table(&self) -> String {
        let QueryResult::Rows {
            columns,
            types,
            rows,
            ..
        } = self
        else {
            return format!("{self:?}");
        };
        let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .zip(types)
                    .map(|(v, &ty)| Self::format_value(v, ty))
                    .collect()
            })
            .collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        for (w, c) in widths.iter().zip(columns) {
            out.push_str(&format!("{c:<w$}  "));
        }
        out.push('\n');
        for w in &widths {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (w, c) in widths.iter().zip(row) {
                out.push_str(&format!("{c:<w$}  "));
            }
            out.push('\n');
        }
        out
    }
}

/// An embedded analytical database: updatable columnstore tables (plus
/// heap baselines), batch-mode execution, and a SQL surface.
#[derive(Clone)]
pub struct Database {
    pub(crate) catalog: Catalog,
    ctx: ExecContext,
    mode: ExecMode,
    table_config: TableConfig,
    /// Live status handles of background tuple movers started through
    /// [`Database::start_tuple_mover`], keyed by table, so
    /// [`Database::metrics`] can fold mover counters in without owning
    /// the movers.
    movers: Arc<Mutex<Vec<(String, Arc<Mutex<MoverStatus>>)>>>,
    /// What a degraded open skipped; empty for fresh databases and
    /// clean opens. Immutable once the database is constructed.
    open_report: Arc<OpenReport>,
    /// Ring of the last [`crate::introspect::QUERY_LOG_CAPACITY`]
    /// statements — successes *and* errors — behind `sys.query_log`.
    query_log: Arc<Mutex<QueryLog>>,
    /// The write-ahead log, when one is attached (durable opens attach
    /// one automatically; in-memory databases run without). Shared with
    /// every columnstore table via [`cstore_delta::WalHandle`].
    pub(crate) wal: Arc<Mutex<Option<Arc<Wal>>>>,
    /// `SET query_timeout_ms` session option; `0` means no timeout.
    query_timeout_ms: Arc<AtomicU64>,
    /// `SET wal_sync` durability mode ([`WalSyncMode`] as `u8`). Applied
    /// to the attached WAL immediately and remembered so a WAL attached
    /// later starts in the chosen mode.
    wal_sync: Arc<AtomicU8>,
    /// The resource governor: admission control, the shared memory
    /// ledger, delta backpressure and the health state machine. Shared
    /// with every columnstore table and with the exec context.
    governor: Arc<Governor>,
    /// Per-shape workload history behind `sys.query_store`, persisted
    /// through save/open.
    query_store: Arc<crate::query_store::QueryStore>,
    /// The transaction manager shared by every session: txn ids, row
    /// locks (write-write conflict detection) and `sys.transactions`.
    pub(crate) txns: Arc<TxnManager>,
    /// This session's transaction state. [`Database::new_session`]
    /// replaces only this Arc, so sessions share everything else.
    pub(crate) session: Arc<Mutex<SessionTxn>>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Self {
        let governor = Arc::new(Governor::new());
        Database {
            catalog: Catalog::new(),
            ctx: ExecContext::default().with_ledger(Arc::clone(governor.ledger())),
            mode: ExecMode::Auto,
            table_config: TableConfig::default(),
            movers: Arc::new(Mutex::new_leveled(4, "db.movers", Vec::new())),
            open_report: Arc::new(OpenReport::default()),
            query_log: Arc::new(Mutex::new_leveled(7, "db.query_log", QueryLog::default())),
            wal: Arc::new(Mutex::new_leveled(8, "db.wal", None)),
            query_timeout_ms: Arc::new(AtomicU64::new(0)),
            wal_sync: Arc::new(AtomicU8::new(WalSyncMode::default().to_u8())),
            governor,
            query_store: Arc::new(crate::query_store::QueryStore::new()),
            txns: Arc::new(TxnManager::new()),
            session: Arc::new(Mutex::new_leveled(17, "db.session", SessionTxn::None)),
        }
    }

    /// A new session over the same database: shares the catalog, WAL,
    /// governor, transaction manager and telemetry, but has its own
    /// transaction state — two sessions can hold overlapping
    /// transactions with independent snapshots. A session is intended
    /// for single-threaded use (like one client connection).
    pub fn new_session(&self) -> Database {
        let mut db = self.clone();
        db.session = Arc::new(Mutex::new_leveled(17, "db.session", SessionTxn::None));
        db
    }

    /// Whether this session has an open (or poisoned) transaction.
    pub fn in_transaction(&self) -> bool {
        !matches!(*self.session.lock(), SessionTxn::None)
    }

    /// The shared transaction manager (row locks, `sys.transactions`).
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// Override the execution context (memory budget, batch size, metrics).
    /// The context is re-wired to this database's governor ledger so its
    /// queries stay inside the shared memory budget.
    pub fn with_exec_context(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx.with_ledger(Arc::clone(self.governor.ledger()));
        self
    }

    /// The database's resource governor (admission gate, memory ledger,
    /// backpressure gate, health state machine).
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    /// The per-shape workload history behind `sys.query_store`.
    pub fn query_store(&self) -> &Arc<crate::query_store::QueryStore> {
        &self.query_store
    }

    /// Force an execution mode for all queries (default: cost-based).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Default configuration for new columnstore tables.
    pub fn with_table_config(mut self, config: TableConfig) -> Self {
        self.table_config = config;
        self
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn exec_context(&self) -> &ExecContext {
        &self.ctx
    }

    /// The report of the open that produced this database (empty for
    /// fresh databases); `sys.row_groups` surfaces its quarantines.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    /// Point-in-time status of every registered background tuple mover.
    pub fn mover_statuses(&self) -> Vec<(String, MoverStatus)> {
        self.movers
            .lock()
            .iter()
            // lint: allow(lock-order) — `status` is the mover.status Arc
            // (level 5) yielded by the movers map; 4 → 5 ascends.
            .map(|(name, status)| (name.clone(), status.lock().clone()))
            .collect()
    }

    /// Run `f` against the recent-query ring.
    pub fn with_query_log<R>(&self, f: impl FnOnce(&QueryLog) -> R) -> R {
        f(&self.query_log.lock())
    }

    /// Execute one SQL statement. Every statement — including ones that
    /// fail to parse, bind or execute, time out or are refused admission —
    /// ends as exactly one [`QueryProfile`], which is all that
    /// `sys.query_log`, the Query Store and the metrics registry are told
    /// about it.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let _query_span = cstore_common::trace::global().span("query");
        let start = Instant::now();
        // Lexed once: the shape and the parser read the same tokens.
        let tokens = cstore_sql::lexer::tokenize(sql);
        let shape = cstore_sql::shape::shape_of(sql, tokens.as_deref().ok());
        // Per-query wait frame, installed *before* admission so time
        // spent queued at the gate is charged to the waiting statement,
        // not to whichever query happens to be running. Every blocking
        // point this thread (and its scan workers) hits records into it;
        // `ExecContext::for_query` adopts the same frame.
        let waits = Arc::new(cstore_common::waits::WaitProfile::new());
        let _wait_scope = cstore_common::waits::install(Arc::clone(&waits));
        let mut exec = ExecProfile::idle(waits);
        // Admission control: acquire (and hold, via the permit) a query
        // slot for the whole statement. A saturated gate parks the caller
        // up to the admission timeout; rejections are profiled like any
        // other error.
        let result = self.governor.admit_query().and_then(|_permit| {
            let stmt = {
                let _span = cstore_common::trace::global().span("parse");
                cstore_sql::parser::parse_tokens(tokens?)?
            };
            self.execute_statement(stmt, &mut exec)
        });
        let status = match &result {
            // Rollbacks are not errors, but they are not successful work
            // either: the Query Store counts them as failures and the
            // query log shows a distinct ROLLBACK status.
            Ok(QueryResult::Txn(TxnAck::RolledBack)) => QueryStatus::Rollback,
            Ok(_) => QueryStatus::Ok,
            Err(Error::Conflict(_)) => QueryStatus::Conflict,
            Err(_) => QueryStatus::Error,
        };
        self.finish_query(QueryProfile {
            text: sql.to_owned(),
            shape,
            status,
            timed_out: matches!(&result, Err(Error::Timeout)),
            error: result.as_ref().err().map(Error::to_string),
            elapsed: start.elapsed(),
            exec,
        });
        result
    }

    /// Report one finished statement to every surface that keeps
    /// statements: the cumulative context metrics, the process-wide
    /// registry, the Query Store and the query log. The counting rule is
    /// "every statement that reached `execute`, once, whatever its end".
    fn finish_query(&self, p: QueryProfile) {
        self.ctx.metrics.absorb(&p.exec.counters);
        let reg = metrics::global();
        reg.counter("cstore_queries_total").inc();
        reg.observe(
            "cstore_query_latency_us",
            &LATENCY_BUCKETS_US,
            p.elapsed_us(),
        );
        if p.error.is_some() {
            reg.counter("cstore_query_errors_total").inc();
        }
        if p.status == QueryStatus::Conflict {
            reg.counter("cstore_txn_conflicts_total").inc();
        }
        p.exec.counters.for_each(|name, v| {
            if v > 0 {
                reg.add(&format!("cstore_query_{name}_total"), v);
            }
        });
        self.query_store.record(&p);
        self.query_log.lock().record(p);
    }

    pub(crate) fn dispatch_autocommit(
        &self,
        stmt: Statement,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Select(_) | Statement::UnionAll(_) => self.run_query(&stmt, None, exec),
            Statement::Explain { analyze, stmt } => self.run_explain(&stmt, analyze, None, exec),
            Statement::CreateTable {
                name,
                columns,
                organization,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| Field::new(c.name, c.data_type, c.nullable))
                        .collect(),
                );
                match organization {
                    TableOrganization::Columnstore => {
                        let t = self.catalog.create_columnstore(
                            &name,
                            schema,
                            self.table_config.clone(),
                        )?;
                        // New columnstores join the WAL immediately so
                        // trickle DML on them is durable from row one.
                        // (Clone out of the guard first: set_wal takes the
                        // table lock, which must not nest inside db.wal.)
                        let wal = self.wal.lock().clone();
                        if let Some(wal) = wal {
                            t.set_wal(WalHandle {
                                wal,
                                table: name.to_ascii_lowercase(),
                            });
                        }
                        t.set_governor(Arc::clone(&self.governor));
                    }
                    TableOrganization::Heap => self.catalog.create_heap(&name, schema)?,
                }
                Ok(QueryResult::Created)
            }
            Statement::Analyze { table } => {
                self.analyze(&table, 16_384)?;
                Ok(QueryResult::Created)
            }
            Statement::Set { option, value } => self.run_set(&option, value),
            dml @ (Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. }) => self.run_autocommit_dml(dml, exec),
            // Dispatched by `execute_statement` before this point.
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::Sql(
                "transaction control cannot nest inside a statement".into(),
            )),
        }
    }

    /// `SET <option> = <value>`: session options.
    pub(crate) fn run_set(&self, option: &str, value: SetValue) -> Result<QueryResult> {
        match option.to_ascii_lowercase().as_str() {
            "query_timeout_ms" => {
                let ms = Self::set_u64("query_timeout_ms", &value)?;
                self.query_timeout_ms.store(ms, Ordering::Relaxed);
                Ok(QueryResult::Created)
            }
            "max_concurrent_queries" => {
                let n = Self::set_u64("max_concurrent_queries", &value)?;
                self.governor.admission().set_max_concurrent(n);
                Ok(QueryResult::Created)
            }
            "admission_timeout_ms" => {
                let ms = Self::set_u64("admission_timeout_ms", &value)?;
                self.governor
                    .admission()
                    .set_timeout(Duration::from_millis(ms));
                Ok(QueryResult::Created)
            }
            "memory_limit_bytes" => {
                let bytes = Self::set_u64("memory_limit_bytes", &value)?;
                self.governor.ledger().set_limit(bytes);
                Ok(QueryResult::Created)
            }
            "delta_high_water_mark" => {
                let n = Self::set_u64("delta_high_water_mark", &value)?;
                self.governor.backpressure().set_high_water(n);
                Ok(QueryResult::Created)
            }
            "backpressure_timeout_ms" => {
                let ms = Self::set_u64("backpressure_timeout_ms", &value)?;
                self.governor.backpressure().set_timeout_ms(ms);
                Ok(QueryResult::Created)
            }
            "query_log_size" => {
                let n = Self::set_u64("query_log_size", &value)?;
                let n = usize::try_from(n).unwrap_or(usize::MAX);
                self.query_log.lock().set_capacity(n);
                Ok(QueryResult::Created)
            }
            "query_store_interval_ms" => {
                let ms = Self::set_u64("query_store_interval_ms", &value)?;
                if ms == 0 {
                    return Err(Error::Sql("query_store_interval_ms must be > 0".into()));
                }
                self.query_store.set_interval_ms(ms);
                Ok(QueryResult::Created)
            }
            "wal_sync" => {
                let name = match &value {
                    SetValue::Name(name) => name.as_str(),
                    SetValue::Int(n) => {
                        return Err(Error::Sql(format!(
                            "wal_sync expects off, group or strict, got {n}"
                        )))
                    }
                };
                let mode = WalSyncMode::parse(name).ok_or_else(|| {
                    Error::Sql(format!(
                        "wal_sync expects off, group or strict, got '{name}'"
                    ))
                })?;
                self.wal_sync.store(mode.to_u8(), Ordering::Relaxed);
                // Clone out of the guard first: set_sync_mode takes WAL
                // locks, which must not nest inside db.wal.
                let wal = self.wal.lock().clone();
                if let Some(wal) = wal {
                    wal.set_sync_mode(mode);
                }
                Ok(QueryResult::Created)
            }
            other => Err(Error::Unsupported(format!("unknown SET option '{other}'"))),
        }
    }

    /// Parse a non-negative integer SET value.
    fn set_u64(option: &str, value: &SetValue) -> Result<u64> {
        match value {
            SetValue::Int(n) => {
                u64::try_from(*n).map_err(|_| Error::Sql(format!("{option} must be >= 0, got {n}")))
            }
            SetValue::Name(name) => Err(Error::Sql(format!(
                "{option} expects an integer value, got '{name}'"
            ))),
        }
    }

    /// The wall-clock deadline for a query starting now, from
    /// `SET query_timeout_ms` (0 = none).
    fn query_deadline(&self) -> Option<Instant> {
        let ms = self.query_timeout_ms.load(Ordering::Relaxed);
        (ms > 0).then(|| Instant::now() + Duration::from_millis(ms))
    }

    /// SELECT and UNION ALL: bind, then run the plan.
    pub(crate) fn run_query(
        &self,
        stmt: &Statement,
        snaps: Option<Arc<HashMap<String, TableSnapshot>>>,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        // `sys.*` views materialize here (and are memoized for the whole
        // query) so bind, optimize and lowering see one snapshot.
        let catalog = SysCatalog::new(&self.catalog, self);
        let plan = Self::bind(stmt, &catalog)?;
        let run = self.run_plan(plan, &catalog, snaps, exec)?;
        let fields = run.plan.output_fields()?;
        Ok(QueryResult::Rows {
            columns: fields.iter().map(|f| f.name.clone()).collect(),
            types: fields.iter().map(|f| f.data_type).collect(),
            rows: run.rows,
            mode: run.mode,
            metrics: exec.counters.named(),
            elapsed: exec.elapsed,
        })
    }

    fn bind(stmt: &Statement, catalog: &SysCatalog<'_>) -> Result<cstore_planner::LogicalPlan> {
        let _span = cstore_common::trace::global().span("bind");
        match stmt {
            Statement::Select(s) => bind_select(s, catalog),
            Statement::UnionAll(branches) => cstore_sql::bind_union(branches, catalog),
            other => Err(Error::Unsupported(format!(
                "EXPLAIN supports SELECT only, got {other:?}"
            ))),
        }
    }

    /// Optimize, lower and drain one bound plan — the single pipeline
    /// under SELECT, UNION ALL, EXPLAIN ANALYZE and the victim search of
    /// UPDATE/DELETE. However it ends, `exec` is left holding what the
    /// plan did, so a query that fails mid-execution still reports the
    /// work it performed.
    pub(crate) fn run_plan(
        &self,
        plan: cstore_planner::LogicalPlan,
        catalog: &dyn cstore_planner::CatalogProvider,
        snaps: Option<Arc<HashMap<String, TableSnapshot>>>,
        exec: &mut ExecProfile,
    ) -> Result<PlanRun> {
        let start = Instant::now();
        let plan = {
            let _span = cstore_common::trace::global().span("optimize");
            optimize(plan, catalog)?
        };
        // Each query gets its own metrics/operator-stats fork so `exec`
        // reports *this* query's counters; `finish_query` folds them
        // into the cumulative context metrics.
        let qctx = self
            .ctx
            .for_query()
            .with_deadline(self.query_deadline())
            .with_snapshots(snaps);
        let drained = (|| -> Result<_> {
            let phys = {
                let _span = cstore_common::trace::global().span("build_physical");
                build_physical(&plan, catalog, &qctx, self.mode)?
            };
            let _span = cstore_common::trace::global().span("execute");
            Ok((phys.mode, phys.bitmap_filters, collect_rows(phys.root)?))
        })();
        *exec = qctx.profile(start.elapsed());
        let (mode, bitmap_filters, rows) = drained?;
        exec.rows_returned = rows.len() as u64;
        Ok(PlanRun {
            plan,
            rows,
            mode,
            bitmap_filters,
        })
    }

    /// EXPLAIN renders the optimized plan; EXPLAIN ANALYZE runs it through
    /// [`Database::run_plan`] first and annotates the rendering with the
    /// resulting profile — each operator's actual rows/batches/time and
    /// the query's scan, bitmap-filter, join, spill and wait actuals.
    pub(crate) fn run_explain(
        &self,
        stmt: &Statement,
        analyze: bool,
        snaps: Option<Arc<HashMap<String, TableSnapshot>>>,
        exec: &mut ExecProfile,
    ) -> Result<QueryResult> {
        let catalog = SysCatalog::new(&self.catalog, self);
        let plan = Self::bind(stmt, &catalog)?;
        let (mut text, bitmap_filters) = if analyze {
            let run = self.run_plan(plan, &catalog, snaps, exec)?;
            let text = explain_analyze(&run.plan, &catalog, self.mode, exec);
            (text, run.bitmap_filters)
        } else {
            let plan = optimize(plan, &catalog)?;
            // Physical annotations: what lowering would actually build.
            let phys = build_physical(&plan, &catalog, &self.ctx, self.mode)?;
            (explain(&plan, &catalog, self.mode), phys.bitmap_filters)
        };
        text.push_str(&format!(
            "physical: bitmap_filters={bitmap_filters}, scan_parallelism={}\n",
            self.ctx.parallelism
        ));
        Ok(QueryResult::Explain(text))
    }

    // ------------------------------------------------- health state machine

    /// Gate one write statement through the health state machine: pick
    /// up fresh degradation causes first, give a degraded database its
    /// backoff-paced chance to recover, then reject with the cause if
    /// still read-only. Reads are never gated.
    pub(crate) fn check_writable(&self) -> Result<()> {
        self.scan_health();
        let health = Arc::clone(self.governor.health());
        if health.is_read_only() && health.probe_due() {
            // lint: allow(discard) — a failed probe leaves the database
            // read-only; the next backoff window retries
            let _ = self.probe_recovery();
        }
        health.check_writable()
    }

    /// Detect degradation causes that storage reports asynchronously: a
    /// sticky WAL failure, or a tuple mover parked after repeated fatal
    /// errors. First cause wins; an already-degraded database is left
    /// alone (its cause is cleared only by a successful recovery probe).
    fn scan_health(&self) {
        let health = self.governor.health();
        if health.is_read_only() {
            return;
        }
        let wal = self.wal.lock().clone();
        if let Some(e) = wal.and_then(|w| w.failure()) {
            health.degrade(format!("WAL is failed: {e}"));
            return;
        }
        for (table, status) in self.latest_mover_statuses() {
            if status.state == MoverState::Failed {
                health.degrade(format!(
                    "tuple mover for '{table}' is parked after repeated failures: {}",
                    status.last_error.unwrap_or_else(|| "unknown error".into())
                ));
                return;
            }
        }
    }

    /// The latest registered mover status per table. Restarting a mover
    /// registers a new status handle under the same name, and the old
    /// (possibly parked-Failed) handle stays in the registry for metrics
    /// continuity — health decisions must see only the newest one.
    fn latest_mover_statuses(&self) -> Vec<(String, MoverStatus)> {
        let mut latest: std::collections::BTreeMap<String, MoverStatus> =
            std::collections::BTreeMap::new();
        for (name, status) in self.movers.lock().iter() {
            // lint: allow(lock-order) — `status` is the mover.status Arc
            // (level 5) yielded by the movers map; 4 → 5 ascends.
            latest.insert(name.clone(), status.lock().clone());
        }
        latest.into_iter().collect()
    }

    /// Attempt to bring a read-only database back to healthy: verify the
    /// WAL accepts appends again (a real append+fsync of a probe record),
    /// run the registered storage probe against the blob store, and check
    /// that no current tuple mover is parked. On full success the health
    /// machine transitions back to `Healthy` and writes resume. Public so
    /// operators can force a probe instead of waiting out the backoff.
    pub fn probe_recovery(&self) -> Result<()> {
        let health = Arc::clone(self.governor.health());
        if !health.is_read_only() {
            return Ok(());
        }
        health.note_probe();
        let wal = self.wal.lock().clone();
        if let Some(wal) = wal {
            wal.try_clear_failure()?;
        }
        self.governor.run_storage_probe()?;
        for (table, status) in self.latest_mover_statuses() {
            if status.state == MoverState::Failed {
                return Err(Error::Storage(format!(
                    "recovery probe failed: tuple mover for '{table}' is still parked"
                )));
            }
        }
        health.recover();
        Ok(())
    }

    // --------------------------------------------------- bulk / admin API

    /// Bulk-load rows into a columnstore table (the paper's bulk insert:
    /// large batches compress directly, bypassing delta stores).
    pub fn bulk_load(&self, table: &str, rows: &[Row]) -> Result<cstore_delta::BulkLoadReport> {
        self.check_writable()?;
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => t.bulk_insert(rows),
            TableEntry::Heap(_) => {
                self.catalog.with_heap_mut(table, |h| h.insert_all(rows))?;
                Ok(cstore_delta::BulkLoadReport {
                    compressed_groups: vec![],
                    delta_rows: rows.len(),
                })
            }
        }
    }

    /// Run one synchronous tuple-mover pass over a table.
    pub fn tuple_move(&self, table: &str) -> Result<usize> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => t.tuple_move_once(),
            TableEntry::Heap(_) => Ok(0),
        }
    }

    /// Start a background tuple mover for a table. The mover's status is
    /// also registered with this database so [`Database::metrics`]
    /// reports its counters for as long as the database lives.
    pub fn start_tuple_mover(&self, table: &str, interval: Duration) -> Result<TupleMover> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => {
                let mover = TupleMover::start(t, interval)?;
                self.movers
                    .lock()
                    .push((table.to_string(), mover.status_shared()));
                Ok(mover)
            }
            TableEntry::Heap(_) => Err(Error::Catalog(format!(
                "'{table}' is a heap; the tuple mover applies to columnstores"
            ))),
        }
    }

    /// REORGANIZE a columnstore table: compress closed delta stores and
    /// rebuild row groups with ≥ `deleted_threshold` deleted rows.
    pub fn reorganize(&self, table: &str, deleted_threshold: f64) -> Result<(usize, usize)> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => t.reorganize(deleted_threshold),
            TableEntry::Heap(_) => Ok((0, 0)),
        }
    }

    /// Switch a columnstore table to archival compression.
    pub fn archive_table(&self, table: &str) -> Result<()> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => t.archive_all(),
            TableEntry::Heap(_) => Err(Error::Unsupported(
                "archival compression applies to columnstore tables".into(),
            )),
        }
    }

    /// Sample up to `sample_target` rows of `table` and cache histogram
    /// statistics for the optimizer (the paper's sampling support for
    /// statistics on columnstore indexes). Also exposed as SQL
    /// `ANALYZE <table>`.
    pub fn analyze(&self, table: &str, sample_target: usize) -> Result<()> {
        use cstore_planner::stats::TableStatistics;
        use cstore_planner::CatalogProvider;
        let t = self
            .catalog
            .table(table)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{table}'")))?;
        let stats = TableStatistics::collect_sampled(&t, sample_target);
        self.catalog.put_statistics(table, stats);
        Ok(())
    }

    // ------------------------------------------------- write-ahead log

    /// Attach a write-ahead log backed by `dir/wal`: replay whatever the
    /// log holds past each table's persisted watermark, then wire every
    /// columnstore table (present and future) to log through it. Called
    /// automatically by the durable open paths; call it on a fresh
    /// database to make trickle DML durable before the first save.
    pub fn attach_wal(&mut self, dir: impl AsRef<std::path::Path>) -> Result<WalReplayReport> {
        let store = cstore_storage::FileLogStore::open(dir.as_ref().join("wal"))?;
        self.attach_wal_store(Box::new(store), WalOptions::default(), None)
    }

    /// Attach a write-ahead log over any [`cstore_storage::LogStore`]
    /// (tests use [`cstore_storage::MemLogStore`] plus a fault injector).
    /// Replays into the current columnstore tables and merges the replay
    /// outcome into [`Database::open_report`].
    pub fn attach_wal_store(
        &mut self,
        store: Box<dyn cstore_storage::LogStore>,
        options: WalOptions,
        faults: Option<FaultInjector>,
    ) -> Result<WalReplayReport> {
        let tables: Vec<(String, cstore_delta::ColumnStoreTable)> = self
            .catalog
            .table_names()
            .into_iter()
            .filter_map(|name| match self.catalog.get(&name) {
                Some(TableEntry::ColumnStore(t)) => Some((name, t)),
                _ => None,
            })
            .collect();
        let (wal, report) = Wal::open(store, options, faults, &tables)?;
        wal.set_sync_mode(WalSyncMode::from_u8(self.wal_sync.load(Ordering::Relaxed)));
        for (name, t) in &tables {
            t.set_wal(WalHandle {
                wal: Arc::clone(&wal),
                table: name.to_ascii_lowercase(),
            });
        }
        *self.wal.lock() = Some(wal);
        let mut open_report = (*self.open_report).clone();
        open_report.wal = Some(report.clone());
        self.open_report = Arc::new(open_report);
        Ok(report)
    }

    /// Point-in-time WAL status (`None` when no WAL is attached);
    /// `sys.wal` renders this.
    pub fn wal_status(&self) -> Option<WalStatus> {
        let wal = self.wal.lock().clone();
        wal.map(|w| w.status())
    }

    /// Persist the whole database (catalog + every table) into a
    /// directory. Heap tables store their rows; columnstore tables store
    /// compressed row groups, delta rows and delete bitmaps.
    ///
    /// Crash-atomic: see [`Database::save_to_store`].
    pub fn save_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let mut store = cstore_storage::blob::FileBlobStore::open(dir.as_ref())?;
        self.save_to_store(&mut store)?;
        Ok(())
    }

    /// Persist into any blob store, returning the generation written.
    ///
    /// The save is crash-atomic: every table blob is written under a
    /// `g<N>.` prefix *first*, and the generation-`N` catalog manifest
    /// last, as the commit point. A crash (or IO error) at any earlier
    /// point leaves the previous generation untouched; older generations
    /// are garbage-collected only after the manifest lands.
    pub fn save_to_store(&self, store: &mut dyn cstore_storage::blob::BlobStore) -> Result<u64> {
        let result = self.save_to_store_inner(store);
        if let Err(e) = &result {
            // A failed save means the blob store is refusing writes
            // (ENOSPC, IO error): degrade to read-only so later DML fails
            // with the cause instead of raw storage errors. The committed
            // previous generation is untouched — reads keep serving.
            if matches!(e, Error::Io(_) | Error::Storage(_)) {
                self.governor
                    .health()
                    .degrade(format!("blob store write failure: {e}"));
            }
        }
        result
    }

    fn save_to_store_inner(&self, store: &mut dyn cstore_storage::blob::BlobStore) -> Result<u64> {
        use cstore_storage::format::{write_schema, write_value, Writer};
        let _span = cstore_common::trace::global().span("persist.save");
        // A save advances every table's WAL watermark past the log tail
        // it persists — doing that while a transaction holds unlogged
        // commit intent (or un-replayed TxnOp frames) could make the
        // commit record land below a watermark that never applied it.
        // Keep it simple and correct: no saves while transactions are
        // open, in any session.
        if self.txns.active_count() > 0 {
            return Err(Error::Unsupported(
                "cannot save while a transaction is open; COMMIT or ROLLBACK first".into(),
            ));
        }
        let gen = persist::manifest_generations(store)
            .first()
            .map_or(1, |g| g + 1);
        let names = self.catalog.table_names();
        // 1. Table blobs, under the new generation's prefix. Each
        //    columnstore reports the WAL watermark its blob covers; the
        //    post-commit checkpoint retires log segments below them.
        let mut wal_boundaries: Vec<(String, u64)> = Vec::new();
        for name in &names {
            let prefix = persist::gen_prefix(gen, name);
            match self.catalog.try_get(name)? {
                TableEntry::ColumnStore(t) => {
                    let boundary = t.persist(store, &prefix)?;
                    wal_boundaries.push((name.to_ascii_lowercase(), boundary));
                }
                TableEntry::Heap(h) => {
                    let mut w = Writer::new();
                    w.u32(convert::u32_from_usize(h.n_rows())?);
                    for row in h.scan() {
                        for v in row.values() {
                            write_value(&mut w, v)?;
                        }
                    }
                    store.put(&format!("{prefix}.heap"), &w.seal())?;
                }
            }
        }
        // 1b. Query Store history, under the same generation prefix (it
        //     only becomes reachable once the manifest commits, and GC
        //     retires it with the generation).
        store.put(&format!("g{gen}.querystore"), &self.query_store.encode()?)?;
        // 2. Catalog manifest: name, organization, schema per table. This
        //    write commits the generation.
        let mut w = Writer::new();
        w.u32(CATALOG_MAGIC);
        w.u16(CATALOG_VERSION);
        w.u64(gen);
        w.u32(convert::u32_from_usize(names.len())?);
        for name in &names {
            let entry = self.catalog.try_get(name)?;
            w.lp_bytes(name.as_bytes())?;
            w.u8(matches!(entry, TableEntry::Heap(_)) as u8);
            write_schema(&mut w, &entry.schema())?;
        }
        store.put(&persist::manifest_key(gen), &w.seal())?;
        // 3. Drop superseded generations (best-effort).
        persist::collect_garbage(store, gen);
        // 4. Checkpoint the WAL (best-effort): the save already committed,
        //    so a failed checkpoint only delays segment retirement until
        //    the next save — it must not turn a successful save into an
        //    error.
        let wal = self.wal.lock().clone();
        if let Some(wal) = wal {
            if wal.checkpoint(gen, wal_boundaries).is_err() {
                metrics::global()
                    .counter("cstore_wal_checkpoint_errors_total")
                    .inc();
            }
        }
        Ok(gen)
    }

    /// Open a database persisted by [`Database::save_to`]. Uses the
    /// default table-config template for the loaded columnstores. Strict:
    /// fails on the first unreadable table blob (but still falls back past
    /// torn manifests — that is the crash-atomicity protocol, not damage).
    pub fn open_from(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        let store = cstore_storage::blob::FileBlobStore::open(dir.as_ref())?;
        let (mut db, _) = Self::open_from_store(&store, OpenMode::Strict)?;
        let log = cstore_storage::FileLogStore::open(dir.as_ref().join("wal"))?;
        db.attach_wal_store(
            Box::new(log),
            WalOptions {
                strict: true,
                ..WalOptions::default()
            },
            None,
        )?;
        db.register_dir_storage_probe(dir.as_ref());
        Ok(db)
    }

    /// Register a recovery probe that round-trips a scratch blob through
    /// the database's backing directory, so [`Database::probe_recovery`]
    /// can verify the filesystem accepts writes again (e.g. after
    /// ENOSPC clears).
    fn register_dir_storage_probe(&self, dir: &std::path::Path) {
        use cstore_storage::blob::BlobStore;
        let dir = dir.to_path_buf();
        self.governor.set_storage_probe(move || {
            let mut store = cstore_storage::blob::FileBlobStore::open(&dir)?;
            store.put("governor.probe", b"ok")?;
            store.delete("governor.probe")
        });
    }

    /// Open in degraded mode: unreadable table blobs are quarantined
    /// (their data dropped) instead of failing the open, and every drop is
    /// listed in the returned [`OpenReport`]. Unreadable WAL segments are
    /// likewise quarantined rather than fatal.
    pub fn open_degraded(dir: impl AsRef<std::path::Path>) -> Result<(Database, OpenReport)> {
        let store = cstore_storage::blob::FileBlobStore::open(dir.as_ref())?;
        let (mut db, _) = Self::open_from_store(&store, OpenMode::Degraded)?;
        let log = cstore_storage::FileLogStore::open(dir.as_ref().join("wal"))?;
        db.attach_wal_store(
            Box::new(log),
            WalOptions {
                strict: false,
                ..WalOptions::default()
            },
            None,
        )?;
        db.register_dir_storage_probe(dir.as_ref());
        let report = (*db.open_report).clone();
        Ok((db, report))
    }

    /// Open from any blob store. Tries the newest catalog manifest first
    /// and falls back generation by generation past torn/corrupt
    /// manifests (recorded in [`OpenReport::skipped_manifests`]).
    pub fn open_from_store(
        store: &dyn cstore_storage::blob::BlobStore,
        mode: OpenMode,
    ) -> Result<(Database, OpenReport)> {
        let _span = cstore_common::trace::global().span("persist.open");
        let gens = persist::manifest_generations(store);
        if gens.is_empty() {
            return Err(Error::Storage("no catalog manifest found".into()));
        }
        let mut skipped: Vec<(u64, String)> = Vec::new();
        for gen in gens {
            let entries = match Self::read_catalog_manifest(store, gen) {
                Ok(entries) => entries,
                Err(e) => {
                    skipped.push((gen, e.to_string()));
                    continue;
                }
            };
            let (mut db, tables) = Self::load_tables(store, gen, &entries, mode)?;
            // Query Store history (best-effort): absent for generations
            // written before the store existed, and corrupt history must
            // never block an open — data tables matter, telemetry does
            // not. Load failures are counted, not fatal.
            if let Ok(blob) = store.get(&format!("g{gen}.querystore")) {
                if db.query_store.load(&blob).is_err() {
                    metrics::global()
                        .counter("cstore_query_store_load_errors_total")
                        .inc();
                }
            }
            let report = OpenReport {
                generation: gen,
                skipped_manifests: skipped,
                tables,
                wal: None,
            };
            // Keep the report on the database so `metrics()` can report
            // recovery quarantines; `db` is not yet shared here.
            db.open_report = Arc::new(report.clone());
            return Ok((db, report));
        }
        let detail: Vec<String> = skipped.iter().map(|(g, e)| format!("g{g}: {e}")).collect();
        Err(Error::Storage(format!(
            "no usable catalog manifest ({})",
            detail.join("; ")
        )))
    }

    /// Read and validate one generation's catalog manifest.
    fn read_catalog_manifest(
        store: &dyn cstore_storage::blob::BlobStore,
        gen: u64,
    ) -> Result<Vec<CatalogEntry>> {
        use cstore_storage::format::{read_schema, Reader};
        let manifest = store.get(&persist::manifest_key(gen))?;
        let payload = Reader::check_crc(&manifest)?;
        let mut r = Reader::new(payload);
        if r.u32()? != CATALOG_MAGIC {
            return Err(Error::Storage("bad catalog magic".into()));
        }
        let version = r.u16()?;
        if version != CATALOG_VERSION {
            return Err(Error::Storage(format!(
                "unsupported catalog version {version}"
            )));
        }
        let stamped = r.u64()?;
        if stamped != gen {
            return Err(Error::Storage(format!(
                "catalog generation stamp {stamped} does not match key generation {gen}"
            )));
        }
        let n = convert::usize_from_u32(r.u32()?);
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = std::str::from_utf8(r.lp_bytes()?)
                .map_err(|_| Error::Storage("invalid UTF-8 table name".into()))?
                .to_owned();
            let is_heap = r.u8()? != 0;
            let schema = read_schema(&mut r)?;
            entries.push(CatalogEntry {
                name,
                is_heap,
                schema,
            });
        }
        Ok(entries)
    }

    /// Load every table of generation `gen` into a fresh database.
    fn load_tables(
        store: &dyn cstore_storage::blob::BlobStore,
        gen: u64,
        entries: &[CatalogEntry],
        mode: OpenMode,
    ) -> Result<(Database, Vec<TableOpenReport>)> {
        use cstore_storage::{BlobQuarantine, QuarantinedKind};
        let db = Database::new();
        let mut reports = Vec::new();
        for e in entries {
            let prefix = persist::gen_prefix(gen, &e.name);
            let mut quarantined: Vec<BlobQuarantine> = Vec::new();
            if e.is_heap {
                db.catalog.create_heap(&e.name, e.schema.clone())?;
                match Self::read_heap_blob(store, &prefix, &e.schema) {
                    Ok(rows) => db.catalog.with_heap_mut(&e.name, |h| h.insert_all(&rows))?,
                    Err(err) if mode == OpenMode::Degraded => quarantined.push(BlobQuarantine {
                        key: format!("{prefix}.heap"),
                        kind: QuarantinedKind::Heap,
                        error: err.to_string(),
                    }),
                    Err(err) => return Err(err),
                }
            } else {
                match mode {
                    OpenMode::Strict => {
                        let t = cstore_delta::ColumnStoreTable::load(
                            store,
                            &prefix,
                            e.schema.clone(),
                            db.table_config.clone(),
                        )?;
                        t.set_governor(Arc::clone(&db.governor));
                        db.catalog.create(&e.name, TableEntry::ColumnStore(t))?;
                    }
                    OpenMode::Degraded => match cstore_delta::ColumnStoreTable::load_degraded(
                        store,
                        &prefix,
                        e.schema.clone(),
                        db.table_config.clone(),
                    ) {
                        Ok((t, q)) => {
                            quarantined.extend(q);
                            t.set_governor(Arc::clone(&db.governor));
                            db.catalog.create(&e.name, TableEntry::ColumnStore(t))?;
                        }
                        Err(err) => {
                            // Even the row-group manifest is unreadable:
                            // quarantine the whole table, install it empty.
                            quarantined.push(BlobQuarantine {
                                key: format!("{prefix}.manifest"),
                                kind: QuarantinedKind::TableManifest,
                                error: err.to_string(),
                            });
                            let t = cstore_delta::ColumnStoreTable::new(
                                e.schema.clone(),
                                db.table_config.clone(),
                            );
                            t.set_governor(Arc::clone(&db.governor));
                            db.catalog.create(&e.name, TableEntry::ColumnStore(t))?;
                        }
                    },
                }
            }
            if !quarantined.is_empty() {
                reports.push(TableOpenReport {
                    table: e.name.clone(),
                    quarantined,
                });
            }
        }
        Ok((db, reports))
    }

    /// Read a heap blob into rows without touching catalog state.
    fn read_heap_blob(
        store: &dyn cstore_storage::blob::BlobStore,
        prefix: &str,
        schema: &Schema,
    ) -> Result<Vec<Row>> {
        use cstore_storage::format::{read_value, Reader};
        let blob = store.get(&format!("{prefix}.heap"))?;
        let payload = Reader::check_crc(&blob)?;
        let mut hr = Reader::new(payload);
        let n_rows = convert::usize_from_u32(hr.u32()?);
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut values = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                values.push(read_value(&mut hr)?);
            }
            rows.push(Row::new(values));
        }
        Ok(rows)
    }

    /// Whether `dir` holds a persisted database (any catalog manifest).
    /// Does not create the directory.
    pub fn persisted_at(dir: impl AsRef<std::path::Path>) -> bool {
        let Ok(rd) = std::fs::read_dir(dir.as_ref()) else {
            return false;
        };
        rd.flatten().any(|e| {
            e.file_name().to_str().is_some_and(|n| {
                n.strip_suffix(".blob")
                    .and_then(persist::parse_manifest_key)
                    .is_some()
            })
        })
    }

    /// Scrub a persisted directory: re-check every blob of the newest
    /// usable generation against its CRC and report corrupt, missing and
    /// orphaned blobs without loading the data.
    pub fn verify(dir: impl AsRef<std::path::Path>) -> Result<VerifyReport> {
        let store = cstore_storage::blob::FileBlobStore::open(dir.as_ref())?;
        Self::verify_store(&store)
    }

    /// Scrub any blob store (see [`Database::verify`]).
    pub fn verify_store(store: &dyn cstore_storage::blob::BlobStore) -> Result<VerifyReport> {
        use cstore_storage::format::Reader;
        let mut report = VerifyReport::default();
        let mut chosen = None;
        for gen in persist::manifest_generations(store) {
            match Self::read_catalog_manifest(store, gen) {
                Ok(entries) => {
                    chosen = Some((gen, entries));
                    break;
                }
                Err(e) => report
                    .corrupt
                    .push((persist::manifest_key(gen), e.to_string())),
            }
        }
        let Some((gen, entries)) = chosen else {
            return Err(Error::Storage(
                "no usable catalog manifest to verify against".into(),
            ));
        };
        report.generation = gen;
        let present: std::collections::BTreeSet<String> = store.keys().into_iter().collect();
        // Expected keys of the current generation, from the manifests.
        let mut expected = vec![persist::manifest_key(gen)];
        for e in &entries {
            let prefix = persist::gen_prefix(gen, &e.name);
            if e.is_heap {
                expected.push(format!("{prefix}.heap"));
            } else {
                expected.push(format!("{prefix}.manifest"));
                expected.push(format!("{prefix}.delta"));
                // An unreadable table manifest is caught by the CRC pass
                // below; its row groups then surface as orphans.
                if let Ok(ids) = cstore_storage::ColumnStore::persisted_group_ids(store, &prefix) {
                    for id in ids {
                        expected.push(format!("{prefix}.rg{}", id.0));
                    }
                }
            }
        }
        // The Query Store blob is optional (older generations predate
        // it): CRC-check it when present, never report it missing.
        let qs_key = format!("g{gen}.querystore");
        if present.contains(&qs_key) {
            expected.push(qs_key);
        }
        for key in &expected {
            if !present.contains(key) {
                report.missing.push(key.clone());
                continue;
            }
            report.blobs_checked += 1;
            match store.get(key).and_then(|b| Reader::check_crc(&b).map(drop)) {
                Ok(()) => {}
                Err(e) => report.corrupt.push((key.clone(), e.to_string())),
            }
        }
        let expected: std::collections::BTreeSet<String> = expected.into_iter().collect();
        report.orphaned = present.difference(&expected).cloned().collect();
        Ok(report)
    }

    /// One-stop observability dump in Prometheus text format: the
    /// process-wide metrics registry (query counters and latency
    /// histograms), per-table tuple-mover counters for movers started
    /// through [`Database::start_tuple_mover`], and crash-recovery
    /// quarantines recorded when this database was opened degraded.
    pub fn metrics(&self) -> String {
        let mut out = metrics::global().render_prometheus();
        for (table, status) in self.movers.lock().iter() {
            // lint: allow(lock-order) — `status` is the mover.status Arc
            // (level 5) yielded by the movers map; 4 → 5 ascends.
            let s = status.lock().clone();
            out.push_str(&format!(
                "# mover table={table} state={:?} last_error={:?}\n",
                s.state, s.last_error
            ));
            for (name, v) in [
                ("cstore_mover_passes", s.passes),
                ("cstore_mover_stores_moved", s.stores_moved),
                ("cstore_mover_rows_moved", s.rows_moved),
                ("cstore_mover_transient_retries", s.transient_retries),
                ("cstore_mover_restarts", u64::from(s.restarts)),
                (
                    "cstore_mover_consecutive_failures",
                    u64::from(s.consecutive_failures),
                ),
            ] {
                out.push_str(&format!("{name}{{table=\"{table}\"}} {v}\n"));
            }
        }
        let r = &self.open_report;
        out.push_str(&format!(
            "# TYPE cstore_open_skipped_manifests gauge\ncstore_open_skipped_manifests {}\n",
            r.skipped_manifests.len()
        ));
        out.push_str(&format!(
            "# TYPE cstore_open_quarantined_blobs gauge\ncstore_open_quarantined_blobs {}\n",
            r.total_quarantined()
        ));
        for t in &r.tables {
            for q in &t.quarantined {
                out.push_str(&format!(
                    "# quarantined table={} key={} kind={:?}: {}\n",
                    t.table, q.key, q.kind, q.error
                ));
            }
        }
        // Resource-governor series: admission, shared memory ledger,
        // delta backpressure, health.
        let s = self.governor.snapshot();
        out.push_str(&format!(
            "# TYPE cstore_governor_health gauge\ncstore_governor_health{{state=\"{}\"}} 1\n",
            s.health_state()
        ));
        if let Some(cause) = &s.health_cause {
            out.push_str(&format!("# governor read-only cause: {cause}\n"));
        }
        for (name, v) in [
            ("cstore_governor_admission_running", s.admission_running),
            ("cstore_governor_admission_queued", s.admission_queued),
            (
                "cstore_governor_admission_max_concurrent",
                s.admission_max_concurrent,
            ),
            ("cstore_governor_admitted_total", s.admission_admitted_total),
            (
                "cstore_governor_admission_rejected_total",
                s.admission_rejected_total,
            ),
            (
                "cstore_governor_admission_timeouts_total",
                s.admission_timeouts_total,
            ),
            ("cstore_governor_mem_reserved_bytes", s.mem_reserved_bytes),
            ("cstore_governor_mem_peak_bytes", s.mem_peak_bytes),
            ("cstore_governor_mem_limit_bytes", s.mem_limit_bytes),
            ("cstore_governor_mem_exhausted_total", s.mem_exhausted_total),
            (
                "cstore_governor_backpressure_high_water",
                s.backpressure_high_water,
            ),
            (
                "cstore_governor_backpressure_waits_total",
                s.backpressure_waits_total,
            ),
            (
                "cstore_governor_backpressure_rejected_total",
                s.backpressure_rejected_total,
            ),
            ("cstore_governor_degraded_total", s.degraded_total),
            ("cstore_governor_write_rejects_total", s.write_rejects_total),
            (
                "cstore_governor_recovery_probes_total",
                s.recovery_probes_total,
            ),
        ] {
            out.push_str(&format!("{name} {v}\n"));
        }
        // Per-lock acquisition/contention/hold series from the runtime
        // lockdep layer (process-wide: every leveled lock registers on
        // first construction).
        out.push_str(&cstore_common::sync::render_lock_stats_prometheus());
        // Engine-wide wait-class totals (the global side of the wait
        // registry behind `sys.wait_stats`).
        out.push_str(&cstore_common::waits::render_prometheus());
        out
    }

    /// Table statistics (columnstore tables).
    pub fn table_stats(&self, table: &str) -> Result<cstore_delta::TableStats> {
        match self.catalog.try_get(table)? {
            TableEntry::ColumnStore(t) => Ok(t.stats()),
            TableEntry::Heap(h) => Ok(cstore_delta::TableStats {
                compressed_rows: 0,
                delta_rows: h.n_rows(),
                ..Default::default()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let rows: Vec<Row> = (0..2000)
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

    #[test]
    fn end_to_end_select() {
        let db = db();
        let r = db
            .execute("SELECT id, amount FROM sales WHERE id < 5 ORDER BY id")
            .unwrap();
        assert_eq!(r.columns(), &["id", "amount"]);
        assert_eq!(r.rows().len(), 5);
        assert_eq!(r.rows()[3].get(0), &Value::Int64(3));
    }

    #[test]
    fn end_to_end_star_join_aggregate() {
        let db = db();
        let r = db
            .execute(
                "SELECT c.region, COUNT(*) AS n, SUM(s.amount) AS total \
                 FROM sales s JOIN customers c ON s.cust_id = c.id \
                 WHERE s.day < DATE 10 \
                 GROUP BY c.region ORDER BY region",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        // day < 10 → ids 0..1000; split evenly north/south by cust parity.
        assert_eq!(r.rows()[0].get(0), &Value::str("north"));
        assert_eq!(r.rows()[0].get(1), &Value::Int64(500));
        let total_north: f64 = (0..1000)
            .filter(|i| (i % 20) % 2 == 0)
            .map(|i| (i % 100) as f64)
            .sum();
        assert_eq!(r.rows()[0].get(2), &Value::Float64(total_north));
    }

    #[test]
    fn insert_update_delete_cycle() {
        let db = db();
        let n = db
            .execute("INSERT INTO sales VALUES (9999, 1, 42.0, 5), (10000, 2, NULL, 5)")
            .unwrap()
            .affected();
        assert_eq!(n, 2);
        let r = db
            .execute("SELECT COUNT(*) FROM sales WHERE id >= 9999")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(2));
        let n = db
            .execute("UPDATE sales SET amount = 100.0 WHERE id = 9999")
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        let r = db
            .execute("SELECT amount FROM sales WHERE id = 9999")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Float64(100.0));
        let n = db
            .execute("DELETE FROM sales WHERE id >= 9999")
            .unwrap()
            .affected();
        assert_eq!(n, 2);
        let r = db
            .execute("SELECT COUNT(*) FROM sales WHERE id >= 9999")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(0));
    }

    #[test]
    fn delete_then_tuple_move_then_query() {
        let db = db();
        db.execute("DELETE FROM sales WHERE id < 100").unwrap();
        db.execute("INSERT INTO sales VALUES (5000, 3, 1.0, 0)")
            .unwrap();
        db.tuple_move("sales").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(2000 - 100 + 1));
    }

    #[test]
    fn heap_tables_work_via_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE h (a BIGINT NOT NULL, b VARCHAR) USING HEAP")
            .unwrap();
        db.execute("INSERT INTO h VALUES (1, 'x'), (2, 'y'), (3, NULL)")
            .unwrap();
        let r = db
            .execute("SELECT a FROM h WHERE b IS NOT NULL ORDER BY a DESC")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].get(0), &Value::Int64(2));
        assert_eq!(
            db.execute("UPDATE h SET b = 'z' WHERE a = 3")
                .unwrap()
                .affected(),
            1
        );
        assert_eq!(
            db.execute("DELETE FROM h WHERE b = 'z'")
                .unwrap()
                .affected(),
            1
        );
        let r = db.execute("SELECT COUNT(*) FROM h").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Int64(2));
    }

    #[test]
    fn explain_reports_pushdown() {
        let db = db();
        let r = db
            .execute("EXPLAIN SELECT id FROM sales WHERE day = 3")
            .unwrap();
        let QueryResult::Explain(text) = r else {
            panic!()
        };
        assert!(text.contains("Scan sales"), "{text}");
        assert!(text.contains("pushed="), "{text}");
        assert!(text.contains("mode=Batch"), "{text}");
    }

    #[test]
    fn archive_preserves_results() {
        let db = db();
        let before = db.execute("SELECT SUM(amount) FROM sales").unwrap().rows()[0]
            .get(0)
            .clone();
        db.archive_table("sales").unwrap();
        let after = db.execute("SELECT SUM(amount) FROM sales").unwrap().rows()[0]
            .get(0)
            .clone();
        assert_eq!(before, after);
    }

    #[test]
    fn errors_are_reported() {
        let db = db();
        assert!(db.execute("SELECT nope FROM sales").is_err());
        assert!(db.execute("SELECT * FROM missing").is_err());
        assert!(db.execute("INSERT INTO sales VALUES (1)").is_err());
        assert!(db.execute("CREATE TABLE sales (x BIGINT)").is_err());
        assert!(db.execute("garbage").is_err());
    }

    #[test]
    fn to_table_renders() {
        let db = db();
        let r = db
            .execute("SELECT id FROM sales WHERE id < 2 ORDER BY id")
            .unwrap();
        let text = r.to_table();
        assert!(text.contains("id"));
        assert!(text.contains('0') && text.contains('1'));
    }

    fn count(db: &Database, sql: &str) -> i64 {
        let r = db.execute(sql).unwrap();
        match r.rows()[0].get(0) {
            Value::Int64(n) => *n,
            other => panic!("expected COUNT, got {other:?}"),
        }
    }

    #[test]
    fn txn_commit_makes_writes_visible() {
        let db = db();
        assert!(matches!(
            db.execute("BEGIN").unwrap(),
            QueryResult::Txn(TxnAck::Begun)
        ));
        assert!(db.in_transaction());
        db.execute("INSERT INTO sales VALUES (7001, 1, 1.0, 0)")
            .unwrap();
        db.execute("UPDATE sales SET amount = 9.0 WHERE id = 7001")
            .unwrap();
        // The transaction sees its own buffered writes…
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales WHERE id = 7001"), 1);
        let r = db
            .execute("SELECT amount FROM sales WHERE id = 7001")
            .unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Float64(9.0));
        // …but another session does not until COMMIT.
        let peer = db.new_session();
        assert_eq!(
            count(&peer, "SELECT COUNT(*) FROM sales WHERE id = 7001"),
            0
        );
        assert!(matches!(
            db.execute("COMMIT").unwrap(),
            QueryResult::Txn(TxnAck::Committed)
        ));
        assert!(!db.in_transaction());
        assert_eq!(
            count(&peer, "SELECT COUNT(*) FROM sales WHERE id = 7001"),
            1
        );
    }

    #[test]
    fn txn_rollback_undoes_all_statements() {
        let db = db();
        let before = count(&db, "SELECT COUNT(*) FROM sales");
        db.execute("BEGIN TRANSACTION").unwrap();
        db.execute("INSERT INTO sales VALUES (7002, 1, 1.0, 0), (7003, 2, 2.0, 0)")
            .unwrap();
        db.execute("DELETE FROM sales WHERE id = 0").unwrap();
        db.execute("UPDATE sales SET amount = 0.0 WHERE id = 1")
            .unwrap();
        assert!(matches!(
            db.execute("ROLLBACK").unwrap(),
            QueryResult::Txn(TxnAck::RolledBack)
        ));
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales"), before);
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales WHERE id = 0"), 1);
        let r = db.execute("SELECT amount FROM sales WHERE id = 1").unwrap();
        assert_ne!(r.rows()[0].get(0), &Value::Float64(0.0));
    }

    #[test]
    fn txn_snapshot_isolates_from_concurrent_commits() {
        let db = db();
        let reader = db.new_session();
        reader.execute("BEGIN").unwrap();
        // Pin the snapshot with a read, then change the table underneath.
        let before = count(&reader, "SELECT COUNT(*) FROM sales");
        db.execute("INSERT INTO sales VALUES (7004, 1, 1.0, 0)")
            .unwrap();
        db.execute("DELETE FROM sales WHERE id = 2").unwrap();
        // The open transaction still sees its BEGIN-time view.
        assert_eq!(count(&reader, "SELECT COUNT(*) FROM sales"), before);
        assert_eq!(count(&reader, "SELECT COUNT(*) FROM sales WHERE id = 2"), 1);
        reader.execute("COMMIT").unwrap();
        // After COMMIT the session reads the live image again.
        assert_eq!(count(&reader, "SELECT COUNT(*) FROM sales"), before);
        assert_eq!(count(&reader, "SELECT COUNT(*) FROM sales WHERE id = 2"), 0);
    }

    #[test]
    fn txn_control_statement_errors() {
        let db = db();
        assert!(db.execute("COMMIT").is_err());
        assert!(db.execute("ROLLBACK").is_err());
        db.execute("BEGIN").unwrap();
        // Nested BEGIN is an error but must not poison the open txn.
        assert!(db.execute("BEGIN").is_err());
        db.execute("INSERT INTO sales VALUES (7005, 1, 1.0, 0)")
            .unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales WHERE id = 7005"), 1);
    }

    #[test]
    fn txn_statement_failure_poisons_until_rollback() {
        let db = db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO sales VALUES (7006, 1, 1.0, 0)")
            .unwrap();
        // Second row violates NOT NULL: the whole statement must be undone
        // and the transaction poisoned.
        let err = db
            .execute("INSERT INTO sales VALUES (7007, 2, 2.0, 0), (7008, NULL, 3.0, 0)")
            .unwrap_err();
        assert!(err.to_string().contains("NULL"), "{err}");
        let err = db
            .execute("SELECT COUNT(*) FROM sales")
            .unwrap_err()
            .to_string();
        assert!(err.contains("ROLLBACK required"), "{err}");
        // COMMIT on a poisoned transaction rolls back and reports the error.
        let err = db.execute("COMMIT").unwrap_err().to_string();
        assert!(err.contains("rolled back"), "{err}");
        assert!(!db.in_transaction());
        assert_eq!(
            count(
                &db,
                "SELECT COUNT(*) FROM sales WHERE id >= 7006 AND id <= 7008"
            ),
            0
        );
    }

    #[test]
    fn txn_locked_row_conflicts_with_autocommit_writer() {
        let db = db();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE sales SET amount = 1.0 WHERE id = 3")
            .unwrap();
        let peer = db.new_session();
        let err = peer.execute("DELETE FROM sales WHERE id = 3").unwrap_err();
        assert_eq!(err.code(), "CONFLICT");
        db.execute("COMMIT").unwrap();
        // Lock released: the peer's write now succeeds.
        assert_eq!(
            peer.execute("DELETE FROM sales WHERE id = 3")
                .unwrap()
                .affected(),
            1
        );
    }

    #[test]
    fn txn_write_write_conflict_between_sessions() {
        let db = db();
        let a = db.new_session();
        let b = db.new_session();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("UPDATE sales SET amount = 1.0 WHERE id = 4")
            .unwrap();
        // B touches the same row: statement-time lock detection aborts B.
        let err = b
            .execute("UPDATE sales SET amount = 2.0 WHERE id = 4")
            .unwrap_err();
        assert_eq!(err.code(), "CONFLICT");
        b.execute("ROLLBACK").unwrap();
        a.execute("COMMIT").unwrap();
        let r = db.execute("SELECT amount FROM sales WHERE id = 4").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::Float64(1.0));
        assert!(db.txns().counters().conflicts >= 1);
    }

    #[test]
    fn txn_ddl_and_save_are_rejected_inside_transaction() {
        let db = db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO sales VALUES (7009, 1, 1.0, 0)")
            .unwrap();
        let mut store = cstore_storage::blob::MemBlobStore::new();
        let err = db.save_to_store(&mut store).unwrap_err().to_string();
        assert!(err.contains("transaction is open"), "{err}");
        db.execute("ROLLBACK").unwrap();
        db.save_to_store(&mut store).unwrap();
    }

    #[test]
    fn txn_outcomes_reach_query_log_and_sys_transactions() {
        let db = db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO sales VALUES (7010, 1, 1.0, 0)")
            .unwrap();
        db.execute("ROLLBACK").unwrap();
        let rollbacks = count(
            &db,
            "SELECT COUNT(*) FROM sys.query_log WHERE status = 'ROLLBACK'",
        );
        assert_eq!(rollbacks, 1);
        let aborted = count(
            &db,
            "SELECT COUNT(*) FROM sys.transactions WHERE state = 'ABORTED'",
        );
        assert!(aborted >= 1);
        // A conflict shows up with its own status.
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE sales SET amount = 1.0 WHERE id = 5")
            .unwrap();
        let peer = db.new_session();
        assert!(peer.execute("DELETE FROM sales WHERE id = 5").is_err());
        db.execute("COMMIT").unwrap();
        let conflicts = count(
            &db,
            "SELECT COUNT(*) FROM sys.query_log WHERE status = 'CONFLICT'",
        );
        assert_eq!(conflicts, 1);
        let committed = count(
            &db,
            "SELECT COUNT(*) FROM sys.transactions WHERE state = 'COMMITTED'",
        );
        assert!(committed >= 1);
    }

    #[test]
    fn txn_delete_of_own_insert_nets_out() {
        let db = db();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO sales VALUES (7011, 1, 1.0, 0)")
            .unwrap();
        assert_eq!(
            db.execute("DELETE FROM sales WHERE id = 7011")
                .unwrap()
                .affected(),
            1
        );
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales WHERE id = 7011"), 0);
        db.execute("COMMIT").unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM sales WHERE id = 7011"), 0);
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;

    #[test]
    fn decimal_display_handles_signs_and_scales() {
        let f = |m: i64, scale: u8| {
            QueryResult::format_value(&Value::Decimal(m), DataType::Decimal { scale })
        };
        assert_eq!(f(1250, 2), "12.50");
        assert_eq!(f(5, 2), "0.05");
        assert_eq!(f(-25, 2), "-0.25");
        assert_eq!(f(-1250, 2), "-12.50");
        assert_eq!(f(0, 2), "0.00");
        assert_eq!(f(7, 0), "7");
        assert_eq!(f(123456, 4), "12.3456");
    }
}
