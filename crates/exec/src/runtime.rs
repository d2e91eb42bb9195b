//! Execution context: memory budget, batch size, metrics, per-query stats.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cstore_common::governor::{MemoryLedger, QueryReservation};
use cstore_common::sync::Mutex;
use cstore_common::waits::WaitProfile;
use cstore_common::{Error, Result};

use crate::batch::BATCH_SIZE;

/// Fail with the standard timeout error once `deadline` has passed.
///
/// The stats wrappers call this at every operator boundary; operators
/// with internal loops that can run long between boundaries (spill
/// writes, partition merges, `sys.*` scans) call it directly so a
/// spilling join cannot overrun its deadline.
pub fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(Error::Timeout),
        _ => Ok(()),
    }
}

/// Declares the execution counters once: the live [`Metrics`] the
/// operators add to, the plain [`Counters`] copy a finished query is
/// reported with, and everything that must visit each counter.
macro_rules! exec_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters collected during execution; all monotonic, safe to
        /// read while the query runs.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`Metrics`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Metrics {
            pub fn counters(&self) -> Counters {
                Counters { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            /// Fold a finished query's counters into this (long-lived,
            /// cumulative) set.
            pub fn absorb(&self, c: &Counters) {
                $(self.$name.fetch_add(c.$name, Ordering::Relaxed);)*
            }
        }

        impl Counters {
            /// Visit every counter as `(name, value)`, in declaration order.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($name), self.$name);)*
            }
        }
    };
}

exec_counters! {
    /// Rows produced by scans (after elimination, before filters).
    /// Includes both columnstore and delta-store rows.
    rows_scanned,
    /// Row groups skipped by segment elimination.
    groups_eliminated,
    /// Row groups actually read.
    groups_scanned,
    /// Rows dropped at scans by pushed-down bitmap filters.
    rows_dropped_by_bitmap,
    /// Batches produced by all operators.
    batches,
    /// Hash-join partitions spilled to disk.
    partitions_spilled,
    /// Bytes written to spill files.
    bytes_spilled,
    /// Rows scanned from delta stores (subset of `rows_scanned`).
    rows_scanned_delta,
    /// Rows probed against pushed-down bitmap filters.
    bitmap_probes,
    /// Bitmap filters installed in exact mode.
    bitmap_filters_exact,
    /// Bitmap filters installed in Bloom mode.
    bitmap_filters_bloom,
    /// Rows collected on hash-join build sides.
    join_build_rows,
    /// Rows streamed through hash-join probe sides.
    join_probe_rows,
}

impl Metrics {
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Snapshot as (name, value) pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counters().named()
    }
}

impl Counters {
    /// `(name, value)` pairs in declaration order.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = Vec::new();
        self.for_each(|name, v| pairs.push((name, v)));
        pairs
    }
}

/// Per-operator actuals collected while a query runs. One instance per
/// physical operator, registered in [`ExecStats`] keyed by the plan's
/// pre-order node index (the same numbering `explain` renders).
#[derive(Debug, Default)]
pub struct OpStats {
    /// Pre-order index of the logical node this operator implements.
    pub node: usize,
    /// Operator label as rendered by EXPLAIN (e.g. `Scan sales`).
    pub label: String,
    /// Rows emitted by this operator.
    pub rows_out: AtomicU64,
    /// Batches (or row-mode `next()` calls yielding a row) emitted.
    pub batches_out: AtomicU64,
    /// Wall time spent inside this operator's `next()`, nanoseconds.
    /// Inclusive of children (pull-based executor).
    pub elapsed_ns: AtomicU64,
}

impl OpStats {
    pub fn record(&self, rows: u64, elapsed_ns: u64) {
        if rows > 0 {
            self.rows_out.fetch_add(rows, Ordering::Relaxed);
            self.batches_out.fetch_add(1, Ordering::Relaxed);
        }
        self.elapsed_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    }

    pub fn rows(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    pub fn batches(&self) -> u64 {
        self.batches_out.load(Ordering::Relaxed)
    }

    pub fn elapsed_nanos(&self) -> u64 {
        self.elapsed_ns.load(Ordering::Relaxed)
    }
}

/// Registry of per-operator stats for one query execution. Fresh per
/// query (see [`ExecContext::for_query`]); operators register themselves
/// while the physical plan is built and EXPLAIN ANALYZE reads the
/// results after the root is drained.
#[derive(Debug)]
pub struct ExecStats {
    op_stats: Mutex<Vec<Arc<OpStats>>>,
}

impl Default for ExecStats {
    fn default() -> Self {
        ExecStats {
            op_stats: Mutex::new_leveled(6, "exec.op_stats", Vec::new()),
        }
    }
}

impl ExecStats {
    /// Register stats for the operator implementing pre-order `node`.
    pub fn register(&self, node: usize, label: impl Into<String>) -> Arc<OpStats> {
        let stats = Arc::new(OpStats {
            node,
            label: label.into(),
            ..OpStats::default()
        });
        self.op_stats.lock().push(Arc::clone(&stats));
        stats
    }

    /// All registered operators, sorted by pre-order node index.
    pub fn operators(&self) -> Vec<Arc<OpStats>> {
        let mut ops: Vec<_> = self.op_stats.lock().iter().cloned().collect();
        ops.sort_by_key(|s| s.node);
        ops
    }

    /// Stats for pre-order node `node`, if an operator registered it.
    pub fn for_node(&self, node: usize) -> Option<Arc<OpStats>> {
        self.op_stats
            .lock()
            .iter()
            .find(|s| s.node == node)
            .cloned()
    }
}

/// What one plan execution did — the execution half of a statement's
/// profile, taken from the query's context when the plan finishes or
/// fails. The counters are a copy; the per-operator stats and the wait
/// frame are the query's own, shared and by then quiescent. `EXPLAIN
/// ANALYZE` renders this; `cstore_core` files it under the statement.
#[derive(Clone)]
pub struct ExecProfile {
    /// Rows the plan returned.
    pub rows_returned: u64,
    /// Wall time from optimize to the last row.
    pub elapsed: Duration,
    pub counters: Counters,
    /// Per-operator actuals, sorted by pre-order node index.
    pub operators: Vec<Arc<OpStats>>,
    /// The statement's wait-class breakdown.
    pub waits: Arc<WaitProfile>,
}

impl ExecProfile {
    /// The profile of a statement that has run no plan (yet): all zeros
    /// over the statement's wait frame.
    pub fn idle(waits: Arc<WaitProfile>) -> ExecProfile {
        ExecProfile {
            rows_returned: 0,
            elapsed: Duration::ZERO,
            counters: Counters::default(),
            operators: Vec::new(),
            waits,
        }
    }
}

/// Shared execution context, cloned into every operator.
#[derive(Clone)]
pub struct ExecContext {
    /// Memory budget for blocking operators (hash join build side); beyond
    /// this, operators spill.
    pub memory_budget: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Directory for spill files.
    pub spill_dir: PathBuf,
    /// Whether hash joins may push bitmap (Bloom) filters into probe-side
    /// scans. On by default; the ablation experiment (E4) turns it off.
    pub enable_bitmap_filters: bool,
    /// Worker threads per columnstore scan (1 = serial).
    pub parallelism: usize,
    /// Shared metrics.
    pub metrics: Arc<Metrics>,
    /// Per-operator stats for the current query (fresh per `for_query`).
    pub stats: Arc<ExecStats>,
    /// Wall-clock point after which the query must abort with a clean
    /// `Error::Timeout` (set per query from `SET query_timeout_ms`).
    /// Checked at every operator boundary by the stats wrappers.
    pub deadline: Option<Instant>,
    /// Process-wide memory ledger shared by every concurrent query
    /// (installed by the database's resource governor; `None` when
    /// ungoverned).
    pub ledger: Option<Arc<MemoryLedger>>,
    /// This query's running reservation against `ledger` (fresh per
    /// [`ExecContext::for_query`]; outstanding bytes return to the
    /// ledger when the query's context drops).
    pub alloc: Option<Arc<QueryReservation>>,
    /// This query's wait-class breakdown. `for_query` adopts the frame
    /// already installed on the thread (so waits recorded before the
    /// context existed — admission queueing — are visible here), else
    /// starts a fresh one.
    pub waits: Arc<WaitProfile>,
    /// Per-table snapshot overrides for this query, keyed by lower-cased
    /// table name. Installed by an open transaction so every scan sees
    /// the transaction's stable view (base snapshot + its own buffered
    /// writes) instead of the table's live state. `None` (the default)
    /// scans live.
    pub snapshots: Option<Arc<HashMap<String, cstore_delta::TableSnapshot>>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            memory_budget: 256 << 20,
            batch_size: BATCH_SIZE,
            spill_dir: std::env::temp_dir(),
            enable_bitmap_filters: true,
            parallelism: 1,
            metrics: Arc::new(Metrics::default()),
            stats: Arc::new(ExecStats::default()),
            deadline: None,
            ledger: None,
            alloc: None,
            waits: Arc::new(WaitProfile::new()),
            snapshots: None,
        }
    }
}

impl ExecContext {
    /// Fork a per-query context: same configuration, fresh [`Metrics`]
    /// and [`ExecStats`]. Callers fold the per-query counters back into
    /// a cumulative `Metrics` with [`Metrics::absorb`] when done.
    pub fn for_query(&self) -> ExecContext {
        ExecContext {
            metrics: Arc::new(Metrics::default()),
            stats: Arc::new(ExecStats::default()),
            alloc: self
                .ledger
                .as_ref()
                .map(|l| Arc::new(QueryReservation::new(Arc::clone(l)))),
            waits: cstore_common::waits::current().unwrap_or_default(),
            ..self.clone()
        }
    }

    /// What this (per-query) context's plan has done `elapsed` into its
    /// run; the caller adds the row count once there is a result.
    pub fn profile(&self, elapsed: Duration) -> ExecProfile {
        ExecProfile {
            elapsed,
            counters: self.metrics.counters(),
            operators: self.stats.operators(),
            ..ExecProfile::idle(Arc::clone(&self.waits))
        }
    }

    /// A context with a specific memory budget (spill experiments).
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.batch_size = rows.max(1);
        self
    }

    /// Disable bitmap-filter pushdown (ablation).
    pub fn without_bitmap_filters(mut self) -> Self {
        self.enable_bitmap_filters = false;
        self
    }

    /// Scan with `k` worker threads per columnstore scan.
    pub fn with_parallelism(mut self, k: usize) -> Self {
        self.parallelism = k.max(1);
        self
    }

    /// Abort execution once `deadline` passes (per-query timeout).
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Scan these tables from fixed snapshots instead of live state —
    /// how an open transaction pins its stable view for the query.
    pub fn with_snapshots(
        mut self,
        snapshots: Option<Arc<HashMap<String, cstore_delta::TableSnapshot>>>,
    ) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// The snapshot override for `table` (case-insensitive), if any.
    pub fn snapshot_for(&self, table: &str) -> Option<cstore_delta::TableSnapshot> {
        self.snapshots
            .as_ref()?
            .get(&table.to_ascii_lowercase())
            .cloned()
    }

    /// Share `ledger` with every query forked from this context. Each
    /// [`ExecContext::for_query`] then gets its own [`QueryReservation`]
    /// so N concurrent queries draw from one ceiling.
    pub fn with_ledger(mut self, ledger: Arc<MemoryLedger>) -> Self {
        self.alloc = Some(Arc::new(QueryReservation::new(Arc::clone(&ledger))));
        self.ledger = Some(ledger);
        self
    }

    /// Reserve `bytes` against the shared ledger; a no-op `Ok` when
    /// ungoverned. A clean `Error::ResourceExhausted` means "spill now"
    /// to operators that can, and propagates to the client otherwise.
    pub fn reserve_memory(&self, bytes: usize) -> Result<()> {
        match &self.alloc {
            Some(a) => a.reserve(bytes as u64),
            None => Ok(()),
        }
    }

    /// Return `bytes` of this query's reservation to the shared ledger.
    pub fn release_memory(&self, bytes: usize) {
        if let Some(a) = &self.alloc {
            a.release(bytes as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let m = Metrics::default();
        m.add(&m.rows_scanned, 10);
        m.add(&m.rows_scanned, 5);
        assert_eq!(Metrics::get(&m.rows_scanned), 15);
        let snap = m.snapshot();
        assert_eq!(snap[0], ("rows_scanned", 15));
    }

    #[test]
    fn context_builders() {
        let ctx = ExecContext::default().with_budget(1024).with_batch_size(0);
        assert_eq!(ctx.memory_budget, 1024);
        assert_eq!(ctx.batch_size, 1, "batch size clamps to >= 1");
    }

    #[test]
    fn merge_folds_every_counter() {
        let q = Metrics::default();
        q.add(&q.rows_scanned, 7);
        q.add(&q.bitmap_probes, 3);
        q.add(&q.join_probe_rows, 2);
        let total = Metrics::default();
        total.add(&total.rows_scanned, 100);
        total.absorb(&q.counters());
        assert_eq!(Metrics::get(&total.rows_scanned), 107);
        assert_eq!(Metrics::get(&total.bitmap_probes), 3);
        assert_eq!(Metrics::get(&total.join_probe_rows), 2);
    }

    #[test]
    fn for_query_forks_metrics_but_keeps_config() {
        let ctx = ExecContext::default().with_budget(4096);
        ctx.metrics.add(&ctx.metrics.rows_scanned, 9);
        let q = ctx.for_query();
        assert_eq!(q.memory_budget, 4096);
        assert_eq!(Metrics::get(&q.metrics.rows_scanned), 0);
        assert!(q.stats.operators().is_empty());
    }

    #[test]
    fn check_deadline_trips_only_when_past() {
        check_deadline(None).unwrap();
        check_deadline(Some(Instant::now() + std::time::Duration::from_secs(60))).unwrap();
        let err = check_deadline(Some(Instant::now())).unwrap_err();
        assert!(matches!(err, Error::Timeout), "{err:?}");
        assert!(err.to_string().contains("query timeout"), "{err}");
    }

    #[test]
    fn ledger_wiring_forks_fresh_reservations_per_query() {
        let ledger = Arc::new(MemoryLedger::default());
        ledger.set_limit(1000);
        let ctx = ExecContext::default().with_ledger(Arc::clone(&ledger));
        let q1 = ctx.for_query();
        let q2 = ctx.for_query();
        q1.reserve_memory(600).unwrap();
        let err = q2.reserve_memory(600).unwrap_err();
        assert_eq!(err.code(), "RESOURCE_EXHAUSTED");
        q1.release_memory(600);
        q2.reserve_memory(600).unwrap();
        drop(q2);
        assert_eq!(ledger.reserved(), 0, "drop returns outstanding bytes");
        // Ungoverned contexts are no-ops.
        let plain = ExecContext::default().for_query();
        plain.reserve_memory(usize::MAX).unwrap();
        plain.release_memory(1);
    }

    #[test]
    fn exec_stats_register_and_sort() {
        let stats = ExecStats::default();
        let b = stats.register(2, "Filter");
        let a = stats.register(0, "Scan t");
        a.record(10, 1_000);
        a.record(0, 500); // empty poll: time counted, no batch
        b.record(4, 2_000);
        let ops = stats.operators();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].node, 0);
        assert_eq!(ops[0].rows(), 10);
        assert_eq!(ops[0].batches(), 1);
        assert_eq!(ops[0].elapsed_nanos(), 1_500);
        assert_eq!(stats.for_node(2).map(|s| s.rows()), Some(4));
    }
}
