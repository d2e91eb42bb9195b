//! The five workloads. Names are permanent: results are compared by them.
//!
//! Every workload runs the same life-cycle — set up, a timed phase of
//! `--seconds`, restart from disk, final save — and reports every
//! end-to-end metric; what differs is the mix inside the timed phase and
//! the state of the data, i.e. which engine layers carry the weight.

mod bulk_load_persist;
mod hybrid_read_write;
mod read_side;
mod scan_filter;
mod star_join_agg;
mod trickle_ingest;

use cstore_common::waits::{global_snapshot, WaitSnapshot};
use cstore_core::Database;
use cstore_delta::wal::WalCounters;

use crate::harness::{sales_row_raw_bytes, Report, RunArgs};

/// Run the workload `args` names.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    match args.workload.as_str() {
        "scan_filter" => Ok(scan_filter::run(args)),
        "star_join_agg" => Ok(star_join_agg::run(args)),
        "trickle_ingest" => Ok(trickle_ingest::run(args)),
        "hybrid_read_write" => Ok(hybrid_read_write::run(args)),
        "bulk_load_persist" => Ok(bulk_load_persist::run(args)),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// WAL counters and the WAL_COMMIT wait total at the start of a write
/// phase; [`WalWindow::report`] turns the difference at its end into the
/// `delta.wal.*` metrics. Both are read from what the engine publishes
/// (`Database::wal_status`, the process-wide wait accumulator).
pub struct WalWindow {
    counters: WalCounters,
    commit_wait_ns: u64,
}

fn wait_total_ns(snapshot: &[WaitSnapshot], class: &str) -> u64 {
    snapshot
        .iter()
        .filter(|w| w.class == class)
        .map(|w| w.total_ns)
        .sum()
}

impl WalWindow {
    pub fn open(db: &Database) -> WalWindow {
        WalWindow {
            counters: db.wal_status().expect("a WAL is attached").counters,
            commit_wait_ns: wait_total_ns(&global_snapshot(), "WAL_COMMIT"),
        }
    }

    /// Whether nothing was logged since the window opened.
    pub fn untouched(&self, db: &Database) -> bool {
        let now = db.wal_status().expect("a WAL is attached").counters;
        now.records_appended == self.counters.records_appended && now.fsyncs == self.counters.fsyncs
    }

    /// `ops` write operations carrying `rows` fact rows ran in the window.
    pub fn report(&self, db: &Database, ops: u64, rows: u64, report: &mut Report) {
        let now = db.wal_status().expect("a WAL is attached").counters;
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let ops = ops.max(1) as f64;
        report.layer(
            "delta.wal.fsyncs_per_op",
            d(now.fsyncs, self.counters.fsyncs) / ops,
        );
        report.layer(
            "delta.wal.bytes_per_user_byte",
            d(now.bytes_appended, self.counters.bytes_appended)
                / (rows.max(1) * sales_row_raw_bytes()) as f64,
        );
        report.layer(
            "delta.wal.records_per_flush",
            d(now.records_appended, self.counters.records_appended)
                / d(now.flushes, self.counters.flushes).max(1.0),
        );
        let waited = wait_total_ns(&global_snapshot(), "WAL_COMMIT") - self.commit_wait_ns;
        report.layer("delta.wal.commit_wait_ms_per_op", waited as f64 / 1e6 / ops);
    }
}

/// The `common.waits.*` metrics: process-wide totals per wait class at
/// the end of the run (each workload is its own process).
pub fn report_waits(report: &mut Report) {
    let snap = global_snapshot();
    let ms = |class: &str| wait_total_ns(&snap, class) as f64 / 1e6;
    report.layer("common.waits.wal_commit_ms", ms("WAL_COMMIT"));
    report.layer("common.waits.admission_ms", ms("ADMISSION"));
    report.layer("common.waits.backpressure_ms", ms("BACKPRESSURE"));
    report.layer("common.waits.spill_io_ms", ms("SPILL_IO"));
    report.layer("common.waits.mover_idle_ms", ms("MOVER"));
    // The memory ledger never blocks; its wait class counts denials.
    report.layer(
        "common.waits.memory_grant_denials",
        snap.iter()
            .filter(|w| w.class == "MEMORY_GRANT")
            .map(|w| w.count)
            .sum::<u64>() as f64,
    );
    report.layer(
        "common.waits.lock_ms",
        snap.iter()
            .filter(|w| w.class.starts_with("LOCK_"))
            .map(|w| w.total_ns)
            .sum::<u64>() as f64
            / 1e6,
    );
}
