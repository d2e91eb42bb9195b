//! Layer probes: one engine crate's public functions, called in
//! isolation on the workload's own data, each call under its own span.
//!
//! A probe answers "how fast is this layer by itself here", which the
//! end-to-end numbers cannot: `exec` operators over batches cut from the
//! fact table, `storage` kernels over the table's own segments, the
//! `delta` insert path with and without a WAL.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use cstore_common::{DataType, Row, Value};
use cstore_core::{Database, TableEntry};
use cstore_delta::{ColumnStoreTable, TableConfig, Wal, WalHandle, WalOptions};
use cstore_exec::ops::collect_rows;
use cstore_exec::{
    AggExpr, AggFunc, Batch, BatchHashJoin, BatchSource, BitmapFilter, ExecContext, Expr,
    HashAggOp, JoinType,
};
use cstore_storage::encode::{PayloadKind, PrimaryEncoding};
use cstore_storage::pred::{CmpOp, ColumnPred};
use cstore_storage::{CompressionLevel, FileLogStore, RowGroupBuilder, SortMode};
use cstore_workload::StarSchema;

use crate::harness::{col, raw_bytes, Report};
use crate::stats::median_or_zero;

/// Fact rows a probe works on.
const PROBE_ROWS: usize = 1 << 16;
/// Build-side rows of the join probe / groups of the aggregation probe.
const BUILD_ROWS: i64 = 20_000;
/// Timed repetitions per probe; the median is reported.
const REPS: usize = 7;

/// Median nanoseconds of `f` over [`REPS`] calls, each under a span.
/// `prepare` builds the call's input outside the timed part.
fn time_ns<I, R>(
    report: &mut Report,
    name: &str,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let input = prepare();
        let op = report.spans.new_op();
        let (r, ns) = report.spans.timed(None, op, name, || f(input));
        black_box(r);
        samples.push(ns as f64);
    }
    median_or_zero(&samples)
}

/// Run every probe. `rows` are the workload's generated fact rows,
/// `config` its fact-table configuration.
pub fn run_all(
    db: &Database,
    rows: &[Row],
    config: &TableConfig,
    scratch: &Path,
    report: &mut Report,
) {
    let rows = &rows[..rows.len().min(PROBE_ROWS)];
    exec_probes(rows, report);
    storage_probes(db, rows, report);
    delta_probes(rows, config, scratch, report);
}

// --------------------------------------------------------------------- exec

fn exec_probes(rows: &[Row], report: &mut Report) {
    let n = rows.len() as f64;
    // (key in 0..BUILD_ROWS, quantity) cut from the fact rows.
    let types = vec![DataType::Int64, DataType::Int64];
    let probe_rows: Vec<Row> = rows
        .iter()
        .map(|r| {
            let key = r.get(col::SALE_ID).as_i64().expect("sale_id") % BUILD_ROWS;
            let qty = r.get(col::QUANTITY).as_i64().expect("quantity");
            Row::new(vec![Value::Int64(key), Value::Int64(qty)])
        })
        .collect();
    let build_rows: Vec<Row> = (0..BUILD_ROWS)
        .map(|k| Row::new(vec![Value::Int64(k), Value::Int64(k * 3)]))
        .collect();
    let batches = |rows: &[Row]| -> Vec<Batch> {
        rows.chunks(cstore_exec::BATCH_SIZE)
            .map(|c| Batch::from_rows(&types, c).expect("probe batch"))
            .collect()
    };
    let (probe_batches, build_batches) = (batches(&probe_rows), batches(&build_rows));
    let join = |probe: Vec<Batch>, build: Vec<Batch>| {
        let j = BatchHashJoin::new(
            Box::new(BatchSource::new(types.clone(), probe)),
            Box::new(BatchSource::new(types.clone(), build)),
            vec![0],
            vec![0],
            JoinType::Inner,
            ExecContext::default(),
        )
        .expect("hash join");
        collect_rows(Box::new(j)).expect("join rows").len()
    };
    // An empty probe side leaves only the build.
    let build_ns = time_ns(
        report,
        "exec.probe.join_build",
        || build_batches.clone(),
        |build| join(Vec::new(), build),
    );
    let full_ns = time_ns(
        report,
        "exec.probe.join",
        || (probe_batches.clone(), build_batches.clone()),
        |(probe, build)| join(probe, build),
    );
    report.layer(
        "exec.probe.join_build_ns_per_row",
        build_ns / BUILD_ROWS as f64,
    );
    report.layer(
        "exec.probe.join_probe_ns_per_row",
        (full_ns - build_ns).max(0.0) / n,
    );

    let agg_ns = time_ns(
        report,
        "exec.probe.agg",
        || probe_batches.clone(),
        |input| {
            let a = HashAggOp::new(
                Box::new(BatchSource::new(types.clone(), input)),
                vec![Expr::col(0)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                ],
                ExecContext::default(),
            )
            .expect("hash aggregate");
            collect_rows(Box::new(a)).expect("groups").len()
        },
    );
    report.layer("exec.probe.agg_ns_per_row", agg_ns / n);

    let pred = Expr::and(
        Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(8i64)),
        Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(BUILD_ROWS / 2)),
    );
    let pred_ns = time_ns(
        report,
        "exec.probe.pred",
        || (),
        |()| {
            probe_batches
                .iter()
                .map(|b| pred.eval_pred(b).expect("predicate").count_ones())
                .sum::<usize>()
        },
    );
    report.layer("exec.probe.pred_ns_per_row", pred_ns / n);

    let keys: Vec<i64> = (0..BUILD_ROWS).step_by(3).collect();
    let filter = BitmapFilter::build(&keys).expect("bitmap filter over a narrow key domain");
    let probes: Vec<i64> = probe_rows
        .iter()
        .map(|r| r.get(0).as_i64().expect("key"))
        .collect();
    let bitmap_ns = time_ns(
        report,
        "exec.probe.bitmap",
        || (),
        |()| probes.iter().filter(|&&k| filter.maybe_contains(k)).count(),
    );
    report.layer("exec.probe.bitmap_ns_per_probe", bitmap_ns / n);
}

// ------------------------------------------------------------------ storage

fn family(primary: PrimaryEncoding, payload: PayloadKind) -> &'static str {
    match (primary, payload) {
        (PrimaryEncoding::Dictionary, PayloadKind::Rle) => "dict_rle",
        (PrimaryEncoding::Dictionary, PayloadKind::BitPacked) => "dict_bitpack",
        (PrimaryEncoding::ValueBased, PayloadKind::Rle) => "value_rle",
        (PrimaryEncoding::ValueBased, PayloadKind::BitPacked) => "value_bitpack",
    }
}

fn storage_probes(db: &Database, rows: &[Row], report: &mut Report) {
    // Decode: every hot segment of every columnstore table, grouped by
    // encoding family. A family the workload's data never chose reads 0.
    let tables: Vec<ColumnStoreTable> = db
        .catalog()
        .table_names()
        .into_iter()
        .filter_map(|n| match db.catalog().get(&n) {
            Some(TableEntry::ColumnStore(t)) => Some(t),
            _ => None,
        })
        .collect();
    let mut groups = Vec::new();
    for t in &tables {
        // At most a handful of groups per table: the kernels' speed does
        // not depend on how many groups there are.
        groups.extend(t.introspect().groups.into_iter().take(4));
    }
    let mut per_family: [(f64, f64); 4] = [(0.0, 0.0); 4];
    const FAMILIES: [&str; 4] = ["dict_rle", "dict_bitpack", "value_rle", "value_bitpack"];
    for g in groups
        .iter()
        .filter(|g| g.level() == CompressionLevel::Columnstore)
    {
        for c in 0..g.n_columns() {
            let meta = g.seg_meta(c);
            if meta.null_count == meta.row_count {
                // `ColumnSegment::decode` indexes an empty dictionary on
                // an all-NULL dictionary segment and panics (the scan path
                // never decodes such a segment whole); see README.
                continue;
            }
            let fam = family(meta.primary, meta.payload);
            let ns = time_ns(
                report,
                &format!("storage.probe.decode.{fam}"),
                || (),
                |()| g.open_segment(c).expect("hot segment").decode().len(),
            );
            let slot = FAMILIES.iter().position(|f| *f == fam).expect("family");
            per_family[slot].0 += ns;
            per_family[slot].1 += f64::from(meta.row_count);
        }
    }
    for (fam, (ns, values)) in FAMILIES.iter().zip(per_family) {
        report.layer(
            &format!("storage.decode_ns_per_value.{fam}"),
            if values > 0.0 { ns / values } else { 0.0 },
        );
    }

    // Encode one row group from the fact rows, then predicate-on-codes,
    // archive and unarchive on that group.
    let schema = StarSchema::sales_schema();
    let encode_ns = time_ns(
        report,
        "storage.probe.encode",
        || (),
        |()| {
            let mut b = RowGroupBuilder::new(schema.clone(), SortMode::default());
            for r in rows {
                b.push_row(r).expect("push row");
            }
            b.finish(cstore_common::rid::RowGroupId(0), &[])
                .expect("encode row group")
        },
    );
    report.layer(
        "storage.encode_rows_per_s",
        rows.len() as f64 / (encode_ns / 1e9),
    );
    let mut builder = RowGroupBuilder::new(schema.clone(), SortMode::default());
    for r in rows {
        builder.push_row(r).expect("push row");
    }
    let group = builder
        .finish(cstore_common::rid::RowGroupId(0), &[])
        .expect("encode row group");
    let encoded = group.encoded_bytes() as f64;
    report.layer(
        "storage.encoded_bytes_per_raw_byte",
        encoded / raw_bytes(&schema, rows) as f64,
    );

    let pred = ColumnPred::Cmp {
        op: CmpOp::Gt,
        value: Value::Int32(8),
    };
    let quantity = group.open_segment(col::QUANTITY).expect("quantity segment");
    let pred_ns = time_ns(
        report,
        "storage.probe.pred",
        || (),
        |()| {
            quantity
                .eval_pred(&pred)
                .expect("predicate on codes")
                .count_ones()
        },
    );
    report.layer("storage.pred_ns_per_value", pred_ns / rows.len() as f64);

    let archive_ns = time_ns(
        report,
        "storage.probe.archive",
        || group.clone(),
        |mut g| {
            g.archive().expect("archive");
            g
        },
    );
    report.layer(
        "storage.archive_mb_per_s",
        encoded / (1 << 20) as f64 / (archive_ns / 1e9),
    );
    let mut archived = group.clone();
    archived.archive().expect("archive");
    report.layer(
        "storage.archived_bytes_per_encoded_byte",
        archived.encoded_bytes() as f64 / encoded,
    );
    let unarchive_ns = time_ns(
        report,
        "storage.probe.unarchive",
        || archived.clone(),
        |mut g| {
            g.unarchive().expect("unarchive");
            g
        },
    );
    report.layer("storage.unarchive_ms_per_group", unarchive_ns / 1e6);
}

// -------------------------------------------------------------------- delta

/// Rows inserted per timed call of the insert probes.
const INSERT_BATCH: usize = 2_000;

fn delta_probes(rows: &[Row], config: &TableConfig, scratch: &Path, report: &mut Report) {
    let schema = StarSchema::sales_schema();
    let batch = &rows[..rows.len().min(INSERT_BATCH)];
    let insert_all = |t: &ColumnStoreTable| {
        for r in batch {
            t.insert(r.clone()).expect("insert");
        }
    };
    // Trickle insert without a WAL: schema check, B-tree insert, id
    // allocation.
    let plain = ColumnStoreTable::new(schema.clone(), config.clone());
    let ns = time_ns(report, "delta.probe.insert", || (), |()| insert_all(&plain));
    report.layer("delta.insert_us", ns / 1e3 / batch.len() as f64);

    // The same with a file-backed WAL (default group commit): the gap to
    // the line above is the log append plus the fsync wait.
    let wal_dir = scratch.join("probe-wal");
    let logged = ColumnStoreTable::new(schema.clone(), config.clone());
    let (wal, _) = Wal::open(
        Box::new(FileLogStore::open(&wal_dir).expect("probe WAL directory")),
        WalOptions::default(),
        None,
        &[],
    )
    .expect("open probe WAL");
    logged.set_wal(WalHandle {
        wal: Arc::clone(&wal),
        table: "sales".into(),
    });
    let ns = time_ns(
        report,
        "delta.probe.insert_wal",
        || (),
        |()| insert_all(&logged),
    );
    report.layer("delta.insert_wal_us", ns / 1e3 / batch.len() as f64);
    // Join the log-writer thread before its files go.
    logged.clear_wal();
    drop(logged);
    drop(wal);
    // lint: best-effort scratch cleanup; the run removes `scratch` anyway
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Scan of a table whose rows all sit in delta stores.
    let delta_rows = plain.stats().delta_rows as f64;
    let ns = time_ns(
        report,
        "delta.probe.snapshot_scan",
        || (),
        |()| plain.sum_i64(col::QUANTITY).expect("scan delta rows"),
    );
    report.layer("delta.snapshot_scan_ns_per_row", ns / delta_rows);
}

/// Time one tuple-mover pass over one closed delta store of the
/// workload's capacity, in seconds: the unit `delta.mover.busy_share`
/// multiplies by the stores the background mover moved.
pub fn mover_seconds_per_store(rows: &[Row], config: &TableConfig, report: &mut Report) -> f64 {
    let n = config.delta_capacity.min(rows.len());
    let ns = time_ns(
        report,
        "delta.probe.tuple_move",
        || {
            let t = ColumnStoreTable::new(StarSchema::sales_schema(), config.clone());
            t.insert_batch(&rows[..n]).expect("fill delta store");
            t.close_open_delta();
            t
        },
        |t| t.tuple_move_once().expect("tuple move"),
    );
    // Scale to a full store when the workload has fewer rows than one.
    ns / 1e9 * (config.delta_capacity as f64 / n as f64)
}
