//! The staged replay: drive one SELECT through the engine's public
//! pipeline exactly as `Database::run_plan` does — parse → bind →
//! optimize → build_physical → collect_rows — with a span around each
//! call, and the traced pass that turns those spans and the engine's own
//! per-operator statistics into the per-layer read metrics.
//!
//! No timer or counter is added inside any engine crate: stage times are
//! measured around public calls, operator times are the engine's
//! `OpStats`, counts are the engine's `Metrics`.

use std::time::Instant;

use cstore_common::testutil::Rng;
use cstore_common::{Error, Result, Row};
use cstore_core::{Database, ExecMode, SysCatalog};
use cstore_exec::ops::collect_rows;
use cstore_planner::{build_physical, LogicalPlan};
use cstore_sql::Statement;

use crate::harness::{verify, ReadClass, Report};
use crate::spans::SpanLog;
use crate::stats::median_or_zero;

/// The five pipeline stages, in order; span names are these.
pub const STAGES: [&str; 5] = [
    "sql.parse",
    "sql.bind",
    "planner.optimize",
    "planner.build_physical",
    "exec.collect",
];

/// Operator kinds self time is attributed to.
pub const OP_KINDS: [&str; 6] = ["scan", "filter", "join", "agg", "sort", "other"];

fn op_kind(label: &str) -> usize {
    match label {
        l if l.starts_with("Scan") => 0,
        "Filter" => 1,
        l if l.starts_with("HashJoin") => 2,
        "HashAggregate" => 3,
        "Sort" => 4,
        _ => 5,
    }
}

/// One statement's trip through the staged pipeline.
pub struct Staged {
    pub rows: Vec<Row>,
    /// Nanoseconds per stage, in [`STAGES`] order.
    pub stage_ns: [u64; 5],
    /// Root span duration (the whole staged statement).
    pub total_ns: u64,
    /// Operator self time per kind, in [`OP_KINDS`] order.
    pub op_self_ns: [u64; 6],
    /// The engine's per-query execution counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// Self time per operator kind: each logical node's inclusive `OpStats`
/// time minus its children's, the tree taken from the optimized plan in
/// the pre-order numbering `build_physical` registers operators under.
fn op_self_times(plan: &LogicalPlan, stats: &cstore_exec::runtime::ExecStats) -> [u64; 6] {
    fn walk(
        plan: &LogicalPlan,
        node: &mut usize,
        stats: &cstore_exec::runtime::ExecStats,
        out: &mut [u64; 6],
    ) -> u64 {
        let id = *node;
        *node += 1;
        let children: u64 = plan
            .children()
            .into_iter()
            .map(|c| walk(c, node, stats, out))
            .sum();
        let Some(op) = stats.for_node(id) else {
            // A node without its own operator (none today in batch mode):
            // its time is inside its parent's.
            return children;
        };
        let inclusive = op.elapsed_nanos();
        out[op_kind(&op.label)] += inclusive.saturating_sub(children);
        inclusive
    }
    let mut out = [0u64; 6];
    walk(plan, &mut 0, stats, &mut out);
    out
}

/// Run one SELECT (or UNION ALL) through the staged pipeline, recording a
/// root span named `name` and one child span per stage.
pub fn staged_select(db: &Database, name: &str, sql: &str, log: &mut SpanLog) -> Result<Staged> {
    let op = log.new_op();
    let t0 = log.now_ns();
    let root = log.record(None, op, name, t0, t0);
    let mut stage_ns = [0u64; 5];

    let (stmt, ns) = log.timed(Some(root), op, STAGES[0], || cstore_sql::parse(sql));
    stage_ns[0] = ns;
    let stmt = stmt?;
    // `sys.*` views resolve through the same catalog wrapper the engine
    // uses, built per statement as `run_select` does.
    let catalog = SysCatalog::new(db.catalog(), db);
    let (plan, ns) = log.timed(Some(root), op, STAGES[1], || match &stmt {
        Statement::Select(s) => cstore_sql::bind_select(s, &catalog),
        Statement::UnionAll(branches) => cstore_sql::bind_union(branches, &catalog),
        _ => Err(Error::Sql("the staged replay takes SELECT only".into())),
    });
    stage_ns[1] = ns;
    let (plan, ns) = log.timed(Some(root), op, STAGES[2], || {
        cstore_planner::rules::optimize(plan?, &catalog)
    });
    stage_ns[2] = ns;
    let plan = plan?;
    let qctx = db.exec_context().for_query();
    let (phys, ns) = log.timed(Some(root), op, STAGES[3], || {
        build_physical(&plan, &catalog, &qctx, ExecMode::Auto)
    });
    stage_ns[3] = ns;
    let phys = phys?;
    let (rows, ns) = log.timed(Some(root), op, STAGES[4], || collect_rows(phys.root));
    stage_ns[4] = ns;
    let rows = rows?;
    let end = log.now_ns();
    log.close(root, end);
    Ok(Staged {
        rows,
        stage_ns,
        total_ns: end - t0,
        op_self_ns: op_self_times(&plan, &qctx.stats),
        counters: qctx.metrics.snapshot(),
    })
}

/// Per-layer read metrics from a traced pass over `classes`.
///
/// For every class: one fixed statement (so exact counts repeat for a
/// seed) is run `reps` times through plain `Database::execute` and `reps`
/// times through the staged replay, alternating. Stage and operator
/// times are per-class medians summed over classes — one rotation over
/// the workload's statement classes — and the `*_us` stage metrics are
/// the mean per statement of that rotation. Counts come from each
/// class's first staged execution, summed over classes.
pub fn traced_pass(
    db: &Database,
    classes: &[ReadClass],
    rng: &mut Rng,
    reps: usize,
    report: &mut Report,
) {
    let mut stage_sum_ns = [0.0f64; 5];
    let mut op_sum_ns = [0.0f64; 6];
    let (mut plain_sum_ns, mut staged_sum_ns) = (0.0f64, 0.0f64);
    // (plain median, stage-sum median) of the fastest class.
    let mut fastest: Option<(f64, f64)> = None;
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    let mut rows_returned = 0u64;
    for class in classes {
        let q = (class.make)(rng);
        let mut plain = Vec::with_capacity(reps);
        let mut total = Vec::with_capacity(reps);
        let mut stages: [Vec<f64>; 5] = Default::default();
        let mut ops: [Vec<f64>; 6] = Default::default();
        for rep in 0..reps {
            let t = Instant::now();
            let result = db.execute(&q.sql);
            plain.push(t.elapsed().as_nanos() as f64);
            report.op(verify(&result, &q.check), &q.sql);

            let mut log = std::mem::take(&mut report.spans);
            let staged = staged_select(db, class.name, &q.sql, &mut log);
            report.spans = log;
            let staged = match staged {
                Ok(s) => s,
                Err(e) => {
                    report.op(Err(format!("staged replay: {} {e}", e.code())), &q.sql);
                    continue;
                }
            };
            // The replay must return what `execute` returned.
            let same = match &result {
                Ok(r) => r.rows().len() == staged.rows.len(),
                Err(_) => false,
            };
            report.op(
                if same {
                    Ok(())
                } else {
                    Err("staged replay and execute disagree on the row count".into())
                },
                &q.sql,
            );
            total.push(staged.total_ns as f64);
            for (v, ns) in stages.iter_mut().zip(staged.stage_ns) {
                v.push(ns as f64);
            }
            for (v, ns) in ops.iter_mut().zip(staged.op_self_ns) {
                v.push(ns as f64);
            }
            if rep == 0 {
                rows_returned += staged.rows.len() as u64;
                for (name, v) in &staged.counters {
                    match counts.iter_mut().find(|(n, _)| n == name) {
                        Some(c) => c.1 += v,
                        None => counts.push((name, *v)),
                    }
                }
            }
        }
        let plain_ns = median_or_zero(&plain);
        plain_sum_ns += plain_ns;
        staged_sum_ns += median_or_zero(&total);
        let mut class_stages_ns = 0.0;
        for (sum, v) in stage_sum_ns.iter_mut().zip(&stages) {
            let m = median_or_zero(v);
            *sum += m;
            class_stages_ns += m;
        }
        if fastest.is_none_or(|(p, _)| plain_ns < p) {
            fastest = Some((plain_ns, class_stages_ns));
        }
        for (sum, v) in op_sum_ns.iter_mut().zip(&ops) {
            *sum += median_or_zero(v);
        }
    }

    let n = classes.len().max(1) as f64;
    for (name, sum) in [
        "sql.parse_us",
        "sql.bind_us",
        "planner.optimize_us",
        "planner.build_physical_us",
    ]
    .iter()
    .zip(stage_sum_ns)
    {
        report.layer(name, sum / n / 1e3);
    }
    report.layer("exec.collect_ms", stage_sum_ns[4] / 1e6);
    for (kind, sum) in OP_KINDS.iter().zip(op_sum_ns) {
        report.layer(&format!("exec.{kind}_self_ms"), sum / 1e6);
    }
    // What `execute` does beyond the five stages: admission, the wait
    // frame, the query log, the Query Store, the result envelope. A
    // difference of two medians, so it is taken on the workload's fastest
    // class, where a few microseconds are not lost in the statement's own
    // run-to-run noise.
    let (plain_ns, stages_ns) = fastest.unwrap_or((0.0, 0.0));
    report.layer("core.execute_overhead_us", (plain_ns - stages_ns) / 1e3);
    report.layer(
        "trace.overhead_share",
        if plain_sum_ns > 0.0 {
            (staged_sum_ns - plain_sum_ns) / plain_sum_ns
        } else {
            0.0
        },
    );
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    for name in [
        "rows_scanned",
        "rows_scanned_delta",
        "groups_scanned",
        "groups_eliminated",
        "rows_dropped_by_bitmap",
        "join_build_rows",
        "join_probe_rows",
        "bytes_spilled",
    ] {
        report.layer(&format!("exec.{name}"), count(name));
    }
    let examined = count("rows_scanned") + count("rows_scanned_delta");
    report.layer(
        "exec.rows_examined_per_row_returned",
        examined / rows_returned.max(1) as f64,
    );
    let groups = count("groups_eliminated") + count("groups_scanned");
    report.layer(
        "exec.elimination_ratio",
        if groups > 0.0 {
            count("groups_eliminated") / groups
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{load_star, Check, StarData};
    use crate::spans::self_time_ns;
    use cstore_delta::TableConfig;
    use cstore_workload::StarSchema;

    fn small_db() -> (Database, StarData) {
        let db = Database::new();
        let data = StarData::generate(StarSchema::scale(20_000).with_seed(5));
        load_star(
            &db,
            &data,
            TableConfig {
                bulk_load_threshold: 1024,
                max_rowgroup_rows: 4096,
                ..TableConfig::default()
            },
        );
        (db, data)
    }

    #[test]
    fn staged_replay_returns_what_execute_returns_and_nests_its_spans() {
        let (db, _) = small_db();
        let sql = "SELECT d.month, SUM(s.quantity) AS q FROM sales s \
                   JOIN date_dim d ON s.date_key = d.date_key GROUP BY d.month ORDER BY month";
        let mut log = SpanLog::new();
        let staged = staged_select(&db, "q3", sql, &mut log).unwrap();
        assert_eq!(staged.rows, db.execute(sql).unwrap().rows());
        let counter = |name: &str| {
            let (_, v) = staged.counters.iter().find(|(n, _)| *n == name).unwrap();
            *v
        };
        assert_eq!(counter("rows_scanned"), 20_000 + 365);
        assert!(counter("join_build_rows") > 0);
        // Join, aggregation, sort and scan all got self time.
        for kind in [0, 2, 3, 4] {
            assert!(staged.op_self_ns[kind] > 0, "{}", OP_KINDS[kind]);
        }
        // Operator self times partition the root operator's inclusive
        // time, which the collect stage contains.
        let op_total: u64 = staged.op_self_ns.iter().sum();
        assert!(
            op_total <= staged.stage_ns[4],
            "{op_total} {:?}",
            staged.stage_ns
        );
        // One root, five children, and the root's self time is what the
        // stages do not cover.
        let spans = log.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].name, "q3");
        for (s, stage) in spans[1..].iter().zip(STAGES) {
            assert_eq!((s.parent, s.name.as_str()), (Some(0), stage));
        }
        let covered: u64 = staged.stage_ns.iter().sum();
        assert_eq!(self_time_ns(spans, 0), staged.total_ns - covered);
        assert!(staged_select(&db, "bad", "DELETE FROM sales", &mut log).is_err());
    }

    #[test]
    fn traced_pass_reports_exact_counts_and_elimination() {
        let (db, data) = small_db();
        let (c, s) = data.oracle.date_range(100, 106);
        let classes = [
            ReadClass::fixed(
                "full",
                "SELECT COUNT(*), SUM(quantity) FROM sales",
                Check::CountSum(data.oracle.n, data.oracle.sum_qty),
            ),
            ReadClass::fixed(
                "week",
                "SELECT COUNT(*), SUM(quantity) FROM sales WHERE date_key BETWEEN 100 AND 106",
                Check::CountSum(c, s),
            ),
        ];
        let mut report = Report::default();
        traced_pass(&db, &classes, &mut Rng::new(1), 3, &mut report);
        assert_eq!(report.failed, 0, "{:?}", report.problems);
        let l = &report.layers;
        // 5 groups of 4096 rows; the week touches one or two of them.
        assert_eq!(l["exec.join_build_rows"], 0.0);
        assert_eq!(l["exec.rows_scanned_delta"], 0.0);
        assert!(l["exec.groups_eliminated"] >= 3.0);
        assert!(l["exec.rows_scanned"] > 20_000.0);
        assert!(l["exec.groups_scanned"] >= 6.0);
        assert!(l["exec.elimination_ratio"] > 0.0 && l["exec.elimination_ratio"] < 1.0);
        assert!(l["exec.collect_ms"] > 0.0 && l["sql.parse_us"] > 0.0);
        assert!(l["exec.scan_self_ms"] > 0.0);
        assert_eq!(report.spans.spans().len(), 2 * 3 * 6);
    }
}
