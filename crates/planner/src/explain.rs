//! Plan rendering (`EXPLAIN` and `EXPLAIN ANALYZE`).

use cstore_common::waits::WaitProfile;
use cstore_exec::ExecProfile;

use crate::catalog::CatalogProvider;
use crate::cost::{batch_mode_cost, choose_mode, row_mode_cost, ExecMode};
use crate::logical::LogicalPlan;
use crate::rules::estimate_rows;

/// Render a logical plan with the optimizer's annotations: chosen mode,
/// estimated cardinalities and costs, pushed predicates and projections.
pub fn explain(plan: &LogicalPlan, catalog: &dyn CatalogProvider, mode: ExecMode) -> String {
    let chosen = choose_mode(mode, plan, catalog);
    let mut out = String::new();
    out.push_str(&format!(
        "mode={chosen:?} (row_cost={:.0}, batch_cost={:.0})\n",
        row_mode_cost(plan, catalog),
        batch_mode_cost(plan, catalog)
    ));
    render(plan, catalog, 0, &mut out);
    out
}

/// Render a plan annotated with what executing it did.
///
/// `exec` comes from draining the physical plan built from the same
/// logical tree: its operators' node indices are pre-order positions, the
/// numbering both `physical::build_physical` and this renderer walk.
pub fn explain_analyze(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    mode: ExecMode,
    exec: &ExecProfile,
) -> String {
    let chosen = choose_mode(mode, plan, catalog);
    let mut out = String::new();
    out.push_str(&format!(
        "mode={chosen:?} (row_cost={:.0}, batch_cost={:.0})\n",
        row_mode_cost(plan, catalog),
        batch_mode_cost(plan, catalog)
    ));
    let mut node = 0usize;
    render_analyze(plan, catalog, 0, &mut node, exec, &mut out);
    let c = &exec.counters;
    out.push_str("actuals:\n");
    out.push_str(&format!(
        "  rows returned={} elapsed={:.3} ms\n",
        exec.rows_returned,
        exec.elapsed.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "  scan: groups_scanned={} groups_eliminated={} rows_columnstore={} rows_delta={}\n",
        c.groups_scanned,
        c.groups_eliminated,
        c.rows_scanned - c.rows_scanned_delta,
        c.rows_scanned_delta,
    ));
    out.push_str(&format!(
        "  bitmap filters: exact={} bloom={} probes={} pruned={}\n",
        c.bitmap_filters_exact, c.bitmap_filters_bloom, c.bitmap_probes, c.rows_dropped_by_bitmap,
    ));
    out.push_str(&format!(
        "  join: build_rows={} probe_rows={}\n",
        c.join_build_rows, c.join_probe_rows,
    ));
    out.push_str(&format!(
        "  spill: partitions={} bytes={}\n",
        c.partitions_spilled, c.bytes_spilled,
    ));
    out.push_str(&waits_footer_line(&exec.waits));
    out.push_str(&wal_footer_line());
    out
}

/// Per-query wait breakdown: one line listing every wait class the query
/// hit, worst-first, so "where did the time go" is answered in place.
fn waits_footer_line(waits: &WaitProfile) -> String {
    let mut snap = waits.snapshot();
    if snap.is_empty() {
        return "  waits: none\n".to_string();
    }
    snap.sort_by(|a, b| b.total_ns.cmp(&a.total_ns));
    let mut line = String::from("  waits:");
    for s in &snap {
        line.push_str(&format!(
            " {}(n={}, total={:.3} ms, max={:.3} ms)",
            s.class,
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6,
        ));
    }
    line.push('\n');
    line
}

/// Database-wide WAL activity (cumulative, from the global registry —
/// the per-query metrics above never include log writes, but the footer
/// shows whether trickle DML is paying for durability and how well group
/// commit is batching).
fn wal_footer_line() -> String {
    use cstore_common::metrics::MetricSnapshot;
    let snap = cstore_common::metrics::global().snapshot();
    let count = |name: &str| {
        snap.iter()
            .find_map(|m| match m {
                MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or(0)
    };
    let (batch_sum, batch_count) = snap
        .iter()
        .find_map(|m| match m {
            MetricSnapshot::Histogram {
                name, sum, count, ..
            } if name == "cstore_wal_group_commit_batch" => Some((*sum, *count)),
            _ => None,
        })
        .unwrap_or((0, 0));
    let avg = if batch_count > 0 {
        batch_sum as f64 / batch_count as f64
    } else {
        0.0
    };
    format!(
        "  wal (cumulative): appends={} fsyncs={} group_commit_avg={avg:.1} replayed={} truncated={}\n",
        count("cstore_wal_appends_total"),
        count("cstore_wal_fsyncs_total"),
        count("cstore_wal_replayed_records_total"),
        count("cstore_wal_truncated_records_total"),
    )
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// The `render` traversal plus `[actual ...]` annotations, walking the
/// same pre-order numbering the physical builder assigned.
fn render_analyze(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    depth: usize,
    node: &mut usize,
    exec: &ExecProfile,
    out: &mut String,
) {
    let node_id = *node;
    *node += 1;
    // Render the node line (sans newline) by reusing `render` on a
    // scratch buffer restricted to this node.
    let mut line = String::new();
    render_node(plan, catalog, depth, &mut line);
    out.push_str(line.trim_end_matches('\n'));
    match exec.operators.iter().find(|op| op.node == node_id) {
        Some(op) => out.push_str(&format!(
            "  [actual rows={} batches={} time={:.3} ms]\n",
            op.rows(),
            op.batches(),
            op.elapsed_nanos() as f64 / 1e6
        )),
        None => out.push('\n'),
    }
    for child in plan.children() {
        render_analyze(child, catalog, depth + 1, node, exec, out);
    }
}

fn render(plan: &LogicalPlan, catalog: &dyn CatalogProvider, depth: usize, out: &mut String) {
    render_node(plan, catalog, depth, out);
    for child in plan.children() {
        render(child, catalog, depth + 1, out);
    }
}

/// One node's EXPLAIN line (no recursion).
fn render_node(plan: &LogicalPlan, catalog: &dyn CatalogProvider, depth: usize, out: &mut String) {
    indent(out, depth);
    let est = estimate_rows(plan, catalog);
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            pushed,
            row_ids,
            ..
        } => {
            out.push_str(&format!("Scan {table}"));
            if let Some(p) = projection {
                out.push_str(&format!(" cols={p:?}"));
            }
            if *row_ids {
                out.push_str(" +row_ids");
            }
            if !pushed.is_empty() {
                out.push_str(" pushed=[");
                for (i, (col, pred)) in pushed.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("col{col} {pred}"));
                }
                out.push(']');
            }
        }
        LogicalPlan::Filter { predicate, .. } => {
            out.push_str(&format!("Filter {predicate:?}"));
        }
        LogicalPlan::Project { names, .. } => {
            out.push_str(&format!("Project {names:?}"));
        }
        LogicalPlan::Join {
            join_type,
            on_left,
            on_right,
            ..
        } => {
            out.push_str(&format!(
                "HashJoin {join_type:?} on left{on_left:?} = right{on_right:?}"
            ));
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            out.push_str(&format!(
                "HashAggregate groups={} aggs={}",
                group_by.len(),
                aggs.len()
            ));
        }
        LogicalPlan::Sort { keys, limit, .. } => {
            out.push_str(&format!("Sort keys={}", keys.len()));
            if let Some(l) = limit {
                out.push_str(&format!(" limit={l}"));
            }
        }
        LogicalPlan::UnionAll { inputs } => {
            out.push_str(&format!("UnionAll inputs={}", inputs.len()));
        }
    }
    out.push_str(&format!("  (~{est:.0} rows)\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use cstore_common::{DataType, Field, Schema};
    use cstore_exec::Expr;
    use cstore_storage::pred::{CmpOp, ColumnPred};

    #[test]
    fn explain_renders_tree() {
        let catalog = MemoryCatalog::new();
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                schema: Schema::new(vec![Field::not_null("a", DataType::Int64)]),
                projection: Some(vec![0]),
                pushed: vec![(
                    0,
                    ColumnPred::Cmp {
                        op: CmpOp::Gt,
                        value: cstore_common::Value::Int64(5),
                    },
                )],
                row_ids: false,
            }),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(100i64)),
        };
        let text = explain(&plan, &catalog, ExecMode::Batch);
        assert!(text.contains("mode=Batch"));
        assert!(text.contains("Scan t"));
        assert!(text.contains("pushed=[col0 > 5]"));
        assert!(text.contains("Filter"));
    }
}
