//! Lowering logical plans to physical operators.
//!
//! Batch mode lowers to `cstore-exec`'s batch operators; row mode to the
//! row-mode family (wrapped in a row→batch adapter at the root so callers
//! always pull batches). Bitmap-filter placement happens here: for every
//! batch hash join with a single integer probe key whose probe subtree
//! bottoms out in a columnstore scan, the join and the scan are connected
//! through a shared [`FilterSlot`].

use std::sync::Arc;

use cstore_common::{DataType, Error, Result};
use cstore_exec::ops::adapters::{BatchToRow, RowToBatch};
use cstore_exec::ops::filter::FilterOp;
use cstore_exec::ops::hash_join::JoinType;
use cstore_exec::ops::introspect::IntrospectionScan;
use cstore_exec::ops::project::ProjectOp;
use cstore_exec::ops::scan::ColumnStoreScan;
use cstore_exec::ops::sort::{SortKey, SortOp};
use cstore_exec::ops::union::UnionAllOp;
use cstore_exec::row_ops::{
    HeapScan, RowFilter, RowHashAgg, RowHashJoin, RowProject, SnapshotRowScan,
};
use cstore_exec::{
    BatchHashJoin, BoxedBatchOp, BoxedRowOp, ExecContext, Expr, FilterSlot, HashAggOp, RowStatsOp,
    StatsOp,
};

use crate::catalog::{CatalogProvider, TableRef};
use crate::cost::{choose_mode, ExecMode};
use crate::logical::LogicalPlan;

/// A physical plan ready to execute, plus what the optimizer decided.
pub struct PhysicalPlan {
    pub root: BoxedBatchOp,
    /// The concrete mode chosen (never `Auto`).
    pub mode: ExecMode,
    /// Number of bitmap filters installed.
    pub bitmap_filters: usize,
}

/// Build a physical plan for `plan`.
pub fn build_physical(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    ctx: &ExecContext,
    mode: ExecMode,
) -> Result<PhysicalPlan> {
    let mode = choose_mode(mode, plan, catalog);
    // Pre-order node counter: the same numbering `explain::render` walks,
    // so EXPLAIN ANALYZE can pair each rendered node with its operator's
    // actuals via `ExecStats::for_node`.
    let mut node = 0usize;
    match mode {
        ExecMode::Batch => {
            let mut n_filters = 0usize;
            let root = build_batch(plan, catalog, ctx, None, &mut n_filters, &mut node)?;
            Ok(PhysicalPlan {
                root,
                mode,
                bitmap_filters: n_filters,
            })
        }
        ExecMode::Row => {
            let row_root = build_row(plan, catalog, ctx, &mut node)?;
            Ok(PhysicalPlan {
                root: Box::new(RowToBatch::new(row_root, ctx.batch_size)),
                mode,
                bitmap_filters: 0,
            })
        }
        // lint: allow(panic) — choose_mode resolves Auto to a concrete
        // mode before this dispatch
        ExecMode::Auto => unreachable!("choose_mode resolves Auto"),
    }
}

/// A request from a join to install its bitmap filter on the scan feeding
/// column `column` of the current subtree's output.
struct FilterRequest {
    column: usize,
    slot: FilterSlot,
}

/// Operator label as EXPLAIN renders it (shared by the stats wrappers so
/// EXPLAIN ANALYZE output and `ExecStats` labels line up).
pub fn node_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table, .. } => format!("Scan {table}"),
        LogicalPlan::Filter { .. } => "Filter".into(),
        LogicalPlan::Project { .. } => "Project".into(),
        LogicalPlan::Join { join_type, .. } => format!("HashJoin {join_type:?}"),
        LogicalPlan::Aggregate { .. } => "HashAggregate".into(),
        LogicalPlan::Sort { .. } => "Sort".into(),
        LogicalPlan::UnionAll { .. } => "UnionAll".into(),
    }
}

// --------------------------------------------------------------- batch

/// Lower one logical node: claim its pre-order number, build the operator
/// (sub)tree, and wrap it in a [`StatsOp`] so EXPLAIN ANALYZE sees the
/// node's actual rows/batches/time. Multi-operator lowerings (heap scans,
/// row-mode sorts) get one wrapper at the subtree root.
fn build_batch(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    ctx: &ExecContext,
    filter_req: Option<FilterRequest>,
    n_filters: &mut usize,
    node: &mut usize,
) -> Result<BoxedBatchOp> {
    let node_id = *node;
    *node += 1;
    let op = build_batch_inner(plan, catalog, ctx, filter_req, n_filters, node)?;
    let stats = ctx.stats.register(node_id, node_label(plan));
    Ok(Box::new(StatsOp::new(op, stats, ctx.deadline)))
}

fn build_batch_inner(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    ctx: &ExecContext,
    filter_req: Option<FilterRequest>,
    n_filters: &mut usize,
    node: &mut usize,
) -> Result<BoxedBatchOp> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            pushed,
            row_ids,
            ..
        } => {
            let t = catalog
                .table(table)
                .ok_or_else(|| Error::Catalog(format!("unknown table '{table}'")))?;
            if *row_ids && !t.is_columnstore() {
                return Err(Error::Plan(format!(
                    "'{table}' is not a columnstore table: its scan has no row ids"
                )));
            }
            match t {
                TableRef::ColumnStore(t) => {
                    // An open transaction pins its stable view (plus its
                    // own buffered writes) via the context; otherwise
                    // scan the live table.
                    let snapshot = ctx.snapshot_for(table).unwrap_or_else(|| t.snapshot());
                    let proj: Vec<usize> = match projection {
                        Some(p) => p.clone(),
                        None => (0..snapshot.schema().len()).collect(),
                    };
                    // Bitmap filter target, mapped back to a table column.
                    let filter = filter_req.and_then(|req| {
                        proj.get(req.column).map(|&table_col| (table_col, req.slot))
                    });
                    if ctx.parallelism > 1 && snapshot.groups().len() > 1 {
                        let mut scan = cstore_exec::ParallelScan::new(
                            snapshot,
                            proj,
                            pushed.clone(),
                            ctx.clone(),
                            ctx.parallelism,
                        );
                        if let Some((col, slot)) = filter {
                            scan = scan.with_bitmap_filter(col, slot);
                            *n_filters += 1;
                        }
                        if *row_ids {
                            scan = scan.with_row_ids();
                        }
                        return Ok(Box::new(scan));
                    }
                    let mut scan =
                        ColumnStoreScan::new(snapshot, proj, pushed.clone(), ctx.clone());
                    if let Some((col, slot)) = filter {
                        scan = scan.with_bitmap_filter(col, slot);
                        *n_filters += 1;
                    }
                    if *row_ids {
                        scan = scan.with_row_ids();
                    }
                    Ok(Box::new(scan))
                }
                TableRef::Heap(h) => {
                    // Heap tables scan in row mode and adapt; pushed
                    // predicates become a batch filter above the adapter.
                    let scan: BoxedRowOp = Box::new(HeapScan::new(h));
                    let mut op: BoxedBatchOp = Box::new(RowToBatch::new(scan, ctx.batch_size));
                    if !pushed.is_empty() {
                        let pred = preds_to_expr(pushed);
                        op = Box::new(FilterOp::new(op, pred));
                    }
                    if let Some(p) = projection {
                        let exprs: Vec<Expr> = p.iter().map(|&c| Expr::col(c)).collect();
                        op = Box::new(ProjectOp::new(op, exprs)?);
                    }
                    Ok(op)
                }
                TableRef::Virtual(v) => {
                    // Already materialized at bind time; predicates and
                    // projection apply inside the scan. Bitmap-filter
                    // requests are dropped (the slot just stays empty,
                    // the same as the heap path).
                    let types: Vec<DataType> =
                        v.schema.fields().iter().map(|f| f.data_type).collect();
                    let proj: Vec<usize> = match projection {
                        Some(p) => p.clone(),
                        None => (0..types.len()).collect(),
                    };
                    Ok(Box::new(IntrospectionScan::new(
                        v.rows.clone(),
                        &types,
                        proj,
                        pushed.clone(),
                        ctx.batch_size,
                        ctx.deadline,
                    )))
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = build_batch(
                input,
                catalog,
                ctx,
                pass_through(filter_req),
                n_filters,
                node,
            )?;
            Ok(Box::new(FilterOp::new(child, predicate.clone())))
        }
        LogicalPlan::Project { input, exprs, .. } => {
            // A filter request survives a projection only if the requested
            // output column is a bare column reference.
            let fwd = filter_req.and_then(|req| match exprs.get(req.column) {
                Some(Expr::Col(c)) => Some(FilterRequest {
                    column: *c,
                    slot: req.slot,
                }),
                _ => None,
            });
            let child = build_batch(input, catalog, ctx, fwd, n_filters, node)?;
            Ok(Box::new(ProjectOp::new(child, exprs.clone())?))
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => {
            // Create this join's bitmap-filter slot. Only sound for join
            // types that *discard* unmatched probe rows — left outer, full
            // outer and anti joins must see every probe row, so semi-join
            // reduction at the scan would change their results.
            let filter_safe = matches!(
                join_type,
                JoinType::Inner | JoinType::LeftSemi | JoinType::RightOuter
            );
            let slot: Option<FilterSlot> =
                if ctx.enable_bitmap_filters && filter_safe && on_left.len() == 1 {
                    Some(Arc::new(std::sync::OnceLock::new()))
                } else {
                    None
                };
            let probe_req = slot.clone().map(|slot| FilterRequest {
                column: on_left[0],
                slot,
            });
            // A request from above targets a probe-side (left) column when
            // it survives the join's output layout.
            let left_arity = left.arity()?;
            let fwd_above = filter_req.and_then(|req| {
                (req.column < left_arity).then_some(FilterRequest {
                    column: req.column,
                    slot: req.slot,
                })
            });
            // Prefer this join's own request; an outer request for the
            // same subtree is rarer and dropped (one filter per scan).
            let req = probe_req.or(fwd_above);
            let probe = build_batch(left, catalog, ctx, req, n_filters, node)?;
            let build = build_batch(right, catalog, ctx, None, n_filters, node)?;
            let mut join = BatchHashJoin::new(
                probe,
                build,
                on_left.clone(),
                on_right.clone(),
                *join_type,
                ctx.clone(),
            )?;
            if let Some(slot) = slot {
                join = join.with_filter_slot(slot);
            }
            Ok(Box::new(join))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let child = build_batch(input, catalog, ctx, None, n_filters, node)?;
            Ok(Box::new(HashAggOp::new(
                child,
                group_by.clone(),
                aggs.clone(),
                ctx.clone(),
            )?))
        }
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
        } => {
            let child = build_batch(input, catalog, ctx, None, n_filters, node)?;
            let keys = keys
                .iter()
                .map(|k| SortKey {
                    expr: k.expr.clone(),
                    descending: k.descending,
                })
                .collect();
            let mut sort = SortOp::new(child, keys, ctx.clone()).with_offset(*offset);
            if let Some(l) = limit {
                sort = sort.with_limit(*l);
            }
            Ok(Box::new(sort))
        }
        LogicalPlan::UnionAll { inputs } => {
            let children = inputs
                .iter()
                .map(|p| build_batch(p, catalog, ctx, None, n_filters, node))
                .collect::<Result<Vec<_>>>()?;
            Ok(Box::new(UnionAllOp::new(children)?))
        }
    }
}

fn pass_through(req: Option<FilterRequest>) -> Option<FilterRequest> {
    req
}

/// Turn pushed scan predicates back into an expression (heap fallback).
fn preds_to_expr(pushed: &[(usize, cstore_storage::pred::ColumnPred)]) -> Expr {
    use cstore_storage::pred::ColumnPred;
    let mut conjuncts: Vec<Expr> = Vec::with_capacity(pushed.len());
    for (col, pred) in pushed {
        let c = Expr::col(*col);
        conjuncts.push(match pred {
            ColumnPred::Cmp { op, value } => Expr::cmp(*op, c, Expr::Lit(value.clone())),
            ColumnPred::Between { lo, hi } => Expr::and(
                Expr::cmp(
                    cstore_storage::pred::CmpOp::Ge,
                    c.clone(),
                    Expr::Lit(lo.clone()),
                ),
                Expr::cmp(cstore_storage::pred::CmpOp::Le, c, Expr::Lit(hi.clone())),
            ),
            ColumnPred::InList(vals) => Expr::InList {
                expr: Box::new(c),
                list: vals.clone(),
            },
            ColumnPred::IsNull => Expr::IsNull(Box::new(c)),
            ColumnPred::IsNotNull => Expr::IsNotNull(Box::new(c)),
        });
    }
    crate::rules::conjoin(conjuncts).unwrap_or(Expr::Lit(cstore_common::Value::Bool(true)))
}

// ----------------------------------------------------------------- row

/// Row-mode mirror of [`build_batch`]: same pre-order numbering, wrapped
/// in [`RowStatsOp`].
fn build_row(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    ctx: &ExecContext,
    node: &mut usize,
) -> Result<BoxedRowOp> {
    let node_id = *node;
    *node += 1;
    let op = build_row_inner(plan, catalog, ctx, node)?;
    let stats = ctx.stats.register(node_id, node_label(plan));
    Ok(Box::new(RowStatsOp::new(op, stats, ctx.deadline)))
}

fn build_row_inner(
    plan: &LogicalPlan,
    catalog: &dyn CatalogProvider,
    ctx: &ExecContext,
    node: &mut usize,
) -> Result<BoxedRowOp> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            pushed,
            row_ids,
            ..
        } => {
            if *row_ids {
                return Err(Error::Plan(
                    "a row-id scan runs in batch mode (see `choose_mode`)".into(),
                ));
            }
            let t = catalog
                .table(table)
                .ok_or_else(|| Error::Catalog(format!("unknown table '{table}'")))?;
            let mut op: BoxedRowOp = match t {
                TableRef::Heap(h) => Box::new(HeapScan::new(h)),
                TableRef::ColumnStore(t) => Box::new(SnapshotRowScan::new(
                    &ctx.snapshot_for(table).unwrap_or_else(|| t.snapshot()),
                )),
                TableRef::Virtual(v) => {
                    // The batch scan already handles projection + pushdown;
                    // adapt it to row mode and return directly.
                    let types: Vec<DataType> =
                        v.schema.fields().iter().map(|f| f.data_type).collect();
                    let proj: Vec<usize> = match projection {
                        Some(p) => p.clone(),
                        None => (0..types.len()).collect(),
                    };
                    let scan = IntrospectionScan::new(
                        v.rows.clone(),
                        &types,
                        proj,
                        pushed.clone(),
                        ctx.batch_size,
                        ctx.deadline,
                    );
                    return Ok(Box::new(BatchToRow::new(Box::new(scan))));
                }
            };
            if !pushed.is_empty() {
                op = Box::new(RowFilter::new(op, preds_to_expr(pushed)));
            }
            if let Some(p) = projection {
                let exprs: Vec<Expr> = p.iter().map(|&c| Expr::col(c)).collect();
                op = Box::new(RowProject::new(op, exprs)?);
            }
            Ok(op)
        }
        LogicalPlan::Filter { input, predicate } => Ok(Box::new(RowFilter::new(
            build_row(input, catalog, ctx, node)?,
            predicate.clone(),
        ))),
        LogicalPlan::Project { input, exprs, .. } => Ok(Box::new(RowProject::new(
            build_row(input, catalog, ctx, node)?,
            exprs.clone(),
        )?)),
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on_left,
            on_right,
        } => {
            if matches!(join_type, JoinType::RightOuter | JoinType::FullOuter) {
                return Err(Error::Unsupported(
                    "right/full outer joins require batch mode".into(),
                ));
            }
            Ok(Box::new(RowHashJoin::new(
                build_row(left, catalog, ctx, node)?,
                build_row(right, catalog, ctx, node)?,
                on_left.clone(),
                on_right.clone(),
                *join_type,
            )?))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => Ok(Box::new(RowHashAgg::new(
            build_row(input, catalog, ctx, node)?,
            group_by.clone(),
            aggs.clone(),
        )?)),
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
        } => {
            // Row-mode plans reuse the (materializing) sort through
            // adapters; sorting is a stop-and-go operator either way.
            let child = build_row(input, catalog, ctx, node)?;
            let as_batch: BoxedBatchOp = Box::new(RowToBatch::new(child, ctx.batch_size));
            let keys = keys
                .iter()
                .map(|k| SortKey {
                    expr: k.expr.clone(),
                    descending: k.descending,
                })
                .collect();
            let mut sort = SortOp::new(as_batch, keys, ctx.clone()).with_offset(*offset);
            if let Some(l) = limit {
                sort = sort.with_limit(*l);
            }
            Ok(Box::new(cstore_exec::ops::adapters::BatchToRow::new(
                Box::new(sort),
            )))
        }
        LogicalPlan::UnionAll { inputs } => {
            // Row-mode union: chain inputs through a small adapter.
            struct RowUnion {
                inputs: Vec<BoxedRowOp>,
                current: usize,
                types: Vec<DataType>,
            }
            impl cstore_exec::RowOperator for RowUnion {
                fn output_types(&self) -> &[DataType] {
                    &self.types
                }
                fn next(&mut self) -> Result<Option<cstore_common::Row>> {
                    while self.current < self.inputs.len() {
                        if let Some(r) = self.inputs[self.current].next()? {
                            return Ok(Some(r));
                        }
                        self.current += 1;
                    }
                    Ok(None)
                }
            }
            let children = inputs
                .iter()
                .map(|p| build_row(p, catalog, ctx, node))
                .collect::<Result<Vec<_>>>()?;
            let types = children
                .first()
                .ok_or_else(|| Error::Plan("empty UNION ALL".into()))?
                .output_types()
                .to_vec();
            Ok(Box::new(RowUnion {
                inputs: children,
                current: 0,
                types,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::rules::optimize;
    use cstore_common::{Field, Row, Schema, Value};
    use cstore_delta::{ColumnStoreTable, TableConfig};
    use cstore_exec::ops::collect_rows;
    use cstore_exec::ops::hash_agg::{AggExpr, AggFunc};
    use cstore_storage::pred::CmpOp;

    fn setup() -> MemoryCatalog {
        let mut catalog = MemoryCatalog::new();
        // fact(k, dim_k, amount)
        let fact = ColumnStoreTable::new(
            Schema::new(vec![
                Field::not_null("k", DataType::Int64),
                Field::not_null("dim_k", DataType::Int64),
                Field::not_null("amount", DataType::Int64),
            ]),
            TableConfig {
                bulk_load_threshold: 100,
                max_rowgroup_rows: 2000,
                ..TableConfig::default()
            },
        );
        fact.bulk_insert(
            &(0..5000)
                .map(|i| {
                    Row::new(vec![
                        Value::Int64(i),
                        Value::Int64(i % 50),
                        Value::Int64(i % 7),
                    ])
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        catalog.register("fact", TableRef::ColumnStore(fact));
        // dim(k, name)
        let dim = ColumnStoreTable::new(
            Schema::new(vec![
                Field::not_null("k", DataType::Int64),
                Field::not_null("name", DataType::Utf8),
            ]),
            TableConfig {
                bulk_load_threshold: 10,
                ..TableConfig::default()
            },
        );
        dim.bulk_insert(
            &(0..50)
                .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("d{i}"))]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        catalog.register("dim", TableRef::ColumnStore(dim));
        catalog
    }

    fn star_query() -> LogicalPlan {
        // SELECT dim.name, SUM(fact.amount) FROM fact JOIN dim ON
        // fact.dim_k = dim.k WHERE dim.k < 3 GROUP BY dim.name
        let fact = LogicalPlan::Scan {
            table: "fact".into(),
            schema: Schema::new(vec![
                Field::not_null("k", DataType::Int64),
                Field::not_null("dim_k", DataType::Int64),
                Field::not_null("amount", DataType::Int64),
            ]),
            projection: None,
            pushed: vec![],
            row_ids: false,
        };
        let dim = LogicalPlan::Scan {
            table: "dim".into(),
            schema: Schema::new(vec![
                Field::not_null("k", DataType::Int64),
                Field::not_null("name", DataType::Utf8),
            ]),
            projection: None,
            pushed: vec![],
            row_ids: false,
        };
        let join = LogicalPlan::Join {
            left: Box::new(fact),
            right: Box::new(dim),
            join_type: JoinType::Inner,
            on_left: vec![1],
            on_right: vec![0],
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::lit(3i64)),
        };
        LogicalPlan::Aggregate {
            input: Box::new(filtered),
            group_by: vec![Expr::col(4)],
            aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(2))],
            names: vec!["name".into(), "total".into()],
        }
    }

    fn run(mode: ExecMode) -> Vec<Row> {
        let catalog = setup();
        let plan = optimize(star_query(), &catalog).unwrap();
        let ctx = ExecContext::default();
        let phys = build_physical(&plan, &catalog, &ctx, mode).unwrap();
        collect_rows(phys.root).unwrap()
    }

    #[test]
    fn batch_and_row_agree_on_star_query() {
        let mut batch = run(ExecMode::Batch);
        let mut row = run(ExecMode::Row);
        batch.sort();
        row.sort();
        assert_eq!(batch, row);
        assert_eq!(batch.len(), 3);
        // dim_k = 0: fact rows i % 50 == 0 → i in {0,50,...}; sum of i%7.
        let expect: i64 = (0..5000).filter(|i| i % 50 == 0).map(|i| i % 7).sum();
        let d0 = batch
            .iter()
            .find(|r| r.get(0) == &Value::str("d0"))
            .unwrap();
        assert_eq!(d0.get(1), &Value::Int64(expect));
    }

    #[test]
    fn bitmap_filter_installed_on_star_join() {
        let catalog = setup();
        let plan = optimize(star_query(), &catalog).unwrap();
        let ctx = ExecContext::default();
        let phys = build_physical(&plan, &catalog, &ctx, ExecMode::Batch).unwrap();
        assert_eq!(phys.bitmap_filters, 1);
        let rows = collect_rows(phys.root).unwrap();
        assert_eq!(rows.len(), 3);
        // The filter actually dropped probe rows at the scan.
        let dropped = ctx
            .metrics
            .snapshot()
            .iter()
            .find(|(n, _)| *n == "rows_dropped_by_bitmap")
            .unwrap()
            .1;
        assert!(dropped > 0, "bitmap filter had no effect");
    }

    #[test]
    fn auto_mode_picks_batch_for_big_scan() {
        let catalog = setup();
        let plan = optimize(star_query(), &catalog).unwrap();
        let ctx = ExecContext::default();
        let phys = build_physical(&plan, &catalog, &ctx, ExecMode::Auto).unwrap();
        assert_eq!(phys.mode, ExecMode::Batch);
    }
}
