//! The batch-vs-row execution mode decision.
//!
//! SQL Server's optimizer costs row-mode and batch-mode alternatives and
//! picks the cheaper plan. The dominant effect the paper describes: batch
//! mode amortizes per-row interpretation overhead over ~1000-row batches,
//! so it wins decisively on large inputs, while very small inputs don't
//! recoup the per-batch setup cost. The model here captures exactly that
//! trade-off.

use crate::catalog::CatalogProvider;
use crate::logical::LogicalPlan;
use crate::rules::estimate_rows;

/// Requested execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Cost-based choice (the default).
    #[default]
    Auto,
    /// Force batch mode.
    Batch,
    /// Force row mode.
    Row,
}

/// Per-row CPU cost of a row-mode operator (arbitrary units).
const ROW_COST_PER_ROW: f64 = 1.0;
/// Per-row CPU cost of a batch-mode operator.
const BATCH_COST_PER_ROW: f64 = 0.05;
/// Fixed per-batch overhead (dispatch + vector setup), amortized over
/// ~900-row batches.
const BATCH_OVERHEAD_PER_BATCH: f64 = 40.0;
/// Rows per batch assumed by the model.
const MODEL_BATCH_ROWS: f64 = 900.0;

/// Rows each operator consumes: its children's outputs (scans consume the
/// rows they read, approximated by their post-elimination estimate).
fn rows_consumed(plan: &LogicalPlan, catalog: &dyn CatalogProvider) -> f64 {
    let children = plan.children();
    if children.is_empty() {
        estimate_rows(plan, catalog)
    } else {
        children
            .iter()
            .map(|c| estimate_rows(c, catalog))
            .sum::<f64>()
    }
}

/// Estimated cost of running `plan` in row mode: every operator pays a
/// per-row interpretation cost for each row it consumes.
pub fn row_mode_cost(plan: &LogicalPlan, catalog: &dyn CatalogProvider) -> f64 {
    let own = rows_consumed(plan, catalog).max(1.0) * ROW_COST_PER_ROW;
    own + plan
        .children()
        .iter()
        .map(|c| row_mode_cost(c, catalog))
        .sum::<f64>()
}

/// Estimated cost of running `plan` in batch mode: the per-row cost is
/// amortized, but each ~900-row batch pays a fixed dispatch overhead.
pub fn batch_mode_cost(plan: &LogicalPlan, catalog: &dyn CatalogProvider) -> f64 {
    let rows = rows_consumed(plan, catalog).max(1.0);
    let batches = (rows / MODEL_BATCH_ROWS).ceil().max(1.0);
    let own = rows * BATCH_COST_PER_ROW + batches * BATCH_OVERHEAD_PER_BATCH;
    own + plan
        .children()
        .iter()
        .map(|c| batch_mode_cost(c, catalog))
        .sum::<f64>()
}

/// Resolve `Auto` to a concrete mode for this plan.
pub fn choose_mode(mode: ExecMode, plan: &LogicalPlan, catalog: &dyn CatalogProvider) -> ExecMode {
    // Row ids come from the batch scan; row mode never learns about them,
    // so such a plan is batch whatever was asked for.
    if scans_row_ids(plan) {
        return ExecMode::Batch;
    }
    match mode {
        ExecMode::Auto => {
            if requires_batch(plan) {
                return ExecMode::Batch;
            }
            if batch_mode_cost(plan, catalog) <= row_mode_cost(plan, catalog) {
                ExecMode::Batch
            } else {
                ExecMode::Row
            }
        }
        m => m,
    }
}

fn scans_row_ids(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { row_ids, .. } => *row_ids,
        other => other.children().iter().any(|c| scans_row_ids(c)),
    }
}

/// Plans only batch mode can run (row-mode hash join lacks right/full
/// outer variants — mirroring how the 2012 release's limitations forced
/// mode choices, but in the opposite direction).
fn requires_batch(plan: &LogicalPlan) -> bool {
    use cstore_exec::ops::hash_join::JoinType;
    match plan {
        LogicalPlan::Join {
            join_type,
            left,
            right,
            ..
        } => {
            matches!(join_type, JoinType::RightOuter | JoinType::FullOuter)
                || requires_batch(left)
                || requires_batch(right)
        }
        other => other.children().iter().any(|c| requires_batch(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemoryCatalog, TableRef};
    use cstore_common::{DataType, Field, Row, Schema, Value};
    use cstore_delta::{ColumnStoreTable, TableConfig};

    fn catalog_with(n: usize) -> (MemoryCatalog, LogicalPlan) {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int64)]);
        let t = ColumnStoreTable::new(
            schema.clone(),
            TableConfig {
                bulk_load_threshold: 1,
                ..TableConfig::default()
            },
        );
        if n > 0 {
            t.bulk_insert(
                &(0..n as i64)
                    .map(|i| Row::new(vec![Value::Int64(i)]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        }
        let mut c = MemoryCatalog::new();
        c.register("t", TableRef::ColumnStore(t));
        let plan = LogicalPlan::Scan {
            table: "t".into(),
            schema,
            projection: None,
            pushed: vec![],
            row_ids: false,
        };
        (c, plan)
    }

    #[test]
    fn large_inputs_choose_batch() {
        let (c, plan) = catalog_with(100_000);
        assert_eq!(choose_mode(ExecMode::Auto, &plan, &c), ExecMode::Batch);
    }

    #[test]
    fn tiny_inputs_choose_row() {
        let (c, plan) = catalog_with(10);
        assert_eq!(choose_mode(ExecMode::Auto, &plan, &c), ExecMode::Row);
    }

    #[test]
    fn a_row_id_scan_is_batch_even_when_row_mode_is_forced() {
        let (c, mut plan) = catalog_with(10);
        if let LogicalPlan::Scan { row_ids, .. } = &mut plan {
            *row_ids = true;
        }
        assert_eq!(choose_mode(ExecMode::Auto, &plan, &c), ExecMode::Batch);
        assert_eq!(choose_mode(ExecMode::Row, &plan, &c), ExecMode::Batch);
    }

    #[test]
    fn forced_modes_respected() {
        let (c, plan) = catalog_with(100_000);
        assert_eq!(choose_mode(ExecMode::Row, &plan, &c), ExecMode::Row);
        assert_eq!(choose_mode(ExecMode::Batch, &plan, &c), ExecMode::Batch);
    }

    #[test]
    fn full_outer_requires_batch() {
        use cstore_exec::ops::hash_join::JoinType;
        let (c, scan) = catalog_with(10);
        let plan = LogicalPlan::Join {
            left: Box::new(scan.clone()),
            right: Box::new(scan),
            join_type: JoinType::FullOuter,
            on_left: vec![0],
            on_right: vec![0],
        };
        assert_eq!(choose_mode(ExecMode::Auto, &plan, &c), ExecMode::Batch);
    }
}
