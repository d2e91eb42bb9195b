//! `scan_filter` — the read path where `storage` decode and the `exec`
//! scan do nearly all the work and hash tables none.
//!
//! One million date-clustered `sales` rows in 65,536-row groups, the
//! newest quarter of the groups archived; scalar aggregates only. A
//! decode-kernel or predicate-on-codes change must move this workload
//! and leave `star_join_agg` flat.

use std::sync::Arc;

use cstore_delta::TableConfig;
use cstore_workload::StarSchema;

use super::read_side::{self, ReadWorkload};
use crate::harness::{Check, Query, ReadClass, Report, RunArgs, StarData};

const AGG: &str = "SELECT COUNT(*), SUM(quantity) FROM sales";
const GROUP_ROWS: usize = 1 << 16;
/// The newest quarter of the row groups is archived.
const ARCHIVE_1_IN: usize = 4;

pub fn run(args: &RunArgs) -> Report {
    read_side::run(
        args,
        ReadWorkload {
            schema: StarSchema::scale(args.scaled(1_000_000)).with_seed(args.seed),
            sales_config: TableConfig {
                max_rowgroup_rows: GROUP_ROWS,
                bulk_load_threshold: 1024,
                ..TableConfig::default()
            },
            archived_groups: |groups| groups / ARCHIVE_1_IN,
            classes,
            traced_reps: 25,
        },
    )
}

/// A `date_key BETWEEN` class of `width` days starting in `from..to`.
fn date_range(
    name: &'static str,
    data: &Arc<StarData>,
    width: usize,
    from: usize,
    to: usize,
) -> ReadClass {
    let data = Arc::clone(data);
    ReadClass::new(name, move |rng| {
        let lo = rng.range_usize(from, to - width);
        let hi = lo + width - 1;
        let (count, sum) = data.oracle.date_range(lo, hi);
        Query {
            sql: format!("{AGG} WHERE date_key BETWEEN {lo} AND {hi}"),
            check: Check::CountSum(count, sum),
        }
    })
}

fn classes(data: &Arc<StarData>) -> Vec<ReadClass> {
    let o = &data.oracle;
    // Rows arrive in date order, `per_day` to a day, so the archived
    // (newest) row groups hold the last days: `hot_days` days lie wholly
    // in hot groups, days from `archived_from` wholly in archived ones.
    let (n, n_dates) = (data.schema.n_sales, data.schema.n_dates);
    let per_day = n.div_ceil(n_dates);
    let groups = n.div_ceil(GROUP_ROWS);
    let hot_rows = (groups - groups / ARCHIVE_1_IN) * GROUP_ROWS;
    let hot_days = (hot_rows / per_day).min(n_dates);
    let archived_from = hot_rows.div_ceil(per_day).min(n_dates - 31);
    let (gt8_count, gt8_sum) = o.quantity_above(8);
    let store_data = Arc::clone(data);
    let gather_data = Arc::clone(data);
    vec![
        // Probe class: full scan of one column, every group.
        ReadClass::fixed("full_agg", AGG, Check::CountSum(o.n, o.sum_qty)),
        // Segment elimination on the clustered column, three widths.
        date_range("date_week", data, 7, 0, hot_days),
        date_range("date_month", data, 30, 0, hot_days),
        date_range("date_quarter", data, 91, 0, hot_days),
        // Predicates evaluated on encoded codes; nothing to eliminate.
        ReadClass::fixed(
            "pred_quantity",
            &format!("{AGG} WHERE quantity > 8"),
            Check::CountSum(gt8_count, gt8_sum),
        ),
        ReadClass::new("pred_store", move |rng| {
            let store = rng.range_usize(0, store_data.schema.n_stores);
            let (count, sum) = store_data.oracle.store(store);
            Query {
                sql: format!("{AGG} WHERE store_key = {store}"),
                check: Check::CountSum(count, sum),
            }
        }),
        ReadClass::fixed(
            "pred_discount",
            &format!("{AGG} WHERE discount IS NOT NULL"),
            Check::CountSum(o.disc_cnt, o.disc_qty),
        ),
        // A narrow filter that returns three columns of the matching rows.
        ReadClass::new("gather", move |rng| {
            let day = rng.range_usize(0, hot_days);
            let store = rng.range_usize(0, gather_data.schema.n_stores);
            let (rows, sum0) = gather_data.oracle.day_store(day, store);
            Query {
                sql: format!(
                    "SELECT sale_id, cust_key, unit_price FROM sales \
                     WHERE date_key = {day} AND store_key = {store}"
                ),
                check: Check::Gather {
                    rows: rows as usize,
                    sum0,
                },
            }
        }),
        // A month inside the archived quarter: pays the unarchive cost.
        date_range("archived_month", data, 30, archived_from, n_dates),
    ]
}
