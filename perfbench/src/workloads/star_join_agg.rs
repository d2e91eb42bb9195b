//! `star_join_agg` — the read path where `exec` hash join, bitmap
//! filters, hash aggregation and sort dominate and scan decode is the
//! minority.
//!
//! The same star schema, nothing archived: the canned star-join queries
//! Q3–Q8 plus two join-free group-bys (≈20 k groups on one key; two
//! keys). A packed-key or parallel join/aggregation change must move this
//! workload and leave `scan_filter` flat; a decode-kernel change the
//! reverse. Nothing may spill.

use std::sync::Arc;

use cstore_delta::TableConfig;
use cstore_workload::StarSchema;

use super::read_side::{self, ReadWorkload};
use crate::harness::{canned_query, Check, ReadClass, Report, RunArgs, StarData};

pub fn run(args: &RunArgs) -> Report {
    let n = args.scaled(300_000);
    let mut report = read_side::run(
        args,
        ReadWorkload {
            schema: StarSchema {
                // ≈20 k distinct customers among the fact rows whatever
                // the fact-table size, for the high-cardinality group-by.
                n_customers: n.min(40_000),
                ..StarSchema::scale(n).with_seed(args.seed)
            },
            sales_config: TableConfig {
                max_rowgroup_rows: 1 << 16,
                bulk_load_threshold: 1024,
                ..TableConfig::default()
            },
            archived_groups: |_| 0,
            classes,
            traced_reps: 10,
        },
    );
    if let Some(&spilled) = report.layers.get("exec.bytes_spilled") {
        report.check(spilled == 0.0, || {
            format!("{spilled} bytes spilled under the default memory budget")
        });
    }
    report
}

fn classes(data: &Arc<StarData>) -> Vec<ReadClass> {
    let o = &data.oracle;
    let (n_dates, n_stores) = (data.schema.n_dates, data.schema.n_stores);
    let months = 12.min(n_dates.div_ceil(30));
    let (gt8_rows, _) = o.quantity_above(8);
    // Every generated day and store has rows at these sizes; a sparser
    // seed would only change the expected row count below.
    let day_store_groups = (0..n_dates)
        .flat_map(|d| (0..n_stores).map(move |s| (d, s)))
        .filter(|&(d, s)| o.day_store(d, s).0 > 0)
        .count();
    // Each check is what the generator can say about the result: the
    // number of groups and a column total. The sample comparison with
    // row mode covers the per-group values.
    let class = |name, sql: &str, check| ReadClass::fixed(name, sql, check).checked_on_sample();
    vec![
        // Probe class: two selective dimensions, bitmap filters pay off.
        class("q5_selective", canned_query("Q5"), Check::RowCount(1)),
        class(
            "q3_one_join",
            canned_query("Q3"),
            Check::ColumnTotal {
                rows: months,
                col: 1,
                total: o.sum_qty,
            },
        ),
        class(
            "q4_two_joins",
            canned_query("Q4"),
            Check::ColumnTotal {
                rows: 4 * 8,
                col: 2,
                total: o.n,
            },
        ),
        class(
            "q6_semi_join",
            canned_query("Q6"),
            Check::RowCount(gt8_rows as usize),
        ),
        class("q7_topn", canned_query("Q7"), Check::RowCount(10)),
        class(
            "q8_null_pred",
            canned_query("Q8"),
            Check::ColumnTotal {
                rows: 3,
                col: 1,
                total: o.discounted_before(200),
            },
        ),
        class(
            "group_highcard",
            "SELECT cust_key, COUNT(*) AS n FROM sales GROUP BY cust_key",
            Check::ColumnTotal {
                rows: o.distinct_customers,
                col: 1,
                total: o.n,
            },
        ),
        class(
            "group_twokey",
            "SELECT date_key, store_key, SUM(quantity) AS q FROM sales GROUP BY date_key, store_key",
            Check::ColumnTotal {
                rows: day_store_groups,
                col: 2,
                total: o.sum_qty,
            },
        ),
    ]
}
