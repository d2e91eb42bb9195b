//! Batch-mode columnstore scan.
//!
//! Everything the paper pushes into the scan happens here, in order:
//!
//! 1. **segment elimination** — row groups whose min/max metadata cannot
//!    satisfy the pushed predicates are skipped without touching data;
//! 2. **predicate pushdown** — surviving groups evaluate predicates
//!    directly on encoded segments (code-space intervals over RLE runs /
//!    packed codes);
//! 3. **bitmap filters** — semi-join filters installed by a downstream
//!    hash join drop probe rows that cannot join;
//! 4. only then are the *projected* columns decoded, and only for groups
//!    that still have qualifying rows — the whole segment when many do,
//!    just the qualifying positions when few do.
//!
//! Delta-store rows have no segments; they are filtered row-at-a-time and
//! delivered through the same batch interface (the paper's scans do the
//!    same union of compressed + delta data).
//!
//! A scan built [`ColumnStoreScan::with_row_ids`] also says *where* each
//! row lives, in a trailing `Int64` column of [`RowId::to_i64`] cells —
//! how UPDATE and DELETE find their victims with the machinery above.

use std::sync::{Arc, OnceLock};

use cstore_common::{Bitmap, DataType, Error, Result, Row, RowId, Value};
use cstore_delta::TableSnapshot;
use cstore_storage::pred::ColumnPred;
use cstore_storage::ColumnSegment;

use crate::batch::Batch;
use crate::bloom::BitmapFilter;
use crate::ops::BatchOperator;
use crate::runtime::ExecContext;
use crate::vector::Vector;

/// Shared slot through which a hash join publishes its bitmap filter to a
/// scan (the join builds before the scan's first `next()` is polled).
pub type FilterSlot = Arc<OnceLock<Option<BitmapFilter>>>;

/// Batch-mode scan over a table snapshot.
pub struct ColumnStoreScan {
    snapshot: TableSnapshot,
    /// Table-column ordinals to produce, in output order.
    projection: Vec<usize>,
    /// Pushed-down predicates: (table column, predicate).
    preds: Vec<(usize, ColumnPred)>,
    /// Bitmap filters: (table column, slot filled by the join's build).
    filters: Vec<(usize, FilterSlot)>,
    /// Whether a row-id column follows the projected ones.
    row_ids: bool,
    ctx: ExecContext,
    output_types: Vec<DataType>,
    state: Option<ScanState>,
}

struct ScanState {
    /// Surviving groups, opened lazily (popped from the back).
    pending_groups: Vec<usize>,
    current: Option<GroupCursor>,
    /// The qualifying delta rows not yet emitted; `None` until the
    /// compressed groups are exhausted.
    delta: Option<std::vec::IntoIter<Row>>,
}

struct GroupCursor {
    vectors: Vec<Vector>,
    qualifying: Bitmap,
    offset: usize,
}

impl ColumnStoreScan {
    pub fn new(
        snapshot: TableSnapshot,
        projection: Vec<usize>,
        preds: Vec<(usize, ColumnPred)>,
        ctx: ExecContext,
    ) -> Self {
        let output_types = projection
            .iter()
            .map(|&c| snapshot.schema().field(c).data_type)
            .collect();
        ColumnStoreScan {
            snapshot,
            projection,
            preds,
            filters: Vec::new(),
            row_ids: false,
            ctx,
            output_types,
            state: None,
        }
    }

    /// Attach a bitmap-filter slot on table column `col`.
    pub fn with_bitmap_filter(mut self, col: usize, slot: FilterSlot) -> Self {
        self.filters.push((col, slot));
        self
    }

    /// Append a row-id column to the output: an `Int64` holding
    /// [`RowId::to_i64`] of `(group id, tuple)` for a compressed row and
    /// of the stored row id for a delta row.
    pub fn with_row_ids(mut self) -> Self {
        self.row_ids = true;
        self.output_types.push(DataType::Int64);
        self
    }

    /// The lazily-installed scan state; `next` populates it on first poll.
    fn state_mut(&mut self) -> Result<&mut ScanState> {
        self.state
            .as_mut()
            .ok_or_else(|| Error::Execution("scan polled before initialization".into()))
    }

    fn init(&mut self) -> Result<ScanState> {
        let total = self.snapshot.groups().len();
        let mut pending_groups = Vec::new();
        for (idx, g) in self.snapshot.groups().iter().enumerate() {
            if g.may_match(&self.preds) {
                pending_groups.push(idx);
            }
        }
        self.ctx.metrics.add(
            &self.ctx.metrics.groups_eliminated,
            (total - pending_groups.len()) as u64,
        );
        pending_groups.reverse(); // pop from the back in original order
        Ok(ScanState {
            pending_groups,
            current: None,
            delta: None,
        })
    }

    /// Build the cursor for one compressed row group, or `None` if no rows
    /// qualify (group skipped entirely after predicate evaluation).
    fn open_group(&self, group_idx: usize) -> Result<Option<GroupCursor>> {
        let g = &self.snapshot.groups()[group_idx];
        // Each column's segment is opened at most once per group: opening
        // an archived one decompresses and deserialises it.
        let mut opened: Vec<Option<Arc<ColumnSegment>>> = vec![None; g.n_columns()];
        let mut segment = |col: usize| -> Result<Arc<ColumnSegment>> {
            match &mut opened[col] {
                Some(seg) => Ok(Arc::clone(seg)),
                slot => Ok(Arc::clone(slot.insert(g.open_segment(col)?))),
            }
        };
        // Visible rows (delete bitmap applied).
        let mut qualifying = self.snapshot.visible_bitmap(g);
        // Predicates evaluated on encoded segments.
        for (col, pred) in &self.preds {
            if !qualifying.any() {
                break;
            }
            qualifying.intersect_with(&segment(*col)?.eval_pred(pred)?);
        }
        if !qualifying.any() {
            return Ok(None);
        }
        // Bitmap (semi-join) filters: decode *only* the key column (cached
        // if projected), apply, and bail before touching other columns if
        // nothing survives — the whole point of pushing the filter down.
        let mut cache: Vec<Option<Vector>> = vec![None; self.projection.len()];
        for (col, slot) in &self.filters {
            if !qualifying.any() {
                break;
            }
            let Some(filter) = slot.get().and_then(|f| f.as_ref()) else {
                continue; // join had an empty or non-integer build side
            };
            let fresh;
            let decoded: &Vector = match self.projection.iter().position(|c| c == col) {
                Some(pos) => match &mut cache[pos] {
                    Some(v) => v,
                    slot => slot.insert(Vector::from_segment(segment(*col)?.decode())),
                },
                None => {
                    fresh = Vector::from_segment(segment(*col)?.decode());
                    &fresh
                }
            };
            let mut dropped = 0u64;
            let mut probed = 0u64;
            if let Vector::I64 { values, nulls } = decoded {
                for i in qualifying.to_indices() {
                    let i = i as usize;
                    probed += 1;
                    let is_null = nulls.as_ref().is_some_and(|n| n.get(i));
                    if is_null || !filter.maybe_contains(values[i]) {
                        qualifying.clear(i);
                        dropped += 1;
                    }
                }
            }
            self.ctx
                .metrics
                .add(&self.ctx.metrics.bitmap_probes, probed);
            self.ctx
                .metrics
                .add(&self.ctx.metrics.rows_dropped_by_bitmap, dropped);
        }
        let n_qualifying = qualifying.count_ones();
        if n_qualifying == 0 {
            return Ok(None);
        }
        self.ctx.metrics.add(&self.ctx.metrics.groups_scanned, 1);
        self.ctx
            .metrics
            .add(&self.ctx.metrics.rows_scanned, n_qualifying as u64);
        // Decode the projected columns only now. When few rows of the
        // group qualify (the threshold `next_from_cursor` gathers below),
        // fetch just those positions and hand on a dense cursor, rather
        // than decoding whole segments to pick a handful of rows out.
        let positions = (n_qualifying * 8 < g.n_rows()).then(|| qualifying.to_indices());
        let mut vectors = Vec::with_capacity(self.output_types.len());
        for (cached, &c) in cache.into_iter().zip(&self.projection) {
            vectors.push(match (&positions, cached) {
                (Some(at), Some(v)) => v.gather(at),
                (Some(at), None) => Vector::from_segment(segment(c)?.decode_positions(at)),
                (None, Some(v)) => v,
                (None, None) => Vector::from_segment(segment(c)?.decode()),
            });
        }
        if self.row_ids {
            let rid = |tuple: u32| RowId::new(g.id(), tuple).to_i64();
            vectors.push(Vector::I64 {
                values: match &positions {
                    Some(at) => at.iter().map(|&t| rid(t)).collect(),
                    None => (0..g.n_rows() as u32).map(rid).collect(),
                },
                nulls: None,
            });
        }
        Ok(Some(GroupCursor {
            vectors,
            qualifying: match positions {
                Some(at) => Bitmap::ones(at.len()),
                None => qualifying,
            },
            offset: 0,
        }))
    }

    /// Produce the next batch from the current group cursor: a contiguous
    /// slice when the window is dense, a gather of just the qualifying
    /// rows when it is sparse (so heavily filtered scans don't copy dead
    /// lanes downstream).
    fn next_from_cursor(&self, cur: &mut GroupCursor) -> Option<Batch> {
        let n = cur.qualifying.len();
        while cur.offset < n {
            let len = self.ctx.batch_size.min(n - cur.offset);
            let offset = cur.offset;
            cur.offset += len;
            let mut qual = Bitmap::zeros(len);
            let mut idx: Vec<u32> = Vec::new();
            for i in 0..len {
                if cur.qualifying.get(offset + i) {
                    qual.set(i);
                    idx.push((offset + i) as u32);
                }
            }
            if idx.is_empty() {
                continue; // a fully dead stretch: skip without materializing
            }
            self.ctx.metrics.add(&self.ctx.metrics.batches, 1);
            // Sparse: gather survivors into a dense batch.
            if idx.len() * 8 < len {
                let columns = cur.vectors.iter().map(|v| v.gather(&idx)).collect();
                return Some(Batch::new(self.output_types.clone(), columns));
            }
            let columns = cur.vectors.iter().map(|v| v.slice(offset, len)).collect();
            return Some(Batch::with_qualifying(
                self.output_types.clone(),
                columns,
                qual,
            ));
        }
        None
    }

    /// The qualifying delta rows (filtered row-at-a-time), projected.
    fn delta_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        'rows: for (rid, row) in self.snapshot.delta_rows() {
            for (col, pred) in &self.preds {
                if !pred.matches(row.get(*col)) {
                    continue 'rows;
                }
            }
            for (col, slot) in &self.filters {
                if let Some(filter) = slot.get().and_then(|f| f.as_ref()) {
                    self.ctx.metrics.add(&self.ctx.metrics.bitmap_probes, 1);
                    match row.get(*col).as_i64() {
                        Some(k) if filter.maybe_contains(k) => {}
                        _ => {
                            self.ctx
                                .metrics
                                .add(&self.ctx.metrics.rows_dropped_by_bitmap, 1);
                            continue 'rows;
                        }
                    }
                }
            }
            let mut out = row.project(&self.projection).into_values();
            if self.row_ids {
                out.push(Value::Int64(rid.to_i64()));
            }
            rows.push(Row::new(out));
        }
        self.ctx
            .metrics
            .add(&self.ctx.metrics.rows_scanned, rows.len() as u64);
        self.ctx
            .metrics
            .add(&self.ctx.metrics.rows_scanned_delta, rows.len() as u64);
        rows
    }
}

impl BatchOperator for ColumnStoreScan {
    fn output_types(&self) -> &[DataType] {
        &self.output_types
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.state.is_none() {
            self.state = Some(self.init()?);
        }
        loop {
            // Take the cursor out so &self methods can run while we hold it.
            if let Some(mut cursor) = self.state_mut()?.current.take() {
                if let Some(batch) = self.next_from_cursor(&mut cursor) {
                    self.state_mut()?.current = Some(cursor);
                    return Ok(Some(batch));
                }
                // Cursor exhausted: fall through to the next group.
            }
            if let Some(group_idx) = self.state_mut()?.pending_groups.pop() {
                let cursor = self.open_group(group_idx)?;
                self.state_mut()?.current = cursor;
                continue;
            }
            // Delta rows leave in batches of at most `batch_size`, too.
            if self.state_mut()?.delta.is_none() {
                let rows = self.delta_rows();
                self.state_mut()?.delta = Some(rows.into_iter());
            }
            let batch_size = self.ctx.batch_size;
            let pending = self.state_mut()?.delta.iter_mut().flatten();
            let chunk: Vec<Row> = pending.take(batch_size).collect();
            if chunk.is_empty() {
                return Ok(None);
            }
            self.ctx.metrics.add(&self.ctx.metrics.batches, 1);
            return Ok(Some(Batch::from_rows(&self.output_types, &chunk)?));
        }
    }
}

/// A batch operator over a fixed list of batches (tests, intermediate
/// results).
pub struct BatchSource {
    types: Vec<DataType>,
    batches: std::vec::IntoIter<Batch>,
}

impl BatchSource {
    pub fn new(types: Vec<DataType>, batches: Vec<Batch>) -> Self {
        BatchSource {
            types,
            batches: batches.into_iter(),
        }
    }

    /// Build a source from rows, chunked into `batch_size` batches.
    pub fn from_rows(types: Vec<DataType>, rows: &[Row], batch_size: usize) -> Result<Self> {
        let mut batches = Vec::new();
        for chunk in rows.chunks(batch_size.max(1)) {
            batches.push(Batch::from_rows(&types, chunk)?);
        }
        Ok(BatchSource::new(types, batches))
    }
}

impl BatchOperator for BatchSource {
    fn output_types(&self) -> &[DataType] {
        &self.types
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

/// Build a `Value` convenience for scan tests.
#[cfg(test)]
pub(crate) fn v(i: i64) -> cstore_common::Value {
    cstore_common::Value::Int64(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect_rows;
    use cstore_common::{Field, Schema, Value};
    use cstore_delta::{ColumnStoreTable, TableConfig};
    use cstore_storage::pred::CmpOp;
    use cstore_storage::SortMode;

    fn make_table() -> ColumnStoreTable {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int64),
            Field::not_null("cat", DataType::Utf8),
            Field::nullable("amt", DataType::Float64),
        ]);
        let t = ColumnStoreTable::new(
            schema,
            TableConfig {
                delta_capacity: 64,
                bulk_load_threshold: 100,
                max_rowgroup_rows: 1000,
                sort_mode: SortMode::Columns(vec![0]),
            },
        );
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                Row::new(vec![
                    v(i),
                    Value::str(format!("c{}", i % 4)),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 2.0)
                    },
                ])
            })
            .collect();
        t.bulk_insert(&rows).unwrap();
        // A few trickle rows in the delta store.
        for i in 3000..3010 {
            t.insert(Row::new(vec![v(i), Value::str("c0"), Value::Float64(0.0)]))
                .unwrap();
        }
        t
    }

    fn scan_all(t: &ColumnStoreTable, preds: Vec<(usize, ColumnPred)>) -> Vec<Row> {
        let ctx = ExecContext::default().with_batch_size(256);
        let scan = ColumnStoreScan::new(t.snapshot(), vec![0, 1, 2], preds, ctx);
        collect_rows(Box::new(scan)).unwrap()
    }

    #[test]
    fn full_scan_sees_everything() {
        let t = make_table();
        let rows = scan_all(&t, vec![]);
        assert_eq!(rows.len(), 3010);
    }

    #[test]
    fn pushdown_filters_rows() {
        let t = make_table();
        let rows = scan_all(
            &t,
            vec![(
                0,
                ColumnPred::Between {
                    lo: v(100),
                    hi: v(199),
                },
            )],
        );
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|r| {
            let k = r.get(0).as_i64().unwrap();
            (100..200).contains(&k)
        }));
    }

    #[test]
    fn elimination_skips_groups() {
        let t = make_table();
        let ctx = ExecContext::default();
        let scan = ColumnStoreScan::new(
            t.snapshot(),
            vec![0],
            vec![(
                0,
                ColumnPred::Cmp {
                    op: CmpOp::Ge,
                    value: v(2500),
                },
            )],
            ctx.clone(),
        );
        let rows = collect_rows(Box::new(scan)).unwrap();
        assert_eq!(rows.len(), 510); // 500 compressed + 10 delta
        let m = ctx.metrics.snapshot();
        let get = |name: &str| m.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(
            get("groups_eliminated"),
            2,
            "groups [0..1000) and [1000..2000) skipped"
        );
        assert_eq!(get("groups_scanned"), 1);
    }

    #[test]
    fn string_pushdown() {
        let t = make_table();
        let rows = scan_all(
            &t,
            vec![(
                1,
                ColumnPred::Cmp {
                    op: CmpOp::Eq,
                    value: Value::str("c2"),
                },
            )],
        );
        assert_eq!(rows.len(), 750);
    }

    #[test]
    fn deleted_rows_invisible_to_scan() {
        let t = make_table();
        // Delete compressed rows with k in [0, 50): they're in group 0.
        let snap = t.snapshot();
        let g0 = snap.groups()[0].id();
        for tuple in 0..50 {
            t.delete(cstore_common::RowId::new(g0, tuple)).unwrap();
        }
        let rows = scan_all(&t, vec![]);
        assert_eq!(rows.len(), 3010 - 50);
    }

    #[test]
    fn bitmap_filter_drops_rows() {
        let t = make_table();
        let slot: FilterSlot = Arc::new(OnceLock::new());
        slot.set(BitmapFilter::build(&[5, 500, 2999])).ok().unwrap();
        let ctx = ExecContext::default();
        let scan = ColumnStoreScan::new(t.snapshot(), vec![0], vec![], ctx.clone())
            .with_bitmap_filter(0, slot);
        let rows = collect_rows(Box::new(scan)).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        assert_eq!(keys, vec![5, 500, 2999]);
        assert!(dropped_by_bitmap(&ctx) > 0);
    }

    fn dropped_by_bitmap(ctx: &ExecContext) -> u64 {
        ctx.metrics
            .snapshot()
            .iter()
            .find(|(n, _)| *n == "rows_dropped_by_bitmap")
            .unwrap()
            .1
    }

    /// Drain `scan`, returning the rows and the size of every batch.
    fn drain(mut scan: ColumnStoreScan) -> (Vec<Row>, Vec<usize>) {
        let (mut rows, mut sizes) = (Vec::new(), Vec::new());
        while let Some(b) = scan.next().unwrap() {
            sizes.push(b.n_rows());
            rows.extend(b.to_rows());
        }
        (rows, sizes)
    }

    #[test]
    fn delta_rows_leave_in_batches_of_at_most_batch_size() {
        let t = make_table();
        // Only the ten delta rows have k >= 3000.
        let preds = vec![(
            0,
            ColumnPred::Cmp {
                op: CmpOp::Ge,
                value: v(3000),
            },
        )];
        let scan = |batch_size: usize| {
            let ctx = ExecContext::default().with_batch_size(batch_size);
            ColumnStoreScan::new(t.snapshot(), vec![0, 2], preds.clone(), ctx)
        };
        let (whole, _) = drain(scan(900));
        assert_eq!(whole.len(), 10);
        let (chunked, sizes) = drain(scan(7));
        assert_eq!(sizes, vec![7, 3]);
        assert_eq!(chunked, whole);
        let (with_rids, sizes) = drain(scan(7).with_row_ids());
        assert_eq!(sizes, vec![7, 3]);
        let stripped: Vec<Row> = with_rids.iter().map(|r| r.project(&[0, 1])).collect();
        assert_eq!(stripped, whole);
    }

    #[test]
    fn row_ids_locate_the_rows_they_come_with() {
        let t = make_table();
        let snap = t.snapshot();
        // Dense groups (no predicate) and a sparse one (k = 1234).
        let point = vec![(
            0,
            ColumnPred::Cmp {
                op: CmpOp::Eq,
                value: v(1234),
            },
        )];
        for (preds, expect) in [(vec![], 3010), (point, 1)] {
            let scan = ColumnStoreScan::new(
                snap.clone(),
                vec![0, 1, 2],
                preds,
                ExecContext::default().with_batch_size(256),
            )
            .with_row_ids();
            assert_eq!(scan.output_types().last(), Some(&DataType::Int64));
            let rows = collect_rows(Box::new(scan)).unwrap();
            assert_eq!(rows.len(), expect);
            for row in rows {
                let rid = RowId::from_i64(row.get(3).as_i64().unwrap());
                let stored = match snap.group_by_id(rid.group) {
                    Some(g) => Row::new(g.row_values(rid.tuple as usize).unwrap()),
                    None => {
                        let delta = snap.delta_rows().iter().find(|(r, _)| *r == rid);
                        delta.unwrap_or_else(|| panic!("no row at {rid}")).1.clone()
                    }
                };
                assert_eq!(row.project(&[0, 1, 2]), stored, "{rid}");
            }
        }
    }

    #[test]
    fn a_sparse_selection_is_fetched_by_position_into_one_dense_batch() {
        let t = make_table();
        t.archive_all().unwrap();
        let ctx = ExecContext::default().with_batch_size(100);
        // 8 of group 1's 1,000 rows, scattered over its ten batch windows,
        // one of them under a NULL `amt` (1505 = 7 * 215).
        let keys: Vec<Value> = [1003, 1101, 1250, 1399, 1505, 1702, 1850, 1999]
            .map(v)
            .to_vec();
        let scan = ColumnStoreScan::new(
            t.snapshot(),
            vec![2, 0, 1],
            vec![(0, ColumnPred::InList(keys.clone()))],
            ctx.clone(),
        );
        let (rows, sizes) = drain(scan);
        assert_eq!(sizes, vec![8], "dense, not one gather per window");
        let got: Vec<Value> = rows.iter().map(|r| r.get(1).clone()).collect();
        assert_eq!(got, keys);
        for r in &rows {
            let k = r.get(1).as_i64().unwrap();
            let amt = if k % 7 == 0 {
                Value::Null
            } else {
                Value::Float64(k as f64 / 2.0)
            };
            assert_eq!(r.get(0), &amt, "{k}");
            assert_eq!(r.get(2), &Value::str(format!("c{}", k % 4)));
        }
        let m = ctx.metrics.counters();
        assert_eq!((m.groups_scanned, m.groups_eliminated), (1, 2));
        assert_eq!((m.rows_scanned, m.batches), (8, 1));
    }

    #[test]
    fn batch_source_chunks() {
        let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![v(i)])).collect();
        let mut src = BatchSource::from_rows(vec![DataType::Int64], &rows, 4).unwrap();
        let mut sizes = Vec::new();
        while let Some(b) = src.next().unwrap() {
            sizes.push(b.n_rows());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
    }
}
