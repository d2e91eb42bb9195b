//! Batch-mode hash join.
//!
//! The paper's enhanced batch hash join, reproduced:
//!
//! * **all join types** — inner, left/right/full outer, left semi, left
//!   anti (the 2012 release supported only inner joins in batch mode);
//! * **bitmap filter generation** — after the build phase the join
//!   publishes a [`BitmapFilter`] over the build keys; the planner wires
//!   the slot into the probe-side scan so non-joining rows die at the scan;
//! * **spilling with graceful degradation** — when the build side exceeds
//!   the memory budget, both inputs hash-partition into spill files and
//!   partitions join independently (Grace hash join); performance degrades
//!   smoothly instead of falling back to row mode as in 2012.
//!
//! The build side stays columnar: its batches are appended to one typed
//! vector per column, its distinct keys go into the packed-key table
//! ([`crate::keytable`]) and its rows hang off their key in a chain of row
//! numbers. A probe batch resolves to key entries in one call and walks
//! the chains. `Row`s exist only on the spill path.
//!
//! NULL join keys never match (SQL semantics); outer and anti joins still
//! emit the corresponding unmatched rows.

use cstore_common::{Bitmap, DataType, Error, Result, Row, Value};

use crate::batch::Batch;
use crate::bloom::BitmapFilter;
use crate::keytable::{KeyKind, KeyTable, StrInterner, NO_KEY};
use crate::ops::scan::FilterSlot;
use crate::ops::{BatchOperator, BoxedBatchOp};
use crate::runtime::{check_deadline, ExecContext};
use crate::spill::{SpillFile, SpillReader};
use crate::vector::{hash_values, StrVector, Vector};

/// Join variants supported in batch mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    LeftSemi,
    LeftAnti,
}

impl JoinType {
    fn emits_unmatched_probe(self) -> bool {
        matches!(self, JoinType::LeftOuter | JoinType::FullOuter)
    }

    fn emits_unmatched_build(self) -> bool {
        matches!(self, JoinType::RightOuter | JoinType::FullOuter)
    }

    fn probe_only_output(self) -> bool {
        matches!(self, JoinType::LeftSemi | JoinType::LeftAnti)
    }
}

/// Number of spill partitions.
const SPILL_PARTITIONS: usize = 16;

/// "No build row": ends a chain of build rows, and stands in
/// `BuildTable::build_idx` for the NULL extension of an unmatched probe
/// row ([`Vector::gather_or_null`] reads any index past the end as NULL).
const NO_ROW: u32 = u32::MAX;

/// One build-side column while batches are still arriving.
struct BuildCol {
    data: BuildData,
    /// One bit per row appended so far.
    nulls: Bitmap,
}

enum BuildData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    /// Strings of every incoming dictionary, and owned strings, re-coded
    /// against one interner so the finished column is dictionary-coded:
    /// join output gathers 4-byte codes and downstream group-bys hash per
    /// distinct code.
    Str {
        ids: Vec<u32>,
        interner: StrInterner,
    },
}

impl BuildCol {
    fn new(ty: DataType) -> BuildCol {
        BuildCol {
            data: match KeyKind::of(ty) {
                KeyKind::I64 => BuildData::I64(Vec::new()),
                KeyKind::F64 => BuildData::F64(Vec::new()),
                KeyKind::Str => BuildData::Str {
                    ids: Vec::new(),
                    interner: StrInterner::default(),
                },
            },
            nulls: Bitmap::new(),
        }
    }

    fn append(&mut self, v: &Vector) -> Result<()> {
        let base = self.nulls.len();
        match (&mut self.data, v) {
            (BuildData::I64(out), Vector::I64 { values, .. }) => out.extend_from_slice(values),
            (BuildData::F64(out), Vector::F64 { values, .. }) => out.extend_from_slice(values),
            (BuildData::Str { ids, interner }, Vector::Str { strings, nulls }) => {
                ids.resize(base + v.len(), 0);
                interner.resolve(strings, nulls.as_ref(), true, |i, id| ids[base + i] = id);
            }
            _ => {
                return Err(Error::Type(
                    "build column is not the vector its type promises".into(),
                ))
            }
        }
        self.nulls.grow(base + v.len());
        if let Some(nulls) = v.nulls() {
            for i in nulls.iter_ones() {
                self.nulls.set(base + i);
            }
        }
        Ok(())
    }

    fn finish(self) -> Vector {
        let nulls = self.nulls.any().then_some(self.nulls);
        match self.data {
            BuildData::I64(values) => Vector::I64 { values, nulls },
            BuildData::F64(values) => Vector::F64 { values, nulls },
            BuildData::Str { mut ids, interner } => {
                let (dict, code_of) = interner.into_dictionary();
                for id in &mut ids {
                    // NULL rows carry id 0, which an all-NULL column never
                    // interned.
                    *id = code_of.get(*id as usize).copied().unwrap_or(0);
                }
                Vector::Str {
                    strings: StrVector::Dict { codes: ids, dict },
                    nulls,
                }
            }
        }
    }
}

/// The build side while its input is still being drained.
struct BuildSide {
    cols: Vec<BuildCol>,
    key_cols: Vec<usize>,
    keys: KeyTable,
    /// Key-table entry of each row's key; [`NO_KEY`] where it holds a NULL.
    row_key: Vec<u32>,
    scratch: Vec<u32>,
}

impl BuildSide {
    fn new(types: &[DataType], key_cols: &[usize]) -> BuildSide {
        BuildSide {
            cols: types.iter().map(|&ty| BuildCol::new(ty)).collect(),
            key_cols: key_cols.to_vec(),
            keys: KeyTable::new(key_cols.iter().map(|&k| KeyKind::of(types[k])).collect()),
            row_key: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Append one dense batch.
    fn push(&mut self, batch: &Batch) -> Result<()> {
        for (col, v) in self.cols.iter_mut().zip(batch.columns()) {
            col.append(v)?;
        }
        let keys: Vec<&Vector> = self.key_cols.iter().map(|&k| batch.column(k)).collect();
        self.keys.insert_non_null(&keys, &mut self.scratch)?;
        self.row_key.extend_from_slice(&self.scratch);
        Ok(())
    }

    /// Everything appended so far as rows, for the spill files.
    fn into_rows(self, types: &[DataType]) -> Vec<Row> {
        let columns = self.cols.into_iter().map(BuildCol::finish).collect();
        Batch::new(types.to_vec(), columns).to_rows()
    }

    fn finish(self) -> BuildTable {
        // Walking the rows backwards leaves every chain in ascending row
        // order, so duplicates of a key match in build order.
        let mut first_row = vec![NO_ROW; self.keys.len()];
        let mut next_row = vec![NO_ROW; self.row_key.len()];
        for (row, &key) in self.row_key.iter().enumerate().rev() {
            if key != NO_KEY {
                next_row[row] = first_row[key as usize];
                first_row[key as usize] = row as u32;
            }
        }
        BuildTable {
            cols: self.cols.into_iter().map(BuildCol::finish).collect(),
            key_matched: Bitmap::zeros(self.keys.len()),
            keys: self.keys,
            row_key: self.row_key,
            first_row,
            next_row,
            unmatched_cursor: 0,
            ids: self.scratch,
            probe_idx: Vec::new(),
            build_idx: Vec::new(),
        }
    }
}

/// The finished in-memory build side, and the matches of the batch being
/// probed against it.
struct BuildTable {
    /// The build rows, one concatenated vector per column.
    cols: Vec<Vector>,
    /// The distinct non-NULL build keys.
    keys: KeyTable,
    row_key: Vec<u32>,
    /// First build row of each key, and the next row with the same key.
    first_row: Vec<u32>,
    next_row: Vec<u32>,
    /// Keys that matched at least one probe row (right/full outer tail).
    key_matched: Bitmap,
    /// Cursor into the build rows of the unmatched-build tail.
    unmatched_cursor: usize,
    ids: Vec<u32>,
    /// Output rows of the current probe batch: the probe row and, except
    /// for semi/anti joins, the build row ([`NO_ROW`] = NULL extension).
    probe_idx: Vec<u32>,
    build_idx: Vec<u32>,
}

impl BuildTable {
    /// The bitmap filter over the build keys (single integer-backed key
    /// only).
    fn bitmap_filter(&self, key_cols: &[usize]) -> Option<BitmapFilter> {
        let [key_col] = key_cols else { return None };
        let Vector::I64 { values, nulls } = self.cols.get(*key_col)? else {
            return None;
        };
        match nulls {
            None => BitmapFilter::build(values),
            Some(nulls) => {
                let non_null = (0..values.len()).filter(|&i| !nulls.get(i));
                BitmapFilter::build(&non_null.map(|i| values[i]).collect::<Vec<i64>>())
            }
        }
    }

    /// Join one *dense* probe batch.
    fn join(
        &mut self,
        probe: Batch,
        shape: &JoinShape,
        ctx: &ExecContext,
    ) -> Result<Option<Batch>> {
        let keys: Vec<&Vector> = shape.probe_keys.iter().map(|&k| probe.column(k)).collect();
        self.keys.find(&keys, &mut self.ids)?;
        self.probe_idx.clear();
        self.build_idx.clear();
        match shape.join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => {
                let want_match = shape.join_type == JoinType::LeftSemi;
                for (i, &key) in self.ids.iter().enumerate() {
                    if (key != NO_KEY) == want_match {
                        self.probe_idx.push(i as u32);
                    }
                }
            }
            join_type => {
                let track_matched = join_type.emits_unmatched_build();
                for (i, &key) in self.ids.iter().enumerate() {
                    if key == NO_KEY {
                        if join_type.emits_unmatched_probe() {
                            self.probe_idx.push(i as u32);
                            self.build_idx.push(NO_ROW);
                        }
                        continue;
                    }
                    if track_matched {
                        self.key_matched.set(key as usize);
                    }
                    let mut row = self.first_row[key as usize];
                    while row != NO_ROW {
                        self.probe_idx.push(i as u32);
                        self.build_idx.push(row);
                        row = self.next_row[row as usize];
                    }
                }
            }
        }
        if self.probe_idx.is_empty() {
            return Ok(None);
        }
        // Every probe row out exactly once, in order (a foreign-key join):
        // its columns pass through instead of being gathered.
        let identity = self.probe_idx.len() == probe.n_rows()
            && self
                .probe_idx
                .iter()
                .enumerate()
                .all(|(i, &p)| p as usize == i);
        let mut columns: Vec<Vector> = if identity {
            probe.into_columns()
        } else {
            let gather = |c: &Vector| c.gather(&self.probe_idx);
            probe.columns().iter().map(gather).collect()
        };
        if !shape.join_type.probe_only_output() {
            let gather = |c: &Vector| c.gather_or_null(&self.build_idx);
            columns.extend(self.cols.iter().map(gather));
        }
        ctx.metrics.add(&ctx.metrics.batches, 1);
        Ok(Some(Batch::new(shape.output_types.clone(), columns)))
    }

    /// The next batch of build rows no probe row matched, NULL-extended
    /// on the probe side (right/full outer joins).
    fn unmatched_tail(&mut self, shape: &JoinShape, batch_size: usize) -> Result<Option<Batch>> {
        if !shape.join_type.emits_unmatched_build() {
            return Ok(None);
        }
        let mut idx = Vec::with_capacity(batch_size);
        while self.unmatched_cursor < self.row_key.len() && idx.len() < batch_size {
            let key = self.row_key[self.unmatched_cursor];
            if key == NO_KEY || !self.key_matched.get(key as usize) {
                idx.push(self.unmatched_cursor as u32);
            }
            self.unmatched_cursor += 1;
        }
        if idx.is_empty() {
            return Ok(None);
        }
        let mut columns = Vec::with_capacity(shape.output_types.len());
        for &ty in &shape.probe_types {
            columns.push(Vector::constant(ty, &Value::Null, idx.len())?);
        }
        columns.extend(self.cols.iter().map(|c| c.gather(&idx)));
        Ok(Some(Batch::new(shape.output_types.clone(), columns)))
    }
}

enum JoinState {
    NotStarted,
    /// All build rows fit in memory.
    InMemory {
        build: BuildTable,
        probe_done: bool,
    },
    /// Grace hash join over spilled partitions.
    Spilled {
        partitions: std::vec::IntoIter<(SpillReader, SpillReader)>,
        current: Option<PartitionJoin>,
    },
    Done,
}

struct PartitionJoin {
    build: BuildTable,
    probe: SpillReader,
    probe_done: bool,
    /// Ledger bytes reserved for this partition's build table; returned
    /// when the partition finishes.
    reserved: usize,
}

/// What the join computes, as opposed to how far it has got.
struct JoinShape {
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    join_type: JoinType,
    probe_types: Vec<DataType>,
    build_types: Vec<DataType>,
    output_types: Vec<DataType>,
}

/// The batch-mode hash join operator.
pub struct BatchHashJoin {
    probe_input: Option<BoxedBatchOp>,
    build_input: Option<BoxedBatchOp>,
    shape: JoinShape,
    ctx: ExecContext,
    filter_slot: Option<FilterSlot>,
    state: JoinState,
}

impl BatchHashJoin {
    pub fn new(
        probe_input: BoxedBatchOp,
        build_input: BoxedBatchOp,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        join_type: JoinType,
        ctx: ExecContext,
    ) -> Result<Self> {
        if probe_keys.is_empty() || probe_keys.len() != build_keys.len() {
            return Err(Error::Plan("hash join key arity mismatch".into()));
        }
        let probe_types = probe_input.output_types().to_vec();
        let build_types = build_input.output_types().to_vec();
        for (&p, &b) in probe_keys.iter().zip(&build_keys) {
            let (Some(&p), Some(&b)) = (probe_types.get(p), build_types.get(b)) else {
                return Err(Error::Plan("hash join key column out of range".into()));
            };
            // Keys compare as packed words, which only means something
            // between columns of one physical shape.
            if KeyKind::of(p) != KeyKind::of(b) {
                return Err(Error::Plan(format!(
                    "hash join keys of types {p} and {b} cannot be compared"
                )));
            }
        }
        let output_types = if join_type.probe_only_output() {
            probe_types.clone()
        } else {
            let mut t = probe_types.clone();
            t.extend(build_types.iter().copied());
            t
        };
        Ok(BatchHashJoin {
            probe_input: Some(probe_input),
            build_input: Some(build_input),
            shape: JoinShape {
                probe_keys,
                build_keys,
                join_type,
                probe_types,
                build_types,
                output_types,
            },
            ctx,
            filter_slot: None,
            state: JoinState::NotStarted,
        })
    }

    /// Attach the slot through which the build phase publishes its bitmap
    /// filter (the planner connects the same slot to the probe-side scan).
    pub fn with_filter_slot(mut self, slot: FilterSlot) -> Self {
        self.filter_slot = Some(slot);
        self
    }

    // ------------------------------------------------------------- build

    fn start(&mut self) -> Result<()> {
        let shape = &self.shape;
        let mut build_input = self
            .build_input
            .take()
            .ok_or_else(|| Error::Execution("join build side consumed twice".into()))?;
        let mut side = BuildSide::new(&shape.build_types, &shape.build_keys);
        let mut bytes = 0usize;
        let mut reserved = 0usize;
        let mut overflow = false;
        while let Some(batch) = build_input.next()? {
            check_deadline(self.ctx.deadline)?;
            let batch = batch.compact();
            let batch_bytes = batch.approx_bytes();
            side.push(&batch)?;
            bytes += batch_bytes;
            // Reserve the increment against the shared ledger; exhaustion
            // is not an error here — it means "the machine is full, spill".
            if self.ctx.reserve_memory(batch_bytes).is_err() {
                overflow = true;
                break;
            }
            reserved += batch_bytes;
            if bytes > self.ctx.memory_budget {
                overflow = true;
                break;
            }
        }
        if !overflow {
            self.ctx
                .metrics
                .add(&self.ctx.metrics.join_build_rows, side.row_key.len() as u64);
            let build = side.finish();
            // Publish the bitmap filter before the probe side is polled.
            if let Some(slot) = &self.filter_slot {
                let filter = build.bitmap_filter(&shape.build_keys);
                match &filter {
                    Some(f) if f.is_exact() => self
                        .ctx
                        .metrics
                        .add(&self.ctx.metrics.bitmap_filters_exact, 1),
                    Some(_) => self
                        .ctx
                        .metrics
                        .add(&self.ctx.metrics.bitmap_filters_bloom, 1),
                    None => {}
                }
                // lint: allow(discard) — set fails only when a filter was
                // already published; the first value wins
                let _ = slot.set(filter);
            }
            self.state = JoinState::InMemory {
                build,
                probe_done: false,
            };
            return Ok(());
        }
        // ---- spill path: partition both sides by key hash.
        // No bitmap filter in the spill case (the build key set is not in
        // memory); publish None so the scan proceeds unfiltered.
        if let Some(slot) = &self.filter_slot {
            // lint: allow(discard) — set fails only when a filter was
            // already published; the first value wins
            let _ = slot.set(None);
        }
        let mut build_files: Vec<SpillFile> = (0..SPILL_PARTITIONS)
            .map(|_| SpillFile::create(&self.ctx.spill_dir))
            .collect::<Result<_>>()?;
        let part_of = |row: &Row, keys: &[usize]| -> usize {
            let h = hash_values(keys.iter().map(|&k| row.get(k)));
            (h >> 57) as usize % SPILL_PARTITIONS
        };
        let mut build_rows = 0u64;
        for row in side.into_rows(&shape.build_types) {
            build_rows += 1;
            build_files[part_of(&row, &shape.build_keys)].write_row(&row)?;
        }
        // The build rows now live on disk: return their ledger reservation.
        self.ctx.release_memory(reserved);
        while let Some(batch) = build_input.next()? {
            check_deadline(self.ctx.deadline)?;
            for row in batch.to_rows() {
                build_rows += 1;
                build_files[part_of(&row, &shape.build_keys)].write_row(&row)?;
            }
        }
        self.ctx
            .metrics
            .add(&self.ctx.metrics.join_build_rows, build_rows);
        let mut probe_files: Vec<SpillFile> = (0..SPILL_PARTITIONS)
            .map(|_| SpillFile::create(&self.ctx.spill_dir))
            .collect::<Result<_>>()?;
        let mut probe_input = self
            .probe_input
            .take()
            .ok_or_else(|| Error::Execution("join probe side consumed twice".into()))?;
        while let Some(batch) = probe_input.next()? {
            check_deadline(self.ctx.deadline)?;
            for row in batch.to_rows() {
                probe_files[part_of(&row, &shape.probe_keys)].write_row(&row)?;
            }
        }
        let m = &self.ctx.metrics;
        m.add(&m.partitions_spilled, SPILL_PARTITIONS as u64 * 2);
        let mut spilled_bytes = 0;
        for f in build_files.iter().chain(probe_files.iter()) {
            spilled_bytes += f.bytes_written();
        }
        m.add(&m.bytes_spilled, spilled_bytes);
        let partitions: Vec<(SpillReader, SpillReader)> = build_files
            .into_iter()
            .zip(probe_files)
            .map(|(b, p)| Ok((b.into_reader()?, p.into_reader()?)))
            .collect::<Result<_>>()?;
        self.state = JoinState::Spilled {
            partitions: partitions.into_iter(),
            current: None,
        };
        Ok(())
    }
}

impl BatchOperator for BatchHashJoin {
    fn output_types(&self) -> &[DataType] {
        &self.shape.output_types
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if matches!(self.state, JoinState::NotStarted) {
            self.start()?;
        }
        let (shape, ctx) = (&self.shape, &self.ctx);
        loop {
            match &mut self.state {
                JoinState::NotStarted => {
                    return Err(Error::Execution(
                        "join state machine: still NotStarted after start()".into(),
                    ))
                }
                JoinState::Done => return Ok(None),
                JoinState::InMemory { build, probe_done } => {
                    if !*probe_done {
                        let probe = self
                            .probe_input
                            .as_mut()
                            .ok_or_else(|| Error::Execution("join probe side missing".into()))?;
                        match probe.next()? {
                            Some(batch) => {
                                let dense = batch.compact();
                                ctx.metrics
                                    .add(&ctx.metrics.join_probe_rows, dense.n_rows() as u64);
                                if let Some(out) = build.join(dense, shape, ctx)? {
                                    return Ok(Some(out));
                                }
                            }
                            None => *probe_done = true,
                        }
                        continue;
                    }
                    let out = build.unmatched_tail(shape, ctx.batch_size)?;
                    if out.is_none() {
                        self.state = JoinState::Done;
                    }
                    return Ok(out);
                }
                JoinState::Spilled {
                    partitions,
                    current,
                } => {
                    check_deadline(ctx.deadline)?;
                    if current.is_none() {
                        match partitions.next() {
                            Some((build_reader, probe_reader)) => {
                                let build_rows = build_reader.read_all()?;
                                // A single partition that still cannot
                                // reserve its footprint is a clean
                                // ResourceExhausted — spilling already
                                // happened, there is nowhere left to shed.
                                let part_bytes: usize =
                                    build_rows.iter().map(|r| r.approx_bytes()).sum();
                                ctx.reserve_memory(part_bytes)?;
                                let mut side =
                                    BuildSide::new(&shape.build_types, &shape.build_keys);
                                side.push(&Batch::from_rows(&shape.build_types, &build_rows)?)?;
                                *current = Some(PartitionJoin {
                                    build: side.finish(),
                                    probe: probe_reader,
                                    probe_done: false,
                                    reserved: part_bytes,
                                });
                            }
                            None => {
                                self.state = JoinState::Done;
                                return Ok(None);
                            }
                        }
                    }
                    let Some(part) = current.as_mut() else {
                        return Err(Error::Execution("spill partition cursor missing".into()));
                    };
                    if !part.probe_done {
                        // Read a batch worth of probe rows from the file.
                        let mut rows = Vec::with_capacity(ctx.batch_size);
                        while rows.len() < ctx.batch_size {
                            match part.probe.read_row()? {
                                Some(r) => rows.push(r),
                                None => {
                                    part.probe_done = true;
                                    break;
                                }
                            }
                        }
                        if !rows.is_empty() {
                            ctx.metrics
                                .add(&ctx.metrics.join_probe_rows, rows.len() as u64);
                            let batch = Batch::from_rows(&shape.probe_types, &rows)?;
                            if let Some(out) = part.build.join(batch, shape, ctx)? {
                                return Ok(Some(out));
                            }
                        }
                        continue;
                    }
                    // Partition's unmatched-build tail, then next partition.
                    match part.build.unmatched_tail(shape, ctx.batch_size)? {
                        Some(b) => return Ok(Some(b)),
                        None => {
                            if let Some(done) = current.take() {
                                ctx.release_memory(done.reserved);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect_rows;
    use crate::ops::scan::BatchSource;

    fn probe_side() -> BoxedBatchOp {
        // (k, tag): keys 0..8 plus a NULL key row.
        let mut rows: Vec<Row> = (0..8)
            .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("p{i}"))]))
            .collect();
        rows.push(Row::new(vec![Value::Null, Value::str("pnull")]));
        Box::new(BatchSource::from_rows(vec![DataType::Int64, DataType::Utf8], &rows, 3).unwrap())
    }

    fn build_side() -> BoxedBatchOp {
        // keys 4..12 (overlap 4..8), one duplicate key 5, one NULL key.
        let mut rows: Vec<Row> = (4..12)
            .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("b{i}"))]))
            .collect();
        rows.push(Row::new(vec![Value::Int64(5), Value::str("b5x")]));
        rows.push(Row::new(vec![Value::Null, Value::str("bnull")]));
        Box::new(BatchSource::from_rows(vec![DataType::Int64, DataType::Utf8], &rows, 4).unwrap())
    }

    fn join(join_type: JoinType, ctx: ExecContext) -> Vec<Row> {
        let j = BatchHashJoin::new(probe_side(), build_side(), vec![0], vec![0], join_type, ctx)
            .unwrap();
        let mut rows = collect_rows(Box::new(j)).unwrap();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    fn keys_of(rows: &[Row], col: usize) -> Vec<Option<i64>> {
        let mut k: Vec<Option<i64>> = rows.iter().map(|r| r.get(col).as_i64()).collect();
        k.sort();
        k
    }

    #[test]
    fn inner_join_matches_overlap() {
        let rows = join(JoinType::Inner, ExecContext::default());
        // keys 4,6,7 match once; key 5 matches twice (duplicate build) = 5.
        assert_eq!(rows.len(), 5);
        assert_eq!(
            keys_of(&rows, 0),
            vec![Some(4), Some(5), Some(5), Some(6), Some(7)]
        );
        // Build columns present.
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn left_outer_keeps_unmatched_probe() {
        let rows = join(JoinType::LeftOuter, ExecContext::default());
        // 5 matches + probe keys 0,1,2,3 and the NULL-key probe row = 10.
        assert_eq!(rows.len(), 10);
        let null_extended = rows.iter().filter(|r| r.get(2).is_null()).count();
        assert_eq!(null_extended, 5);
    }

    #[test]
    fn right_outer_keeps_unmatched_build() {
        let rows = join(JoinType::RightOuter, ExecContext::default());
        // 5 matches + build keys 8,9,10,11 and NULL-key build row = 10.
        assert_eq!(rows.len(), 10);
        let null_probe = rows.iter().filter(|r| r.get(0).is_null()).count();
        assert_eq!(null_probe, 5);
    }

    #[test]
    fn full_outer_is_union() {
        let rows = join(JoinType::FullOuter, ExecContext::default());
        assert_eq!(rows.len(), 15);
    }

    #[test]
    fn semi_and_anti_partition_probe() {
        let semi = join(JoinType::LeftSemi, ExecContext::default());
        assert_eq!(keys_of(&semi, 0), vec![Some(4), Some(5), Some(6), Some(7)]);
        assert_eq!(semi[0].len(), 2, "semi join outputs probe columns only");
        let anti = join(JoinType::LeftAnti, ExecContext::default());
        // 0..4 plus the NULL-key probe row (NOT EXISTS semantics).
        assert_eq!(
            keys_of(&anti, 0),
            vec![None, Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn spilling_produces_identical_results() {
        for join_type in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
            JoinType::LeftSemi,
            JoinType::LeftAnti,
        ] {
            let in_mem = join(join_type, ExecContext::default());
            let tiny = ExecContext::default().with_budget(64); // force spill
            let spilled = join(join_type, tiny.clone());
            assert_eq!(in_mem, spilled, "{join_type:?} differs when spilled");
            assert!(
                tiny.metrics.counters().partitions_spilled > 0,
                "{join_type:?} did not actually spill"
            );
        }
    }

    #[test]
    fn exhausted_ledger_forces_spill_not_error() {
        use cstore_common::governor::MemoryLedger;
        // The per-operator budget is huge; only the shared ledger is tight.
        // The build side must degrade to the spill path and still produce
        // identical results.
        let ledger = std::sync::Arc::new(MemoryLedger::default());
        ledger.set_limit(256);
        let governed = ExecContext::default()
            .with_ledger(std::sync::Arc::clone(&ledger))
            .for_query();
        let spilled = join(JoinType::Inner, governed.clone());
        assert_eq!(join(JoinType::Inner, ExecContext::default()), spilled);
        assert!(
            governed.metrics.counters().partitions_spilled > 0,
            "tight ledger did not force a spill"
        );
        drop(governed);
        assert_eq!(ledger.reserved(), 0, "join leaked ledger bytes");
    }

    #[test]
    fn ledger_too_small_for_one_partition_fails_cleanly() {
        use cstore_common::governor::MemoryLedger;
        let ledger = std::sync::Arc::new(MemoryLedger::default());
        ledger.set_limit(8); // below even a single partition's footprint
        let ctx = ExecContext::default()
            .with_ledger(std::sync::Arc::clone(&ledger))
            .for_query();
        let j = BatchHashJoin::new(
            probe_side(),
            build_side(),
            vec![0],
            vec![0],
            JoinType::Inner,
            ctx,
        )
        .unwrap();
        let err = collect_rows(Box::new(j)).unwrap_err();
        assert_eq!(err.code(), "RESOURCE_EXHAUSTED", "{err}");
        assert_eq!(ledger.reserved(), 0, "failed join leaked ledger bytes");
    }

    #[test]
    fn expired_deadline_aborts_build_loop() {
        let ctx = ExecContext::default().with_deadline(Some(std::time::Instant::now()));
        let j = BatchHashJoin::new(
            probe_side(),
            build_side(),
            vec![0],
            vec![0],
            JoinType::Inner,
            ctx,
        )
        .unwrap();
        let err = collect_rows(Box::new(j)).unwrap_err();
        assert!(err.to_string().contains("query timeout"), "{err}");
    }

    #[test]
    fn multi_column_keys() {
        let probe_rows: Vec<Row> = vec![
            Row::new(vec![Value::Int64(1), Value::str("a")]),
            Row::new(vec![Value::Int64(1), Value::str("b")]),
            Row::new(vec![Value::Int64(2), Value::str("a")]),
        ];
        let build_rows: Vec<Row> = vec![
            Row::new(vec![Value::Int64(1), Value::str("a")]),
            Row::new(vec![Value::Int64(2), Value::str("b")]),
        ];
        let types = vec![DataType::Int64, DataType::Utf8];
        let probe = Box::new(BatchSource::from_rows(types.clone(), &probe_rows, 8).unwrap());
        let build = Box::new(BatchSource::from_rows(types, &build_rows, 8).unwrap());
        let j = BatchHashJoin::new(
            probe,
            build,
            vec![0, 1],
            vec![0, 1],
            JoinType::Inner,
            ExecContext::default(),
        )
        .unwrap();
        let rows = collect_rows(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(1));
        assert_eq!(rows[0].get(1), &Value::str("a"));
    }

    #[test]
    fn bitmap_filter_published_on_build() {
        let slot: FilterSlot = std::sync::Arc::new(std::sync::OnceLock::new());
        let j = BatchHashJoin::new(
            probe_side(),
            build_side(),
            vec![0],
            vec![0],
            JoinType::Inner,
            ExecContext::default(),
        )
        .unwrap()
        .with_filter_slot(slot.clone());
        let _ = collect_rows(Box::new(j)).unwrap();
        let filter = slot.get().unwrap().as_ref().unwrap();
        for k in 4..12 {
            assert!(filter.maybe_contains(k));
        }
        assert!(!filter.maybe_contains(0));
    }

    #[test]
    fn keys_of_different_physical_shapes_are_refused() {
        // (k BIGINT, tag VARCHAR) on both sides: k = tag compares an
        // integer image with an interned string id.
        let err = BatchHashJoin::new(
            probe_side(),
            build_side(),
            vec![0],
            vec![1],
            JoinType::Inner,
            ExecContext::default(),
        )
        .err()
        .expect("mismatched key shapes");
        assert_eq!(err.code(), "PLAN", "{err}");
    }

    #[test]
    fn key_arity_validated() {
        assert!(BatchHashJoin::new(
            probe_side(),
            build_side(),
            vec![0],
            vec![0, 1],
            JoinType::Inner,
            ExecContext::default(),
        )
        .is_err());
    }

    #[test]
    fn empty_build_side() {
        let probe = probe_side();
        let build: BoxedBatchOp = Box::new(BatchSource::new(
            vec![DataType::Int64, DataType::Utf8],
            vec![],
        ));
        let j = BatchHashJoin::new(
            probe,
            build,
            vec![0],
            vec![0],
            JoinType::LeftOuter,
            ExecContext::default(),
        )
        .unwrap();
        let rows = collect_rows(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 9, "all probe rows null-extended");
        assert!(rows.iter().all(|r| r.get(2).is_null()));
    }
}
