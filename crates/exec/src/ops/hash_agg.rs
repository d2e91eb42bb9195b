//! Batch-mode hash aggregation (grouped and scalar).
//!
//! The paper's expanded repertoire includes batch-mode scalar aggregates
//! and grouped aggregation; both live here. A batch's group keys resolve
//! to group ids through the packed-key table the hash join also uses
//! ([`crate::keytable`]); each aggregate then updates its own typed state
//! array from its argument column in one loop over the batch. Scalar
//! aggregation is the same loop with every row in group 0.

use std::borrow::Cow;
use std::sync::Arc;

use cstore_common::{Bitmap, DataType, Error, Result};

use crate::batch::Batch;
use crate::expr::Expr;
use crate::keytable::{KeyKind, KeyTable};
use crate::ops::{BatchOperator, BoxedBatchOp};
use crate::runtime::ExecContext;
use crate::vector::{null_bitmap, StrVector, Vector};

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    /// `COUNT(DISTINCT expr)` — counts distinct non-null values.
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate: a function and (except `COUNT(*)`) its argument.
#[derive(Clone, Debug)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

impl AggExpr {
    pub fn count_star() -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    pub fn new(func: AggFunc, arg: Expr) -> Self {
        AggExpr {
            func,
            arg: Some(arg),
        }
    }

    /// Output type of this aggregate given input column types.
    pub fn output_type(&self, inputs: &[DataType]) -> Result<DataType> {
        Ok(match self.func {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => {
                let t = self.arg_type(inputs)?;
                if t == DataType::Float64 {
                    DataType::Float64
                } else if let DataType::Decimal { scale } = t {
                    DataType::Decimal { scale }
                } else {
                    DataType::Int64
                }
            }
            AggFunc::Min | AggFunc::Max => self.arg_type(inputs)?,
        })
    }

    fn arg_type(&self, inputs: &[DataType]) -> Result<DataType> {
        self.arg
            .as_ref()
            .ok_or_else(|| Error::Plan(format!("{:?} requires an argument", self.func)))?
            .infer_type(inputs)
    }
}

/// How `SUM`, `MIN` and `MAX` combine a value into their accumulator.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    Sum,
    Min,
    Max,
}

/// Running state of one aggregate for every group: a typed array per
/// quantity, indexed by group id.
enum AggColumn {
    /// `COUNT(*)` and `COUNT(expr)`.
    Count(Vec<i64>),
    /// `COUNT(DISTINCT expr)`: the distinct (group, value) pairs seen; a
    /// new pair bumps its group's count.
    Distinct { pairs: KeyTable, counts: Vec<i64> },
    /// `SUM`/`MIN`/`MAX` over an integer-backed argument; `seen` marks the
    /// groups that met a non-NULL value (the others yield NULL).
    I64 {
        fold: Fold,
        acc: Vec<i64>,
        seen: Vec<bool>,
    },
    /// The same over a float argument.
    F64 {
        fold: Fold,
        acc: Vec<f64>,
        seen: Vec<bool>,
    },
    /// `MIN`/`MAX` over strings.
    Str {
        want_max: bool,
        best: Vec<Option<Arc<str>>>,
    },
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
        /// 10^scale for decimal inputs (mantissas divide out at the end).
        divisor: f64,
    },
}

/// Run `f` on every row of `0..n` that `nulls` does not mark.
#[inline(always)]
fn for_each_valid(nulls: Option<&Bitmap>, n: usize, mut f: impl FnMut(usize)) {
    match nulls {
        None => (0..n).for_each(f),
        Some(nulls) => {
            for i in 0..n {
                if !nulls.get(i) {
                    f(i);
                }
            }
        }
    }
}

/// `src` at `entries`, in that order.
fn gathered<T: Copy>(src: &[T], entries: &[u32]) -> Vec<T> {
    entries.iter().map(|&e| src[e as usize]).collect()
}

impl AggColumn {
    fn new(func: AggFunc, arg_ty: DataType) -> AggColumn {
        let kind = KeyKind::of(arg_ty);
        let fold = match func {
            AggFunc::CountStar | AggFunc::Count => return AggColumn::Count(Vec::new()),
            AggFunc::CountDistinct => {
                return AggColumn::Distinct {
                    pairs: KeyTable::new(vec![KeyKind::I64, kind]),
                    counts: Vec::new(),
                }
            }
            AggFunc::Avg => {
                return AggColumn::Avg {
                    sums: Vec::new(),
                    counts: Vec::new(),
                    divisor: match arg_ty {
                        DataType::Decimal { scale } => 10f64.powi(scale as i32),
                        _ => 1.0,
                    },
                }
            }
            AggFunc::Sum => Fold::Sum,
            AggFunc::Min => Fold::Min,
            AggFunc::Max => Fold::Max,
        };
        match kind {
            KeyKind::F64 => AggColumn::F64 {
                fold,
                acc: Vec::new(),
                seen: Vec::new(),
            },
            KeyKind::Str if fold != Fold::Sum => AggColumn::Str {
                want_max: fold == Fold::Max,
                best: Vec::new(),
            },
            // SUM over strings lands here too and fails at its first batch.
            _ => AggColumn::I64 {
                fold,
                acc: Vec::new(),
                seen: Vec::new(),
            },
        }
    }

    /// Extend every array to `n_groups` groups, new ones at their start
    /// state.
    fn grow(&mut self, n_groups: usize) {
        match self {
            AggColumn::Count(counts) | AggColumn::Distinct { counts, .. } => {
                counts.resize(n_groups, 0)
            }
            AggColumn::I64 { acc, seen, .. } => {
                acc.resize(n_groups, 0);
                seen.resize(n_groups, false);
            }
            AggColumn::F64 { acc, seen, .. } => {
                acc.resize(n_groups, 0.0);
                seen.resize(n_groups, false);
            }
            AggColumn::Str { best, .. } => best.resize(n_groups, None),
            AggColumn::Avg { sums, counts, .. } => {
                sums.resize(n_groups, 0.0);
                counts.resize(n_groups, 0);
            }
        }
    }

    /// Heap bytes of the state arrays.
    fn approx_bytes(&self) -> usize {
        match self {
            AggColumn::Count(counts) => counts.len() * 8,
            AggColumn::Distinct { pairs, counts } => pairs.approx_bytes() + counts.len() * 8,
            AggColumn::I64 { seen, .. } | AggColumn::F64 { seen, .. } => seen.len() * 9,
            // The strings themselves are shared with the input's.
            AggColumn::Str { best, .. } => best.len() * 16,
            AggColumn::Avg { sums, .. } => sums.len() * 16,
        }
    }

    /// Fold one batch in. `gids` holds each row's group; `None` puts every
    /// row in group 0 (scalar aggregation). `arg` is the evaluated
    /// argument, absent for `COUNT(*)`.
    fn update(
        &mut self,
        gids: Option<&[u32]>,
        arg: Option<&Vector>,
        n: usize,
        scratch: &mut Vec<u32>,
    ) -> Result<()> {
        if let AggColumn::Distinct { pairs, counts } = self {
            let arg = arg.ok_or_else(|| Error::Plan("COUNT(DISTINCT) without argument".into()))?;
            let groups = Vector::I64 {
                values: match gids {
                    Some(gids) => gids.iter().map(|&g| g as i64).collect(),
                    None => vec![0; n],
                },
                nulls: None,
            };
            // Entries are numbered in order of first appearance, so a row
            // is the first of its pair exactly when its entry is the next
            // unused number. NULL arguments get no entry.
            let mut next_new = pairs.len() as u32;
            pairs.insert_non_null(&[&groups, arg], scratch)?;
            for (i, &pair) in scratch.iter().enumerate() {
                if pair == next_new {
                    counts[gids.map_or(0, |g| g[i] as usize)] += 1;
                    next_new += 1;
                }
            }
            return Ok(());
        }
        match gids {
            Some(gids) => self.update_typed(|i| gids[i] as usize, arg, n),
            None => self.update_typed(|_| 0, arg, n),
        }
    }

    /// The per-function loops, compiled once for grouped input and once
    /// for the single group, where each reduces its column directly.
    fn update_typed(
        &mut self,
        group: impl Fn(usize) -> usize,
        arg: Option<&Vector>,
        n: usize,
    ) -> Result<()> {
        match (self, arg) {
            // COUNT(*) counts rows; COUNT(expr) counts non-null values.
            (AggColumn::Count(counts), arg) => {
                for_each_valid(arg.and_then(Vector::nulls), n, |i| counts[group(i)] += 1)
            }
            (AggColumn::I64 { fold, acc, seen }, Some(Vector::I64 { values, nulls })) => {
                let nulls = nulls.as_ref();
                match fold {
                    Fold::Sum => {
                        // Any prefix that overflows is an error, noted in
                        // a flag so the loop itself stays branch-free.
                        let mut overflow = false;
                        for_each_valid(nulls, n, |i| {
                            let g = group(i);
                            let (sum, o) = acc[g].overflowing_add(values[i]);
                            acc[g] = sum;
                            overflow |= o;
                            seen[g] = true;
                        });
                        if overflow {
                            return Err(Error::Execution("SUM overflow".into()));
                        }
                    }
                    Fold::Min | Fold::Max => {
                        let want_max = *fold == Fold::Max;
                        for_each_valid(nulls, n, |i| {
                            let (g, x) = (group(i), values[i]);
                            if !seen[g] || (if want_max { x > acc[g] } else { x < acc[g] }) {
                                acc[g] = x;
                                seen[g] = true;
                            }
                        })
                    }
                }
            }
            (AggColumn::F64 { fold, acc, seen }, Some(Vector::F64 { values, nulls })) => {
                let nulls = nulls.as_ref();
                match fold {
                    Fold::Sum => for_each_valid(nulls, n, |i| {
                        let g = group(i);
                        acc[g] += values[i];
                        seen[g] = true;
                    }),
                    Fold::Min | Fold::Max => {
                        let want_max = *fold == Fold::Max;
                        for_each_valid(nulls, n, |i| {
                            let (g, x) = (group(i), values[i]);
                            let ord = x.total_cmp(&acc[g]);
                            if !seen[g] || (if want_max { ord.is_gt() } else { ord.is_lt() }) {
                                acc[g] = x;
                                seen[g] = true;
                            }
                        })
                    }
                }
            }
            (AggColumn::Str { want_max, best }, Some(Vector::Str { strings, nulls })) => {
                for_each_valid(nulls.as_ref(), n, |i| {
                    let (slot, s) = (&mut best[group(i)], strings.get(i));
                    let better = slot.as_ref().is_none_or(|b| {
                        if *want_max {
                            s.as_ref() > b.as_ref()
                        } else {
                            s.as_ref() < b.as_ref()
                        }
                    });
                    if better {
                        *slot = Some(s.clone());
                    }
                })
            }
            (AggColumn::Avg { sums, counts, .. }, Some(Vector::I64 { values, nulls })) => {
                for_each_valid(nulls.as_ref(), n, |i| {
                    let g = group(i);
                    sums[g] += values[i] as f64;
                    counts[g] += 1;
                })
            }
            (AggColumn::Avg { sums, counts, .. }, Some(Vector::F64 { values, nulls })) => {
                for_each_valid(nulls.as_ref(), n, |i| {
                    let g = group(i);
                    sums[g] += values[i];
                    counts[g] += 1;
                })
            }
            _ => {
                return Err(Error::Type(
                    "aggregate argument is not of the type the aggregate was planned for".into(),
                ))
            }
        }
        Ok(())
    }

    /// The results of groups `entries`, in that order.
    fn finish(&self, entries: &[u32]) -> Vector {
        match self {
            AggColumn::Count(counts) | AggColumn::Distinct { counts, .. } => Vector::I64 {
                values: gathered(counts, entries),
                nulls: None,
            },
            AggColumn::I64 { acc, seen, .. } => Vector::I64 {
                values: gathered(acc, entries),
                nulls: null_bitmap(entries.len(), |i| !seen[entries[i] as usize]),
            },
            AggColumn::F64 { acc, seen, .. } => Vector::F64 {
                values: gathered(acc, entries),
                nulls: null_bitmap(entries.len(), |i| !seen[entries[i] as usize]),
            },
            AggColumn::Str { best, .. } => {
                let empty: Arc<str> = Arc::from("");
                Vector::Str {
                    strings: StrVector::Owned(
                        entries
                            .iter()
                            .map(|&g| best[g as usize].as_ref().unwrap_or(&empty).clone())
                            .collect(),
                    ),
                    nulls: null_bitmap(entries.len(), |i| best[entries[i] as usize].is_none()),
                }
            }
            AggColumn::Avg {
                sums,
                counts,
                divisor,
            } => Vector::F64 {
                values: entries
                    .iter()
                    .map(|&g| sums[g as usize] / counts[g as usize] as f64 / divisor)
                    .collect(),
                nulls: null_bitmap(entries.len(), |i| counts[entries[i] as usize] == 0),
            },
        }
    }
}

/// Hash aggregation operator. With no group-by expressions it produces a
/// single scalar row (even over empty input, per SQL).
pub struct HashAggOp {
    input: Option<BoxedBatchOp>,
    group_by: Vec<Expr>,
    aggs: Vec<AggExpr>,
    ctx: ExecContext,
    output_types: Vec<DataType>,
    agg_arg_types: Vec<DataType>,
    /// Bytes of key table and state arrays reserved against the ledger.
    reserved: usize,
    result: Option<std::vec::IntoIter<Batch>>,
}

/// Evaluate `expr`, borrowing the batch's own vector for a bare column.
fn eval_cow<'a>(expr: &Expr, batch: &'a Batch) -> Result<Cow<'a, Vector>> {
    match expr {
        Expr::Col(i) => Ok(Cow::Borrowed(batch.column(*i))),
        _ => expr.eval(batch).map(Cow::Owned),
    }
}

impl HashAggOp {
    pub fn new(
        input: BoxedBatchOp,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
        ctx: ExecContext,
    ) -> Result<Self> {
        let in_types = input.output_types();
        let mut output_types = Vec::with_capacity(group_by.len() + aggs.len());
        for g in &group_by {
            output_types.push(g.infer_type(in_types)?);
        }
        let mut agg_arg_types = Vec::with_capacity(aggs.len());
        for a in &aggs {
            output_types.push(a.output_type(in_types)?);
            agg_arg_types.push(match &a.arg {
                Some(e) => e.infer_type(in_types)?,
                None => DataType::Int64,
            });
        }
        Ok(HashAggOp {
            input: Some(input),
            group_by,
            aggs,
            ctx,
            output_types,
            agg_arg_types,
            reserved: 0,
            result: None,
        })
    }

    /// Bring the ledger reservation up to `footprint` bytes. There is no
    /// spill path yet, so exhaustion fails the query cleanly.
    fn charge(&mut self, footprint: usize) -> Result<()> {
        if footprint > self.reserved {
            self.ctx.reserve_memory(footprint - self.reserved)?;
            self.reserved = footprint;
        }
        Ok(())
    }

    fn execute(&mut self) -> Result<Vec<Batch>> {
        let mut input = self
            .input
            .take()
            .ok_or_else(|| Error::Execution("aggregate executed twice".into()))?;
        let n_keys = self.group_by.len();
        // Scalar aggregation has no key table and one group from the start.
        let mut table = (n_keys > 0).then(|| {
            KeyTable::new(
                self.output_types[..n_keys]
                    .iter()
                    .map(|&ty| KeyKind::of(ty))
                    .collect(),
            )
        });
        let mut n_groups = usize::from(table.is_none());
        let mut states: Vec<AggColumn> = self
            .aggs
            .iter()
            .zip(&self.agg_arg_types)
            .map(|(a, &ty)| AggColumn::new(a.func, ty))
            .collect();
        states.iter_mut().for_each(|s| s.grow(n_groups));
        let (mut gids, mut scratch) = (Vec::new(), Vec::new());
        while let Some(batch) = input.next()? {
            let batch = batch.compact();
            let n = batch.n_rows();
            if n == 0 {
                continue;
            }
            if let Some(table) = &mut table {
                let keys = self
                    .group_by
                    .iter()
                    .map(|g| eval_cow(g, &batch))
                    .collect::<Result<Vec<_>>>()?;
                let keys: Vec<&Vector> = keys.iter().map(Cow::as_ref).collect();
                table.group_ids(&keys, &mut gids)?;
                if table.len() > n_groups {
                    n_groups = table.len();
                    states.iter_mut().for_each(|s| s.grow(n_groups));
                }
            }
            let gids = table.is_some().then_some(gids.as_slice());
            for (state, agg) in states.iter_mut().zip(&self.aggs) {
                let arg = agg.arg.as_ref().map(|e| eval_cow(e, &batch)).transpose()?;
                state.update(gids, arg.as_deref(), n, &mut scratch)?;
            }
            self.charge(
                table.as_ref().map_or(0, KeyTable::approx_bytes)
                    + states.iter().map(AggColumn::approx_bytes).sum::<usize>(),
            )?;
        }
        // Groups leave in ascending key order: deterministic output helps
        // tests and result display.
        let order = table.as_ref().map_or(vec![0], KeyTable::sorted_entries);
        let mut batches = Vec::new();
        for entries in order.chunks(self.ctx.batch_size) {
            let mut columns = Vec::with_capacity(self.output_types.len());
            if let Some(table) = &table {
                columns.extend((0..n_keys).map(|c| table.key_column(c, entries)));
            }
            columns.extend(states.iter().map(|s| s.finish(entries)));
            batches.push(Batch::new(self.output_types.clone(), columns));
        }
        self.ctx.release_memory(std::mem::take(&mut self.reserved));
        Ok(batches)
    }
}

impl Drop for HashAggOp {
    fn drop(&mut self) {
        // An aggregation that failed midway still holds its reservation.
        self.ctx.release_memory(self.reserved);
    }
}

impl BatchOperator for HashAggOp {
    fn output_types(&self) -> &[DataType] {
        &self.output_types
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.result.is_none() {
            let batches = self.execute()?;
            self.result = Some(batches.into_iter());
        }
        Ok(self.result.as_mut().and_then(Iterator::next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect_rows;
    use crate::ops::scan::BatchSource;
    use cstore_common::{Row, Value};

    fn source() -> BoxedBatchOp {
        // (cat, amount): cats a/b/c, amount i, NULL amount when i % 5 == 0.
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                Row::new(vec![
                    Value::str(["a", "b", "c"][(i % 3) as usize]),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i)
                    },
                ])
            })
            .collect();
        Box::new(BatchSource::from_rows(vec![DataType::Utf8, DataType::Int64], &rows, 7).unwrap())
    }

    #[test]
    fn grouped_aggregation() {
        let agg = HashAggOp::new(
            source(),
            vec![Expr::col(0)],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Count, Expr::col(1)),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
                AggExpr::new(AggFunc::Min, Expr::col(1)),
                AggExpr::new(AggFunc::Max, Expr::col(1)),
            ],
            ExecContext::default(),
        )
        .unwrap();
        let rows = collect_rows(Box::new(agg)).unwrap();
        assert_eq!(rows.len(), 3);
        // Group "a": i in {0,3,..,27}, nulls at 0,15; count*=10, count=8.
        let a = rows.iter().find(|r| r.get(0) == &Value::str("a")).unwrap();
        assert_eq!(a.get(1), &Value::Int64(10));
        assert_eq!(a.get(2), &Value::Int64(8));
        let sum_a: i64 = (0..30).filter(|i| i % 3 == 0 && i % 5 != 0).sum();
        assert_eq!(a.get(3), &Value::Int64(sum_a));
        assert_eq!(a.get(4), &Value::Int64(3));
        assert_eq!(a.get(5), &Value::Int64(27));
    }

    #[test]
    fn scalar_aggregation_over_empty_input() {
        let empty: BoxedBatchOp = Box::new(BatchSource::new(vec![DataType::Int64], vec![]));
        let agg = HashAggOp::new(
            empty,
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(0)),
                AggExpr::new(AggFunc::Avg, Expr::col(0)),
            ],
            ExecContext::default(),
        )
        .unwrap();
        let rows = collect_rows(Box::new(agg)).unwrap();
        assert_eq!(rows.len(), 1, "scalar agg yields one row even when empty");
        assert_eq!(rows[0].get(0), &Value::Int64(0));
        assert_eq!(rows[0].get(1), &Value::Null, "SUM of nothing is NULL");
        assert_eq!(rows[0].get(2), &Value::Null, "AVG of nothing is NULL");
    }

    #[test]
    fn avg_and_float_sum() {
        let rows: Vec<Row> = (1..=4)
            .map(|i| Row::new(vec![Value::Float64(i as f64)]))
            .collect();
        let src: BoxedBatchOp =
            Box::new(BatchSource::from_rows(vec![DataType::Float64], &rows, 2).unwrap());
        let agg = HashAggOp::new(
            src,
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, Expr::col(0)),
                AggExpr::new(AggFunc::Avg, Expr::col(0)),
            ],
            ExecContext::default(),
        )
        .unwrap();
        let out = collect_rows(Box::new(agg)).unwrap();
        assert_eq!(out[0].get(0), &Value::Float64(10.0));
        assert_eq!(out[0].get(1), &Value::Float64(2.5));
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let rows = vec![
            Row::new(vec![Value::Null, Value::Int64(1)]),
            Row::new(vec![Value::Null, Value::Int64(2)]),
            Row::new(vec![Value::Int64(7), Value::Int64(3)]),
        ];
        let src: BoxedBatchOp = Box::new(
            BatchSource::from_rows(vec![DataType::Int64, DataType::Int64], &rows, 8).unwrap(),
        );
        let agg = HashAggOp::new(
            src,
            vec![Expr::col(0)],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
            ExecContext::default(),
        )
        .unwrap();
        let out = collect_rows(Box::new(agg)).unwrap();
        assert_eq!(out.len(), 2);
        let null_group = out.iter().find(|r| r.get(0).is_null()).unwrap();
        assert_eq!(null_group.get(1), &Value::Int64(3));
    }

    /// (g, v, s): g = i % 2 (NULL every 9th row), v = i % 3 (NULL every
    /// 7th row), s from three strings (NULL every 5th row).
    fn mixed_rows() -> Vec<Row> {
        (0..60i64)
            .map(|i| {
                let or_null = |every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
                Row::new(vec![
                    or_null(9, Value::Int64(i % 2)),
                    or_null(7, Value::Int64(i % 3)),
                    or_null(5, Value::str(["pear", "fig", "kiwi"][(i % 3) as usize])),
                ])
            })
            .collect()
    }

    #[test]
    fn distinct_counts_and_string_extremes_grouped_and_scalar() {
        let rows = mixed_rows();
        let types = vec![DataType::Int64, DataType::Int64, DataType::Utf8];
        let run = |group_by: Vec<Expr>| {
            let src = Box::new(BatchSource::from_rows(types.clone(), &rows, 11).unwrap());
            let aggs = vec![
                AggExpr::new(AggFunc::CountDistinct, Expr::col(1)),
                AggExpr::new(AggFunc::CountDistinct, Expr::col(2)),
                AggExpr::new(AggFunc::Min, Expr::col(2)),
                AggExpr::new(AggFunc::Max, Expr::col(2)),
            ];
            let agg = HashAggOp::new(src, group_by, aggs, ExecContext::default()).unwrap();
            collect_rows(Box::new(agg)).unwrap()
        };
        // What a row-at-a-time pass over the rows of one group says.
        let expect = |in_group: &dyn Fn(&Row) -> bool| -> Vec<Value> {
            let of = |col: usize| -> Vec<&Value> {
                let mut vals: Vec<&Value> = rows
                    .iter()
                    .filter(|r| in_group(r) && !r.get(col).is_null())
                    .map(|r| r.get(col))
                    .collect();
                vals.sort();
                vals.dedup();
                vals
            };
            let (v, s) = (of(1), of(2));
            vec![
                Value::Int64(v.len() as i64),
                Value::Int64(s.len() as i64),
                s.first().map_or(Value::Null, |x| (*x).clone()),
                s.last().map_or(Value::Null, |x| (*x).clone()),
            ]
        };
        let scalar = run(vec![]);
        assert_eq!(scalar.len(), 1);
        assert_eq!(scalar[0].values(), expect(&|_| true));
        let grouped = run(vec![Expr::col(0)]);
        // NULL group first, then 0, then 1.
        let keys: Vec<Value> = vec![Value::Null, Value::Int64(0), Value::Int64(1)];
        assert_eq!(grouped.len(), keys.len());
        for (row, key) in grouped.iter().zip(&keys) {
            assert_eq!(row.get(0), key);
            assert_eq!(&row.values()[1..], expect(&|r| r.get(0) == key), "{key:?}");
        }
    }

    #[test]
    fn composite_keys_leave_in_ascending_order() {
        let src = Box::new(
            BatchSource::from_rows(
                vec![DataType::Int64, DataType::Int64, DataType::Utf8],
                &mixed_rows(),
                13,
            )
            .unwrap(),
        );
        let agg = HashAggOp::new(
            src,
            vec![Expr::col(2), Expr::col(0)],
            vec![AggExpr::count_star()],
            ExecContext::default(),
        )
        .unwrap();
        let out = collect_rows(Box::new(agg)).unwrap();
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(out, sorted);
        assert!(out[0].get(0).is_null() && out[0].get(1).is_null());
        let total: i64 = out.iter().map(|r| r.get(2).as_i64().unwrap()).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn state_is_charged_to_the_ledger_and_returned() {
        use cstore_common::governor::MemoryLedger;
        let rows: Vec<Row> = (0..5000).map(|i| Row::new(vec![Value::Int64(i)])).collect();
        let run = |limit: u64| {
            let ledger = std::sync::Arc::new(MemoryLedger::default());
            ledger.set_limit(limit);
            let ctx = ExecContext::default()
                .with_ledger(std::sync::Arc::clone(&ledger))
                .for_query();
            let src = Box::new(BatchSource::from_rows(vec![DataType::Int64], &rows, 900).unwrap());
            let mut agg = HashAggOp::new(
                src,
                vec![Expr::col(0)],
                vec![AggExpr::count_star()],
                ctx.clone(),
            )
            .unwrap();
            let first = agg.next().map(|b| b.map(|b| b.n_rows()));
            // Finished or failed, nothing stays reserved — checked while
            // the query's context is still alive.
            let reserved_after = ledger.reserved();
            drop(agg);
            (first, reserved_after, ledger.reserved())
        };
        let (first, after, dropped) = run(1 << 30);
        assert_eq!(first.unwrap(), Some(900));
        assert_eq!((after, dropped), (0, 0));
        // 5000 keys of two words, hashes, chains, buckets and counts are
        // well past 32 KiB.
        let (first, _, dropped) = run(32 << 10);
        assert_eq!(first.unwrap_err().code(), "RESOURCE_EXHAUSTED");
        assert_eq!(dropped, 0, "failed aggregation leaked ledger bytes");
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let rows = vec![
            Row::new(vec![Value::Int64(i64::MAX)]),
            Row::new(vec![Value::Int64(1)]),
        ];
        let src: BoxedBatchOp =
            Box::new(BatchSource::from_rows(vec![DataType::Int64], &rows, 8).unwrap());
        let mut agg = HashAggOp::new(
            src,
            vec![],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(0))],
            ExecContext::default(),
        )
        .unwrap();
        assert!(agg.next().is_err());
    }
}
