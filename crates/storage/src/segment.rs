//! Column segments: the unit of columnar storage.
//!
//! A segment holds one column of one row group. Its layers:
//!
//! ```text
//! raw values ──primary encoding──► codes ──payload compression──► bytes
//!              (dictionary or            (RLE or bit packing)
//!               value-based)
//! ```
//!
//! plus a NULL bitmap and min/max metadata. Scans can (a) decode the whole
//! segment into a vector, or (b) evaluate a pushed-down predicate directly
//! on codes without decompressing (`eval_pred`).

use std::sync::Arc;

use cstore_common::{Bitmap, DataType, Error, Result, Value};

use crate::encode::{Dictionary, PackedInts, PayloadKind, PrimaryEncoding, RleVec, ValueEncoding};
use crate::pred::ColumnPred;

/// The physically compressed code sequence.
#[derive(Clone, Debug)]
pub enum Payload {
    Rle(RleVec),
    Packed(PackedInts),
}

impl Payload {
    pub fn len(&self) -> usize {
        match self {
            Payload::Rle(r) => r.len(),
            Payload::Packed(p) => p.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Rle(_) => PayloadKind::Rle,
            Payload::Packed(_) => PayloadKind::BitPacked,
        }
    }

    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        match self {
            Payload::Rle(r) => r.get(idx),
            Payload::Packed(p) => p.get(idx),
        }
    }

    pub fn decode_into(&self, out: &mut Vec<u64>) {
        match self {
            Payload::Rle(r) => r.decode_into(out),
            Payload::Packed(p) => p.decode_into(out),
        }
    }

    pub fn payload_bytes(&self) -> usize {
        match self {
            Payload::Rle(r) => r.payload_bytes(),
            Payload::Packed(p) => p.payload_bytes(),
        }
    }

    /// The codes at ascending `positions`.
    pub fn gather(&self, positions: &[u32]) -> Vec<u64> {
        match self {
            Payload::Rle(r) => r.gather(positions),
            Payload::Packed(p) => positions.iter().map(|&i| p.get(i as usize)).collect(),
        }
    }

    /// Set, in `out`, every row whose code lies in `[lo, hi]`.
    fn mark_code_range(&self, lo: u64, hi: u64, out: &mut Bitmap) {
        match self {
            Payload::Rle(r) => {
                for (code, s, e) in r.iter_runs() {
                    if code >= lo && code <= hi {
                        for i in s..e {
                            out.set(i);
                        }
                    }
                }
            }
            Payload::Packed(p) => {
                for i in 0..p.len() {
                    let c = p.get(i);
                    if c >= lo && c <= hi {
                        out.set(i);
                    }
                }
            }
        }
    }
}

/// Descriptive metadata of a segment, kept in the row-group directory so
/// elimination decisions never touch payload bytes.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    pub data_type: DataType,
    pub row_count: u32,
    pub null_count: u32,
    /// Min over non-null values (`None` iff all values are NULL).
    pub min: Option<Value>,
    /// Max over non-null values.
    pub max: Option<Value>,
    pub primary: PrimaryEncoding,
    pub payload: PayloadKind,
    /// Distinct non-null values, when known (dictionary size).
    pub distinct_count: Option<u32>,
    /// Encoded payload size in bytes (codes only).
    pub payload_bytes: u64,
    /// Dictionary heap size in bytes (0 for value-based encoding).
    pub dict_bytes: u64,
}

/// One column of one row group, fully encoded.
#[derive(Clone, Debug)]
pub struct ColumnSegment {
    pub meta: SegmentMeta,
    pub(crate) payload: Payload,
    pub(crate) nulls: Option<Bitmap>,
    /// Present iff `meta.primary == Dictionary`.
    pub(crate) dict: Option<Arc<Dictionary>>,
    /// Present iff `meta.primary == ValueBased`.
    pub(crate) venc: Option<ValueEncoding>,
    /// Largest code in the payload (cached for predicate rewriting).
    pub(crate) max_code: u64,
}

/// A decoded segment, in the cheapest faithful representation:
/// integer-backed and float columns decode to raw values; strings stay as
/// dictionary codes plus a shared dictionary (batch operators work on codes).
#[derive(Clone, Debug)]
pub enum SegmentValues {
    I64 {
        values: Vec<i64>,
        nulls: Option<Bitmap>,
    },
    F64 {
        values: Vec<f64>,
        nulls: Option<Bitmap>,
    },
    Str {
        codes: Vec<u32>,
        dict: Arc<Dictionary>,
        nulls: Option<Bitmap>,
    },
}

impl SegmentValues {
    pub fn len(&self) -> usize {
        match self {
            SegmentValues::I64 { values, .. } => values.len(),
            SegmentValues::F64 { values, .. } => values.len(),
            SegmentValues::Str { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx` as a `Value` of logical type `ty`.
    pub fn value_at(&self, idx: usize, ty: DataType) -> Value {
        match self {
            SegmentValues::I64 { values, nulls } => {
                if nulls.as_ref().is_some_and(|n| n.get(idx)) {
                    Value::Null
                } else {
                    Value::from_i64(ty, values[idx])
                }
            }
            SegmentValues::F64 { values, nulls } => {
                if nulls.as_ref().is_some_and(|n| n.get(idx)) {
                    Value::Null
                } else {
                    Value::Float64(values[idx])
                }
            }
            SegmentValues::Str { codes, dict, nulls } => {
                if nulls.as_ref().is_some_and(|n| n.get(idx)) {
                    Value::Null
                } else {
                    Value::Str(dict.str_at(codes[idx]).clone())
                }
            }
        }
    }
}

impl ColumnSegment {
    /// Assemble a segment from encoder output (see `builder`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        data_type: DataType,
        row_count: u32,
        nulls: Option<Bitmap>,
        min: Option<Value>,
        max: Option<Value>,
        payload: Payload,
        dict: Option<Arc<Dictionary>>,
        venc: Option<ValueEncoding>,
        max_code: u64,
    ) -> ColumnSegment {
        debug_assert_eq!(payload.len(), row_count as usize);
        debug_assert!(dict.is_some() ^ venc.is_some());
        let null_count = nulls.as_ref().map_or(0, |n| n.count_ones() as u32);
        let meta = SegmentMeta {
            data_type,
            row_count,
            null_count,
            min,
            max,
            primary: if dict.is_some() {
                PrimaryEncoding::Dictionary
            } else {
                PrimaryEncoding::ValueBased
            },
            payload: payload.kind(),
            distinct_count: dict.as_ref().map(|d| d.len() as u32),
            payload_bytes: payload.payload_bytes() as u64,
            dict_bytes: dict.as_ref().map_or(0, |d| d.heap_bytes() as u64),
        };
        ColumnSegment {
            meta,
            payload,
            nulls,
            dict,
            venc,
            max_code,
        }
    }

    pub fn row_count(&self) -> usize {
        self.meta.row_count as usize
    }

    pub fn data_type(&self) -> DataType {
        self.meta.data_type
    }

    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }

    pub fn value_encoding(&self) -> Option<ValueEncoding> {
        self.venc
    }

    pub fn nulls(&self) -> Option<&Bitmap> {
        self.nulls.as_ref()
    }

    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    pub fn max_code(&self) -> u64 {
        self.max_code
    }

    /// Total encoded size in bytes (payload + dictionary + null bitmap).
    /// This is the number the compression experiments report.
    pub fn encoded_bytes(&self) -> usize {
        self.meta.payload_bytes as usize
            + self.meta.dict_bytes as usize
            + self.nulls.as_ref().map_or(0, |n| n.words().len() * 8)
    }

    /// Decode the whole segment.
    pub fn decode(&self) -> SegmentValues {
        let _span = cstore_common::trace::global().span("segment.decode");
        let mut codes = Vec::new();
        self.payload.decode_into(&mut codes);
        self.values_of(&codes, self.nulls.clone())
    }

    /// Decode only the rows at `positions` (ascending), as a dense
    /// sequence: what a scan fetches when a few rows of the group
    /// qualify, instead of decoding the segment and gathering from it.
    pub fn decode_positions(&self, positions: &[u32]) -> SegmentValues {
        let nulls = self.nulls.as_ref().map(|n| {
            let mut out = Bitmap::zeros(positions.len());
            for (i, &p) in positions.iter().enumerate() {
                if n.get(p as usize) {
                    out.set(i);
                }
            }
            out
        });
        self.values_of(&self.payload.gather(positions), nulls)
    }

    /// The values `codes` stand for, under `nulls`.
    fn values_of(&self, codes: &[u64], nulls: Option<Bitmap>) -> SegmentValues {
        match (&self.dict, &self.venc) {
            (None, Some(venc)) => SegmentValues::I64 {
                values: codes.iter().map(|&c| venc.decode(c)).collect(),
                nulls,
            },
            // A segment of nothing but NULLs has an empty dictionary, and
            // its codes (all 0) name no entry: it decodes to placeholder
            // values under the NULL bitmap.
            (Some(dict), None) => match dict.as_ref() {
                Dictionary::Str(strings) => SegmentValues::Str {
                    codes: codes.iter().map(|&c| c as u32).collect(),
                    dict: if strings.is_empty() {
                        Arc::new(Dictionary::Str(vec![Arc::from("")]))
                    } else {
                        dict.clone()
                    },
                    nulls,
                },
                Dictionary::I64(entries) => SegmentValues::I64 {
                    values: if entries.is_empty() {
                        vec![0; codes.len()]
                    } else {
                        codes.iter().map(|&c| dict.i64_at(c as u32)).collect()
                    },
                    nulls,
                },
                Dictionary::F64(entries) => SegmentValues::F64 {
                    values: if entries.is_empty() {
                        vec![0.0; codes.len()]
                    } else {
                        codes.iter().map(|&c| dict.f64_at(c as u32)).collect()
                    },
                    nulls,
                },
            },
            // lint: allow(panic) — `assemble` guarantees exactly one
            // primary encoding
            _ => unreachable!("segment must have exactly one primary encoding"),
        }
    }

    /// The value of row `idx` (random access; slow path used by row fetches).
    pub fn value_at(&self, idx: usize) -> Value {
        if self.nulls.as_ref().is_some_and(|n| n.get(idx)) {
            return Value::Null;
        }
        let code = self.payload.get(idx);
        match (&self.dict, &self.venc) {
            (None, Some(venc)) => Value::from_i64(self.meta.data_type, venc.decode(code)),
            (Some(dict), None) => dict.value_at(code as u32, self.meta.data_type),
            // lint: allow(panic) — `assemble` guarantees exactly one
            // primary encoding
            _ => unreachable!("segment must have exactly one primary encoding"),
        }
    }

    /// Evaluate a pushed-down predicate directly on the encoded data.
    ///
    /// Returns a bitmap with one bit per row (set = row matches). This is
    /// the paper's "predicates evaluated on compressed data": range and
    /// equality predicates become code intervals (dictionaries are sorted;
    /// value encoding is monotone), so RLE runs are tested once per run and
    /// packed codes once per row without materializing values.
    pub fn eval_pred(&self, pred: &ColumnPred) -> Result<Bitmap> {
        let n = self.row_count();
        match pred {
            ColumnPred::IsNull => Ok(self.nulls.clone().unwrap_or_else(|| Bitmap::zeros(n))),
            ColumnPred::IsNotNull => {
                let mut b = Bitmap::ones(n);
                if let Some(nulls) = &self.nulls {
                    b.subtract(nulls);
                }
                Ok(b)
            }
            ColumnPred::Cmp {
                op: crate::pred::CmpOp::Ne,
                value,
            } => {
                // Ne = NOT(Eq), minus NULL rows.
                let eq = ColumnPred::Cmp {
                    op: crate::pred::CmpOp::Eq,
                    value: value.clone(),
                };
                let mut b = self.eval_pred(&eq)?;
                b.negate();
                if let Some(nulls) = &self.nulls {
                    b.subtract(nulls);
                }
                Ok(b)
            }
            ColumnPred::InList(values) => {
                let mut acc = Bitmap::zeros(n);
                for v in values {
                    let eq = ColumnPred::Cmp {
                        op: crate::pred::CmpOp::Eq,
                        value: v.clone(),
                    };
                    acc.union_with(&self.eval_pred(&eq)?);
                }
                Ok(acc)
            }
            _ => {
                let Some((lo, hi)) = pred.as_range() else {
                    return Err(Error::Storage(format!(
                        "predicate {pred} cannot be pushed to a segment"
                    )));
                };
                let mut out = Bitmap::zeros(n);
                if let Some((clo, chi)) = self.code_range(lo, hi)? {
                    self.payload.mark_code_range(clo, chi, &mut out);
                    // Codes at NULL positions are padding; mask them out.
                    if let Some(nulls) = &self.nulls {
                        out.subtract(nulls);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Translate a raw-value interval into an inclusive code interval.
    fn code_range(
        &self,
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
    ) -> Result<Option<(u64, u64)>> {
        use std::ops::Bound;
        match (&self.dict, &self.venc) {
            (Some(dict), None) => Ok(dict.code_range(lo, hi).map(|(a, b)| (a as u64, b as u64))),
            (None, Some(venc)) => {
                let to_i64 = |b: Bound<&Value>| -> Result<Bound<i64>> {
                    Ok(match b {
                        Bound::Unbounded => Bound::Unbounded,
                        Bound::Included(v) => Bound::Included(v.as_i64().ok_or_else(|| {
                            Error::Type(format!("predicate constant {v:?} is not integer-backed"))
                        })?),
                        Bound::Excluded(v) => Bound::Excluded(v.as_i64().ok_or_else(|| {
                            Error::Type(format!("predicate constant {v:?} is not integer-backed"))
                        })?),
                    })
                };
                Ok(venc.code_range(to_i64(lo)?, to_i64(hi)?, self.max_code))
            }
            // lint: allow(panic) — `assemble` guarantees exactly one
            // primary encoding
            _ => unreachable!("segment must have exactly one primary encoding"),
        }
    }

    /// May any row in this segment match `pred`? (Segment elimination.)
    pub fn may_match(&self, pred: &ColumnPred) -> bool {
        pred.may_match(
            self.meta.min.as_ref(),
            self.meta.max.as_ref(),
            self.meta.null_count as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::encode_column;
    use crate::pred::CmpOp;

    fn int_segment(values: &[Option<i64>]) -> ColumnSegment {
        let vals: Vec<Value> = values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int64))
            .collect();
        encode_column(DataType::Int64, &vals, None).unwrap()
    }

    fn str_segment(values: &[Option<&str>]) -> ColumnSegment {
        let vals: Vec<Value> = values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::from))
            .collect();
        encode_column(DataType::Utf8, &vals, None).unwrap()
    }

    #[test]
    fn all_null_segments_decode_to_placeholders_under_the_null_bitmap() {
        for ty in [DataType::Float64, DataType::Int64, DataType::Utf8] {
            let seg = encode_column(ty, &vec![Value::Null; 7], None).unwrap();
            let (len, nulls) = match seg.decode() {
                SegmentValues::I64 { values, nulls } => (values.len(), nulls),
                SegmentValues::F64 { values, nulls } => (values.len(), nulls),
                SegmentValues::Str { codes, dict, nulls } => {
                    // Every code names an entry, so nothing downstream can
                    // index past the dictionary.
                    assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
                    (codes.len(), nulls)
                }
            };
            assert_eq!(len, 7, "{ty}");
            assert_eq!(nulls.map(|n| n.count_ones()), Some(7), "{ty}");
        }
    }

    #[test]
    fn decode_positions_matches_a_gather_of_the_full_decode() {
        use crate::encode::PayloadKind;
        let runs: Vec<Option<i64>> = (0..600)
            .map(|i| (i % 293 != 0).then_some(i / 150))
            .collect();
        let noise: Vec<Option<i64>> = (0..600)
            .map(|i| (i % 13 != 0).then_some((i * 7919) % 1000))
            .collect();
        let names: Vec<String> = (0..600).map(|i| format!("s{}", (i * 31) % 17)).collect();
        let strs: Vec<Option<&str>> = names
            .iter()
            .enumerate()
            .map(|(i, s)| (i % 11 != 0).then_some(s.as_str()))
            .collect();
        let segments = [int_segment(&runs), int_segment(&noise), str_segment(&strs)];
        assert_eq!(segments[0].meta.payload, PayloadKind::Rle);
        assert_eq!(segments[1].meta.payload, PayloadKind::BitPacked);
        let picks: [&[u32]; 4] = [&[], &[0], &[3, 149, 150, 151, 293, 598, 599], &[599]];
        for seg in &segments {
            let (ty, full) = (seg.data_type(), seg.decode());
            for positions in picks {
                let got = seg.decode_positions(positions);
                assert_eq!(got.len(), positions.len());
                for (i, &p) in positions.iter().enumerate() {
                    assert_eq!(got.value_at(i, ty), full.value_at(p as usize, ty), "{p}");
                }
            }
        }
        // An all-NULL segment has no dictionary entry to point at.
        let nulls = encode_column(DataType::Utf8, &vec![Value::Null; 5], None).unwrap();
        let got = nulls.decode_positions(&[1, 4]);
        assert_eq!(got.value_at(1, DataType::Utf8), Value::Null);
    }

    #[test]
    fn int_roundtrip_with_nulls() {
        let seg = int_segment(&[Some(10), None, Some(30), Some(10), None]);
        assert_eq!(seg.row_count(), 5);
        assert_eq!(seg.meta.null_count, 2);
        assert_eq!(seg.meta.min, Some(Value::Int64(10)));
        assert_eq!(seg.meta.max, Some(Value::Int64(30)));
        assert_eq!(seg.value_at(0), Value::Int64(10));
        assert_eq!(seg.value_at(1), Value::Null);
        assert_eq!(seg.value_at(2), Value::Int64(30));
        match seg.decode() {
            SegmentValues::I64 { values, nulls } => {
                assert_eq!(values[0], 10);
                assert_eq!(values[2], 30);
                assert!(nulls.unwrap().get(1));
            }
            other => panic!("wrong decode shape: {other:?}"),
        }
    }

    #[test]
    fn str_roundtrip() {
        let seg = str_segment(&[Some("b"), Some("a"), None, Some("b")]);
        assert_eq!(seg.value_at(0), Value::str("b"));
        assert_eq!(seg.value_at(1), Value::str("a"));
        assert_eq!(seg.value_at(2), Value::Null);
        assert_eq!(seg.meta.min, Some(Value::str("a")));
        assert_eq!(seg.meta.max, Some(Value::str("b")));
        assert_eq!(seg.meta.distinct_count, Some(2));
    }

    #[test]
    fn eval_pred_range_on_value_encoding() {
        let seg = int_segment(&[Some(10), Some(20), Some(30), Some(40), None]);
        let b = seg
            .eval_pred(&ColumnPred::Between {
                lo: Value::Int64(15),
                hi: Value::Int64(35),
            })
            .unwrap();
        assert_eq!(b.to_indices(), vec![1, 2]);
    }

    #[test]
    fn eval_pred_eq_on_strings() {
        let seg = str_segment(&[Some("x"), Some("y"), Some("x"), None]);
        let b = seg
            .eval_pred(&ColumnPred::Cmp {
                op: CmpOp::Eq,
                value: Value::str("x"),
            })
            .unwrap();
        assert_eq!(b.to_indices(), vec![0, 2]);
    }

    #[test]
    fn eval_pred_ne_excludes_nulls() {
        let seg = int_segment(&[Some(1), Some(2), None]);
        let b = seg
            .eval_pred(&ColumnPred::Cmp {
                op: CmpOp::Ne,
                value: Value::Int64(1),
            })
            .unwrap();
        assert_eq!(b.to_indices(), vec![1]);
    }

    #[test]
    fn eval_pred_in_list() {
        let seg = int_segment(&[Some(1), Some(2), Some(3), Some(2)]);
        let b = seg
            .eval_pred(&ColumnPred::InList(vec![Value::Int64(1), Value::Int64(3)]))
            .unwrap();
        assert_eq!(b.to_indices(), vec![0, 2]);
    }

    #[test]
    fn eval_pred_is_null() {
        let seg = int_segment(&[Some(1), None, Some(3)]);
        assert_eq!(
            seg.eval_pred(&ColumnPred::IsNull).unwrap().to_indices(),
            vec![1]
        );
        assert_eq!(
            seg.eval_pred(&ColumnPred::IsNotNull).unwrap().to_indices(),
            vec![0, 2]
        );
    }

    #[test]
    fn eval_pred_matches_naive_for_many_ops() {
        let data: Vec<Option<i64>> = (0..200)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some((i * 7) % 50)
                }
            })
            .collect();
        let seg = int_segment(&data);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for k in [0i64, 7, 23, 49, 50, -1] {
                let pred = ColumnPred::Cmp {
                    op,
                    value: Value::Int64(k),
                };
                let got = seg.eval_pred(&pred).unwrap();
                for (i, v) in data.iter().enumerate() {
                    let want = v.map_or(false, |x| pred.matches(&Value::Int64(x)));
                    assert_eq!(got.get(i), want, "op={op:?} k={k} row={i} v={v:?}");
                }
            }
        }
    }

    #[test]
    fn may_match_uses_minmax() {
        let seg = int_segment(&[Some(100), Some(200)]);
        assert!(!seg.may_match(&ColumnPred::Cmp {
            op: CmpOp::Lt,
            value: Value::Int64(100)
        }));
        assert!(seg.may_match(&ColumnPred::Cmp {
            op: CmpOp::Le,
            value: Value::Int64(100)
        }));
    }
}
