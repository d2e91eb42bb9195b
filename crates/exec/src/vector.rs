//! Typed column vectors: the unit of data flow in batch mode.
//!
//! Integer-backed column types (`Bool`, `Int32`, `Int64`, `Date`,
//! `Decimal`) all widen to `i64` vectors — one code path for comparisons,
//! arithmetic and hashing, at the cost of a few bytes per narrow value,
//! exactly the trade SQL Server's batch layout makes. Strings coming out
//! of column segments stay as **dictionary codes** plus a shared
//! dictionary, so string predicates, joins and group-bys run on integers;
//! strings materialize only at the query boundary.

use std::sync::Arc;

use cstore_common::{Bitmap, DataType, Error, Result, Value};
use cstore_storage::encode::Dictionary;
use cstore_storage::segment::SegmentValues;

/// Hash tag for NULL values (shared by vector- and row-format hashing).
const NULL_HASH: u64 = 0x6e75_6c6c_6e75_6c6c;

/// Hash one scalar value, consistent with [`Vector::hash_into`].
pub fn hash_value(v: &Value) -> u64 {
    use cstore_common::hash::{hash_bytes, hash_u64};
    match v {
        Value::Null => NULL_HASH,
        Value::Float64(f) => hash_u64(f.to_bits()),
        Value::Str(s) => hash_bytes(s.as_bytes()),
        _ => hash_u64(v.as_i64().unwrap_or(0) as u64),
    }
}

/// Combine a multi-column key's hashes exactly as repeated
/// [`Vector::hash_into`] calls would: `h = rotl(h, 23) ^ hash(value)`.
pub fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = 0u64;
    for v in values {
        h = h.rotate_left(23) ^ hash_value(v);
    }
    h
}

/// A NULL bitmap of `n` bits with those set for which `is_null` holds, or
/// `None` when it holds for none (a vector without NULLs carries no bitmap).
pub(crate) fn null_bitmap(n: usize, is_null: impl Fn(usize) -> bool) -> Option<Bitmap> {
    let mut nulls: Option<Bitmap> = None;
    for i in (0..n).filter(|&i| is_null(i)) {
        nulls.get_or_insert_with(|| Bitmap::zeros(n)).set(i);
    }
    nulls
}

/// String vector storage: dictionary-coded (from segments) or owned
/// (computed / from delta rows).
#[derive(Clone, Debug)]
pub enum StrVector {
    Dict {
        codes: Vec<u32>,
        dict: Arc<Dictionary>,
    },
    Owned(Vec<Arc<str>>),
}

impl StrVector {
    pub fn len(&self) -> usize {
        match self {
            StrVector::Dict { codes, .. } => codes.len(),
            StrVector::Owned(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string at `idx` (caller has checked NULL).
    pub fn get(&self, idx: usize) -> &Arc<str> {
        match self {
            StrVector::Dict { codes, dict } => dict.str_at(codes[idx]),
            StrVector::Owned(v) => &v[idx],
        }
    }
}

/// A typed column of values with an optional NULL bitmap.
#[derive(Clone, Debug)]
pub enum Vector {
    I64 {
        values: Vec<i64>,
        nulls: Option<Bitmap>,
    },
    F64 {
        values: Vec<f64>,
        nulls: Option<Bitmap>,
    },
    Str {
        strings: StrVector,
        nulls: Option<Bitmap>,
    },
}

impl Vector {
    pub fn len(&self) -> usize {
        match self {
            Vector::I64 { values, .. } => values.len(),
            Vector::F64 { values, .. } => values.len(),
            Vector::Str { strings, .. } => strings.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn nulls(&self) -> Option<&Bitmap> {
        match self {
            Vector::I64 { nulls, .. } | Vector::F64 { nulls, .. } | Vector::Str { nulls, .. } => {
                nulls.as_ref()
            }
        }
    }

    #[inline]
    pub fn is_null(&self, idx: usize) -> bool {
        self.nulls().is_some_and(|n| n.get(idx))
    }

    /// Materialize one value with logical type `ty`.
    pub fn value_at(&self, idx: usize, ty: DataType) -> Value {
        if self.is_null(idx) {
            return Value::Null;
        }
        match self {
            Vector::I64 { values, .. } => Value::from_i64(ty, values[idx]),
            Vector::F64 { values, .. } => Value::Float64(values[idx]),
            Vector::Str { strings, .. } => Value::Str(strings.get(idx).clone()),
        }
    }

    /// Raw i64 at `idx` (vector must be I64; caller has checked NULL).
    #[inline]
    pub fn i64_at(&self, idx: usize) -> i64 {
        match self {
            Vector::I64 { values, .. } => values[idx],
            // lint: allow(panic) — typed-accessor contract, same class as
            // slice indexing
            _ => panic!("i64_at on non-integer vector"),
        }
    }

    /// Build a vector from dynamically-typed values of column type `ty`.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Vector> {
        let n = values.len();
        let mut nulls: Option<Bitmap> = None;
        let mark_null = |i: usize, nulls: &mut Option<Bitmap>| {
            nulls.get_or_insert_with(|| Bitmap::zeros(n)).set(i);
        };
        Ok(match ty {
            DataType::Float64 => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Null => {
                            mark_null(i, &mut nulls);
                            out.push(0.0);
                        }
                        _ => out
                            .push(v.as_f64().ok_or_else(|| {
                                Error::Type(format!("expected FLOAT, got {v:?}"))
                            })?),
                    }
                }
                Vector::F64 { values: out, nulls }
            }
            DataType::Utf8 => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Null => {
                            mark_null(i, &mut nulls);
                            out.push(Arc::from(""));
                        }
                        Value::Str(s) => out.push(s.clone()),
                        _ => return Err(Error::Type(format!("expected VARCHAR, got {v:?}"))),
                    }
                }
                Vector::Str {
                    strings: StrVector::Owned(out),
                    nulls,
                }
            }
            _ => {
                let mut out = Vec::with_capacity(n);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Null => {
                            mark_null(i, &mut nulls);
                            out.push(0);
                        }
                        _ => out.push(
                            v.as_i64()
                                .ok_or_else(|| Error::Type(format!("expected {ty}, got {v:?}")))?,
                        ),
                    }
                }
                Vector::I64 { values: out, nulls }
            }
        })
    }

    /// Adopt decoded segment values (zero-copy where the shapes line up).
    pub fn from_segment(sv: SegmentValues) -> Vector {
        match sv {
            SegmentValues::I64 { values, nulls } => Vector::I64 { values, nulls },
            SegmentValues::F64 { values, nulls } => Vector::F64 { values, nulls },
            SegmentValues::Str { codes, dict, nulls } => Vector::Str {
                strings: StrVector::Dict { codes, dict },
                nulls,
            },
        }
    }

    /// A constant vector of `n` copies of `v` (for literal expressions).
    pub fn constant(ty: DataType, v: &Value, n: usize) -> Result<Vector> {
        if v.is_null() {
            let nulls = Some(Bitmap::ones(n));
            return Ok(match ty {
                DataType::Float64 => Vector::F64 {
                    values: vec![0.0; n],
                    nulls,
                },
                DataType::Utf8 => Vector::Str {
                    strings: StrVector::Owned(vec![Arc::from(""); n]),
                    nulls,
                },
                _ => Vector::I64 {
                    values: vec![0; n],
                    nulls,
                },
            });
        }
        Ok(match ty {
            DataType::Float64 => Vector::F64 {
                values: vec![
                    v.as_f64().ok_or_else(|| {
                        Error::Type(format!("literal {v:?} is not a float"))
                    })?;
                    n
                ],
                nulls: None,
            },
            DataType::Utf8 => match v {
                Value::Str(s) => Vector::Str {
                    strings: StrVector::Owned(vec![s.clone(); n]),
                    nulls: None,
                },
                _ => return Err(Error::Type(format!("literal {v:?} is not a string"))),
            },
            _ => Vector::I64 {
                values: vec![
                    v.as_i64().ok_or_else(|| {
                        Error::Type(format!("literal {v:?} is not integer-backed"))
                    })?;
                    n
                ],
                nulls: None,
            },
        })
    }

    /// Gather rows at `indices` into a new dense vector.
    pub fn gather(&self, indices: &[u32]) -> Vector {
        let take_nulls = |nulls: &Option<Bitmap>| -> Option<Bitmap> {
            nulls.as_ref().map(|n| {
                let mut out = Bitmap::zeros(indices.len());
                for (i, &idx) in indices.iter().enumerate() {
                    if n.get(idx as usize) {
                        out.set(i);
                    }
                }
                out
            })
        };
        match self {
            Vector::I64 { values, nulls } => Vector::I64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                nulls: take_nulls(nulls),
            },
            Vector::F64 { values, nulls } => Vector::F64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                nulls: take_nulls(nulls),
            },
            Vector::Str { strings, nulls } => {
                let strings = match strings {
                    StrVector::Dict { codes, dict } => StrVector::Dict {
                        codes: indices.iter().map(|&i| codes[i as usize]).collect(),
                        dict: dict.clone(),
                    },
                    StrVector::Owned(v) => {
                        StrVector::Owned(indices.iter().map(|&i| v[i as usize].clone()).collect())
                    }
                };
                Vector::Str {
                    strings,
                    nulls: take_nulls(nulls),
                }
            }
        }
    }

    /// Like [`Vector::gather`], except that an index past the end yields
    /// NULL — how the hash join null-extends a probe row with no build row.
    pub fn gather_or_null(&self, indices: &[u32]) -> Vector {
        fn take<T: Clone + Default>(src: &[T], indices: &[u32]) -> Vec<T> {
            indices
                .iter()
                .map(|&i| src.get(i as usize).cloned().unwrap_or_default())
                .collect()
        }
        let (len, src_nulls) = (self.len(), self.nulls());
        let nulls = null_bitmap(indices.len(), |out| {
            let i = indices[out] as usize;
            i >= len || src_nulls.is_some_and(|n| n.get(i))
        });
        match self {
            Vector::I64 { values, .. } => Vector::I64 {
                values: take(values, indices),
                nulls,
            },
            Vector::F64 { values, .. } => Vector::F64 {
                values: take(values, indices),
                nulls,
            },
            Vector::Str { strings, .. } => Vector::Str {
                strings: match strings {
                    StrVector::Dict { codes, dict } => StrVector::Dict {
                        codes: take(codes, indices),
                        dict: dict.clone(),
                    },
                    StrVector::Owned(v) => {
                        let empty: Arc<str> = Arc::from("");
                        StrVector::Owned(
                            indices
                                .iter()
                                .map(|&i| v.get(i as usize).unwrap_or(&empty).clone())
                                .collect(),
                        )
                    }
                },
                nulls,
            },
        }
    }

    /// Copy the subrange `[start, start + len)` into a new vector.
    pub fn slice(&self, start: usize, len: usize) -> Vector {
        let slice_nulls = |nulls: &Option<Bitmap>| -> Option<Bitmap> {
            nulls.as_ref().map(|n| {
                let mut out = Bitmap::zeros(len);
                for i in 0..len {
                    if n.get(start + i) {
                        out.set(i);
                    }
                }
                out
            })
        };
        match self {
            Vector::I64 { values, nulls } => Vector::I64 {
                values: values[start..start + len].to_vec(),
                nulls: slice_nulls(nulls),
            },
            Vector::F64 { values, nulls } => Vector::F64 {
                values: values[start..start + len].to_vec(),
                nulls: slice_nulls(nulls),
            },
            Vector::Str { strings, nulls } => Vector::Str {
                strings: match strings {
                    StrVector::Dict { codes, dict } => StrVector::Dict {
                        codes: codes[start..start + len].to_vec(),
                        dict: dict.clone(),
                    },
                    StrVector::Owned(v) => StrVector::Owned(v[start..start + len].to_vec()),
                },
                nulls: slice_nulls(nulls),
            },
        }
    }

    /// Hash every row's value into `out` (callers combine across key
    /// columns). NULLs hash to a fixed tag. Dictionary-coded strings hash
    /// the *string bytes*, not the codes, so vectors with different
    /// dictionaries hash compatibly, and [`hash_values`] produces the same
    /// combination for row-format keys.
    pub fn hash_into(&self, out: &mut [u64]) {
        use cstore_common::hash::{hash_bytes, hash_u64};
        match self {
            Vector::I64 { values, nulls } => {
                for (i, (&v, o)) in values.iter().zip(out.iter_mut()).enumerate() {
                    let h = if nulls.as_ref().is_some_and(|n| n.get(i)) {
                        NULL_HASH
                    } else {
                        hash_u64(v as u64)
                    };
                    *o = o.rotate_left(23) ^ h;
                }
            }
            Vector::F64 { values, nulls } => {
                for (i, (&v, o)) in values.iter().zip(out.iter_mut()).enumerate() {
                    let h = if nulls.as_ref().is_some_and(|n| n.get(i)) {
                        NULL_HASH
                    } else {
                        hash_u64(v.to_bits())
                    };
                    *o = o.rotate_left(23) ^ h;
                }
            }
            Vector::Str { strings, nulls } => {
                // Hash each distinct dictionary code once, then gather.
                match strings {
                    StrVector::Dict { codes, dict } => {
                        let mut code_hash: Vec<u64> = Vec::with_capacity(dict.len());
                        for c in 0..dict.len() as u32 {
                            code_hash.push(hash_bytes(dict.str_at(c).as_bytes()));
                        }
                        for (i, (&c, o)) in codes.iter().zip(out.iter_mut()).enumerate() {
                            let h = if nulls.as_ref().is_some_and(|n| n.get(i)) {
                                NULL_HASH
                            } else {
                                code_hash[c as usize]
                            };
                            *o = o.rotate_left(23) ^ h;
                        }
                    }
                    StrVector::Owned(v) => {
                        for (i, (s, o)) in v.iter().zip(out.iter_mut()).enumerate() {
                            let h = if nulls.as_ref().is_some_and(|n| n.get(i)) {
                                NULL_HASH
                            } else {
                                hash_bytes(s.as_bytes())
                            };
                            *o = o.rotate_left(23) ^ h;
                        }
                    }
                }
            }
        }
    }

    /// Approximate heap bytes (memory accounting for spilling decisions).
    pub fn approx_bytes(&self) -> usize {
        let null_bytes = self.nulls().map_or(0, |n| n.words().len() * 8);
        null_bytes
            + match self {
                Vector::I64 { values, .. } => values.len() * 8,
                Vector::F64 { values, .. } => values.len() * 8,
                Vector::Str { strings, .. } => match strings {
                    StrVector::Dict { codes, .. } => codes.len() * 4,
                    StrVector::Owned(v) => v.iter().map(|s| s.len() + 16).sum(),
                },
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_roundtrip() {
        let vals = vec![Value::Int64(1), Value::Null, Value::Int64(3)];
        let v = Vector::from_values(DataType::Int64, &vals).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.value_at(0, DataType::Int64), Value::Int64(1));
        assert_eq!(v.value_at(1, DataType::Int64), Value::Null);
        assert!(v.is_null(1));
    }

    #[test]
    fn from_values_type_checks() {
        assert!(Vector::from_values(DataType::Int64, &[Value::str("x")]).is_err());
        assert!(Vector::from_values(DataType::Utf8, &[Value::Int64(1)]).is_err());
        assert!(Vector::from_values(DataType::Float64, &[Value::str("x")]).is_err());
    }

    #[test]
    fn widening_of_narrow_types() {
        let vals = vec![Value::Date(100), Value::Date(200)];
        let v = Vector::from_values(DataType::Date, &vals).unwrap();
        assert_eq!(v.i64_at(1), 200);
        assert_eq!(v.value_at(1, DataType::Date), Value::Date(200));
    }

    #[test]
    fn gather_and_slice() {
        let v = Vector::from_values(
            DataType::Int64,
            &(0..10).map(Value::Int64).collect::<Vec<_>>(),
        )
        .unwrap();
        let g = v.gather(&[9, 0, 5]);
        assert_eq!(g.i64_at(0), 9);
        assert_eq!(g.i64_at(2), 5);
        let s = v.slice(3, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.i64_at(0), 3);
    }

    #[test]
    fn gather_preserves_nulls() {
        let v = Vector::from_values(
            DataType::Int64,
            &[Value::Int64(0), Value::Null, Value::Int64(2)],
        )
        .unwrap();
        let g = v.gather(&[1, 2]);
        assert!(g.is_null(0));
        assert!(!g.is_null(1));
    }

    #[test]
    fn gather_or_null_extends_past_the_end() {
        let v = Vector::from_values(
            DataType::Int64,
            &[Value::Int64(5), Value::Null, Value::Int64(7)],
        )
        .unwrap();
        let g = v.gather_or_null(&[2, u32::MAX, 1, 0]);
        assert_eq!(g.i64_at(0), 7);
        assert!(g.is_null(1) && g.is_null(2) && !g.is_null(3));
        let dict = Arc::new(Dictionary::build_str(["aa", "bb"].into_iter()));
        let coded = Vector::Str {
            strings: StrVector::Dict {
                codes: vec![0, 1],
                dict,
            },
            nulls: None,
        };
        let g = coded.gather_or_null(&[1, u32::MAX]);
        assert_eq!(g.value_at(0, DataType::Utf8), Value::str("bb"));
        assert_eq!(g.value_at(1, DataType::Utf8), Value::Null);
    }

    #[test]
    fn hash_consistent_across_str_representations() {
        let owned =
            Vector::from_values(DataType::Utf8, &[Value::str("aa"), Value::str("bb")]).unwrap();
        let dict = Arc::new(Dictionary::build_str(["aa", "bb"].into_iter()));
        let coded = Vector::Str {
            strings: StrVector::Dict {
                codes: vec![0, 1],
                dict,
            },
            nulls: None,
        };
        let mut h1 = vec![0u64; 2];
        let mut h2 = vec![0u64; 2];
        owned.hash_into(&mut h1);
        coded.hash_into(&mut h2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn constant_vectors() {
        let v = Vector::constant(DataType::Int64, &Value::Int64(7), 5).unwrap();
        assert_eq!(v.len(), 5);
        assert_eq!(v.i64_at(4), 7);
        let n = Vector::constant(DataType::Utf8, &Value::Null, 3).unwrap();
        assert!(n.is_null(0) && n.is_null(2));
    }
}
