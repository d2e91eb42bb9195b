//! Dynamically-typed scalar values.
//!
//! `Value` is used on slow paths only: trickle inserts, delta-store rows,
//! the row-mode baseline operators and query results. Batch-mode execution
//! works on typed column vectors (`cstore-exec`) and never materializes
//! `Value`s per row.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::types::DataType;

/// A single dynamically-typed scalar value, possibly NULL.
///
/// Strings are `Arc<str>` so cloning rows (which the delta store and the
/// row-mode operators do) does not copy string bytes.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int32(i32),
    Int64(i64),
    Float64(f64),
    /// Days since the Unix epoch.
    Date(i32),
    /// Scaled mantissa; the scale lives in the column's `DataType`.
    Decimal(i64),
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The `DataType` this value naturally has, or `None` for NULL
    /// (NULL is typed by its column, not by the value).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int32(_) => Some(DataType::Int32),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Date(_) => Some(DataType::Date),
            Value::Decimal(_) => Some(DataType::Decimal { scale: 0 }),
            Value::Str(_) => Some(DataType::Utf8),
        }
    }

    /// Whether this value can be stored in a column of type `ty`.
    ///
    /// NULL is storable anywhere; `Decimal` carries no scale of its own, so
    /// it matches any decimal column.
    pub fn fits(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Int32(_), DataType::Int32)
                | (Value::Int64(_), DataType::Int64)
                | (Value::Float64(_), DataType::Float64)
                | (Value::Date(_), DataType::Date)
                | (Value::Decimal(_), DataType::Decimal { .. })
                | (Value::Str(_), DataType::Utf8)
        )
    }

    /// The value as an `i64` if it is integer-backed (see
    /// [`DataType::is_integer_backed`]); used by the encoders.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Bool(b) => Some(*b as i64),
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            Value::Decimal(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int32(v) => Some(*v as f64),
            Value::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rebuild an integer-backed value of type `ty` from its `i64` image.
    /// Inverse of [`Value::as_i64`] for integer-backed types.
    pub fn from_i64(ty: DataType, raw: i64) -> Value {
        match ty {
            DataType::Bool => Value::Bool(raw != 0),
            DataType::Int32 => Value::Int32(raw as i32),
            DataType::Int64 => Value::Int64(raw),
            DataType::Date => Value::Date(raw as i32),
            DataType::Decimal { .. } => Value::Decimal(raw),
            // lint: allow(panic) — typed-conversion contract: callers check
            // is_integer_backed first
            _ => panic!("from_i64 called for non-integer-backed type {ty}"),
        }
    }

    /// SQL total ordering used by sort operators and comparisons:
    /// NULL sorts first; floats use IEEE total ordering so the comparison is
    /// a true total order.
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int32(a), Int32(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            // Mixed integer widths can appear when literals meet columns.
            (a, b) => match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => x.cmp(&y),
                _ => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x.total_cmp(&y),
                    // lint: allow(panic) — the binder rejects comparisons
                    // between non-coercible types before execution
                    _ => panic!("cmp_sql on incomparable values {a:?} vs {b:?}"),
                },
            },
        }
    }

    /// SQL equality (NULL equals nothing, not even NULL — callers on
    /// three-valued-logic paths must check for NULL first; this method treats
    /// NULL == NULL as true because storage needs a reflexive equality).
    pub fn eq_storage(&self, other: &Value) -> bool {
        self.cmp_sql(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.eq_storage(other)
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_sql(other)
    }
}

impl std::hash::Hash for Value {
    /// Hash consistent with [`Value::eq_storage`]: floats hash by their
    /// bit pattern (total-order equality), integer-backed values by their
    /// `i64` image so `Int32(5)` and `Int64(5)` — equal under `cmp_sql` —
    /// hash identically.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Float64(f) => {
                state.write_u8(1);
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(2);
                state.write(s.as_bytes());
            }
            _ => {
                state.write_u8(3);
                state.write_u64(self.as_i64().unwrap_or(0) as u64);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Date(d) => write!(f, "DATE({d})"),
            Value::Decimal(m) => write!(f, "{m}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vs = vec![Value::Int64(3), Value::Null, Value::Int64(-1)];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Int64(-1));
    }

    #[test]
    fn i64_roundtrip_all_integer_backed() {
        for (ty, v) in [
            (DataType::Bool, Value::Bool(true)),
            (DataType::Int32, Value::Int32(-7)),
            (DataType::Int64, Value::Int64(1 << 40)),
            (DataType::Date, Value::Date(19000)),
            (DataType::Decimal { scale: 2 }, Value::Decimal(12345)),
        ] {
            let raw = v.as_i64().unwrap();
            assert_eq!(Value::from_i64(ty, raw), v);
        }
    }

    #[test]
    fn fits_checks_type() {
        assert!(Value::Null.fits(DataType::Utf8));
        assert!(Value::Int64(1).fits(DataType::Int64));
        assert!(!Value::Int64(1).fits(DataType::Int32));
        assert!(Value::Decimal(5).fits(DataType::Decimal { scale: 4 }));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let a = Value::Float64(f64::NAN);
        let b = Value::Float64(1.0);
        // total_cmp puts NaN after all numbers; just assert it doesn't panic
        // and is consistent.
        assert_eq!(a.cmp_sql(&b), Ordering::Greater);
        assert_eq!(b.cmp_sql(&a), Ordering::Less);
        assert_eq!(a.cmp_sql(&a), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int32(5).cmp_sql(&Value::Int64(5)), Ordering::Equal);
        assert_eq!(Value::Int64(4).cmp_sql(&Value::Int32(5)), Ordering::Less);
    }

    #[test]
    fn string_sharing_is_cheap() {
        let s = Value::str("hello world");
        let t = s.clone();
        assert_eq!(s.as_str(), t.as_str());
    }
}
