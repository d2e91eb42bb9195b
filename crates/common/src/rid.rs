//! Row identifiers.
//!
//! SQL Server's clustered column store locates a row by (row group id,
//! tuple id); rows in delta stores live in row groups too — a delta store
//! *is* an (uncompressed) row group. We use the same scheme: every row
//! group, compressed or delta, gets an id from one sequence, and a row id
//! is the pair packed into a `u64`.

use std::fmt;

/// Identifier of a row group (compressed or delta).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowGroupId(pub u32);

impl fmt::Display for RowGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RG{}", self.0)
    }
}

/// Locates one row: the row group it lives in and its ordinal within that
/// group ("tuple id").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    pub group: RowGroupId,
    pub tuple: u32,
}

impl RowId {
    pub fn new(group: RowGroupId, tuple: u32) -> Self {
        RowId { group, tuple }
    }

    /// Pack into a single `u64` (group in the high half). Packing preserves
    /// ordering: rows sort by (group, tuple).
    pub fn pack(self) -> u64 {
        ((self.group.0 as u64) << 32) | self.tuple as u64
    }

    pub fn unpack(packed: u64) -> Self {
        RowId {
            group: RowGroupId((packed >> 32) as u32),
            tuple: packed as u32,
        }
    }

    /// The packed id as an `Int64` cell — how a scan's row-id
    /// pseudo-column carries it. The bits are reinterpreted, not
    /// converted: groups from `2^31` up (a transaction's synthetic group
    /// `u32::MAX`) come out negative and round-trip all the same.
    pub fn to_i64(self) -> i64 {
        self.pack().cast_signed()
    }

    pub fn from_i64(cell: i64) -> Self {
        RowId::unpack(cell.cast_unsigned())
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.group, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let r = RowId::new(RowGroupId(7), 123_456);
        assert_eq!(RowId::unpack(r.pack()), r);
    }

    #[test]
    fn i64_cell_roundtrip_including_the_synthetic_group() {
        for r in [
            RowId::new(RowGroupId(0), 0),
            RowId::new(RowGroupId(7), 123_456),
            RowId::new(RowGroupId(u32::MAX), u32::MAX),
        ] {
            assert_eq!(RowId::from_i64(r.to_i64()), r);
        }
        assert!(RowId::new(RowGroupId(u32::MAX), 3).to_i64() < 0);
    }

    #[test]
    fn pack_preserves_order() {
        let a = RowId::new(RowGroupId(1), u32::MAX);
        let b = RowId::new(RowGroupId(2), 0);
        assert!(a < b);
        assert!(a.pack() < b.pack());
    }
}
