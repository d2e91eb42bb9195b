//! Delta stores: uncompressed row groups held as a vector of rows.
//!
//! Trickle inserts land in the table's *open* delta store. When a delta
//! store reaches capacity it is *closed*; the tuple mover later compresses
//! closed delta stores into columnar row groups. Deletes of delta-store
//! rows remove the row from the store directly (no delete-bitmap entry),
//! exactly as in the paper.
//!
//! The paper's delta store is a B-tree keyed by a row locator that is
//! handed out in order and never reused. Such a tree only ever appends,
//! so here the locator's tuple id *is* the index into a vector: insert is
//! a push, a point get or remove is an index, and a scan in row-id order
//! is a walk of the vector. A removed row leaves an empty slot, so ids
//! are never reused.

use cstore_common::{convert, Result, Row, RowGroupId, RowId, Schema};

/// Lifecycle state of a delta store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaState {
    /// Accepting inserts.
    Open,
    /// Full; waiting for the tuple mover.
    Closed,
}

/// One delta store (an uncompressed row group).
pub struct DeltaStore {
    id: RowGroupId,
    /// Rows by tuple id; `None` where a row was deleted. The next tuple
    /// id is the vector's length.
    rows: Vec<Option<Row>>,
    /// Live (`Some`) slots in `rows`.
    live: usize,
    state: DeltaState,
    capacity: usize,
    approx_bytes: usize,
}

impl DeltaStore {
    pub fn new(id: RowGroupId, capacity: usize) -> Self {
        DeltaStore {
            id,
            rows: Vec::new(),
            live: 0,
            state: DeltaState::Open,
            capacity,
            approx_bytes: 0,
        }
    }

    pub fn id(&self) -> RowGroupId {
        self.id
    }

    pub fn state(&self) -> DeltaState {
        self.state
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate heap bytes held by rows (delta stores are the
    /// uncompressed, row-format part of the index — this is what the
    /// storage-overhead experiments report).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Whether this store has reached capacity (and should be closed).
    pub fn is_full(&self) -> bool {
        self.rows.len() >= self.capacity
    }

    /// Mark closed (no more inserts).
    pub fn close(&mut self) {
        self.state = DeltaState::Closed;
    }

    /// Insert a row, returning its RowId. The row must already be
    /// schema-checked by the table.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        debug_assert_eq!(
            self.state,
            DeltaState::Open,
            "insert into closed delta store"
        );
        let rid = RowId::new(self.id, convert::u32_from_usize(self.rows.len())?);
        self.approx_bytes += row.approx_bytes();
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// Remove a row by id; returns it if present.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        debug_assert_eq!(rid.group, self.id);
        let row = self.rows.get_mut(rid.tuple as usize)?.take()?;
        self.live -= 1;
        self.approx_bytes -= row.approx_bytes();
        Some(row)
    }

    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid.tuple as usize)?.as_ref()
    }

    /// Iterate live rows in RowId order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        let id = self.id;
        // Tuple ids were issued from `rows.len()` as a u32, so every index
        // fits.
        (0u32..)
            .zip(&self.rows)
            .filter_map(move |(tuple, row)| Some((RowId::new(id, tuple), row.as_ref()?)))
    }

    /// Materialize all rows column-wise (tuple-mover path): returns
    /// per-column value vectors matching `schema`.
    pub fn to_columns(&self, schema: &Schema) -> Vec<Vec<cstore_common::Value>> {
        let mut cols: Vec<Vec<cstore_common::Value>> = (0..schema.len())
            .map(|_| Vec::with_capacity(self.live))
            .collect();
        for (_, row) in self.iter() {
            for (c, v) in cols.iter_mut().zip(row.values()) {
                c.push(v.clone());
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstore_common::{DataType, Field, Value};

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int64(i), Value::str(format!("r{i}"))])
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("a", DataType::Int64),
            Field::not_null("b", DataType::Utf8),
        ])
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut d = DeltaStore::new(RowGroupId(9), 100);
        let a = d.insert(row(1)).unwrap();
        let b = d.insert(row(2)).unwrap();
        assert_eq!(a, RowId::new(RowGroupId(9), 0));
        assert_eq!(b, RowId::new(RowGroupId(9), 1));
        assert_eq!(d.len(), 2);
        assert!(d.approx_bytes() > 0);
    }

    #[test]
    fn delete_removes_and_ids_not_reused() {
        let mut d = DeltaStore::new(RowGroupId(0), 100);
        let a = d.insert(row(1)).unwrap();
        let b = d.insert(row(2)).unwrap();
        assert_eq!(d.delete(a), Some(row(1)));
        assert!(d.delete(a).is_none(), "a hole stays a hole");
        assert!(d.get(a).is_none());
        // The freed slot is not handed out again, neither at the hole nor
        // after deleting the last row.
        let c = d.insert(row(3)).unwrap();
        assert_eq!(c, RowId::new(RowGroupId(0), 2));
        assert_eq!(d.delete(c), Some(row(3)));
        let e = d.insert(row(4)).unwrap();
        assert_eq!(e, RowId::new(RowGroupId(0), 3));
        assert_eq!(d.get(b), Some(&row(2)));
        // Ids past the end are misses, not panics.
        assert!(d.get(RowId::new(RowGroupId(0), 99)).is_none());
        assert!(d.delete(RowId::new(RowGroupId(0), 99)).is_none());
    }

    #[test]
    fn len_counts_live_rows() {
        let mut d = DeltaStore::new(RowGroupId(0), 100);
        let rids: Vec<RowId> = (0..6).map(|i| d.insert(row(i)).unwrap()).collect();
        assert_eq!(d.len(), 6);
        d.delete(rids[1]);
        d.delete(rids[4]);
        d.delete(rids[4]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        for rid in rids {
            d.delete(rid);
        }
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn approx_bytes_drop_by_the_deleted_row() {
        let mut d = DeltaStore::new(RowGroupId(0), 100);
        let short = d.insert(row(1)).unwrap();
        let long = Row::new(vec![Value::Int64(2), Value::str("x".repeat(500))]);
        let long_bytes = long.approx_bytes();
        let long_rid = d.insert(long).unwrap();
        let total = d.approx_bytes();
        assert_eq!(total, row(1).approx_bytes() + long_bytes);
        d.delete(long_rid);
        assert_eq!(d.approx_bytes(), total - long_bytes);
        d.delete(long_rid);
        assert_eq!(
            d.approx_bytes(),
            total - long_bytes,
            "a miss returns nothing"
        );
        d.delete(short);
        assert_eq!(d.approx_bytes(), 0);
    }

    #[test]
    fn fills_and_closes() {
        let mut d = DeltaStore::new(RowGroupId(0), 3);
        for i in 0..3 {
            d.insert(row(i)).unwrap();
        }
        // Capacity counts ids issued, not live rows: a store that deleted
        // rows is still full.
        d.delete(RowId::new(RowGroupId(0), 0));
        assert!(d.is_full());
        d.close();
        assert_eq!(d.state(), DeltaState::Closed);
    }

    #[test]
    fn iter_in_rowid_order() {
        let mut d = DeltaStore::new(RowGroupId(0), 100);
        for i in 0..10 {
            d.insert(row(i)).unwrap();
        }
        let ids: Vec<u32> = d.iter().map(|(rid, _)| rid.tuple).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn iter_and_to_columns_skip_holes() {
        let mut d = DeltaStore::new(RowGroupId(4), 100);
        for i in 0..8 {
            d.insert(row(i)).unwrap();
        }
        for tuple in [0, 3, 4, 7] {
            d.delete(RowId::new(RowGroupId(4), tuple));
        }
        let ids: Vec<u32> = d.iter().map(|(rid, _)| rid.tuple).collect();
        assert_eq!(ids, vec![1, 2, 5, 6]);
        assert!(d.iter().all(|(rid, r)| rid.group == RowGroupId(4)
            && r.get(0).as_i64() == Some(i64::from(rid.tuple))));
        let cols = d.to_columns(&schema());
        assert_eq!(cols[0], [1, 2, 5, 6].map(Value::Int64).to_vec());
        assert_eq!(cols[1].len(), 4);
    }

    #[test]
    fn to_columns_shape() {
        let mut d = DeltaStore::new(RowGroupId(0), 100);
        for i in 0..5 {
            d.insert(row(i)).unwrap();
        }
        let cols = d.to_columns(&schema());
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].len(), 5);
        assert_eq!(cols[0][3], Value::Int64(3));
    }

    /// Deleting every row, front to back and back to front, empties the
    /// store and returns every byte.
    #[test]
    fn remove_everything_both_orders() {
        for ascending in [true, false] {
            let mut d = DeltaStore::new(RowGroupId(0), 1000);
            let mut rids: Vec<RowId> = (0..300).map(|i| d.insert(row(i)).unwrap()).collect();
            if !ascending {
                rids.reverse();
            }
            for (removed, rid) in rids.iter().enumerate() {
                assert_eq!(d.delete(*rid), Some(row(i64::from(rid.tuple))));
                assert_eq!(d.len(), 300 - removed - 1);
            }
            assert!(d.is_empty());
            assert_eq!(d.iter().count(), 0);
            assert_eq!(d.approx_bytes(), 0);
        }
    }

    /// A seeded mix of inserts, deletes and gets checked against a
    /// `BTreeMap` keyed by row id — the shape of the paper's B-tree
    /// delta store.
    #[test]
    fn mirrors_btreemap_under_mixed_workload() {
        use std::collections::BTreeMap;
        let mut d = DeltaStore::new(RowGroupId(2), usize::MAX);
        let mut m: BTreeMap<RowId, Row> = BTreeMap::new();
        let mut x: u64 = 88172645463325252;
        for step in 0..20_000i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Aim at ids already issued, and a few past the end.
            let probe = RowId::new(RowGroupId(2), (x % (step as u64 + 8)) as u32);
            match step % 3 {
                0 | 1 => {
                    let rid = d.insert(row(step)).unwrap();
                    assert!(m.insert(rid, row(step)).is_none(), "id {rid:?} reused");
                }
                _ => assert_eq!(d.delete(probe), m.remove(&probe)),
            }
            assert_eq!(d.get(probe), m.get(&probe));
            assert_eq!(d.len(), m.len());
        }
        let got: Vec<(RowId, &Row)> = d.iter().collect();
        let want: Vec<(RowId, &Row)> = m.iter().map(|(k, v)| (*k, v)).collect();
        assert_eq!(got, want);
        let bytes: usize = m.values().map(Row::approx_bytes).sum();
        assert_eq!(d.approx_bytes(), bytes);
    }
}
