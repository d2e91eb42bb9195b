//! The delete bitmap.
//!
//! Deleting a row that lives in a *compressed* row group cannot touch the
//! encoded segments; instead the row is marked in a per-table delete
//! bitmap and scans filter marked rows out. (Rows in delta stores are
//! removed from their store directly and never appear here.)

use cstore_common::{Bitmap, FxHashMap, RowGroupId, RowId};

/// Deleted-row marks for all compressed row groups of one table.
#[derive(Clone, Debug, Default)]
pub struct DeleteBitmap {
    groups: FxHashMap<RowGroupId, Bitmap>,
    total: usize,
}

impl DeleteBitmap {
    pub fn new() -> Self {
        DeleteBitmap::default()
    }

    /// Mark `rid` deleted. Returns `false` if it was already marked.
    pub fn delete(&mut self, rid: RowId) -> bool {
        let bm = self.groups.entry(rid.group).or_default();
        let was = bm.set_grow(rid.tuple as usize);
        if !was {
            self.total += 1;
        }
        !was
    }

    pub fn is_deleted(&self, rid: RowId) -> bool {
        self.groups
            .get(&rid.group)
            .is_some_and(|b| (rid.tuple as usize) < b.len() && b.get(rid.tuple as usize))
    }

    /// Total marked rows across all groups.
    pub fn total_deleted(&self) -> usize {
        self.total
    }

    /// Marked rows within one group.
    pub fn deleted_in_group(&self, group: RowGroupId) -> usize {
        self.groups.get(&group).map_or(0, |b| b.count_ones())
    }

    /// The group's bitmap, if any row in it is marked.
    pub fn group_bitmap(&self, group: RowGroupId) -> Option<&Bitmap> {
        self.groups.get(&group)
    }

    /// Drop all marks for `group` (after the group is rebuilt/removed).
    pub fn clear_group(&mut self, group: RowGroupId) {
        if let Some(b) = self.groups.remove(&group) {
            self.total -= b.count_ones();
        }
    }

    /// Apply the delete marks of `group` to a qualifying-rows bitmap of
    /// `n_rows` bits: clears the bit of every deleted row.
    pub fn mask_qualifying(&self, group: RowGroupId, qualifying: &mut Bitmap) {
        if let Some(marks) = self.groups.get(&group) {
            for idx in marks.iter_ones() {
                if idx < qualifying.len() {
                    qualifying.clear(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(g: u32, t: u32) -> RowId {
        RowId::new(RowGroupId(g), t)
    }

    #[test]
    fn delete_and_query() {
        let mut d = DeleteBitmap::new();
        assert!(!d.is_deleted(rid(0, 5)));
        assert!(d.delete(rid(0, 5)));
        assert!(d.is_deleted(rid(0, 5)));
        assert!(!d.delete(rid(0, 5)), "double delete reports false");
        assert_eq!(d.total_deleted(), 1);
        assert!(d.delete(rid(1, 0)));
        assert_eq!(d.total_deleted(), 2);
        assert_eq!(d.deleted_in_group(RowGroupId(0)), 1);
    }

    #[test]
    fn clear_group_resets() {
        let mut d = DeleteBitmap::new();
        d.delete(rid(0, 1));
        d.delete(rid(0, 2));
        d.delete(rid(1, 1));
        d.clear_group(RowGroupId(0));
        assert_eq!(d.total_deleted(), 1);
        assert!(!d.is_deleted(rid(0, 1)));
        assert!(d.is_deleted(rid(1, 1)));
    }

    #[test]
    fn mask_qualifying_clears_deleted() {
        let mut d = DeleteBitmap::new();
        d.delete(rid(0, 1));
        d.delete(rid(0, 3));
        d.delete(rid(0, 9)); // beyond qualifying length: ignored
        let mut q = Bitmap::ones(5);
        d.mask_qualifying(RowGroupId(0), &mut q);
        assert_eq!(q.to_indices(), vec![0, 2, 4]);
        // Group with no marks: untouched.
        let mut q2 = Bitmap::ones(3);
        d.mask_qualifying(RowGroupId(7), &mut q2);
        assert_eq!(q2.count_ones(), 3);
    }
}
