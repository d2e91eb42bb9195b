//! Batches: the unit of work in batch mode.
//!
//! A batch is a set of column vectors plus a **qualifying-rows bitmap**
//! (the paper's design): filters mark rows unqualified instead of
//! compacting the batch, so downstream operators touch contiguous vectors
//! and the bitmap, not scattered rows. Operators compact only when it
//! pays (e.g. before building a hash table).

use cstore_common::{Bitmap, DataType, Result, Row, Value};

use crate::vector::Vector;

/// Default rows per batch — about a thousand, sized so a batch of a few
/// active columns stays cache-resident (the paper's rationale).
pub const BATCH_SIZE: usize = 900;

/// A batch of rows in columnar form.
#[derive(Clone, Debug)]
pub struct Batch {
    columns: Vec<Vector>,
    types: Vec<DataType>,
    /// Set bit = row is still qualified (logically present).
    qualifying: Bitmap,
}

impl Batch {
    pub fn new(types: Vec<DataType>, columns: Vec<Vector>) -> Self {
        assert_eq!(types.len(), columns.len(), "type/column count mismatch");
        let n = columns.first().map_or(0, |c| c.len());
        assert!(columns.iter().all(|c| c.len() == n), "ragged batch");
        Batch {
            columns,
            types,
            qualifying: Bitmap::ones(n),
        }
    }

    /// Build with an explicit qualifying bitmap.
    pub fn with_qualifying(types: Vec<DataType>, columns: Vec<Vector>, qualifying: Bitmap) -> Self {
        let n = columns.first().map_or(0, |c| c.len());
        assert_eq!(qualifying.len(), n, "qualifying bitmap length mismatch");
        let mut b = Batch::new(types, columns);
        b.qualifying = qualifying;
        b
    }

    /// Physical rows (qualified or not).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Qualified rows.
    pub fn n_qualifying(&self) -> usize {
        self.qualifying.count_ones()
    }

    pub fn is_empty(&self) -> bool {
        self.n_qualifying() == 0
    }

    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Vector {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }

    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    pub fn data_type(&self, i: usize) -> DataType {
        self.types[i]
    }

    pub fn qualifying(&self) -> &Bitmap {
        &self.qualifying
    }

    /// AND a predicate result into the qualifying bitmap.
    pub fn filter(&mut self, matches: &Bitmap) {
        self.qualifying.intersect_with(matches);
    }

    /// Replace the qualifying bitmap (scan pushdown path).
    pub fn set_qualifying(&mut self, qualifying: Bitmap) {
        assert_eq!(qualifying.len(), self.n_rows());
        self.qualifying = qualifying;
    }

    /// Gather qualified rows into a dense batch (all rows qualifying). A
    /// batch that is already dense passes through without a copy.
    pub fn compact(self) -> Batch {
        if self.n_qualifying() == self.n_rows() {
            return self;
        }
        let idx = self.qualifying.to_indices();
        let columns = self.columns.iter().map(|c| c.gather(&idx)).collect();
        Batch::new(self.types, columns)
    }

    /// The column vectors, qualifying bitmap dropped (for a dense batch).
    pub fn into_columns(self) -> Vec<Vector> {
        self.columns
    }

    /// A new batch with the given columns appended.
    pub fn append_columns(mut self, types: Vec<DataType>, columns: Vec<Vector>) -> Batch {
        for c in &columns {
            assert_eq!(c.len(), self.n_rows());
        }
        self.columns.extend(columns);
        self.types.extend(types);
        self
    }

    /// A new batch keeping only the columns at `indices` (same qualifying).
    pub fn project(&self, indices: &[usize]) -> Batch {
        Batch {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            types: indices.iter().map(|&i| self.types[i]).collect(),
            qualifying: self.qualifying.clone(),
        }
    }

    /// Build a batch from rows (row→batch adapter, delta-store scan path).
    pub fn from_rows(types: &[DataType], rows: &[Row]) -> Result<Batch> {
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); types.len()];
        for row in rows {
            for (c, v) in cols.iter_mut().zip(row.values()) {
                c.push(v.clone());
            }
        }
        let columns = types
            .iter()
            .zip(cols)
            .map(|(&ty, vals)| Vector::from_values(ty, &vals))
            .collect::<Result<Vec<_>>>()?;
        Ok(Batch::new(types.to_vec(), columns))
    }

    /// Materialize qualified rows (batch→row adapter, result delivery).
    pub fn to_rows(&self) -> Vec<Row> {
        let idx = self.qualifying.to_indices();
        let mut out = Vec::with_capacity(idx.len());
        for &i in &idx {
            out.push(Row::new(
                self.columns
                    .iter()
                    .zip(&self.types)
                    .map(|(c, &ty)| c.value_at(i as usize, ty))
                    .collect(),
            ));
        }
        out
    }

    /// Approximate heap bytes (spill accounting).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum::<usize>()
            + self.qualifying.words().len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_rows(
            &[DataType::Int64, DataType::Utf8],
            &(0..10)
                .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("s{i}"))]))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn from_rows_to_rows_roundtrip() {
        let b = batch();
        assert_eq!(b.n_rows(), 10);
        assert_eq!(b.n_qualifying(), 10);
        let rows = b.to_rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3].get(0), &Value::Int64(3));
        assert_eq!(rows[3].get(1), &Value::str("s3"));
    }

    #[test]
    fn filter_marks_not_moves() {
        let mut b = batch();
        let keep = Bitmap::from_bools(&[
            true, false, true, false, true, false, true, false, true, false,
        ]);
        b.filter(&keep);
        assert_eq!(b.n_rows(), 10, "physical rows untouched");
        assert_eq!(b.n_qualifying(), 5);
        let rows = b.to_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1].get(0), &Value::Int64(2));
    }

    #[test]
    fn compact_densifies() {
        let mut b = batch();
        let keep = Bitmap::from_bools(&[false; 10].map(|_| false));
        b.filter(&keep);
        assert!(b.is_empty());
        let mut b = batch();
        let mut keep = Bitmap::zeros(10);
        keep.set(7);
        keep.set(2);
        b.filter(&keep);
        let c = b.compact();
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_qualifying(), 2);
        assert_eq!(c.column(0).i64_at(0), 2);
        assert_eq!(c.column(0).i64_at(1), 7);
    }

    #[test]
    fn project_reorders_columns() {
        let b = batch();
        let p = b.project(&[1, 0]);
        assert_eq!(p.data_type(0), DataType::Utf8);
        assert_eq!(p.data_type(1), DataType::Int64);
        assert_eq!(p.n_rows(), 10);
    }

    #[test]
    fn append_columns_grows_width() {
        let b = batch();
        let extra = Vector::from_values(
            DataType::Int64,
            &(0..10).map(|i| Value::Int64(i * 100)).collect::<Vec<_>>(),
        )
        .unwrap();
        let b = b.append_columns(vec![DataType::Int64], vec![extra]);
        assert_eq!(b.n_columns(), 3);
        assert_eq!(b.column(2).i64_at(4), 400);
    }
}
