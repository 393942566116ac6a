//! Flat row-major matrix storage for clustering hot paths.
//!
//! The k-means inner loops walk every point every iteration; a
//! `Vec<Vec<f64>>` costs one pointer chase (and one cache line of `Vec`
//! header) per point per pass. [`Matrix`] stores all rows contiguously so a
//! full pass is a single linear scan, while `row()` still hands out plain
//! `&[f64]` slices — the same arithmetic runs on the same values in the
//! same order, so results stay bit-identical to the nested-`Vec` layout.

/// A dense row-major matrix: `rows × dim` values in one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
}

impl Matrix {
    /// An empty matrix of the given row width.
    pub fn with_dim(dim: usize) -> Self {
        Matrix {
            data: Vec::new(),
            rows: 0,
            dim,
        }
    }

    /// Copies a nested-`Vec` point set into flat storage.
    ///
    /// An empty slice yields a `0 × 0` matrix.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "rows must share a dimensionality");
            data.extend_from_slice(r);
        }
        Matrix {
            data,
            rows: rows.len(),
            dim,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "rows must share a dimensionality");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The backing storage, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_and_mutate() {
        let mut m = Matrix::with_dim(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.row(0), &[1.0, 9.0]);
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn empty_and_zero_dim() {
        let m = Matrix::from_rows(&[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.dim(), 0);
        let z = Matrix::from_rows(&[vec![], vec![]]);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.dim(), 0);
        assert_eq!(z.row(1), &[] as &[f64]);
    }

    #[test]
    #[should_panic(expected = "share a dimensionality")]
    fn ragged_rejected() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_bounds_checked() {
        Matrix::from_rows(&[vec![1.0]]).row(1);
    }
}
