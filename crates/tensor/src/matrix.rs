//! Row-major dense matrix.
//!
//! The only dense container the attention kernels need: `Q`, `K`, `V`, and
//! `O` are all `L×d` row-major matrices (one row per token), matching the
//! layout the paper assumes ("queries packed in a matrix Q ∈ R^{L×dk}").

use crate::real::Real;
use std::fmt;

/// Row-major dense matrix of [`Real`] scalars.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access (bounds-checked).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Row `i` as a slice — the hot accessor in every kernel.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable row access.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let start = i * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The whole backing buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// A copy of the sub-matrix made of rows `lo..hi`.
    pub fn rows_slice(&self, lo: usize, hi: usize) -> Matrix<T> {
        assert!(lo <= hi && hi <= self.rows);
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Append one row at the bottom — the amortized-O(row) growth step a
    /// KV cache performs once per generated token.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(
            row.len(),
            self.cols,
            "row length {} does not match {} columns",
            row.len(),
            self.cols
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserve backing storage for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Drop every row past the first `rows` — the rollback counterpart of
    /// [`Self::push_row`]. A no-op when the matrix is already shorter.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.data.truncate(rows * self.cols);
            self.rows = rows;
        }
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Cast to another [`Real`] type through `f64`.
    pub fn cast<U: Real>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

impl<T: Real> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let show_cols = self.cols.min(8);
            write!(f, "  [")?;
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.5}", self.get(i, j))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Element-wise closeness test with `torch.allclose` semantics, the
/// comparison operator the paper's verification protocol uses (Section V-A):
/// `|a − b| ≤ atol + rtol · |b|`, with optional NaN-equals-NaN.
pub fn allclose<T: Real>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    atol: f64,
    rtol: f64,
    equal_nan: bool,
) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .all(|(&x, &y)| scalar_close(x.to_f64(), y.to_f64(), atol, rtol, equal_nan))
}

/// Scalar version of [`allclose`].
#[inline]
pub(crate) fn scalar_close(a: f64, b: f64, atol: f64, rtol: f64, equal_nan: bool) -> bool {
    if a.is_nan() || b.is_nan() {
        return equal_nan && a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= atol + rtol * b.abs()
}

/// The paper's exact verification tolerances: `atol = 1e-8`, `rtol = 1e-5`,
/// NaN values compared equal (Section V-A).
pub fn paper_allclose<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> bool {
    allclose(a, b, 1e-8, 1e-5, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m: Matrix<f64> = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Matrix::<f32>::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m: Matrix<f32> = Matrix::zeros(2, 3);
        m.row_mut(1)[2] = 5.0;
        assert_eq!(m.get(1, 2), 5.0);
    }

    #[test]
    fn rows_slice_extracts_contiguous_rows() {
        let m: Matrix<f64> = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let s = m.rows_slice(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(1), m.row(2));
    }

    #[test]
    fn push_row_grows_the_matrix() {
        let mut m: Matrix<f64> = Matrix::zeros(0, 3);
        m.reserve_rows(2);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let grown = m;
        let built: Matrix<f64> = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(grown, built);
    }

    #[test]
    fn truncate_rows_rolls_back_pushes() {
        let mut m: Matrix<f64> = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let before = m.clone();
        m.push_row(&[5.0, 6.0]);
        m.truncate_rows(2);
        assert_eq!(m, before);
        m.truncate_rows(5); // longer than the matrix: no-op
        assert_eq!(m, before);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn push_row_checks_width() {
        let mut m: Matrix<f32> = Matrix::zeros(1, 3);
        m.push_row(&[1.0, 2.0]);
    }

    #[test]
    fn allclose_matches_torch_semantics() {
        let a: Matrix<f64> = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let mut b = a.clone();
        // Within rtol·|b|.
        b.row_mut(0)[0] = 1.0 + 9e-6;
        assert!(paper_allclose(&a, &b));
        // Outside.
        b.row_mut(0)[0] = 1.0 + 2e-5;
        assert!(!paper_allclose(&a, &b));
    }

    #[test]
    fn allclose_asymmetry_in_rtol_reference() {
        // rtol multiplies |b| (second argument), like torch.allclose.
        assert!(scalar_close(1.0 + 9e-6, 1.0, 0.0, 1e-5, false));
        assert!(scalar_close(0.0, 1e-9, 1e-8, 0.0, false));
        assert!(!scalar_close(1e-7, 0.0, 1e-8, 1e-5, false));
    }

    #[test]
    fn allclose_nan_handling() {
        let mut a: Matrix<f64> = Matrix::zeros(1, 2);
        let mut b: Matrix<f64> = Matrix::zeros(1, 2);
        a.row_mut(0)[0] = f64::NAN;
        b.row_mut(0)[0] = f64::NAN;
        assert!(allclose(&a, &b, 1e-8, 1e-5, true));
        assert!(!allclose(&a, &b, 1e-8, 1e-5, false));
    }

    #[test]
    fn allclose_infinity() {
        let mut a: Matrix<f64> = Matrix::zeros(1, 1);
        let mut b: Matrix<f64> = Matrix::zeros(1, 1);
        a.row_mut(0)[0] = f64::INFINITY;
        b.row_mut(0)[0] = f64::INFINITY;
        assert!(allclose(&a, &b, 1e-8, 1e-5, false));
        b.row_mut(0)[0] = f64::NEG_INFINITY;
        assert!(!allclose(&a, &b, 1e-8, 1e-5, false));
    }

    #[test]
    fn allclose_shape_mismatch_is_false() {
        let a: Matrix<f32> = Matrix::zeros(2, 2);
        let b: Matrix<f32> = Matrix::zeros(2, 3);
        assert!(!allclose(&a, &b, 1.0, 1.0, true));
    }

    #[test]
    fn cast_roundtrip_f32_f64() {
        let m: Matrix<f32> = Matrix::from_fn(3, 3, |i, j| (i as f32) - 0.5 * (j as f32));
        let back: Matrix<f32> = m.cast::<f64>().cast::<f32>();
        assert_eq!(m, back);
    }

    #[test]
    fn max_abs_diff_reports_worst_element() {
        let a: Matrix<f64> = Matrix::zeros(2, 2);
        let mut b = a.clone();
        b.row_mut(1)[1] = -0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
