//! Dense bitset mask — the `L×L` 0-1 attention-mask view.
//!
//! The reference SDP baseline and the verification protocol work with the
//! mask as a dense boolean matrix (the way PyTorch receives it). One bit per
//! element keeps `L = 24_576` masks at 72 MiB instead of 4.8 GiB.

#[cfg(test)]
use crate::coo::CooMask;
use crate::csr::CsrMask;
#[cfg(test)]
use crate::Idx;

/// Dense binary mask backed by a `u64` bitset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseMask {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl DenseMask {
    /// All-zero (fully masked) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        DenseMask {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// All-one (dense attention) matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        let mut m = DenseMask::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, true);
            }
        }
        m
    }

    /// Build from a predicate `f(row, col)`.
    #[cfg(test)]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = DenseMask::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if f(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read bit `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        let word = self.bits[i * self.words_per_row + j / 64];
        (word >> (j % 64)) & 1 == 1
    }

    /// Write bit `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        debug_assert!(i < self.rows && j < self.cols);
        let word = &mut self.bits[i * self.words_per_row + j / 64];
        if value {
            *word |= 1 << (j % 64);
        } else {
            *word &= !(1 << (j % 64));
        }
    }

    /// Count of set bits.
    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sparsity factor `Sf = NNZ / TE` (Eq. 2).
    #[cfg(test)]
    pub fn sparsity_factor(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Convert to COO (sorted, deduplicated by construction).
    #[cfg(test)]
    pub fn to_coo(&self) -> CooMask {
        let mut row_idx = Vec::new();
        let mut col_idx = Vec::new();
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.get(i, j) {
                    row_idx.push(i as Idx);
                    col_idx.push(j as Idx);
                }
            }
        }
        CooMask::from_sorted_vecs(self.rows, self.cols, row_idx, col_idx)
            .expect("bitset iteration yields sorted unique entries")
    }

    /// Convert to CSR.
    #[cfg(test)]
    pub fn to_csr(&self) -> CsrMask {
        CsrMask::from_coo(&self.to_coo())
    }

    /// Build from COO.
    #[cfg(test)]
    pub fn from_coo(coo: &CooMask) -> Self {
        let mut m = DenseMask::zeros(coo.rows(), coo.cols());
        for (r, c) in coo.iter() {
            m.set(r, c, true);
        }
        m
    }

    /// Build from CSR.
    pub fn from_csr(csr: &CsrMask) -> Self {
        let mut m = DenseMask::zeros(csr.rows(), csr.cols());
        for (r, c) in csr.iter() {
            m.set(r, c, true);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut m = DenseMask::zeros(2, 130);
        for j in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            m.set(1, j, true);
            assert!(m.get(1, j), "col {j}");
            assert!(!m.get(0, j), "row 0 untouched");
        }
        m.set(1, 64, false);
        assert!(!m.get(1, 64));
    }

    #[test]
    fn nnz_and_sparsity() {
        let mut m = DenseMask::zeros(4, 4);
        assert_eq!(m.nnz(), 0);
        m.set(0, 0, true);
        m.set(3, 3, true);
        assert_eq!(m.nnz(), 2);
        assert!((m.sparsity_factor() - 0.125).abs() < 1e-15);
        let ones = DenseMask::ones(3, 3);
        assert_eq!(ones.nnz(), 9);
        assert_eq!(ones.sparsity_factor(), 1.0);
    }

    #[test]
    fn conversions_roundtrip() {
        let m = DenseMask::from_fn(9, 13, |i, j| (i * 13 + j) % 5 == 0);
        let coo = m.to_coo();
        let csr = m.to_csr();
        assert_eq!(DenseMask::from_coo(&coo), m);
        assert_eq!(DenseMask::from_csr(&csr), m);
        assert_eq!(coo.nnz(), m.nnz());
        assert_eq!(csr.nnz(), m.nnz());
    }

    #[test]
    fn or_is_set_union() {
        let a = DenseMask::from_fn(5, 5, |i, j| i == j);
        let b = DenseMask::from_fn(5, 5, |i, j| i + j == 4);
        let u = DenseMask::from_csr(&a.to_csr().union(&b.to_csr()));
        assert_eq!(u.nnz(), 9); // diagonal (5) + anti-diagonal (5) − shared center (1)
        assert!(u.get(2, 2));
        assert!(u.get(0, 4));
        assert!(u.get(0, 0));
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(u.get(i, j), a.get(i, j) || b.get(i, j), "({i},{j})");
            }
        }
    }
}
