//! COO (coordinate) attention-mask storage.
//!
//! The paper's first explicit-mask kernel receives "the row indices, column
//! indices, and values vectors" (Section IV-B). Attention masks are binary,
//! so the values vector is implicit (all ones) and a mask non-zero is fully
//! described by its `(row, col)` pair. Entries are kept sorted by
//! `(row, col)` and deduplicated — the layout the paper's COO kernel assumes
//! ("a selection of ordered coordinates (grouped rows and sorted columns)").

use crate::error::SparseError;
use crate::Idx;

/// Binary sparse mask in coordinate format, sorted by `(row, col)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CooMask {
    rows: usize,
    cols: usize,
    row_idx: Vec<Idx>,
    col_idx: Vec<Idx>,
}

impl CooMask {
    /// Empty mask of the given shape.
    #[cfg(test)]
    pub fn empty(rows: usize, cols: usize) -> Self {
        CooMask {
            rows,
            cols,
            row_idx: Vec::new(),
            col_idx: Vec::new(),
        }
    }

    /// Build from arbitrary (unsorted, possibly duplicated) entries.
    /// Entries are sorted and deduplicated.
    pub fn from_entries(
        rows: usize,
        cols: usize,
        mut entries: Vec<(usize, usize)>,
    ) -> Result<Self, SparseError> {
        check_shape(rows, cols)?;
        for &(r, c) in &entries {
            if r >= rows || c >= cols {
                return Err(SparseError::OutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        entries.sort_unstable();
        entries.dedup();
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut col_idx = Vec::with_capacity(entries.len());
        for (r, c) in entries {
            row_idx.push(r as Idx);
            col_idx.push(c as Idx);
        }
        Ok(CooMask {
            rows,
            cols,
            row_idx,
            col_idx,
        })
    }

    /// Build from parallel index vectors that must already be sorted by
    /// `(row, col)` without duplicates — the zero-copy constructor used by
    /// mask generators.
    pub(crate) fn from_sorted_vecs(
        rows: usize,
        cols: usize,
        row_idx: Vec<Idx>,
        col_idx: Vec<Idx>,
    ) -> Result<Self, SparseError> {
        check_shape(rows, cols)?;
        if row_idx.len() != col_idx.len() {
            return Err(SparseError::LengthMismatch {
                rows_len: row_idx.len(),
                cols_len: col_idx.len(),
            });
        }
        for i in 0..row_idx.len() {
            let (r, c) = (row_idx[i] as usize, col_idx[i] as usize);
            if r >= rows || c >= cols {
                return Err(SparseError::OutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            if i > 0 {
                let prev = (row_idx[i - 1], col_idx[i - 1]);
                let cur = (row_idx[i], col_idx[i]);
                if prev == cur {
                    return Err(SparseError::Duplicate { row: r, col: c });
                }
                if prev > cur {
                    return Err(SparseError::Unsorted { position: i });
                }
            }
        }
        Ok(CooMask {
            rows,
            cols,
            row_idx,
            col_idx,
        })
    }

    /// Number of rows (queries).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (keys).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zero entries (graph edges).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Sparsity factor `Sf = NNZ / TE` (Eq. 2 of the paper).
    pub fn sparsity_factor(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Sorted row-index vector.
    pub(crate) fn row_indices(&self) -> &[Idx] {
        &self.row_idx
    }

    /// Column-index vector, sorted within each row.
    pub fn col_indices(&self) -> &[Idx] {
        &self.col_idx
    }

    /// Iterate all `(row, col)` entries in `(row, col)` order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_idx
            .iter()
            .zip(self.col_idx.iter())
            .map(|(&r, &c)| (r as usize, c as usize))
    }

    /// Membership test: the row's bounds by linear scan, then a binary
    /// search of its sorted columns.
    #[cfg(test)]
    pub fn contains(&self, row: usize, col: usize) -> bool {
        let (lo, hi) = self.row_bounds_linear(row);
        self.col_idx[lo..hi].binary_search(&(col as Idx)).is_ok()
    }

    /// The `[lo, hi)` range of positions for `row` found by *linear scan
    /// from the front*, as the paper's COO kernel does ("the current
    /// algorithm must search to find the limits of a row … the search cost
    /// grows as the algorithm strays farther from row zero", Section V-C).
    ///
    /// The scan steps over `hi` positions, so `hi` is also the
    /// instrumented cost of the search.
    pub fn row_bounds_linear(&self, row: usize) -> (usize, usize) {
        let r = row as Idx;
        let mut pos = 0usize;
        let n = self.row_idx.len();
        while pos < n && self.row_idx[pos] < r {
            pos += 1;
        }
        let lo = pos;
        while pos < n && self.row_idx[pos] == r {
            pos += 1;
        }
        (lo, pos)
    }
}

pub(crate) fn check_shape(rows: usize, cols: usize) -> Result<(), SparseError> {
    if rows > Idx::MAX as usize + 1 {
        return Err(SparseError::IndexOverflow { dim: rows });
    }
    if cols > Idx::MAX as usize + 1 {
        return Err(SparseError::IndexOverflow { dim: cols });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMask;

    fn sample() -> CooMask {
        CooMask::from_entries(4, 4, vec![(2, 1), (0, 0), (0, 3), (2, 2), (3, 0)]).unwrap()
    }

    #[test]
    fn entries_are_sorted_and_counted() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0), (0, 3), (2, 1), (2, 2), (3, 0)]);
    }

    #[test]
    fn duplicates_are_merged() {
        let m = CooMask::from_entries(2, 2, vec![(1, 1), (1, 1), (0, 0)]).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = CooMask::from_entries(2, 2, vec![(2, 0)]).unwrap_err();
        assert!(matches!(err, SparseError::OutOfBounds { row: 2, .. }));
    }

    #[test]
    fn sorted_constructor_validates() {
        // Unsorted.
        let err = CooMask::from_sorted_vecs(3, 3, vec![1, 0], vec![0, 0]).unwrap_err();
        assert!(matches!(err, SparseError::Unsorted { position: 1 }));
        // Duplicate.
        let err = CooMask::from_sorted_vecs(3, 3, vec![1, 1], vec![2, 2]).unwrap_err();
        assert!(matches!(err, SparseError::Duplicate { row: 1, col: 2 }));
        // Length mismatch.
        let err = CooMask::from_sorted_vecs(3, 3, vec![0], vec![]).unwrap_err();
        assert!(matches!(err, SparseError::LengthMismatch { .. }));
        // Valid.
        let ok = CooMask::from_sorted_vecs(3, 3, vec![0, 1, 1], vec![2, 0, 1]).unwrap();
        assert_eq!(ok.nnz(), 3);
    }

    #[test]
    fn sparsity_factor_matches_definition() {
        let m = sample();
        assert!((m.sparsity_factor() - 5.0 / 16.0).abs() < 1e-15);
        let empty = CooMask::empty(0, 0);
        assert_eq!(empty.sparsity_factor(), 0.0);
    }

    #[test]
    fn row_bounds_linear_match_csr_offsets() {
        let m = sample();
        let offsets = CsrMask::from_coo(&m).row_offsets().to_vec();
        assert_eq!(offsets, [0, 2, 2, 4, 5]);
        for row in 0..4 {
            let (lo, hi) = m.row_bounds_linear(row);
            assert_eq!((lo, hi), (offsets[row], offsets[row + 1]), "row {row}");
        }
    }

    #[test]
    fn linear_scan_cost_grows_with_row() {
        let m = sample();
        let (_, scan0) = m.row_bounds_linear(0);
        let (_, scan3) = m.row_bounds_linear(3);
        assert!(
            scan3 > scan0,
            "later rows must scan more: {scan0} vs {scan3}"
        );
    }

    #[test]
    fn contains_finds_members_only() {
        let m = sample();
        assert!(m.contains(2, 1));
        assert!(m.contains(0, 3));
        assert!(!m.contains(0, 1));
        assert!(!m.contains(1, 0));
    }
}
