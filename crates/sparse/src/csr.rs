//! CSR (compressed sparse row) attention-mask storage.
//!
//! The paper's best-performing explicit-mask kernel takes "the row offset,
//! column indices, and values vectors" (Section IV-B). For a binary mask,
//! row `i`'s neighbor list is the slice
//! `col_idx[row_offsets[i] .. row_offsets[i+1]]` — exactly the adjacency
//! list of vertex `i` in the paper's graph view, so `Get_Neighbors(G, i)`
//! is a two-load slice lookup with no searching (the advantage over COO
//! highlighted in Section V-C).

use crate::coo::{check_shape, CooMask};
use crate::error::SparseError;
use crate::Idx;

/// Binary sparse mask in CSR format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrMask {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_idx: Vec<Idx>,
}

impl CsrMask {
    /// Empty mask of the given shape.
    #[cfg(test)]
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMask {
            rows,
            cols,
            row_offsets: vec![0; rows + 1],
            col_idx: Vec::new(),
        }
    }

    /// Build from raw CSR vectors, validating all invariants.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_idx: Vec<Idx>,
    ) -> Result<Self, SparseError> {
        check_shape(rows, cols)?;
        if row_offsets.len() != rows + 1 {
            return Err(SparseError::BadOffsets {
                reason: "row_offsets length must be rows + 1",
            });
        }
        if row_offsets.first() != Some(&0) {
            return Err(SparseError::BadOffsets {
                reason: "row_offsets must start at 0",
            });
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::BadOffsets {
                reason: "row_offsets must be non-decreasing",
            });
        }
        if *row_offsets.last().unwrap() != col_idx.len() {
            return Err(SparseError::BadOffsets {
                reason: "last offset must equal col_idx length",
            });
        }
        for r in 0..rows {
            let slice = &col_idx[row_offsets[r]..row_offsets[r + 1]];
            for (k, &c) in slice.iter().enumerate() {
                if c as usize >= cols {
                    return Err(SparseError::OutOfBounds {
                        row: r,
                        col: c as usize,
                        rows,
                        cols,
                    });
                }
                if k > 0 {
                    match slice[k - 1].cmp(&c) {
                        std::cmp::Ordering::Greater => {
                            return Err(SparseError::Unsorted {
                                position: row_offsets[r] + k,
                            })
                        }
                        std::cmp::Ordering::Equal => {
                            return Err(SparseError::Duplicate {
                                row: r,
                                col: c as usize,
                            })
                        }
                        std::cmp::Ordering::Less => {}
                    }
                }
            }
        }
        Ok(CsrMask {
            rows,
            cols,
            row_offsets,
            col_idx,
        })
    }

    /// Convert from COO (entries already sorted by `(row, col)`).
    pub fn from_coo(coo: &CooMask) -> Self {
        let rows = coo.rows();
        let mut row_offsets = vec![0usize; rows + 1];
        for &r in coo.row_indices() {
            row_offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        CsrMask {
            rows,
            cols: coo.cols(),
            row_offsets,
            col_idx: coo.col_indices().to_vec(),
        }
    }

    /// Convert to COO.
    pub fn to_coo(&self) -> CooMask {
        let mut row_idx = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let deg = self.row_offsets[r + 1] - self.row_offsets[r];
            row_idx.extend(std::iter::repeat(r as Idx).take(deg));
        }
        CooMask::from_sorted_vecs(self.rows, self.cols, row_idx, self.col_idx.clone())
            .expect("CSR invariants imply valid COO")
    }

    /// Number of rows (queries).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (keys).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zeros (graph edges).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Sparsity factor `Sf = NNZ / TE` (Eq. 2).
    pub fn sparsity_factor(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Row offset vector (`rows + 1` entries).
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// Flat column-index vector.
    pub fn col_indices(&self) -> &[Idx] {
        &self.col_idx
    }

    /// Neighbor list of vertex `row` — `Get_Neighbors` from Algorithm 1.
    #[inline(always)]
    pub fn row(&self, row: usize) -> &[Idx] {
        &self.col_idx[self.row_offsets[row]..self.row_offsets[row + 1]]
    }

    /// Degree (number of neighbors) of `row`.
    #[inline]
    pub(crate) fn degree(&self, row: usize) -> usize {
        self.row_offsets[row + 1] - self.row_offsets[row]
    }

    /// Membership test by binary search within the row.
    #[cfg(test)]
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.row(row).binary_search(&(col as Idx)).is_ok()
    }

    /// Iterate all `(row, col)` entries in `(row, col)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c as usize)))
    }

    /// Union with another mask of the same shape (set union of edges).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn union(&self, other: &CsrMask) -> CsrMask {
        self.merge_rows(other, |in_a, in_b| in_a || in_b)
    }

    /// Set difference `self \ other` (edges in `self` not in `other`).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn difference(&self, other: &CsrMask) -> CsrMask {
        self.merge_rows(other, |in_a, in_b| in_a && !in_b)
    }

    /// Each row of `self` merged with the same row of `other` by `keep`.
    fn merge_rows(&self, other: &CsrMask, keep: impl Fn(bool, bool) -> bool) -> CsrMask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask shapes differ"
        );
        let mut row_offsets = Vec::with_capacity(self.rows + 1);
        row_offsets.push(0usize);
        let mut col_idx = Vec::new();
        for r in 0..self.rows {
            merge(self.row(r), other.row(r), &keep, &mut col_idx);
            row_offsets.push(col_idx.len());
        }
        CsrMask {
            rows: self.rows,
            cols: self.cols,
            row_offsets,
            col_idx,
        }
    }
}

/// Merge two sorted-unique index lists into `out`, keeping each column by
/// where it occurs: `keep(in_a, in_b)`. The output is sorted-unique, and
/// the merge costs `O(|a| + |b|)` — the one set operation behind mask
/// union, difference and disjointness, here and in `gpa-masks`.
pub fn merge(a: &[Idx], b: &[Idx], keep: impl Fn(bool, bool) -> bool, out: &mut Vec<Idx>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (c, in_a, in_b) = match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (a[i], true, false),
            std::cmp::Ordering::Greater => (b[j], false, true),
            std::cmp::Ordering::Equal => (a[i], true, true),
        };
        if keep(in_a, in_b) {
            out.push(c);
        }
        i += usize::from(in_a);
        j += usize::from(in_b);
    }
    if keep(true, false) {
        out.extend_from_slice(&a[i..]);
    }
    if keep(false, true) {
        out.extend_from_slice(&b[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMask {
        CooMask::from_entries(4, 5, vec![(0, 1), (0, 4), (1, 0), (3, 2), (3, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn coo_roundtrip() {
        let coo = sample_coo();
        let csr = CsrMask::from_coo(&coo);
        assert_eq!(csr.nnz(), coo.nnz());
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn rows_and_degrees() {
        let csr = CsrMask::from_coo(&sample_coo());
        assert_eq!(csr.row(0), &[1, 4]);
        assert_eq!(csr.row(1), &[0]);
        assert_eq!(csr.row(2), &[] as &[Idx]);
        assert_eq!(csr.row(3), &[2, 3, 4]);
        assert_eq!(csr.degree(3), 3);
        assert_eq!(csr.degree(2), 0);
    }

    #[test]
    fn from_parts_validates() {
        // Happy path.
        let ok = CsrMask::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1]).unwrap();
        assert_eq!(ok.nnz(), 3);
        // Wrong offsets length.
        assert!(CsrMask::from_parts(2, 3, vec![0, 1], vec![0]).is_err());
        // Non-monotone offsets.
        assert!(CsrMask::from_parts(2, 3, vec![0, 2, 1], vec![0, 1]).is_err());
        // Mismatched last offset.
        assert!(CsrMask::from_parts(2, 3, vec![0, 1, 1], vec![0, 1]).is_err());
        // First offset not zero.
        assert!(CsrMask::from_parts(2, 3, vec![1, 1, 2], vec![0, 1]).is_err());
        // Column out of range.
        assert!(CsrMask::from_parts(1, 2, vec![0, 1], vec![5]).is_err());
        // Unsorted columns within a row.
        assert!(matches!(
            CsrMask::from_parts(1, 4, vec![0, 2], vec![2, 1]).unwrap_err(),
            SparseError::Unsorted { .. }
        ));
        // Duplicate column within a row.
        assert!(matches!(
            CsrMask::from_parts(1, 4, vec![0, 2], vec![2, 2]).unwrap_err(),
            SparseError::Duplicate { .. }
        ));
    }

    #[test]
    fn iter_matches_coo_order() {
        let coo = sample_coo();
        let csr = CsrMask::from_coo(&coo);
        let a: Vec<_> = csr.iter().collect();
        let b: Vec<_> = coo.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn union_difference_intersection_laws() {
        let a =
            CsrMask::from_coo(&CooMask::from_entries(3, 3, vec![(0, 0), (1, 1), (2, 0)]).unwrap());
        let b =
            CsrMask::from_coo(&CooMask::from_entries(3, 3, vec![(0, 0), (1, 2), (2, 1)]).unwrap());
        let u = a.union(&b);
        assert_eq!(u.nnz(), 5); // (0,0) shared
        let d = a.difference(&b);
        assert_eq!(d.nnz(), 2);
        assert!(d.contains(1, 1) && d.contains(2, 0));
        // a ∩ b = a ∖ (a ∖ b)
        let i = a.difference(&d);
        assert_eq!(i.nnz(), 1);
        assert!(i.contains(0, 0));
        // a = (a ∖ b) ∪ (a ∩ b)
        assert_eq!(d.union(&i), a);
        // disjointness: nothing of b is left in a ∖ b
        assert_eq!(d.difference(&d.difference(&b)).nnz(), 0);
    }

    #[test]
    fn empty_mask_behaves() {
        let e = CsrMask::empty(3, 3);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.sparsity_factor(), 0.0);
        assert_eq!(e.row(1), &[] as &[Idx]);
        assert!(!e.contains(0, 0));
    }

    #[test]
    fn contains_binary_search() {
        let csr = CsrMask::from_coo(&sample_coo());
        assert!(csr.contains(3, 3));
        assert!(!csr.contains(3, 0));
        assert!(!csr.contains(2, 2));
    }
}
