//! DIA (diagonal) mask format — the paper's future-work direction of
//! "more sophisticated sparse matrix representation formats for specific
//! attention mask patterns to reduce their storage overheads"
//! (Section VI-A).
//!
//! Banded attention masks (local windows, 1-D dilated windows, and any
//! union of them) are fully described by their set of *diagonal offsets*
//! `d = j − i`: storage is `O(#diagonals)` — independent of `L` — versus
//! `O(Sf·L²)` for CSR/COO. This makes the explicit-mask kernel reach the
//! same context lengths as the implicit kernels while staying programmable
//! (arbitrary diagonal sets, not just contiguous or strided windows).

use crate::csr::CsrMask;
use crate::error::SparseError;
use crate::Idx;

/// Banded binary mask: `mask(i, j) = 1 ⇔ (j − i) ∈ offsets`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiaMask {
    l: usize,
    /// Sorted, deduplicated diagonal offsets (`0` = main diagonal,
    /// positive = above).
    offsets: Vec<i64>,
}

impl DiaMask {
    /// Build from arbitrary offsets (sorted and deduplicated; offsets that
    /// cannot intersect an `l×l` matrix are rejected).
    pub fn new(l: usize, mut offsets: Vec<i64>) -> Result<Self, SparseError> {
        offsets.sort_unstable();
        offsets.dedup();
        if let Some(&bad) = offsets
            .iter()
            .find(|&&d| d.unsigned_abs() as usize >= l.max(1))
        {
            return Err(SparseError::OutOfBounds {
                row: 0,
                col: bad.unsigned_abs() as usize,
                rows: l,
                cols: l,
            });
        }
        Ok(DiaMask { l, offsets })
    }

    /// The local window `|i−j| ≤ n` as diagonals `−n..=n`.
    pub fn local(l: usize, n: usize) -> Self {
        let n = n.min(l.saturating_sub(1)) as i64;
        DiaMask {
            l,
            offsets: (-n..=n).collect(),
        }
    }

    /// Context length.
    pub fn context_len(&self) -> usize {
        self.l
    }

    /// The diagonal offsets — the whole storage, `O(diagonals)`, not `O(L²)`.
    #[cfg(test)]
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Exact non-zero count: diagonal `d` holds `L − |d|` entries.
    pub fn nnz(&self) -> usize {
        self.offsets
            .iter()
            .map(|d| self.l - d.unsigned_abs() as usize)
            .sum()
    }

    /// Sparsity factor `Sf = NNZ / L²`.
    #[cfg(test)]
    pub fn sparsity_factor(&self) -> f64 {
        if self.l == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.l as f64 * self.l as f64)
    }

    /// Membership test by binary search over the offsets.
    #[cfg(test)]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        if i >= self.l || j >= self.l {
            return false;
        }
        self.offsets.binary_search(&(j as i64 - i as i64)).is_ok()
    }

    /// The in-bounds neighbor columns of row `i`, ascending — the DIA
    /// row rule the `Dia` kernel streams.
    #[inline]
    pub fn row_neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let l = self.l as i64;
        let i = i as i64;
        self.offsets.iter().filter_map(move |&d| {
            let j = i + d;
            (j >= 0 && j < l).then_some(j as usize)
        })
    }

    /// Materialize as CSR (for comparisons; defeats the storage advantage).
    pub fn to_csr(&self) -> CsrMask {
        let mut row_offsets = Vec::with_capacity(self.l + 1);
        row_offsets.push(0usize);
        let mut col_idx: Vec<Idx> = Vec::with_capacity(self.nnz());
        for i in 0..self.l {
            col_idx.extend(self.row_neighbors(i).map(|j| j as Idx));
            row_offsets.push(col_idx.len());
        }
        CsrMask::from_parts(self.l, self.l, row_offsets, col_idx)
            .expect("diagonal enumeration yields valid CSR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_equivalence() {
        let dia = DiaMask::local(20, 3);
        assert_eq!(dia.offsets().len(), 7);
        // nnz = (2n+1)L − n(n+1) = 7·20 − 12 = 128.
        assert_eq!(dia.nnz(), 128);
        assert!(dia.contains(5, 8));
        assert!(!dia.contains(5, 9));
        assert!(dia.contains(0, 3));
        assert!(dia.contains(3, 0)); // |3-0| ≤ 3 ⇒ contained
    }

    #[test]
    fn row_neighbors_sorted_and_clipped() {
        let dia = DiaMask::local(10, 2);
        let row0: Vec<usize> = dia.row_neighbors(0).collect();
        assert_eq!(row0, vec![0, 1, 2]);
        let row9: Vec<usize> = dia.row_neighbors(9).collect();
        assert_eq!(row9, vec![7, 8, 9]);
        let row5: Vec<usize> = dia.row_neighbors(5).collect();
        assert_eq!(row5, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn dilated_equivalence_with_pattern_predicate() {
        // The paper's 1-D dilated window `|i−j| < w ∧ |i−j| mod (r+1) = 0`
        // is the strided diagonal set `{s·(r+1) : |s·(r+1)| < w}`.
        let (l, w, r) = (30, 9, 2);
        let stride = (r + 1) as i64;
        let k = ((w - 1) / (r + 1)) as i64;
        let dia = DiaMask::new(l, (-k..=k).map(|s| s * stride).collect()).unwrap();
        for i in 0..l {
            for j in 0..l {
                let d = i.abs_diff(j);
                let expect = d < w && d % (r + 1) == 0;
                assert_eq!(dia.contains(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn csr_roundtrip_preserves_membership() {
        let dia = DiaMask::new(25, vec![-6, -4, -2, 0, 2, 4, 6]).unwrap();
        let csr = dia.to_csr();
        assert_eq!(csr.nnz(), dia.nnz());
        for i in 0..25 {
            for j in 0..25 {
                assert_eq!(csr.contains(i, j), dia.contains(i, j));
            }
        }
    }

    #[test]
    fn constructor_validates_offsets() {
        assert!(DiaMask::new(4, vec![0, 3, -3]).is_ok());
        assert!(DiaMask::new(4, vec![4]).is_err());
        assert!(DiaMask::new(4, vec![-4]).is_err());
        // Dedup + sort.
        let m = DiaMask::new(8, vec![2, -1, 2, 0]).unwrap();
        assert_eq!(m.offsets(), &[-1, 0, 2]);
    }

    #[test]
    fn storage_is_independent_of_length() {
        let small = DiaMask::local(100, 5);
        let huge = DiaMask::local(100_000_000, 5);
        assert_eq!(small.offsets(), huge.offsets());
        assert!(huge.nnz() > 1_000_000_000);
    }

    #[test]
    fn union_merges_offsets() {
        let a = DiaMask::local(12, 1);
        let b = DiaMask::new(12, vec![-6, 6]).unwrap();
        let u = DiaMask::new(12, [a.offsets(), b.offsets()].concat()).unwrap();
        assert_eq!(u.offsets(), &[-6, -1, 0, 1, 6]);
        assert_eq!(u.nnz(), a.nnz() + b.nnz());
        assert_eq!(u.to_csr(), a.to_csr().union(&b.to_csr()));
    }

    #[test]
    fn empty_and_degenerate() {
        let empty = DiaMask::new(5, vec![]).unwrap();
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.sparsity_factor(), 0.0);
        assert_eq!(DiaMask::local(0, 5).nnz(), 0);
    }
}
