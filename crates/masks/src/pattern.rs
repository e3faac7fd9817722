//! The [`MaskPattern`] trait: a structured attention mask as a *rule*, not
//! a materialized matrix.
//!
//! The paper's "ordered sparsity" kernels (local, dilated, global) never
//! materialize their masks — neighbor indices are "calculated relative to
//! the index token of a row" inside the kernel (Section IV-B). A
//! `MaskPattern` captures exactly that: a membership predicate plus a
//! per-row neighbor enumerator. Explicit formats (COO/CSR/dense) are
//! derived views used by the explicit-mask kernels, the SDP baseline, and
//! verification.

use gpa_sparse::{CooMask, CsrMask, DenseMask, Idx};

/// A structured `L×L` attention mask.
///
/// Implementations must satisfy two consistency laws (tested for every
/// pattern in this crate):
///
/// 1. `append_row(i)` yields exactly `{ j | contains(i, j) }`, sorted
///    ascending;
/// 2. `nnz()` equals the sum of row lengths.
///
/// and one cost law, which every pattern and combinator in this crate
/// keeps:
///
/// 3. `append_row(i)` runs in `O(1 + d)` for a row of `d` edges (times the
///    operand count for a combinator, and `log d` more for a row drawn out
///    of order and sorted); no row rule scans the `L` columns. So
///    [`MaskPattern::to_csr`] runs in `O(L + nnz)`, the work-optimality
///    the kernels have. `contains` makes no such promise: a sampled
///    pattern re-draws the row to answer it.
pub trait MaskPattern: Send + Sync {
    /// Context length `L` (masks are square: queries × keys).
    fn context_len(&self) -> usize;

    /// Membership test: may token `i` attend to token `j`?
    fn contains(&self, i: usize, j: usize) -> bool;

    /// Append the sorted neighbor (column) list of row `i` to `out`.
    fn append_row(&self, i: usize, out: &mut Vec<Idx>);

    /// Number of mask non-zeros. The default enumerates all rows;
    /// ordered-sparsity patterns override it with closed forms so the
    /// memory model can evaluate masks at `L = 160 M` without materializing
    /// anything.
    fn nnz(&self) -> usize {
        let mut buf = Vec::new();
        let mut total = 0;
        for i in 0..self.context_len() {
            buf.clear();
            self.append_row(i, &mut buf);
            total += buf.len();
        }
        total
    }

    /// Sparsity factor `Sf = NNZ / L²` (Eq. 2 of the paper).
    fn sparsity_factor(&self) -> f64 {
        let l = self.context_len();
        if l == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (l as f64 * l as f64)
    }

    /// Materialize as CSR (the explicit-kernel input format).
    fn to_csr(&self) -> CsrMask {
        let l = self.context_len();
        let mut row_offsets = Vec::with_capacity(l + 1);
        row_offsets.push(0usize);
        let mut col_idx = Vec::new();
        for i in 0..l {
            self.append_row(i, &mut col_idx);
            row_offsets.push(col_idx.len());
        }
        CsrMask::from_parts(l, l, row_offsets, col_idx)
            .expect("pattern emitted an invalid row: append_row must be sorted and in bounds")
    }

    /// Materialize as COO.
    fn to_coo(&self) -> CooMask {
        self.to_csr().to_coo()
    }

    /// Materialize as a dense bitmask (verification / SDP baseline input).
    fn to_dense(&self) -> DenseMask {
        let l = self.context_len();
        let mut buf = Vec::new();
        let mut m = DenseMask::zeros(l, l);
        for i in 0..l {
            buf.clear();
            self.append_row(i, &mut buf);
            for &j in &buf {
                m.set(i, j as usize, true);
            }
        }
        m
    }
}

/// Check the two `MaskPattern` consistency laws by brute force. Test-support
/// code used across this crate and downstream crates' tests.
pub fn check_pattern_laws(pattern: &dyn MaskPattern) {
    let l = pattern.context_len();
    let mut buf = Vec::new();
    let mut total = 0usize;
    for i in 0..l {
        buf.clear();
        pattern.append_row(i, &mut buf);
        // Law 1a: sorted strictly ascending (no duplicates).
        assert!(
            buf.windows(2).all(|w| w[0] < w[1]),
            "row {i} not sorted-unique: {buf:?}"
        );
        // Law 1b: row matches the membership predicate exactly.
        let from_contains: Vec<Idx> = (0..l)
            .filter(|&j| pattern.contains(i, j))
            .map(|j| j as Idx)
            .collect();
        assert_eq!(
            buf, from_contains,
            "row {i}: append_row disagrees with contains"
        );
        total += buf.len();
    }
    // Law 2: nnz agrees with enumeration (catches bad closed forms).
    assert_eq!(pattern.nnz(), total, "nnz() disagrees with row enumeration");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal pattern for exercising trait defaults: the identity diagonal.
    struct Diagonal {
        l: usize,
    }

    impl MaskPattern for Diagonal {
        fn context_len(&self) -> usize {
            self.l
        }
        fn contains(&self, i: usize, j: usize) -> bool {
            i == j
        }
        fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
            out.push(i as Idx);
        }
    }

    #[test]
    fn defaults_derive_from_rows() {
        let d = Diagonal { l: 8 };
        assert_eq!(d.nnz(), 8);
        assert!((d.sparsity_factor() - 1.0 / 8.0).abs() < 1e-15);
        let csr = d.to_csr();
        assert_eq!(csr.nnz(), 8);
        for i in 0..8 {
            assert_eq!(csr.row(i), &[i as Idx]);
        }
        let dense = d.to_dense();
        assert_eq!(DenseMask::from_csr(&csr), dense);
        assert!(dense.get(3, 3));
        assert!(!dense.get(3, 4));
        let coo = d.to_coo();
        assert_eq!(coo.nnz(), 8);
        check_pattern_laws(&d);
    }

    #[test]
    fn zero_length_pattern() {
        let d = Diagonal { l: 0 };
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.sparsity_factor(), 0.0);
        assert_eq!(d.to_csr().nnz(), 0);
    }
}
