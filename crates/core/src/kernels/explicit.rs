//! Explicit-mask row rules: COO and CSR (Section IV-B).
//!
//! Both receive the sparse mask (graph) as input and stream each row's
//! neighbors into the row tile. The difference the paper
//! measures (Fig. 3) is *how a row finds its neighbors*:
//!
//! - **CSR**: two offset loads give the neighbor slice — O(1) per row;
//! - **COO**: the kernel must *search* for its row's segment. The paper's
//!   implementation scans linearly from position 0, so "the search cost
//!   grows as the algorithm strays farther from row zero" — the reason COO
//!   underperforms every other kernel. [`CooSearch::Linear`] reproduces
//!   that; [`CooSearch::Binary`] is the fix studied as ablation A1.

use crate::driver::NeighborSink;
use gpa_parallel::{LocalTally, WorkCounter};
use gpa_sparse::{CooMask, CsrMask};

/// Row-bound search strategy for the COO kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CooSearch {
    /// Scan from the start of the index vectors, as the paper's kernel
    /// does. Cost grows linearly with the row position.
    #[default]
    Linear,
    /// Binary search on the sorted row-index vector (ablation A1).
    Binary,
}

/// Stream row `i`'s neighbors from a CSR mask: one slice, handed over whole.
#[inline]
pub(crate) fn csr_row(mask: &CsrMask, i: usize, sink: &mut impl NeighborSink) {
    sink.extend(mask.row(i));
}

/// Stream row `i`'s neighbors from a COO mask under the given search
/// strategy. The linear search's scanned-prefix length is flushed to
/// `counter` (a per-row quantity, distinct from the driver's per-edge
/// tally).
#[inline]
pub(crate) fn coo_row(
    mask: &CooMask,
    search: CooSearch,
    i: usize,
    counter: Option<&WorkCounter>,
    sink: &mut impl NeighborSink,
) {
    let cols = mask.col_indices();
    let (lo, hi) = match search {
        CooSearch::Linear => {
            let (lo, hi, scanned) = mask.row_bounds_linear(i);
            if let Some(counter) = counter {
                let mut t = LocalTally::new(counter);
                t.searched(scanned as u64);
            }
            (lo, hi)
        }
        CooSearch::Binary => mask.row_bounds_binary(i),
    };
    sink.extend(&cols[lo..hi]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::{assert_kernel_computes_mask, counting_engine};
    use crate::{AttentionKernel, AttnError};
    use gpa_masks::{LocalWindow, MaskPattern, RandomUniform};
    use gpa_tensor::init::qkv;

    #[test]
    fn csr_matches_reference_on_random_mask() {
        let csr = RandomUniform::new(48, 0.2, 3).to_csr();
        assert_kernel_computes_mask(AttentionKernel::Csr(&csr), &csr, 16, "random");
    }

    #[test]
    fn coo_linear_and_binary_agree_with_csr() {
        let pat = RandomUniform::new(40, 0.15, 9);
        let (coo, csr) = (pat.to_coo(), pat.to_csr());
        for search in [CooSearch::Linear, CooSearch::Binary] {
            let kernel = AttentionKernel::Coo(&coo, search);
            assert_kernel_computes_mask(kernel, &csr, 8, &format!("{search:?}"));
        }
    }

    #[test]
    fn kernels_are_work_optimal() {
        let l = 32;
        let (q, k, v) = qkv::<f64>(l, 8, 2);
        let pat = LocalWindow::new(l, 3);
        let (csr, coo) = (pat.to_csr(), pat.to_coo());
        let engine = counting_engine();
        let searches_of = |kernel| {
            engine.work_counter().unwrap().reset();
            let _ = engine.run_kernel(kernel, &q, &k, &v).unwrap();
            let report = engine.work_report().unwrap();
            assert!(report.is_work_optimal(pat.nnz() as u64));
            report.neighbor_searches
        };
        assert_eq!(searches_of(AttentionKernel::Csr(&csr)), 0);
        // The linear search scanned a prefix per row: strictly positive for
        // any mask with entries beyond row 0.
        assert!(searches_of(AttentionKernel::Coo(&coo, CooSearch::Linear)) > 0);
        assert_eq!(
            searches_of(AttentionKernel::Coo(&coo, CooSearch::Binary)),
            0
        );
    }

    #[test]
    fn linear_search_cost_is_quadratic_in_rows() {
        // Σ_rows (prefix length) ≈ nnz·L/2 for a uniform mask — the COO
        // pathology from Fig. 3.
        let l = 64;
        let pat = LocalWindow::new(l, 1);
        let coo = pat.to_coo();
        let (q, k, v) = qkv::<f64>(l, 4, 3);
        let engine = counting_engine();
        let _ = engine
            .run_kernel(AttentionKernel::Coo(&coo, CooSearch::Linear), &q, &k, &v)
            .unwrap();
        let searches = engine.work_report().unwrap().neighbor_searches;
        let nnz = pat.nnz() as u64;
        assert!(
            searches > nnz * (l as u64) / 4,
            "searches {searches} should scale with nnz·L (nnz={nnz}, L={l})"
        );
    }

    #[test]
    fn mask_shape_mismatch_is_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let wrong = LocalWindow::new(9, 1).to_csr();
        let err = counting_engine()
            .run_kernel(AttentionKernel::Csr(&wrong), &q, &k, &v)
            .unwrap_err();
        assert!(matches!(err, AttnError::MaskShapeMismatch { .. }));
    }

    #[test]
    fn empty_mask_produces_zero_output() {
        let (q, k, v) = qkv::<f64>(6, 4, 1);
        let empty = CsrMask::from_parts(6, 6, vec![0; 7], vec![]).unwrap();
        let out = counting_engine()
            .run_kernel(AttentionKernel::Csr(&empty), &q, &k, &v)
            .unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }
}
