//! Explicit-mask kernels: COO and CSR (Section IV-B).
//!
//! Both receive the sparse mask (graph) as input and stream each row's
//! neighbors through the online-softmax driver. The difference the paper
//! measures (Fig. 3) is *how a row finds its neighbors*:
//!
//! - **CSR**: two offset loads give the neighbor slice — O(1) per row;
//! - **COO**: the kernel must *search* for its row's segment. The paper's
//!   implementation scans linearly from position 0, so "the search cost
//!   grows as the algorithm strays farther from row zero" — the reason COO
//!   underperforms every other kernel. [`CooSearch::Linear`] reproduces
//!   that; [`CooSearch::Binary`] is the fix studied as ablation A1.

use crate::driver::{stream_rows, NeighborSink};
use crate::error::AttnError;
use crate::options::KernelOptions;
use crate::state::AttentionState;
use gpa_parallel::{LocalTally, ThreadPool, WorkCounter};
use gpa_sparse::{CooMask, CsrMask};
use gpa_tensor::{Matrix, Real};

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

/// Stream row `i`'s neighbors from a CSR mask — the single enumeration
/// rule shared by the standalone kernel and the batched plan executor.
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

/// CSR attention into an existing state (composable).
pub fn csr_attention_into<T: Real>(
    pool: &ThreadPool,
    mask: &CsrMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    check_mask_shape(mask.rows(), mask.cols(), q.rows(), k.rows())?;
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        |(), i, tile| csr_row(mask, i, tile),
    )
}

/// CSR attention with a fresh state; returns the output matrix.
pub fn csr_attention<T: Real>(
    pool: &ThreadPool,
    mask: &CsrMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    csr_attention_into(pool, mask, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

/// COO attention into an existing state.
///
/// With [`CooSearch::Linear`] the kernel reproduces the paper's per-row
/// prefix scan (instrumented via the options' work counter as
/// `neighbor_searches`).
#[allow(clippy::too_many_arguments)] // the paper's kernel parameterization
pub fn coo_attention_into<T: Real>(
    pool: &ThreadPool,
    mask: &CooMask,
    search: CooSearch,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    check_mask_shape(mask.rows(), mask.cols(), q.rows(), k.rows())?;
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        |(), i, tile| coo_row(mask, search, i, opts.counter, tile),
    )
}

/// COO attention with a fresh state; returns the output matrix.
pub fn coo_attention<T: Real>(
    pool: &ThreadPool,
    mask: &CooMask,
    search: CooSearch,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    coo_attention_into(pool, mask, search, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

/// Explicit masks are rectangular: `rows` must match the query count and
/// `cols` the key/value count (equal for self-attention; different for
/// cross-attention or a distributed row slice).
fn check_mask_shape(rows: usize, cols: usize, l_q: usize, l_kv: usize) -> Result<(), AttnError> {
    if rows != l_q || cols != l_kv {
        return Err(AttnError::MaskShapeMismatch {
            mask: (rows, cols),
            l: l_q,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::sdp::masked_sdp;
    use gpa_masks::{LocalWindow, MaskPattern, RandomUniform};
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn csr_matches_reference_on_random_mask() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 16, 7);
        let pat = RandomUniform::new(l, 0.2, 3);
        let csr = pat.to_csr();
        let out = csr_attention(&pool(), &csr, &q, &k, &v, &KernelOptions::new()).unwrap();
        let reference =
            masked_sdp(&pool(), &pat.to_dense(), &q, &k, &v, &KernelOptions::new()).unwrap();
        assert!(paper_allclose(&out, &reference));
    }

    #[test]
    fn coo_linear_and_binary_agree_with_csr() {
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 11);
        let pat = RandomUniform::new(l, 0.15, 9);
        let coo = pat.to_coo();
        let csr = pat.to_csr();
        let p = pool();
        let via_csr = csr_attention(&p, &csr, &q, &k, &v, &KernelOptions::new()).unwrap();
        let via_lin = coo_attention(
            &p,
            &coo,
            CooSearch::Linear,
            &q,
            &k,
            &v,
            &KernelOptions::new(),
        )
        .unwrap();
        let via_bin = coo_attention(
            &p,
            &coo,
            CooSearch::Binary,
            &q,
            &k,
            &v,
            &KernelOptions::new(),
        )
        .unwrap();
        assert!(paper_allclose(&via_lin, &via_csr));
        assert!(paper_allclose(&via_bin, &via_csr));
    }

    #[test]
    fn kernels_are_work_optimal() {
        let l = 32;
        let (q, k, v) = qkv::<f64>(l, 8, 2);
        let pat = LocalWindow::new(l, 3);
        let p = pool();

        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let _ = csr_attention(&p, &pat.to_csr(), &q, &k, &v, &opts).unwrap();
        assert!(counter.report().is_work_optimal(pat.nnz() as u64));

        counter.reset();
        let _ = coo_attention(&p, &pat.to_coo(), CooSearch::Linear, &q, &k, &v, &opts).unwrap();
        assert!(counter.report().is_work_optimal(pat.nnz() as u64));
        // The linear search scanned a prefix per row: strictly positive for
        // any mask with entries beyond row 0.
        assert!(counter.neighbor_searches() > 0);

        counter.reset();
        let _ = coo_attention(&p, &pat.to_coo(), CooSearch::Binary, &q, &k, &v, &opts).unwrap();
        assert!(counter.report().is_work_optimal(pat.nnz() as u64));
        assert_eq!(counter.neighbor_searches(), 0);
    }

    #[test]
    fn linear_search_cost_is_quadratic_in_rows() {
        // Σ_rows (prefix length) ≈ nnz·L/2 for a uniform mask — the COO
        // pathology from Fig. 3.
        let l = 64;
        let pat = LocalWindow::new(l, 1);
        let coo = pat.to_coo();
        let (q, k, v) = qkv::<f64>(l, 4, 3);
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let _ = coo_attention(&pool(), &coo, CooSearch::Linear, &q, &k, &v, &opts).unwrap();
        let nnz = pat.nnz() as u64;
        assert!(
            counter.neighbor_searches() > nnz * (l as u64) / 4,
            "searches {} should scale with nnz·L (nnz={nnz}, L={l})",
            counter.neighbor_searches()
        );
    }

    #[test]
    fn mask_shape_mismatch_is_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let wrong = LocalWindow::new(9, 1).to_csr();
        let err = csr_attention(&pool(), &wrong, &q, &k, &v, &KernelOptions::new()).unwrap_err();
        assert!(matches!(err, AttnError::MaskShapeMismatch { .. }));
    }

    #[test]
    fn empty_mask_produces_zero_output() {
        let (q, k, v) = qkv::<f64>(6, 4, 1);
        let empty = CsrMask::empty(6, 6);
        let out = csr_attention(&pool(), &empty, &q, &k, &v, &KernelOptions::new()).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }
}
