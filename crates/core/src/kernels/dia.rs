//! DIA (diagonal-format) kernel — the "sophisticated sparse representation
//! for specific attention mask patterns" extension of Section VI-A.
//!
//! For banded masks, the explicit mask shrinks from `O(Sf·L²)` (CSR/COO) to
//! `O(#diagonals)` while remaining a *data structure* rather than a
//! hard-coded pattern: the kernel reaches the same context lengths as the
//! implicit local/dilated kernels (Table II) but accepts arbitrary diagonal
//! sets, e.g. unions of several windows or asymmetric lookback bands.

use crate::driver::{stream_rows, NeighborSink};
use crate::error::AttnError;
use crate::geometry::Geometry;
use crate::options::KernelOptions;
use crate::state::AttentionState;
use gpa_parallel::ThreadPool;
use gpa_sparse::DiaMask;
use gpa_tensor::{Matrix, Real};

/// Stream row `i`'s diagonal-band neighbors — the single enumeration rule
/// shared by the standalone kernel and the batched plan executor.
#[inline]
pub(crate) fn dia_row(mask: &DiaMask, i: usize, sink: &mut impl NeighborSink) {
    let l = mask.context_len() as i64;
    let i = i as i64;
    for &d in mask.offsets() {
        let j = i + d;
        if j >= 0 && j < l {
            sink.push(j as usize);
        }
    }
}

/// DIA attention over any query window: the mask's context length pins
/// `kv_rows`, and output row `i` is absolute row `geometry.q_offset + i`
/// of the banded square problem. A band of non-positive offsets is the
/// causal-decode showcase — its rows never look forward, so KV-cached
/// decode reproduces the full square forward bitwise.
#[allow(clippy::too_many_arguments)] // geometry + the paper's parameterization
pub fn dia_attention_windowed_into<T: Real>(
    pool: &ThreadPool,
    mask: &DiaMask,
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    if q.rows() != geometry.q_rows || k.rows() != geometry.kv_rows {
        return Err(AttnError::ContextLengthMismatch {
            q: q.rows(),
            k: k.rows(),
            v: v.rows(),
        });
    }
    if mask.context_len() != geometry.kv_rows {
        return Err(AttnError::MaskShapeMismatch {
            mask: (mask.context_len(), mask.context_len()),
            l: geometry.kv_rows,
        });
    }
    geometry.check_window()?;
    let off = geometry.q_offset;
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        move |(), i, tile| dia_row(mask, off + i, tile),
    )
}

/// DIA attention into an existing state (composable) — square-geometry
/// wrapper over [`dia_attention_windowed_into`].
pub fn dia_attention_into<T: Real>(
    pool: &ThreadPool,
    mask: &DiaMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    dia_attention_windowed_into(pool, mask, Geometry::square(q.rows()), q, k, v, opts, state)
}

/// DIA attention with a fresh state; returns the output matrix.
pub fn dia_attention<T: Real>(
    pool: &ThreadPool,
    mask: &DiaMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    dia_attention_into(pool, mask, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::explicit::csr_attention;
    use crate::kernels::implicit::{dilated1d_attention, local_attention};
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn dia_matches_local_kernel() {
        let l = 60;
        let (q, k, v) = qkv::<f64>(l, 8, 41);
        let p = pool();
        for n in [0usize, 2, 7, 100] {
            let dia = DiaMask::local(l, n);
            let a = dia_attention(&p, &dia, &q, &k, &v, &KernelOptions::new()).unwrap();
            let b = local_attention(&p, n, &q, &k, &v, &KernelOptions::new()).unwrap();
            assert!(paper_allclose(&a, &b), "n={n}");
        }
    }

    #[test]
    fn dia_matches_dilated_kernel() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 8, 42);
        let p = pool();
        for (w, r) in [(1usize, 0usize), (7, 1), (13, 3)] {
            let dia = DiaMask::dilated1d(l, w, r);
            let a = dia_attention(&p, &dia, &q, &k, &v, &KernelOptions::new()).unwrap();
            let b = dilated1d_attention(&p, w, r, &q, &k, &v, &KernelOptions::new()).unwrap();
            assert!(paper_allclose(&a, &b), "w={w} r={r}");
        }
    }

    #[test]
    fn arbitrary_band_matches_csr() {
        // An asymmetric multi-band mask no implicit kernel covers.
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 43);
        let p = pool();
        let dia = DiaMask::new(l, vec![-20, -3, -1, 0, 2, 5, 30]).unwrap();
        let a = dia_attention(&p, &dia, &q, &k, &v, &KernelOptions::new()).unwrap();
        let b = csr_attention(&p, &dia.to_csr(), &q, &k, &v, &KernelOptions::new()).unwrap();
        assert!(paper_allclose(&a, &b));
    }

    #[test]
    fn dia_is_work_optimal() {
        let l = 36;
        let (q, k, v) = qkv::<f64>(l, 8, 44);
        let dia = DiaMask::new(l, vec![-5, 0, 1, 9]).unwrap();
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let _ = dia_attention(&pool(), &dia, &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), dia.nnz() as u64);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let dia = DiaMask::local(9, 1);
        assert!(matches!(
            dia_attention(&pool(), &dia, &q, &k, &v, &KernelOptions::new()),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }
}
