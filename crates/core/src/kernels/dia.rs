//! DIA (diagonal-format) row rule — the "sophisticated sparse representation
//! for specific attention mask patterns" extension of Section VI-A.
//!
//! For banded masks, the explicit mask shrinks from `O(Sf·L²)` (CSR/COO) to
//! `O(#diagonals)` while remaining a *data structure* rather than a
//! hard-coded pattern: the kernel reaches the same context lengths as the
//! implicit local/dilated kernels (Table II) but accepts arbitrary diagonal
//! sets, e.g. unions of several windows or asymmetric lookback bands.

use crate::driver::NeighborSink;
use gpa_sparse::DiaMask;

/// Stream row `i`'s diagonal-band neighbors, one per stored offset that
/// lands inside the square.
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

#[cfg(test)]
mod tests {
    use crate::kernels::testing::{assert_kernel_computes_mask, counting_engine};
    use crate::{AttentionEngine, AttentionKernel, AttnError};
    use gpa_masks::{Dilated1d, LocalWindow, MaskPattern};
    use gpa_sparse::DiaMask;
    use gpa_tensor::init::qkv;

    #[test]
    fn dia_matches_local_kernel() {
        for n in [0usize, 2, 7, 100] {
            let dia = DiaMask::local(60, n);
            let mask = LocalWindow::new(60, n).to_csr();
            assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &mask, 8, &format!("n={n}"));
        }
    }

    #[test]
    fn dia_matches_dilated_kernel() {
        for (w, r) in [(1usize, 0usize), (7, 1), (13, 3)] {
            let dia = DiaMask::dilated1d(48, w, r);
            let mask = Dilated1d::new(48, w, r).to_csr();
            let what = format!("w={w} r={r}");
            assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &mask, 8, &what);
        }
    }

    #[test]
    fn arbitrary_band_matches_csr() {
        // An asymmetric multi-band mask no implicit kernel covers.
        let dia = DiaMask::new(40, vec![-20, -3, -1, 0, 2, 5, 30]).unwrap();
        assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &dia.to_csr(), 8, "band");
    }

    #[test]
    fn dia_is_work_optimal() {
        let l = 36;
        let (q, k, v) = qkv::<f64>(l, 8, 44);
        let dia = DiaMask::new(l, vec![-5, 0, 1, 9]).unwrap();
        let engine = counting_engine();
        let _ = engine
            .run_kernel(AttentionKernel::Dia(&dia), &q, &k, &v)
            .unwrap();
        assert_eq!(engine.work_report().unwrap().dot_products, dia.nnz() as u64);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let dia = DiaMask::local(9, 1);
        assert!(matches!(
            AttentionEngine::with_threads(4).run_kernel(AttentionKernel::Dia(&dia), &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }
}
