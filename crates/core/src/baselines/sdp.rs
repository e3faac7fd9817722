//! The masked scaled-dot-product baseline — our stand-in for PyTorch's
//! `scaled_dot_product_attention` with an explicit binary mask.
//!
//! Faithful to how the paper characterizes the state of the art
//! (Section III): it "performs a dense matrix multiplication of Q and K …
//! sets the excess terms corresponding to the zero entries in the attention
//! mask to −∞, performs a row-wise softmax … and finally a \[dense\] matrix
//! multiplication … with the V matrix". The work is `O(L²·d)` in both
//! passes *regardless of the mask's sparsity* — the property that makes its
//! runtime flat across the sparsity sweep in Fig. 3.
//!
//! The implementation is row-parallel and materializes one score row per
//! row in flight (not the full `L×L` matrix), so large-`L` benchmarks fit
//! in host memory. The capacity model (`gpa-memmodel`) still accounts the
//! full `L×L` buffer, as on the GPU.

use super::square_inputs;
use crate::error::AttnError;
use crate::options::KernelOptions;
use gpa_parallel::{parallel_for, LocalTally, RowWriter, ThreadPool};
use gpa_sparse::DenseMask;
use gpa_tensor::ops::{dot, weighted_sum_into};
use gpa_tensor::softmax::softmax_slice;
use gpa_tensor::{Matrix, Real};

/// Masked SDP attention. Computes **all** `L²` scores, masks, softmaxes,
/// then takes **all** `L²` weighted-value products (zero weights included),
/// mirroring the dense baseline's operation count.
pub fn masked_sdp<T: Real>(
    pool: &ThreadPool,
    mask: &DenseMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let (l_ctx, dv, scale) = square_inputs(q, k, v, opts)?;
    if mask.rows() != l_ctx || mask.cols() != l_ctx {
        return Err(AttnError::MaskShapeMismatch {
            mask: (mask.rows(), mask.cols()),
            l: l_ctx,
        });
    }
    let mut out = Matrix::zeros(l_ctx, dv);
    let writer = RowWriter::new(out.as_mut_slice(), l_ctx, dv);

    parallel_for(pool, l_ctx, opts.schedule, |range| {
        let mut tally = opts.counter.map(LocalTally::new);
        // Workhorse buffers reused across the chunk's rows.
        let mut scores = vec![T::ZERO; l_ctx];
        let mut weights = vec![T::ZERO; l_ctx];
        for i in range {
            let q_row = q.row(i);
            // Pass 1: dense QKᵀ row + mask to −∞.
            for (j, s) in scores.iter_mut().enumerate() {
                let w = dot(q_row, k.row(j)) * scale;
                *s = if mask.get(i, j) { w } else { T::neg_infinity() };
                if let Some(t) = tally.as_mut() {
                    t.dot();
                }
            }
            // Row softmax (fully masked rows produce zeros).
            softmax_slice(&scores, &mut weights);
            // Pass 2: dense weighted sum over all L value rows, blocked
            // four value rows per output sweep (dense semantics: zero
            // weights still multiply, so the op count stays L per row).
            // SAFETY: each row dispatched to exactly one block.
            let o_row = unsafe { writer.row_mut(i) };
            o_row.fill(T::ZERO);
            weighted_sum_into(o_row, &weights, v);
            if let Some(t) = tally.as_mut() {
                t.updated(weights.len() as u64);
            }
        }
    });
    Ok(out)
}

/// Masked SDP where fully dense work is *skipped* for masked entries —
/// not a paper baseline, but the "ideal sparse SDP" used in tests to
/// confirm both formulations agree numerically.
pub fn masked_sdp_skipping<T: Real>(
    pool: &ThreadPool,
    mask: &DenseMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let (l_ctx, dv, scale) = square_inputs(q, k, v, opts)?;
    if mask.rows() != l_ctx || mask.cols() != l_ctx {
        return Err(AttnError::MaskShapeMismatch {
            mask: (mask.rows(), mask.cols()),
            l: l_ctx,
        });
    }
    let mut out = Matrix::zeros(l_ctx, dv);
    let writer = RowWriter::new(out.as_mut_slice(), l_ctx, dv);

    parallel_for(pool, l_ctx, opts.schedule, |range| {
        let mut scores = vec![T::ZERO; l_ctx];
        let mut weights = vec![T::ZERO; l_ctx];
        for i in range {
            let q_row = q.row(i);
            for (j, s) in scores.iter_mut().enumerate() {
                *s = if mask.get(i, j) {
                    dot(q_row, k.row(j)) * scale
                } else {
                    T::neg_infinity()
                };
            }
            softmax_slice(&scores, &mut weights);
            // SAFETY: disjoint row dispatch.
            let o_row = unsafe { writer.row_mut(i) };
            o_row.fill(T::ZERO);
            for (j, &w) in weights.iter().enumerate() {
                if w != T::ZERO {
                    for (o, &vv) in o_row.iter_mut().zip(v.row(j).iter()) {
                        *o += w * vv;
                    }
                }
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_masks::{LocalWindow, MaskPattern, RandomUniform};
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_tensor::init::qkv;
    use gpa_tensor::{allclose, paper_allclose};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn dense_mask_equals_unmasked_softmax_attention() {
        // With an all-ones mask, SDP is plain attention; cross-check one row
        // by hand.
        let l = 12;
        let (q, k, v) = qkv::<f64>(l, 4, 3);
        let mask = DenseMask::ones(l, l);
        let out = masked_sdp(&pool(), &mask, &q, &k, &v, &KernelOptions::new()).unwrap();

        let scale = 0.5; // 1/√4
        let i = 5;
        let scores: Vec<f64> = (0..l).map(|j| dot(q.row(i), k.row(j)) * scale).collect();
        let mut w = vec![0.0; l];
        softmax_slice(&scores, &mut w);
        for c in 0..4 {
            let expect: f64 = (0..l).map(|j| w[j] * v.get(j, c)).sum();
            assert!((out.get(i, c) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_and_skipping_agree() {
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 5);
        let mask = RandomUniform::new(l, 0.3, 2).to_dense();
        let p = pool();
        let a = masked_sdp(&p, &mask, &q, &k, &v, &KernelOptions::new()).unwrap();
        let b = masked_sdp_skipping(&p, &mask, &q, &k, &v, &KernelOptions::new()).unwrap();
        assert!(paper_allclose(&a, &b));
    }

    #[test]
    fn fully_masked_rows_are_zero() {
        let l = 10;
        let (q, k, v) = qkv::<f64>(l, 4, 7);
        let mut mask = DenseMask::zeros(l, l);
        // Leave row 3 fully masked; give others a diagonal.
        for i in 0..l {
            if i != 3 {
                mask.set(i, i, true);
            }
        }
        let out = masked_sdp(&pool(), &mask, &q, &k, &v, &KernelOptions::new()).unwrap();
        assert!(out.row(3).iter().all(|&x| x == 0.0));
        // Unmasked diagonal rows equal V's row exactly (softmax of one).
        for i in 0..l {
            if i != 3 {
                assert!(allclose(
                    &Matrix::from_vec(1, 4, out.row(i).to_vec()),
                    &Matrix::from_vec(1, 4, v.row(i).to_vec()),
                    1e-12,
                    1e-12,
                    false
                ));
            }
        }
    }

    #[test]
    fn sdp_work_is_dense_regardless_of_sparsity() {
        // The defining property: dot products = L² even for a nearly empty
        // mask (this is what makes SDP flat in Fig. 3).
        let l = 24;
        let (q, k, v) = qkv::<f64>(l, 4, 8);
        let mask = LocalWindow::new(l, 0).to_dense(); // diagonal only
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let _ = masked_sdp(&pool(), &mask, &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), (l * l) as u64);
        assert_eq!(counter.output_updates(), (l * l) as u64);
    }

    #[test]
    fn mask_shape_mismatch_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let mask = DenseMask::ones(9, 9);
        assert!(matches!(
            masked_sdp(&pool(), &mask, &q, &k, &v, &KernelOptions::new()),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }
}
