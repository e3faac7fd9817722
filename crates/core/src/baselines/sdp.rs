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
use crate::engine::AttentionEngine;
use crate::error::AttnError;
use gpa_parallel::{parallel_for, LocalTally, RowWriter, Schedule};
use gpa_sparse::DenseMask;
use gpa_tensor::ops::{dot, weighted_sum_into};
use gpa_tensor::softmax::softmax_slice;
use gpa_tensor::{Matrix, Real};

/// Masked SDP attention. Computes **all** `L²` scores, masks, softmaxes,
/// then takes **all** `L²` weighted-value products (zero weights included),
/// mirroring the dense baseline's operation count. It launches on the
/// engine's pool and tallies into the engine's counter.
///
/// # Numerics
///
/// Case by case against the numerics contract of the graph kernels' row
/// tile:
///
/// - **A row with no unmasked entry** comes out `0.0`, as a graph kernel's
///   row with no edges does: its softmax weights are all zero and no `0/0`
///   is evaluated. Those zeros still multiply every row of `V` (dense
///   semantics), so a `NaN` or `±∞` anywhere in `V` reaches every output
///   row, this one included; a graph kernel reads only its neighbors'
///   values.
/// - **Large finite scores** of either sign are safe, as in the graph
///   kernels: the softmax subtracts the row maximum, whose own weight is
///   exactly 1.
/// - **A `−∞` score** is a masked entry wherever it falls: it weighs
///   exactly zero, and a row whose every score is `−∞` is a row with no
///   unmasked entry.
/// - **A `NaN` or `+∞` score planted in one `Q` row** touches that row
///   only. A `+∞` score makes the row `NaN`, as in the graph kernels. A
///   `NaN` does not: the row maximum skips `NaN`, so a row whose every
///   unmasked score is `NaN` reads as fully masked and comes out `0.0`,
///   where a graph kernel's row would be `NaN`.
pub fn masked_sdp<T: Real>(
    engine: &AttentionEngine,
    mask: &DenseMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
) -> Result<Matrix<T>, AttnError> {
    let (l_ctx, dv, scale) = square_inputs(q, k, v)?;
    if mask.rows() != l_ctx || mask.cols() != l_ctx {
        return Err(AttnError::MaskShapeMismatch {
            mask: (mask.rows(), mask.cols()),
            l: l_ctx,
        });
    }
    let mut out = Matrix::zeros(l_ctx, dv);
    let writer = RowWriter::new(out.as_mut_slice(), l_ctx, dv);

    let counter = engine.work_counter();
    parallel_for(engine.pool(), l_ctx, Schedule::default(), |range| {
        let mut tally = counter.map(LocalTally::new);
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
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_masks::{LocalWindow, MaskPattern};
    use gpa_tensor::allclose;
    use gpa_tensor::init::qkv;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn dense_mask_equals_unmasked_softmax_attention() {
        // With an all-ones mask, SDP is plain attention; cross-check one row
        // by hand.
        let l = 12;
        let (q, k, v) = qkv::<f64>(l, 4, 3);
        let mask = DenseMask::ones(l, l);
        let out = masked_sdp(&engine(), &mask, &q, &k, &v).unwrap();

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
        let out = masked_sdp(&engine(), &mask, &q, &k, &v).unwrap();
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
    fn a_non_finite_value_reaches_every_row() {
        // Diagonal mask: row i weighs only V_i, yet `0 · NaN` is `NaN`.
        let l = 6;
        let (q, k, mut v) = qkv::<f64>(l, 4, 9);
        v.row_mut(2).fill(f64::NAN);
        let mask = LocalWindow::new(l, 0).to_dense();
        let out = masked_sdp(&engine(), &mask, &q, &k, &v).unwrap();
        for i in 0..l {
            assert!(out.row(i).iter().all(|x| x.is_nan()), "row {i}");
        }
    }

    #[test]
    fn scores_of_1e4_neither_overflow_nor_flush_the_row() {
        // q·k = ±1e4 at dk = 1, where Eq. (1)'s scale is exactly 1, in both
        // widths: the two +1e4 keys share the weight and the −1e4 key gets
        // none.
        fn check<T: Real>() {
            let q = Matrix::from_vec(3, 1, vec![T::from_f64(100.0); 3]);
            let k = Matrix::from_vec(3, 1, [100.0, -100.0, 100.0].map(T::from_f64).to_vec());
            let v = Matrix::from_vec(
                3,
                2,
                [1.0, 2.0, 50.0, 60.0, 3.0, 6.0].map(T::from_f64).to_vec(),
            );
            let out = masked_sdp(&engine(), &DenseMask::ones(3, 3), &q, &k, &v).unwrap();
            for i in 0..3 {
                assert_eq!((out.get(i, 0).to_f64(), out.get(i, 1).to_f64()), (2.0, 4.0));
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn a_minus_infinity_score_is_a_masked_entry() {
        let q = Matrix::from_vec(3, 1, vec![1.0f64; 3]);
        let k = Matrix::from_vec(3, 1, vec![f64::NEG_INFINITY, 0.5, 0.25]);
        let v = Matrix::from_vec(3, 1, vec![7.0f64, 1.0, 3.0]);
        let scored = masked_sdp(&engine(), &DenseMask::ones(3, 3), &q, &k, &v).unwrap();
        let mut mask = DenseMask::ones(3, 3);
        for i in 0..3 {
            mask.set(i, 0, false);
        }
        let masked = masked_sdp(&engine(), &mask, &q, &k, &v).unwrap();
        assert_eq!(scored, masked);
        // Every score −∞: a fully masked row.
        let k = Matrix::from_vec(3, 1, vec![f64::NEG_INFINITY; 3]);
        let out = masked_sdp(&engine(), &DenseMask::ones(3, 3), &q, &k, &v).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn a_non_finite_q_row_touches_its_own_row_only() {
        let l = 8;
        let (q, k, v) = qkv::<f64>(l, 4, 10);
        let mask = LocalWindow::new(l, 2).to_dense();
        let clean = masked_sdp(&engine(), &mask, &q, &k, &v).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut q_bad = q.clone();
            q_bad.row_mut(5).fill(bad);
            let out = masked_sdp(&engine(), &mask, &q_bad, &k, &v).unwrap();
            for i in (0..l).filter(|&i| i != 5) {
                assert_eq!(out.row(i), clean.row(i), "row {i} ({bad})");
            }
            if bad.is_nan() {
                // Every unmasked score is NaN: the row reads as fully masked.
                assert!(out.row(5).iter().all(|&x| x == 0.0));
            } else {
                assert!(out.row(5).iter().all(|x| x.is_nan()));
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
        let engine = AttentionEngine::builder()
            .threads(4)
            .count_work(true)
            .build();
        let _ = masked_sdp(&engine, &mask, &q, &k, &v).unwrap();
        assert_eq!(engine.work_report().unwrap().dot_products, (l * l) as u64);
    }

    #[test]
    fn mask_shape_mismatch_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let mask = DenseMask::ones(9, 9);
        assert!(matches!(
            masked_sdp(&engine(), &mask, &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }
}
