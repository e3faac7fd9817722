//! FlashAttention-style dense baseline (Dao et al. 2022).
//!
//! The paper benchmarks against FlashAttention as "the most efficient
//! attention implementation" (Section III): *dense* `O(L²·d)` work, but only
//! `O(L)` extra memory because scores are never materialized — each query
//! row streams over K/V tiles maintaining online-softmax statistics, with
//! normalization deferred to the end of the row (the FlashAttention-2
//! refinement).
//!
//! Two properties carry the paper's comparisons and both hold here:
//! work is independent of any mask (it is unmasked, dense attention), and
//! memory beyond Q/K/V/O is two `O(L)` statistics vectors — which is why
//! its max context length in Table II matches the implicit-mask kernels.

use super::square_inputs;
use crate::engine::AttentionEngine;
use crate::error::AttnError;
use gpa_parallel::{parallel_for, LocalTally, RowWriter, Schedule};
use gpa_tensor::ops::dot;
use gpa_tensor::{Matrix, Real};

/// Default K/V tile width (rows of K/V per inner block). 64 keeps a tile of
/// K, V in L1/L2 for the d range the paper sweeps (64–256).
pub(crate) const DEFAULT_TILE: usize = 64;

/// Dense FlashAttention-style forward pass with K/V tiling, on the
/// engine's pool and tallied into the engine's counter.
pub fn flash_attention<T: Real>(
    engine: &AttentionEngine,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
) -> Result<Matrix<T>, AttnError> {
    flash_attention_tiled(engine, q, k, v, DEFAULT_TILE)
}

/// Dense FlashAttention-style forward pass with an explicit tile size.
///
/// # Numerics
///
/// Case by case against the numerics contract of the graph kernels' row
/// tile:
///
/// - **No row is without edges**: the pass is unmasked, so every row
///   attends every key. A row whose every score is `−∞` is the `−∞` case
///   below.
/// - **Large finite scores** of either sign are safe, as in the graph
///   kernels: each tile rescales to the running maximum, whose own weight
///   is exactly 1.
/// - **A `−∞` score** weighs exactly zero once the row has met a finite
///   score by the end of the tile that holds it. Unlike the graph kernels,
///   a tile whose scores are all `−∞`, after tiles that were all `−∞` too,
///   makes the row `NaN`: its update evaluates `−∞ − (−∞)`. With
///   the default 64-key tile, that takes `−∞` scores against the first 64 keys.
/// - **A `NaN` or `+∞` score planted in one `Q` row** makes that row `NaN`
///   and touches no other, as in the graph kernels.
pub fn flash_attention_tiled<T: Real>(
    engine: &AttentionEngine,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    tile: usize,
) -> Result<Matrix<T>, AttnError> {
    if tile == 0 {
        return Err(AttnError::BadParameter {
            what: "tile size must be positive",
        });
    }
    let (l_ctx, dv, scale) = square_inputs(q, k, v)?;
    let mut out = Matrix::zeros(l_ctx, dv);
    let writer = RowWriter::new(out.as_mut_slice(), l_ctx, dv);

    let counter = engine.work_counter();
    parallel_for(engine.pool(), l_ctx, Schedule::default(), |range| {
        let mut tally = counter.map(LocalTally::new);
        // Per-tile score buffer, reused across rows.
        let mut scores = vec![T::ZERO; tile];
        for i in range {
            let q_row = q.row(i);
            // SAFETY: disjoint row dispatch per parallel_for's contract.
            let o_row = unsafe { writer.row_mut(i) };
            o_row.fill(T::ZERO);

            // Unnormalized accumulator with deferred division
            // (FlashAttention-2 style): o_acc tracks Σ exp(w−m)·V.
            let mut m = T::neg_infinity();
            let mut l_sum = T::ZERO;

            let mut t0 = 0usize;
            while t0 < l_ctx {
                let t1 = (t0 + tile).min(l_ctx);
                let tl = t1 - t0;
                // Tile pass 1: scores and tile max.
                let mut tile_max = T::neg_infinity();
                for (s, j) in scores[..tl].iter_mut().zip(t0..t1) {
                    let w = dot(q_row, k.row(j)) * scale;
                    *s = w;
                    tile_max = tile_max.max(w);
                    if let Some(t) = tally.as_mut() {
                        t.dot();
                    }
                }
                // Rescale running state once per tile.
                let m_new = m.max(tile_max);
                let alpha = if m == T::neg_infinity() {
                    T::ZERO
                } else {
                    (m - m_new).exp()
                };
                if alpha != T::ONE {
                    for o in o_row.iter_mut() {
                        *o *= alpha;
                    }
                    l_sum *= alpha;
                }
                // Tile pass 2: accumulate exp-weighted values.
                for (s, j) in scores[..tl].iter().zip(t0..t1) {
                    let p = (*s - m_new).exp();
                    l_sum += p;
                    for (o, &vv) in o_row.iter_mut().zip(v.row(j).iter()) {
                        *o += p * vv;
                    }
                }
                m = m_new;
                t0 = t1;
            }
            // Deferred normalization.
            if l_sum != T::ZERO {
                let inv = l_sum.recip();
                for o in o_row.iter_mut() {
                    *o *= inv;
                }
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::sdp::masked_sdp;
    use gpa_sparse::DenseMask;
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn flash_equals_dense_sdp_with_full_mask() {
        let l = 100;
        let (q, k, v) = qkv::<f64>(l, 16, 31);
        let e = engine();
        let flash = flash_attention(&e, &q, &k, &v).unwrap();
        let sdp = masked_sdp(&e, &DenseMask::ones(l, l), &q, &k, &v).unwrap();
        assert!(paper_allclose(&flash, &sdp));
    }

    #[test]
    fn tile_size_does_not_change_results() {
        let l = 70;
        let (q, k, v) = qkv::<f64>(l, 8, 32);
        let e = engine();
        let base = flash_attention_tiled(&e, &q, &k, &v, 64).unwrap();
        for tile in [1usize, 3, 16, 70, 128] {
            let t = flash_attention_tiled(&e, &q, &k, &v, tile).unwrap();
            assert!(paper_allclose(&t, &base), "tile={tile}");
        }
    }

    #[test]
    fn flash_work_is_always_dense() {
        let l = 32;
        let (q, k, v) = qkv::<f64>(l, 4, 33);
        let engine = AttentionEngine::builder()
            .threads(4)
            .count_work(true)
            .build();
        let _ = flash_attention(&engine, &q, &k, &v).unwrap();
        assert_eq!(engine.work_report().unwrap().dot_products, (l * l) as u64);
    }

    #[test]
    fn zero_tile_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        assert!(matches!(
            flash_attention_tiled(&engine(), &q, &k, &v, 0),
            Err(AttnError::BadParameter { .. })
        ));
    }

    #[test]
    fn scores_of_1e4_neither_overflow_nor_flush_the_row() {
        // q·k = ±1e4 at dk = 1, where Eq. (1)'s scale is exactly 1, in both
        // widths and at every tile size: the two +1e4 keys share the weight
        // and the −1e4 key gets none.
        fn check<T: Real>() {
            let q = Matrix::from_vec(3, 1, vec![T::from_f64(100.0); 3]);
            // (key, value row) pairs, the −1e4 key in the middle and first.
            let (hi, lo, hi2) = (
                (100.0, [1.0, 2.0]),
                (-100.0, [50.0, 60.0]),
                (100.0, [3.0, 6.0]),
            );
            for pairs in [[hi, lo, hi2], [lo, hi, hi2]] {
                let k = Matrix::from_vec(3, 1, pairs.map(|(k, _)| T::from_f64(k)).to_vec());
                let v = Matrix::from_vec(
                    3,
                    2,
                    pairs.iter().flat_map(|(_, v)| v.map(T::from_f64)).collect(),
                );
                for tile in [1usize, 2, 3] {
                    let out = flash_attention_tiled(&engine(), &q, &k, &v, tile).unwrap();
                    for i in 0..3 {
                        let row = (out.get(i, 0).to_f64(), out.get(i, 1).to_f64());
                        assert_eq!(row, (2.0, 4.0), "tile {tile}");
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn a_minus_infinity_score_weighs_zero_unless_it_leads_a_tile_alone() {
        let q = Matrix::from_vec(3, 1, vec![1.0f64; 3]);
        let v = Matrix::from_vec(3, 1, vec![7.0f64, 1.0, 3.0]);
        let (a, b) = (0.5f64.exp(), 0.25f64.exp());
        let expect = (a * 1.0 + b * 3.0) / (a + b);
        // Key 0 scores −∞: harmless once a finite score shares its tile...
        let lead = Matrix::from_vec(3, 1, vec![f64::NEG_INFINITY, 0.5, 0.25]);
        for tile in [2usize, 3, 64] {
            let out = flash_attention_tiled(&engine(), &q, &lead, &v, tile).unwrap();
            assert!(out.as_slice().iter().all(|x| (x - expect).abs() < 1e-12));
        }
        // ...or came before it...
        let last = Matrix::from_vec(3, 1, vec![0.5, 0.25, f64::NEG_INFINITY]);
        let v_last = Matrix::from_vec(3, 1, vec![1.0f64, 3.0, 7.0]);
        let out = flash_attention_tiled(&engine(), &q, &last, &v_last, 1).unwrap();
        assert!(out.as_slice().iter().all(|x| (x - expect).abs() < 1e-12));
        // ...but alone in the row's first tile it is −∞ − (−∞) = NaN.
        let out = flash_attention_tiled(&engine(), &q, &lead, &v, 1).unwrap();
        assert!(out.as_slice().iter().all(|x| x.is_nan()));
    }

    #[test]
    fn a_non_finite_q_row_poisons_its_own_row_only() {
        let l = 8;
        let (q, k, v) = qkv::<f64>(l, 4, 35);
        let clean = flash_attention_tiled(&engine(), &q, &k, &v, 3).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut q_bad = q.clone();
            q_bad.row_mut(5).fill(bad);
            let out = flash_attention_tiled(&engine(), &q_bad, &k, &v, 3).unwrap();
            for i in 0..l {
                if i == 5 {
                    assert!(out.row(i).iter().all(|x| x.is_nan()), "{bad}");
                } else {
                    assert_eq!(out.row(i), clean.row(i), "row {i} ({bad})");
                }
            }
        }
    }

    #[test]
    fn f32_flash_is_accurate() {
        let l = 128;
        let (q, k, v) = qkv::<f64>(l, 32, 34);
        let e = engine();
        let hi = flash_attention(&e, &q, &k, &v).unwrap();
        let lo = flash_attention(&e, &q.cast::<f32>(), &k.cast::<f32>(), &v.cast::<f32>()).unwrap();
        assert!(hi.max_abs_diff(&lo.cast::<f64>()) < 1e-5);
    }
}
