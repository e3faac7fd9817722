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
use crate::error::AttnError;
use crate::options::KernelOptions;
use gpa_parallel::{parallel_for, LocalTally, RowWriter, ThreadPool};
use gpa_tensor::ops::dot;
use gpa_tensor::{Matrix, Real};

/// Default K/V tile width (rows of K/V per inner block). 64 keeps a tile of
/// K, V in L1/L2 for the d range the paper sweeps (64–256); ablation A3
/// sweeps this.
pub const DEFAULT_TILE: usize = 64;

/// Dense FlashAttention-style forward pass with K/V tiling.
pub fn flash_attention<T: Real>(
    pool: &ThreadPool,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    flash_attention_tiled(pool, q, k, v, DEFAULT_TILE, opts)
}

/// Dense FlashAttention-style forward pass with an explicit tile size.
pub fn flash_attention_tiled<T: Real>(
    pool: &ThreadPool,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    tile: usize,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    if tile == 0 {
        return Err(AttnError::BadParameter {
            what: "tile size must be positive",
        });
    }
    let (l_ctx, dv, scale) = square_inputs(q, k, v, opts)?;
    let mut out = Matrix::zeros(l_ctx, dv);
    let writer = RowWriter::new(out.as_mut_slice(), l_ctx, dv);

    parallel_for(pool, l_ctx, opts.schedule, |range| {
        let mut tally = opts.counter.map(LocalTally::new);
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
                    if let Some(t) = tally.as_mut() {
                        t.update();
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
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_sparse::DenseMask;
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn flash_equals_dense_sdp_with_full_mask() {
        let l = 100;
        let (q, k, v) = qkv::<f64>(l, 16, 31);
        let p = pool();
        let flash = flash_attention(&p, &q, &k, &v, &KernelOptions::new()).unwrap();
        let sdp = masked_sdp(
            &p,
            &DenseMask::ones(l, l),
            &q,
            &k,
            &v,
            &KernelOptions::new(),
        )
        .unwrap();
        assert!(paper_allclose(&flash, &sdp));
    }

    #[test]
    fn tile_size_does_not_change_results() {
        let l = 70;
        let (q, k, v) = qkv::<f64>(l, 8, 32);
        let p = pool();
        let base = flash_attention_tiled(&p, &q, &k, &v, 64, &KernelOptions::new()).unwrap();
        for tile in [1usize, 3, 16, 70, 128] {
            let t = flash_attention_tiled(&p, &q, &k, &v, tile, &KernelOptions::new()).unwrap();
            assert!(paper_allclose(&t, &base), "tile={tile}");
        }
    }

    #[test]
    fn flash_work_is_always_dense() {
        let l = 32;
        let (q, k, v) = qkv::<f64>(l, 4, 33);
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let _ = flash_attention(&pool(), &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), (l * l) as u64);
    }

    #[test]
    fn zero_tile_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        assert!(matches!(
            flash_attention_tiled(&pool(), &q, &k, &v, 0, &KernelOptions::new()),
            Err(AttnError::BadParameter { .. })
        ));
    }

    #[test]
    fn f32_flash_is_accurate() {
        let l = 128;
        let (q, k, v) = qkv::<f64>(l, 32, 34);
        let p = pool();
        let hi = flash_attention(&p, &q, &k, &v, &KernelOptions::new()).unwrap();
        let lo = flash_attention(
            &p,
            &q.cast::<f32>(),
            &k.cast::<f32>(),
            &v.cast::<f32>(),
            &KernelOptions::new(),
        )
        .unwrap();
        assert!(hi.max_abs_diff(&lo.cast::<f64>()) < 1e-5);
    }
}
