//! Implicit-mask ("ordered sparsity") kernels: local, 1-D dilated, 2-D
//! dilated, and global (Section IV-B).
//!
//! No mask is materialized anywhere: neighbor indices are "calculated
//! relative to the index token of a row" by closed-form arithmetic, which
//! is what lets these kernels reach FlashAttention-class context lengths
//! (Table II — only `O(L)` statistics beyond Q/K/V/O).
//!
//! Every row rule takes the **absolute** query index within a logical
//! `kv_rows × kv_rows` square, so the kernels run on any
//! [`Geometry`] window of a longer sequence — a prefill chunk, a single
//! KV-cached decode row, or the classic full square. The `*_into`
//! functions below are thin [`Geometry::square`] wrappers over the
//! `*_windowed_into` general forms.

use crate::driver::{stream_rows, NeighborSink};
use crate::error::AttnError;
use crate::geometry::Geometry;
use crate::options::KernelOptions;
use crate::state::AttentionState;
use gpa_masks::{Dilated1d, GlobalSet, LocalWindow};
use gpa_parallel::ThreadPool;
use gpa_tensor::{Matrix, Real};

/// Validate a windowed launch: `Q` carries the window's rows, `K`/`V` the
/// key/value set, and the window must lie inside the logical square.
/// (`K.rows == V.rows`, `dk`, and the state shape are checked by the
/// driver.)
fn check_window<T: Real>(
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
) -> Result<(), AttnError> {
    if q.rows() != geometry.q_rows || k.rows() != geometry.kv_rows {
        return Err(AttnError::ContextLengthMismatch {
            q: q.rows(),
            k: k.rows(),
            v: v.rows(),
        });
    }
    geometry.check_window()
}

/// Stream row `i`'s local-window neighbors — the single enumeration rule
/// shared by the standalone kernel and the batched plan executor.
#[inline]
pub(crate) fn local_row(l: usize, n: usize, i: usize, sink: &mut impl NeighborSink) {
    let (lo, hi) = LocalWindow::row_range(l, n, i);
    for j in lo..=hi {
        sink.push(j);
    }
}

/// Stream row `i`'s 1-D dilated neighbors.
#[inline]
pub(crate) fn dilated1d_row(l: usize, w: usize, r: usize, i: usize, sink: &mut impl NeighborSink) {
    let stride = r + 1;
    let steps = Dilated1d::steps(w, r);
    // Backward arm, nearest-last for cache reuse of low j… the order is
    // irrelevant to the math (online softmax); walk ascending.
    let back = steps.min(i / stride);
    for s in (1..=back).rev() {
        sink.push(i - s * stride);
    }
    sink.push(i);
    let fwd = steps.min((l - 1 - i) / stride);
    for s in 1..=fwd {
        sink.push(i + s * stride);
    }
}

/// Stream row `i`'s 2-D dilated (diagonal block) neighbors.
#[inline]
pub(crate) fn dilated2d_row(
    l: usize,
    block_size: usize,
    r: usize,
    i: usize,
    sink: &mut impl NeighborSink,
) {
    let stride = r + 1;
    if (i % block_size) % stride != 0 {
        return; // unselected row attends to nothing
    }
    let start = (i / block_size) * block_size;
    let end = (start + block_size).min(l);
    let mut j = start;
    while j < end {
        sink.push(j);
        j += stride;
    }
}

/// Stream row `i`'s global-minus-local neighbors.
#[inline]
pub(crate) fn global_row(
    l: usize,
    globals: &GlobalSet,
    n_sub: usize,
    i: usize,
    sink: &mut impl NeighborSink,
) {
    let (lo, hi) = LocalWindow::row_range(l, n_sub, i);
    if globals.contains(i) {
        // Global row: everything outside the subtracted window.
        for j in 0..lo {
            sink.push(j);
        }
        for j in hi + 1..l {
            sink.push(j);
        }
    } else {
        // Non-global row: global columns outside the window.
        for &g in globals.indices() {
            let g = g as usize;
            if g < lo || g > hi {
                sink.push(g);
            }
        }
    }
}

/// Local attention (`|i−j| ≤ n`) over any query window: row `i` of the
/// state/output is absolute row `geometry.q_offset + i` of the logical
/// `kv_rows × kv_rows` problem.
#[allow(clippy::too_many_arguments)] // geometry + the paper's parameterization
pub fn local_attention_windowed_into<T: Real>(
    pool: &ThreadPool,
    n: usize,
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    check_window(geometry, q, k, v)?;
    let (l, off) = (geometry.kv_rows, geometry.q_offset);
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        move |(), i, tile| local_row(l, n, off + i, tile),
    )
}

/// Local windowed attention (`|i−j| ≤ n`) into an existing state —
/// square-geometry wrapper over [`local_attention_windowed_into`].
pub fn local_attention_into<T: Real>(
    pool: &ThreadPool,
    n: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    local_attention_windowed_into(pool, n, Geometry::square(q.rows()), q, k, v, opts, state)
}

/// Local windowed attention with a fresh state.
pub fn local_attention<T: Real>(
    pool: &ThreadPool,
    n: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    local_attention_into(pool, n, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

/// 1-D dilated attention over any query window (see
/// [`local_attention_windowed_into`] for the geometry convention).
#[allow(clippy::too_many_arguments)] // geometry + the paper's parameterization
pub fn dilated1d_attention_windowed_into<T: Real>(
    pool: &ThreadPool,
    w: usize,
    r: usize,
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    if w == 0 {
        return Err(AttnError::BadParameter {
            what: "dilated window width w must be positive",
        });
    }
    check_window(geometry, q, k, v)?;
    let (l, off) = (geometry.kv_rows, geometry.q_offset);
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        move |(), i, tile| dilated1d_row(l, w, r, off + i, tile),
    )
}

/// 1-D dilated attention (`|i−j| < w ∧ |i−j| mod (r+1) = 0`) into state —
/// square-geometry wrapper over [`dilated1d_attention_windowed_into`].
#[allow(clippy::too_many_arguments)] // the paper's kernel parameterization
pub fn dilated1d_attention_into<T: Real>(
    pool: &ThreadPool,
    w: usize,
    r: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    dilated1d_attention_windowed_into(pool, w, r, Geometry::square(q.rows()), q, k, v, opts, state)
}

/// 1-D dilated attention with a fresh state.
pub fn dilated1d_attention<T: Real>(
    pool: &ThreadPool,
    w: usize,
    r: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    dilated1d_attention_into(pool, w, r, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

/// 2-D dilated (block) attention over any query window (see
/// [`local_attention_windowed_into`] for the geometry convention).
#[allow(clippy::too_many_arguments)] // geometry + the paper's parameterization
pub fn dilated2d_attention_windowed_into<T: Real>(
    pool: &ThreadPool,
    block_size: usize,
    r: usize,
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    if block_size == 0 {
        return Err(AttnError::BadParameter {
            what: "block_size must be positive",
        });
    }
    check_window(geometry, q, k, v)?;
    let (l, off) = (geometry.kv_rows, geometry.q_offset);
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        move |(), i, tile| dilated2d_row(l, block_size, r, off + i, tile),
    )
}

/// 2-D dilated (block) attention into state: diagonal blocks of
/// `block_size`, in-block offsets dilated by `r` on both axes —
/// square-geometry wrapper over [`dilated2d_attention_windowed_into`].
#[allow(clippy::too_many_arguments)] // the paper's kernel parameterization
pub fn dilated2d_attention_into<T: Real>(
    pool: &ThreadPool,
    block_size: usize,
    r: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    dilated2d_attention_windowed_into(
        pool,
        block_size,
        r,
        Geometry::square(q.rows()),
        q,
        k,
        v,
        opts,
        state,
    )
}

/// 2-D dilated attention with a fresh state.
pub fn dilated2d_attention<T: Real>(
    pool: &ThreadPool,
    block_size: usize,
    r: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    dilated2d_attention_into(pool, block_size, r, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

/// Global (non-local) attention into state — the paper's composition
/// primitive: the full global mask for token set `globals` *minus* the
/// local window `|i−j| ≤ n_sub`, so that chaining
/// `local(n_sub)` → `global(globals, n_sub)` covers the Longformer union
/// exactly once.
#[allow(clippy::too_many_arguments)] // the paper's kernel parameterization
pub fn global_attention_into<T: Real>(
    pool: &ThreadPool,
    globals: &GlobalSet,
    n_sub: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    global_attention_windowed_into(
        pool,
        globals,
        n_sub,
        Geometry::square(q.rows()),
        q,
        k,
        v,
        opts,
        state,
    )
}

/// Global (non-local) attention over any query window (see
/// [`local_attention_windowed_into`] for the geometry convention). The
/// global set's context length pins `kv_rows`.
#[allow(clippy::too_many_arguments)] // geometry + the paper's parameterization
pub fn global_attention_windowed_into<T: Real>(
    pool: &ThreadPool,
    globals: &GlobalSet,
    n_sub: usize,
    geometry: Geometry,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
    state: &mut AttentionState<T>,
) -> Result<(), AttnError> {
    check_window(geometry, q, k, v)?;
    let (l, off) = (geometry.kv_rows, geometry.q_offset);
    if globals.context_len() != l {
        return Err(AttnError::MaskShapeMismatch {
            mask: (globals.context_len(), globals.context_len()),
            l,
        });
    }
    stream_rows(
        pool,
        q,
        k,
        v,
        opts,
        state,
        || (),
        move |(), i, tile| global_row(l, globals, n_sub, off + i, tile),
    )
}

/// Global (non-local) attention with a fresh state.
pub fn global_attention<T: Real>(
    pool: &ThreadPool,
    globals: &GlobalSet,
    n_sub: usize,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<Matrix<T>, AttnError> {
    let mut state = AttentionState::new(q.rows(), v.cols());
    global_attention_into(pool, globals, n_sub, q, k, v, opts, &mut state)?;
    Ok(state.into_output())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::explicit::csr_attention;
    use gpa_masks::{Dilated2d, GlobalMinusLocal, MaskPattern};
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn local_matches_csr_of_same_mask() {
        let l = 64;
        let (q, k, v) = qkv::<f64>(l, 16, 21);
        let p = pool();
        for n in [0usize, 1, 5, 63, 200] {
            let implicit = local_attention(&p, n, &q, &k, &v, &KernelOptions::new()).unwrap();
            let explicit = csr_attention(
                &p,
                &LocalWindow::new(l, n).to_csr(),
                &q,
                &k,
                &v,
                &KernelOptions::new(),
            )
            .unwrap();
            assert!(paper_allclose(&implicit, &explicit), "n={n}");
        }
    }

    #[test]
    fn dilated1d_matches_csr_of_same_mask() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 8, 22);
        let p = pool();
        for (w, r) in [(1usize, 0usize), (5, 1), (9, 2), (64, 3)] {
            let implicit =
                dilated1d_attention(&p, w, r, &q, &k, &v, &KernelOptions::new()).unwrap();
            let explicit = csr_attention(
                &p,
                &Dilated1d::new(l, w, r).to_csr(),
                &q,
                &k,
                &v,
                &KernelOptions::new(),
            )
            .unwrap();
            assert!(paper_allclose(&implicit, &explicit), "w={w} r={r}");
        }
    }

    #[test]
    fn dilated2d_matches_csr_of_same_mask() {
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 23);
        let p = pool();
        for (bs, r) in [(4usize, 0usize), (8, 1), (7, 2), (40, 1)] {
            let implicit =
                dilated2d_attention(&p, bs, r, &q, &k, &v, &KernelOptions::new()).unwrap();
            let explicit = csr_attention(
                &p,
                &Dilated2d::new(l, bs, r).to_csr(),
                &q,
                &k,
                &v,
                &KernelOptions::new(),
            )
            .unwrap();
            assert!(paper_allclose(&implicit, &explicit), "bs={bs} r={r}");
        }
    }

    #[test]
    fn global_matches_csr_of_global_minus_local() {
        let l = 36;
        let (q, k, v) = qkv::<f64>(l, 8, 24);
        let p = pool();
        for g in [0usize, 1, 3] {
            for n in [0usize, 2] {
                let globals = GlobalSet::evenly_spaced(l, g);
                let implicit =
                    global_attention(&p, &globals, n, &q, &k, &v, &KernelOptions::new()).unwrap();
                let explicit = csr_attention(
                    &p,
                    &GlobalMinusLocal::new(globals.clone(), n).to_csr(),
                    &q,
                    &k,
                    &v,
                    &KernelOptions::new(),
                )
                .unwrap();
                assert!(paper_allclose(&implicit, &explicit), "g={g} n={n}");
            }
        }
    }

    #[test]
    fn implicit_kernels_are_work_optimal() {
        let l = 30;
        let (q, k, v) = qkv::<f64>(l, 8, 25);
        let p = pool();
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);

        let _ = local_attention(&p, 3, &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), LocalWindow::new(l, 3).nnz() as u64);

        counter.reset();
        let _ = dilated1d_attention(&p, 7, 1, &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), Dilated1d::new(l, 7, 1).nnz() as u64);

        counter.reset();
        let _ = dilated2d_attention(&p, 6, 1, &q, &k, &v, &opts).unwrap();
        assert_eq!(counter.dot_products(), Dilated2d::new(l, 6, 1).nnz() as u64);

        counter.reset();
        let globals = GlobalSet::evenly_spaced(l, 2);
        let _ = global_attention(&p, &globals, 1, &q, &k, &v, &opts).unwrap();
        assert_eq!(
            counter.dot_products(),
            GlobalMinusLocal::new(globals, 1).to_csr().nnz() as u64
        );
    }

    #[test]
    fn bad_parameters_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let p = pool();
        assert!(matches!(
            dilated1d_attention(&p, 0, 1, &q, &k, &v, &KernelOptions::new()),
            Err(AttnError::BadParameter { .. })
        ));
        assert!(matches!(
            dilated2d_attention(&p, 0, 1, &q, &k, &v, &KernelOptions::new()),
            Err(AttnError::BadParameter { .. })
        ));
        let wrong_globals = GlobalSet::prefix(9, 1);
        assert!(matches!(
            global_attention(&p, &wrong_globals, 0, &q, &k, &v, &KernelOptions::new()),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    #[test]
    fn windowed_rows_are_bitwise_rows_of_the_square_run() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 8, 26);
        let p = pool();
        let opts = KernelOptions::new();
        let square = local_attention(&p, 5, &q, &k, &v, &opts).unwrap();
        for (off, rows) in [(0usize, 48usize), (0, 7), (13, 9), (47, 1)] {
            let q_win = q.rows_slice(off, off + rows);
            let mut state = AttentionState::new(rows, v.cols());
            local_attention_windowed_into(
                &p,
                5,
                Geometry::window(off, rows, l),
                &q_win,
                &k,
                &v,
                &opts,
                &mut state,
            )
            .unwrap();
            let out = state.into_output();
            for i in 0..rows {
                assert_eq!(out.row(i), square.row(off + i), "off={off} row={i}");
            }
        }
    }

    #[test]
    fn window_overhang_rejected() {
        let l = 16;
        let (q, k, v) = qkv::<f64>(l, 4, 27);
        let q_win = q.rows_slice(10, 16);
        let mut state = AttentionState::new(6, v.cols());
        let err = local_attention_windowed_into(
            &pool(),
            2,
            Geometry::window(11, 6, l), // 11 + 6 > 16
            &q_win,
            &k,
            &v,
            &KernelOptions::new(),
            &mut state,
        )
        .unwrap_err();
        assert!(matches!(err, AttnError::WindowMismatch { .. }));
    }

    #[test]
    fn f32_kernels_match_f64_loosely() {
        let l = 64;
        let (q, k, v) = qkv::<f64>(l, 16, 30);
        let (q32, k32, v32) = (q.cast::<f32>(), k.cast::<f32>(), v.cast::<f32>());
        let p = pool();
        let hi = local_attention(&p, 4, &q, &k, &v, &KernelOptions::new()).unwrap();
        let lo = local_attention(&p, 4, &q32, &k32, &v32, &KernelOptions::new()).unwrap();
        assert!(hi.max_abs_diff(&lo.cast::<f64>()) < 1e-5);
    }
}
