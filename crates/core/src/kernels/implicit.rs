//! Implicit-mask ("ordered sparsity") row rules: local, 1-D dilated, 2-D
//! dilated, and global (Section IV-B).
//!
//! No mask is materialized anywhere: neighbor indices are "calculated
//! relative to the index token of a row" by closed-form arithmetic, which
//! is what lets these kernels reach FlashAttention-class context lengths
//! (Table II — only `O(L)` statistics beyond Q/K/V/O).
//!
//! Every row rule takes the **absolute** query index within a logical
//! `kv_rows × kv_rows` square, so the kernels run on any
//! [`crate::Geometry`] window of a longer sequence — a prefill chunk, a
//! single KV-cached decode row, or the classic full square.

use crate::driver::NeighborSink;
use gpa_masks::{Dilated1d, GlobalSet, LocalWindow};

/// Stream row `i`'s local-window neighbors (`|i−j| ≤ n`).
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

#[cfg(test)]
mod tests {
    use crate::kernels::testing::{assert_kernel_computes_mask, counting_engine};
    use crate::{AttentionEngine, AttentionKernel, AttentionPlan, AttentionRequest, AttnError};
    use gpa_masks::{Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern};
    use gpa_tensor::init::qkv;

    #[test]
    fn local_matches_csr_of_same_mask() {
        for n in [0usize, 1, 5, 63, 200] {
            let mask = LocalWindow::new(64, n).to_csr();
            assert_kernel_computes_mask(AttentionKernel::Local { n }, &mask, 16, &format!("n={n}"));
        }
    }

    #[test]
    fn dilated1d_matches_csr_of_same_mask() {
        for (w, r) in [(1usize, 0usize), (5, 1), (9, 2), (64, 3)] {
            let mask = Dilated1d::new(48, w, r).to_csr();
            let kernel = AttentionKernel::Dilated1d { w, r };
            assert_kernel_computes_mask(kernel, &mask, 8, &format!("w={w} r={r}"));
        }
    }

    #[test]
    fn dilated2d_matches_csr_of_same_mask() {
        for (block_size, r) in [(4usize, 0usize), (8, 1), (7, 2), (40, 1)] {
            let mask = Dilated2d::new(40, block_size, r).to_csr();
            let kernel = AttentionKernel::Dilated2d { block_size, r };
            assert_kernel_computes_mask(kernel, &mask, 8, &format!("bs={block_size} r={r}"));
        }
    }

    #[test]
    fn global_matches_csr_of_global_minus_local() {
        for g in [0usize, 1, 3] {
            for n_sub in [0usize, 2] {
                let globals = GlobalSet::evenly_spaced(36, g);
                let mask = GlobalMinusLocal::new(globals.clone(), n_sub).to_csr();
                let kernel = AttentionKernel::Global {
                    globals: &globals,
                    n_sub,
                };
                assert_kernel_computes_mask(kernel, &mask, 8, &format!("g={g} n={n_sub}"));
            }
        }
    }

    #[test]
    fn implicit_kernels_are_work_optimal() {
        let l = 30;
        let (q, k, v) = qkv::<f64>(l, 8, 25);
        let engine = counting_engine();
        let globals = GlobalSet::evenly_spaced(l, 2);
        let global = AttentionKernel::Global {
            globals: &globals,
            n_sub: 1,
        };
        for (kernel, nnz) in [
            (
                AttentionKernel::Local { n: 3 },
                LocalWindow::new(l, 3).nnz(),
            ),
            (
                AttentionKernel::Dilated1d { w: 7, r: 1 },
                Dilated1d::new(l, 7, 1).nnz(),
            ),
            (
                AttentionKernel::Dilated2d {
                    block_size: 6,
                    r: 1,
                },
                Dilated2d::new(l, 6, 1).nnz(),
            ),
            (
                global,
                GlobalMinusLocal::new(globals.clone(), 1).to_csr().nnz(),
            ),
        ] {
            engine.reset_work();
            let _ = engine.run_kernel(kernel, &q, &k, &v).unwrap();
            let report = engine.work_report().unwrap();
            assert_eq!(report.dot_products, nnz as u64, "{}", kernel.name());
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let engine = AttentionEngine::with_threads(4);
        assert!(matches!(
            engine.run_kernel(AttentionKernel::Dilated1d { w: 0, r: 1 }, &q, &k, &v),
            Err(AttnError::BadParameter { .. })
        ));
        let zero_block = AttentionKernel::Dilated2d {
            block_size: 0,
            r: 1,
        };
        assert!(matches!(
            engine.run_kernel(zero_block, &q, &k, &v),
            Err(AttnError::BadParameter { .. })
        ));
        let wrong_globals = GlobalSet::prefix(9, 1);
        let global = AttentionKernel::Global {
            globals: &wrong_globals,
            n_sub: 0,
        };
        assert!(matches!(
            engine.run_kernel(global, &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    #[test]
    fn windowed_rows_are_bitwise_rows_of_the_square_run() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 8, 26);
        let engine = AttentionEngine::with_threads(4);
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 5 }).unwrap();
        let square = engine.run(&plan, &q, &k, &v).unwrap();
        let windows = [(0usize, 48usize), (0, 7), (13, 9), (47, 1)];
        let requests: Vec<_> = windows
            .iter()
            .map(|&(off, rows)| AttentionRequest::row_range(&q, off..off + rows, &k, &v, off))
            .collect();
        let outs = engine.run_batch(&plan, &requests).unwrap();
        for (&(off, rows), out) in windows.iter().zip(&outs) {
            for i in 0..rows {
                assert_eq!(out.row(i), square.row(off + i), "off={off} row={i}");
            }
        }
    }

    #[test]
    fn window_overhang_rejected() {
        let l = 16;
        let (q, k, v) = qkv::<f64>(l, 4, 27);
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
        // Six query rows placed at 11: 11 + 6 > 16.
        let overhang = AttentionRequest::row_range(&q, 10..16, &k, &v, 11);
        let err = AttentionEngine::with_threads(4)
            .run_batch(&plan, &[overhang])
            .unwrap_err();
        assert!(matches!(err, AttnError::WindowMismatch { .. }));
    }

    #[test]
    fn f32_kernels_match_f64_loosely() {
        let l = 64;
        let (q, k, v) = qkv::<f64>(l, 16, 30);
        let (q32, k32, v32) = (q.cast::<f32>(), k.cast::<f32>(), v.cast::<f32>());
        let engine = AttentionEngine::with_threads(4);
        let local = AttentionKernel::Local { n: 4 };
        let hi = engine.run_kernel(local, &q, &k, &v).unwrap();
        let lo = engine.run_kernel(local, &q32, &k32, &v32).unwrap();
        assert!(hi.max_abs_diff(&lo.cast::<f64>()) < 1e-5);
    }
}
