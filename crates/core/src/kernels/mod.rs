//! The explicit-mask row rules (COO's row search and CSR's slice), and
//! the test helpers every kernel's tests share.
//!
//! [`crate::dispatch`] holds the table of which rule each
//! [`crate::AttentionKernel`] variant streams; the implicit rules live in
//! `gpa-masks`, beside the patterns they define.

pub mod explicit;

pub use explicit::CooSearch;

#[cfg(test)]
pub(crate) mod testing {
    use crate::{masked_sdp, AttentionEngine, AttentionKernel};
    use gpa_sparse::{CsrMask, DenseMask};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    /// An engine that tallies the work of every run it launches.
    pub(crate) fn counting_engine() -> AttentionEngine {
        AttentionEngine::builder()
            .threads(4)
            .count_work(true)
            .build()
    }

    /// `kernel` over the square must compute attention under `mask`:
    /// `paper_allclose` to `masked_sdp` over the mask materialized, at
    /// exactly one dot product per mask non-zero.
    pub(crate) fn assert_kernel_computes_mask(
        kernel: AttentionKernel<'_>,
        mask: &CsrMask,
        dk: usize,
        what: &str,
    ) {
        let engine = counting_engine();
        let (q, k, v) = qkv::<f64>(mask.rows(), dk, 21);
        let out = engine.run_kernel(kernel, &q, &k, &v).unwrap();
        let dots = engine.work_report().unwrap().dot_products;
        assert_eq!(dots, mask.nnz() as u64, "{} {what}: work", kernel.name());
        let dense = DenseMask::from_csr(mask);
        let reference = masked_sdp(&engine, &dense, &q, &k, &v).unwrap();
        assert!(paper_allclose(&out, &reference), "{} {what}", kernel.name());
    }
}

/// The paper's Fig. 3 cases at the kernel level: every graph kernel with
/// its mask fitted to a target sparsity factor, as the microbenchmark
/// sweeps them.
#[cfg(test)]
mod tests {
    use super::testing::counting_engine;
    use crate::{masked_sdp, AttentionEngine, AttentionKernel, CooSearch};
    use gpa_masks::{
        dilated1d_width_for_sparsity, dilated2d_block_for_sparsity, global_count_for_sparsity,
        local_window_for_sparsity, GlobalSet, LocalWindow, MaskPattern,
    };
    use gpa_sparse::{CooMask, CsrMask, DiaMask};
    use gpa_tensor::init::qkv;

    /// The masks of one `(L, Sf)` point of Fig. 3: dilation 1 for both
    /// dilated kernels, the window or block fitted to `Sf`, COO and CSR
    /// reading the fitted local window.
    struct Fig3Masks {
        window: usize,
        coo: CooMask,
        csr: CsrMask,
        globals: GlobalSet,
        w: usize,
        block_size: usize,
    }

    impl Fig3Masks {
        fn fit(l: usize, sf: f64) -> Fig3Masks {
            let window = local_window_for_sparsity(l, sf);
            let local = LocalWindow::new(l, window);
            Fig3Masks {
                window,
                coo: local.to_coo(),
                csr: local.to_csr(),
                globals: GlobalSet::evenly_spaced(l, global_count_for_sparsity(l, sf)),
                w: dilated1d_width_for_sparsity(l, 1, sf),
                block_size: dilated2d_block_for_sparsity(l, 1, sf),
            }
        }

        /// The six graph kernels in the order of Fig. 3's legend.
        fn kernels(&self) -> [AttentionKernel<'_>; 6] {
            [
                AttentionKernel::Coo(&self.coo, CooSearch::Linear),
                AttentionKernel::Csr(&self.csr),
                AttentionKernel::Global {
                    globals: &self.globals,
                    n_sub: 0,
                },
                AttentionKernel::Local { n: self.window },
                AttentionKernel::Dilated1d { w: self.w, r: 1 },
                AttentionKernel::Dilated2d {
                    block_size: self.block_size,
                    r: 1,
                },
            ]
        }
    }

    #[test]
    fn fitted_cases_land_near_target_sf() {
        // Where the solvers have room, every kernel's work — one dot
        // product per mask non-zero — lands near the target's share of L².
        let l = 1024;
        let (q, k, v) = qkv::<f32>(l, 4, 5);
        let masks = Fig3Masks::fit(l, 0.05);
        for kernel in masks.kernels() {
            let engine = counting_engine();
            engine.run_kernel(kernel, &q, &k, &v).unwrap();
            let dots = engine.work_report().unwrap().dot_products;
            let sf = dots as f64 / (l * l) as f64;
            assert!(
                (sf - 0.05).abs() / 0.05 < 0.35,
                "{}: achieved {sf}",
                kernel.name()
            );
        }
    }

    #[test]
    fn all_cases_run_and_agree_across_formats() {
        // COO (both searches), CSR, DIA, Local and masked SDP read one
        // fitted window: identical outputs.
        let l = 64;
        let (q, k, v) = qkv::<f32>(l, 8, 3);
        let engine = AttentionEngine::with_threads(2);
        let masks = Fig3Masks::fit(l, 0.1);
        let dia = DiaMask::local(l, masks.window);
        let run = |kernel| engine.run_kernel(kernel, &q, &k, &v).unwrap();
        let csr = run(AttentionKernel::Csr(&masks.csr));
        for kernel in [
            AttentionKernel::Coo(&masks.coo, CooSearch::Linear),
            AttentionKernel::Coo(&masks.coo, CooSearch::Binary),
            AttentionKernel::Dia(&dia),
            AttentionKernel::Local { n: masks.window },
        ] {
            assert!(run(kernel).max_abs_diff(&csr) < 1e-5, "{}", kernel.name());
        }
        let window = LocalWindow::new(l, masks.window).to_dense();
        let sdp = masked_sdp(&engine, &window, &q, &k, &v).unwrap();
        assert!(sdp.max_abs_diff(&csr) < 1e-5);
    }

    #[test]
    fn plans_compile_for_every_fig3_case() {
        let (q, k, v) = qkv::<f32>(128, 8, 4);
        let engine = AttentionEngine::with_threads(2);
        let masks = Fig3Masks::fit(128, 0.1);
        for kernel in masks.kernels() {
            let plan = engine.compile(&[kernel]).expect("Fig. 3 case compiles");
            let out = engine.run(&plan, &q, &k, &v).unwrap();
            assert_eq!(out.shape(), (128, 8), "{}", kernel.name());
        }
    }

    #[test]
    fn names_are_paper_legends() {
        let masks = Fig3Masks::fit(16, 0.5);
        let names = masks.kernels().map(|kernel| kernel.name());
        assert_eq!(
            names,
            ["COO", "CSR", "Global", "Local", "Dilated-1D", "Dilated-2D"]
        );
    }
}
