//! Self-contained algorithm cases: an owned mask plus the kernel selection,
//! buildable from `(L, dk, Sf)` alone — the unit every experiment sweeps.
//! A graph-kernel case runs as a compiled engine plan; the two dense
//! baselines run as the plain functions they are, on the engine's pool
//! under its options.

use gpa_core::{
    flash_attention, masked_sdp, AttentionEngine, AttentionKernel, AttentionPlan, CooSearch,
};
use gpa_masks::{
    dilated1d_width_for_sparsity, dilated2d_block_for_sparsity, global_count_for_sparsity,
    local_window_for_sparsity, Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow,
    MaskPattern,
};
use gpa_sparse::{CooMask, CsrMask, DenseMask};
use gpa_tensor::Matrix;

/// An algorithm under benchmark, owning whatever mask data it needs.
pub enum OwnedKernel {
    /// Dense masked SDP baseline.
    Sdp(DenseMask),
    /// COO explicit kernel (paper's linear row search).
    Coo(CooMask, CooSearch),
    /// CSR explicit kernel.
    Csr(CsrMask),
    /// Implicit local window.
    Local(usize),
    /// Implicit 1-D dilated window.
    Dilated1d {
        /// Window width.
        w: usize,
        /// Dilation factor.
        r: usize,
    },
    /// Implicit 2-D dilated blocks.
    Dilated2d {
        /// Block edge.
        bs: usize,
        /// Dilation factor.
        r: usize,
    },
    /// Implicit global-minus-local.
    Global(GlobalSet, usize),
    /// Dense FlashAttention baseline.
    Flash,
}

impl OwnedKernel {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            OwnedKernel::Sdp(_) => "PyTorch SDP (Masked)",
            OwnedKernel::Flash => "FlashAttention",
            graph => graph.as_kernel().expect("graph case").name(),
        }
    }

    /// Borrowed dispatch view of a graph-kernel case; `None` for the dense
    /// baselines, which are functions, not kernels.
    pub fn as_kernel(&self) -> Option<AttentionKernel<'_>> {
        Some(match self {
            OwnedKernel::Sdp(_) | OwnedKernel::Flash => return None,
            OwnedKernel::Coo(mask, search) => AttentionKernel::Coo(mask, *search),
            OwnedKernel::Csr(mask) => AttentionKernel::Csr(mask),
            OwnedKernel::Local(n) => AttentionKernel::Local { n: *n },
            OwnedKernel::Dilated1d { w, r } => AttentionKernel::Dilated1d { w: *w, r: *r },
            OwnedKernel::Dilated2d { bs, r } => AttentionKernel::Dilated2d {
                block_size: *bs,
                r: *r,
            },
            OwnedKernel::Global(globals, n_sub) => AttentionKernel::Global {
                globals,
                n_sub: *n_sub,
            },
        })
    }

    /// The achieved sparsity factor of the case's mask (1.0 for dense
    /// baselines).
    pub fn achieved_sf(&self, l: usize) -> f64 {
        let te = l as f64 * l as f64;
        match self {
            OwnedKernel::Sdp(mask) => mask.nnz() as f64 / te,
            OwnedKernel::Coo(mask, _) => mask.nnz() as f64 / te,
            OwnedKernel::Csr(mask) => mask.nnz() as f64 / te,
            OwnedKernel::Local(n) => LocalWindow::new(l, *n).sparsity_factor(),
            OwnedKernel::Dilated1d { w, r } => Dilated1d::new(l, *w, *r).sparsity_factor(),
            OwnedKernel::Dilated2d { bs, r } => Dilated2d::new(l, *bs, *r).sparsity_factor(),
            OwnedKernel::Global(globals, n_sub) => {
                GlobalMinusLocal::new(globals.clone(), *n_sub).sparsity_factor()
            }
            OwnedKernel::Flash => 1.0,
        }
    }

    /// The call to time for this case, in f32 (the benchmark precision):
    /// [`masked_sdp`] or [`flash_attention`] on `engine.pool()` under
    /// `engine.options()` for the dense baselines, and `engine.run` of the
    /// case's single-step plan for the rest. The plan is compiled here,
    /// once, and reused by every call — across the measurement protocol's
    /// warm-up and timed iterations.
    pub fn runner<'c>(
        &'c self,
        engine: &'c AttentionEngine,
        q: &'c Matrix<f32>,
        k: &'c Matrix<f32>,
        v: &'c Matrix<f32>,
    ) -> impl Fn() -> Matrix<f32> + 'c {
        let plan = self
            .as_kernel()
            .map(|kernel| AttentionPlan::single(kernel).expect("benchmark case must compile"));
        move || {
            match (&plan, self) {
                (Some(plan), _) => engine.run(plan, q, k, v),
                (None, OwnedKernel::Sdp(mask)) => {
                    masked_sdp(engine.pool(), mask, q, k, v, &engine.options())
                }
                (None, _) => flash_attention(engine.pool(), q, k, v, &engine.options()),
            }
            .expect("benchmark case must be well-formed")
        }
    }

    /// Approximate multiply-add count of one run — used to budget adaptive
    /// iteration counts.
    pub fn flop_estimate(&self, l: usize, dk: usize) -> f64 {
        let dense = 2.0 * (l as f64) * (l as f64) * dk as f64;
        match self {
            OwnedKernel::Sdp(_) | OwnedKernel::Flash => 2.0 * dense,
            _ => 2.0 * self.achieved_sf(l) * dense,
        }
    }
}

/// Build the fitted "ordered sparsity" case for an algorithm id at a target
/// sparsity, following the paper's Fig. 3 setup (dilation 1 for both
/// dilated kernels; window/block fitted to `Sf`; globals fitted with the
/// identity diagonal subtracted).
pub fn fitted_case(algo: AlgoId, l: usize, sf: f64) -> OwnedKernel {
    match algo {
        AlgoId::Sdp => {
            OwnedKernel::Sdp(LocalWindow::new(l, local_window_for_sparsity(l, sf)).to_dense())
        }
        AlgoId::Coo => OwnedKernel::Coo(
            LocalWindow::new(l, local_window_for_sparsity(l, sf)).to_coo(),
            CooSearch::Linear,
        ),
        AlgoId::CooBinary => OwnedKernel::Coo(
            LocalWindow::new(l, local_window_for_sparsity(l, sf)).to_coo(),
            CooSearch::Binary,
        ),
        AlgoId::Csr => {
            OwnedKernel::Csr(LocalWindow::new(l, local_window_for_sparsity(l, sf)).to_csr())
        }
        AlgoId::Local => OwnedKernel::Local(local_window_for_sparsity(l, sf)),
        AlgoId::Dilated1d => OwnedKernel::Dilated1d {
            w: dilated1d_width_for_sparsity(l, 1, sf),
            r: 1,
        },
        AlgoId::Dilated2d => OwnedKernel::Dilated2d {
            bs: dilated2d_block_for_sparsity(l, 1, sf),
            r: 1,
        },
        AlgoId::Global => OwnedKernel::Global(
            GlobalSet::evenly_spaced(l, global_count_for_sparsity(l, sf)),
            0,
        ),
        AlgoId::Flash => OwnedKernel::Flash,
    }
}

/// Stable identifiers for the algorithms the experiments sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoId {
    /// Masked SDP baseline.
    Sdp,
    /// COO with the paper's linear search.
    Coo,
    /// COO with binary search (ablation A1).
    CooBinary,
    /// CSR.
    Csr,
    /// Implicit local window.
    Local,
    /// Implicit 1-D dilation.
    Dilated1d,
    /// Implicit 2-D dilation.
    Dilated2d,
    /// Implicit global.
    Global,
    /// Dense FlashAttention.
    Flash,
}

impl AlgoId {
    /// The Fig. 3 sweep set (paper order, dense baseline first).
    pub const FIG3: [AlgoId; 7] = [
        AlgoId::Sdp,
        AlgoId::Coo,
        AlgoId::Csr,
        AlgoId::Global,
        AlgoId::Local,
        AlgoId::Dilated1d,
        AlgoId::Dilated2d,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_tensor::init::qkv;

    #[test]
    fn fitted_cases_land_near_target_sf() {
        let l = 1024;
        for algo in AlgoId::FIG3 {
            if algo == AlgoId::Sdp {
                continue; // dense work; mask only selects entries
            }
            let case = fitted_case(algo, l, 0.05);
            let sf = case.achieved_sf(l);
            assert!((sf - 0.05).abs() / 0.05 < 0.35, "{:?}: achieved {sf}", algo);
        }
    }

    #[test]
    fn all_cases_run_and_agree_across_formats() {
        let l = 64;
        let (q, k, v) = qkv::<f32>(l, 8, 3);
        let engine = AttentionEngine::with_threads(2);
        let run = |algo, sf| fitted_case(algo, l, sf).runner(&engine, &q, &k, &v)();
        // COO/CSR/Local share the same fitted mask → identical outputs.
        let coo = run(AlgoId::Coo, 0.1);
        let csr = run(AlgoId::Csr, 0.1);
        let local = run(AlgoId::Local, 0.1);
        assert!(coo.max_abs_diff(&csr) < 1e-5);
        assert!(local.max_abs_diff(&csr) < 1e-5);
        // The SDP case's mask is the same fitted window.
        assert!(run(AlgoId::Sdp, 0.1).max_abs_diff(&csr) < 1e-5);
        // Dense cases produce the right shape.
        let flash = run(AlgoId::Flash, 1.0);
        assert_eq!(flash.shape(), (l, 8));
    }

    #[test]
    fn plans_compile_for_every_fig3_case() {
        let (q, k, v) = qkv::<f32>(128, 8, 4);
        let engine = AttentionEngine::with_threads(2);
        for algo in AlgoId::FIG3 {
            let case = fitted_case(algo, 128, 0.1);
            assert_eq!(case.as_kernel().is_none(), algo == AlgoId::Sdp, "{algo:?}");
            let out = case.runner(&engine, &q, &k, &v)();
            assert_eq!(out.shape(), (128, 8), "{algo:?}");
        }
    }

    #[test]
    fn flop_estimates_track_sparsity() {
        let l = 256;
        let dense = fitted_case(AlgoId::Flash, l, 1.0).flop_estimate(l, 64);
        let sparse = fitted_case(AlgoId::Local, l, 0.01).flop_estimate(l, 64);
        assert!(dense > sparse * 20.0);
    }

    #[test]
    fn names_are_paper_legends() {
        assert_eq!(fitted_case(AlgoId::Csr, 16, 0.5).name(), "CSR");
        assert_eq!(
            fitted_case(AlgoId::Sdp, 16, 0.5).name(),
            "PyTorch SDP (Masked)"
        );
        assert_eq!(fitted_case(AlgoId::Flash, 16, 0.5).name(), "FlashAttention");
    }
}
