//! The paper's verification protocol (Section V-A), as a reusable harness.
//!
//! "The query, key, and value matrices had context lengths of 256 and
//! embedded dimensions of 32; each was created from the uniform random
//! distribution [0, 1) … Resulting outputs were compared using PyTorch's
//! `allclose` function with an absolute tolerance of 1e−8, a relative
//! tolerance of 1e−5, and NaN values set to equal."
//!
//! [`run_paper_verification`] executes exactly that protocol: every graph
//! kernel, launched through an [`AttentionEngine`], against the masked-SDP
//! reference, across representative masks of
//! varied sparsity, in `f64` (the reference comparison precision: the
//! tolerances above are tighter than FP16 or `f32` rounding).

use crate::baselines::masked_sdp;
use crate::dispatch::AttentionKernel;
use crate::engine::AttentionEngine;
use crate::kernels::CooSearch;
use gpa_masks::{
    longformer, Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern,
    RandomUniform,
};
use gpa_sparse::{CsrMask, DenseMask, DiaMask};
use gpa_tensor::init::qkv;
use gpa_tensor::{allclose, Matrix};

/// The paper's verification shape: `L = 256`.
pub(crate) const PAPER_L: usize = 256;
/// The paper's verification embedding: `dk = 32`.
pub(crate) const PAPER_DK: usize = 32;
/// The paper's absolute tolerance.
pub(crate) const PAPER_ATOL: f64 = 1e-8;
/// The paper's relative tolerance.
pub(crate) const PAPER_RTOL: f64 = 1e-5;

/// Outcome of one kernel-vs-reference comparison.
#[derive(Clone, Debug)]
pub struct VerificationRecord {
    /// Kernel display name.
    pub kernel: String,
    /// Mask description.
    pub mask: String,
    /// Mask sparsity factor.
    pub sparsity_factor: f64,
    /// Largest absolute element difference against the reference.
    pub max_abs_diff: f64,
    /// Whether the paper's allclose criterion held.
    pub passed: bool,
}

/// Compare a kernel output against the masked-SDP reference under the
/// paper's tolerances.
pub(crate) fn record_comparison(
    kernel: &str,
    mask: &str,
    sparsity_factor: f64,
    output: &Matrix<f64>,
    reference: &Matrix<f64>,
) -> VerificationRecord {
    VerificationRecord {
        kernel: kernel.to_string(),
        mask: mask.to_string(),
        sparsity_factor,
        max_abs_diff: output.max_abs_diff(reference),
        passed: allclose(output, reference, PAPER_ATOL, PAPER_RTOL, true),
    }
}

/// Run the full Section V-A protocol. Returns one record per
/// (kernel, mask) pair; `passed` must hold for every record.
pub fn run_paper_verification(engine: &AttentionEngine) -> Vec<VerificationRecord> {
    run_verification_at(engine, PAPER_L, PAPER_DK, 0xA77E)
}

/// The same protocol at arbitrary shape/seed (used by property tests).
/// Kernels launch through `engine`, and so does the reference,
/// [`masked_sdp`].
pub fn run_verification_at(
    engine: &AttentionEngine,
    l: usize,
    dk: usize,
    seed: u64,
) -> Vec<VerificationRecord> {
    let (q, k, v) = qkv::<f64>(l, dk, seed);
    let mut records = Vec::new();
    // Each named kernel through the engine against the dense reference
    // over `mask`, the pattern the kernels claim to compute.
    let mut compare = |mask_name: &str, mask: &CsrMask, kernels: &[(&str, AttentionKernel<'_>)]| {
        let dense = DenseMask::from_csr(mask);
        let reference = masked_sdp(engine, &dense, &q, &k, &v)
            .expect("reference SDP must accept verification inputs");
        for &(name, kernel) in kernels {
            let out = engine
                .run_kernel(kernel, &q, &k, &v)
                .expect("kernel must accept verification inputs");
            let sf = mask.sparsity_factor();
            records.push(record_comparison(name, mask_name, sf, &out, &reference));
        }
    };

    // Mask suite: the paper's pattern families at varied sparsity levels.
    let window = (l / 16).max(1);
    let (w, block_size) = (2 * window + 1, (l / 8).max(2));
    let globals = GlobalSet::evenly_spaced(l, 3);
    let local = LocalWindow::new(l, window).to_csr();
    let dil1 = Dilated1d::new(l, w, 1).to_csr();
    let dil2 = Dilated2d::new(l, block_size, 1).to_csr();
    let gml = GlobalMinusLocal::new(globals.clone(), window).to_csr();
    let random = RandomUniform::new(l, 0.05, seed ^ 1).to_csr();
    let indices = globals.indices().iter().map(|&g| g as usize).collect();
    let longformer = longformer(l, window, indices).to_csr();

    // Explicit kernels across every mask family.
    for (mask_name, csr) in [
        ("local", &local),
        ("dilated-1d", &dil1),
        ("dilated-2d", &dil2),
        ("global-minus-local", &gml),
        ("random", &random),
        ("longformer-union", &longformer),
    ] {
        let coo = csr.to_coo();
        let linear = AttentionKernel::Coo(&coo, CooSearch::Linear);
        compare(
            mask_name,
            csr,
            &[("CSR", AttentionKernel::Csr(csr)), ("COO", linear)],
        );
    }

    // Implicit kernels against their exact mask's reference.
    let global = AttentionKernel::Global {
        globals: &globals,
        n_sub: window,
    };
    compare(
        "local",
        &local,
        &[("Local", AttentionKernel::Local { n: window })],
    );
    let dilated1d = AttentionKernel::Dilated1d { w, r: 1 };
    compare("dilated-1d", &dil1, &[("Dilated-1D", dilated1d)]);
    let dilated2d = AttentionKernel::Dilated2d { block_size, r: 1 };
    compare("dilated-2d", &dil2, &[("Dilated-2D", dilated2d)]);
    compare("global-minus-local", &gml, &[("Global", global)]);

    // The DIA kernel (Section VI-A's sparse-representation extension)
    // against an asymmetric multi-band mask no implicit kernel covers.
    let half = window as i64;
    let offsets = vec![-(l as i64) / 2, -half, -1, 0, 1, half, (l as i64) / 3];
    let band = DiaMask::new(l, offsets).expect("band offsets fit the context");
    compare(
        "diagonal-band",
        &band.to_csr(),
        &[("DIA", AttentionKernel::Dia(&band))],
    );

    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_passes_for_all_kernels() {
        let records = run_paper_verification(&AttentionEngine::with_threads(4));
        // 6 masks × 2 explicit kernels + 4 implicit kernels + DIA.
        assert_eq!(records.len(), 17);
        assert!(
            records.iter().any(|r| r.kernel == "DIA"),
            "the DIA kernel must be covered by the Section V-A protocol"
        );
        for r in &records {
            assert!(
                r.passed,
                "{} on {} failed: max_abs_diff = {:.3e}",
                r.kernel, r.mask, r.max_abs_diff
            );
        }
    }

    #[test]
    fn verification_covers_varied_sparsity() {
        let records = run_verification_at(&AttentionEngine::with_threads(2), 64, 8, 99);
        let sfs: Vec<f64> = records.iter().map(|r| r.sparsity_factor).collect();
        let min = sfs.iter().cloned().fold(1.0, f64::min);
        let max = sfs.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.15, "suite must include sparse masks (min {min})");
        assert!(max > 0.15, "suite must include denser masks (max {max})");
        assert!(records.iter().all(|r| r.passed));
    }
}
