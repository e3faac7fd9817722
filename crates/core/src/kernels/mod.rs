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
    use crate::{masked_sdp, AttentionEngine, AttentionKernel, KernelOptions};
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
        let opts = KernelOptions::new();
        let reference = masked_sdp(engine.pool(), &dense, &q, &k, &v, &opts).unwrap();
        assert!(paper_allclose(&out, &reference), "{} {what}", kernel.name());
    }
}
