//! The row rules — `Get_Neighbors(G, i, Pa)` of Algorithm 1, one per
//! [`crate::AttentionKernel`] graph variant.
//!
//! A rule streams one absolute query row's neighbors into a
//! `NeighborSink`; [`crate::AttentionKernel`]'s `stream_row` picks the rule,
//! and the one row loop (`batch::launch_rows`, behind every
//! [`crate::AttentionEngine`] entry point) runs it under a row tile.
//! Nothing here launches anything.
//!
//! | Variant | Mask | Rule |
//! |---|---|---|
//! | `Coo` (linear / binary search) | explicit | `explicit::coo_row` |
//! | `Csr` | explicit | `explicit::csr_row` |
//! | `Dia` | explicit, `O(#diagonals)` | `dia::dia_row` |
//! | `Local` | implicit | `implicit::local_row` |
//! | `Dilated1d` | implicit | `implicit::dilated1d_row` |
//! | `Dilated2d` | implicit | `implicit::dilated2d_row` |
//! | `Global` (non-local) | implicit | `implicit::global_row` |
//! | `Routed` | per-sequence [`crate::Routing`] | `routing::routed_row` |

pub mod dia;
pub mod explicit;
pub mod implicit;

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
