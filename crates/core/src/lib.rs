#![warn(missing_docs)]
//! # gpa-core — graph-processing attention kernels
//!
//! The primary contribution of *"Longer Attention Span: Increasing
//! Transformer Context Length with Sparse Graph Processing Techniques"*
//! (IPDPS 2025), reimplemented as a CPU library: masked attention as a
//! graph computation, where tokens are vertices, mask non-zeros are edges,
//! and each row's output is produced by streaming its neighbors through an
//! online softmax (Algorithm 1). Every kernel performs **exactly one dot
//! product per mask non-zero** — "true sparsity", work-optimal
//! `O(Sf·L²·d)` — and the instrumentation to prove it is built in.
//!
//! ## Kernels (Section IV-B)
//!
//! A graph kernel is an [`AttentionKernel`] variant — a row rule, the
//! `Get_Neighbors(G, i, Pa)` of Algorithm 1 — and there is one row loop
//! that runs them all:
//!
//! - Explicit masks: [`AttentionKernel::Coo`] (with the paper's linear
//!   row-bound search), [`AttentionKernel::Csr`], [`AttentionKernel::Dia`];
//! - Implicit "ordered sparsity": [`AttentionKernel::Local`],
//!   [`AttentionKernel::Dilated1d`], [`AttentionKernel::Dilated2d`],
//!   [`AttentionKernel::Global`];
//! - An arbitrary [`gpa_masks::MaskPattern`]: `pattern.to_csr()` and
//!   [`AttentionKernel::Csr`].
//!
//! ## Baselines (Section III)
//!
//! [`baselines::masked_sdp`] (PyTorch-style dense SDP with −∞ masking) and
//! [`baselines::flash_attention`] (dense online-softmax tiling) — what the
//! graph kernels are compared against, called with an engine.
//!
//! ## The engine: compiled plans, batched execution, serving geometry
//!
//! [`AttentionEngine`] is how a graph kernel is launched: it owns the
//! worker pool and the optional work counter, **compiles** kernel compositions into
//! reusable [`AttentionPlan`]s (geometry constraints validated once), and
//! **executes batches** of ragged-length sequences in a single flattened
//! launch ([`AttentionEngine::run_batch`]). Every request carries a
//! [`Geometry`] query window, so one launch mixes full squares,
//! chunked-prefill windows ([`AttentionEngine::prefill_chunked`]), and
//! KV-cached decode rows ([`AttentionEngine::decode_step`] over a
//! [`KvCache`]).
//!
//! ## Composition and extensions
//!
//! The steps of a multi-step [`AttentionPlan`] chain per row on one
//! [`AttentionState`], so steps over disjoint masks compute exact attention
//! over the union — the paper's Fig. 6 evaluation mode;
//! [`AttentionEngine::run_batch_states`] returns the states, and stays
//! public because the numerics-contract tests read their `l` and `m`
//! through it. [`multihead`] provides the
//! multi-head extension the paper lists as future work; [`verify`]
//! reproduces the Section V-A verification protocol.

pub mod baselines;
pub mod batch;
pub mod cache;
pub mod dispatch;
pub mod driver;
pub mod engine;
pub mod error;
pub mod geometry;
pub mod kernels;
pub mod multihead;
pub mod pages;
pub mod plan;
pub mod state;
pub mod verify;

pub use baselines::{flash_attention, flash_attention_tiled, masked_sdp};
pub use batch::AttentionRequest;
pub use cache::KvCache;
pub use dispatch::AttentionKernel;
pub use driver::absorb_edge;
pub use engine::{AttentionEngine, AttentionEngineBuilder};
pub use error::AttnError;
pub use geometry::Geometry;
pub use multihead::{MultiHeadAttention, ProjectedHeads};
// `SwapArena` and its `SwapTicket` stay for the serving benchmark alone.
pub use pages::{PagePool, SeqId, SwapArena, SwapTicket};
pub use plan::AttentionPlan;
pub use state::AttentionState;
pub use verify::{run_paper_verification, run_verification_at, VerificationRecord};

#[cfg(test)]
mod proptests {
    use super::*;
    use gpa_masks::{MaskPattern, RandomUniform};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For random masks of any density, CSR kernel output equals the
        /// dense masked-SDP reference under the paper's tolerances.
        #[test]
        fn csr_equals_reference_on_random_masks(
            l in 4usize..48,
            dk in 1usize..24,
            p in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let engine = AttentionEngine::with_threads(2);
            let (q, k, v) = qkv::<f64>(l, dk, seed);
            let pat = RandomUniform::new(l, p, seed ^ 0xDEAD);
            let reference = masked_sdp(&engine, &pat.to_dense(), &q, &k, &v).unwrap();
            let out = engine.run_kernel(AttentionKernel::Csr(&pat.to_csr()), &q, &k, &v).unwrap();
            prop_assert!(paper_allclose(&out, &reference));
        }

        /// Splitting a random mask into two disjoint halves and composing
        /// the kernels equals a single call over the whole mask.
        #[test]
        fn composition_over_any_split(
            l in 4usize..32,
            p in 0.05f64..0.6,
            seed in 0u64..500,
        ) {
            let engine = AttentionEngine::with_threads(2);
            let (q, k, v) = qkv::<f64>(l, 8, seed);
            let full = RandomUniform::new(l, p, seed).to_csr();
            // Split by column parity — disjoint by construction.
            let mut even_entries = Vec::new();
            let mut odd_entries = Vec::new();
            for (r, c) in full.iter() {
                if c % 2 == 0 { even_entries.push((r, c)); } else { odd_entries.push((r, c)); }
            }
            let a = gpa_sparse::CsrMask::from_coo(
                &gpa_sparse::CooMask::from_entries(l, l, even_entries).unwrap());
            let b = gpa_sparse::CsrMask::from_coo(
                &gpa_sparse::CooMask::from_entries(l, l, odd_entries).unwrap());

            let plan = engine.compile(&[AttentionKernel::Csr(&a), AttentionKernel::Csr(&b)]).unwrap();
            let composed = engine.run(&plan, &q, &k, &v).unwrap();
            let single = engine.run_kernel(AttentionKernel::Csr(&full), &q, &k, &v).unwrap();
            prop_assert!(paper_allclose(&composed, &single));
        }

        /// Output rows are convex combinations of value rows: every output
        /// coordinate lies within the min/max of the attended values.
        #[test]
        fn outputs_are_convex_combinations(
            l in 2usize..32,
            p in 0.1f64..0.9,
            seed in 0u64..500,
        ) {
            let engine = AttentionEngine::with_threads(2);
            let (q, k, v) = qkv::<f64>(l, 8, seed);
            let pat = RandomUniform::new(l, p, seed ^ 7);
            let csr = pat.to_csr();
            let out = engine.run_kernel(AttentionKernel::Csr(&csr), &q, &k, &v).unwrap();
            for i in 0..l {
                let neighbors = csr.row(i);
                if neighbors.is_empty() { continue; }
                for c in 0..v.cols() {
                    let lo = neighbors.iter().map(|&j| v.get(j as usize, c)).fold(f64::INFINITY, f64::min);
                    let hi = neighbors.iter().map(|&j| v.get(j as usize, c)).fold(f64::NEG_INFINITY, f64::max);
                    let val = out.get(i, c);
                    prop_assert!(val >= lo - 1e-9 && val <= hi + 1e-9,
                        "row {i} col {c}: {val} outside [{lo}, {hi}]");
                }
            }
        }
    }
}
