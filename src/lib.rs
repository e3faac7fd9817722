#![warn(missing_docs)]
//! # graph-attention
//!
//! Facade crate for the graph-processing sparse attention library — a Rust
//! reproduction of *"Longer Attention Span: Increasing Transformer Context
//! Length with Sparse Graph Processing Techniques"* (IPDPS 2025).
//!
//! ## Architecture
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            │ gpa-core: graph attention kernels           │
//!            │  COO · CSR · Local · Dilated-1D/2D · Global │
//!            │  + masked-SDP & Flash baselines, multi-head │
//!            └───────┬──────────────┬───────────┬─────────┘
//!         ┌──────────┴───┐  ┌───────┴────┐  ┌───┴────────────┐
//!         │ gpa-masks    │  │ gpa-sparse │  │ gpa-parallel   │
//!         │ patterns,    │  │ COO/CSR/   │  │ thread pool,   │
//!         │ presets,     │  │ bitmask    │  │ grid schedule, │
//!         │ Sf solvers   │  │            │  │ work counters  │
//!         └──────┬───────┘  └──────┬─────┘  └───┬────────────┘
//!                └───────┬────────┴─────────────┘
//!                   ┌────┴──────┐   ┌──────────────┐
//!                   │ gpa-tensor│   │ gpa-memmodel │ (capacity model,
//!                   │ Matrix    │   │ Fig. 4/Tab. II)│  independent)
//!                   └───────────┘   └──────────────┘
//! ```
//!
//! The quickest way in is the [`prelude`]; `examples/quickstart.rs` is the
//! same flow at full size, `examples/batched_serving.rs` shows the batched
//! serving loop, and `examples/continuous_serving.rs` drives the
//! continuous-batching scheduler ([`serve`]) over a seeded workload trace.
//!
//! ## Quickstart
//!
//! Build an [`core::AttentionEngine`] (the one way to launch a graph
//! kernel), compile a Longformer-style mask into a reusable plan, run the
//! work-optimal CSR kernel — over one sequence and over a batch — and
//! check the result against the dense masked-SDP reference:
//!
//! ```
//! use graph_attention::prelude::*;
//!
//! let engine = AttentionEngine::with_threads(2);
//! let (l, dk) = (64, 8);
//!
//! // Sliding window ∪ global tokens, materialized as CSR and compiled
//! // into a plan: geometry is validated once, here, not per launch.
//! let mask = longformer(l, 4, vec![0]).to_csr();
//! let plan = engine.compile(&[AttentionKernel::Csr(&mask)]).unwrap();
//!
//! // Seeded uniform [0, 1) Q/K/V, as in the paper's verification setup.
//! let (q, k, v) = init::qkv::<f64>(l, dk, 42);
//!
//! // One dot product per mask edge — "true sparsity".
//! let out = engine.run(&plan, &q, &k, &v).unwrap();
//! assert_eq!(out.shape(), (l, dk));
//!
//! // The same plan serves whole batches in a single flattened launch,
//! // element-exact with the per-sequence runs.
//! let (q2, k2, v2) = init::qkv::<f64>(l, dk, 43);
//! let outs = engine
//!     .run_batch(
//!         &plan,
//!         &[AttentionRequest::new(&q, &k, &v), AttentionRequest::new(&q2, &k2, &v2)],
//!     )
//!     .unwrap();
//! assert_eq!(outs[0], out);
//!
//! // The graph kernel matches the dense masked-SDP baseline.
//! let dense = DenseMask::from_csr(&mask);
//! let reference = masked_sdp(&engine, &dense, &q, &k, &v).unwrap();
//! assert!(paper_allclose(&out, &reference));
//!
//! // Serving geometry: chunked prefill fills a KV cache (bitwise equal to
//! // the square forward for any chunk split), then each generated token
//! // decodes as a single cached row — the last row of the square forward
//! // over everything so far.
//! let window_plan = engine.compile(&[AttentionKernel::Local { n: 4 }]).unwrap();
//! let mut cache = KvCache::single(dk, dk);
//! assert!(cache.is_empty());
//! let prefill = engine
//!     .prefill_chunked(&window_plan, &q, &k, &v, 16, &mut cache)
//!     .unwrap();
//! assert_eq!(prefill, engine.run(&window_plan, &q, &k, &v).unwrap());
//!
//! let (q_t, k_t, v_t) = init::qkv::<f64>(1, dk, 99);
//! let token_out = engine
//!     .decode_step(&window_plan, &q_t, &k_t, &v_t, &mut cache)
//!     .unwrap();
//! assert_eq!(token_out.shape(), (1, dk));
//! assert_eq!(cache.len(), l + 1);
//! ```

pub use gpa_core as core;
pub use gpa_masks as masks;
pub use gpa_memmodel as memmodel;
pub use gpa_model as model;
pub use gpa_parallel as parallel;
pub use gpa_serve as serve;
pub use gpa_sparse as sparse;
pub use gpa_tensor as tensor;

/// Common imports for applications built on graph-processing attention.
pub mod prelude {
    pub use gpa_core::{
        flash_attention, masked_sdp, AttentionEngine, AttentionEngineBuilder, AttentionKernel,
        AttentionPlan, AttentionRequest, AttentionState, Geometry, KvCache, MultiHeadAttention,
    };
    pub use gpa_masks::{bigbird, longformer, GlobalSet, LocalWindow, LongNetPattern, MaskPattern};
    pub use gpa_model::{DecoderModel, LayerPattern, ModelKvState};
    pub use gpa_parallel::{Schedule, ThreadPool, WorkCounter};
    pub use gpa_serve::{
        AdmissionMode, EvictionMode, ModelRequest, PatternChoice, Scheduler, ServeConfig,
        ServeRequest, ServeTarget,
    };
    pub use gpa_sparse::{CooMask, CsrMask, DenseMask};
    pub use gpa_tensor::{init, paper_allclose, Matrix, Real};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use crate::prelude::*;
        let engine = AttentionEngine::with_threads(1);
        let (q, k, v) = init::qkv::<f64>(8, 4, 0);
        let mask = LocalWindow::new(8, 1).to_csr();
        let plan = engine.compile(&[AttentionKernel::Csr(&mask)]).unwrap();
        let out = engine.run(&plan, &q, &k, &v).unwrap();
        assert_eq!(out.shape(), (8, 4));
        // The dense baseline the graph kernels are compared against.
        let dense = DenseMask::from_csr(&mask);
        let reference = masked_sdp(&engine, &dense, &q, &k, &v).unwrap();
        assert!(paper_allclose(&out, &reference));
    }
}
