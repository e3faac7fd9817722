#![warn(missing_docs)]
//! # gpa-model — decoder-stack serving over heterogeneous attention plans
//!
//! The paper's sparse graph kernels pay off when they sit inside a real
//! N-layer decoder: production hybrid stacks interleave **F**ull and
//! **S**parse attention layers (`"FFFSSSSSSSSFFF"`), and the sparsity /
//! quality trade-off is a model-level property, not a per-kernel one.
//! This crate is that model layer:
//!
//! - [`LayerPattern`] — a layer-pattern string, one ASCII-alphanumeric
//!   label per layer, parsed once;
//! - [`DecoderModel`] — N stacked [`MultiHeadAttention`]
//!   (`gpa_core::MultiHeadAttention`) layers with residual connections,
//!   each label bound to its own compiled
//!   [`AttentionPlan`](gpa_core::AttentionPlan), so one stack mixes
//!   dense-equivalent, BigBird-style, Longformer-style, and dilated
//!   kernels;
//! - [`ModelKvState`] — one [`PagePool`](gpa_core::PagePool) entry, one
//!   cache per layer, so admission and preemption budgets count **every**
//!   layer's pages, and eviction/resume retain and re-adopt all of them.
//!
//! Serving goes through [`DecoderModel::advance_batched`]: per layer,
//! all sequences × heads flatten into one engine launch; a 1-row window
//! is a decode step, so chunked prefill and batched decode share one
//! transactional path (failures truncate every sequence back).
//!
//! ```
//! use gpa_core::{AttentionEngine, AttentionKernel, PagePool};
//! use gpa_model::{DecoderModel, LayerPattern, ModelKvState};
//! use gpa_tensor::init::gaussian_matrix;
//!
//! let engine = AttentionEngine::with_threads(2);
//! // Four layers: Full bookends around a sparse dilated middle.
//! let model: DecoderModel<'_, f64> = DecoderModel::new(
//!     LayerPattern::parse("FSSF")?,
//!     vec![
//!         ('F', engine.compile(&[AttentionKernel::Local { n: 64 }])?),
//!         ('S', engine.compile(&[AttentionKernel::Dilated1d { w: 2, r: 2 }])?),
//!     ],
//!     16, // d_model
//!     2,  // heads
//!     8,  // dk
//!     42, // weight seed
//! )?;
//!
//! // 32 pages of 4 tokens; each cached token occupies a row in all 4
//! // layers, so a 6-token prompt costs 4 × ceil(6/4) = 8 pages.
//! let mut pool: PagePool<f64> = PagePool::new(32, 4);
//! let state = ModelKvState::allocate(&model, &mut pool);
//! let prompt = gaussian_matrix(6, 16, 1.0, 7);
//! let out = model.forward_prefill_chunked(&engine, &mut pool, &state, &prompt, 4)?;
//! assert_eq!(out.shape(), (6, 16));
//! assert_eq!(pool.pages_held(state.seq()), 8);
//!
//! // Decode one token: same path, a 1-row window.
//! let tok = gaussian_matrix(1, 16, 1.0, 8);
//! let next = model.forward_decode(&engine, &mut pool, &state, &tok)?;
//! assert_eq!(next.shape(), (1, 16));
//! assert_eq!(state.tokens(&pool), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`MultiHeadAttention`]: gpa_core::MultiHeadAttention

pub mod decoder;
pub mod error;
pub mod pattern;

pub use decoder::{DecoderModel, ModelAdvance, ModelKvState, ModelWorkItem};
pub use error::ModelError;
pub use pattern::LayerPattern;
