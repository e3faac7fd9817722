#![warn(missing_docs)]
//! # gpa-tensor — dense numeric substrate
//!
//! Foundation types for the graph-processing attention workspace:
//!
//! - [`Real`]: the f32/f64 scalar abstraction every kernel is generic over;
//! - [`Matrix`]: row-major dense matrices (`Q`, `K`, `V`, `O` are `L×d`);
//! - [`softmax`]: online-softmax primitives (Algorithm 1's `(m, l)`
//!   recurrence), whose continued stream makes sequential kernel
//!   composition exact;
//! - [`init`]: seeded workload generators matching the paper's uniform
//!   `[0, 1)` inputs;
//! - [`ops`]: dot products, the row tile's block maximum, softmax weights
//!   and value fold, and the projections' row-block matmul.

#[cfg(any(target_arch = "x86_64", test))]
mod expf;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod real;
pub mod softmax;

pub use matrix::{allclose, paper_allclose, Matrix};
pub use real::{attention_scale, Real};
pub use softmax::{OnlineSoftmaxState, SoftmaxUpdate};
