//! Kernel launch options.
//!
//! [`KernelOptions`] parameterizes one launch. Launch policy is set in one
//! place, the [`crate::AttentionEngine`] builder: the engine runs every
//! plan under [`crate::AttentionEngine::options`], and a dense baseline
//! called directly takes the same struct. A caller that sweeps schedules
//! builds one engine per schedule. The fields stay public for the
//! baselines' direct callers.

use gpa_parallel::{Schedule, WorkCounter};

/// Options shared by every attention kernel launch.
#[derive(Clone, Copy, Default)]
pub struct KernelOptions<'a> {
    /// Row-block scheduling policy. The default (dynamic, modest grain) is
    /// the best general-purpose choice; pass [`Schedule::cuda_like`] or
    /// [`Schedule::StaticContiguous`] to reproduce the paper's fixed
    /// block-to-SM assignment in the load-imbalance experiments. The
    /// batched row loop runs a fixed schedule as given; under `Dynamic` it
    /// lowers the grain of a launch too small to reach every thread when
    /// the launch's estimated edges clear a measured threshold (256), so
    /// that every thread gets a claim.
    pub schedule: Schedule,
    /// Optional work counter. When set, kernels tally one dot product per
    /// absorbed edge (plus COO search steps), which the work-optimality
    /// tests compare against the mask's nnz.
    pub counter: Option<&'a WorkCounter>,
}
