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
    /// block-to-SM assignment in the load-imbalance experiments.
    pub schedule: Schedule,
    /// Optional work counter. When set, kernels tally one dot product and
    /// one output update per absorbed edge (plus COO search steps), which
    /// the work-optimality tests compare against the mask's nnz.
    pub counter: Option<&'a WorkCounter>,
    /// Override for the attention scale. `None` uses Eq. (1)'s `1/√dk`.
    pub scale: Option<f64>,
}

impl<'a> KernelOptions<'a> {
    /// Default options (dynamic schedule, no instrumentation, `1/√dk`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a work counter.
    pub fn with_counter(mut self, counter: &'a WorkCounter) -> Self {
        self.counter = Some(counter);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = WorkCounter::new();
        let o = KernelOptions::new().with_counter(&c);
        assert_eq!(o.schedule, Schedule::default());
        assert_eq!(o.scale, None);
        assert!(o.counter.is_some());
    }
}
