//! Kernel launch options.
//!
//! [`KernelOptions`] parameterizes one launch. Applications configure the
//! same knobs once on an [`crate::AttentionEngine`] (whose
//! [`crate::AttentionEngine::options`] produces this struct); options are
//! built by hand only to sweep schedules or attach an ad-hoc counter
//! through [`crate::AttentionEngine::run_batch_with`], or to call a dense
//! baseline directly.

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

    /// Select a scheduling policy.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Override the attention scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = Some(scale);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = WorkCounter::new();
        let o = KernelOptions::new()
            .with_schedule(Schedule::StaticContiguous)
            .with_scale(1.0)
            .with_counter(&c);
        assert_eq!(o.schedule, Schedule::StaticContiguous);
        assert_eq!(o.scale, Some(1.0));
        assert!(o.counter.is_some());
    }
}
