//! Uniform kernel dispatch — one name per algorithm the paper benchmarks.
//!
//! The benchmark harness, the multi-head layer, and the examples all select
//! algorithms at runtime; [`AttentionKernel`] is that selector — a value,
//! not a launcher: it names a row rule and its geometry constraints, and
//! [`crate::AttentionEngine`] runs it. Graph kernels (everything except the
//! dense baselines) are *composable*: the steps of one
//! [`crate::AttentionPlan`] chain per row on one shared softmax state,
//! which is how Fig. 6's "Loc + Glo" and "Loc + Glo + CSR" series are
//! produced.

use crate::driver::NeighborSink;
use crate::error::AttnError;
use crate::kernels::CooSearch;
use crate::plan::GeometrySpec;
use crate::routing::Routing;
use gpa_masks::GlobalSet;
use gpa_parallel::WorkCounter;
use gpa_sparse::{CooMask, CsrMask, DenseMask, DiaMask};

/// An attention algorithm selection.
#[derive(Clone, Copy)]
pub enum AttentionKernel<'a> {
    /// Explicit COO mask with the given row-bound search strategy.
    Coo(&'a CooMask, CooSearch),
    /// Explicit CSR mask.
    Csr(&'a CsrMask),
    /// Explicit DIA (diagonal-band) mask.
    Dia(&'a DiaMask),
    /// Implicit local window (`|i−j| ≤ n`).
    Local {
        /// Window per direction.
        n: usize,
    },
    /// Implicit 1-D dilated window.
    Dilated1d {
        /// Window width (strict).
        w: usize,
        /// Dilation factor.
        r: usize,
    },
    /// Implicit 2-D dilated diagonal blocks.
    Dilated2d {
        /// Block edge length.
        block_size: usize,
        /// Dilation factor.
        r: usize,
    },
    /// Implicit global-minus-local attention.
    Global {
        /// Global token set.
        globals: &'a GlobalSet,
        /// Local window subtracted from the global rows/columns.
        n_sub: usize,
    },
    /// Content-adaptive routed block-diagonal attention: tokens are
    /// routed into `groups` timelines by the seeded scorer
    /// ([`crate::Router`]) and each query attends its own group. The
    /// kernel holds only the `(groups, seed)` configuration; the
    /// per-sequence [`crate::Routing`] rides on the request (or is
    /// computed from `Q` by [`crate::AttentionEngine::run`]), so one
    /// compiled plan serves many differently-routed sequences in one
    /// launch.
    Routed {
        /// Number of groups tokens are routed into (positive).
        groups: usize,
        /// Seed of the router's projection directions.
        seed: u64,
        /// Restrict each row to group members at or before it — the
        /// prefill/decode-consistent variant.
        causal: bool,
    },
    /// Dense masked SDP baseline (not composable).
    SdpMasked(&'a DenseMask),
    /// Dense FlashAttention baseline (not composable).
    Flash,
}

impl AttentionKernel<'_> {
    /// Short display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            AttentionKernel::Coo(_, CooSearch::Linear) => "COO",
            AttentionKernel::Coo(_, CooSearch::Binary) => "COO (binary search)",
            AttentionKernel::Csr(_) => "CSR",
            AttentionKernel::Dia(_) => "DIA",
            AttentionKernel::Local { .. } => "Local",
            AttentionKernel::Dilated1d { .. } => "Dilated-1D",
            AttentionKernel::Dilated2d { .. } => "Dilated-2D",
            AttentionKernel::Global { .. } => "Global",
            AttentionKernel::Routed { .. } => "Routed",
            AttentionKernel::SdpMasked(_) => "PyTorch SDP (Masked)",
            AttentionKernel::Flash => "FlashAttention",
        }
    }

    /// True for graph kernels that can share a [`crate::AttentionState`].
    pub fn is_composable(&self) -> bool {
        !matches!(self, AttentionKernel::SdpMasked(_) | AttentionKernel::Flash)
    }

    /// Validate kernel parameters that do not depend on the inputs — the
    /// checks an [`crate::plan::AttentionPlan`] performs once at compile
    /// time instead of on every launch.
    pub(crate) fn validate_params(&self) -> Result<(), AttnError> {
        match self {
            AttentionKernel::Dilated1d { w: 0, .. } => Err(AttnError::BadParameter {
                what: "dilated window width w must be positive",
            }),
            AttentionKernel::Dilated2d { block_size: 0, .. } => Err(AttnError::BadParameter {
                what: "block_size must be positive",
            }),
            AttentionKernel::Routed { groups: 0, .. } => Err(AttnError::BadParameter {
                what: "routed group count must be positive",
            }),
            _ => Ok(()),
        }
    }

    /// The geometry constraints this kernel imposes on a query window,
    /// merged across steps by [`crate::plan::AttentionPlan::new`]:
    ///
    /// - explicit masks (COO/CSR) are indexed by **absolute** query row, so
    ///   they bound `q_offset + q_rows` by their row count and pin
    ///   `kv_rows` to their column count;
    /// - Global and DIA pin `kv_rows` to their context length and require
    ///   a window (`q_offset + q_rows ≤ kv_rows`);
    /// - the implicit patterns require only a window;
    /// - the dense baselines run exclusively at the full square geometry.
    pub(crate) fn geometry_spec(&self) -> GeometrySpec {
        let mut spec = GeometrySpec::default();
        match self {
            AttentionKernel::Coo(mask, _) => {
                spec.kv_pin = Some(mask.cols());
                spec.q_abs_bound = Some(mask.rows());
            }
            AttentionKernel::Csr(mask) => {
                spec.kv_pin = Some(mask.cols());
                spec.q_abs_bound = Some(mask.rows());
            }
            AttentionKernel::Dia(mask) => {
                spec.kv_pin = Some(mask.context_len());
                spec.requires_window = true;
            }
            AttentionKernel::Global { globals, .. } => {
                spec.kv_pin = Some(globals.context_len());
                spec.requires_window = true;
            }
            AttentionKernel::SdpMasked(mask) => {
                spec.kv_pin = Some(mask.cols());
                spec.q_pin = Some(mask.rows());
                spec.requires_square = true;
            }
            AttentionKernel::Local { .. }
            | AttentionKernel::Dilated1d { .. }
            | AttentionKernel::Dilated2d { .. }
            | AttentionKernel::Routed { .. } => {
                spec.requires_window = true;
            }
            AttentionKernel::Flash => {
                spec.requires_square = true;
            }
        }
        spec
    }

    /// Enumerate (ascending) the neighbors of **absolute** query row `i`
    /// under key/value set size `kv_len` — the public form of the per-row
    /// rule, used to estimate a plan's edges
    /// ([`crate::AttentionPlan::estimated_edges`]) without materializing
    /// the kernel's full pattern.
    ///
    /// # Panics
    /// Panics on dense baselines (they have no sparse row rule), on
    /// [`AttentionKernel::Routed`] (its rule needs a per-sequence
    /// [`Routing`] — use [`Self::for_each_neighbor_with`]), and, for the
    /// implicit kernels, if `i >= kv_len` (outside the logical square).
    pub fn for_each_neighbor(&self, kv_len: usize, i: usize, f: &mut dyn FnMut(usize)) {
        assert!(
            !matches!(self, AttentionKernel::Routed { .. }),
            "a routed kernel's row rule needs its sequence's Routing"
        );
        self.for_each_neighbor_with(kv_len, i, None, f);
    }

    /// As [`Self::for_each_neighbor`], with the per-sequence [`Routing`] a
    /// routed kernel enumerates from. Non-routed kernels ignore `routing`.
    ///
    /// # Panics
    /// Panics on dense baselines, on a routed kernel given no routing (or
    /// one too short to cover row `i`), and, for the implicit kernels, if
    /// `i >= kv_len`.
    pub fn for_each_neighbor_with(
        &self,
        kv_len: usize,
        i: usize,
        routing: Option<&Routing>,
        f: &mut dyn FnMut(usize),
    ) {
        assert!(
            self.is_composable(),
            "dense baselines have no per-row neighbor rule"
        );
        self.stream_row(kv_len, i, routing, None, &mut |j| f(j));
    }

    /// Stream **absolute** row `i`'s neighbors under key/value set size
    /// `kv_len` — `Get_Neighbors(G, i, Pa)`, called by the one row loop
    /// once per plan step and row, so a launch interleaves many sequences
    /// and query windows. `counter` receives the COO linear-search cost;
    /// edge work is tallied by the caller from what its sink took. Dense
    /// baselines have no row rule.
    ///
    /// # Panics
    /// Panics on dense baselines; the plan layer never compiles them into
    /// a streamed step.
    pub(crate) fn stream_row(
        &self,
        kv_len: usize,
        i: usize,
        routing: Option<&Routing>,
        counter: Option<&WorkCounter>,
        sink: &mut impl NeighborSink,
    ) {
        use crate::kernels::{dia, explicit, implicit};
        match self {
            AttentionKernel::Coo(mask, search) => {
                explicit::coo_row(mask, *search, i, counter, sink)
            }
            AttentionKernel::Csr(mask) => explicit::csr_row(mask, i, sink),
            AttentionKernel::Dia(mask) => dia::dia_row(mask, i, sink),
            AttentionKernel::Local { n } => implicit::local_row(kv_len, *n, i, sink),
            AttentionKernel::Dilated1d { w, r } => implicit::dilated1d_row(kv_len, *w, *r, i, sink),
            AttentionKernel::Dilated2d { block_size, r } => {
                implicit::dilated2d_row(kv_len, *block_size, *r, i, sink)
            }
            AttentionKernel::Global { globals, n_sub } => {
                implicit::global_row(kv_len, globals, *n_sub, i, sink)
            }
            AttentionKernel::Routed { causal, .. } => {
                let routing = routing.expect("a routed step needs its sequence's Routing");
                assert!(
                    routing.len() > i,
                    "routing covers {} tokens but row {i} was requested",
                    routing.len()
                );
                crate::routing::routed_row(routing, *causal, i, sink)
            }
            AttentionKernel::SdpMasked(_) | AttentionKernel::Flash => {
                unreachable!("dense baselines are executed whole, not streamed per row")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttentionEngine, AttentionPlan, AttentionRequest};
    use gpa_masks::{GlobalMinusLocal, LocalWindow, MaskPattern, RandomUniform, Union};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn names_and_composability() {
        let csr = LocalWindow::new(4, 1).to_csr();
        assert_eq!(AttentionKernel::Csr(&csr).name(), "CSR");
        assert!(AttentionKernel::Csr(&csr).is_composable());
        assert!(!AttentionKernel::Flash.is_composable());
        assert_eq!(AttentionKernel::Local { n: 1 }.name(), "Local");
        let dia = DiaMask::local(4, 1);
        assert_eq!(AttentionKernel::Dia(&dia).name(), "DIA");
        assert!(AttentionKernel::Dia(&dia).is_composable());
    }

    #[test]
    fn local_then_global_equals_csr_of_longformer_union() {
        // The Fig. 6 equivalence: Loc ∘ Glo == CSR(local ∪ global).
        let l = 40;
        let n = 3;
        let (q, k, v) = qkv::<f64>(l, 8, 55);
        let e = engine();
        let globals = GlobalSet::new(l, vec![0, 17, 29]);
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            },
        ])
        .unwrap();
        let composed = e.run(&plan, &q, &k, &v).unwrap();

        let union = Union::new(
            LocalWindow::new(l, n),
            gpa_masks::GlobalMask::new(globals.clone()),
        )
        .to_csr();
        let single = e
            .run_kernel(AttentionKernel::Csr(&union), &q, &k, &v)
            .unwrap();
        assert!(paper_allclose(&composed, &single));
    }

    #[test]
    fn three_way_bigbird_composition_matches_union() {
        // Loc ∘ Glo ∘ CSR(random ∖ covered) == CSR(local ∪ global ∪ random).
        let l = 36;
        let n = 2;
        let (q, k, v) = qkv::<f64>(l, 8, 56);
        let e = engine();
        let globals = GlobalSet::new(l, vec![0, 18]);
        let local = LocalWindow::new(l, n);
        let gml = GlobalMinusLocal::new(globals.clone(), n);
        let random = RandomUniform::new(l, 0.05, 4);

        // Random edges not already covered by local/global parts.
        let covered = local.to_csr().union(&gml.to_csr());
        let random_rest = random.to_csr().difference(&covered);
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            },
            AttentionKernel::Csr(&random_rest),
        ])
        .unwrap();
        let composed = e.run(&plan, &q, &k, &v).unwrap();

        let union = covered.union(&random.to_csr());
        let single = e
            .run_kernel(AttentionKernel::Csr(&union), &q, &k, &v)
            .unwrap();
        assert!(paper_allclose(&composed, &single));
    }

    #[test]
    fn baselines_refuse_shared_state() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let plan = AttentionPlan::single(AttentionKernel::Flash).unwrap();
        let err = engine()
            .run_batch_states(&plan, &[AttentionRequest::new(&q, &k, &v)])
            .unwrap_err();
        assert!(matches!(err, AttnError::BadParameter { .. }));
    }
}
