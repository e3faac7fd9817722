//! Compiled attention plans — validate once, execute many times.
//!
//! A plan is a kernel composition as a first-class value: the Fig. 6
//! "Loc + Glo + CSR" chaining — the paper's sequential kernel calls on one
//! [`crate::AttentionState`] — compiles into an [`AttentionPlan`] whose
//! geometry constraints and parameters are checked **once**. The [`crate::AttentionEngine`] then
//! executes the plan against single sequences, ragged batches, prefill
//! chunks, and KV-cached decode rows without re-deriving per-step
//! constraints per launch — the same compiled plan serves every
//! [`crate::Geometry`] its kernels admit, which is how one
//! implicit-kernel plan outlives thousands of requests *and* every decode
//! step of each.

use crate::batch::AttentionRequest;
use crate::dispatch::AttentionKernel;
use crate::error::AttnError;
use crate::routing::RoutedSpec;
use gpa_tensor::Real;

/// Merged geometry constraints of a plan's steps, computed once at compile
/// time and checked in O(1) per request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct GeometrySpec {
    /// Exact `kv_rows` required (explicit mask columns, global/DIA context
    /// length).
    pub kv_pin: Option<usize>,
    /// Upper bound on the absolute query range `q_offset + q_rows`
    /// (explicit mask rows — masks are indexed by absolute query row).
    pub q_abs_bound: Option<usize>,
    /// Queries must lie inside the logical square
    /// (`q_offset + q_rows ≤ kv_rows`) — every implicit kernel.
    pub requires_window: bool,
}

impl GeometrySpec {
    /// Merge another step's constraints into this spec, rejecting
    /// contradictions (two masks pinning different key/value lengths).
    fn merge(&mut self, other: GeometrySpec) -> Result<(), AttnError> {
        match (self.kv_pin, other.kv_pin) {
            (Some(a), Some(b)) if a != b => {
                return Err(AttnError::MaskShapeMismatch { mask: (b, b), l: a });
            }
            (None, Some(b)) => self.kv_pin = Some(b),
            _ => {}
        }
        self.q_abs_bound = match (self.q_abs_bound, other.q_abs_bound) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.requires_window |= other.requires_window;
        Ok(())
    }
}

/// A validated, reusable kernel composition.
///
/// Build one with [`AttentionPlan::new`] (or
/// [`crate::AttentionEngine::compile`]). Steps run in order against one
/// shared softmax state per sequence, so a multi-step plan over pairwise
/// disjoint masks computes exact attention over their union — the paper's
/// sequential-composition semantics, now launched as **one** parallel
/// region instead of one per step.
#[derive(Clone)]
pub struct AttentionPlan<'a> {
    steps: Vec<AttentionKernel<'a>>,
    spec: GeometrySpec,
    /// The shared `(groups, seed)` of the plan's routed steps, if any.
    routing: Option<RoutedSpec>,
    /// True when a routed step is noncausal — its rows attend group
    /// members *ahead* of them, so a request must route its whole
    /// key/value set, not just the rows up to its query window.
    routed_full_kv: bool,
}

impl<'a> AttentionPlan<'a> {
    /// Compile a kernel composition into a plan.
    ///
    /// Validation performed here (and never again at execution time):
    ///
    /// - the composition is non-empty;
    /// - kernel parameters are well-formed (positive dilated widths /
    ///   block sizes, a positive routed group count);
    /// - the steps' geometry constraints merge consistently: masks pinning
    ///   a key/value length agree on one value;
    /// - routed steps share one `(groups, seed)`.
    pub fn new(kernels: &[AttentionKernel<'a>]) -> Result<Self, AttnError> {
        if kernels.is_empty() {
            return Err(AttnError::BadParameter {
                what: "a plan needs at least one kernel",
            });
        }
        let mut spec = GeometrySpec::default();
        let mut routing: Option<RoutedSpec> = None;
        let mut routed_full_kv = false;
        for kernel in kernels {
            kernel.validate_params()?;
            spec.merge(kernel.geometry_spec())?;
            if let AttentionKernel::Routed {
                groups,
                seed,
                causal,
            } = kernel
            {
                let this = RoutedSpec {
                    groups: *groups,
                    seed: *seed,
                };
                match routing {
                    Some(prev) if prev != this => {
                        return Err(AttnError::RoutingMismatch {
                            what: "routed steps of one plan must share groups and seed",
                        });
                    }
                    _ => routing = Some(this),
                }
                routed_full_kv |= !causal;
            }
        }
        Ok(AttentionPlan {
            steps: kernels.to_vec(),
            spec,
            routing,
            routed_full_kv,
        })
    }

    /// Single-kernel plan.
    pub fn single(kernel: AttentionKernel<'a>) -> Result<Self, AttnError> {
        Self::new(std::slice::from_ref(&kernel))
    }

    /// The compiled steps, in execution order.
    pub fn steps(&self) -> &[AttentionKernel<'a>] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// A compiled plan is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `kv_rows` value pinned by the plan's masks, if any. `None`
    /// means the plan runs at any key/value length — the property that
    /// lets one implicit-kernel plan serve a ragged batch *and* every step
    /// of a growing decode cache.
    pub fn kv_pin(&self) -> Option<usize> {
        self.spec.kv_pin
    }

    /// Upper bound on the absolute query range (`q_offset + q_rows`)
    /// imposed by explicit masks, if any.
    pub fn q_bound(&self) -> Option<usize> {
        self.spec.q_abs_bound
    }

    /// True if the plan's queries must lie inside the logical square
    /// (`q_offset + q_rows ≤ kv_rows`) — any implicit-kernel step.
    pub fn requires_window(&self) -> bool {
        self.spec.requires_window
    }

    /// The `(groups, seed)` shared by the plan's routed steps, if any —
    /// `None` for a fully static plan. Requests against a routed plan
    /// must carry a [`crate::Routing`] built under exactly this spec.
    pub fn routing_spec(&self) -> Option<RoutedSpec> {
        self.routing
    }

    /// True when a routed step is noncausal, requiring a request's
    /// routing to cover its **whole** key/value set (causal-only routed
    /// plans need routing only up to the query window's end, which is
    /// what lets a decode row run with the routing grown so far).
    pub fn routed_full_kv(&self) -> bool {
        self.routed_full_kv
    }

    /// Estimated mask non-zeros (edges = dot products) of one sequence of
    /// length `l` under this plan — the admission cost model behind
    /// content-adaptive pattern selection. Static steps are enumerated
    /// exactly through their row rules (clamped to any pinned geometry);
    /// routed steps are analytic expectations, `l²/K` (halved when
    /// causal), since the actual grouping depends on data the policy has
    /// not routed yet.
    pub fn estimated_edges(&self, l: usize) -> u64 {
        self.steps
            .iter()
            .map(|step| match step {
                AttentionKernel::Routed { groups, causal, .. } => {
                    let block = (l as u64) * (l as u64) / (*groups as u64).max(1);
                    if *causal {
                        block.div_ceil(2)
                    } else {
                        block
                    }
                }
                _ => {
                    let kv = self.spec.kv_pin.unwrap_or(l).min(l);
                    let rows = self.spec.q_abs_bound.unwrap_or(kv).min(kv);
                    let mut edges = 0u64;
                    for i in 0..rows {
                        step.for_each_neighbor(kv, i, None, &mut |_| edges += 1);
                    }
                    edges
                }
            })
            .sum()
    }

    /// Display label: step names joined with `" + "`, matching the paper's
    /// figure legends (`"Local + Global + CSR"`).
    pub fn describe(&self) -> String {
        self.steps
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Validate one request's inputs and window against the plan — the
    /// per-request half of validation (the per-plan half ran in
    /// [`Self::new`]). O(1) regardless of step count. The query rows are
    /// read off the request's geometry: the window must be a row range of
    /// its `Q`, so nothing past `Q`'s rows is ever read. `K` and `V` must
    /// hold equally many rows, at least `kv_rows` of them; every
    /// constructor sets `kv_rows` to exactly that count.
    pub(crate) fn validate_request<T: Real>(
        &self,
        request: &AttentionRequest<'_, T>,
    ) -> Result<(), AttnError> {
        let AttentionRequest {
            q, k, v, geometry, ..
        } = *request;
        let in_q = request
            .q_start
            .checked_add(geometry.q_rows)
            .is_some_and(|end| end <= q.rows());
        if !in_q || k.rows() != v.rows() || geometry.kv_rows > k.rows() {
            return Err(AttnError::ContextLengthMismatch {
                q: q.rows(),
                k: k.rows(),
                v: v.rows(),
            });
        }
        if q.cols() != k.cols() {
            return Err(AttnError::KeyDimMismatch {
                q: q.cols(),
                k: k.cols(),
            });
        }
        if q.cols() == 0 {
            return Err(AttnError::BadParameter {
                what: "dk must be positive",
            });
        }
        if let Some(pin) = self.spec.kv_pin {
            if geometry.kv_rows != pin {
                return Err(AttnError::MaskShapeMismatch {
                    mask: (self.spec.q_abs_bound.unwrap_or(pin), pin),
                    l: geometry.kv_rows,
                });
            }
        }
        if let Some(bound) = self.spec.q_abs_bound {
            if geometry.q_end() > bound {
                return Err(AttnError::MaskShapeMismatch {
                    mask: (bound, self.spec.kv_pin.unwrap_or(bound)),
                    l: geometry.q_end(),
                });
            }
        }
        if self.spec.requires_window {
            geometry.check_window()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for AttentionPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttentionPlan")
            .field("steps", &self.describe())
            .field("kv_pin", &self.spec.kv_pin)
            .field("q_bound", &self.spec.q_abs_bound)
            .field("requires_window", &self.spec.requires_window)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_masks::{GlobalSet, LocalWindow, MaskPattern};
    use gpa_tensor::init::qkv;
    use gpa_tensor::Matrix;

    fn validate_square<'a, T: Real>(
        plan: &AttentionPlan<'_>,
        q: &'a Matrix<T>,
        k: &'a Matrix<T>,
        v: &'a Matrix<T>,
    ) -> Result<(), AttnError> {
        plan.validate_request(&AttentionRequest::new(q, k, v))
    }

    #[test]
    fn empty_plan_rejected() {
        assert!(matches!(
            AttentionPlan::new(&[]),
            Err(AttnError::BadParameter { .. })
        ));
    }

    #[test]
    fn parameter_validation_happens_at_compile_time() {
        assert!(matches!(
            AttentionPlan::single(AttentionKernel::Dilated1d { w: 0, r: 1 }),
            Err(AttnError::BadParameter { .. })
        ));
        assert!(matches!(
            AttentionPlan::single(AttentionKernel::Dilated2d {
                block_size: 0,
                r: 1
            }),
            Err(AttnError::BadParameter { .. })
        ));
    }

    #[test]
    fn geometry_consistency_across_steps() {
        let a = LocalWindow::new(16, 1).to_csr();
        let b = LocalWindow::new(24, 1).to_csr();
        // Two explicit masks agreeing on shape: fine.
        let plan =
            AttentionPlan::new(&[AttentionKernel::Csr(&a), AttentionKernel::Csr(&a)]).unwrap();
        assert_eq!(plan.kv_pin(), Some(16));
        assert_eq!(plan.q_bound(), Some(16));
        assert_eq!(plan.len(), 2);
        // Disagreeing key/value lengths: rejected at compile time.
        assert!(matches!(
            AttentionPlan::new(&[AttentionKernel::Csr(&a), AttentionKernel::Csr(&b)]),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    #[test]
    fn implicit_plans_run_at_any_length_and_any_window() {
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n: 2 },
            AttentionKernel::Dilated1d { w: 5, r: 1 },
        ])
        .unwrap();
        assert!(plan.kv_pin().is_none());
        assert!(plan.requires_window());
        let (q, k, v) = qkv::<f64>(12, 4, 0);
        validate_square(&plan, &q, &k, &v).unwrap();
        let (q2, k2, v2) = qkv::<f64>(40, 4, 0);
        validate_square(&plan, &q2, &k2, &v2).unwrap();
        // A prefill chunk and a decode row validate against the same plan.
        let chunk = q2.rows_slice(8, 20);
        plan.validate_request(&AttentionRequest::windowed(&chunk, &k2, &v2, 8))
            .unwrap();
        let last = q2.rows_slice(39, 40);
        plan.validate_request(&AttentionRequest::decode(&last, &k2, &v2))
            .unwrap();
        // But the window must stay inside the logical square.
        assert!(matches!(
            plan.validate_request(&AttentionRequest::windowed(&chunk, &k2, &v2, 30)),
            Err(AttnError::WindowMismatch { .. })
        ));
    }

    #[test]
    fn global_set_pins_the_kv_length() {
        let globals = GlobalSet::new(20, vec![0]);
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n: 2 },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: 2,
            },
        ])
        .unwrap();
        assert_eq!(plan.kv_pin(), Some(20));
        assert_eq!(plan.describe(), "Local + Global");
        let (q, k, v) = qkv::<f64>(12, 4, 0);
        assert!(matches!(
            validate_square(&plan, &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
        // A query window against the pinned length is fine.
        let (q20, k20, v20) = qkv::<f64>(20, 4, 0);
        let win = q20.rows_slice(5, 12);
        plan.validate_request(&AttentionRequest::windowed(&win, &k20, &v20, 5))
            .unwrap();
    }

    #[test]
    fn request_validation_catches_bad_inputs() {
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let (q, k, _) = qkv::<f64>(8, 4, 0);
        let (_, _, v_wrong) = qkv::<f64>(9, 4, 0);
        assert!(matches!(
            validate_square(&plan, &q, &k, &v_wrong),
            Err(AttnError::ContextLengthMismatch { .. })
        ));
        let (q2, _, _) = qkv::<f64>(8, 6, 0);
        let (_, k2, v2) = qkv::<f64>(8, 4, 0);
        assert!(matches!(
            validate_square(&plan, &q2, &k2, &v2),
            Err(AttnError::KeyDimMismatch { .. })
        ));
    }

    #[test]
    fn rectangular_mask_composes_with_implicit_kernels_as_a_window() {
        // Since the geometry refactor, a rectangular CSR (4 query rows over
        // 8 keys, indexed by absolute row) composes with implicit kernels:
        // the pair runs as a query window of the logical 8×8 problem.
        let rect = gpa_sparse::CsrMask::empty(4, 8);
        let plan =
            AttentionPlan::new(&[AttentionKernel::Csr(&rect), AttentionKernel::Local { n: 1 }])
                .unwrap();
        assert_eq!(plan.kv_pin(), Some(8));
        assert_eq!(plan.q_bound(), Some(4));
        assert!(plan.requires_window());
        let (q8, k8, v8) = qkv::<f64>(8, 4, 0);
        let win = q8.rows_slice(0, 4);
        plan.validate_request(&AttentionRequest::windowed(&win, &k8, &v8, 0))
            .unwrap();
        // Queries beyond the mask's absolute row bound are rejected.
        let deep = q8.rows_slice(2, 6);
        assert!(matches!(
            plan.validate_request(&AttentionRequest::windowed(&deep, &k8, &v8, 2)),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    #[test]
    fn routed_steps_must_share_one_spec() {
        let routed = AttentionKernel::Routed {
            groups: 4,
            seed: 7,
            causal: true,
        };
        let plan = AttentionPlan::new(&[AttentionKernel::Local { n: 2 }, routed]).unwrap();
        assert_eq!(plan.routing_spec(), Some(RoutedSpec { groups: 4, seed: 7 }));
        assert!(!plan.routed_full_kv(), "causal-only plan");
        assert!(plan.requires_window());
        assert_eq!(plan.describe(), "Local + Routed");

        // A noncausal routed step flips the full-KV requirement.
        let noncausal = AttentionKernel::Routed {
            groups: 4,
            seed: 7,
            causal: false,
        };
        let plan = AttentionPlan::new(&[routed, noncausal]).unwrap();
        assert!(plan.routed_full_kv());

        // Disagreeing specs are rejected at compile time.
        let other = AttentionKernel::Routed {
            groups: 8,
            seed: 7,
            causal: true,
        };
        assert!(matches!(
            AttentionPlan::new(&[routed, other]),
            Err(AttnError::RoutingMismatch { .. })
        ));
        // Zero groups are a parameter error, caught before geometry.
        assert!(matches!(
            AttentionPlan::single(AttentionKernel::Routed {
                groups: 0,
                seed: 1,
                causal: false,
            }),
            Err(AttnError::BadParameter { .. })
        ));
        // Static plans report no routing spec.
        let plain = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
        assert_eq!(plain.routing_spec(), None);
    }

    #[test]
    fn estimated_edges_rank_patterns_sensibly() {
        let l = 128;
        let local = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
        // Local n=2: rows attend up to 5 neighbors — exact enumeration.
        let edges = local.estimated_edges(l);
        assert!(edges > 0 && edges <= 5 * l as u64);
        let routed = AttentionPlan::single(AttentionKernel::Routed {
            groups: 4,
            seed: 1,
            causal: false,
        })
        .unwrap();
        assert_eq!(
            routed.estimated_edges(l),
            (l as u64 * l as u64) / 4,
            "routed expectation is l²/K"
        );
        let causal = AttentionPlan::single(AttentionKernel::Routed {
            groups: 4,
            seed: 1,
            causal: true,
        })
        .unwrap();
        assert_eq!(causal.estimated_edges(l), (l as u64 * l as u64) / 8);
        // The cost model orders sparse-local < routed < dense (`l²`).
        assert!(local.estimated_edges(l) < causal.estimated_edges(l));
        assert!(routed.estimated_edges(l) < l as u64 * l as u64);
    }
}
