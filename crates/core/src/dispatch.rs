//! Uniform kernel dispatch — one name per algorithm the paper benchmarks.
//!
//! The benchmark harness, the multi-head layer, and the examples all select
//! algorithms at runtime; [`AttentionKernel`] is that selector — a value,
//! not a launcher: it names a row rule and its geometry constraints, and
//! [`crate::AttentionEngine`] runs it. Every kernel is a graph row rule,
//! so every kernel composes: the steps of one [`crate::AttentionPlan`]
//! chain per row on one shared softmax state, which is how Fig. 6's
//! "Loc + Glo" and "Loc + Glo + CSR" series are produced. The dense
//! baselines the paper compares against are not kernels here; they are
//! the plain functions [`crate::masked_sdp`] and
//! [`crate::flash_attention`].
//!
//! A variant's row rule is `Get_Neighbors(G, i, Pa)` of Algorithm 1: it
//! streams one absolute query row's neighbors, ascending, into the row
//! tile of the one row loop (`batch::launch_rows`). Each graph is defined
//! once: the implicit variants stream the same `stream_row` function that
//! builds their pattern's CSR in `gpa-masks`, and DIA streams
//! `gpa-sparse`'s own row enumerator.
//!
//! | Variant | Mask | Rule streamed |
//! |---|---|---|
//! | `Coo` (linear / binary search) | explicit | `kernels::explicit::coo_row` |
//! | `Csr` | explicit | [`CsrMask::row`], handed over whole |
//! | `Dia` | explicit, `O(#diagonals)` | [`DiaMask::row_neighbors`] |
//! | `Local` | implicit | [`LocalWindow::stream_row`] |
//! | `Dilated1d` | implicit | [`Dilated1d::stream_row`] |
//! | `Dilated2d` | implicit | [`Dilated2d::stream_row`] |
//! | `Global` (non-local) | implicit | [`GlobalMinusLocal::stream_row`] |

use crate::driver::NeighborSink;
use crate::error::AttnError;
use crate::kernels::CooSearch;
use crate::plan::GeometrySpec;
use gpa_masks::{Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow};
use gpa_parallel::WorkCounter;
use gpa_sparse::{CooMask, CsrMask, DiaMask};

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
        }
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
    /// - the implicit patterns require only a window.
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
            AttentionKernel::Local { .. }
            | AttentionKernel::Dilated1d { .. }
            | AttentionKernel::Dilated2d { .. } => {
                spec.requires_window = true;
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
    /// Panics, for the implicit kernels, if `i >= kv_len`.
    pub(crate) fn for_each_neighbor(&self, kv_len: usize, i: usize, f: &mut dyn FnMut(usize)) {
        self.stream_row(kv_len, i, None, &mut |j| f(j));
    }

    /// Absolute row `i`'s degree under key/value set size `kv_len`, or an
    /// upper bound of it, read off the row rule without streaming where
    /// one has a closed form: Local's window, a CSR row's length, a
    /// Global row's `kv_len` or else the global count. The other kernels
    /// count their stream. The one row loop sizes small launches by it.
    pub(crate) fn row_degree(&self, kv_len: usize, i: usize) -> usize {
        match self {
            AttentionKernel::Local { n } => {
                let (lo, hi) = LocalWindow::row_range(kv_len, *n, i);
                hi - lo + 1
            }
            AttentionKernel::Csr(mask) => mask.row(i).len(),
            AttentionKernel::Global { globals, .. } if globals.contains(i) => kv_len,
            AttentionKernel::Global { globals, .. } => globals.indices().len(),
            _ => {
                let mut degree = 0;
                self.for_each_neighbor(kv_len, i, &mut |_| degree += 1);
                degree
            }
        }
    }

    /// Stream **absolute** row `i`'s neighbors under key/value set size
    /// `kv_len` — `Get_Neighbors(G, i, Pa)`, called by the one row loop
    /// once per plan step and row, so a launch interleaves many sequences
    /// and query windows. `counter` receives the COO linear-search cost;
    /// edge work is tallied by the caller from what its sink took.
    pub(crate) fn stream_row(
        &self,
        kv_len: usize,
        i: usize,
        counter: Option<&WorkCounter>,
        sink: &mut impl NeighborSink,
    ) {
        use crate::kernels::explicit;
        let push = |j| sink.push(j);
        match self {
            AttentionKernel::Coo(mask, search) => {
                explicit::coo_row(mask, *search, i, counter, sink)
            }
            AttentionKernel::Csr(mask) => explicit::csr_row(mask, i, sink),
            AttentionKernel::Dia(mask) => mask.row_neighbors(i).for_each(push),
            AttentionKernel::Local { n } => LocalWindow::stream_row(kv_len, *n, i, push),
            AttentionKernel::Dilated1d { w, r } => Dilated1d::stream_row(kv_len, *w, *r, i, push),
            AttentionKernel::Dilated2d { block_size, r } => {
                Dilated2d::stream_row(kv_len, *block_size, *r, i, push)
            }
            AttentionKernel::Global { globals, n_sub } => {
                GlobalMinusLocal::stream_row(kv_len, globals, *n_sub, i, push)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testing::{assert_kernel_computes_mask, counting_engine};
    use crate::{AttentionEngine, AttentionPlan, AttentionRequest};
    use gpa_masks::{check_pattern_laws, longformer, MaskPattern, RandomUniform};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn names_and_composability() {
        let csr = LocalWindow::new(4, 1).to_csr();
        assert_eq!(AttentionKernel::Csr(&csr).name(), "CSR");
        assert_eq!(AttentionKernel::Local { n: 1 }.name(), "Local");
        let dia = DiaMask::local(4, 1);
        assert_eq!(AttentionKernel::Dia(&dia).name(), "DIA");
        // Every kernel is a row rule, so any two chain into one plan.
        let plan = AttentionPlan::new(&[
            AttentionKernel::Csr(&csr),
            AttentionKernel::Dia(&dia),
            AttentionKernel::Local { n: 1 },
        ])
        .unwrap();
        assert_eq!(plan.describe(), "CSR + DIA + Local");
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

        let union = longformer(l, n, vec![0, 17, 29]).to_csr();
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
    fn local_matches_csr_of_same_mask() {
        for n in [0usize, 1, 5, 63, 200] {
            let mask = LocalWindow::new(64, n).to_csr();
            assert_kernel_computes_mask(AttentionKernel::Local { n }, &mask, 16, &format!("n={n}"));
        }
    }

    #[test]
    fn dilated1d_matches_csr_of_same_mask() {
        for (w, r) in [(1usize, 0usize), (5, 1), (9, 2), (64, 3)] {
            let mask = Dilated1d::new(48, w, r).to_csr();
            let kernel = AttentionKernel::Dilated1d { w, r };
            assert_kernel_computes_mask(kernel, &mask, 8, &format!("w={w} r={r}"));
        }
    }

    #[test]
    fn dilated2d_matches_csr_of_same_mask() {
        for (block_size, r) in [(4usize, 0usize), (8, 1), (7, 2), (40, 1)] {
            let mask = Dilated2d::new(40, block_size, r).to_csr();
            let kernel = AttentionKernel::Dilated2d { block_size, r };
            assert_kernel_computes_mask(kernel, &mask, 8, &format!("bs={block_size} r={r}"));
        }
    }

    #[test]
    fn global_matches_csr_of_global_minus_local() {
        for g in [0usize, 1, 3] {
            for n_sub in [0usize, 2] {
                let globals = GlobalSet::evenly_spaced(36, g);
                let mask = GlobalMinusLocal::new(globals.clone(), n_sub).to_csr();
                let kernel = AttentionKernel::Global {
                    globals: &globals,
                    n_sub,
                };
                assert_kernel_computes_mask(kernel, &mask, 8, &format!("g={g} n={n_sub}"));
            }
        }
    }

    #[test]
    fn implicit_kernels_are_work_optimal() {
        let l = 30;
        let (q, k, v) = qkv::<f64>(l, 8, 25);
        let engine = counting_engine();
        let globals = GlobalSet::evenly_spaced(l, 2);
        let global = AttentionKernel::Global {
            globals: &globals,
            n_sub: 1,
        };
        for (kernel, nnz) in [
            (
                AttentionKernel::Local { n: 3 },
                LocalWindow::new(l, 3).nnz(),
            ),
            (
                AttentionKernel::Dilated1d { w: 7, r: 1 },
                Dilated1d::new(l, 7, 1).nnz(),
            ),
            (
                AttentionKernel::Dilated2d {
                    block_size: 6,
                    r: 1,
                },
                Dilated2d::new(l, 6, 1).nnz(),
            ),
            (
                global,
                GlobalMinusLocal::new(globals.clone(), 1).to_csr().nnz(),
            ),
        ] {
            engine.work_counter().unwrap().reset();
            let _ = engine.run_kernel(kernel, &q, &k, &v).unwrap();
            let report = engine.work_report().unwrap();
            assert_eq!(report.dot_products, nnz as u64, "{}", kernel.name());
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let engine = AttentionEngine::with_threads(4);
        assert!(matches!(
            engine.run_kernel(AttentionKernel::Dilated1d { w: 0, r: 1 }, &q, &k, &v),
            Err(AttnError::BadParameter { .. })
        ));
        let zero_block = AttentionKernel::Dilated2d {
            block_size: 0,
            r: 1,
        };
        assert!(matches!(
            engine.run_kernel(zero_block, &q, &k, &v),
            Err(AttnError::BadParameter { .. })
        ));
        let wrong_globals = GlobalSet::new(9, vec![0]);
        let global = AttentionKernel::Global {
            globals: &wrong_globals,
            n_sub: 0,
        };
        assert!(matches!(
            engine.run_kernel(global, &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    #[test]
    fn windowed_rows_are_bitwise_rows_of_the_square_run() {
        let l = 48;
        let (q, k, v) = qkv::<f64>(l, 8, 26);
        let engine = AttentionEngine::with_threads(4);
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 5 }).unwrap();
        let square = engine.run(&plan, &q, &k, &v).unwrap();
        let windows = [(0usize, 48usize), (0, 7), (13, 9), (47, 1)];
        let requests: Vec<_> = windows
            .iter()
            .map(|&(off, rows)| AttentionRequest::row_range(&q, off..off + rows, &k, &v, off))
            .collect();
        let outs = engine.run_batch(&plan, &requests).unwrap();
        for (&(off, rows), out) in windows.iter().zip(&outs) {
            for i in 0..rows {
                assert_eq!(out.row(i), square.row(off + i), "off={off} row={i}");
            }
        }
    }

    #[test]
    fn window_overhang_rejected() {
        let l = 16;
        let (q, k, v) = qkv::<f64>(l, 4, 27);
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
        // Six query rows placed at 11: 11 + 6 > 16.
        let overhang = AttentionRequest::row_range(&q, 10..16, &k, &v, 11);
        let err = AttentionEngine::with_threads(4)
            .run_batch(&plan, &[overhang])
            .unwrap_err();
        assert!(matches!(err, AttnError::WindowMismatch { .. }));
    }

    #[test]
    fn f32_kernels_match_f64_loosely() {
        let l = 64;
        let (q, k, v) = qkv::<f64>(l, 16, 30);
        let (q32, k32, v32) = (q.cast::<f32>(), k.cast::<f32>(), v.cast::<f32>());
        let engine = AttentionEngine::with_threads(4);
        let local = AttentionKernel::Local { n: 4 };
        let hi = engine.run_kernel(local, &q, &k, &v).unwrap();
        let lo = engine.run_kernel(local, &q32, &k32, &v32).unwrap();
        assert!(hi.max_abs_diff(&lo.cast::<f64>()) < 1e-5);
    }

    #[test]
    fn dia_matches_local_kernel() {
        for n in [0usize, 2, 7, 100] {
            let dia = DiaMask::local(60, n);
            let mask = LocalWindow::new(60, n).to_csr();
            assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &mask, 8, &format!("n={n}"));
        }
    }

    #[test]
    fn dia_matches_dilated_kernel() {
        for (w, r) in [(1usize, 0usize), (7, 1), (13, 3)] {
            let k = ((w - 1) / (r + 1)) as i64;
            let offsets = (-k..=k).map(|s| s * (r + 1) as i64).collect();
            let dia = DiaMask::new(48, offsets).unwrap();
            let mask = Dilated1d::new(48, w, r).to_csr();
            let what = format!("w={w} r={r}");
            assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &mask, 8, &what);
        }
    }

    #[test]
    fn arbitrary_band_matches_csr() {
        // An asymmetric multi-band mask no implicit kernel covers.
        let dia = DiaMask::new(40, vec![-20, -3, -1, 0, 2, 5, 30]).unwrap();
        assert_kernel_computes_mask(AttentionKernel::Dia(&dia), &dia.to_csr(), 8, "band");
    }

    #[test]
    fn dia_is_work_optimal() {
        let l = 36;
        let (q, k, v) = qkv::<f64>(l, 8, 44);
        let dia = DiaMask::new(l, vec![-5, 0, 1, 9]).unwrap();
        let engine = counting_engine();
        let _ = engine
            .run_kernel(AttentionKernel::Dia(&dia), &q, &k, &v)
            .unwrap();
        assert_eq!(engine.work_report().unwrap().dot_products, dia.nnz() as u64);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (q, k, v) = qkv::<f64>(8, 4, 0);
        let dia = DiaMask::local(9, 1);
        assert!(matches!(
            AttentionEngine::with_threads(4).run_kernel(AttentionKernel::Dia(&dia), &q, &k, &v),
            Err(AttnError::MaskShapeMismatch { .. })
        ));
    }

    /// A window, stride or block wider than the context saturates to the
    /// whole context: each kernel at `usize::MAX` computes, bit for bit,
    /// what it computes at `L`, and the matching patterns keep their laws.
    #[test]
    fn parameters_at_usize_max_equal_their_context_sized_twins() {
        let (l, max) = (64, usize::MAX);
        let (q, k, v) = qkv::<f32>(l, 8, 28);
        let engine = counting_engine();
        let globals = GlobalSet::evenly_spaced(l, 3);
        let global = |n_sub| AttentionKernel::Global {
            globals: &globals,
            n_sub,
        };
        let twins = [
            (
                AttentionKernel::Local { n: max },
                AttentionKernel::Local { n: l },
            ),
            (global(max), global(l)),
            (
                AttentionKernel::Dilated1d { w: 5, r: max },
                AttentionKernel::Dilated1d { w: 5, r: l },
            ),
            (
                AttentionKernel::Dilated1d { w: max, r: 1 },
                AttentionKernel::Dilated1d { w: 2 * l, r: 1 },
            ),
            (
                AttentionKernel::Dilated2d {
                    block_size: max,
                    r: max,
                },
                AttentionKernel::Dilated2d {
                    block_size: l,
                    r: l,
                },
            ),
        ];
        let bits = |kernel| {
            engine.work_counter().unwrap().reset();
            let out = engine.run_kernel(kernel, &q, &k, &v).unwrap();
            let dots = engine.work_report().unwrap().dot_products;
            let bits: Vec<u32> = out.as_slice().iter().map(|x| x.to_bits()).collect();
            (bits, dots)
        };
        for (wide, twin) in twins {
            assert_eq!(bits(wide), bits(twin), "{}", wide.name());
        }
        let patterns: [(Box<dyn MaskPattern>, Box<dyn MaskPattern>); 5] = [
            (
                Box::new(LocalWindow::new(l, max)),
                Box::new(LocalWindow::new(l, l)),
            ),
            (
                Box::new(GlobalMinusLocal::new(globals.clone(), max)),
                Box::new(GlobalMinusLocal::new(globals.clone(), l)),
            ),
            (
                Box::new(Dilated1d::new(l, 5, max)),
                Box::new(Dilated1d::new(l, 5, l)),
            ),
            (
                Box::new(Dilated1d::new(l, max, 1)),
                Box::new(Dilated1d::new(l, 2 * l, 1)),
            ),
            (
                Box::new(Dilated2d::new(l, max, max)),
                Box::new(Dilated2d::new(l, l, l)),
            ),
        ];
        for (wide, twin) in &patterns {
            check_pattern_laws(wide.as_ref());
            assert_eq!(wide.to_csr(), twin.to_csr());
        }
    }
}
