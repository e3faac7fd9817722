#![warn(missing_docs)]
//! # gpa-masks — attention-mask pattern library
//!
//! Every sparsity pattern the paper uses (Section II-C, Fig. 2), as *rules*
//! rather than materialized matrices:
//!
//! | Pattern | Paper term | Type |
//! |---|---|---|
//! | `\|i−j\| ≤ n` | Local / windowed | [`LocalWindow`] |
//! | `\|i−j\| < w ∧ \|i−j\| mod (r+1) = 0` | 1-D dilated windowed | [`Dilated1d`] |
//! | diagonal blocks, dilated within | 2-D dilated windowed | [`Dilated2d`] |
//! | `i ∈ G ∨ j ∈ G` | Global | [`GlobalMask`] |
//! | global minus a local window | Global (non-local) | [`GlobalMinusLocal`] |
//! | i.i.d. Bernoulli | Random | [`RandomUniform`] |
//!
//! Each ordered-sparsity pattern defines its row once, as a `stream_row`
//! function: the pattern's `append_row` calls it, and so do `gpa-core`'s
//! implicit kernels, so a pattern and its kernel cannot disagree.
//! [`combinators`] compose patterns by union; [`presets`] provide
//! Longformer, BigBird and LongNet exactly as benchmarked in Fig. 6 and
//! Table III; [`solve`] inverts nnz closed forms so benchmarks can sweep
//! the sparsity factor as the independent variable (Fig. 3).

pub mod combinators;
pub mod dilated;
pub mod global;
pub mod local;
pub mod pattern;
pub mod presets;
pub mod random;
pub mod solve;

pub use combinators::UnionAll;
pub use dilated::{Dilated1d, Dilated2d};
pub use global::{GlobalMask, GlobalMinusLocal, GlobalSet};
pub use local::LocalWindow;
pub use pattern::{check_pattern_laws, MaskPattern};
pub use presets::{
    bigbird, longformer, longformer_dilated, longnet_sparsity_factor, LongNetPattern,
};
pub use random::RandomUniform;
pub use solve::{
    dilated1d_width_for_sparsity, dilated2d_block_for_sparsity, global_count_for_sparsity,
    local_window_for_sparsity,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost law at scale: every sub-quadratic pattern, preset and
    /// combinator materializes at `L = 2²⁰` with at most `4·L` edges. A row
    /// rule that scanned its `L` columns would visit 10¹² cells here and
    /// never finish.
    #[test]
    fn to_csr_is_work_optimal_at_a_million_tokens() {
        let l = 1 << 20;
        let (g, p) = (|| GlobalSet::new(l, vec![0]), 1.0 / l as f64);
        let patterns: Vec<(&str, Box<dyn MaskPattern>)> = vec![
            ("local", Box::new(LocalWindow::new(l, 1))),
            ("dilated1d", Box::new(Dilated1d::new(l, 3, 1))),
            ("dilated2d", Box::new(Dilated2d::new(l, 4, 1))),
            ("global", Box::new(GlobalMask::new(g()))),
            (
                "global-minus-local",
                Box::new(GlobalMinusLocal::new(g(), 1)),
            ),
            ("random-uniform", Box::new(RandomUniform::new(l, p, 1))),
            ("longformer", Box::new(longformer(l, 0, vec![0]))),
            (
                "longformer-dilated",
                Box::new(longformer_dilated(l, 1, 1, Vec::new())),
            ),
            ("bigbird", Box::new(bigbird(l, 0, vec![0], p / 2.0, 1))),
            ("longnet", Box::new(LongNetPattern::new(l, 2, 2))),
            (
                "union",
                Box::new(UnionAll::new(vec![
                    Box::new(LocalWindow::new(l, 1)),
                    Box::new(RandomUniform::new(l, p, 3)),
                ])),
            ),
        ];
        for (name, pattern) in patterns {
            let nnz = pattern.to_csr().nnz();
            assert!((1..=4 * l).contains(&nnz), "{name}: nnz = {nnz}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pattern laws hold for randomly drawn parameters of each family.
        #[test]
        fn local_laws(l in 1usize..48, n in 0usize..64) {
            check_pattern_laws(&LocalWindow::new(l, n));
        }

        #[test]
        fn dilated1d_laws(l in 1usize..48, w in 0usize..64, r in 0usize..6) {
            check_pattern_laws(&Dilated1d::new(l, w, r));
        }

        #[test]
        fn dilated2d_laws(l in 1usize..48, bs in 1usize..32, r in 0usize..5) {
            check_pattern_laws(&Dilated2d::new(l, bs, r));
        }

        #[test]
        fn global_laws(l in 1usize..40, g in 0usize..8) {
            check_pattern_laws(&GlobalMask::new(GlobalSet::evenly_spaced(l, g)));
            check_pattern_laws(&GlobalMinusLocal::new(GlobalSet::evenly_spaced(l, g), 2));
        }

        /// The solver's achieved sparsity is locally optimal: no neighboring
        /// window does strictly better for the local family.
        #[test]
        fn local_solver_is_optimal(l in 64usize..512, sf in 0.001f64..0.9) {
            let n = local_window_for_sparsity(l, sf);
            let err_n = solve::sparsity_error(LocalWindow::new(l, n).sparsity_factor(), sf);
            for cand in [n.saturating_sub(1), n + 1] {
                if cand < l && cand != n {
                    let err_c = solve::sparsity_error(LocalWindow::new(l, cand).sparsity_factor(), sf);
                    prop_assert!(err_n <= err_c + 1e-12,
                        "n={n} err={err_n} but cand={cand} err={err_c}");
                }
            }
        }

        /// Union respects set bounds: max(|A|,|B|) ≤ |A∪B| ≤ |A|+|B|.
        #[test]
        fn union_identities(l in 1usize..32, n in 0usize..8, g in 0usize..4) {
            let local = LocalWindow::new(l, n);
            let global = GlobalMask::new(GlobalSet::evenly_spaced(l, g));
            let u = UnionAll::new(vec![Box::new(local), Box::new(global)]);
            prop_assert!(u.nnz() >= LocalWindow::new(l, n).nnz());
            prop_assert!(u.nnz() >= GlobalMask::new(GlobalSet::evenly_spaced(l, g)).nnz());
            prop_assert!(u.nnz() <= LocalWindow::new(l, n).nnz()
                + GlobalMask::new(GlobalSet::evenly_spaced(l, g)).nnz());
        }
    }
}
