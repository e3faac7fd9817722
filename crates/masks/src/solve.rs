//! Parameter solvers: fit a mask's shape parameter to a target sparsity
//! factor.
//!
//! The paper's microbenchmarks sweep the *sparsity factor* as the
//! independent variable: "the local, 1D dilation, and 2D dilation masks
//! calculated window/block size to fit the associated sparsity factor"
//! (Section V-C). These solvers invert the closed-form nnz expressions by
//! monotone bisection over the integer parameter, returning the parameter
//! whose achieved `Sf` is closest to the target.

use crate::dilated::{Dilated1d, Dilated2d};
use crate::global::GlobalMask;
use crate::local::LocalWindow;

/// Largest integer `p ∈ [lo, hi]` with `f(p) ≤ target`, assuming `f`
/// non-decreasing; then pick whichever of `p`/`p+1` lands closer to the
/// target. Returns `lo` if even `f(lo) > target`.
fn closest_monotone(lo: usize, hi: usize, target: f64, f: impl Fn(usize) -> f64) -> usize {
    let (mut lo_b, mut hi_b) = (lo, hi);
    if f(lo) > target {
        return lo;
    }
    // Invariant: f(lo_b) ≤ target < f(hi_b + 1) conceptually.
    while lo_b < hi_b {
        let mid = lo_b + (hi_b - lo_b).div_ceil(2);
        if f(mid) <= target {
            lo_b = mid;
        } else {
            hi_b = mid - 1;
        }
    }
    // Check whether overshooting by one parameter step is closer.
    if lo_b < hi {
        let under = (target - f(lo_b)).abs();
        let over = (f(lo_b + 1) - target).abs();
        if over < under {
            return lo_b + 1;
        }
    }
    lo_b
}

/// Window `n` for [`LocalWindow`] whose sparsity factor is closest to `sf`.
pub fn local_window_for_sparsity(l: usize, sf: f64) -> usize {
    assert!(l > 0, "empty context");
    let target = sf * (l as f64) * (l as f64);
    closest_monotone(0, l - 1, target, |n| {
        LocalWindow::nnz_closed_form(l, n) as f64
    })
}

/// Width `w` for [`Dilated1d`] with dilation `r` closest to `sf`.
pub fn dilated1d_width_for_sparsity(l: usize, r: usize, sf: f64) -> usize {
    assert!(l > 0, "empty context");
    let target = sf * (l as f64) * (l as f64);
    // w ranges over 1 ..= (l−1)·(r+1)+1 (beyond that no new offsets fit).
    let w_max = (l - 1).saturating_mul(r + 1) + 1;
    closest_monotone(1, w_max, target, |w| {
        Dilated1d::nnz_closed_form(l, w, r) as f64
    })
}

/// Block size for [`Dilated2d`] with dilation `r` closest to `sf`.
pub fn dilated2d_block_for_sparsity(l: usize, r: usize, sf: f64) -> usize {
    assert!(l > 0, "empty context");
    let target = sf * (l as f64) * (l as f64);
    closest_monotone(1, l, target, |bs| {
        Dilated2d::nnz_closed_form(l, bs, r) as f64
    })
}

/// Number of global tokens for [`GlobalMask`] closest to `sf`
/// (closed form: `g = L·(1 − √(1 − Sf))`, then integer-refined).
pub fn global_count_for_sparsity(l: usize, sf: f64) -> usize {
    assert!(l > 0, "empty context");
    let target = sf * (l as f64) * (l as f64);
    closest_monotone(0, l, target, |g| GlobalMask::nnz_closed_form(l, g) as f64)
}

/// Relative error between a mask's achieved sparsity factor and the target.
pub fn sparsity_error(achieved: f64, target: f64) -> f64 {
    if target == 0.0 {
        achieved
    } else {
        (achieved - target).abs() / target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::MaskPattern;

    #[test]
    fn local_solver_hits_targets() {
        let l = 4096;
        for sf in [0.5, 0.1, 0.01] {
            let n = local_window_for_sparsity(l, sf);
            let achieved = LocalWindow::new(l, n).sparsity_factor();
            assert!(
                sparsity_error(achieved, sf) < 0.05,
                "sf={sf} n={n} achieved={achieved}"
            );
        }
        // At sf = 0.001 one window step changes nnz by ~2L/L² = 25% of the
        // target: the solver can only quantize. Check it picks the closest.
        let n = local_window_for_sparsity(l, 0.001);
        let err = sparsity_error(LocalWindow::new(l, n).sparsity_factor(), 0.001);
        for cand in [n.saturating_sub(1), n + 1] {
            let e = sparsity_error(LocalWindow::new(l, cand).sparsity_factor(), 0.001);
            assert!(err <= e, "neighbor {cand} beats chosen {n}");
        }
    }

    #[test]
    fn local_solver_extremes() {
        // Denser than achievable with max window → clamps to max.
        assert_eq!(local_window_for_sparsity(16, 1.0), 15);
        // Sparser than the diagonal → clamps to 0.
        assert_eq!(local_window_for_sparsity(16, 0.0), 0);
    }

    #[test]
    fn dilated1d_solver_hits_targets() {
        let l = 4096;
        for r in [1usize, 2] {
            for sf in [0.1, 0.01] {
                let w = dilated1d_width_for_sparsity(l, r, sf);
                let achieved = Dilated1d::new(l, w, r).sparsity_factor();
                assert!(
                    sparsity_error(achieved, sf) < 0.05,
                    "r={r} sf={sf} w={w} achieved={achieved}"
                );
            }
            // Near the quantization floor (one dilation step ≈ 2/L of Sf
            // per row), accept the closest representable value.
            let w = dilated1d_width_for_sparsity(l, r, 0.001);
            let achieved = Dilated1d::new(l, w, r).sparsity_factor();
            let step = 2.0 / l as f64 / 0.001; // relative size of one step
            assert!(
                sparsity_error(achieved, 0.001) <= step,
                "r={r} w={w} achieved={achieved}"
            );
        }
    }

    #[test]
    fn dilated2d_solver_hits_targets() {
        let l = 4096;
        // With dilation r the densest achievable Sf is ≈ (1/(r+1))² (one
        // full dilated block): keep targets below that ceiling.
        for r in [1usize, 3] {
            let ceiling = 1.0 / ((r + 1) * (r + 1)) as f64;
            for sf in [0.01, 0.001] {
                assert!(sf < ceiling);
                let bs = dilated2d_block_for_sparsity(l, r, sf);
                let achieved = Dilated2d::new(l, bs, r).sparsity_factor();
                // Block-size granularity is coarse (nnz ∝ bs): allow 20%.
                assert!(
                    sparsity_error(achieved, sf) < 0.2,
                    "r={r} sf={sf} bs={bs} achieved={achieved}"
                );
            }
            // Unachievable target clamps to the densest block size.
            let bs = dilated2d_block_for_sparsity(l, r, ceiling * 2.0);
            assert_eq!(bs, l, "r={r}: expected clamp to full context");
        }
    }

    #[test]
    fn global_solver_matches_closed_form() {
        let l = 10_000;
        for sf in [0.2, 0.05, 0.001] {
            let g = global_count_for_sparsity(l, sf);
            let analytic = l as f64 * (1.0 - (1.0 - sf).sqrt());
            assert!(
                (g as f64 - analytic).abs() <= 1.0,
                "sf={sf}: g={g} analytic={analytic}"
            );
        }
    }

    #[test]
    fn solver_is_monotone_in_target() {
        let l = 1024;
        let mut last = 0;
        for sf in [0.001, 0.01, 0.1, 0.5, 1.0] {
            let n = local_window_for_sparsity(l, sf);
            assert!(n >= last, "sf={sf}: window must grow with target");
            last = n;
        }
    }
}
