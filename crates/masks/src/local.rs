//! Local / windowed attention (Fig. 2, black cells).
//!
//! "Local attention … gives a token the ability to look n tokens forwards
//! and backwards from itself" (Section II-C): token `i` attends to `j` iff
//! `|i − j| ≤ n`. The paper's Fig. 5 sweeps this window (5, 50, 500) and its
//! microbenchmarks fit `n` to a target sparsity factor.

use crate::pattern::MaskPattern;
use gpa_sparse::Idx;

/// Sliding-window mask: `|i − j| ≤ n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalWindow {
    l: usize,
    n: usize,
}

impl LocalWindow {
    /// Window of `n` tokens in each direction over a length-`l` context.
    pub fn new(l: usize, n: usize) -> Self {
        LocalWindow { l, n }
    }

    /// Tokens visible in each direction.
    pub fn window(&self) -> usize {
        self.n
    }

    /// The inclusive column range `[lo, hi]` of row `i` against `l` keys.
    /// Saturating, so a window wider than the context (up to `usize::MAX`)
    /// is the dense row.
    #[inline(always)]
    pub fn row_range(l: usize, n: usize, i: usize) -> (usize, usize) {
        debug_assert!(i < l);
        (i.saturating_sub(n), i.saturating_add(n).min(l - 1))
    }

    /// Stream row `i`'s neighbors against `l` keys, ascending — the one
    /// local rule: [`MaskPattern::append_row`] passes the pattern's `L`,
    /// the `Local` kernel its key/value length.
    #[inline]
    pub fn stream_row(l: usize, n: usize, i: usize, mut f: impl FnMut(usize)) {
        let (lo, hi) = Self::row_range(l, n, i);
        for j in lo..=hi {
            f(j);
        }
    }

    /// Closed-form non-zero count: `(2n+1)·L − n·(n+1)` clipped at the
    /// sequence edges (exact for `n < L`; saturates to the dense `L²` when
    /// the window covers everything).
    pub fn nnz_closed_form(l: usize, n: usize) -> u128 {
        if l == 0 {
            return 0;
        }
        let l = l as u128;
        let n = (n as u128).min(l - 1);
        (2 * n + 1) * l - n * (n + 1)
    }
}

impl MaskPattern for LocalWindow {
    fn context_len(&self) -> usize {
        self.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        i < self.l && j < self.l && i.abs_diff(j) <= self.n
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        Self::stream_row(self.l, self.n, i, |j| out.push(j as Idx));
    }

    fn nnz(&self) -> usize {
        Self::nnz_closed_form(self.l, self.n) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::check_pattern_laws;

    #[test]
    fn laws_hold_for_various_windows() {
        for l in [1usize, 2, 7, 32] {
            for n in [0usize, 1, 3, 31, 100] {
                check_pattern_laws(&LocalWindow::new(l, n));
            }
        }
    }

    #[test]
    fn window_zero_is_diagonal() {
        let m = LocalWindow::new(6, 0);
        assert_eq!(m.nnz(), 6);
        assert!(m.contains(2, 2));
        assert!(!m.contains(2, 3));
    }

    #[test]
    fn interior_row_has_full_window() {
        let m = LocalWindow::new(100, 5);
        let mut row = Vec::new();
        m.append_row(50, &mut row);
        assert_eq!(row.len(), 11);
        assert_eq!(row[0], 45);
        assert_eq!(row[10], 55);
    }

    #[test]
    fn edges_are_clipped() {
        let m = LocalWindow::new(100, 5);
        let mut row = Vec::new();
        m.append_row(0, &mut row);
        assert_eq!(row.len(), 6); // 0..=5
        row.clear();
        m.append_row(99, &mut row);
        assert_eq!(row.len(), 6); // 94..=99
    }

    #[test]
    fn closed_form_matches_enumeration() {
        for l in [1usize, 5, 17, 64] {
            for n in [0usize, 1, 2, 8, 63, 200] {
                let m = LocalWindow::new(l, n);
                let brute: usize = {
                    let mut buf = Vec::new();
                    let mut t = 0;
                    for i in 0..l {
                        buf.clear();
                        m.append_row(i, &mut buf);
                        t += buf.len();
                    }
                    t
                };
                assert_eq!(m.nnz(), brute, "l={l} n={n}");
            }
        }
    }

    #[test]
    fn huge_context_closed_form_does_not_overflow() {
        // The paper's 160 M context with a LongNet-scale window.
        let nnz = LocalWindow::nnz_closed_form(160_000_000, 1365);
        assert!(nnz > 0);
        let sf = nnz as f64 / (160_000_000f64 * 160_000_000f64);
        assert!(sf < 1e-4, "sf = {sf}");
    }

    #[test]
    fn window_saturating_covers_dense() {
        let m = LocalWindow::new(4, 100);
        assert_eq!(m.nnz(), 16);
        assert_eq!(m.sparsity_factor(), 1.0);
    }
}
