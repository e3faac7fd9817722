//! Dilated windowed attention, 1-D and 2-D (Fig. 2, center; Section II-C).
//!
//! **1-D** follows the paper's pseudocode exactly:
//! `mask(i, j) = |i−j| < w ∧ |i−j| mod (r+1) = 0`
//! — uniform gaps of size `r` inside a window of width `w`. With `r = 0`
//! this degenerates to a local window of `w − 1` in each direction (tested).
//!
//! **2-D** dilates over square blocks along the diagonal (the LongNet-style
//! pattern \[7\]). The paper's pseudocode conflates block size and block
//! count (`floor(i/(L/b))` with `i % b`); we parameterize by an explicit
//! `block_size` and keep dilation within the block:
//! `same_block(i, j) ∧ (i mod bs) mod (r+1) = 0 ∧ (j mod bs) mod (r+1) = 0`.
//! That is a deviation from the paper's text; for the paper's square case
//! (`b × b = L` with `b = √L`) the two parameterizations coincide.

use crate::pattern::MaskPattern;
use gpa_sparse::Idx;

/// 1-D dilated window: `|i−j| < w ∧ |i−j| mod (r+1) = 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dilated1d {
    l: usize,
    w: usize,
    r: usize,
}

impl Dilated1d {
    /// Window width `w` (strict: offsets up to `w−1`) with dilation `r`.
    pub fn new(l: usize, w: usize, r: usize) -> Self {
        Dilated1d { l, w, r }
    }

    /// Number of dilation steps per direction: `K = ⌊(w−1)/(r+1)⌋`.
    #[inline(always)]
    pub(crate) fn steps(w: usize, r: usize) -> usize {
        if w == 0 {
            return 0;
        }
        (w - 1) / r.saturating_add(1)
    }

    /// Stream row `i`'s neighbors against `l` keys, ascending — the one
    /// 1-D dilated rule: [`MaskPattern::append_row`] passes the pattern's
    /// `L`, the `Dilated1d` kernel its key/value length. The stride
    /// saturates, so `r = usize::MAX` leaves only the diagonal.
    #[inline]
    pub fn stream_row(l: usize, w: usize, r: usize, i: usize, mut f: impl FnMut(usize)) {
        if w == 0 {
            return;
        }
        let stride = r.saturating_add(1);
        let steps = Self::steps(w, r);
        // Backward offsets K·stride … stride, then self, then forward.
        for s in (1..=steps.min(i / stride)).rev() {
            f(i - s * stride);
        }
        f(i);
        for s in 1..=steps.min((l - 1 - i) / stride) {
            f(i + s * stride);
        }
    }

    /// Closed-form non-zero count: `(2K+1)·L − (r+1)·K·(K+1)` where
    /// `K = ⌊(w−1)/(r+1)⌋`, with edge clipping (exact while the window fits;
    /// offsets are additionally clipped to the context for tiny `L`).
    pub(crate) fn nnz_closed_form(l: usize, w: usize, r: usize) -> u128 {
        if l == 0 || w == 0 {
            return 0;
        }
        let stride = r as u128 + 1;
        // Clip the number of steps to what the context can hold.
        let k = (Self::steps(w, r) as u128).min((l as u128 - 1) / stride);
        let l = l as u128;
        (2 * k + 1) * l - stride * k * (k + 1)
    }
}

impl MaskPattern for Dilated1d {
    fn context_len(&self) -> usize {
        self.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        if i >= self.l || j >= self.l {
            return false;
        }
        let d = i.abs_diff(j);
        d < self.w && d % self.r.saturating_add(1) == 0
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        Self::stream_row(self.l, self.w, self.r, i, |j| out.push(j as Idx));
    }

    fn nnz(&self) -> usize {
        Self::nnz_closed_form(self.l, self.w, self.r) as usize
    }
}

/// 2-D dilated block attention: diagonal blocks of `block_size`, dilated by
/// `r` in both the row and column direction within each block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dilated2d {
    l: usize,
    block_size: usize,
    r: usize,
}

impl Dilated2d {
    /// Diagonal blocks of `block_size` with dilation `r`.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(l: usize, block_size: usize, r: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Dilated2d { l, block_size, r }
    }

    /// Selected positions within a block of size `bs` under dilation `r`:
    /// `⌈bs/(r+1)⌉`.
    #[inline(always)]
    pub(crate) fn selected_per_block(bs: usize, r: usize) -> usize {
        bs.div_ceil(r.saturating_add(1))
    }

    /// Stream row `i`'s neighbors against `l` keys, ascending — the one
    /// 2-D dilated rule: [`MaskPattern::append_row`] passes the pattern's
    /// `L`, the `Dilated2d` kernel its key/value length. An unselected row
    /// attends to nothing.
    #[inline]
    pub fn stream_row(l: usize, bs: usize, r: usize, i: usize, mut f: impl FnMut(usize)) {
        let stride = r.saturating_add(1);
        if (i % bs) % stride != 0 {
            return;
        }
        let start = (i / bs) * bs;
        for j in (start..start.saturating_add(bs).min(l)).step_by(stride) {
            f(j);
        }
    }

    /// Closed-form non-zero count: full blocks contribute `s²` each
    /// (`s = ⌈bs/(r+1)⌉`); a trailing partial block contributes `s'²`.
    pub(crate) fn nnz_closed_form(l: usize, bs: usize, r: usize) -> u128 {
        if l == 0 {
            return 0;
        }
        let full_blocks = (l / bs) as u128;
        let s = Self::selected_per_block(bs, r) as u128;
        let tail = l % bs;
        let s_tail = if tail == 0 {
            0u128
        } else {
            Self::selected_per_block(tail, r) as u128
        };
        full_blocks * s * s + s_tail * s_tail
    }
}

impl MaskPattern for Dilated2d {
    fn context_len(&self) -> usize {
        self.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        if i >= self.l || j >= self.l {
            return false;
        }
        let bs = self.block_size;
        if i / bs != j / bs {
            return false;
        }
        let stride = self.r.saturating_add(1);
        (i % bs) % stride == 0 && (j % bs) % stride == 0
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        Self::stream_row(self.l, self.block_size, self.r, i, |j| out.push(j as Idx));
    }

    fn nnz(&self) -> usize {
        Self::nnz_closed_form(self.l, self.block_size, self.r) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalWindow;
    use crate::pattern::{check_pattern_laws, MaskPattern};

    #[test]
    fn dilated1d_laws() {
        for l in [1usize, 2, 9, 33] {
            for w in [0usize, 1, 2, 5, 16, 100] {
                for r in [0usize, 1, 2, 5] {
                    check_pattern_laws(&Dilated1d::new(l, w, r));
                }
            }
        }
    }

    #[test]
    fn dilated2d_laws() {
        for l in [1usize, 8, 30, 33] {
            for bs in [1usize, 2, 5, 8, 40] {
                for r in [0usize, 1, 3] {
                    check_pattern_laws(&Dilated2d::new(l, bs, r));
                }
            }
        }
    }

    #[test]
    fn r0_dilated_equals_local() {
        // Paper's predicate with r = 0: |i−j| < w  ⇔  |i−j| ≤ w−1.
        for l in [10usize, 31] {
            for w in [1usize, 3, 7] {
                let dil = Dilated1d::new(l, w, 0);
                let loc = LocalWindow::new(l, w - 1);
                for i in 0..l {
                    for j in 0..l {
                        assert_eq!(
                            dil.contains(i, j),
                            loc.contains(i, j),
                            "l={l} w={w} ({i},{j})"
                        );
                    }
                }
                assert_eq!(dil.nnz(), loc.nnz());
            }
        }
    }

    #[test]
    fn dilation_skips_odd_offsets() {
        // r = 1: only even |i−j| attend (paper Fig. 2 center).
        let m = Dilated1d::new(20, 6, 1);
        assert!(m.contains(10, 10));
        assert!(!m.contains(10, 11));
        assert!(m.contains(10, 12));
        assert!(!m.contains(10, 13));
        assert!(m.contains(10, 14));
        assert!(!m.contains(10, 16), "offset 6 is outside w=6 (strict)");
    }

    #[test]
    fn dilated1d_closed_form_matches_enumeration() {
        for l in [1usize, 6, 29, 64] {
            for w in [0usize, 1, 4, 9, 64, 200] {
                for r in [0usize, 1, 2, 4] {
                    let m = Dilated1d::new(l, w, r);
                    let mut buf = Vec::new();
                    let mut brute = 0usize;
                    for i in 0..l {
                        buf.clear();
                        m.append_row(i, &mut buf);
                        brute += buf.len();
                    }
                    assert_eq!(m.nnz(), brute, "l={l} w={w} r={r}");
                }
            }
        }
    }

    #[test]
    fn dilated2d_structure() {
        // L = 12, blocks of 4, r = 1: selected positions within each block
        // are offsets {0, 2}.
        let m = Dilated2d::new(12, 4, 1);
        assert!(m.contains(0, 0));
        assert!(m.contains(0, 2));
        assert!(!m.contains(0, 1));
        assert!(!m.contains(0, 4), "different block");
        assert!(m.contains(6, 4));
        // Unselected row attends nowhere.
        let mut row = Vec::new();
        m.append_row(1, &mut row);
        assert!(row.is_empty());
        // nnz: 3 blocks × 2² = 12.
        assert_eq!(m.nnz(), 12);
    }

    #[test]
    fn dilated2d_partial_tail_block() {
        // L = 10, bs = 4: two full blocks + tail of 2; r = 1 ⇒ s = 2, tail s' = 1.
        let m = Dilated2d::new(10, 4, 1);
        assert_eq!(m.nnz(), 2 * 4 + 1);
        check_pattern_laws(&m);
    }

    #[test]
    fn huge_context_closed_forms() {
        let nnz1 = Dilated1d::nnz_closed_form(160_000_000, 2731, 1);
        assert!(nnz1 > 0);
        let nnz2 = Dilated2d::nnz_closed_form(160_000_000, 4096, 1);
        assert!(nnz2 > 0);
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_rejected() {
        let _ = Dilated2d::new(8, 0, 1);
    }
}
