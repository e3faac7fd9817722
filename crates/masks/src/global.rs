//! Global attention (Fig. 2, blue cells; Section II-C).
//!
//! Designated tokens "can attend to all other tokens in the sequence" and
//! are attended *by* every token: for a global set `G`, `mask(i, j) = 1` iff
//! `i ∈ G ∨ j ∈ G`.
//!
//! The paper's standalone global kernel is actually *global minus local*:
//! "attention indices are calculated for both the global and local mask and
//! then the local mask is subtracted from the global" (Section IV-B), so
//! that a sequential `local ∘ global` composition covers the Longformer
//! union without double-counting any edge. [`GlobalMinusLocal`] is that
//! pattern.

use crate::local::LocalWindow;
use crate::pattern::MaskPattern;
use gpa_sparse::Idx;

/// Sorted, deduplicated set of global token indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalSet {
    indices: Vec<Idx>,
    l: usize,
}

impl GlobalSet {
    /// Build from arbitrary indices (sorted and deduplicated; out-of-range
    /// indices are rejected).
    ///
    /// # Panics
    /// Panics if an index is `≥ l`.
    pub fn new(l: usize, mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        if let Some(&bad) = indices.iter().find(|&&g| g >= l) {
            panic!("global token {bad} out of context length {l}");
        }
        GlobalSet {
            indices: indices.into_iter().map(|g| g as Idx).collect(),
            l,
        }
    }

    /// Evenly spaced globals (BigBird-style anchor tokens).
    pub fn evenly_spaced(l: usize, count: usize) -> Self {
        if count == 0 || l == 0 {
            return GlobalSet::new(l, Vec::new());
        }
        let count = count.min(l);
        let idx = (0..count).map(|k| k * l / count).collect();
        GlobalSet::new(l, idx)
    }

    /// Sorted global indices.
    pub fn indices(&self) -> &[Idx] {
        &self.indices
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.indices.binary_search(&(i as Idx)).is_ok()
    }

    /// Context length.
    pub fn context_len(&self) -> usize {
        self.l
    }
}

/// Full global mask: `i ∈ G ∨ j ∈ G`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalMask {
    globals: GlobalSet,
}

impl GlobalMask {
    /// Global attention over the given token set.
    pub fn new(globals: GlobalSet) -> Self {
        GlobalMask { globals }
    }

    /// Closed-form nnz: `2·g·L − g²` (global rows plus global columns minus
    /// the double-counted `g×g` block).
    pub(crate) fn nnz_closed_form(l: usize, g: usize) -> u128 {
        let l = l as u128;
        let g = (g as u128).min(l);
        2 * g * l - g * g
    }
}

impl MaskPattern for GlobalMask {
    fn context_len(&self) -> usize {
        self.globals.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        i < self.globals.l
            && j < self.globals.l
            && (self.globals.contains(i) || self.globals.contains(j))
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        if self.globals.contains(i) {
            // Global row: attends to everything.
            out.extend((0..self.globals.l).map(|j| j as Idx));
        } else {
            // Non-global row: attends to the global columns only.
            out.extend_from_slice(self.globals.indices());
        }
    }

    fn nnz(&self) -> usize {
        Self::nnz_closed_form(self.globals.l, self.globals.indices().len()) as usize
    }
}

/// The paper's "global (non-local)" pattern: the global mask with the local
/// window `|i−j| ≤ n` removed, so `local(n) ∪ global_minus_local(G, n)` is
/// an exact, disjoint cover of the Longformer mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalMinusLocal {
    globals: GlobalSet,
    n: usize,
}

impl GlobalMinusLocal {
    /// Global set minus a local window of `n` per direction.
    pub fn new(globals: GlobalSet, n: usize) -> Self {
        GlobalMinusLocal { globals, n }
    }

    /// Stream row `i`'s neighbors against `l` keys, ascending — the one
    /// global-minus-local rule: [`MaskPattern::append_row`] passes the
    /// pattern's `L`, the `Global` kernel its key/value length. A global
    /// row takes every column outside the window `|i−j| ≤ n`; any other
    /// row the global columns outside it.
    #[inline]
    pub fn stream_row(l: usize, globals: &GlobalSet, n: usize, i: usize, mut f: impl FnMut(usize)) {
        let (lo, hi) = LocalWindow::row_range(l, n, i);
        if globals.contains(i) {
            (0..lo).for_each(&mut f);
            (hi + 1..l).for_each(&mut f);
        } else {
            let g = globals.indices();
            let below = &g[..g.partition_point(|&c| (c as usize) < lo)];
            let above = &g[g.partition_point(|&c| (c as usize) <= hi)..];
            below.iter().for_each(|&c| f(c as usize));
            above.iter().for_each(|&c| f(c as usize));
        }
    }
}

impl MaskPattern for GlobalMinusLocal {
    fn context_len(&self) -> usize {
        self.globals.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        let l = self.globals.l;
        if i >= l || j >= l || i.abs_diff(j) <= self.n {
            return false;
        }
        self.globals.contains(i) || self.globals.contains(j)
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        Self::stream_row(self.globals.l, &self.globals, self.n, i, |j| {
            out.push(j as Idx)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::check_pattern_laws;

    #[test]
    fn global_set_construction() {
        let g = GlobalSet::new(10, vec![7, 2, 2, 0]);
        assert_eq!(g.indices(), &[0, 2, 7]);
        assert!(g.contains(2));
        assert!(!g.contains(3));
        assert!(GlobalSet::new(4, vec![]).indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of context length")]
    fn out_of_range_global_panics() {
        let _ = GlobalSet::new(4, vec![4]);
    }

    #[test]
    fn prefix_and_spaced_selectors() {
        // A CLS-style prefix: the first tokens are the globals.
        assert_eq!(GlobalSet::new(10, (0..3).collect()).indices(), &[0, 1, 2]);
        // Asking for more globals than tokens selects every token.
        assert_eq!(GlobalSet::evenly_spaced(2, 5).indices(), &[0, 1]);
        let spaced = GlobalSet::evenly_spaced(12, 3);
        assert_eq!(spaced.indices(), &[0, 4, 8]);
        assert!(GlobalSet::evenly_spaced(5, 0).indices().is_empty());
    }

    #[test]
    fn global_mask_laws_and_nnz() {
        for l in [1usize, 8, 21] {
            for g in [0usize, 1, 3] {
                let m = GlobalMask::new(GlobalSet::new(l, (0..g.min(l)).collect()));
                check_pattern_laws(&m);
            }
        }
        // nnz = 2gL − g²: L=8, g=2 → 32 − 4 = 28.
        let m = GlobalMask::new(GlobalSet::new(8, vec![0, 1]));
        assert_eq!(m.nnz(), 28);
    }

    #[test]
    fn global_minus_local_laws() {
        for l in [1usize, 9, 20] {
            for g in [0usize, 1, 2] {
                for n in [0usize, 1, 3] {
                    let m = GlobalMinusLocal::new(GlobalSet::evenly_spaced(l, g), n);
                    check_pattern_laws(&m);
                }
            }
        }
    }

    #[test]
    fn union_with_local_covers_longformer_exactly() {
        use crate::local::LocalWindow;
        let l = 16;
        let n = 2;
        let globals = GlobalSet::new(l, vec![0, 7]);
        let local = LocalWindow::new(l, n).to_csr();
        let gml = GlobalMinusLocal::new(globals.clone(), n).to_csr();
        let full_global = GlobalMask::new(globals).to_csr();

        // Disjoint parts…
        assert_eq!(local.difference(&local.difference(&gml)).nnz(), 0);
        // …whose union is local ∪ global.
        assert_eq!(local.union(&gml), local.union(&full_global));
    }

    #[test]
    fn global_rows_are_dense_others_sparse() {
        let m = GlobalMask::new(GlobalSet::new(10, vec![4]));
        let mut row = Vec::new();
        m.append_row(4, &mut row);
        assert_eq!(row.len(), 10);
        row.clear();
        m.append_row(0, &mut row);
        assert_eq!(row, vec![4]);
    }
}
