//! Pattern combinators: unions of masks as rules.
//!
//! Real transformer masks are compositions — Longformer is
//! `local ∪ global`, BigBird adds `∪ random` (Fig. 2). Combinators keep
//! composition at the *pattern* level so `contains`/`append_row` stay
//! implicit; materialization to CSR happens once, at the end, if an
//! explicit kernel needs it. Every combinator builds a row by merging its
//! operands' sorted rows with [`gpa_sparse::merge`], never by probing
//! cells, so it costs the sum of their row lengths.

use crate::pattern::MaskPattern;
use gpa_sparse::{merge, Idx};

/// Union of two patterns: `A(i,j) ∨ B(i,j)`.
pub struct Union<A, B> {
    a: A,
    b: B,
}

impl<A: MaskPattern, B: MaskPattern> Union<A, B> {
    /// Union of `a` and `b`.
    ///
    /// # Panics
    /// Panics if context lengths differ.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(
            a.context_len(),
            b.context_len(),
            "union of masks with different context lengths"
        );
        Union { a, b }
    }
}

impl<A: MaskPattern, B: MaskPattern> MaskPattern for Union<A, B> {
    fn context_len(&self) -> usize {
        self.a.context_len()
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.a.contains(i, j) || self.b.contains(i, j)
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        let mut ra = Vec::new();
        let mut rb = Vec::new();
        self.a.append_row(i, &mut ra);
        self.b.append_row(i, &mut rb);
        merge(&ra, &rb, |x, y| x || y, out);
    }
}

/// Union of an arbitrary number of boxed patterns (used by multi-level
/// presets such as LongNet).
pub struct UnionAll {
    parts: Vec<Box<dyn MaskPattern>>,
    l: usize,
}

impl UnionAll {
    /// Union of all `parts`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or context lengths differ.
    pub fn new(parts: Vec<Box<dyn MaskPattern>>) -> Self {
        assert!(!parts.is_empty(), "UnionAll needs at least one pattern");
        let l = parts[0].context_len();
        assert!(
            parts.iter().all(|p| p.context_len() == l),
            "UnionAll patterns must share a context length"
        );
        UnionAll { parts, l }
    }

    /// Number of unioned patterns.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if there are no parts (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl MaskPattern for UnionAll {
    fn context_len(&self) -> usize {
        self.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.parts.iter().any(|p| p.contains(i, j))
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        let mut acc: Vec<Idx> = Vec::new();
        let mut part_row: Vec<Idx> = Vec::new();
        let mut merged: Vec<Idx> = Vec::new();
        for p in &self.parts {
            part_row.clear();
            p.append_row(i, &mut part_row);
            merged.clear();
            merge(&acc, &part_row, |x, y| x || y, &mut merged);
            std::mem::swap(&mut acc, &mut merged);
        }
        out.extend_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{GlobalMask, GlobalSet};
    use crate::local::LocalWindow;
    use crate::pattern::check_pattern_laws;
    use crate::random::RandomUniform;

    #[test]
    fn union_laws() {
        let u = Union::new(
            LocalWindow::new(18, 2),
            GlobalMask::new(GlobalSet::new(18, vec![0, 9])),
        );
        check_pattern_laws(&u);
    }

    #[test]
    fn union_matches_csr_union() {
        let a = LocalWindow::new(15, 1);
        let b = RandomUniform::new(15, 0.2, 3);
        let pat = Union::new(a, b).to_csr();
        let csr = LocalWindow::new(15, 1)
            .to_csr()
            .union(&RandomUniform::new(15, 0.2, 3).to_csr());
        assert_eq!(pat, csr);
    }

    #[test]
    #[should_panic(expected = "different context lengths")]
    fn mismatched_lengths_panic() {
        let _ = Union::new(LocalWindow::new(4, 1), LocalWindow::new(5, 1));
    }

    #[test]
    fn union_all_merges_many() {
        let parts: Vec<Box<dyn MaskPattern>> = vec![
            Box::new(LocalWindow::new(20, 1)),
            Box::new(GlobalMask::new(GlobalSet::new(20, vec![5]))),
            Box::new(RandomUniform::new(20, 0.1, 8)),
        ];
        let u = UnionAll::new(parts);
        assert_eq!(u.len(), 3);
        assert!(!u.is_empty());
        check_pattern_laws(&u);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_union_all_panics() {
        let _ = UnionAll::new(Vec::new());
    }
}
