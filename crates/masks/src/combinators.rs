//! Pattern combinators: union, intersection, difference of masks as rules.
//!
//! Real transformer masks are compositions — Longformer is
//! `local ∪ global`, BigBird adds `∪ random` (Fig. 2). Combinators keep
//! composition at the *pattern* level so `contains`/`append_row` stay
//! implicit; materialization to CSR happens once, at the end, if an
//! explicit kernel needs it. Every combinator builds a row by merging its
//! operands' sorted rows, never by probing cells, so it costs the sum of
//! their row lengths.

use crate::pattern::MaskPattern;
use gpa_sparse::Idx;

/// Merge two sorted-unique neighbor lists into `out`, keeping a column by
/// where it occurs: `keep(in_a, in_b)` — `O(|a| + |b|)`.
fn merge(a: &[Idx], b: &[Idx], keep: impl Fn(bool, bool) -> bool, out: &mut Vec<Idx>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (c, in_a, in_b) = match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (a[i], true, false),
            std::cmp::Ordering::Greater => (b[j], false, true),
            std::cmp::Ordering::Equal => (a[i], true, true),
        };
        if keep(in_a, in_b) {
            out.push(c);
        }
        i += usize::from(in_a);
        j += usize::from(in_b);
    }
    if keep(true, false) {
        out.extend_from_slice(&a[i..]);
    }
    if keep(false, true) {
        out.extend_from_slice(&b[j..]);
    }
}

/// Row `i` of `a` and row `i` of `b`, merged by `keep`.
fn merge_rows(
    a: &impl MaskPattern,
    b: &impl MaskPattern,
    i: usize,
    keep: impl Fn(bool, bool) -> bool,
    out: &mut Vec<Idx>,
) {
    let mut ra = Vec::new();
    let mut rb = Vec::new();
    a.append_row(i, &mut ra);
    b.append_row(i, &mut rb);
    merge(&ra, &rb, keep, out);
}

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
        merge_rows(&self.a, &self.b, i, |x, y| x || y, out);
    }
}

/// Intersection of two patterns: `A(i,j) ∧ B(i,j)`.
pub struct Intersection<A, B> {
    a: A,
    b: B,
}

impl<A: MaskPattern, B: MaskPattern> Intersection<A, B> {
    /// Intersection of `a` and `b`.
    ///
    /// # Panics
    /// Panics if context lengths differ.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(
            a.context_len(),
            b.context_len(),
            "intersection of masks with different context lengths"
        );
        Intersection { a, b }
    }
}

impl<A: MaskPattern, B: MaskPattern> MaskPattern for Intersection<A, B> {
    fn context_len(&self) -> usize {
        self.a.context_len()
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.a.contains(i, j) && self.b.contains(i, j)
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        merge_rows(&self.a, &self.b, i, |x, y| x && y, out);
    }
}

/// Difference of two patterns: `A(i,j) ∧ ¬B(i,j)`.
pub struct Difference<A, B> {
    a: A,
    b: B,
}

impl<A: MaskPattern, B: MaskPattern> Difference<A, B> {
    /// `a` with `b`'s edges removed.
    ///
    /// # Panics
    /// Panics if context lengths differ.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(
            a.context_len(),
            b.context_len(),
            "difference of masks with different context lengths"
        );
        Difference { a, b }
    }
}

impl<A: MaskPattern, B: MaskPattern> MaskPattern for Difference<A, B> {
    fn context_len(&self) -> usize {
        self.a.context_len()
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.a.contains(i, j) && !self.b.contains(i, j)
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        merge_rows(&self.a, &self.b, i, |x, y| x && !y, out);
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
    use crate::block::Causal;
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
    fn intersection_and_difference_laws() {
        let i = Intersection::new(LocalWindow::new(14, 3), Causal::new(14));
        check_pattern_laws(&i);
        let d = Difference::new(Causal::new(14), LocalWindow::new(14, 3));
        check_pattern_laws(&d);
        // A = (A∖B) ∪ (A∩B).
        let re_union = Union::new(
            Difference::new(Causal::new(14), LocalWindow::new(14, 3)),
            Intersection::new(Causal::new(14), LocalWindow::new(14, 3)),
        );
        assert_eq!(re_union.to_csr(), Causal::new(14).to_csr());
        // With a sampled operand on either side.
        let random = || RandomUniform::new(14, 0.3, 1);
        check_pattern_laws(&Intersection::new(random(), LocalWindow::new(14, 3)));
        check_pattern_laws(&Difference::new(LocalWindow::new(14, 3), random()));
        let d = Difference::new(random(), LocalWindow::new(14, 3)).to_csr();
        assert_eq!(
            d,
            random()
                .to_csr()
                .difference(&LocalWindow::new(14, 3).to_csr())
        );
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
