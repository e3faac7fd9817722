//! Flattened (segment, row) index spaces for batched launches.
//!
//! A batched attention launch runs many sequences of different lengths in
//! *one* `parallel_for` over the concatenated row space, so short sequences
//! stop paying a full pool launch each. [`RaggedSpace`] is the address
//! translation for that flattening: it concatenates per-segment lengths
//! into a single `0..total` index space and maps global ranges back to
//! `(segment, local row range)` pieces, splitting at segment boundaries.
//!
//! The translation is defined for *every* global sub-range, not just
//! fixed blocks — which is what lets a launch carve the flat space into
//! stealable spans whose boundaries move at runtime: however a steal splits the space,
//! [`RaggedSpace::for_each_segment`] resolves the pieces to the same
//! `(segment, rows)` work items.

use std::ops::Range;

/// Concatenation of variable-length segments into one flat index space.
///
/// Segment `s` occupies the half-open global range
/// `segment_range(s)`; the whole space is `0..total()`.
#[derive(Clone, Debug)]
pub struct RaggedSpace {
    /// `offsets[s]..offsets[s + 1]` is segment `s`'s global range.
    offsets: Vec<usize>,
}

impl RaggedSpace {
    /// Build from per-segment lengths (zero-length segments are allowed —
    /// they simply occupy no indices).
    pub fn new<I: IntoIterator<Item = usize>>(lens: I) -> Self {
        let lens = lens.into_iter();
        // One allocation when the iterator knows its length (a launch's
        // request slice does), whatever the segment count.
        let mut offsets = Vec::with_capacity(lens.size_hint().0 + 1);
        offsets.push(0usize);
        for len in lens {
            let last = *offsets.last().expect("offsets never empty");
            offsets.push(last + len);
        }
        RaggedSpace { offsets }
    }

    /// Total number of flat indices (sum of segment lengths).
    pub fn total(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Number of segments.
    pub(crate) fn segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Global index range occupied by segment `s`.
    pub fn segment_range(&self, s: usize) -> Range<usize> {
        self.offsets[s]..self.offsets[s + 1]
    }

    /// Map a global index to `(segment, local index)`.
    ///
    /// # Panics
    /// Panics if `global >= total()`.
    pub(crate) fn locate(&self, global: usize) -> (usize, usize) {
        assert!(
            global < self.total(),
            "index {global} out of ragged space of {}",
            self.total()
        );
        // partition_point: count of offsets <= global; offsets[0] = 0 is
        // always <= global, so the result is >= 1 and s is its predecessor.
        let s = self.offsets.partition_point(|&o| o <= global) - 1;
        (s, global - self.offsets[s])
    }

    /// Split a global range into `(segment, local range)` pieces, in
    /// ascending order. Empty segments inside the range are skipped; an
    /// empty input range invokes `f` zero times.
    pub fn for_each_segment(&self, range: Range<usize>, mut f: impl FnMut(usize, Range<usize>)) {
        if range.start >= range.end {
            return;
        }
        let (mut s, _) = self.locate(range.start);
        while s < self.segments() && self.offsets[s] < range.end {
            let seg = self.segment_range(s);
            let lo = seg.start.max(range.start);
            let hi = seg.end.min(range.end);
            if lo < hi {
                f(s, (lo - seg.start)..(hi - seg.start));
            }
            s += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_lengths() {
        let space = RaggedSpace::new([3usize, 0, 5, 2]);
        assert_eq!(space.total(), 10);
        assert_eq!(space.segments(), 4);
        assert_eq!(space.segment_range(0), 0..3);
        assert_eq!(space.segment_range(1), 3..3);
        assert_eq!(space.segment_range(2), 3..8);
    }

    #[test]
    fn locate_every_index() {
        let lens = [3usize, 0, 5, 2];
        let space = RaggedSpace::new(lens);
        let mut expected = Vec::new();
        for (s, &len) in lens.iter().enumerate() {
            for i in 0..len {
                expected.push((s, i));
            }
        }
        for (g, &want) in expected.iter().enumerate() {
            assert_eq!(space.locate(g), want, "global {g}");
        }
    }

    #[test]
    #[should_panic(expected = "out of ragged space")]
    fn locate_rejects_out_of_range() {
        RaggedSpace::new([2usize]).locate(2);
    }

    #[test]
    fn segment_splitting_covers_any_range_exactly_once() {
        let lens = [4usize, 1, 0, 7, 3];
        let space = RaggedSpace::new(lens);
        let total = space.total();
        for lo in 0..=total {
            for hi in lo..=total {
                let mut seen = vec![0usize; total];
                let mut last_segment = None;
                space.for_each_segment(lo..hi, |s, local| {
                    assert!(!local.is_empty(), "empty piece for segment {s}");
                    // Pieces arrive in ascending segment order.
                    if let Some(prev) = last_segment {
                        assert!(s > prev);
                    }
                    last_segment = Some(s);
                    for i in local {
                        seen[space.segment_range(s).start + i] += 1;
                    }
                });
                for (g, &hits) in seen.iter().enumerate() {
                    let want = usize::from(g >= lo && g < hi);
                    assert_eq!(hits, want, "range {lo}..{hi}, global {g}");
                }
            }
        }
    }

    #[test]
    fn empty_space_is_inert() {
        let space = RaggedSpace::new(std::iter::empty());
        assert_eq!(space.total(), 0);
        assert_eq!(space.segments(), 0);
        space.for_each_segment(0..0, |_, _| panic!("no segments to visit"));
    }

    #[test]
    fn all_zero_segments() {
        let space = RaggedSpace::new([0usize, 0, 0]);
        assert_eq!(space.total(), 0);
        assert_eq!(space.segments(), 3);
        space.for_each_segment(0..0, |_, _| panic!("nothing to visit"));
    }
}
