//! Online (streaming) softmax — the numerical core of Algorithm 1.
//!
//! The paper's kernels maintain, per attention row, a running maximum `m`, a
//! running normalizer `l`, and a normalized output accumulator `O`, updated
//! once per pulled neighbor (Milakov & Gimelshein 2018; Dao et al. 2022).
//! [`OnlineSoftmaxState`] owns `m` and `l`; the output rescaling factors are
//! returned so the caller can fold its `d`-dimensional accumulator.
//!
//! **Stream equivalence** — feeding scores one at a time produces the same
//! weights as materializing the whole row and applying standard softmax —
//! is tested here. It is also why kernel composition works: a plan's steps
//! continue one row's stream on the same `(m, l)`, so running `local` and
//! then `global` yields exact Longformer attention.

use crate::real::Real;

/// Per-row running softmax statistics `(m, l)`.
///
/// `m` starts at −∞ and `l` at 0, matching the initialization in Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineSoftmaxState<T> {
    /// Running maximum of all scores seen so far.
    pub m: T,
    /// Running sum of `exp(score − m)` over all scores seen so far.
    pub l: T,
}

impl<T: Real> Default for OnlineSoftmaxState<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Rescaling factors produced by one online-softmax update.
///
/// After an update, the caller folds its accumulator as
/// `O ← old_scale · O + new_weight · V` and, at finalize time, divides by `l`
/// — or uses the normalized form `O ← (old_scale · l_old · O + new_weight · V)/l_new`
/// exactly as written in Algorithm 1. Both are supported; see
/// `OnlineSoftmaxState::update`.
#[derive(Clone, Copy, Debug)]
pub struct SoftmaxUpdate<T> {
    /// `exp(m_old − m_new)`: multiply the existing accumulator by this.
    pub old_scale: T,
    /// `exp(score − m_new)`: weight of the newly pulled value vector.
    pub new_weight: T,
}

impl<T: Real> OnlineSoftmaxState<T> {
    /// Fresh state: `m = −∞`, `l = 0`.
    #[inline]
    pub(crate) fn new() -> Self {
        OnlineSoftmaxState {
            m: T::neg_infinity(),
            l: T::ZERO,
        }
    }

    /// Absorb one score `w`; returns the rescaling factors for the caller's
    /// output accumulator. Implements the inner-loop recurrence of
    /// Algorithm 1:
    ///
    /// ```text
    /// m_new = max(m, w)
    /// l_new = l · exp(m − m_new) + exp(w − m_new)
    /// ```
    #[inline(always)]
    pub(crate) fn update(&mut self, w: T) -> SoftmaxUpdate<T> {
        let m_new = self.m.max(w);
        if m_new == T::neg_infinity() {
            // Running max and new score are both −∞ (fully masked so far):
            // −∞ − −∞ would be NaN, but semantically nothing contributes.
            return SoftmaxUpdate {
                old_scale: T::ONE,
                new_weight: T::ZERO,
            };
        }
        // exp(−∞ − m_new) = 0 handles the very first update: old state
        // contributes nothing.
        let old_scale = (self.m - m_new).exp();
        let new_weight = (w - m_new).exp();
        self.l = self.l * old_scale + new_weight;
        self.m = m_new;
        SoftmaxUpdate {
            old_scale,
            new_weight,
        }
    }
}

/// Standard (two-pass, numerically stabilized) softmax of a score slice.
/// Reference implementation for tests and the dense SDP baseline.
///
/// All three passes are explicitly 4-wide unrolled. The max pass is exact
/// under any association, and the normalize pass is elementwise, so both
/// match the scalar loops bitwise; the normalizer sum uses four
/// independent lanes combined in the fixed order `(l0+l1)+(l2+l3)+tail`,
/// which reassociates relative to a strictly sequential sum but is
/// deterministic for a given length (the property the replay tests pin).
///
/// An all-`−∞` row (fully masked) produces all zeros, matching the masked
/// SDP convention the paper verifies against.
///
/// # Panics
/// Panics if `scores` and `out` differ in length.
pub fn softmax_slice<T: Real>(scores: &[T], out: &mut [T]) {
    assert_eq!(scores.len(), out.len(), "scores and out differ in length");
    let split = scores.len() & !3;
    let (s_main, s_tail) = scores.split_at(split);
    let mut m4 = [T::neg_infinity(); 4];
    for c in s_main.chunks_exact(4) {
        m4[0] = m4[0].max(c[0]);
        m4[1] = m4[1].max(c[1]);
        m4[2] = m4[2].max(c[2]);
        m4[3] = m4[3].max(c[3]);
    }
    let mut m = (m4[0].max(m4[1])).max(m4[2].max(m4[3]));
    for &s in s_tail {
        m = m.max(s);
    }
    if m == T::neg_infinity() {
        for o in out.iter_mut() {
            *o = T::ZERO;
        }
        return;
    }
    let (o_main, o_tail) = out.split_at_mut(split);
    let mut l4 = [T::ZERO; 4];
    for (co, cs) in o_main.chunks_exact_mut(4).zip(s_main.chunks_exact(4)) {
        let e0 = (cs[0] - m).exp();
        let e1 = (cs[1] - m).exp();
        let e2 = (cs[2] - m).exp();
        let e3 = (cs[3] - m).exp();
        co[0] = e0;
        co[1] = e1;
        co[2] = e2;
        co[3] = e3;
        l4[0] += e0;
        l4[1] += e1;
        l4[2] += e2;
        l4[3] += e3;
    }
    let mut l_tail = T::ZERO;
    for (o, &s) in o_tail.iter_mut().zip(s_tail.iter()) {
        let e = (s - m).exp();
        *o = e;
        l_tail += e;
    }
    let inv = ((l4[0] + l4[1]) + (l4[2] + l4[3]) + l_tail).recip();
    let (o_main, o_tail) = out.split_at_mut(split);
    for co in o_main.chunks_exact_mut(4) {
        co[0] *= inv;
        co[1] *= inv;
        co[2] *= inv;
        co[3] *= inv;
    }
    for o in o_tail.iter_mut() {
        *o *= inv;
    }
}

/// Softmax weights computed by streaming through [`OnlineSoftmaxState`] —
/// used in tests to validate the streaming recurrence itself.
///
/// The stream is consumed in blocks of four: each block contributes its
/// local max and `Σ exp(sᵢ − m_new)` with **one** rescale of the running
/// normalizer, so a block costs 5 `exp`s instead of the scalar
/// recurrence's 8. The block sum is combined in the fixed order
/// `(e0+e1)+(e2+e3)`, making the result deterministic for a given length.
///
/// # Panics
/// Panics if `scores` and `out` differ in length.
pub fn online_softmax_slice<T: Real>(scores: &[T], out: &mut [T]) {
    assert_eq!(scores.len(), out.len(), "scores and out differ in length");
    let split = scores.len() & !3;
    let (s_main, s_tail) = scores.split_at(split);
    let mut state: OnlineSoftmaxState<T> = OnlineSoftmaxState::new();
    // First pass: stream the scores, remembering nothing but (m, l).
    for c in s_main.chunks_exact(4) {
        let m_new = state.m.max((c[0].max(c[1])).max(c[2].max(c[3])));
        if m_new == T::neg_infinity() {
            // Fully masked block on a fully masked prefix: nothing
            // contributes (and −∞ − −∞ would be NaN).
            continue;
        }
        let old_scale = (state.m - m_new).exp();
        let e0 = (c[0] - m_new).exp();
        let e1 = (c[1] - m_new).exp();
        let e2 = (c[2] - m_new).exp();
        let e3 = (c[3] - m_new).exp();
        state.l = state.l * old_scale + ((e0 + e1) + (e2 + e3));
        state.m = m_new;
    }
    for &s in s_tail {
        state.update(s);
    }
    if state.l == T::ZERO {
        for o in out.iter_mut() {
            *o = T::ZERO;
        }
        return;
    }
    // Weights are exp(s − m)/l.
    let inv = state.l.recip();
    let m = state.m;
    let (o_main, o_tail) = out.split_at_mut(split);
    for (co, cs) in o_main.chunks_exact_mut(4).zip(s_main.chunks_exact(4)) {
        co[0] = (cs[0] - m).exp() * inv;
        co[1] = (cs[1] - m).exp() * inv;
        co[2] = (cs[2] - m).exp() * inv;
        co[3] = (cs[3] - m).exp() * inv;
    }
    for (o, &s) in o_tail.iter_mut().zip(s_tail.iter()) {
        *o = (s - m).exp() * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_slices_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn online_equals_standard() {
        let scores = vec![0.3, -1.2, 4.5, 0.0, 2.2, -0.7];
        let mut std_out = vec![0.0; scores.len()];
        let mut onl_out = vec![0.0; scores.len()];
        softmax_slice(&scores, &mut std_out);
        online_softmax_slice(&scores, &mut onl_out);
        assert_slices_close(&std_out, &onl_out, 1e-14);
    }

    #[test]
    #[should_panic(expected = "scores and out differ in length")]
    fn softmax_rejects_an_output_of_another_length() {
        softmax_slice(&[0.5f32; 5], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "scores and out differ in length")]
    fn online_softmax_rejects_an_output_of_another_length() {
        online_softmax_slice(&[0.5f32; 4], &mut [0.0; 5]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let scores = vec![1.0f64, 2.0, 3.0, -10.0];
        let mut out = vec![0.0; 4];
        softmax_slice(&scores, &mut out);
        let s: f64 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-14);
        assert!(out.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let scores = vec![1.0f64, 2.0, 3.0];
        let shifted: Vec<f64> = scores.iter().map(|s| s + 100.0).collect();
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        softmax_slice(&scores, &mut a);
        softmax_slice(&shifted, &mut b);
        assert_slices_close(&a, &b, 1e-13);
    }

    #[test]
    fn fully_masked_row_is_zero() {
        let scores = vec![f64::NEG_INFINITY; 5];
        let mut out = vec![1.0; 5];
        softmax_slice(&scores, &mut out);
        assert_eq!(out, vec![0.0; 5]);
        let mut out2 = vec![1.0; 5];
        online_softmax_slice(&scores, &mut out2);
        assert_eq!(out2, vec![0.0; 5]);
    }

    #[test]
    fn extreme_scores_do_not_overflow() {
        let scores = vec![1000.0f64, 1001.0, 999.0];
        let mut out = vec![0.0; 3];
        softmax_slice(&scores, &mut out);
        assert!(out.iter().all(|w| w.is_finite()));
        let s: f64 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_tracks_max_and_normalizer() {
        let mut st: OnlineSoftmaxState<f64> = OnlineSoftmaxState::new();
        assert_eq!((st.m, st.l), (f64::NEG_INFINITY, 0.0));
        st.update(2.0);
        assert_eq!(st.m, 2.0);
        assert!((st.l - 1.0).abs() < 1e-15);
        st.update(5.0);
        assert_eq!(st.m, 5.0);
        // l = exp(2-5) + exp(0)
        assert!((st.l - ((-3.0f64).exp() + 1.0)).abs() < 1e-15);
    }

    #[test]
    fn first_update_scales_old_accumulator_to_zero_weight() {
        let mut st: OnlineSoftmaxState<f64> = OnlineSoftmaxState::new();
        let u = st.update(3.0);
        assert_eq!(u.old_scale, 0.0); // exp(-inf - 3) = 0
        assert_eq!(u.new_weight, 1.0); // exp(3 - 3) = 1
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Streaming softmax equals two-pass softmax for arbitrary scores.
        #[test]
        fn online_matches_standard(scores in proptest::collection::vec(-50.0f64..50.0, 1..64)) {
            let mut std_out = vec![0.0; scores.len()];
            let mut onl_out = vec![0.0; scores.len()];
            softmax_slice(&scores, &mut std_out);
            online_softmax_slice(&scores, &mut onl_out);
            for (a, b) in std_out.iter().zip(onl_out.iter()) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }

        /// Bitwise regression guard for the unrolled two-pass softmax: the
        /// normalizer must combine its four lanes and tail in exactly the
        /// documented order `(l0+l1)+(l2+l3)+tail`, and the max/normalize
        /// passes must stay elementwise-exact. A rewrite that reassociates
        /// the sum changes the default-path bits and fails here.
        #[test]
        fn softmax_slice_bitwise_matches_pinned_order(
            scores in proptest::collection::vec(-30.0f64..30.0, 1..80),
        ) {
            let mut got = vec![0.0; scores.len()];
            softmax_slice(&scores, &mut got);

            let m = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let split = scores.len() & !3;
            let mut lanes = [0.0f64; 4];
            for j in (0..split).step_by(4) {
                for lane in 0..4 {
                    lanes[lane] += (scores[j + lane] - m).exp();
                }
            }
            let mut tail = 0.0;
            for &s in &scores[split..] {
                tail += (s - m).exp();
            }
            let inv = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail).recip();
            for (i, &s) in scores.iter().enumerate() {
                let want = (s - m).exp() * inv;
                prop_assert!(
                    got[i].to_bits() == want.to_bits(),
                    "index {}: {} vs {} differ in bits", i, got[i], want
                );
            }
        }

        /// Bitwise regression guard for the block-of-4 streaming softmax:
        /// the recurrence must fold whole blocks with one rescale and the
        /// fixed intra-block sum `(e0+e1)+(e2+e3)`, then finish the tail
        /// with the scalar recurrence.
        #[test]
        fn online_softmax_bitwise_matches_pinned_recurrence(
            scores in proptest::collection::vec(-30.0f64..30.0, 1..80),
        ) {
            let mut got = vec![0.0; scores.len()];
            online_softmax_slice(&scores, &mut got);

            let split = scores.len() & !3;
            let (mut m, mut l) = (f64::NEG_INFINITY, 0.0f64);
            for j in (0..split).step_by(4) {
                let c = &scores[j..j + 4];
                let m_new = m.max((c[0].max(c[1])).max(c[2].max(c[3])));
                let e: Vec<f64> = c.iter().map(|&s| (s - m_new).exp()).collect();
                l = l * (m - m_new).exp() + ((e[0] + e[1]) + (e[2] + e[3]));
                m = m_new;
            }
            for &s in &scores[split..] {
                let m_new = m.max(s);
                l = l * (m - m_new).exp() + (s - m_new).exp();
                m = m_new;
            }
            let inv = l.recip();
            for (i, &s) in scores.iter().enumerate() {
                let want = (s - m).exp() * inv;
                prop_assert!(
                    got[i].to_bits() == want.to_bits(),
                    "index {}: {} vs {} differ in bits", i, got[i], want
                );
            }
        }

        /// l is always positive once a score is absorbed, and m is the true max.
        #[test]
        fn invariants_hold(scores in proptest::collection::vec(-100.0f64..100.0, 1..32)) {
            let mut st: OnlineSoftmaxState<f64> = OnlineSoftmaxState::new();
            for &s in &scores { st.update(s); }
            let true_max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(st.m, true_max);
            prop_assert!(st.l > 0.0);
            prop_assert!(st.l <= scores.len() as f64 + 1e-9);
        }
    }
}
