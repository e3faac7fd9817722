//! Dense linear-algebra helpers used by the baselines and examples.
//!
//! Only what the attention pipeline needs: dot products, `QKᵀ`-style
//! products, and a cache-blocked general matmul for the projection layers in
//! the examples. The inner loops are written as slice iterator chains so
//! LLVM auto-vectorizes them (see the workspace's HPC guide notes on bounds
//! checks).

use crate::matrix::Matrix;
use crate::real::Real;

/// Dot product of two equal-length slices — the innermost operation of every
/// attention kernel (one per mask non-zero).
///
/// Written as a chunked loop over four independent accumulators: strict
/// IEEE semantics forbid LLVM from reassociating a single-accumulator
/// reduction, so the naive iterator sum compiles to a serial add chain.
/// Independent lanes break that dependency, letting the loop vectorize.
/// Each lane rounds its multiply and its add separately (rustc never
/// contracts them into an FMA), and the lanes combine once at the end, so
/// the summation order — hence the result — is deterministic for a given
/// length, and [`dot4`] can reproduce it bit for bit.
#[inline(always)]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() & !3;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = [T::ZERO; 4];
    for (ca, cb) in a_main.chunks_exact(4).zip(b_main.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = T::ZERO;
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Four dot products against one query row in a single sweep:
/// `[q·k[0], q·k[1], q·k[2], q·k[3]]`, **each bit-identical to
/// [`dot`]** on that row — same four lanes, same `(l0+l1)+(l2+l3)+tail`
/// combine — so a kernel may score its neighbors one or four at a time
/// and get the same bits.
///
/// This is the form the graph kernels' row tile scores its edges with,
/// and the second half of the measured lesson recorded on [`axpy`]: one
/// [`dot`] standing alone is a single dependent add chain per lane (at
/// `dk = 64`, sixteen adds deep, paid again for every edge), and what the
/// per-edge kernels were missing was *independent multi-row accumulators*
/// — four rows' chains in flight at once, with `q` loaded once for all
/// four. LLVM does not find that shape by itself. Measured at `dk = 64`,
/// `f32`, L1-resident rows, against 13.0 ns for one [`dot`]: zipping
/// `chunks_exact(4)` over all five slices into four `[f32; 4]`
/// accumulators ran at 17.5 ns a row, and `as_chunks::<4>` with by-value
/// `[f32; 4]` lanes at 14.8 ns — both bit-equal to [`dot`] and both
/// *slower* than four [`dot`] calls (the sizing prototype saw the same of
/// a 16-lane dot over interleaved rows, and shuffle-heavy code behind all
/// three). The SSE2 form below runs at 5.7 ns a row. So the portable
/// implementation *is* four [`dot`] calls; `f32` on `x86_64` uses
/// baseline SSE2 intrinsics (no feature detection, and no FMA: a fused
/// multiply-add would round differently from [`dot`]); and a new portable
/// spelling should be measured before it is trusted.
///
/// # Panics
/// Panics if any key row's length differs from `q`'s.
#[inline(always)]
pub fn dot4<T: Real>(q: &[T], k: [&[T]; 4]) -> [T; 4] {
    T::dot4(q, k)
}

/// [`dot4`] as four [`dot`] calls — every type and target but `f32` on
/// `x86_64`.
#[inline(always)]
pub(crate) fn dot4_portable<T: Real>(q: &[T], k: [&[T]; 4]) -> [T; 4] {
    for row in k {
        assert_eq!(row.len(), q.len(), "key row length differs from q");
    }
    [dot(q, k[0]), dot(q, k[1]), dot(q, k[2]), dot(q, k[3])]
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use dot4_portable as dot4_f32;

/// [`dot4`] for `f32` on `x86_64`: one `__m128` accumulator per key row
/// holds exactly [`dot`]'s four lanes (separate multiply and add, as the
/// scalar code rounds), and the combine and tail are [`dot`]'s own.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn dot4_f32(q: &[f32], k: [&[f32]; 4]) -> [f32; 4] {
    use core::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    for row in k {
        assert_eq!(row.len(), q.len(), "key row length differs from q");
    }
    let split = q.len() & !3;
    let (k0, k1, k2, k3) = (k[0].as_ptr(), k[1].as_ptr(), k[2].as_ptr(), k[3].as_ptr());
    let mut lanes = [[0.0f32; 4]; 4];
    // SAFETY: SSE is part of the `x86_64` baseline, so the intrinsics
    // exist on every CPU this `cfg` compiles for. Loads: `j + 4 <= split
    // <= q.len()`, and the assertion above makes every key row exactly
    // `q.len()` long, so each unaligned 4-float load reads elements
    // `j..j + 4` inside its slice. Stores: each `lanes[r]` is four `f32`s,
    // exactly the 16 bytes written.
    unsafe {
        let (mut a0, mut a1, mut a2, mut a3) = (
            _mm_setzero_ps(),
            _mm_setzero_ps(),
            _mm_setzero_ps(),
            _mm_setzero_ps(),
        );
        for j in (0..split).step_by(4) {
            let qv = _mm_loadu_ps(q.as_ptr().add(j));
            a0 = _mm_add_ps(a0, _mm_mul_ps(qv, _mm_loadu_ps(k0.add(j))));
            a1 = _mm_add_ps(a1, _mm_mul_ps(qv, _mm_loadu_ps(k1.add(j))));
            a2 = _mm_add_ps(a2, _mm_mul_ps(qv, _mm_loadu_ps(k2.add(j))));
            a3 = _mm_add_ps(a3, _mm_mul_ps(qv, _mm_loadu_ps(k3.add(j))));
        }
        _mm_storeu_ps(lanes[0].as_mut_ptr(), a0);
        _mm_storeu_ps(lanes[1].as_mut_ptr(), a1);
        _mm_storeu_ps(lanes[2].as_mut_ptr(), a2);
        _mm_storeu_ps(lanes[3].as_mut_ptr(), a3);
    }
    let mut out = [0.0f32; 4];
    for ((o, l), row) in out.iter_mut().zip(lanes).zip(k) {
        let mut tail = 0.0f32;
        for (&x, &y) in q[split..].iter().zip(&row[split..]) {
            tail += x * y;
        }
        *o = (l[0] + l[1]) + (l[2] + l[3]) + tail;
    }
    out
}

/// `out += w · v` — fold one weighted value row into an accumulator.
///
/// Deliberately left as a plain iterator loop: each element is touched by
/// exactly one independent multiply-add, so LLVM already vectorizes the
/// whole loop. A hand-unrolled 4-chunk variant was measured *slower* here
/// (it broke the vectorizer's pattern and fell back to scalar code, a
/// 1.5× regression on engine launches); explicit lane unrolls are
/// reserved for reductions ([`dot`], the softmax normalizer) where strict
/// IEEE ordering is what blocks auto-vectorization — and a reduction over
/// several rows wants one accumulator *per row* as well as per lane (see
/// [`dot4`] for that half of the lesson).
#[inline(always)]
pub fn axpy<T: Real>(out: &mut [T], w: T, v: &[T]) {
    debug_assert_eq!(out.len(), v.len());
    for (o, &x) in out.iter_mut().zip(v.iter()) {
        *o += w * x;
    }
}

/// `out += w[0]·v[0] + w[1]·v[1] + w[2]·v[2] + w[3]·v[3]` — four weighted
/// value rows folded in one sweep of the accumulator, which is read and
/// written once per *four* rows. Per element the additions run left to
/// right, exactly as four [`axpy`] calls in that order would make them.
/// Elementwise, so left in the indexed form the vectorizer takes.
#[inline(always)]
pub fn axpy4<T: Real>(out: &mut [T], w: [T; 4], v: [&[T]; 4]) {
    let [v0, v1, v2, v3] = v;
    for (i, o) in out.iter_mut().enumerate() {
        *o = *o + w[0] * v0[i] + w[1] * v1[i] + w[2] * v2[i] + w[3] * v3[i];
    }
}

/// Cache-blocked `A · B` (row-major × row-major).
///
/// Each output element accumulates its products in ascending inner index,
/// skipping terms whose `A` factor is exactly zero; see
/// [`matmul_rows_into`], which this is over all of `A`'s rows at once.
pub fn matmul<T: Real>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions differ");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_rows_into(out.as_mut_slice(), a.as_slice(), b);
    out
}

/// `out += a · B` for a block of rows: `a` holds `r` rows of `B.rows()`
/// elements and `out` the matching `r` rows of `B.cols()` elements, both
/// row-major and contiguous. This is [`matmul`]'s loop nest over a row
/// block, so a product can be cut into row blocks (one per participant of
/// a launch, say) with every bit where the whole product puts it: an
/// output element depends on its own row of `a` alone, its terms are added
/// in ascending inner index `p`, and a term whose `a` factor compares equal
/// to zero (`0.0` or `-0.0`) is skipped, not added.
///
/// # Panics
/// Panics when the slices do not hold the same whole number of rows.
pub fn matmul_rows_into<T: Real>(out: &mut [T], a: &[T], b: &Matrix<T>) {
    let (k, n) = b.shape();
    let rows = out.len().checked_div(n).unwrap_or(0);
    assert!(
        out.len() == rows * n && (n == 0 || a.len() == rows * k),
        "row block does not match the matrix"
    );
    if k == 0 || n == 0 {
        return;
    }
    // i-k-j loop order: streams through B and OUT rows contiguously.
    const KB: usize = 64;
    for kk in (0..k).step_by(KB) {
        let k_hi = (kk + KB).min(k);
        for (ai, oi) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (off, &aip) in ai[kk..k_hi].iter().enumerate() {
                if aip == T::ZERO {
                    continue;
                }
                let bp = b.row(kk + off);
                for (o, &x) in oi.iter_mut().zip(bp.iter()) {
                    *o += aip * x;
                }
            }
        }
    }
}

/// `out += Σ_j weights[j] · v[j]` over **all** rows of `v` — the score·V
/// accumulation of the SDP baseline's second pass, blocked over the
/// transposed access pattern: four value rows are folded per sweep of the
/// output row, so the accumulator is read and written once per *four*
/// weights instead of once per weight (¼ the output-row traffic, and four
/// independent multiplies per element for the FMA pipes).
///
/// Additions per output element happen in ascending-`j`, left-to-right
/// order — exactly the order of applying [`axpy`] for `j = 0, 1, 2, …` —
/// so the result is bitwise identical to the unblocked loop.
pub fn weighted_sum_into<T: Real>(out: &mut [T], weights: &[T], v: &Matrix<T>) {
    assert_eq!(weights.len(), v.rows(), "one weight per value row");
    debug_assert_eq!(out.len(), v.cols());
    let blocks = weights.len() & !3;
    for j in (0..blocks).step_by(4) {
        axpy4(
            out,
            [weights[j], weights[j + 1], weights[j + 2], weights[j + 3]],
            [v.row(j), v.row(j + 1), v.row(j + 2), v.row(j + 3)],
        );
    }
    for (j, &w) in weights.iter().enumerate().skip(blocks) {
        axpy(out, w, v.row(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [4.0f64, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 12.0);
        let empty: [f64; 0] = [];
        assert_eq!(dot(&empty, &empty), 0.0);
    }

    #[test]
    fn dot_handles_every_chunk_remainder() {
        // Lengths 0..=9 cover main-loop counts 0..2 with tails 0..3.
        for len in 0..10usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 + 1.0) * 0.5).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64) - 2.5).collect();
            let naive: f64 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            let got = dot(&a, &b);
            assert!((got - naive).abs() < 1e-12, "len={len}: {got} vs {naive}");
        }
    }

    #[test]
    fn dot_is_deterministic_per_length() {
        let a: Vec<f32> = (0..67).map(|i| ((i * 37) % 19) as f32 * 0.3).collect();
        let b: Vec<f32> = (0..67).map(|i| ((i * 11) % 23) as f32 - 9.0).collect();
        assert_eq!(dot(&a, &b), dot(&a, &b));
    }

    /// What lets the SSE2 path exist without being a second semantics:
    /// at every length (main-loop counts 0..=16, tails 0..=3) each of the
    /// four results has exactly the bits [`dot`] gives for that row.
    #[test]
    fn dot4_results_have_the_bits_of_dot() {
        fn check<T: Real>(bits: impl Fn(T) -> u64) {
            let value =
                |r: usize, i: usize| T::from_f64(((r * 131 + i * 37) % 53) as f64 * 0.173 - 4.1);
            for len in 0..=67usize {
                let q: Vec<T> = (0..len).map(|i| value(7, i)).collect();
                let rows: Vec<Vec<T>> = (0..4)
                    .map(|r| (0..len).map(|i| value(r, i)).collect())
                    .collect();
                let got = dot4(&q, [&rows[0], &rows[1], &rows[2], &rows[3]]);
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(bits(got[r]), bits(dot(&q, row)), "len={len} row={r}");
                }
            }
        }
        check::<f32>(|x| u64::from(x.to_bits()));
        check::<f64>(f64::to_bits);
    }

    #[test]
    #[should_panic(expected = "key row length differs from q")]
    fn dot4_rejects_a_short_key_row() {
        let q = [1.0f32; 8];
        let short = [1.0f32; 7];
        let _ = dot4(&q, [&q, &q, &short, &q]);
    }

    #[test]
    fn axpy4_matches_four_axpys_bitwise() {
        let v: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..11)
                    .map(|i| ((r * 7 + i * 3) % 13) as f32 * 0.37 - 2.0)
                    .collect()
            })
            .collect();
        let w = [0.3f32, -1.7, 0.011, 2.5];
        let mut got = vec![0.25f32; 11];
        axpy4(&mut got, w, [&v[0], &v[1], &v[2], &v[3]]);
        let mut want = vec![0.25f32; 11];
        for r in 0..4 {
            axpy(&mut want, w[r], &v[r]);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = [1.0f64, 1.0];
        axpy(&mut out, 2.0, &[3.0, -1.0]);
        assert_eq!(out, [7.0, -1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a: Matrix<f64> = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id: Matrix<f64> = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0f64, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_odd_sizes() {
        // Sizes chosen to not divide the 64-wide k-block.
        let a: Matrix<f64> = Matrix::from_fn(7, 129, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b: Matrix<f64> = Matrix::from_fn(129, 5, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
        let blocked = matmul(&a, &b);
        // Naive triple loop.
        let mut naive: Matrix<f64> = Matrix::zeros(7, 5);
        for i in 0..7 {
            for j in 0..5 {
                let mut s = 0.0;
                for p in 0..129 {
                    s += a.get(i, p) * b.get(p, j);
                }
                naive.row_mut(i)[j] = s;
            }
        }
        assert!(blocked.max_abs_diff(&naive) < 1e-9);
    }

    #[test]
    fn row_blocks_reassemble_matmul_bitwise_and_keep_the_zero_skip() {
        // 130 inner terms cross the 64-wide k-block twice. Column 0 of B
        // holds an infinity in row 5, and A is zero (of either sign) in
        // column 5: the skipped term keeps those outputs finite, where
        // `0 · ∞` would have made them NaN.
        let (m, k, n) = (11, 130, 7);
        let mut a: Matrix<f32> =
            Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.37 - 2.0);
        for i in 0..m {
            a.row_mut(i)[5] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let mut b: Matrix<f32> =
            Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f32 * 0.21 - 1.0);
        b.row_mut(5)[0] = f32::INFINITY;
        let whole = matmul(&a, &b);
        assert!(whole.as_slice().iter().all(|v| v.is_finite()));
        for cuts in [vec![0, m], vec![0, 1, m], vec![0, 4, 5, 9, m]] {
            let mut out: Matrix<f32> = Matrix::zeros(m, n);
            for w in cuts.windows(2) {
                matmul_rows_into(
                    &mut out.as_mut_slice()[w[0] * n..w[1] * n],
                    &a.as_slice()[w[0] * k..w[1] * k],
                    &b,
                );
            }
            let bits =
                |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&whole), "cuts {cuts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "row block does not match")]
    fn row_block_of_the_wrong_width_panics() {
        let b: Matrix<f32> = Matrix::zeros(4, 3);
        matmul_rows_into(&mut [0.0; 6], &[0.0; 7], &b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_shapes_panic() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}

/// Bitwise regression guards for the unrolled kernels: each property pins
/// the exact floating-point evaluation order the doc comments promise, so
/// a future rewrite that silently reassociates a reduction (changing the
/// default-path bits, and with them every recorded replay) fails here
/// instead of in a downstream determinism test.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn assert_bits_eq(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "index {}: {} vs {} differ in bits",
                i,
                g,
                w
            );
        }
        Ok(())
    }

    proptest! {
        /// `dot` combines its four lanes and tail in exactly the documented
        /// order `(l0+l1)+(l2+l3)+tail`.
        #[test]
        fn dot_bitwise_matches_pinned_lane_order(
            pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..67),
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let split = a.len() & !3;
            let mut lanes = [0.0f64; 4];
            for j in (0..split).step_by(4) {
                for lane in 0..4 {
                    lanes[lane] += a[j + lane] * b[j + lane];
                }
            }
            let mut tail = 0.0;
            for j in split..a.len() {
                tail += a[j] * b[j];
            }
            let want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
            prop_assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
        }

        /// `axpy` is elementwise: bitwise identical to the plain scalar
        /// loop regardless of unroll width.
        #[test]
        fn axpy_bitwise_matches_scalar_loop(
            init in proptest::collection::vec(-5.0f64..5.0, 1..40),
            v in proptest::collection::vec(-5.0f64..5.0, 1..40),
            w in -3.0f64..3.0,
        ) {
            let n = init.len().min(v.len());
            let (init, v) = (&init[..n], &v[..n]);

            let mut got = init.to_vec();
            axpy(&mut got, w, v);
            let mut want = init.to_vec();
            for (o, &x) in want.iter_mut().zip(v.iter()) {
                *o += w * x;
            }
            assert_bits_eq(&got, &want)?;
        }

        /// The blocked `weighted_sum_into` is bitwise identical to folding
        /// the value rows one at a time with `axpy` in ascending order —
        /// the unblocked loop it replaced in the SDP baseline.
        #[test]
        fn weighted_sum_into_bitwise_matches_axpy_sequence(
            rows in 0usize..11,
            cols in 1usize..9,
            seed in 0u64..1000,
        ) {
            let mix = |i: u64| -> f64 {
                let h = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let v: Matrix<f64> = Matrix::from_fn(rows, cols, |i, j| mix((i * cols + j) as u64));
            let weights: Vec<f64> = (0..rows).map(|j| mix(0xABCD + j as u64)).collect();

            let mut got = vec![0.25f64; cols];
            weighted_sum_into(&mut got, &weights, &v);
            let mut want = vec![0.25f64; cols];
            for (j, &w) in weights.iter().enumerate() {
                axpy(&mut want, w, v.row(j));
            }
            assert_bits_eq(&got, &want)?;
        }
    }
}
