//! Dense linear-algebra helpers used by the kernels, baselines and
//! projections.
//!
//! Only what the attention pipeline needs: dot products, the row tile's
//! block maximum, softmax weights and value fold, and a row-block matmul
//! for the projection layers. Each has one semantics, fixed to the bit:
//! for the sums, the order in which every element's terms are added. The
//! generic loops are that semantics for every type and target; `f32` on
//! `x86_64` runs baseline SSE2 forms of the hot ones ([`dot4`],
//! [`block_max`], [`exp_weights`], [`axpy`]/[`axpy4`],
//! [`matmul_rows_into`]) through hidden [`Real`] hooks, because LLVM does
//! not find the register shapes they allow: it compiles portable four-row
//! dots to shuffle-heavy code, a NaN-keeping maximum to a serial compare
//! chain, `exp` to one libm call per element, versions the fold on an
//! alias check with a scalar epilogue on every call, and loads and stores
//! the matmul's whole output row once per inner index. The SSE2 sums add
//! the same terms in the same order, with a separate multiply and add (no
//! FMA), the maximum falls back to the scalar rule wherever `maxps` could
//! pick another bit pattern, and the `exp` is a port of glibc's `expf`
//! with its bits on every input; the tests below hold each to its generic
//! form (the `exp` to a scalar form of the port).

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
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline(always)]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot operands differ in length");
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
/// This is the form the graph kernels' row tile scores its edges with.
/// One [`dot`] standing alone is a single dependent add chain per lane (at
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

/// The row tile's block maximum: `m_new = max(m, w[0], w[1], …)` by the
/// scalar rule `if w > m_new || w.is_nan() { m_new = w }`, in slice
/// order, from `m_new = m`. So a NaN in `w` wins (the last one, if there
/// are several) and reaches the row's `m` instead of vanishing, a NaN `m`
/// stays, and between equal values the first is kept — which decides only
/// the sign of a `±0` maximum, the one maximum with two bit patterns.
///
/// `f32` on `x86_64` takes SSE2 `maxps` over `w` and falls back to the
/// scalar rule when `w` holds a NaN or the maximum is `±0`; in every
/// other case the maximum has one bit pattern, so the result is the same.
#[inline(always)]
pub fn block_max<T: Real>(m: T, w: &[T]) -> T {
    T::block_max(m, w)
}

/// [`block_max`] by its scalar rule — every type and target but `f32` on
/// `x86_64`, and that one's fallback.
#[inline(always)]
pub(crate) fn block_max_portable<T: Real>(m: T, w: &[T]) -> T {
    let mut m_new = m;
    for &x in w {
        if x > m_new || x.is_nan() {
            m_new = x;
        }
    }
    m_new
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use block_max_portable as block_max_f32;

/// [`block_max`] for `f32` on `x86_64`: two `maxps` chains over eight
/// elements a step, one `cmpunordps` for each pair of loads to see a
/// NaN, and the scalar rule where `maxps` would decide differently — and
/// below four elements, where it is the cheaper loop.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn block_max_f32(m: f32, w: &[f32]) -> f32 {
    use core::arch::x86_64::{
        _mm_cmpunord_ps, _mm_cvtss_f32, _mm_loadu_ps, _mm_max_ps, _mm_movehl_ps, _mm_movemask_ps,
        _mm_or_ps, _mm_set1_ps, _mm_setzero_ps, _mm_shuffle_ps,
    };
    let n = w.len();
    if n < 4 {
        return block_max_portable(m, w);
    }
    // SAFETY: SSE is part of the `x86_64` baseline, so the intrinsics
    // exist on every CPU this `cfg` compiles for. `step` loads four `f32`s
    // at `i` and at `j`, and every call passes `i, j <= n − 4`, so both
    // unaligned loads stay inside `w`.
    unsafe {
        let mut top = [_mm_set1_ps(f32::NEG_INFINITY); 2];
        let mut nan = _mm_setzero_ps();
        let mut step = |i: usize, j: usize| {
            let (x0, x1) = (
                _mm_loadu_ps(w.as_ptr().add(i)),
                _mm_loadu_ps(w.as_ptr().add(j)),
            );
            top = [_mm_max_ps(top[0], x0), _mm_max_ps(top[1], x1)];
            nan = _mm_or_ps(nan, _mm_cmpunord_ps(x0, x1));
        };
        let whole = n & !7;
        for i in (0..whole).step_by(8) {
            step(i, i + 4);
        }
        if whole < n {
            // The rest in loads that may overlap the last step: the
            // maximum and the NaN test take an element twice alike.
            step(n.saturating_sub(8), n - 4);
        }
        let x = _mm_max_ps(top[0], top[1]);
        let x = _mm_max_ps(x, _mm_movehl_ps(x, x));
        let x = _mm_cvtss_f32(_mm_max_ps(x, _mm_shuffle_ps::<1>(x, x)));
        if _mm_movemask_ps(nan) != 0 || x == 0.0 {
            return block_max_portable(m, w);
        }
        if x > m {
            x
        } else {
            m
        }
    }
}

/// The row tile's softmax weights: `w[t] ← exp(w[t] − shift)` for every
/// `t`, and their sum, added in slice order from `+0`.
///
/// `f32` on `x86_64` computes `exp` four lanes at a time in SSE2 with the
/// bits of glibc's `expf` (a port of its algorithm, the crate's own: no
/// libm call), the last `len % 4` weights in part of one more vector;
/// every other type and target calls `exp` one element at a time.
#[inline(always)]
pub fn exp_weights<T: Real>(w: &mut [T], shift: T) -> T {
    T::exp_weights(w, shift)
}

/// [`exp_weights`] one `exp` at a time — every type and target but `f32`
/// on `x86_64`.
#[inline(always)]
pub(crate) fn exp_weights_portable<T: Real>(w: &mut [T], shift: T) -> T {
    let mut sum = T::ZERO;
    for x in w.iter_mut() {
        *x = (*x - shift).exp();
        sum += *x;
    }
    sum
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use exp_weights_portable as exp_weights_f32;

/// [`exp_weights`] for `f32` on `x86_64`: the subtraction in `f32` lanes
/// (as the scalar code rounds it), then [`crate::expf`]'s four-lane `exp`;
/// the last `len % 4` weights take the top lanes of one more vector.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn exp_weights_f32(w: &mut [f32], shift: f32) -> f32 {
    use crate::expf::exp4;
    use core::arch::x86_64::{_mm_loadu_ps, _mm_set1_ps, _mm_set_ps, _mm_storeu_ps, _mm_sub_ps};
    let n = w.len();
    let r = n % 4;
    // SAFETY: SSE is part of the `x86_64` baseline, so the intrinsics
    // exist on every CPU this `cfg` compiles for. Every unaligned load and
    // store touches the four `f32`s of a slice or array of exactly four,
    // or of `w[n − 4..]` when `n >= 4`.
    unsafe {
        let s = _mm_set1_ps(shift);
        // The last `r` weights in the top `r` lanes: from four weights
        // on, the last four (read before the loop below writes any);
        // below that, padded with `shift`.
        let tail = match *w {
            _ if r == 0 => None,
            [a] => Some(_mm_set_ps(a, shift, shift, shift)),
            [a, b] => Some(_mm_set_ps(b, a, shift, shift)),
            [a, b, c] => Some(_mm_set_ps(c, b, a, shift)),
            _ => Some(_mm_loadu_ps(w[n - 4..].as_ptr())),
        }
        .map(|x| exp4(_mm_sub_ps(x, s)));
        let (body, rest) = w.split_at_mut(n - r);
        let mut sum = 0.0f32;
        for c in body.chunks_exact_mut(4) {
            _mm_storeu_ps(
                c.as_mut_ptr(),
                exp4(_mm_sub_ps(_mm_loadu_ps(c.as_ptr()), s)),
            );
            for &x in c.iter() {
                sum += x;
            }
        }
        if let Some(e) = tail {
            let mut lanes = [0.0f32; 4];
            _mm_storeu_ps(lanes.as_mut_ptr(), e);
            for (x, &y) in rest.iter_mut().zip(&lanes[4 - r..]) {
                *x = y;
                sum += y;
            }
        }
        sum
    }
}

/// `out += w · v` — fold one weighted value row into an accumulator:
/// `o = o + w·v` per element, a multiply then an add.
///
/// `f32` on `x86_64` runs it as one SSE2 pass with a scalar tail of
/// `len % 4` elements (see [`axpy4`]); every other type and target runs
/// the plain loop.
///
/// # Panics
/// Panics if `v` and `out` differ in length.
#[inline(always)]
pub fn axpy<T: Real>(out: &mut [T], w: T, v: &[T]) {
    T::fold(out, [w], [v]);
}

/// `out += w[0]·v[0] + w[1]·v[1] + w[2]·v[2] + w[3]·v[3]` — four weighted
/// value rows folded in one sweep of the accumulator, which is read and
/// written once per *four* rows. Per element the additions run left to
/// right, `(((o + w0·v0) + w1·v1) + w2·v2) + w3·v3`, exactly as four
/// [`axpy`] calls in that order would make them.
///
/// This is the value fold of the graph kernels' row tile. The generic
/// loop compiles to a loop versioned on an alias check with a scalar
/// epilogue of up to four elements on every call; `f32` on `x86_64` runs
/// one SSE2 pass (four lanes at a time, the multiplies and adds separate
/// as above, a scalar tail of `len % 4` elements). Measured over a
/// `Local` row loop (`L = 2048`, `n` 8–128, one binary, variants
/// alternating, bits equal), it takes ×0.65–0.91 of the generic loop's
/// time at width 32, ×0.78–0.80 at 64 and ×0.91–0.94 at 10. A portable
/// spelling (a zip over exact-length slices) matched it within 3 % at
/// width 32 but was up to 6 % slower at 64, so `f32` keeps the SSE2 pass.
///
/// # Panics
/// Panics if any value row's length differs from `out`'s.
#[inline(always)]
pub fn axpy4<T: Real>(out: &mut [T], w: [T; 4], v: [&[T]; 4]) {
    T::fold(out, w, v);
}

/// [`axpy`] and [`axpy4`] over `R` value rows — every type and target but
/// `f32` on `x86_64`.
#[inline(always)]
pub(crate) fn fold_portable<T: Real, const R: usize>(out: &mut [T], w: [T; R], v: [&[T]; R]) {
    for row in v {
        assert_eq!(row.len(), out.len(), "value row length differs from out");
    }
    for (i, o) in out.iter_mut().enumerate() {
        let mut x = *o;
        for r in 0..R {
            x += w[r] * v[r][i];
        }
        *o = x;
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fold_portable as fold_f32;

/// [`axpy`] and [`axpy4`] for `f32` on `x86_64`: four lanes per `__m128`,
/// each rounding its multiply and its add separately, in row order, and
/// [`fold_portable`]'s own loop for the `len % 4` tail.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn fold_f32<const R: usize>(out: &mut [f32], w: [f32; R], v: [&[f32]; R]) {
    use core::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps};
    for row in v {
        assert_eq!(row.len(), out.len(), "value row length differs from out");
    }
    let split = out.len() & !3;
    let o = out.as_mut_ptr();
    // SAFETY: SSE is part of the `x86_64` baseline. `j + 4 <= split <=
    // out.len()`, and the assertion above makes every value row exactly
    // `out.len()` long, so each unaligned 4-float load and store touches
    // elements `j..j + 4` inside its slice.
    unsafe {
        let wv = w.map(|x| _mm_set1_ps(x));
        for j in (0..split).step_by(4) {
            let mut acc = _mm_loadu_ps(o.add(j));
            for r in 0..R {
                acc = _mm_add_ps(acc, _mm_mul_ps(wv[r], _mm_loadu_ps(v[r].as_ptr().add(j))));
            }
            _mm_storeu_ps(o.add(j), acc);
        }
    }
    let tail = v.map(|row| &row[split..]);
    fold_portable(&mut out[split..], w, tail);
}

/// `A · B` (row-major × row-major).
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
/// in ascending inner index `p` (`o = o + a·b`, a multiply then an add),
/// and a term whose `a` factor compares equal to zero (`0.0` or `-0.0`)
/// is skipped, not added.
///
/// The generic loop (every type and target but `f32` on `x86_64`) is
/// i-k-j, and loads and stores the output row once per `p`. `f32` on
/// `x86_64` keeps an output tile in SSE2 registers for the whole `p` loop
/// instead: 2 rows × 16 columns, and 1 row × 32 columns for a lone row (a
/// decode tick's one-row segments); columns past the last 16 take the
/// generic loop. In one binary, variants alternating and bits equal, the
/// tiles took ×0.67–0.90 of the i-k-j loop's time at 1–192 rows × 128 ×
/// 384 and × 128 (×0.67–0.72 for one row).
///
/// # Panics
/// Panics when the slices do not hold the same whole number of rows.
pub fn matmul_rows_into<T: Real>(out: &mut [T], a: &[T], b: &Matrix<T>) {
    T::matmul_rows(out, a, b);
}

/// The number of rows `out` and `a` hold for `B`.
///
/// # Panics
/// Panics when the slices do not hold the same whole number of rows.
fn block_rows<T: Real>(out: &[T], a: &[T], b: &Matrix<T>) -> usize {
    let (k, n) = b.shape();
    let rows = out.len().checked_div(n).unwrap_or(0);
    assert!(
        out.len() == rows * n && (n == 0 || a.len() == rows * k),
        "row block does not match the matrix"
    );
    rows
}

/// [`matmul_rows_into`] as the i-k-j loop — every type and target but
/// `f32` on `x86_64`.
pub(crate) fn matmul_rows_portable<T: Real>(out: &mut [T], a: &[T], b: &Matrix<T>) {
    block_rows(out, a, b);
    matmul_columns(out, a, b, 0);
}

/// The i-k-j loop over columns `first..` of a row block whose shape
/// [`block_rows`] has checked: streams through `B` and `out` rows
/// contiguously, one `p` at a time.
fn matmul_columns<T: Real>(out: &mut [T], a: &[T], b: &Matrix<T>, first: usize) {
    let (k, n) = b.shape();
    if k == 0 || n == 0 {
        return;
    }
    for (ai, oi) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&aip, bp) in ai.iter().zip(b.as_slice().chunks_exact(n)) {
            if aip == T::ZERO {
                continue;
            }
            for (o, &x) in oi[first..].iter_mut().zip(&bp[first..]) {
                *o += aip * x;
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use matmul_rows_portable as matmul_rows_f32;

/// [`matmul_rows_into`] for `f32` on `x86_64`: register tiles of
/// [`gemm_tile`], then the generic loop for the columns past the last 16.
#[cfg(target_arch = "x86_64")]
pub(crate) fn matmul_rows_f32(out: &mut [f32], a: &[f32], b: &Matrix<f32>) {
    let rows = block_rows(out, a, b);
    let wide = b.cols() & !15;
    // Column panels outside, row pairs inside: a `k × 16` panel of B stays
    // in L1 while every row pair folds it.
    for c in (0..wide).step_by(16) {
        for i in (0..rows & !1).step_by(2) {
            gemm_tile::<2, 4>(out, a, b, i, c);
        }
    }
    if rows % 2 == 1 {
        let i = rows - 1;
        let wide32 = wide & !31;
        for c in (0..wide32).step_by(32) {
            gemm_tile::<1, 8>(out, a, b, i, c);
        }
        if wide32 < wide {
            gemm_tile::<1, 4>(out, a, b, i, wide32);
        }
    }
    if wide < b.cols() {
        matmul_columns(out, a, b, wide);
    }
}

/// One register tile of [`matmul_rows_f32`]: rows `i..i + R` of `out`,
/// columns `c..c + 4·C`, held in `R × C` `__m128` accumulators across the
/// whole `p` loop. Each row skips its own zero `a` factors; every element
/// adds its terms in ascending `p`, a multiply then an add, as the
/// generic loop does.
///
/// # Panics
/// Panics if the tile does not lie inside `out` (which must hold `b`'s
/// column count per row) or `a`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_tile<const R: usize, const C: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &Matrix<f32>,
    i: usize,
    c: usize,
) {
    use core::arch::x86_64::{
        _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    };
    let (k, n) = b.shape();
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    assert!(c + 4 * C <= n, "tile past the last column");
    // SAFETY: SSE is part of the `x86_64` baseline. Every pointer below
    // starts a `chunks_exact(4)` chunk of `out` or of a row of `B`, so each
    // unaligned 4-float load or store stays inside its slice.
    unsafe {
        let mut acc = [[_mm_setzero_ps(); C]; R];
        for (r, lanes) in acc.iter_mut().enumerate() {
            let o = out[(i + r) * n + c..][..4 * C].chunks_exact(4);
            for (x, o4) in lanes.iter_mut().zip(o) {
                *x = _mm_loadu_ps(o4.as_ptr());
            }
        }
        for (p, b_row) in b.as_slice().chunks_exact(n).enumerate() {
            let b_tile = &b_row[c..c + 4 * C];
            for (lanes, a_row) in acc.iter_mut().zip(a_rows) {
                let x = a_row[p];
                if x == 0.0 {
                    continue;
                }
                let xv = _mm_set1_ps(x);
                for (y, b4) in lanes.iter_mut().zip(b_tile.chunks_exact(4)) {
                    *y = _mm_add_ps(*y, _mm_mul_ps(xv, _mm_loadu_ps(b4.as_ptr())));
                }
            }
        }
        for (r, lanes) in acc.iter().enumerate() {
            let o = out[(i + r) * n + c..][..4 * C].chunks_exact_mut(4);
            for (&x, o4) in lanes.iter().zip(o) {
                _mm_storeu_ps(o4.as_mut_ptr(), x);
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
    #[should_panic(expected = "dot operands differ in length")]
    fn dot_rejects_operands_of_different_lengths() {
        let _ = dot(&[1.0f32; 5], &[1.0f32; 4]);
    }

    /// [`block_max`] is its scalar rule, bit for bit, at every length
    /// 0..=33 (SSE2 steps of eight, every padded remainder): over plain
    /// scores, all `−∞`, a `±0` maximum in both orders of sign, and a NaN
    /// first, last, and twice with different payloads — from an `m` that
    /// is `−∞`, `±0`, inside the scores, larger than all of them, or NaN.
    #[test]
    fn block_max_has_the_bits_of_the_scalar_rule() {
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0xffc0_0002));
        for len in 0..=33usize {
            let plain: Vec<f32> = (0..len)
                .map(|i| ((i * 37) % 23) as f32 * 0.5 - 6.0)
                .collect();
            let zeros = |first: f32| -> Vec<f32> {
                (0..len)
                    .map(|i| match i % 3 {
                        0 => first,
                        1 => -first,
                        _ => -1.0 - i as f32,
                    })
                    .collect()
            };
            let mut cases = vec![
                plain.clone(),
                vec![f32::NEG_INFINITY; len],
                zeros(0.0),
                zeros(-0.0),
            ];
            for at in [0, len / 2, len.saturating_sub(1)] {
                for (second, nan) in [(None, nan_a), (len.checked_sub(1 + at / 2), nan_b)] {
                    let mut w = plain.clone();
                    if let Some(x) = w.get_mut(at) {
                        *x = nan_a;
                    }
                    if let Some(x) = second.and_then(|j| w.get_mut(j)) {
                        *x = nan;
                    }
                    cases.push(w);
                }
            }
            for w in &cases {
                for m in [f32::NEG_INFINITY, -0.0, 0.0, -3.0, 100.0, nan_b] {
                    let (got, want) = (block_max(m, w), block_max_portable(m, w));
                    assert_eq!(got.to_bits(), want.to_bits(), "len={len} m={m} w={w:?}");
                }
            }
        }
    }

    /// [`exp_weights`] for `f32` on `x86_64`: each weight has the bits of
    /// the `exp` port's scalar form at `w − shift` (rounded in `f32`), at
    /// every length 0..=13 (tails 0..=3, the lone lane of a tile's
    /// rescale included), and the sum is theirs added left to right.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp_weights_have_the_bits_of_the_scalar_form() {
        use crate::expf::scalar_form;
        let scores = [-7.5f32, 0.0, 88.9, -0.0, -103.5, 3.25, -87.5, 32.564632];
        for len in 0..=13usize {
            for shift in [0.0f32, 2.5, -60.0, f32::NEG_INFINITY, f32::NAN] {
                let w0: Vec<f32> = (0..len)
                    .map(|i| {
                        let x = scores[(i * 3) % scores.len()];
                        if i % 5 == 4 {
                            HOSTILE[i % HOSTILE.len()]
                        } else {
                            x
                        }
                    })
                    .collect();
                let mut w = w0.clone();
                let sum = exp_weights(&mut w, shift);
                let mut want_sum = 0.0f32;
                for (t, (&x, &got)) in w0.iter().zip(&w).enumerate() {
                    let want = scalar_form(x - shift);
                    assert!(same_f32(got, want), "len={len} shift={shift} t={t}");
                    want_sum += want;
                }
                assert!(same_f32(sum, want_sum), "len={len} shift={shift}: sum");
            }
        }
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

    /// Bits, with every NaN as one value: which NaN payload an IEEE
    /// operation propagates is not part of Rust's float semantics.
    fn same_f32(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Inputs that a reordered or fused operation would round, overflow or
    /// sign differently: ±0, ±∞, NaN, subnormals, values near the top of
    /// the range and plain ones.
    const HOSTILE: [f32; 12] = [
        1.375,
        -0.0,
        0.0,
        f32::INFINITY,
        -2.625,
        f32::NAN,
        1.0e-40,
        -f32::MIN_POSITIVE,
        3.0e38,
        -0.3,
        f32::NEG_INFINITY,
        0.1,
    ];

    /// What lets the SSE2 fold exist without being a second semantics: at
    /// every length 0..=70 (SIMD passes 0..=17, tails 0..=3), for one and
    /// four value rows, [`axpy`] and [`axpy4`] give every element the bits
    /// of the generic loop — over plain values, whose sums a reassociated
    /// fold would round differently, and over [`HOSTILE`] ones, with
    /// `−0 + −0·x` kept `−0`.
    #[test]
    fn fold_results_have_the_bits_of_the_generic_loop() {
        let plain = |r: usize, i: usize| ((r * 131 + i * 37) % 53) as f32 * 0.173 - 4.1;
        let hostile = |r: usize, i: usize| HOSTILE[(r * 5 + i * 7) % HOSTILE.len()];
        let values: [&dyn Fn(usize, usize) -> f32; 2] = [&plain, &hostile];
        for value in values {
            for len in 0..=70usize {
                let rows: Vec<Vec<f32>> = (0..4)
                    .map(|r| (0..len).map(|i| value(r + 1, i)).collect())
                    .collect();
                let v = [&rows[0][..], &rows[1], &rows[2], &rows[3]];
                for shift in 0..HOSTILE.len() {
                    let w: [f32; 4] = std::array::from_fn(|r| value(r + shift, 3));
                    let init: Vec<f32> = (0..len)
                        .map(|i| {
                            if i % 3 == 0 {
                                -0.0
                            } else {
                                value(0, i + shift)
                            }
                        })
                        .collect();
                    let (mut got, mut want) = (init.clone(), init.clone());
                    axpy4(&mut got, w, v);
                    fold_portable(&mut want, w, v);
                    let (mut got1, mut want1) = (init.clone(), init);
                    axpy(&mut got1, w[0], v[0]);
                    fold_portable(&mut want1, [w[0]], [v[0]]);
                    for i in 0..len {
                        assert!(same_f32(got[i], want[i]), "axpy4 len={len} i={i}");
                        assert!(same_f32(got1[i], want1[i]), "axpy len={len} i={i}");
                    }
                }
            }
        }
    }

    /// The same for [`matmul_rows_into`]: blocks of 1..=5 rows (2-row
    /// tiles and a lone row), every width 0..=70 (16- and 32-column
    /// tiles and every tail), and inner sizes on both sides of the 64-wide
    /// block of the generic loop. Every `A` column `p ≡ 2 (mod 5)` is `±0`
    /// (both signs are skipped) where `B` holds ±∞ and NaN, so a row that
    /// multiplies a zero instead of skipping it turns finite outputs into
    /// NaN; the rest of `B` cycles through [`HOSTILE`]'s finite values,
    /// and `out` starts at `−0` in every third element.
    #[test]
    fn matmul_tiles_have_the_bits_of_the_generic_loop() {
        let finite: Vec<f32> = HOSTILE.into_iter().filter(|x| x.is_finite()).collect();
        let special = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
        for k in [1usize, 3, 63, 64, 65, 130] {
            for n in 0..=70usize {
                let b: Matrix<f32> = Matrix::from_fn(k, n, |p, j| {
                    if p % 5 == 2 {
                        special[(p + j) % 3]
                    } else {
                        finite[(p * 3 + j * 5) % finite.len()] * 0.01
                    }
                });
                for rows in 1..=5usize {
                    let a: Vec<f32> = (0..rows * k)
                        .map(|x| {
                            let (i, p) = (x / k, x % k);
                            match p % 5 {
                                2 if (i + p) % 2 == 0 => 0.0,
                                2 => -0.0,
                                _ => ((i * 31 + p * 17) % 13) as f32 * 0.37 - 2.0,
                            }
                        })
                        .collect();
                    let init: Vec<f32> = (0..rows * n)
                        .map(|x| if x % 3 == 0 { -0.0 } else { x as f32 * 0.25 })
                        .collect();
                    let (mut got, mut want) = (init.clone(), init);
                    matmul_rows_into(&mut got, &a, &b);
                    matmul_rows_portable(&mut want, &a, &b);
                    for (x, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            same_f32(g, w),
                            "k={k} n={n} rows={rows} element {x}: {g} vs {w}"
                        );
                        assert!(w.is_finite(), "k={k} n={n}: {w}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "value row length differs from out")]
    fn axpy_rejects_a_short_value_row() {
        let mut out = [0.0f32; 8];
        axpy(&mut out, 1.0, &[1.0; 7]);
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
