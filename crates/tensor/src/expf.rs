//! `e^x` for `f32`, four lanes at a time in baseline SSE2, with the bits
//! of glibc's `expf` — the row tile's softmax weights.
//!
//! glibc 2.27 and later computes `expf` by the algorithm of Arm's
//! optimized-routines: with `N = 32`,
//!
//! ```text
//! k  = round(x · N/ln 2)                     (ties to even, via a shift)
//! r  = x · N/ln 2 − k                        |r| ≤ 1/2
//! s  = 2^(k/N) = T[k mod N] · 2^(k div N)    (a 32-entry table)
//! e^x ≈ s · (C0·r³ + C1·r² + C2·r + 1)       (in `f64`)
//! ```
//!
//! and one rounding of the `f64` result to `f32`. [`exp4`] is that
//! algorithm over two `__m128d` halves, with glibc's own table and
//! constants. glibc's `x86_64` build picks, at load time, a form compiled
//! for FMA, which computes `r` as one fused multiply-subtract; without FMA
//! [`exp4`] splits `N/ln 2` into a 26-bit and a 27-bit part, so that
//! `r = (hi·x − k) + lo·x` rounds once as well (both products and the
//! difference are exact). With a plain `z − k` the two differ on exactly
//! two inputs, `x = 32.564632` and `x = −63.09946`.
//!
//! glibc's special cases (overflow past `x ≈ 88.72`, zero below
//! `x ≈ −103.97`, `±∞`, NaN) come out of the main path once `x` is
//! clamped to `[−104, 89]`: both ends round to `+∞` and `+0` in the final
//! conversion, and a NaN passes both clamps with its payload (SSE's
//! `min`/`max` return their second operand when either is NaN), indexes
//! table entry 0 (`s = 1`: the low bits of a widened `f32` are zero) and
//! leaves every operation with the one payload it came in with, quieted,
//! as glibc's `x + x` does.
//!
//! gpa-tensor's tests hold [`exp4`] to a scalar form of the same
//! algorithm on a sample of inputs; an ignored test runs all 2³² inputs
//! against it, and another against the host's `f32::exp`.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128, __m128d, _mm_add_epi64, _mm_add_pd, _mm_castpd_si128, _mm_castsi128_pd, _mm_cvtpd_ps,
    _mm_cvtps_pd, _mm_cvtsi128_si64, _mm_max_ps, _mm_min_ps, _mm_movehl_ps, _mm_movelh_ps,
    _mm_mul_pd, _mm_set1_pd, _mm_set1_ps, _mm_set_epi64x, _mm_slli_epi64, _mm_sub_pd,
    _mm_unpackhi_epi64,
};

/// Table entries: `k mod N` picks one.
const N: usize = 32;

/// glibc's `__exp2f_data.tab`: `T[i]` is the bits of `2^(i/N)` less
/// `i << 47`, so adding `k << 47` puts `k div N` into the exponent.
const TABLE: [u64; N] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `1.5 · 2^52`: adding it rounds an `f64` of magnitude below `2^51` to
/// an integer, ties to even, and leaves that integer in the low bits.
const SHIFT: f64 = 6755399441055744.0;
/// `N/ln 2` (glibc's `invln2_scaled`), and its split: `HI` keeps the top
/// 26 significant bits, `LO = N/ln 2 − HI` the other 27, so `HI·x` and
/// `LO·x` are exact for every `f32` `x`. Each decimal literal is the
/// shortest that reads back as the constant's bits (pinned in the tests).
const INV_LN2_N: f64 = 46.16624130844683;
const INV_LN2_N_HI: f64 = 46.16624069213867;
const INV_LN2_N_LO: f64 = 6.163081565091488e-7;
/// glibc's `poly_scaled`: `C0·r³ + C1·r² + C2·r + 1 ≈ 2^(r/N)`.
const C: [f64; 3] = [
    1.6938359250920212e-6,
    0.00023459809789509004,
    0.021660849396613134,
];
/// The clamp: `e^89` overflows `f32` and `e^−104` rounds to `+0`, as
/// everything beyond them does.
const HIGH: f32 = 89.0;
const LOW: f32 = -104.0;

/// `e^x` in each lane of `x`, with the bits of glibc's `expf` (see the
/// module docs).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn exp4(x: __m128) -> __m128 {
    // SAFETY: SSE and SSE2 are part of the `x86_64` baseline, so these
    // intrinsics exist on every CPU this `cfg` compiles for; none touches
    // memory.
    unsafe {
        // Operand order matters: a NaN `x` is the second operand of both.
        let x = _mm_max_ps(_mm_set1_ps(LOW), _mm_min_ps(_mm_set1_ps(HIGH), x));
        let lo = exp2_lanes(_mm_cvtps_pd(x));
        let hi = exp2_lanes(_mm_cvtps_pd(_mm_movehl_ps(x, x)));
        _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi))
    }
}

/// Two lanes of [`exp4`] after the clamp, in `f64`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn exp2_lanes(x: __m128d) -> __m128d {
    // SAFETY: as in [`exp4`].
    unsafe {
        let kd = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(INV_LN2_N), x), _mm_set1_pd(SHIFT));
        let ki = _mm_castpd_si128(kd);
        let kd = _mm_sub_pd(kd, _mm_set1_pd(SHIFT));
        let r = _mm_add_pd(
            _mm_sub_pd(_mm_mul_pd(_mm_set1_pd(INV_LN2_N_HI), x), kd),
            _mm_mul_pd(_mm_set1_pd(INV_LN2_N_LO), x),
        );
        let t0 = TABLE[_mm_cvtsi128_si64(ki) as usize % N];
        let t1 = TABLE[_mm_cvtsi128_si64(_mm_unpackhi_epi64(ki, ki)) as usize % N];
        let t = _mm_set_epi64x(t1 as i64, t0 as i64);
        let s = _mm_castsi128_pd(_mm_add_epi64(t, _mm_slli_epi64::<47>(ki)));
        let p = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(C[0]), r), _mm_set1_pd(C[1]));
        let y = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(C[2]), r), _mm_set1_pd(1.0));
        let y = _mm_add_pd(_mm_mul_pd(p, _mm_mul_pd(r, r)), y);
        _mm_mul_pd(y, s)
    }
}

/// [`exp4`]'s algorithm one `f32` at a time, in plain Rust: the form
/// the SSE2 lanes are held to on every target and input.
#[cfg(test)]
pub(crate) fn scalar_form(x: f32) -> f32 {
    // `clamp` returns a NaN `x` itself, payload and all.
    let x = f64::from(x.clamp(LOW, HIGH));
    let kd = INV_LN2_N * x + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = (INV_LN2_N_HI * x - kd) + INV_LN2_N_LO * x;
    let s = f64::from_bits(TABLE[ki as usize % N].wrapping_add(ki << 47));
    let p = C[0] * r + C[1];
    let y = C[2] * r + 1.0;
    ((p * (r * r) + y) * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_arch = "x86_64")]
    fn sse2(x: [f32; 4]) -> [f32; 4] {
        use core::arch::x86_64::{_mm_loadu_ps, _mm_storeu_ps};
        let mut out = [0.0f32; 4];
        // SAFETY: both pointers address four `f32`s.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), exp4(_mm_loadu_ps(x.as_ptr()))) };
        out
    }

    /// Every input `exp4` and `scalar_form` must agree on: the two inputs
    /// where a reduction without the split differs from glibc, every
    /// 4099th bit pattern (all signs, exponents, NaN payloads), the band
    /// whose results are subnormal, ±8 ulp around both cut-offs and
    /// around 0, and ±∞.
    #[cfg(target_arch = "x86_64")]
    fn sample() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u32::MAX / 4099)
            .map(|i| f32::from_bits(i * 4099))
            .collect();
        let band = (-87.34f32).to_bits()..=(-103.98f32).to_bits();
        xs.extend(band.step_by(97).map(f32::from_bits));
        for edge in [88.72284f32, -103.97208, 0.0, -0.0, 89.0, -104.0] {
            for d in 0..=8u32 {
                xs.push(f32::from_bits(edge.to_bits().wrapping_add(d)));
                xs.push(f32::from_bits(edge.to_bits().wrapping_sub(d)));
            }
        }
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, 32.564632, -63.09946]);
        xs.extend([0x7fc0_0001, 0xffa0_1234, 0x7f80_0001, 0xff80_0002].map(f32::from_bits));
        xs
    }

    /// The constants are glibc's, bit for bit, and `HI + LO` is `N/ln 2`
    /// exactly.
    #[test]
    fn constants_have_glibc_bits() {
        let bits = [
            SHIFT,
            INV_LN2_N,
            INV_LN2_N_HI,
            INV_LN2_N_LO,
            C[0],
            C[1],
            C[2],
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x4338000000000000,
                0x40471547652b82fe,
                0x4047154760000000,
                0x3ea4ae0bf8000000,
                0x3ebc6af84b912394,
                0x3f2ebfce50fac4f3,
                0x3f962e42ff0c52d6,
            ]
        );
        assert_eq!(INV_LN2_N_HI + INV_LN2_N_LO, INV_LN2_N);
        assert_eq!(INV_LN2_N_HI.to_bits() & ((1 << 27) - 1), 0);
    }

    /// The two inputs where an unsplit reduction (`r = z − k`) gives
    /// glibc's FMA build another result, with glibc's bits.
    #[test]
    fn the_split_reduction_has_glibc_bits_where_a_plain_one_does_not() {
        for (x, want) in [(0x4202422f_u32, 0x56fc9f1c_u32), (0xc27c65d9, 0x11fa2993)] {
            let x = f32::from_bits(x);
            assert_eq!(scalar_form(x).to_bits(), want, "scalar form at {x}");
            #[cfg(target_arch = "x86_64")]
            assert_eq!(sse2([x; 4])[3].to_bits(), want, "exp4 at {x}");
        }
    }

    #[test]
    fn special_inputs_give_glibc_results() {
        let cases = [
            (f32::INFINITY, f32::INFINITY),
            (f32::NEG_INFINITY, 0.0),
            (0.0, 1.0),
            (-0.0, 1.0),
            (88.72284, f32::INFINITY),
            (-103.98, 0.0),
            (1.0, std::f32::consts::E),
        ];
        for (x, want) in cases {
            assert_eq!(scalar_form(x).to_bits(), want.to_bits(), "e^{x}");
        }
        // A NaN keeps its payload, quieted.
        for bits in [0x7fc0_0001_u32, 0xffa0_1234, 0x7f80_0001] {
            assert_eq!(
                scalar_form(f32::from_bits(bits)).to_bits(),
                bits | 0x0040_0000
            );
        }
        // The largest finite result and the smallest subnormal one.
        assert!(scalar_form(88.72283).is_finite());
        assert_eq!(scalar_form(-103.27893).to_bits(), 1);
    }

    /// Lanes are independent, and each has the scalar form's bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp4_has_the_bits_of_its_scalar_form() {
        let xs = sample();
        for (c, chunk) in xs.chunks(4).enumerate() {
            let mut lanes = [1.5f32; 4];
            lanes[..chunk.len()].copy_from_slice(chunk);
            for rot in 0..4 {
                lanes.rotate_left(1);
                let got = sse2(lanes);
                for (&x, &g) in lanes.iter().zip(&got) {
                    let want = scalar_form(x);
                    assert_eq!(g.to_bits(), want.to_bits(), "chunk {c} rot {rot}: e^{x}");
                }
            }
        }
    }

    /// All 2³² inputs through [`exp4`] against `check`, four lanes a call.
    #[cfg(target_arch = "x86_64")]
    fn exhaustive(check: impl Fn(f32) -> f32) {
        let mut mismatches = 0u64;
        for hi in 0..=u32::MAX >> 2 {
            let base = hi << 2;
            let x = [0, 1, 2, 3].map(|i| f32::from_bits(base | i));
            for (&x, g) in x.iter().zip(sse2(x)) {
                let want = check(x);
                if g.to_bits() != want.to_bits() {
                    if mismatches < 16 {
                        eprintln!(
                            "{:#010x}: {:#010x} vs {:#010x}",
                            x.to_bits(),
                            g.to_bits(),
                            want.to_bits()
                        );
                    }
                    mismatches += 1;
                }
            }
        }
        assert_eq!(mismatches, 0, "mismatches over 2^32 inputs");
    }

    /// Host-independent: the SSE2 lanes against the scalar form on every
    /// `f32`. About 20 s in the release profile.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "2^32 inputs; run with --ignored in the release profile"]
    fn exp4_has_the_bits_of_its_scalar_form_on_every_input() {
        exhaustive(scalar_form);
    }

    /// A report on the host: the SSE2 lanes against its libm's `expf` on
    /// every `f32`. Holds where `f32::exp` is glibc ≥ 2.27 on a CPU with
    /// FMA; elsewhere a mismatch says the tile's `f32` bits no longer
    /// follow that host's libm, not that anything is wrong.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "2^32 inputs against the host libm; a local report"]
    fn exp4_has_the_bits_of_libm_on_every_input() {
        exhaustive(f32::exp);
    }
}
