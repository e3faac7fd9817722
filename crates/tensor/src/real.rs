//! The [`Real`] trait: the floating-point abstraction every kernel in this
//! workspace is generic over.
//!
//! Kernels are instantiated at `f32` for performance runs and at `f64` for
//! strict verification against the paper's `torch.allclose` tolerances
//! (Section V-A). Besides the scalar operations, the trait carries hidden
//! hooks for the hot loops of [`crate::ops`] (the four-row dot, the row
//! tile's block maximum and softmax weights, the value fold and the
//! row-block matmul), so that `f32` on `x86_64` can run SSE2 forms of
//! them with the generic loops' bits — for the weights, the bits of
//! glibc's `expf`.

use crate::matrix::Matrix;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar used by attention kernels.
///
/// Implemented for `f32` and `f64`. All methods mirror the corresponding
/// `std` float intrinsics and are `#[inline]` so generic kernels compile to
/// the same code as hand-monomorphised ones.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Negative infinity — the initial value of the running softmax maximum
    /// `m` in Algorithm 1.
    fn neg_infinity() -> Self;
    /// Positive infinity.
    fn infinity() -> Self;
    /// Quiet NaN.
    fn nan() -> Self;

    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// `√self`.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum (propagates the larger value, ignores NaN like `f32::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// Fused or unfused multiply-add; `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Reciprocal `1 / self`.
    fn recip(self) -> Self;

    /// True if this value is NaN.
    fn is_nan(self) -> bool;
    /// True if this value is finite (neither infinite nor NaN).
    fn is_finite(self) -> bool;

    /// Lossless-ish conversion from `f64` (used for constants and test data).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used for comparisons and reporting).
    fn to_f64(self) -> f64;
    /// Conversion from `usize` (used for scale factors such as `1/√dk`).
    fn from_usize(v: usize) -> Self;

    /// Per-type implementation behind [`crate::ops::dot4`] — call that.
    #[doc(hidden)]
    fn dot4(q: &[Self], k: [&[Self]; 4]) -> [Self; 4];
    /// Per-type implementation behind [`crate::ops::block_max`] — call
    /// that.
    #[doc(hidden)]
    fn block_max(m: Self, w: &[Self]) -> Self;
    /// Per-type implementation behind [`crate::ops::exp_weights`] — call
    /// that.
    #[doc(hidden)]
    fn exp_weights(w: &mut [Self], shift: Self) -> Self;
    /// Per-type implementation behind [`crate::ops::axpy`] and
    /// [`crate::ops::axpy4`] — call those.
    #[doc(hidden)]
    fn fold<const R: usize>(out: &mut [Self], w: [Self; R], v: [&[Self]; R]);
    /// Per-type implementation behind [`crate::ops::matmul_rows_into`] —
    /// call that.
    #[doc(hidden)]
    fn matmul_rows(out: &mut [Self], a: &[Self], b: &Matrix<Self>);
}

macro_rules! impl_real {
    ($t:ty, $dot4:path, $block_max:path, $exp_weights:path, $fold:path, $matmul_rows:path) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline(always)]
            fn neg_infinity() -> Self {
                <$t>::NEG_INFINITY
            }
            #[inline(always)]
            fn infinity() -> Self {
                <$t>::INFINITY
            }
            #[inline(always)]
            fn nan() -> Self {
                <$t>::NAN
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                // Plain multiply-add: `fma` is not reliably fast on all
                // targets and changes rounding vs the reference kernels.
                self * a + b
            }
            #[inline(always)]
            fn recip(self) -> Self {
                self.recip()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline(always)]
            fn dot4(q: &[Self], k: [&[Self]; 4]) -> [Self; 4] {
                $dot4(q, k)
            }
            #[inline(always)]
            fn block_max(m: Self, w: &[Self]) -> Self {
                $block_max(m, w)
            }
            #[inline(always)]
            fn exp_weights(w: &mut [Self], shift: Self) -> Self {
                $exp_weights(w, shift)
            }
            #[inline(always)]
            fn fold<const R: usize>(out: &mut [Self], w: [Self; R], v: [&[Self]; R]) {
                $fold(out, w, v)
            }
            #[inline(always)]
            fn matmul_rows(out: &mut [Self], a: &[Self], b: &Matrix<Self>) {
                $matmul_rows(out, a, b)
            }
        }
    };
}

impl_real!(
    f32,
    crate::ops::dot4_f32,
    crate::ops::block_max_f32,
    crate::ops::exp_weights_f32,
    crate::ops::fold_f32,
    crate::ops::matmul_rows_f32
);
impl_real!(
    f64,
    crate::ops::dot4_portable,
    crate::ops::block_max_portable,
    crate::ops::exp_weights_portable,
    crate::ops::fold_portable,
    crate::ops::matmul_rows_portable
);

/// The attention scale factor `1/√dk` from Eq. (1) of the paper.
#[inline]
pub fn attention_scale<T: Real>(dk: usize) -> T {
    T::ONE / T::from_usize(dk).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(<f32 as Real>::ZERO, 0.0f32);
        assert_eq!(<f64 as Real>::ONE, 1.0f64);
        assert!(<f32 as Real>::neg_infinity().is_infinite());
        assert!(<f32 as Real>::neg_infinity() < 0.0);
        assert!(<f64 as Real>::nan().is_nan());
    }

    #[test]
    fn max_ignores_nan_like_std() {
        let a: f32 = 1.0;
        assert_eq!(Real::max(a, f32::NAN), 1.0);
        assert_eq!(Real::max(f32::NAN, a), 1.0);
    }

    #[test]
    fn scale_is_inverse_sqrt() {
        let s: f64 = attention_scale(64);
        assert!((s - 0.125).abs() < 1e-15);
        let s32: f32 = attention_scale(16);
        assert!((s32 - 0.25).abs() < 1e-7);
    }

    #[test]
    fn neg_infinity_is_softmax_identity() {
        // exp(-inf) must be exactly 0 so an empty attention row stays zero.
        assert_eq!(<f64 as Real>::neg_infinity().exp(), 0.0);
        assert_eq!(<f32 as Real>::neg_infinity().exp(), 0.0);
    }

    #[test]
    fn conversions_roundtrip() {
        for v in [-1.5f64, 0.0, 3.25, 1e10] {
            assert_eq!(<f64 as Real>::from_f64(v), v);
            assert_eq!(<f64 as Real>::to_f64(v), v);
        }
        assert_eq!(<f32 as Real>::from_usize(7), 7.0f32);
    }
}
