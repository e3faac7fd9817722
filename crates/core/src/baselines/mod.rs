//! Dense baselines the paper compares against: masked SDP (PyTorch-style)
//! and dense FlashAttention.

pub mod flash;
pub mod sdp;

pub use flash::{flash_attention, flash_attention_tiled, DEFAULT_TILE};
pub use sdp::masked_sdp;

use crate::error::AttnError;
use crate::options::KernelOptions;
use gpa_tensor::{attention_scale, Matrix, Real};

/// Check a dense baseline's inputs — called directly, nothing upstream has —
/// and return `(L, dv, scale)`. Dense attention is square: `Q`, `K` and `V`
/// have `L` rows each, `Q` and `K` the same positive width.
fn square_inputs<T: Real>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    opts: &KernelOptions<'_>,
) -> Result<(usize, usize, T), AttnError> {
    if q.rows() != k.rows() || k.rows() != v.rows() {
        return Err(AttnError::ContextLengthMismatch {
            q: q.rows(),
            k: k.rows(),
            v: v.rows(),
        });
    }
    if q.cols() != k.cols() {
        return Err(AttnError::KeyDimMismatch {
            q: q.cols(),
            k: k.cols(),
        });
    }
    if q.cols() == 0 {
        return Err(AttnError::BadParameter {
            what: "dk must be positive",
        });
    }
    let scale = match opts.scale {
        Some(s) => T::from_f64(s),
        None => attention_scale(q.cols()),
    };
    Ok((q.rows(), v.cols(), scale))
}
