//! Error type for the attention kernels' public API.

use std::fmt;

/// Input validation failure for an attention kernel call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttnError {
    /// Q, K, V, or the output state disagree on the context length `L`.
    ContextLengthMismatch {
        /// Rows of Q.
        q: usize,
        /// Rows of K.
        k: usize,
        /// Rows of V.
        v: usize,
    },
    /// Q and K disagree on the key dimension `dk`.
    KeyDimMismatch {
        /// Columns of Q.
        q: usize,
        /// Columns of K.
        k: usize,
    },
    /// The output/state shape does not match `(L, dv)`.
    StateShapeMismatch {
        /// Expected shape.
        expected: (usize, usize),
        /// Actual shape.
        actual: (usize, usize),
    },
    /// The mask's shape does not match the context length.
    MaskShapeMismatch {
        /// Mask rows/cols.
        mask: (usize, usize),
        /// Context length from Q.
        l: usize,
    },
    /// The query window falls outside the logical square attention problem
    /// (`q_offset + q_rows > kv_rows`).
    WindowMismatch {
        /// Absolute index of the first query row.
        q_offset: usize,
        /// Number of query rows.
        q_rows: usize,
        /// Number of key/value rows.
        kv_rows: usize,
    },
    /// A mask parameter is invalid for this kernel (e.g. zero block size).
    BadParameter {
        /// Human-readable description.
        what: &'static str,
    },
}

impl fmt::Display for AttnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttnError::ContextLengthMismatch { q, k, v } => {
                write!(f, "Q/K/V row counts differ: {q}/{k}/{v}")
            }
            AttnError::KeyDimMismatch { q, k } => {
                write!(f, "Q has dk={q} but K has dk={k}")
            }
            AttnError::StateShapeMismatch { expected, actual } => write!(
                f,
                "state shape {actual:?} does not match expected {expected:?}"
            ),
            AttnError::MaskShapeMismatch { mask, l } => {
                write!(f, "mask shape {mask:?} does not match context length {l}")
            }
            AttnError::WindowMismatch {
                q_offset,
                q_rows,
                kv_rows,
            } => write!(
                f,
                "query window {q_offset}..{} exceeds key/value context {kv_rows}",
                q_offset + q_rows
            ),
            AttnError::BadParameter { what } => write!(f, "bad kernel parameter: {what}"),
        }
    }
}

impl std::error::Error for AttnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AttnError::ContextLengthMismatch { q: 1, k: 2, v: 3 };
        assert!(e.to_string().contains("1/2/3"));
        let e = AttnError::KeyDimMismatch { q: 64, k: 32 };
        assert!(e.to_string().contains("64"));
        let e = AttnError::BadParameter {
            what: "w must be positive",
        };
        assert!(e.to_string().contains("w must be positive"));
        let e = AttnError::WindowMismatch {
            q_offset: 6,
            q_rows: 3,
            kv_rows: 8,
        };
        assert!(e.to_string().contains("6..9"));
    }
}
