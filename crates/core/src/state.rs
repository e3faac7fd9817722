//! Resumable attention state — Algorithm 1's `(O, l, m)` triple.
//!
//! Every graph-kernel launch computes an [`AttentionState`] per request
//! ([`crate::AttentionEngine::run_batch_states`] returns them; the other
//! entry points keep `O` and drop the statistics). A state is always **at
//! rest** when a caller can see it: `O` is in the *normalized*
//! form of Algorithm 1 — the exact attention output over the edges
//! absorbed so far — with `l` and `m` the statistics that produced it.
//! (Inside one row's neighbor stream the kernels carry `O` unnormalized
//! and divide by `l` once when the stream ends; see [`crate::driver`].)
//! So plan steps over disjoint masks compose exactly: the local step and
//! then the global step on the same row state yield precisely Longformer
//! attention (Fig. 6's "Loc + Glo" series). `run_batch_states` stays
//! public because the numerics-contract tests read `l` and `m` through it.

use gpa_tensor::{Matrix, Real};

/// Per-row online-softmax statistics plus the normalized output accumulator.
#[derive(Clone)]
pub struct AttentionState<T> {
    /// Normalized output accumulator, `L × dv`. At rest it is the
    /// attention output: rows with no absorbed edges are zero, matching the
    /// masked-SDP convention for fully masked rows.
    pub o: Matrix<T>,
    /// Row normalizers: `l[i] = Σ exp(w − m[i])` over absorbed edges.
    pub l: Vec<T>,
    /// Row running maxima of attention scores.
    pub m: Vec<T>,
}

impl<T: Real> std::fmt::Debug for AttentionState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttentionState")
            .field("rows", &self.o.rows())
            .field("dv", &self.o.cols())
            .field(
                "absorbed_rows",
                &self.l.iter().filter(|&&l| l != T::ZERO).count(),
            )
            .finish()
    }
}

impl<T: Real> AttentionState<T> {
    /// Fresh state for `l_ctx` rows and value dimension `dv`:
    /// `O = 0`, `l = 0`, `m = −∞` (Algorithm 1's initialization).
    #[cfg(test)]
    pub fn new(l_ctx: usize, dv: usize) -> Self {
        AttentionState {
            o: Matrix::zeros(l_ctx, dv),
            l: vec![T::ZERO; l_ctx],
            m: vec![T::neg_infinity(); l_ctx],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_matches_algorithm1_init() {
        let s: AttentionState<f64> = AttentionState::new(4, 3);
        assert_eq!(s.o.shape(), (4, 3));
        assert!(s.m.iter().all(|&m| m == f64::NEG_INFINITY));
        assert!(s.l.iter().all(|&l| l == 0.0));
        assert!(s.o.as_slice().iter().all(|&v| v == 0.0));
    }
}
