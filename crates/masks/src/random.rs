//! Random attention (Fig. 2, orange cells; Section II-C).
//!
//! "Token-token relationships that are chosen from a uniform random
//! distribution": in [`RandomUniform`] each `(i, j)` pair is an edge
//! independently with probability `p` (so `E[Sf] = p`) — the form the
//! BigBird benchmark in Fig. 6 uses with `Sf = 0.001`.
//!
//! The pattern is *stateless*: a row is a pure function of `(seed, i)`,
//! drawn afresh from its own seeded stream whenever it is asked for, so
//! `contains` and `append_row` stay consistent without materializing
//! anything. A row is drawn in time proportional to its length, never to
//! `L`.

use crate::pattern::MaskPattern;
use gpa_sparse::Idx;

/// The SplitMix64 increment (2⁶⁴ / φ, odd).
const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64 — a small, high-quality stateless mixer: one step of the
/// SplitMix64 stream whose state is `x`.
#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Bernoulli(p) mask: every cell is a non-zero independently with
/// probability `p`.
///
/// A row is drawn by geometric gap skipping. Row `i` owns a SplitMix64
/// stream seeded from `(seed, i)`; each draw turns 53 of its bits into
/// `u ∈ (0, 1]`, and the number of non-edges before the next edge is
/// `⌊ln u / ln(1 − p)⌋` — geometric with success probability `p`, which is
/// exactly the gap between i.i.d. Bernoulli(p) successes. A row of `d`
/// edges therefore costs `d + 1` draws, whatever `L` is. `p = 0` (no edge)
/// and `p = 1` (every column) are exact and draw nothing.
///
/// [`MaskPattern::contains`] re-draws row `i` up to column `j`, so a
/// membership test costs `O(1 + p·j)`; enumerate rows instead of probing
/// cells where that matters.
#[derive(Clone, Copy, Debug)]
pub struct RandomUniform {
    l: usize,
    p: f64,
    seed: u64,
}

impl RandomUniform {
    /// i.i.d. mask with edge probability `p ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(l: usize, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        RandomUniform { l, p, seed }
    }

    /// Edge probability (the expected sparsity factor).
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// The columns of row `i`, ascending, drawn lazily from the row's own
    /// stream.
    fn row(&self, i: usize) -> impl Iterator<Item = usize> {
        let (p, l) = (self.p, if self.p > 0.0 { self.l } else { 0 });
        // ln(1 − p), once per row; unused at p = 1, where it is −∞.
        let ln_q = (-p).ln_1p();
        let mut state = splitmix64(self.seed ^ (i as u64).wrapping_mul(GAMMA));
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let left = l - next;
            if left == 0 {
                return None;
            }
            if p < 1.0 {
                let bits = splitmix64(state) >> 11;
                state = state.wrapping_add(GAMMA);
                let u = (bits + 1) as f64 * (1.0 / (1u64 << 53) as f64);
                let gap = (u.ln() / ln_q).floor();
                if gap >= left as f64 {
                    next = l;
                    return None;
                }
                next += gap as usize;
            }
            next += 1;
            Some(next - 1)
        })
    }
}

impl MaskPattern for RandomUniform {
    fn context_len(&self) -> usize {
        self.l
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        i < self.l && self.row(i).find(|&c| c >= j) == Some(j)
    }

    fn append_row(&self, i: usize, out: &mut Vec<Idx>) {
        out.extend(self.row(i).map(|j| j as Idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::check_pattern_laws;

    #[test]
    fn uniform_laws_hold() {
        for p in [0.0, 1e-3, 0.05, 0.5, 0.999, 1.0] {
            for l in [1, 2, 24, 97] {
                check_pattern_laws(&RandomUniform::new(l, p, 7));
            }
        }
    }

    /// `|x − mean| ≤ 5σ` for a Binomial(n, p) count `x`.
    fn within_five_sigma(x: usize, n: usize, p: f64) -> bool {
        let mean = n as f64 * p;
        (x as f64 - mean).abs() <= 5.0 * (mean * (1.0 - p)).sqrt()
    }

    #[test]
    fn uniform_nnz_is_binomial() {
        let l = 4096;
        for p in [1e-3, 0.02, 0.3] {
            let nnz = RandomUniform::new(l, p, 21).nnz();
            assert!(within_five_sigma(nnz, l * l, p), "p = {p}: nnz = {nnz}");
        }
    }

    #[test]
    fn uniform_hits_both_end_columns_at_rate_p() {
        // An off-by-one at either end of the gap walk starves column 0 or
        // column L − 1 (or runs past it, which `to_csr` rejects).
        let l = 4096;
        for p in [0.02, 0.3] {
            let csr = RandomUniform::new(l, p, 5).to_csr();
            let first = (0..l).filter(|&i| csr.row(i).first() == Some(&0)).count();
            let last = (0..l)
                .filter(|&i| csr.row(i).last() == Some(&(l as Idx - 1)))
                .count();
            assert!(
                within_five_sigma(first, l, p),
                "p = {p}: column 0 hit {first}×"
            );
            assert!(
                within_five_sigma(last, l, p),
                "p = {p}: column L−1 hit {last}×"
            );
        }
    }

    #[test]
    fn uniform_rows_differ_across_rows_and_seeds() {
        let row = |seed, i| {
            let mut out = Vec::new();
            RandomUniform::new(1024, 0.05, seed).append_row(i, &mut out);
            out
        };
        for i in 0..64 {
            assert_eq!(
                row(3, i),
                row(3, i),
                "row {i} is not a function of (seed, i)"
            );
            assert_ne!(row(3, i), row(3, i + 1), "rows {i} and {} coincide", i + 1);
            assert_ne!(row(3, i), row(4, i), "row {i} ignores the seed");
        }
    }

    #[test]
    fn uniform_density_tracks_probability() {
        let m = RandomUniform::new(256, 0.1, 3);
        let sf = m.sparsity_factor();
        assert!((sf - 0.1).abs() < 0.01, "sf = {sf}");
        assert_eq!(RandomUniform::new(64, 0.0, 1).nnz(), 0);
        assert_eq!(RandomUniform::new(64, 1.0, 1).nnz(), 64 * 64);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = RandomUniform::new(32, 0.2, 11).to_csr();
        let b = RandomUniform::new(32, 0.2, 11).to_csr();
        let c = RandomUniform::new(32, 0.2, 12).to_csr();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_probability_panics() {
        let _ = RandomUniform::new(8, 1.5, 0);
    }
}
