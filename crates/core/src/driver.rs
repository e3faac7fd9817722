//! What Algorithm 1's row loop is made of: the row tile and its tiled
//! online softmax.
//!
//! Every graph kernel in this crate is the same row loop with a different
//! neighbor-enumeration rule — exactly the role `Get_Neighbors(G, i, Pa)`
//! plays in the paper's Algorithm 1. The loop itself is written once, in
//! [`crate::batch`] (one `RowTile` per output row, every plan step's rule
//! streamed into it); the rules live in [`crate::kernels`]; this module is
//! the arithmetic between them. The paper writes the update per edge and
//! keeps `O` normalized after each one:
//!
//! ```text
//! W      = Qi · Kj / √dk
//! m_new  = max(m, W)
//! l_new  = l·exp(m − m_new) + exp(W − m_new)
//! Oi     = (l_new)⁻¹ · [ l·exp(m − m_new)·Oi + exp(W − m_new)·Vj ]
//! ```
//!
//! This module computes the same recurrence a **tile** at a time. A row
//! rule pushes neighbor indices into a private tile of 32 slots (`TILE`);
//! when it fills (and when the rule's stream ends) the tile is absorbed
//! as one block:
//!
//! ```text
//! W_t    = Qi · K_{j_t} / √dk        four key rows per sweep (ops::dot4)
//! m_new  = max(m, max_t W_t)         one block maximum
//! Oi     = exp(m − m_new) · Oi       one rescale (skipped while m holds)
//! p_t    = exp(W_t − m_new)          one exp per edge, no division
//! l      = l·exp(m − m_new) + Σ p_t
//! Oi     = Oi + Σ p_t · V_{j_t}      four value rows per sweep (ops::axpy4)
//! ```
//!
//! and `Oi ← Oi / l` runs **once**, when the rule's stream for that row
//! ends. So `O` is *unnormalized inside a row stream and normalized at
//! rest*: between the steps of a plan and in every
//! [`crate::AttentionState`] a caller can observe, `(O, l, m)` is exactly
//! the triple Algorithm 1 maintains, which is why plan steps chain on one
//! state (local ∘ global composition, Section V-F), and what
//! [`crate::AttentionEngine::run_batch_states`] hands the numerics-contract
//! tests to read. A row's result is a function
//! of its neighbor *sequence* alone — tiles restart with every row and
//! every plan step, never with a chunk, a batch slot or a thread — so a
//! row computes the same bits however it is launched. [`absorb_edge`] is
//! the one-edge case of the same block update.
//!
//! # Numerics contract
//!
//! - **A row with no edges** (and a step that adds none to a row) leaves
//!   the row as it was: a fresh row stays `O = 0, l = 0, m = −∞`, the
//!   masked-SDP convention for a fully masked row. No `0/0` is evaluated.
//! - **Large scores** of either sign are safe: every weight is
//!   `exp(W − m_new) ≤ 1` and the row maximum's own weight is exactly 1,
//!   so `l ≥ 1` once a finite score has been absorbed — nothing
//!   overflows and the final division never sees a zero.
//! - **A score of `−∞`** is a masked edge: it weighs exactly zero wherever
//!   it falls in the stream, and a row whose every score is `−∞` stays as
//!   a row with no edges.
//! - **A `NaN` or `+∞` score poisons its own row and no other**: that
//!   row's `O` and `l` become `NaN` (`m` becomes `NaN` or `+∞`) and stay
//!   so through every later edge, step and merge. Inputs are not scanned
//!   for non-finite values at the engine boundary; the row is the unit of
//!   damage.

use gpa_parallel::LocalTally;
use gpa_tensor::ops::{axpy, axpy4, dot, dot4};
use gpa_tensor::{Matrix, Real};

/// Edges a row tile holds before it is absorbed as one block. A constant
/// of the arithmetic, not a tuning knob: it fixes where block maxima are
/// taken, hence the bits of every output.
pub(crate) const TILE: usize = 32;

/// Where a row rule sends the neighbors it enumerates: the kernels' row
/// tile, or a plain closure when only the indices are wanted.
pub(crate) trait NeighborSink {
    /// Take neighbor `j`.
    fn push(&mut self, j: usize);

    /// Take a stored index slice whole, in order — what CSR/COO rows hand
    /// over instead of one call per edge.
    fn extend(&mut self, js: &[u32]) {
        for &j in js {
            self.push(j as usize);
        }
    }
}

impl<F: FnMut(usize)> NeighborSink for F {
    #[inline(always)]
    fn push(&mut self, j: usize) {
        self(j)
    }
}

/// Absorb one block of scored edges into a row — the update in the module
/// docs. On entry `weights` holds the scaled scores `W_t`; on exit the
/// softmax weights `p_t`. `value(t)` is the value row of edge `t`.
///
/// `at_rest` says `o` is normalized (the state as stored): the block then
/// carries it as `o · l`, folded into the one rescale. Returns whether the
/// row changed — when it did, `o` is left **unnormalized** and the caller
/// owes it [`normalize`].
#[inline(always)]
fn absorb_block<'v, T: Real>(
    weights: &mut [T],
    value: impl Fn(usize) -> &'v [T],
    at_rest: bool,
    m: &mut T,
    l: &mut T,
    o: &mut [T],
) -> bool {
    // A maximum that keeps NaN (`Real::max` drops it), so a NaN score
    // reaches `m` and poisons the row instead of vanishing.
    let mut m_new = *m;
    for &w in weights.iter() {
        if w > m_new || w.is_nan() {
            m_new = w;
        }
    }
    if m_new == T::neg_infinity() {
        return false; // only −∞ scores so far: nothing carries weight
    }
    // First block of a fresh row: exp(−∞ − m_new) = 0 drops the (zero)
    // accumulator. While the maximum holds, exp(0) = 1 exactly.
    let alpha = if m_new == *m {
        T::ONE
    } else {
        (*m - m_new).exp()
    };
    let kept = *l * alpha;
    let carry = if at_rest { kept } else { alpha };
    if carry != T::ONE {
        for x in o.iter_mut() {
            *x *= carry;
        }
    }
    let mut sum = T::ZERO;
    for w in weights.iter_mut() {
        *w = (*w - m_new).exp();
        sum += *w;
    }
    let quads = weights.len() & !3;
    for t in (0..quads).step_by(4) {
        axpy4(
            o,
            [weights[t], weights[t + 1], weights[t + 2], weights[t + 3]],
            [value(t), value(t + 1), value(t + 2), value(t + 3)],
        );
    }
    for (t, &w) in weights.iter().enumerate().skip(quads) {
        axpy(o, w, value(t));
    }
    *l = kept + sum;
    *m = m_new;
    true
}

/// `o ← o / l`: bring an unnormalized row back to rest.
#[inline(always)]
fn normalize<T: Real>(o: &mut [T], l: T) {
    for x in o.iter_mut() {
        *x /= l;
    }
}

/// Absorb one edge `(i → j)` into row `i` of a state **at rest** — the
/// one-edge case of the block update the kernels run (see the module
/// docs), normalized again before it returns.
///
/// `q_row`/`o_row` are row `i` of `Q`/`O`; `k_row`/`v_row` are row `j` of
/// `K`/`V`; `m`/`l` are row `i`'s softmax statistics. `o_row` is
/// normalized on entry and on exit, so edges absorbed one call at a time
/// compute Algorithm 1 as the paper writes it. The first edge of a fresh
/// row leaves `O = Vj` exactly, `m = W`, `l = 1`.
#[inline(always)]
pub fn absorb_edge<T: Real>(
    q_row: &[T],
    k_row: &[T],
    v_row: &[T],
    scale: T,
    m: &mut T,
    l: &mut T,
    o_row: &mut [T],
) {
    let mut w = [dot(q_row, k_row) * scale];
    if absorb_block(&mut w, |_| v_row, true, m, l, o_row) {
        normalize(o_row, *l);
    }
}

/// One output row's tile: the [`NeighborSink`] a row rule streams into.
///
/// Holds up to [`TILE`] neighbor indices and absorbs them as one block
/// when full. [`RowTile::end_stream`] absorbs the remainder and brings the
/// row back to rest; the tile can then take the next plan step's stream
/// for the same row.
pub(crate) struct RowTile<'a, T: Real> {
    q_row: &'a [T],
    k: &'a Matrix<T>,
    v: &'a Matrix<T>,
    scale: T,
    m: &'a mut T,
    l: &'a mut T,
    o_row: &'a mut [T],
    idx: [usize; TILE],
    len: usize,
    /// `o_row` is normalized: no block of the current stream has changed it.
    at_rest: bool,
    /// Edges absorbed since the last [`RowTile::end_stream`].
    edges: u64,
}

impl<'a, T: Real> RowTile<'a, T> {
    /// A tile over row `i` of a state at rest: `q_row`, `o_row`, `m`, `l`
    /// are that row's; `k`/`v` the key/value set its neighbors index.
    pub(crate) fn new(
        q_row: &'a [T],
        k: &'a Matrix<T>,
        v: &'a Matrix<T>,
        scale: T,
        m: &'a mut T,
        l: &'a mut T,
        o_row: &'a mut [T],
    ) -> Self {
        RowTile {
            q_row,
            k,
            v,
            scale,
            m,
            l,
            o_row,
            idx: [0; TILE],
            len: 0,
            at_rest: true,
            edges: 0,
        }
    }

    fn flush(&mut self) {
        let idx = &self.idx[..self.len];
        let (q, k, v) = (self.q_row, self.k, self.v);
        let mut weights = [T::ZERO; TILE];
        let quads = idx.len() & !3;
        for t in (0..quads).step_by(4) {
            let rows = [
                k.row(idx[t]),
                k.row(idx[t + 1]),
                k.row(idx[t + 2]),
                k.row(idx[t + 3]),
            ];
            for (w, d) in weights[t..t + 4].iter_mut().zip(dot4(q, rows)) {
                *w = d * self.scale;
            }
        }
        for t in quads..idx.len() {
            weights[t] = dot(q, k.row(idx[t])) * self.scale;
        }
        let changed = absorb_block(
            &mut weights[..idx.len()],
            |t| v.row(idx[t]),
            self.at_rest,
            self.m,
            self.l,
            self.o_row,
        );
        self.at_rest &= !changed;
        self.edges += self.len as u64;
        self.len = 0;
    }

    /// End one rule's stream for this row: absorb what the tile still
    /// holds and normalize. Returns the edges the stream delivered — one
    /// dot product and one output update each.
    pub(crate) fn end_stream(&mut self) -> u64 {
        if self.len > 0 {
            self.flush();
        }
        if !self.at_rest {
            normalize(self.o_row, *self.l);
            self.at_rest = true;
        }
        std::mem::take(&mut self.edges)
    }
}

impl<T: Real> NeighborSink for RowTile<'_, T> {
    #[inline(always)]
    fn push(&mut self, j: usize) {
        self.idx[self.len] = j;
        self.len += 1;
        if self.len == TILE {
            self.flush();
        }
    }

    fn extend(&mut self, mut js: &[u32]) {
        // Fill, never restart: the tiling must not depend on whether the
        // indices arrive one by one or as a slice.
        while !js.is_empty() {
            let (head, rest) = js.split_at(js.len().min(TILE - self.len));
            for (slot, &j) in self.idx[self.len..].iter_mut().zip(head) {
                *slot = j as usize;
            }
            self.len += head.len();
            js = rest;
            if self.len == TILE {
                self.flush();
            }
        }
    }
}

/// Count a finished stream's edges: one dot product and one output update
/// per edge, as the per-edge form counted them.
#[inline(always)]
pub(crate) fn tally_edges(tally: &mut Option<LocalTally<'_>>, edges: u64) {
    if let Some(t) = tally.as_mut() {
        t.dots(edges);
        t.updated(edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttentionEngine, AttentionKernel, AttentionPlan, AttentionRequest, AttnError};
    use gpa_masks::{LocalWindow, MaskPattern};
    use gpa_sparse::{CooMask, CsrMask};
    use gpa_tensor::attention_scale;
    use gpa_tensor::init::{qkv, uniform_matrix, uniform_range_matrix};
    use gpa_tensor::softmax::softmax_slice;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    /// Brute-force masked attention for a single row.
    fn reference_row(
        q: &Matrix<f64>,
        k: &Matrix<f64>,
        v: &Matrix<f64>,
        i: usize,
        cols: &[usize],
    ) -> Vec<f64> {
        let scale = 1.0 / (q.cols() as f64).sqrt();
        let scores: Vec<f64> = cols
            .iter()
            .map(|&j| dot(q.row(i), k.row(j)) * scale)
            .collect();
        let mut w = vec![0.0; scores.len()];
        softmax_slice(&scores, &mut w);
        let mut out = vec![0.0; v.cols()];
        for (wi, &j) in w.iter().zip(cols.iter()) {
            for (o, &vv) in out.iter_mut().zip(v.row(j).iter()) {
                *o += wi * vv;
            }
        }
        out
    }

    #[test]
    fn absorb_edge_single_matches_softmax_of_one() {
        let q = [1.0f64, 0.0];
        let k = [0.5f64, 0.5];
        let v = [2.0f64, -1.0];
        let mut m = f64::NEG_INFINITY;
        let mut l = 0.0;
        let mut o = [0.0f64, 0.0];
        absorb_edge(&q, &k, &v, 1.0, &mut m, &mut l, &mut o);
        // One edge: softmax weight 1 → O = V.
        assert_eq!(o, v);
        assert_eq!(m, 0.5);
        assert!((l - 1.0).abs() < 1e-15);
    }

    #[test]
    fn absorb_is_order_insensitive() {
        let (q, _k, _v) = qkv::<f64>(1, 4, 5);
        // Stream the same 3 synthetic edges in two orders.
        let edges: Vec<(Vec<f64>, Vec<f64>)> = (0..3)
            .map(|t| {
                (
                    (0..4).map(|j| ((t * 4 + j) as f64).sin()).collect(),
                    (0..4).map(|j| ((t * 4 + j) as f64).cos()).collect(),
                )
            })
            .collect();
        let run = |order: &[usize]| {
            let mut m = f64::NEG_INFINITY;
            let mut l = 0.0;
            let mut o = vec![0.0f64; 4];
            for &e in order {
                absorb_edge(
                    q.row(0),
                    &edges[e].0,
                    &edges[e].1,
                    0.5,
                    &mut m,
                    &mut l,
                    &mut o,
                );
            }
            o
        };
        let a = run(&[0, 1, 2]);
        let b = run(&[2, 0, 1]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_attention_matches_row_reference() {
        let l = 32;
        let (q, k, v) = qkv::<f64>(l, 8, 42);
        let pat = LocalWindow::new(l, 3);
        let out = engine()
            .run_kernel(AttentionKernel::Csr(&pat.to_csr()), &q, &k, &v)
            .unwrap();
        for i in 0..l {
            let cols: Vec<usize> = (0..l).filter(|&j| pat.contains(i, j)).collect();
            let expect = reference_row(&q, &k, &v, i, &cols);
            for (a, b) in out.row(i).iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-12, "row {i}");
            }
        }
    }

    #[test]
    fn empty_mask_rows_stay_zero() {
        // A pattern with empty rows: Dilated2d's unselected rows (odd
        // in-block offsets) attend nothing.
        use gpa_masks::Dilated2d;
        let l = 12;
        let (q, k, v) = qkv::<f64>(l, 4, 1);
        let pat = Dilated2d::new(l, 4, 1);
        let out = engine()
            .run_kernel(AttentionKernel::Csr(&pat.to_csr()), &q, &k, &v)
            .unwrap();
        for i in 0..l {
            if (i % 4) % 2 != 0 {
                assert!(out.row(i).iter().all(|&x| x == 0.0), "row {i} must be zero");
            } else {
                assert!(
                    out.row(i).iter().any(|&x| x != 0.0),
                    "row {i} must be nonzero"
                );
            }
        }
    }

    #[test]
    fn dimension_validation() {
        let q: Matrix<f64> = Matrix::zeros(4, 8);
        let v: Matrix<f64> = Matrix::zeros(4, 8);
        let run = |k: &Matrix<f64>| {
            engine()
                .run_kernel(AttentionKernel::Local { n: 1 }, &q, k, &v)
                .unwrap_err()
        };
        let err = run(&Matrix::zeros(5, 8));
        assert!(matches!(err, AttnError::ContextLengthMismatch { .. }));
        let err = run(&Matrix::zeros(4, 6));
        assert!(matches!(err, AttnError::KeyDimMismatch { .. }));
    }

    #[test]
    fn work_counter_counts_every_edge() {
        let l = 20;
        let (q, k, v) = qkv::<f64>(l, 4, 9);
        let pat = LocalWindow::new(l, 2);
        let counting = crate::kernels::testing::counting_engine();
        let _ = counting
            .run_kernel(AttentionKernel::Csr(&pat.to_csr()), &q, &k, &v)
            .unwrap();
        let report = counting.work_report().unwrap();
        assert_eq!(report.dot_products, pat.nnz() as u64);
        assert_eq!(report.output_updates, pat.nnz() as u64);
    }

    // ---- the tile itself -------------------------------------------------

    /// Algorithm 1 exactly as the paper writes it — one edge at a time,
    /// two `exp` and two divisions an edge, `O` normalized after each. The
    /// kernels ran this until the tile replaced it; it stays here as the
    /// oracle the tile is checked against.
    fn per_edge_oracle<T: Real>(
        q_row: &[T],
        k: &Matrix<T>,
        v: &Matrix<T>,
        scale: T,
        neighbors: &[usize],
    ) -> (Vec<T>, T, T) {
        let (mut m, mut l) = (T::neg_infinity(), T::ZERO);
        let mut o = vec![T::ZERO; v.cols()];
        for &j in neighbors {
            let w = dot(q_row, k.row(j)) * scale;
            let m_new = m.max(w);
            let alpha = (m - m_new).exp();
            let p = (w - m_new).exp();
            let l_new = l * alpha + p;
            let (c_old, c_new) = (l * alpha / l_new, p / l_new);
            for (x, &vv) in o.iter_mut().zip(v.row(j)) {
                *x = *x * c_old + c_new * vv;
            }
            m = m_new;
            l = l_new;
        }
        (o, l, m)
    }

    /// One row through the tile, neighbors pushed one by one.
    fn tiled_row<T: Real>(
        q_row: &[T],
        k: &Matrix<T>,
        v: &Matrix<T>,
        scale: T,
        neighbors: &[usize],
    ) -> (Vec<T>, T, T) {
        let (mut m, mut l) = (T::neg_infinity(), T::ZERO);
        let mut o = vec![T::ZERO; v.cols()];
        let mut tile = RowTile::new(q_row, k, v, scale, &mut m, &mut l, &mut o);
        for &j in neighbors {
            tile.push(j);
        }
        assert_eq!(tile.end_stream(), neighbors.len() as u64);
        (o, l, m)
    }

    /// Largest `|got − want| / (1 + |want|)` over a row.
    fn row_error<T: Real>(got: &[T], want: &[f64]) -> f64 {
        got.iter()
            .zip(want)
            .map(|(g, w)| (g.to_f64() - w).abs() / (1.0 + w.abs()))
            .fold(0.0, f64::max)
    }

    /// Tile vs the two-pass f64 softmax and vs the per-edge oracle, at
    /// every neighbor count up to two tiles and a remainder.
    fn check_tile_at_every_count<T: Real>(dk: usize, dv: usize, seed: u64, tol: f64) {
        let kv = 23;
        let q: Matrix<T> = uniform_range_matrix(1, dk, -1.0, 1.0, seed);
        let k: Matrix<T> = uniform_range_matrix(kv, dk, -2.0, 2.0, seed + 1);
        let v: Matrix<T> = uniform_range_matrix(kv, dv, -1.0, 1.0, seed + 2);
        let (q64, k64, v64) = (q.cast::<f64>(), k.cast::<f64>(), v.cast::<f64>());
        let scale = attention_scale::<T>(dk);
        for count in 0..=2 * TILE + 5 {
            // Repeats and any order are fine: a neighbor list is a sequence.
            let neighbors: Vec<usize> = (0..count).map(|t| (t * 7 + seed as usize) % kv).collect();
            let (o, l, m) = tiled_row(q.row(0), &k, &v, scale, &neighbors);
            let (o_edge, l_edge, m_edge) = per_edge_oracle(q.row(0), &k, &v, scale, &neighbors);
            let want = reference_row(&q64, &k64, &v64, 0, &neighbors);
            let edge64: Vec<f64> = o_edge.iter().map(|x| x.to_f64()).collect();
            assert!(row_error(&o, &want) <= tol, "count={count} vs two-pass");
            assert!(row_error(&o, &edge64) <= tol, "count={count} vs per-edge");
            // dot4 has dot's bits, so the maximum is the oracle's exactly.
            assert!(m == m_edge, "count={count}: m {m} vs {m_edge}");
            assert!(
                (l.to_f64() - l_edge.to_f64()).abs() <= tol * (1.0 + l_edge.to_f64()),
                "count={count}: l {l} vs {l_edge}"
            );
        }
    }

    mod tile_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every remainder of the 4-row fold and of the tile, widths
            /// that are no multiple of 4, both scalar types.
            #[test]
            fn tile_matches_two_pass_and_per_edge(
                dk in 1usize..19,
                dv in 1usize..19,
                seed in 0u64..10_000,
            ) {
                check_tile_at_every_count::<f64>(dk, dv, seed, 1e-12);
                check_tile_at_every_count::<f32>(dk, dv, seed, 2e-5);
            }
        }
    }

    #[test]
    fn a_slice_handed_over_whole_tiles_exactly_as_pushes_do() {
        let (dk, kv) = (6, 200);
        let q: Matrix<f32> = uniform_matrix(1, dk, 1);
        let k: Matrix<f32> = uniform_matrix(kv, dk, 2);
        let v: Matrix<f32> = uniform_matrix(kv, dk, 3);
        let row: Vec<u32> = (0..150u32).map(|t| (t * 37) % kv as u32).collect();
        let as_usize: Vec<usize> = row.iter().map(|&j| j as usize).collect();
        let pushed = tiled_row(q.row(0), &k, &v, 0.4, &as_usize);
        // Three pushes, then the rest as one slice, then a split slice.
        for cut in [0usize, 3, 32, 70] {
            let (mut m, mut l) = (f32::NEG_INFINITY, 0.0);
            let mut o = vec![0.0f32; dk];
            let mut tile = RowTile::new(q.row(0), &k, &v, 0.4, &mut m, &mut l, &mut o);
            for &j in &as_usize[..3] {
                tile.push(j);
            }
            tile.extend(&row[3..3 + cut]);
            tile.extend(&row[3 + cut..]);
            assert_eq!(tile.end_stream(), 150);
            assert_eq!((o, l, m), pushed.clone(), "cut={cut}");
        }
    }

    /// One request through `run_batch_states`.
    fn state_of<T: Real>(
        plan: &AttentionPlan<'_>,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> crate::AttentionState<T> {
        engine()
            .run_batch_states(plan, &[AttentionRequest::new(q, k, v)])
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn csr_rows_with_no_edges_stay_fresh() {
        let l = 9;
        let (q, k, v) = qkv::<f64>(l, 4, 3);
        // Rows 0, 4 and 8 attend; every other row has no edge at all.
        let entries = vec![(0, 0), (0, 5), (4, 1), (4, 4), (4, 7), (8, 2)];
        let mask = CsrMask::from_coo(&CooMask::from_entries(l, l, entries).unwrap());
        let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
        let state = state_of(&plan, &q, &k, &v);
        for i in 0..l {
            if i % 4 == 0 {
                assert!(state.l[i] >= 1.0 && state.m[i].is_finite(), "row {i}");
            } else {
                assert!(state.o.row(i).iter().all(|&x| x == 0.0), "row {i}");
                assert_eq!((state.l[i], state.m[i]), (0.0, f64::NEG_INFINITY));
            }
        }
    }

    #[test]
    fn a_chained_step_that_adds_nothing_changes_no_bit() {
        let l = 16;
        let (q, k, v) = qkv::<f32>(l, 8, 5);
        let local = AttentionKernel::Local { n: 2 };
        let before = state_of(&AttentionPlan::single(local).unwrap(), &q, &k, &v);
        // Later steps that stream nothing: an empty mask, and a band with
        // no diagonals.
        let empty = CsrMask::empty(l, l);
        let no_band = gpa_sparse::DiaMask::new(l, vec![]).unwrap();
        let chained = AttentionPlan::new(&[
            local,
            AttentionKernel::Csr(&empty),
            AttentionKernel::Dia(&no_band),
        ])
        .unwrap();
        let state = state_of(&chained, &q, &k, &v);
        assert_eq!(state.o, before.o);
        assert_eq!((&state.l, &state.m), (&before.l, &before.m));
        // The same over dirty memory: the steps that add nothing must not
        // let what the window held back in.
        let mut dirty = vec![f32::NAN; l * 8];
        engine()
            .run_batch_into(
                &chained,
                &[AttentionRequest::new(&q, &k, &v)],
                &mut [&mut dirty[..]],
            )
            .unwrap();
        assert_eq!(dirty, before.o.as_slice());
    }

    #[test]
    fn scores_of_1e4_neither_overflow_nor_flush_the_row() {
        // q·k = ±1e4 at scale 1: exp(1e4) overflows and exp(−2e4)
        // underflows in both widths, so only the shifted form survives.
        fn check<T: Real>() {
            let q = Matrix::from_vec(1, 1, vec![T::from_f64(100.0)]);
            let k = Matrix::from_vec(3, 1, [100.0, -100.0, 100.0].map(T::from_f64).to_vec());
            let v = Matrix::from_vec(
                3,
                2,
                [1.0, 2.0, 50.0, 60.0, 3.0, 6.0].map(T::from_f64).to_vec(),
            );
            for order in [[0usize, 1, 2], [1, 0, 2], [2, 0, 1]] {
                let (o, l, m) = tiled_row(q.row(0), &k, &v, T::ONE, &order);
                // The two +1e4 edges share the weight; the −1e4 edge has none.
                assert_eq!((o[0].to_f64(), o[1].to_f64()), (2.0, 4.0), "{order:?}");
                assert_eq!((l.to_f64(), m.to_f64()), (2.0, 1e4));
            }
            // All scores hugely negative: the maximum still weighs 1.
            let (o, l, m) = tiled_row(q.row(0), &k, &v, T::ONE, &[1, 1]);
            assert_eq!((o[0].to_f64(), o[1].to_f64()), (50.0, 60.0));
            assert_eq!((l.to_f64(), m.to_f64()), (2.0, -1e4));
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn a_non_finite_score_poisons_its_own_row_only() {
        let (l, n) = (40, 3);
        for bad in [f32::NAN, f32::INFINITY] {
            let (q, mut k, v) = qkv::<f32>(l, 4, 8);
            // Key 35 scores `bad` against every query row; the local
            // window reaches it from rows 32..=38 and from no other.
            k.row_mut(35).fill(bad);
            // A second step (global token 0) runs over every row: clean
            // for all of them but row 0 itself, which as the global row
            // attends every key outside its window — key 35 too.
            let globals = gpa_masks::GlobalSet::new(l, vec![0]);
            let plan = AttentionPlan::new(&[
                AttentionKernel::Local { n },
                AttentionKernel::Global {
                    globals: &globals,
                    n_sub: n,
                },
            ])
            .unwrap();
            let state = state_of(&plan, &q, &k, &v);
            for i in 0..l {
                let row = state.o.row(i);
                if i == 0 || (32..=38).contains(&i) {
                    assert!(row.iter().all(|x| x.is_nan()), "row {i} ({bad})");
                    assert!(state.l[i].is_nan(), "row {i} ({bad})");
                } else {
                    assert!(row.iter().all(|x| x.is_finite()), "row {i} ({bad})");
                    assert!(
                        state.l[i] >= 1.0 && state.m[i].is_finite(),
                        "row {i} ({bad})"
                    );
                }
            }
        }
    }

    #[test]
    fn a_minus_infinity_score_is_a_masked_edge_wherever_it_falls() {
        let q = Matrix::from_vec(1, 1, vec![1.0f64]);
        let k = Matrix::from_vec(3, 1, vec![f64::NEG_INFINITY, 0.5, 0.25]);
        let v = Matrix::from_vec(3, 1, vec![7.0f64, 1.0, 3.0]);
        let want = tiled_row(q.row(0), &k, &v, 1.0, &[1, 2]);
        // First, last, alone in a tile of its own, and all there is.
        let lead: Vec<usize> = std::iter::repeat(0).take(TILE).chain([1, 2]).collect();
        for order in [vec![0, 1, 2], vec![1, 2, 0], lead] {
            assert_eq!(tiled_row(q.row(0), &k, &v, 1.0, &order), want.clone());
        }
        let (o, l, m) = tiled_row(q.row(0), &k, &v, 1.0, &[0, 0]);
        assert_eq!((o[0], l, m), (0.0, 0.0, f64::NEG_INFINITY));
        // absorb_edge is the same block update.
        let (mut m, mut l, mut o) = (f64::NEG_INFINITY, 0.0, [0.0]);
        absorb_edge(q.row(0), k.row(0), v.row(0), 1.0, &mut m, &mut l, &mut o);
        assert_eq!((o[0], l, m), (0.0, 0.0, f64::NEG_INFINITY));
    }

    /// ROADMAP's "accuracy as a measurement": at a ledger-scale length the
    /// tile must be no further from the f64 reference than the per-edge
    /// recurrence it replaced — one rescale per tile and no per-edge
    /// divide should lose *less* to rounding, not more.
    #[test]
    fn tile_is_no_less_accurate_than_per_edge_at_l_4096() {
        use crate::AttentionKernel;
        let (l, dk, n) = (4096, 64, 50);
        let (q, k, v) = qkv::<f32>(l, dk, 4096);
        let (q64, k64, v64) = (q.cast::<f64>(), k.cast::<f64>(), v.cast::<f64>());
        let globals = gpa_masks::GlobalSet::new(l, vec![0, 1365, 2730]);
        let scale = attention_scale::<f32>(dk);
        let rel = |got: &[f32], want: &[f64]| {
            got.iter()
                .zip(want)
                .map(|(&g, &w)| (f64::from(g) - w).abs() / w.abs())
                .fold(0.0, f64::max)
        };
        let (mut tile_err, mut edge_err) = (0.0f64, 0.0f64);
        // Every 16th row, the three global rows (4093 edges each) included.
        for i in (0..l).filter(|i| i % 16 == 0 || globals.contains(*i)) {
            let mut neighbors = Vec::new();
            let global = AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            };
            for step in [AttentionKernel::Local { n }, global] {
                step.for_each_neighbor(l, i, None, &mut |j| neighbors.push(j));
            }
            let want = reference_row(&q64, &k64, &v64, i, &neighbors);
            let (tiled, ..) = tiled_row(q.row(i), &k, &v, scale, &neighbors);
            let (edge, ..) = per_edge_oracle(q.row(i), &k, &v, scale, &neighbors);
            tile_err = tile_err.max(rel(&tiled, &want));
            edge_err = edge_err.max(rel(&edge, &want));
        }
        assert!(tile_err > 0.0 && edge_err > 0.0, "f32 rounds somewhere");
        assert!(
            tile_err <= edge_err,
            "tile {tile_err:.3e} vs per-edge {edge_err:.3e}"
        );
    }
}
