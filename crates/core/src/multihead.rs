//! Multi-head attention on top of the single-head graph kernels.
//!
//! The paper's kernels are "single-batch and single-headed … though it is
//! trivial to scale them to a multi-headed approach" (Section IV-B) and
//! lists multi-head support as the immediate next step (Section VI-A).
//! This module is that extension: head-sliced projections, one kernel run
//! per head (the mask is shared across heads, as in Longformer/BigBird),
//! concatenation, and an output projection — a full transformer attention
//! sub-layer usable by the examples.
//!
//! The layer has one forward, [`MultiHeadAttention::forward_on`]: an
//! [`AttentionEngine`] and a compiled plan, all heads of the pass
//! flattened into a **single** [`AttentionEngine::run_batch`] launch.
//! KV-cached serving of layers is `gpa-model`'s `DecoderModel`, which
//! stacks them over a [`crate::PagePool`] and calls the row-block
//! projections ([`MultiHeadAttention::project_qkv_batched`],
//! [`MultiHeadAttention::combine_heads_batched`]) on the engine's pool
//! around its own launch. Every projection launch claims its rows at the
//! pool's default grain.

use crate::batch::AttentionRequest;
use crate::engine::AttentionEngine;
use crate::error::AttnError;
use crate::plan::AttentionPlan;
use gpa_parallel::{parallel_for, RaggedSpace, RowWriter, Schedule, ThreadPool};
use gpa_tensor::init::xavier_uniform;
use gpa_tensor::ops::matmul_rows_into;
use gpa_tensor::{Matrix, Real};
use std::ops::Range;

/// Per-head `(Q, K, V)` projections of an input window — what
/// [`MultiHeadAttention::project_qkv`] returns (`heads` matrices each).
pub type ProjectedHeads<T> = (Vec<Matrix<T>>, Vec<Matrix<T>>, Vec<Matrix<T>>);

/// Where a row-block projection runs: as one launch on a pool, or
/// (`None`) inline on the calling thread.
type Launch<'a> = Option<&'a ThreadPool>;

fn launch_rows(on: Launch<'_>, rows: usize, body: impl Fn(Range<usize>) + Sync) {
    match on {
        Some(pool) => parallel_for(pool, rows, Schedule::default(), body),
        None if rows > 0 => body(0..rows),
        None => {}
    }
}

/// A multi-head attention layer with learned (randomly initialized)
/// projections.
///
/// Both projections are row-block GEMMs
/// ([`gpa_tensor::ops::matmul_rows_into`]): an output row depends on its
/// input row alone and is accumulated in `ops::matmul`'s order, so however
/// a launch cuts the rows — one sequence or many stacked, one participant
/// or several — every element has the bits `matmul(x, W)` gives it.
pub struct MultiHeadAttention<T> {
    /// `[Wq | Wk | Wv]`, `d_model × 3·heads·dk`: one pass over an input row
    /// yields its query, key and value rows.
    wqkv: Matrix<T>,
    wo: Matrix<T>,
    heads: usize,
}

impl<T: Real> MultiHeadAttention<T> {
    /// Layer with `heads` heads of dimension `dk` over a `d_model` stream,
    /// Xavier-initialized from `seed`.
    ///
    /// # Panics
    /// Panics if `d_model == 0`, `heads == 0` or `dk == 0`.
    pub fn new_random(d_model: usize, heads: usize, dk: usize, seed: u64) -> Self {
        assert!(
            d_model > 0 && heads > 0 && dk > 0,
            "d_model, heads and dk must be positive"
        );
        let inner = heads * dk;
        let parts: [Matrix<T>; 3] = [
            xavier_uniform(d_model, inner, seed),
            xavier_uniform(d_model, inner, seed.wrapping_add(1)),
            xavier_uniform(d_model, inner, seed.wrapping_add(2)),
        ];
        let mut wqkv = Matrix::zeros(d_model, 3 * inner);
        for p in 0..d_model {
            for (dst, part) in wqkv.row_mut(p).chunks_exact_mut(inner).zip(&parts) {
                dst.copy_from_slice(part.row(p));
            }
        }
        MultiHeadAttention {
            wqkv,
            wo: xavier_uniform(inner, d_model, seed.wrapping_add(3)),
            heads,
        }
    }

    /// Head dimension.
    pub(crate) fn dk(&self) -> usize {
        self.wo.rows() / self.heads
    }

    /// Model dimension.
    pub fn d_model(&self) -> usize {
        self.wo.cols()
    }

    /// Forward pass through an [`AttentionEngine`] and a compiled plan:
    /// project, run the plan per head (same mask every head) as **one**
    /// batched launch, concatenate, project out. Input and output are
    /// `L × d_model`. The plan (usually shared with many other
    /// layers/requests) is compiled once, and the engine's pool runs every
    /// launch.
    pub fn forward_on(
        &self,
        engine: &AttentionEngine,
        plan: &AttentionPlan<'_>,
        x: &Matrix<T>,
    ) -> Result<Matrix<T>, AttnError> {
        if x.cols() != self.d_model() {
            return Err(AttnError::StateShapeMismatch {
                expected: (x.rows(), self.d_model()),
                actual: x.shape(),
            });
        }
        let on = Some(engine.pool());
        let (qh, kh, vh) = self
            .project_rows(on, &[x])
            .pop()
            .expect("one input, one projection");

        let requests: Vec<AttentionRequest<'_, T>> = (0..self.heads)
            .map(|h| AttentionRequest::new(&qh[h], &kh[h], &vh[h]))
            .collect();
        let outs = engine.run_batch(plan, &requests)?;
        Ok(self
            .combine_rows(on, &outs, None)
            .pop()
            .expect("one sequence in, one out"))
    }

    /// Project an input window (`R × d_model`) into per-head `(Q, K, V)`
    /// triples, on the calling thread — the building block callers
    /// batching *across* layers use to assemble their own attention
    /// requests; [`Self::forward_on`] and
    /// [`Self::project_qkv_batched`] run the same projection.
    ///
    /// # Panics
    /// Panics when `x` is not `d_model` wide.
    pub fn project_qkv(&self, x: &Matrix<T>) -> ProjectedHeads<T> {
        self.project_rows(None, &[x])
            .pop()
            .expect("one input, one projection")
    }

    /// [`Self::project_qkv`] for many windows at once: the rows of every
    /// `xs[i]`, stacked, go through `[Wq|Wk|Wv]` as **one** row-block
    /// launch on `pool` (a decoder stack's tick: all sequences' rows of one
    /// layer). Returns one triple per input, each bitwise what
    /// [`Self::project_qkv`] returns for that input alone.
    ///
    /// # Panics
    /// Panics when an input is not `d_model` wide.
    pub fn project_qkv_batched(
        &self,
        pool: &ThreadPool,
        xs: &[&Matrix<T>],
    ) -> Vec<ProjectedHeads<T>> {
        self.project_rows(Some(pool), xs)
    }

    /// Concatenate per-head attention outputs (`R × dk` each, one per
    /// head) and apply the output projection, yielding `R × d_model`, on
    /// the calling thread — the inverse bookend of [`Self::project_qkv`].
    ///
    /// # Panics
    /// Panics when the slice length or shapes disagree with the layer.
    pub fn combine_heads(&self, head_outs: &[Matrix<T>]) -> Matrix<T> {
        assert_eq!(head_outs.len(), self.heads, "one output per head");
        self.combine_rows(None, head_outs, None)
            .pop()
            .expect("one sequence in, one out")
    }

    /// [`Self::combine_heads`] for many sequences at once, as **one**
    /// row-block launch on `pool`: `head_outs` holds `heads` matrices per
    /// sequence, sequence-major (the order a batched launch over
    /// `sequences × heads` requests returns). Sequence `i`'s result is
    /// `residual[i] + attn` elementwise — the decoder's residual
    /// connection, added inside the same launch.
    ///
    /// # Panics
    /// Panics when `head_outs` is not a whole number of sequences, when
    /// head or residual shapes disagree with the layer, or when there is
    /// not one residual per sequence.
    pub fn combine_heads_batched(
        &self,
        pool: &ThreadPool,
        head_outs: &[Matrix<T>],
        residual: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        self.combine_rows(Some(pool), head_outs, Some(residual))
    }

    /// The one input projection: every row of every `xs[i]` times
    /// `[Wq|Wk|Wv]`, its `3·heads` pieces written to the per-head matrices.
    fn project_rows(&self, on: Launch<'_>, xs: &[&Matrix<T>]) -> Vec<ProjectedHeads<T>> {
        let (d_model, dk) = (self.d_model(), self.dk());
        for x in xs {
            assert_eq!(x.cols(), d_model, "input width must be d_model");
        }
        let mut out: Vec<ProjectedHeads<T>> = xs
            .iter()
            .map(|x| {
                let per_head = || -> Vec<Matrix<T>> {
                    (0..self.heads)
                        .map(|_| Matrix::zeros(x.rows(), dk))
                        .collect()
                };
                (per_head(), per_head(), per_head())
            })
            .collect();
        let space = RaggedSpace::new(xs.iter().map(|x| x.rows()));
        // Per input, its 3·heads destinations in the fused row's order:
        // Q heads, then K heads, then V heads.
        let writers: Vec<Vec<RowWriter<'_, T>>> = out
            .iter_mut()
            .map(|(q, k, v)| {
                q.iter_mut()
                    .chain(k.iter_mut())
                    .chain(v.iter_mut())
                    .map(|m| {
                        let rows = m.rows();
                        RowWriter::new(m.as_mut_slice(), rows, dk)
                    })
                    .collect()
            })
            .collect();
        launch_rows(on, space.total(), |range| {
            space.for_each_segment(range, |s, local| {
                let mut fused = vec![T::ZERO; local.len() * self.wqkv.cols()];
                let x_rows = &xs[s].as_slice()[local.start * d_model..local.end * d_model];
                matmul_rows_into(&mut fused, x_rows, &self.wqkv);
                for (i, row) in local.zip(fused.chunks_exact(self.wqkv.cols())) {
                    for (writer, piece) in writers[s].iter().zip(row.chunks_exact(dk)) {
                        // SAFETY: the launch hands each flat index to
                        // exactly one block and `for_each_segment` maps
                        // flat indices to (input, row) bijectively, so row
                        // `i` of input `s`'s matrices is written here only.
                        unsafe { writer.row_mut(i) }.copy_from_slice(piece);
                    }
                }
            });
        });
        out
    }

    /// The one output projection: per row, the heads' output rows
    /// concatenated, times `Wo`, plus the residual row when there is one.
    fn combine_rows(
        &self,
        on: Launch<'_>,
        head_outs: &[Matrix<T>],
        residual: Option<&[&Matrix<T>]>,
    ) -> Vec<Matrix<T>> {
        let (d_model, dk) = (self.d_model(), self.dk());
        assert_eq!(head_outs.len() % self.heads, 0, "one output per head");
        let seqs: Vec<&[Matrix<T>]> = head_outs.chunks(self.heads).collect();
        for heads in &seqs {
            let rows = heads[0].rows();
            assert!(
                heads.iter().all(|h| h.shape() == (rows, dk)),
                "head shapes differ"
            );
        }
        if let Some(residual) = residual {
            assert_eq!(residual.len(), seqs.len(), "one residual per sequence");
            for (x, heads) in residual.iter().zip(&seqs) {
                assert_eq!(x.shape(), (heads[0].rows(), d_model), "residual shape");
            }
        }
        let mut out: Vec<Matrix<T>> = seqs
            .iter()
            .map(|heads| Matrix::zeros(heads[0].rows(), d_model))
            .collect();
        let space = RaggedSpace::new(out.iter().map(Matrix::rows));
        let writers: Vec<RowWriter<'_, T>> = out
            .iter_mut()
            .map(|m| {
                let rows = m.rows();
                RowWriter::new(m.as_mut_slice(), rows, d_model)
            })
            .collect();
        launch_rows(on, space.total(), |range| {
            space.for_each_segment(range, |s, local| {
                let mut packed = Vec::with_capacity(local.len() * self.wo.rows());
                for i in local.clone() {
                    for head in seqs[s] {
                        packed.extend_from_slice(head.row(i));
                    }
                }
                let mut attn = vec![T::ZERO; local.len() * d_model];
                matmul_rows_into(&mut attn, &packed, &self.wo);
                for (i, attn_row) in local.zip(attn.chunks_exact(d_model)) {
                    // SAFETY: as in `project_rows` — flat indices reach
                    // exactly one block each and map to (sequence, row)
                    // bijectively, so this output row is written here only.
                    let dst = unsafe { writers[s].row_mut(i) };
                    match residual {
                        Some(residual) => {
                            let x_row = residual[s].row(i);
                            for ((o, &x), &a) in dst.iter_mut().zip(x_row).zip(attn_row) {
                                *o = x + a;
                            }
                        }
                        None => dst.copy_from_slice(attn_row),
                    }
                }
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::AttentionKernel;
    use gpa_masks::{LocalWindow, MaskPattern};
    use gpa_tensor::init::{gaussian_matrix, qkv};
    use gpa_tensor::paper_allclose;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn multi_head_equals_per_head_single_calls() {
        let l = 20;
        let heads = 4;
        let per: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)> =
            (0..heads).map(|h| qkv(l, 8, 100 + h as u64)).collect();
        let qs: Vec<_> = per.iter().map(|t| t.0.clone()).collect();
        let ks: Vec<_> = per.iter().map(|t| t.1.clone()).collect();
        let vs: Vec<_> = per.iter().map(|t| t.2.clone()).collect();
        let e = engine();
        let plan = e.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
        let requests: Vec<AttentionRequest<'_, f64>> = (0..heads)
            .map(|h| AttentionRequest::new(&qs[h], &ks[h], &vs[h]))
            .collect();
        let multi = e.run_batch(&plan, &requests).unwrap();
        for h in 0..heads {
            let single = e.run(&plan, &qs[h], &ks[h], &vs[h]).unwrap();
            assert_eq!(multi[h], single, "head {h}");
        }
    }

    #[test]
    fn layer_forward_shapes_and_determinism() {
        let l = 16;
        let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(32, 4, 8, 9);
        assert_eq!(layer.dk(), 8);
        assert_eq!(layer.d_model(), 32);
        let x = gaussian_matrix(l, 32, 1.0, 77);
        let e = engine();
        let plan = e.compile(&[AttentionKernel::Local { n: 3 }]).unwrap();
        let a = layer.forward_on(&e, &plan, &x).unwrap();
        assert_eq!(a.shape(), (l, 32));
        let b = layer.forward_on(&e, &plan, &x).unwrap();
        assert_eq!(a, b, "forward must be deterministic");
    }

    #[test]
    fn layer_kernel_choice_changes_output_but_not_shape() {
        let l = 12;
        let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(16, 2, 4, 3);
        let x = gaussian_matrix(l, 16, 1.0, 5);
        let e = engine();
        let mask = LocalWindow::new(l, 1).to_csr();
        let forward = |kernel: AttentionKernel<'_>| {
            let plan = e.compile(&[kernel]).unwrap();
            layer.forward_on(&e, &plan, &x).unwrap()
        };
        let local = forward(AttentionKernel::Local { n: 1 });
        let csr = forward(AttentionKernel::Csr(&mask));
        // Same mask, different kernel → same numbers.
        assert!(paper_allclose(&local, &csr));
        // The dense baseline per head, between the same projections:
        // different (dense) mask → different numbers, same shape.
        let (qh, kh, vh) = layer.project_qkv(&x);
        let heads: Vec<Matrix<f64>> = (0..qh.len())
            .map(|h| crate::flash_attention(&e, &qh[h], &kh[h], &vh[h]).unwrap())
            .collect();
        let flash = layer.combine_heads(&heads);
        assert_eq!(flash.shape(), (l, 16));
        assert!(flash.max_abs_diff(&local) > 1e-9);
    }

    #[test]
    fn forward_on_engine_matches_pool_forward() {
        // The forward assembled from the pooled row-block projections the
        // decoder stack launches is bitwise `forward_on`, on any pool size.
        let l = 16;
        let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(32, 4, 8, 9);
        let x = gaussian_matrix(l, 32, 1.0, 78);
        let engine = engine();
        let plan = engine.compile(&[AttentionKernel::Local { n: 3 }]).unwrap();
        let via_engine = layer.forward_on(&engine, &plan, &x).unwrap();
        for threads in [1usize, 2] {
            let pool = ThreadPool::new(threads);
            let (qh, kh, vh) = layer.project_qkv_batched(&pool, &[&x]).pop().unwrap();
            let requests: Vec<AttentionRequest<'_, f64>> = (0..4)
                .map(|h| AttentionRequest::new(&qh[h], &kh[h], &vh[h]))
                .collect();
            let outs = engine.run_batch(&plan, &requests).unwrap();
            let via_pool = layer.combine_rows(Some(&pool), &outs, None).pop().unwrap();
            assert_eq!(via_engine, via_pool, "{threads} threads");
        }
    }

    #[test]
    fn project_and_combine_reassemble_the_forward_bitwise() {
        let l = 10;
        let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(24, 3, 8, 17);
        let x = gaussian_matrix(l, 24, 1.0, 55);
        let engine = AttentionEngine::with_threads(2);
        let plan = engine.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
        let (qh, kh, vh) = layer.project_qkv(&x);
        assert_eq!((qh.len(), kh.len(), vh.len()), (3, 3, 3));
        assert_eq!(qh[0].shape(), (l, 8));
        let requests: Vec<AttentionRequest<'_, f64>> = (0..3)
            .map(|h| AttentionRequest::new(&qh[h], &kh[h], &vh[h]))
            .collect();
        let outs = engine.run_batch(&plan, &requests).unwrap();
        let combined = layer.combine_heads(&outs);
        let forward = layer.forward_on(&engine, &plan, &x).unwrap();
        assert_eq!(combined, forward, "hand-assembled pass must be bitwise");
    }

    /// The pooled row-block projections against the plain `matmul`s they
    /// replaced, bit for bit.
    mod projection_proptests {
        use super::*;
        use gpa_tensor::ops::matmul;
        use proptest::prelude::*;

        fn bits<T: Real>(m: &Matrix<T>) -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
        }

        /// Seeded values in `(-2, 2)`, about a quarter of them exact
        /// zeros of either sign — the operands `matmul` skips.
        fn sparse_matrix<T: Real>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
            Matrix::from_fn(rows, cols, |i, j| {
                let h = (seed ^ ((i * cols + j) as u64 + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match h >> 61 {
                    0 => T::ZERO,
                    1 => T::from_f64(-0.0),
                    _ => T::from_f64((h >> 11) as f64 / (1u64 << 51) as f64 - 2.0),
                }
            })
        }

        /// Columns `lo..hi` of `m`.
        fn columns<T: Real>(m: &Matrix<T>, lo: usize, hi: usize) -> Matrix<T> {
            Matrix::from_fn(m.rows(), hi - lo, |i, j| m.get(i, lo + j))
        }

        fn check<T: Real>(rows: &[usize], d_model: usize, heads: usize, dk: usize, seed: u64) {
            let layer: MultiHeadAttention<T> =
                MultiHeadAttention::new_random(d_model, heads, dk, seed);
            let inner = heads * dk;
            let [wq, wk, wv] =
                [0, 1, 2].map(|part| columns(&layer.wqkv, part * inner, (part + 1) * inner));
            let xs: Vec<Matrix<T>> = rows
                .iter()
                .enumerate()
                .map(|(s, &r)| sparse_matrix(r, d_model, seed + s as u64))
                .collect();
            let head_outs: Vec<Matrix<T>> = rows
                .iter()
                .flat_map(|&r| (0..heads).map(move |h| (r, h)))
                .map(|(r, h)| sparse_matrix(r, dk, seed ^ (0xABCD + h as u64)))
                .collect();
            let x_refs: Vec<&Matrix<T>> = xs.iter().collect();

            // What the serial code computed before there was a launch.
            let want_qkv: Vec<[Vec<Matrix<T>>; 3]> = xs
                .iter()
                .map(|x| {
                    [&wq, &wk, &wv].map(|w| {
                        let packed = matmul(x, w);
                        (0..heads)
                            .map(|h| columns(&packed, h * dk, (h + 1) * dk))
                            .collect()
                    })
                })
                .collect();
            let want_attn: Vec<Matrix<T>> = head_outs
                .chunks(heads)
                .map(|outs| {
                    let packed =
                        Matrix::from_fn(outs[0].rows(), inner, |i, j| outs[j / dk].get(i, j % dk));
                    matmul(&packed, &layer.wo)
                })
                .collect();

            for threads in [1usize, 2, 4] {
                let pool = ThreadPool::new(threads);
                let got = layer.project_qkv_batched(&pool, &x_refs);
                for ((q, k, v), want) in got.iter().zip(&want_qkv) {
                    for (got, want) in [q, k, v].into_iter().zip(want) {
                        for (g, w) in got.iter().zip(want) {
                            assert_eq!(bits(g), bits(w), "{threads} threads");
                        }
                    }
                }
                let attn = layer.combine_rows(Some(&pool), &head_outs, None);
                let summed = layer.combine_heads_batched(&pool, &head_outs, &x_refs);
                for (s, want) in want_attn.iter().enumerate() {
                    assert_eq!(bits(&attn[s]), bits(want), "{threads} threads");
                    let residual = Matrix::from_fn(want.rows(), d_model, |i, j| {
                        xs[s].get(i, j) + want.get(i, j)
                    });
                    assert_eq!(bits(&summed[s]), bits(&residual));
                }
            }
            // The serial entry points are the same routine, inline.
            let (q, _, v) = layer.project_qkv(&xs[0]);
            assert_eq!(bits(&q[0]), bits(&want_qkv[0][0][0]));
            assert_eq!(bits(&v[heads - 1]), bits(&want_qkv[0][2][heads - 1]));
            assert_eq!(
                bits(&layer.combine_heads(&head_outs[..heads])),
                bits(&want_attn[0])
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn pooled_projections_match_matmul_bitwise(
                rows in proptest::collection::vec(1usize..71, 1..4),
                d_model in 1usize..23,
                heads in 1usize..4,
                dk in proptest::sample::select(vec![1usize, 2, 3, 5, 6, 7]),
                seed in 0u64..10_000,
            ) {
                check::<f32>(&rows, d_model, heads, dk, seed);
                check::<f64>(&rows, d_model, heads, dk, seed);
            }
        }
    }

    #[test]
    fn wrong_input_width_rejected() {
        let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(16, 2, 4, 3);
        let x: Matrix<f64> = Matrix::zeros(4, 15);
        let e = engine();
        let plan = e.compile(&[AttentionKernel::Local { n: 1 }]).unwrap();
        assert!(matches!(
            layer.forward_on(&e, &plan, &x),
            Err(AttnError::StateShapeMismatch { .. })
        ));
    }
}
