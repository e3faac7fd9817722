//! Long-document inference with a Longformer-style multi-head layer.
//!
//! The scenario from the paper's introduction: a document far beyond a
//! dense-attention budget, processed with local + global sparse attention.
//! A full multi-head attention sub-layer (projections → per-head graph
//! kernels → output projection) runs over a synthetic 16k-token document
//! through one [`AttentionEngine`] — all heads batched into a single
//! launch — and the same layer with dense FlashAttention provides the
//! runtime comparison.
//!
//! ```text
//! cargo run --release --example longformer_document [-- --quick]
//! ```
//!
//! `--quick` shrinks the document for smoke tests.

use graph_attention::prelude::*;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let l = if quick { 2_048 } else { 16_384 }; // document length in tokens
    let d_model = 128;
    let heads = 4;
    let dk = 32;
    let window = 64; // local context per direction
    let engine = AttentionEngine::new();

    // Synthetic token embeddings (a real pipeline would come from an
    // embedding table; Gaussian activations exercise the same code path).
    let x: Matrix<f32> = init::gaussian_matrix(l, d_model, 1.0, 7);

    // One attention sub-layer with Xavier-initialized projections.
    let layer: MultiHeadAttention<f32> = MultiHeadAttention::new_random(d_model, heads, dk, 3);

    // Longformer attention: CLS token global, sliding window elsewhere —
    // composed from the implicit kernels, so no mask is materialized.
    let globals = GlobalSet::new(l, vec![0]);

    println!("document: {l} tokens, layer: {heads} heads × dk {dk}, window ±{window}");

    // Plans compile once; the layer (and any number of future requests)
    // reuse them.
    let local_plan = engine
        .compile(&[AttentionKernel::Local { n: window }])
        .expect("local plan");
    let t = Instant::now();
    let sparse_out = layer
        .forward_on(&engine, &local_plan, &x)
        .expect("sparse forward");
    let local_time = t.elapsed().as_secs_f64();
    println!("local-window forward:       {local_time:.3} s");

    // Composition: window + global CLS token (exact Longformer semantics
    // requires a shared softmax state — the compiled plan chains both
    // kernels per row inside one launch).
    let longformer_plan = engine
        .compile(&[
            AttentionKernel::Local { n: window },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: window,
            },
        ])
        .expect("Longformer plan");
    let (q, k, v) = init::qkv::<f32>(l, dk, 11);
    let t = Instant::now();
    let composed = engine
        .run(&longformer_plan, &q, &k, &v)
        .expect("composition");
    println!(
        "single-head {}:   {:.3} s ({} output rows)",
        longformer_plan.describe(),
        t.elapsed().as_secs_f64(),
        composed.rows()
    );

    // Dense baseline on the same layer for the speed comparison: the same
    // projections around FlashAttention, a plain function run per head.
    let t = Instant::now();
    let (qh, kh, vh) = layer.project_qkv(&x);
    let dense_heads: Vec<Matrix<f32>> = (0..heads)
        .map(|h| {
            flash_attention(engine.pool(), &qh[h], &kh[h], &vh[h], &engine.options())
                .expect("dense head")
        })
        .collect();
    let dense_out = layer.combine_heads(&dense_heads);
    let dense_time = t.elapsed().as_secs_f64();
    println!("dense FlashAttention layer: {dense_time:.3} s");

    println!(
        "\nsparse layer speedup: {:.1}×  (outputs differ by design: different mask)",
        dense_time / local_time
    );
    assert_eq!(sparse_out.shape(), dense_out.shape());

    // Work accounting: what the window actually saved.
    let sparse_edges = LocalWindow::new(l, window).nnz() as f64;
    let dense_edges = (l as f64) * (l as f64);
    println!(
        "attention edges: {:.2e} sparse vs {:.2e} dense ({:.0}× fewer)",
        sparse_edges,
        dense_edges,
        dense_edges / sparse_edges
    );
}
