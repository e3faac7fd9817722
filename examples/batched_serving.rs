//! Batched serving: many concurrent Longformer-style requests through one
//! engine — the workload the `AttentionEngine` API exists for.
//!
//! A serving process holds one engine (one pool, one launch policy) and a
//! handful of compiled plans; requests arrive with ragged lengths and are
//! executed per batch in a **single** flattened launch, so short sequences
//! stop paying a full pool launch each. The example measures that win
//! directly (batched vs one-launch-per-request) and verifies the batched
//! outputs are element-exact against independent runs.
//!
//! ```text
//! cargo run --release --example batched_serving [-- --quick]
//! ```
//!
//! `--quick` shrinks the batch for smoke tests.

use graph_attention::prelude::*;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_requests = if quick { 8 } else { 32 };
    let base_len = if quick { 256 } else { 1_024 };
    let dk = 64;
    let window = 32;

    // One engine per process: pool + launch policy, built once.
    let engine = AttentionEngine::new();
    println!(
        "engine: {} worker threads, {n_requests} concurrent requests",
        engine.pool().threads()
    );

    // --- Part 1: ragged batch through one implicit-window plan -----------
    // Implicit kernels pin no context length, so ONE compiled plan serves
    // every request length in the batch.
    let ragged_plan = engine
        .compile(&[AttentionKernel::Local { n: window }])
        .expect("window plan");
    let seqs: Vec<(Matrix<f32>, Matrix<f32>, Matrix<f32>)> = (0..n_requests)
        .map(|r| {
            // Ragged lengths: 1×..3× the base length, deterministic.
            let l = base_len + (r * 7919) % (2 * base_len);
            init::qkv(l, dk, 1000 + r as u64)
        })
        .collect();
    let requests: Vec<AttentionRequest<'_, f32>> = seqs
        .iter()
        .map(|(q, k, v)| AttentionRequest::new(q, k, v))
        .collect();
    let total_tokens: usize = requests.iter().map(|r| r.rows()).sum();
    println!(
        "ragged batch: {} requests, {} total tokens (lengths {}..{})",
        requests.len(),
        total_tokens,
        requests.iter().map(|r| r.rows()).min().unwrap(),
        requests.iter().map(|r| r.rows()).max().unwrap(),
    );

    let t = Instant::now();
    let batched = engine.run_batch(&ragged_plan, &requests).expect("batch");
    let t_batched = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sequential: Vec<Matrix<f32>> = seqs
        .iter()
        .map(|(q, k, v)| engine.run(&ragged_plan, q, k, v).expect("single run"))
        .collect();
    let t_sequential = t.elapsed().as_secs_f64();

    let exact = batched.iter().zip(sequential.iter()).all(|(a, b)| a == b);
    println!("one batched launch:         {t_batched:.4} s");
    println!("{n_requests} sequential launches:     {t_sequential:.4} s");
    println!(
        "batching speedup: {:.2}×, outputs element-exact: {exact}",
        t_sequential / t_batched
    );
    assert!(exact, "batched execution must be element-exact");

    // --- Part 2: fixed-length Longformer plan shared across a batch ------
    // Global tokens pin the context length, so same-length requests (the
    // common padded-serving setup) share one Longformer composition plan.
    let l = 2 * base_len;
    let globals = GlobalSet::new(l, vec![0]);
    let longformer_plan = engine
        .compile(&[
            AttentionKernel::Local { n: window },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: window,
            },
        ])
        .expect("Longformer plan");
    let docs: Vec<(Matrix<f32>, Matrix<f32>, Matrix<f32>)> = (0..n_requests)
        .map(|r| init::qkv(l, dk, 2000 + r as u64))
        .collect();
    let doc_requests: Vec<AttentionRequest<'_, f32>> = docs
        .iter()
        .map(|(q, k, v)| AttentionRequest::new(q, k, v))
        .collect();

    let t = Instant::now();
    let outs = engine
        .run_batch(&longformer_plan, &doc_requests)
        .expect("Longformer batch");
    let elapsed = t.elapsed().as_secs_f64();
    println!(
        "\n{} plan: {} docs × {l} tokens in {elapsed:.4} s ({:.0} tokens/s)",
        longformer_plan.describe(),
        outs.len(),
        (outs.len() * l) as f64 / elapsed
    );

    // Spot-check one request against the reference CSR union.
    let union = longformer(l, window, vec![0]).to_csr();
    let reference = engine
        .run_kernel(
            AttentionKernel::Csr(&union),
            &docs[0].0,
            &docs[0].1,
            &docs[0].2,
        )
        .expect("reference");
    let matches = paper_allclose(&outs[0].cast::<f64>(), &reference.cast::<f64>());
    println!("batched Longformer matches CSR-of-union reference: {matches}");
    assert!(
        matches,
        "composed-plan batch must match the union reference"
    );
}
