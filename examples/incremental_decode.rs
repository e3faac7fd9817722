//! Incremental decode: KV-cached autoregressive generation through the
//! engine's rectangular-geometry serving surface.
//!
//! The serving loop this example walks through:
//!
//! 1. **Chunked prefill** — the prompt's queries run as windows against
//!    the full prompt KV, one flattened launch, bitwise identical to the
//!    square forward over the prompt;
//! 2. **Per-token decode** — each generated token appends its K/V rows to
//!    a `KvCache` and computes a single decode row, reproducing the last
//!    row of the square forward over the tokens so far at `O(window · d)`
//!    cost instead of the naive `O(L · window · d)` recompute.
//!
//! Multi-head layers are served as decoder stacks: see
//! `examples/continuous_serving.rs`.
//!
//! ```text
//! cargo run --release --example incremental_decode [-- --quick]
//! ```

use graph_attention::prelude::*;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let prompt = if quick { 256 } else { 4_096 };
    let generate = if quick { 16 } else { 128 };
    let dk = if quick { 16 } else { 64 };
    let window = if quick { 8 } else { 64 };
    let chunk = prompt / 4;
    let total = prompt + generate;

    let engine = AttentionEngine::new();
    println!(
        "engine: {} worker threads · prompt {prompt} + {generate} generated tokens, window {window}",
        engine.pool().threads()
    );

    // One length-free plan serves the prefill chunks AND every decode step.
    let plan = engine
        .compile(&[AttentionKernel::Local { n: window }])
        .expect("window plan");
    let (q, k, v) = init::qkv::<f32>(total, dk, 42);

    // --- 1. Chunked prefill ----------------------------------------------
    let mut cache = KvCache::single(dk, dk);
    let t = Instant::now();
    let prefill_out = engine
        .prefill_chunked(
            &plan,
            &q.rows_slice(0, prompt),
            &k.rows_slice(0, prompt),
            &v.rows_slice(0, prompt),
            chunk,
            &mut cache,
        )
        .expect("prefill");
    let t_prefill = t.elapsed().as_secs_f64();
    let square = engine
        .run(
            &plan,
            &q.rows_slice(0, prompt),
            &k.rows_slice(0, prompt),
            &v.rows_slice(0, prompt),
        )
        .expect("square forward");
    println!(
        "prefill: {} chunks of ≤{chunk} rows in {:.4} s — bitwise equal to the square forward: {}",
        prompt.div_ceil(chunk),
        t_prefill,
        prefill_out == square
    );
    assert_eq!(prefill_out, square, "chunked prefill must be bitwise exact");

    // --- 2. Cached decode vs naive recompute ------------------------------
    let t = Instant::now();
    let mut last = Matrix::zeros(1, dk);
    for step in prompt..total {
        last = engine
            .decode_step(
                &plan,
                &q.rows_slice(step, step + 1),
                &k.rows_slice(step, step + 1),
                &v.rows_slice(step, step + 1),
                &mut cache,
            )
            .expect("decode step");
    }
    let t_cached = t.elapsed().as_secs_f64();

    // Naive baseline: recompute the full square forward per token and keep
    // its last row (what serving without a KV cache would pay).
    let t = Instant::now();
    let mut naive_last = Matrix::zeros(1, dk);
    for step in prompt..total {
        let full = engine
            .run(
                &plan,
                &q.rows_slice(0, step + 1),
                &k.rows_slice(0, step + 1),
                &v.rows_slice(0, step + 1),
            )
            .expect("naive forward");
        naive_last.row_mut(0).copy_from_slice(full.row(step));
    }
    let t_naive = t.elapsed().as_secs_f64();
    assert_eq!(
        last, naive_last,
        "cached decode must be bitwise the naive recompute's last row"
    );
    println!(
        "decode: {generate} tokens — cached {:.4} s ({:.0} tok/s) vs naive recompute {:.4} s ({:.0} tok/s): {:.1}× speedup, outputs bitwise equal",
        t_cached,
        generate as f64 / t_cached,
        t_naive,
        generate as f64 / t_naive,
        t_naive / t_cached
    );
}
