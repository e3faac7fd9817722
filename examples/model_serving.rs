//! Decoder-stack serving: a 12-layer Full/Sparse model with per-layer
//! paged KV caches, served by the continuous-batching scheduler under
//! page pressure.
//!
//! The loop this example walks through:
//!
//! 1. **Compile** a `DecoderModel` from the bookend pattern
//!    `FFFSSSSSSFFF` — full local attention in the first and last three
//!    layers, dilated sparse attention in the middle six — and register
//!    it with a `Scheduler`;
//! 2. **Replay** a seeded model workload on the virtual clock. Every
//!    sequence holds one KV cache *per layer* (12 × its page bill), the
//!    pool is sized well below the workload's worst case, and every tick
//!    advances all sequences through all 12 layers in one launch per
//!    layer — preempting whole stacks (all 12 caches retained and
//!    re-adopted) when decode growth outruns the free list;
//! 3. **Verify** every completion bitwise against the naive
//!    one-sequence-at-a-time decoder-stack serve.
//!
//! ```text
//! cargo run --release --example model_serving [-- --quick]
//! ```

use graph_attention::prelude::*;
use graph_attention::serve::{
    generate_trace, sequential_model_reference, PlanId, Submission, TraceSpec,
};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sequences = if quick { 6 } else { 24 };
    let prompt: (usize, usize) = if quick { (8, 24) } else { (64, 192) };
    let decode: (usize, usize) = if quick { (4, 10) } else { (16, 48) };
    let (heads, dk) = if quick { (2, 8) } else { (4, 16) };
    let d_model = heads * dk;
    let window = if quick { 4 } else { 16 };

    // The paper's bookend arrangement: full attention where locality
    // matters most (early feature mixing, late readout), sparse dilated
    // attention through the middle where the context is long.
    let pattern = LayerPattern::parse("FFFSSSSSSFFF").expect("valid pattern");
    let model = DecoderModel::new(
        pattern.clone(),
        vec![
            (
                'F',
                AttentionPlan::single(AttentionKernel::Local { n: window }).unwrap(),
            ),
            (
                'S',
                AttentionPlan::single(AttentionKernel::Dilated1d { w: window, r: 2 }).unwrap(),
            ),
        ],
        d_model,
        heads,
        dk,
        0xB00C,
    )
    .expect("composable plans");
    let layers = model.layers();
    println!("model: {layers} layers ({pattern}) · d_model {d_model} · {heads} heads × dk {dk}");

    // Page arithmetic: a sequence of `total` tokens holds
    // `layers × ceil(total / page_size)` pages at completion. Size the
    // pool at roughly 3 sequences' worst case — well below the
    // workload's — so paged admission packs by usage and preemption
    // fires under decode growth.
    let page_size = 8usize;
    let worst = layers * (prompt.1 + decode.1).div_ceil(page_size);
    let config = ServeConfig {
        max_in_flight: 6,
        kv_pages: 3 * worst,
        page_size,
        arrival_window: 1,
        prefill_chunk: prompt.0 / 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f32> =
        Scheduler::new(AttentionEngine::new(), config).expect("valid config");
    let model_id = scheduler.register_model(model);
    println!(
        "scheduler: {} worker threads · ≤{} in flight · {} pages × {} tokens KV pool · chunk {}",
        scheduler.engine().threads(),
        config.max_in_flight,
        config.kv_pages,
        config.page_size,
        config.prefill_chunk
    );
    println!(
        "page bill: a {}-token sequence holds {} pages ({} per layer × {layers} layers)\n",
        prompt.1 + decode.1,
        worst,
        (prompt.1 + decode.1).div_ceil(page_size),
    );

    let trace = generate_trace::<f32, PlanId>(
        &TraceSpec {
            sequences,
            prompt,
            decode,
            dk,
            arrival_gap: (0, 2),
            priority_classes: 2,
            seed: 42,
        },
        &[],
        &[(model_id, d_model)],
    );
    let total_tokens: usize = trace.iter().map(|e| e.request.total_tokens()).sum();
    println!(
        "workload: {sequences} sequences, {total_tokens} tokens, prompts {prompt:?}, decode {decode:?}, 2 priority classes\n"
    );

    // --- Replay on the virtual clock, one launch per layer per tick -----
    let started = Instant::now();
    let mut completions = Vec::new();
    let mut next = 0usize;
    let mut peak_in_flight = 0usize;
    let mut peak_pages = 0usize;
    let mut launches = 0usize;
    let mut rows = 0usize;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            scheduler
                .submit(trace[next].request.clone())
                .expect("valid request");
            next += 1;
        }
        let report = scheduler.tick().expect("healthy workload");
        peak_in_flight = peak_in_flight.max(scheduler.in_flight_len());
        peak_pages = peak_pages.max(scheduler.kv_used_pages());
        launches += report.launches;
        rows += report.rows_computed;
        completions.extend(report.completed);
    }
    let t_continuous = started.elapsed().as_secs_f64();
    let ticks = scheduler.now();
    let mut latencies: Vec<u64> = completions.iter().map(|c| c.latency_ticks()).collect();
    latencies.sort_unstable();
    println!(
        "continuous: {} sequences in {ticks} ticks / {launches} layer launches ({rows} rows) — {:.4} s, {:.0} tok/s",
        completions.len(),
        t_continuous,
        total_tokens as f64 / t_continuous
    );
    println!(
        "            peak {} stacks in flight · latency p50 {} / p99 {} ticks",
        peak_in_flight,
        latencies[latencies.len() / 2],
        latencies[(latencies.len() * 99).div_ceil(100) - 1]
    );
    println!(
        "            page pool: peak {peak_pages}/{} pages mapped · {} preemption events · {} free at drain",
        scheduler.kv_total_pages(),
        scheduler.preemption_events(),
        scheduler.kv_free_pages()
    );

    // --- The naive baseline: one stack at a time ------------------------
    let started = Instant::now();
    let mut checked = 0usize;
    let mut preempted = 0usize;
    for c in &completions {
        let Submission::Model(request) = &trace[c.id.as_u64() as usize].request else {
            unreachable!("a model-only workload");
        };
        let model = c.target.model().expect("a model-only workload");
        let expect = sequential_model_reference(
            scheduler.engine(),
            scheduler.model(model),
            request,
            config.prefill_chunk,
        )
        .expect("reference serves");
        assert_eq!(
            c.output, expect,
            "batched stack serving must be bitwise the sequential serve"
        );
        checked += 1;
        preempted += usize::from(c.preemptions > 0);
    }
    let t_sequential = started.elapsed().as_secs_f64();
    println!(
        "sequential: same {checked} stacks one at a time — {:.4} s, {:.0} tok/s",
        t_sequential,
        total_tokens as f64 / t_sequential
    );
    println!(
        "\nall {checked} outputs bitwise equal to the sequential reference ({preempted} preempted-and-resumed with every layer's cache retained) · batching changed the schedule, not one bit"
    );
}
