//! Continuous-batching serving: many concurrent sequences through one
//! scheduler-owned engine, mixed prefill and decode in every launch.
//!
//! The loop this example walks through:
//!
//! 1. **Build** a `Scheduler` owning an `AttentionEngine`, with an
//!    explicit admission policy: max in-flight sequences, a paged KV
//!    pool (admission charged on current page usage, preemption under
//!    pressure), an arrival-batching window, and a prefill chunk size;
//! 2. **Replay** a seeded workload trace (mixed prompt lengths, decode
//!    lengths, two priority classes, two kernels) on the virtual clock —
//!    every tick flattens all runnable prefill chunks and decode rows
//!    into one batched launch per plan;
//! 3. **Verify** every completed sequence bitwise against the naive
//!    one-sequence-at-a-time serve, and compare wall time.
//!
//! ```text
//! cargo run --release --example continuous_serving [-- --quick]
//! ```

use graph_attention::prelude::*;
use graph_attention::serve::{generate_trace, sequential_reference, Submission, TraceSpec};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sequences = if quick { 12 } else { 48 };
    let prompt = if quick { (16, 64) } else { (128, 512) };
    let decode = if quick { (4, 12) } else { (32, 64) };
    let dk = if quick { 16 } else { 64 };
    let window = if quick { 8 } else { 32 };

    let page_size = 16usize;
    let config = ServeConfig {
        max_in_flight: 8,
        // A pool sized well below 8 × worst-case length: paged admission
        // packs by current usage and preempts if decode growth outruns it.
        kv_pages: (4usize * (prompt.1 + decode.1)).div_ceil(page_size),
        page_size,
        arrival_window: 1,
        prefill_chunk: prompt.0 / 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f32> =
        Scheduler::new(AttentionEngine::new(), config).expect("valid config");
    println!(
        "scheduler: {} worker threads · ≤{} in flight · {} pages × {} tokens KV pool · chunk {}",
        scheduler.engine().threads(),
        config.max_in_flight,
        config.kv_pages,
        config.page_size,
        config.prefill_chunk
    );

    // Two length-free plans; each request names one — per-plan queues,
    // one batched launch per plan per tick.
    let plans = vec![
        scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: window }).unwrap())
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::single(AttentionKernel::Dilated1d { w: window, r: 2 }).unwrap(),
            )
            .unwrap(),
    ];

    let trace = generate_trace::<f32, _>(
        &TraceSpec {
            sequences,
            prompt,
            decode,
            dk,
            arrival_gap: (0, 2),
            priority_classes: 2,
            seed: 42,
        },
        &plans,
        &[],
    );
    let total_tokens: usize = trace.iter().map(|e| e.request.total_tokens()).sum();
    println!(
        "workload: {sequences} sequences, {total_tokens} tokens, prompts {prompt:?}, decode {decode:?}, 2 priority classes\n"
    );

    // --- 2. Replay on the virtual clock, one batched launch per tick ----
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
        "continuous: {} sequences in {ticks} ticks / {launches} launches ({rows} rows) — {:.4} s, {:.0} tok/s",
        completions.len(),
        t_continuous,
        total_tokens as f64 / t_continuous
    );
    println!(
        "            peak {} sequences in flight · latency p50 {} / p99 {} ticks",
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

    // --- 3. The naive baseline: one sequence at a time ------------------
    let started = Instant::now();
    let mut checked = 0usize;
    for c in &completions {
        let Submission::Plan(request) = &trace[c.id.as_u64() as usize].request else {
            unreachable!("a plan-only workload");
        };
        let plan = c.target.plan().expect("a plan-only workload");
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(plan),
            request,
            config.prefill_chunk,
        )
        .expect("reference serves");
        assert_eq!(
            c.output, expect,
            "continuous batching must be bitwise the sequential serve"
        );
        checked += 1;
    }
    let t_sequential = started.elapsed().as_secs_f64();
    println!(
        "sequential: same {checked} sequences one at a time — {:.4} s, {:.0} tok/s",
        t_sequential,
        total_tokens as f64 / t_sequential
    );
    println!(
        "\nall {checked} outputs bitwise equal to the sequential reference · batching changed the schedule, not one bit"
    );
}
