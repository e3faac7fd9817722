//! Content-adaptive sparse serving: static and routed block-diagonal
//! attention mixed in one scheduler, with per-request pattern selection.
//!
//! The loop this example walks through:
//!
//! 1. **Register** four length-free plans — two static patterns (Local,
//!    Dilated) and two content-routed ones (a bare `Routed` kernel and a
//!    Local + Routed composition sharing one router spec);
//! 2. **Replay** a seeded trace whose requests either name a plan
//!    explicitly or submit as [`PatternChoice::Auto`], letting the
//!    scheduler rank the registered plans by estimated work for the
//!    prompt length and spend the pool's free-page headroom on the
//!    densest pattern it can afford;
//! 3. **Verify** every completion bitwise against the sequential
//!    one-sequence-at-a-time serve of its *resolved* plan, and report
//!    which patterns `Auto` actually picked under pressure.
//!
//! ```text
//! cargo run --release --example adaptive_serving [-- --quick]
//! ```

use graph_attention::prelude::*;
use graph_attention::serve::{generate_trace, sequential_reference, PlanId, Submission, TraceSpec};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sequences = if quick { 12 } else { 48 };
    let prompt = if quick { (16, 64) } else { (128, 512) };
    let decode = if quick { (4, 12) } else { (32, 64) };
    let dk = if quick { 16 } else { 64 };
    let window = if quick { 8 } else { 32 };
    let groups = if quick { 2 } else { 4 };

    let page_size = 16usize;
    let config = ServeConfig {
        max_in_flight: 8,
        // A deliberately tight paged pool: Auto requests admitted while it
        // is full fall down the ranking to the sparser patterns, and
        // decode growth past the pool forces preemption.
        kv_pages: (3usize * (prompt.1 + decode.1)).div_ceil(page_size),
        page_size,
        arrival_window: 1,
        prefill_chunk: prompt.0 / 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f32> =
        Scheduler::new(AttentionEngine::new(), config).expect("valid config");

    // Two static plans and two routed ones. The composed plan runs Local
    // and Routed as a pipeline; both routed plans hash tokens into groups
    // with the same deterministic router, so a token's group never depends
    // on batch shape, chunking, or thread count.
    let spec_seed = 0xB10C_u64;
    let named: Vec<(PlanId, &str)> = vec![
        (
            scheduler
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: window }).unwrap())
                .unwrap(),
            "Local",
        ),
        (
            scheduler
                .register_plan(
                    AttentionPlan::single(AttentionKernel::Dilated1d { w: window, r: 2 }).unwrap(),
                )
                .unwrap(),
            "Dilated",
        ),
        (
            scheduler
                .register_plan(
                    AttentionPlan::single(AttentionKernel::Routed {
                        groups,
                        seed: spec_seed,
                        causal: true,
                    })
                    .unwrap(),
                )
                .unwrap(),
            "Routed",
        ),
        (
            scheduler
                .register_plan(
                    AttentionPlan::new(&[
                        AttentionKernel::Local { n: window },
                        AttentionKernel::Routed {
                            groups,
                            seed: spec_seed,
                            causal: true,
                        },
                    ])
                    .unwrap(),
                )
                .unwrap(),
            "Local→Routed",
        ),
    ];
    println!(
        "plans: {} · pool {} pages × {} tokens · ≤{} in flight · chunk {}",
        named.iter().map(|(_, n)| *n).collect::<Vec<_>>().join(", "),
        config.kv_pages,
        config.page_size,
        config.max_in_flight,
        config.prefill_chunk
    );

    // Half the requests name a plan; the rest let admission decide.
    let mut patterns: Vec<PatternChoice> = named.iter().map(|&(p, _)| p.into()).collect();
    patterns.push(PatternChoice::Auto);
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
        &patterns,
        &[],
    );
    // A plan-only workload: every event is a plan request.
    let requests: Vec<&ServeRequest<f32>> = trace
        .iter()
        .map(|e| match &e.request {
            Submission::Plan(r) => r,
            Submission::Model(_) => unreachable!("a plan-only workload"),
        })
        .collect();
    let total_tokens: usize = trace.iter().map(|e| e.request.total_tokens()).sum();
    let auto_submitted = requests
        .iter()
        .filter(|r| r.pattern == PatternChoice::Auto)
        .count();
    println!(
        "workload: {sequences} sequences ({auto_submitted} Auto), {total_tokens} tokens, prompts {prompt:?}, decode {decode:?}\n"
    );

    // --- 2. Replay: every tick, one batched launch per distinct plan ----
    let started = Instant::now();
    let mut completions = Vec::new();
    let mut next = 0usize;
    let mut launches = 0usize;
    let mut max_plans_in_tick = 0usize;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            scheduler
                .submit(trace[next].request.clone())
                .expect("valid request");
            next += 1;
        }
        let report = scheduler.tick().expect("healthy workload");
        launches += report.launches;
        max_plans_in_tick = max_plans_in_tick.max(report.launches);
        completions.extend(report.completed);
    }
    let t_adaptive = started.elapsed().as_secs_f64();
    println!(
        "adaptive: {} sequences in {} ticks / {launches} launches — {:.4} s, {:.0} tok/s",
        completions.len(),
        scheduler.now(),
        t_adaptive,
        total_tokens as f64 / t_adaptive
    );
    println!(
        "          up to {max_plans_in_tick} plans batched in one tick · {} preemption events",
        scheduler.preemption_events()
    );

    // Where did the Auto requests land? Count resolved plans.
    let mut resolved = vec![0usize; named.len()];
    for c in &completions {
        if requests[c.id.as_u64() as usize].pattern == PatternChoice::Auto {
            let plan = c.target.plan().expect("plan workload");
            let slot = named.iter().position(|&(p, _)| p == plan).unwrap();
            resolved[slot] += 1;
        }
    }
    let summary: Vec<String> = named
        .iter()
        .zip(&resolved)
        .filter(|&(_, &n)| n > 0)
        .map(|(&(_, name), &n)| format!("{n}× {name}"))
        .collect();
    println!(
        "          Auto resolved under pool pressure: {}",
        summary.join(", ")
    );

    // --- 3. Bitwise check against the sequential serve ------------------
    let mut checked = 0usize;
    for c in &completions {
        let plan = c.target.plan().expect("plan workload");
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(plan),
            requests[c.id.as_u64() as usize],
            config.prefill_chunk,
        )
        .expect("reference serves");
        assert_eq!(
            c.output, expect,
            "adaptive batching must be bitwise the sequential serve"
        );
        checked += 1;
    }
    println!(
        "\nall {checked} outputs bitwise equal to the per-plan sequential reference · routing adapted the pattern, not one bit of the math"
    );
}
