//! Continuous-batching serving: single-step and composed attention plans,
//! `Auto` requests and a 12-layer decoder stack, all through one
//! scheduler-owned engine under page pressure.
//!
//! The loop this example walks through:
//!
//! 1. **Build** a `Scheduler` owning an `AttentionEngine`, with an
//!    explicit admission policy: max in-flight sequences, a paged KV pool
//!    sized well below the workload's worst case, an arrival-batching
//!    window, and a prefill chunk size;
//! 2. **Register** three length-free plans — two single-step patterns
//!    (Local, Dilated) and a Longformer-style composition (a narrow
//!    sliding window plus a wide dilated one, chained on one softmax
//!    state) — and a `DecoderModel` compiled from the bookend pattern `FFFSSSSSSFFF`:
//!    full local attention in the first and last three layers, dilated
//!    sparse attention in the middle six;
//! 3. **Replay** one seeded trace on the virtual clock. A request names a
//!    plan, submits as [`PatternChoice::Auto`] (admission ranks the plans
//!    by estimated work and spends the free-page headroom on the densest
//!    one it can afford), or runs the stack, which holds one KV cache per
//!    layer. Every tick flattens all runnable rows into one launch per
//!    plan and one per layer, and preempts sequences when decode growth
//!    outruns the free list;
//! 4. **Verify** every completion bitwise against the naive
//!    one-sequence-at-a-time serve of its resolved plan or of the stack,
//!    and report where `Auto` landed.
//!
//! ```text
//! cargo run --release --example continuous_serving [-- --quick]
//! ```

use graph_attention::prelude::*;
use graph_attention::serve::{
    generate_trace, replay, sequential_model_reference, sequential_reference, Completion,
    Submission, TraceSpec,
};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sequences = if quick { 16 } else { 48 };
    let prompt: (usize, usize) = if quick { (16, 64) } else { (128, 512) };
    let decode: (usize, usize) = if quick { (4, 12) } else { (32, 64) };
    let dk = if quick { 16 } else { 64 };
    let window = if quick { 8 } else { 32 };
    let (heads, head_dk) = if quick { (2, 8) } else { (4, 16) };
    let d_model = heads * head_dk;

    // --- 1. The scheduler -------------------------------------------------
    // A stack of `total` tokens holds `layers × ceil(total / page_size)`
    // pages; the pool holds two such stacks at their longest, so admission
    // packs by usage, Auto falls down its ranking, and decode growth
    // preempts.
    let pattern = LayerPattern::parse("FFFSSSSSSFFF").expect("valid pattern");
    let page_size = 16usize;
    let stack_bill = pattern.len() * (prompt.1 + decode.1).div_ceil(page_size);
    let config = ServeConfig {
        max_in_flight: 8,
        kv_pages: 2 * stack_bill,
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
        scheduler.engine().pool().threads(),
        config.max_in_flight,
        config.kv_pages,
        config.page_size,
        config.prefill_chunk
    );

    // --- 2. Three plans and one stack -------------------------------------
    let local = AttentionKernel::Local { n: window };
    let dilated = AttentionKernel::Dilated1d { w: window, r: 2 };
    let plans = [
        ("Local", vec![local]),
        ("Dilated", vec![dilated]),
        (
            "Local+Dilated",
            vec![
                AttentionKernel::Local { n: window / 4 },
                AttentionKernel::Dilated1d {
                    w: 4 * window,
                    r: 3,
                },
            ],
        ),
    ]
    .map(|(name, steps)| {
        let plan = AttentionPlan::new(&steps).expect("composable plan");
        (
            scheduler.register_plan(plan).expect("length-free plan"),
            name,
        )
    });
    let model = DecoderModel::new(
        pattern.clone(),
        vec![
            ('F', AttentionPlan::single(local).unwrap()),
            ('S', AttentionPlan::single(dilated).unwrap()),
        ],
        d_model,
        heads,
        head_dk,
        0xB00C,
    )
    .expect("composable plans");
    let model = scheduler.register_model(model);
    println!(
        "plans: {} · model: {} layers ({pattern}), d_model {d_model}, {heads} heads × dk {head_dk}",
        plans.map(|(_, name)| name).join(", "),
        pattern.len()
    );

    // --- 3. Replay one mixed trace ----------------------------------------
    let mut choices: Vec<PatternChoice> = plans.iter().map(|&(id, _)| id.into()).collect();
    choices.push(PatternChoice::Auto);
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
        &choices,
        &[(model, d_model)],
    );
    let total_tokens: usize = trace.iter().map(|e| e.request.total_tokens()).sum();
    let request = |c: &Completion<f32>| &trace[c.id.as_u64() as usize].request;
    let is_auto = |c: &Completion<f32>| match request(c) {
        Submission::Plan(r) => r.pattern == PatternChoice::Auto,
        Submission::Model(_) => false,
    };
    let stacks = trace
        .iter()
        .filter(|e| matches!(e.request, Submission::Model(_)))
        .count();
    println!(
        "workload: {sequences} sequences ({stacks} stacks), {total_tokens} tokens, prompts {prompt:?}, decode {decode:?}, 2 priority classes\n"
    );

    let started = Instant::now();
    let completions = replay(&mut scheduler, &trace, 1_000_000).expect("healthy workload");
    let t_continuous = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = completions.iter().map(|c| c.latency_ticks()).collect();
    latencies.sort_unstable();
    println!(
        "continuous: {} sequences in {} ticks — {:.4} s, {:.0} tok/s · latency p50 {} / p99 {} ticks",
        completions.len(),
        scheduler.now(),
        t_continuous,
        total_tokens as f64 / t_continuous,
        latencies[latencies.len() / 2],
        latencies[(latencies.len() * 99).div_ceil(100) - 1]
    );
    let preempted = |stack: bool| {
        completions
            .iter()
            .filter(|c| c.preemptions > 0 && c.target.model().is_some() == stack)
            .count()
    };
    println!(
        "            {} preemption events · {} plan sequences and {} stacks preempted and resumed",
        scheduler.preemption_events(),
        preempted(false),
        preempted(true)
    );
    let resolved: Vec<String> = plans
        .iter()
        .map(|&(id, name)| {
            let n = completions
                .iter()
                .filter(|c| is_auto(c) && c.target.plan() == Some(id))
                .count();
            (n, name)
        })
        .filter(|&(n, _)| n > 0)
        .map(|(n, name)| format!("{n}× {name}"))
        .collect();
    println!(
        "            Auto resolved under pool pressure: {}",
        resolved.join(", ")
    );

    // --- 4. The naive baseline: one sequence at a time --------------------
    let started = Instant::now();
    for c in &completions {
        let (engine, chunk) = (scheduler.engine(), config.prefill_chunk);
        let expect = match request(c) {
            Submission::Plan(request) => {
                let plan = scheduler.plan(c.target.plan().expect("a plan sequence"));
                sequential_reference(engine, plan, request, chunk).expect("reference serves")
            }
            Submission::Model(request) => {
                let model = scheduler.model(c.target.model().expect("a stack"));
                sequential_model_reference(engine, model, request, chunk).expect("reference serves")
            }
        };
        assert_eq!(
            c.output, expect,
            "continuous batching must be bitwise the sequential serve"
        );
    }
    let t_sequential = started.elapsed().as_secs_f64();
    println!(
        "sequential: same {} sequences one at a time — {:.4} s, {:.0} tok/s",
        completions.len(),
        t_sequential,
        total_tokens as f64 / t_sequential
    );
    println!(
        "\nall {} outputs bitwise equal to the sequential reference · batching and preemption changed the schedule, not one bit",
        completions.len()
    );
}
