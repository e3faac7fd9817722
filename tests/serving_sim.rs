//! Deterministic simulation of the continuous-batching scheduler.
//!
//! A seeded virtual-clock workload generator replays randomized arrival
//! traces (mixed prompt lengths, decode lengths, arrival gaps, priority
//! classes, kernels, page sizes, and eviction modes) through
//! `gpa-serve`'s [`Scheduler`] and checks, for **every** trace:
//!
//! 1. **Bitwise equivalence** — each completed sequence's full output
//!    equals the naive one-sequence-at-a-time reference (chunked prefill +
//!    per-token decode) bit for bit — *including* sequences that were
//!    preempted and resumed: continuous batching and paged eviction change
//!    the schedule, never the numbers;
//! 2. **Page conservation** — after every tick, free pages plus every
//!    live sequence's page-table length equals the pool size, no page is
//!    mapped twice, and no cache outgrows its page table;
//! 3. **No starvation / no livelock** — every submitted sequence
//!    completes within a bound computed from the trace itself (worst-case
//!    serial service), and preemption events per tick are bounded by the
//!    in-flight cap;
//! 4. **FIFO within a priority class** — admission preserves submission
//!    order inside a class, and equal-shape same-class sequences complete
//!    in submission order, preemption or not;
//! 5. **Atomic rollback** — a failed batched launch rolls every
//!    sequence's cache and page table back and leaves the scheduler in a
//!    state that still serves bitwise-correct outputs once the offender
//!    is cancelled (separate test below).
//!
//! Plan sequences and decoder stacks travel one request stream — one
//! trace, one drive, one completion check — so every invariant above
//! holds for plan-only and mixed plan + model traces alike.
//!
//! The trace count of the headline loop defaults to 52 and can be raised
//! via `GPA_SIM_TRACES` (the nightly CI job runs 200); the mixed-model
//! and `Auto` loops scale with it (12 and 16 traces at the default).

use graph_attention::prelude::*;
use graph_attention::serve::{
    generate_trace, sequential_model_reference, sequential_reference, Completion, ModelId, PlanId,
    Scheduler, ServeError, Submission, TraceEvent, TraceSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Headline-loop trace count: `GPA_SIM_TRACES` or 52.
fn trace_count() -> u64 {
    std::env::var("GPA_SIM_TRACES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(52)
}

/// A loop that runs `default` traces next to the headline's 52, scaled
/// with `GPA_SIM_TRACES` so a soak reaches it too.
fn scaled_trace_count(default: u64) -> u64 {
    (default * trace_count()).div_ceil(52)
}

/// Scheduler + plans used by one simulated trace. Three length-free plans
/// (two single-kernel, one composed) so traces mix kernels per sequence.
fn build_scheduler(threads: usize, config: ServeConfig) -> (Scheduler<'static, f64>, Vec<PlanId>) {
    let mut scheduler = Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
    let plans = vec![
        scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap(),
            )
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::new(&[
                    AttentionKernel::Local { n: 1 },
                    AttentionKernel::Dilated2d {
                        block_size: 3,
                        r: 1,
                    },
                ])
                .unwrap(),
            )
            .unwrap(),
    ];
    (scheduler, plans)
}

/// Scheduler + pattern choices for the `Auto` traces: the three plans
/// above, a Longformer-style composition (a sliding window plus a dilated
/// window — Longformer's two length-free parts; its global part pins the
/// context length, which growing sequences cannot keep), and the
/// [`PatternChoice::Auto`] wildcard — so traces mix single-step, composed
/// and scheduler-chosen sequences. Returns the Longformer-style plan's id
/// separately so tests can tell its completions apart.
fn build_auto_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (Scheduler<'static, f64>, Vec<PatternChoice>, PlanId) {
    let (mut scheduler, plans) = build_scheduler(threads, config);
    let longformer = scheduler
        .register_plan(
            AttentionPlan::new(&[
                AttentionKernel::Local { n: 1 },
                AttentionKernel::Dilated1d { w: 9, r: 2 },
            ])
            .unwrap(),
        )
        .unwrap();
    let mut patterns: Vec<PatternChoice> = plans.iter().map(|&p| p.into()).collect();
    patterns.push(longformer.into());
    patterns.push(PatternChoice::Auto);
    (scheduler, patterns, longformer)
}

/// Scheduler + plans + models used by one simulated mixed trace: the three
/// plans above, plus a single-layer full model and a three-layer
/// heterogeneous Full/Sparse/Full stack — so model traces mix stack depths
/// per sequence.
fn build_mixed_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (Scheduler<'static, f64>, Vec<PlanId>, Vec<(ModelId, usize)>) {
    let (mut scheduler, plans) = build_scheduler(threads, config);
    let single = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("F").unwrap(),
            vec![(
                'F',
                AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
            )],
            8,
            2,
            4,
            0x1A7E,
        )
        .unwrap(),
    );
    let stacked = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("FSF").unwrap(),
            vec![
                (
                    'F',
                    AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
                ),
                (
                    'S',
                    AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap(),
                ),
            ],
            12,
            3,
            4,
            0x5EED,
        )
        .unwrap(),
    );
    (scheduler, plans, vec![(single, 8), (stacked, 12)])
}

/// The rows of a submission's prompt.
fn prompt_of(request: &Submission<f64>) -> usize {
    match request {
        Submission::Plan(r) => r.prompt,
        Submission::Model(r) => r.prompt,
    }
}

/// Worst-case ticks to drain `trace` on a healthy scheduler: last arrival
/// plus the arrival window plus fully *serial* service of every sequence
/// (each needs `ceil(prompt/chunk)` prefill ticks and one tick per decode
/// token — a stack's depth multiplies its work per tick, not its tick
/// count), plus slack. Exceeding this bound means starvation — and since
/// the most urgent in-flight sequence is never evicted, it doubles as the
/// livelock bound under preemption: some sequence advances every tick, so
/// serial service still drains the trace.
fn starvation_bound(trace: &[TraceEvent<f64>], config: &ServeConfig) -> u64 {
    let service: u64 = trace
        .iter()
        .map(|e| {
            let prompt = prompt_of(&e.request);
            let decode = e.request.total_tokens() - prompt;
            (prompt.div_ceil(config.prefill_chunk) + decode + 1) as u64
        })
        .sum();
    let last_arrival = trace.last().map_or(0, |e| e.at);
    last_arrival + config.arrival_window + service + 64
}

/// Drive one trace through the scheduler tick by tick, checking the page
/// and scheduling invariants after every tick — page conservation spans
/// every layer of every stack's state. Request ids are trace positions.
fn drive(
    scheduler: &mut Scheduler<'_, f64>,
    trace: &[TraceEvent<f64>],
    max_ticks: u64,
) -> Vec<Completion<f64>> {
    let mut completions = Vec::new();
    let mut next = 0usize;
    let mut ticks = 0u64;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            let id = scheduler.submit(trace[next].request.clone()).unwrap();
            assert_eq!(id.as_u64() as usize, next, "ids are trace positions");
            next += 1;
        }
        let report = scheduler.tick().unwrap();
        // Invariant 2: page conservation, no double-mapping, caches within
        // their page tables — after every single tick.
        scheduler.assert_kv_invariants();
        assert!(
            scheduler.in_flight_len() <= scheduler.config().max_in_flight,
            "in-flight cap violated"
        );
        // Admission and preemption are mutually exclusive per tick:
        // admission holds back this tick's decode appends, so it can never
        // force the eviction of a sequence it just admitted.
        if !report.preempted.is_empty() {
            assert!(
                report.admitted.is_empty() && report.resumed.is_empty(),
                "a tick may admit or preempt, never both"
            );
        }
        // Invariant 3 (livelock half): one tick evicts at most the
        // non-head in-flight sequences.
        assert!(
            report.preempted.len() < scheduler.config().max_in_flight.max(1) + 1,
            "preempted more sequences than could be in flight"
        );
        completions.extend(report.completed);
        ticks += 1;
        // Invariant 3: no starvation — the trace drains within its bound.
        assert!(
            ticks <= max_ticks,
            "not drained after {ticks} ticks (bound {max_ticks}): starvation"
        );
        assert!(
            scheduler.preemption_events() <= ticks * scheduler.config().max_in_flight as u64,
            "preemption-count bound exceeded: livelock"
        );
    }
    completions
}

/// What a completed sequence must equal bitwise: [`sequential_reference`]
/// for a plan sequence, [`sequential_model_reference`] for a stack.
fn reference(
    scheduler: &Scheduler<'_, f64>,
    c: &Completion<f64>,
    request: &Submission<f64>,
) -> Matrix<f64> {
    let (engine, chunk) = (scheduler.engine(), scheduler.config().prefill_chunk);
    match (request, c.target) {
        (Submission::Plan(r), ServeTarget::Plan(plan)) => {
            sequential_reference(engine, scheduler.plan(plan), r, chunk).unwrap()
        }
        (Submission::Model(r), ServeTarget::Model(model)) => {
            sequential_model_reference(engine, scheduler.model(model), r, chunk).unwrap()
        }
        _ => panic!("completion {} changed flavor", c.id.as_u64()),
    }
}

/// Check invariants 1 and 4 on a drained trace's completions.
fn check_completions(
    scheduler: &Scheduler<'_, f64>,
    trace: &[TraceEvent<f64>],
    completions: &[Completion<f64>],
) {
    assert_eq!(completions.len(), trace.len(), "every sequence completes");
    let request = |c: &Completion<f64>| &trace[c.id.as_u64() as usize].request;

    // Invariant 1: bitwise equivalence with the sequential reference —
    // for preempted-and-resumed sequences exactly as for uninterrupted
    // ones, multi-layer stacks exactly as plan sequences.
    for c in completions {
        assert_eq!(
            c.output,
            reference(scheduler, c, request(c)),
            "sequence {} ({} preemptions, {:?}) must match the sequential serve bitwise",
            c.id.as_u64(),
            c.preemptions,
            c.target
        );
    }

    // Preemption accounting: per-completion counters sum to the
    // scheduler's event total (nothing was cancelled in these drives).
    assert_eq!(
        completions
            .iter()
            .map(|c| c.preemptions as u64)
            .sum::<u64>(),
        scheduler.preemption_events(),
        "per-sequence preemption counters must sum to the event total"
    );

    // Invariant 4: FIFO within a priority class. Ids are submission order.
    for a in completions {
        for b in completions {
            if a.priority != b.priority || a.id >= b.id {
                continue;
            }
            assert!(
                a.admitted <= b.admitted,
                "class {}: {} admitted after later submission {}",
                a.priority,
                a.id.as_u64(),
                b.id.as_u64()
            );
            // Equal-shape sequences of one class also *complete* FIFO,
            // plan and stack alike (both phases advance one unit per tick
            // whatever the depth, and preemption evicts most-recently-
            // admitted first, so order is kept).
            let (ra, rb) = (request(a), request(b));
            if prompt_of(ra) == prompt_of(rb) && ra.total_tokens() == rb.total_tokens() {
                assert!(
                    a.completed <= b.completed,
                    "class {}: equal-shape completion order inverted ({} vs {})",
                    a.priority,
                    a.id.as_u64(),
                    b.id.as_u64()
                );
            }
        }
    }
}

/// The headline: ≥ `GPA_SIM_TRACES` (default 52) randomized seeded
/// traces, each with its own workload shape, page geometry, *and*
/// scheduler policy — all always-on invariants checked end to end, with
/// page budgets tight enough that a healthy share of traces preempt.
#[test]
fn randomized_traces_match_the_sequential_reference_bitwise() {
    let mut preempted_completions = 0u64;
    let traces = trace_count();
    for trace_seed in 0u64..traces {
        let mut knobs = StdRng::seed_from_u64(0xC0FFEE ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..6);
        let prompt_hi = prompt_lo + knobs.gen_range(0..12);
        let decode_hi = knobs.gen_range(0..8);
        let spec = TraceSpec {
            sequences: 4 + knobs.gen_range(0..8),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 1 + knobs.gen_range(0..8),
            arrival_gap: (0, knobs.gen_range(0..4) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0x5EED,
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..6);
        // Sometimes a tight pool (forces preemption under decode growth),
        // sometimes a loose one; always enough pages for the largest
        // single sequence, so nothing is rejected at submission.
        let kv_pages = max_total.div_ceil(page_size) + knobs.gen_range(0..2 * spec.sequences);
        // Every third trace runs under `Swap`, which must change nothing.
        let eviction = if trace_seed % 3 == 1 {
            EvictionMode::Swap
        } else {
            EvictionMode::Recompute
        };
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..5),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..6),
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans) = build_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &[]);
        let bound = starvation_bound(&trace, &config);
        let completions = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: all pages released"
        );
        assert_eq!(
            scheduler.swap_peak_bytes(),
            0,
            "trace {trace_seed}: a plan victim parks no bytes"
        );
        preempted_completions += completions.iter().filter(|c| c.preemptions > 0).count() as u64;
    }
    // The suite's claim is only meaningful if preemption actually fired:
    // the bitwise check above must have covered preempted-and-resumed
    // sequences, not just uninterrupted ones.
    assert!(
        preempted_completions > 0,
        "no trace preempted — tighten the page budgets"
    );
}

/// A deterministic preemption workload (independent of the randomized
/// loop): a tight pool under a decode-heavy burst must preempt, resume,
/// and still complete every sequence bitwise equal to the reference.
#[test]
fn preempted_and_resumed_sequences_complete_bitwise() {
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 6,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let spec = TraceSpec {
        sequences: 4,
        prompt: (2, 2),
        decode: (8, 8),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xFACE,
    };
    let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &[]);
    let bound = starvation_bound(&trace, &config);
    let completions = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    assert!(
        completions.iter().any(|c| c.preemptions > 0),
        "this workload must preempt: 4 sequences grow to 5 pages each in a 6-page pool"
    );
}

/// The deterministic preemption workload above with one-layer stacks
/// mixed in (a stack token costs the pages of a plan token, so the
/// squeeze is the same), served by `build_mixed_scheduler`'s plans and its
/// one-layer model. Stack victims are what the parked-bytes gauge
/// counts; a plan victim parks nothing.
fn mixed_squeeze_trace(config: ServeConfig) -> (Scheduler<'static, f64>, Vec<TraceEvent<f64>>) {
    let spec = TraceSpec {
        sequences: 4,
        prompt: (2, 2),
        decode: (8, 8),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xFACE,
    };
    let (scheduler, plans, models) = build_mixed_scheduler(2, config);
    let trace = generate_trace(&spec, &plans, &models[..1]);
    (scheduler, trace)
}

/// Preemptions of the stacks among `completions`.
fn stack_preemptions(completions: &[Completion<f64>]) -> u64 {
    completions
        .iter()
        .filter(|c| matches!(c.target, ServeTarget::Model(_)))
        .map(|c| c.preemptions as u64)
        .sum()
}

/// The mixed preemption workload in both [`EvictionMode`]s: stack
/// victims hold their caches and resume by re-adopting pages in O(1).
/// The mode must be invisible — every completion bitwise equal to the
/// sequential reference *and* field-for-field identical (admission tick,
/// completion tick, preemption count, output) across modes, and the same
/// parked-bytes peak.
#[test]
fn swapped_and_resumed_sequences_match_the_recompute_run_exactly() {
    let mut runs = Vec::new();
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let config = ServeConfig {
            max_in_flight: 4,
            kv_pages: 6,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, trace) = mixed_squeeze_trace(config);
        let bound = starvation_bound(&trace, &config);
        let completions = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(
            stack_preemptions(&completions) > 0,
            "{eviction:?}: this workload must preempt a stack"
        );
        assert!(
            scheduler.swap_peak_bytes() > 0,
            "{eviction:?}: a parked stack's bytes are counted"
        );
        assert_eq!(scheduler.swap_parked_bytes(), 0, "drained ⇒ nothing held");
        runs.push((completions, scheduler.swap_peak_bytes()));
    }
    let ((recompute, recompute_peak), (swap, swap_peak)) = (&runs[0], &runs[1]);
    assert_eq!(
        recompute_peak, swap_peak,
        "eviction mode must not move the parked peak"
    );
    assert_eq!(recompute.len(), swap.len());
    for (r, s) in recompute.iter().zip(swap) {
        assert_eq!(r.id, s.id, "eviction mode must not reorder completions");
        assert_eq!(
            r.admitted,
            s.admitted,
            "seq {}: admission tick differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.completed,
            s.completed,
            "seq {}: completion tick differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.preemptions,
            s.preemptions,
            "seq {}: preemption count differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.output,
            s.output,
            "seq {}: output differs across modes",
            r.id.as_u64()
        );
    }
}

/// `Auto` traces: randomized seeded workloads drawing each sequence's
/// pattern from the single-step plans, two composed plans, and
/// [`PatternChoice::Auto`] — one scheduler, one page pool. Every always-on
/// invariant of the headline loop holds, every completion (Auto sequences
/// checked under the plan the scheduler resolved at admission) is bitwise
/// its sequential reference, and across the loop at least one sequence
/// of the Longformer-style composition is preempted and resumed.
#[test]
fn auto_traces_match_the_sequential_reference_bitwise() {
    let mut longformer_preempted = 0u64;
    let mut auto_served = 0u64;
    for trace_seed in 0u64..scaled_trace_count(16) {
        let mut knobs = StdRng::seed_from_u64(0xADA7 ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..5);
        let prompt_hi = prompt_lo + knobs.gen_range(0..10);
        let decode_hi = knobs.gen_range(0..8);
        let spec = TraceSpec {
            sequences: 4 + knobs.gen_range(0..6),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 2 + knobs.gen_range(0..6),
            arrival_gap: (0, knobs.gen_range(0..3) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0x40E7,
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..5);
        // Tighter than the headline loop: just enough pages for the
        // largest single sequence plus a sliver, so sequences get evicted
        // mid-decode often.
        let kv_pages = max_total.div_ceil(page_size) + knobs.gen_range(0..spec.sequences);
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..4),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..5),
            admission: AdmissionMode::PagedUsage,
            // Alternate eviction modes, which must change nothing.
            eviction: if trace_seed % 2 == 1 {
                EvictionMode::Swap
            } else {
                EvictionMode::Recompute
            },
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, patterns, longformer) = build_auto_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &patterns, &[]);
        let bound = starvation_bound(&trace, &config);
        let completions = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: all pages released"
        );
        for c in &completions {
            let resolved = c.target.plan().expect("a plan-only trace");
            if resolved == longformer && c.preemptions > 0 {
                longformer_preempted += 1;
            }
            if matches!(
                &trace[c.id.as_u64() as usize].request,
                Submission::Plan(r) if r.pattern == PatternChoice::Auto
            ) {
                auto_served += 1;
            }
        }
    }
    assert!(
        longformer_preempted > 0,
        "no Longformer-style sequence was evicted and resumed — tighten the page budgets"
    );
    assert!(
        auto_served > 0,
        "no Auto sequence was drawn — widen the pattern mix"
    );
}

/// One tick flattens a batch mixing four patterns, single-step and
/// composed, into **shared** launches —
/// eight sequences, two per pattern, admitted together and prefilled in a
/// single tick as four batched launches (one per distinct plan, not one
/// per sequence) — and every completion is bitwise the sequential
/// reference.
#[test]
fn one_tick_flattens_single_step_and_composed_plans_into_shared_launches() {
    let config = ServeConfig {
        max_in_flight: 8,
        kv_pages: 32,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 8,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, patterns, longformer) = build_auto_scheduler(2, config);
    // Two sequences per pattern: the three plans of `build_scheduler` plus
    // the Longformer-style one — 8 sequences over 4 distinct plans.
    let chosen = [patterns[0], patterns[1], patterns[2], longformer.into()];
    let (prompt, decode) = (6usize, 2usize);
    let mut requests = Vec::new();
    for (i, &pattern) in chosen.iter().cycle().take(8).enumerate() {
        let (q, k, v) = init::qkv::<f64>(prompt + decode, 4, 0x51 + i as u64);
        requests.push(graph_attention::serve::ServeRequest {
            pattern,
            priority: 0,
            prompt,
            q,
            k,
            v,
        });
    }
    let ids: Vec<_> = requests
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    let report = scheduler.tick().unwrap();
    assert_eq!(report.admitted.len(), 8, "all eight admitted in one tick");
    assert_eq!(
        report.launches, 4,
        "8 sequences share 4 launches — one per distinct plan"
    );
    assert_eq!(
        report.rows_computed,
        8 * prompt,
        "every prompt prefilled whole inside the shared launches"
    );
    let mut completions = Vec::new();
    for _ in 0..32 {
        completions.extend(scheduler.tick().unwrap().completed);
        if scheduler.is_idle() {
            break;
        }
    }
    assert_eq!(completions.len(), 8);
    for c in &completions {
        let idx = ids.iter().position(|&id| id == c.id).unwrap();
        let plan = c.target.plan().expect("a plan-only workload");
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(plan),
            &requests[idx],
            config.prefill_chunk,
        )
        .unwrap();
        assert_eq!(c.output, expect, "sequence {} bitwise", c.id.as_u64());
    }
}

/// Duplicate-shape burst: many equal-shape sequences in two classes,
/// arriving together — the case where the FIFO-completion half of
/// invariant 4 actually bites (and priority classes visibly reorder).
#[test]
fn equal_shape_bursts_complete_fifo_within_class_and_by_priority() {
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 10,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let spec = TraceSpec {
        sequences: 10,
        prompt: (6, 6),
        decode: (3, 3),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 2,
        seed: 0xBEEF,
    };
    let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &[]);
    assert!(
        [0, 1]
            .iter()
            .all(|&class| trace.iter().any(|e| match &e.request {
                Submission::Plan(r) => r.priority == class,
                Submission::Model(r) => r.priority == class,
            })),
        "trace must exercise both classes"
    );
    let bound = starvation_bound(&trace, &config);
    let completions = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    // With simultaneous arrivals and strict priority, every class-0
    // sequence is admitted no later than every class-1 sequence.
    let last_high = completions
        .iter()
        .filter(|c| c.priority == 0)
        .map(|c| c.admitted)
        .max()
        .unwrap();
    let first_low = completions
        .iter()
        .filter(|c| c.priority == 1)
        .map(|c| c.admitted)
        .min()
        .unwrap();
    assert!(
        last_high <= first_low,
        "class 0 must be fully admitted before class 1 starts"
    );
}

/// Invariant 5: a failed batched launch rolls every sequence's cache and
/// page table back and the scheduler keeps serving bitwise-correct
/// outputs once the offending sequence is cancelled. Also: over-capacity
/// submissions are rejected without creating or mutating any cache.
#[test]
fn launch_failure_rolls_back_and_over_capacity_is_rejected_cleanly() {
    let config = ServeConfig {
        max_in_flight: 8,
        kv_pages: 16,
        page_size: 8,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f64> =
        Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
    let healthy = scheduler
        .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
        .unwrap();
    // A Global set pinned to a context length no sequence will ever have:
    // compiles fine, passes submission checks, fails request validation
    // inside the batched launch.
    let globals: &'static GlobalSet = Box::leak(Box::new(GlobalSet::new(97, vec![0])));
    let broken = scheduler
        .register_plan(
            AttentionPlan::single(AttentionKernel::Global { globals, n_sub: 0 }).unwrap(),
        )
        .unwrap();

    // Over-capacity submission: 129 tokens need 17 pages of 8; the whole
    // pool is 16. Rejected before any cache exists.
    let (q, k, v) = init::qkv::<f64>(129, 4, 1);
    let err = scheduler
        .submit(graph_attention::serve::ServeRequest {
            pattern: healthy.into(),
            priority: 0,
            prompt: 8,
            q,
            k,
            v,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::OverCapacity {
            need_pages: 17,
            total_pages: 16
        }
    ));
    assert_eq!(scheduler.kv_used_pages(), 0);
    assert!(scheduler.is_idle());

    // Two healthy sequences decode for a few ticks first.
    let mut healthy_ids = Vec::new();
    for seed in 0..2u64 {
        let (q, k, v) = init::qkv::<f64>(12, 4, 10 + seed);
        healthy_ids.push(
            scheduler
                .submit(graph_attention::serve::ServeRequest {
                    pattern: healthy.into(),
                    priority: 0,
                    prompt: 6,
                    q,
                    k,
                    v,
                })
                .unwrap(),
        );
    }
    for _ in 0..4 {
        scheduler.tick().unwrap();
        scheduler.assert_kv_invariants();
    }
    assert_eq!(scheduler.in_flight_len(), 2, "both mid-flight");

    // Now a sequence on the broken plan joins the batch.
    let (q, k, v) = init::qkv::<f64>(5, 4, 99);
    let broken_id = scheduler
        .submit(graph_attention::serve::ServeRequest {
            pattern: broken.into(),
            priority: 0,
            prompt: 3,
            q: q.clone(),
            k,
            v,
        })
        .unwrap();
    let used_before = scheduler.kv_used_pages();
    let tokens_before = scheduler.kv_used_tokens();
    let now_before = scheduler.now();
    // The failing tick is fully transactional: the broken sequence's
    // admission is undone (back to its queue, pages released), every
    // decode append is rolled back, and the error NAMES the offender.
    let err = scheduler.tick().unwrap_err();
    let ServeError::Launch { request, source: _ } = err else {
        panic!("expected a launch failure, got {err:?}");
    };
    assert_eq!(request, Some(broken_id), "the error must name the offender");
    assert_eq!(
        scheduler.kv_used_pages(),
        used_before,
        "a failed tick leaves no page trace, admissions included"
    );
    assert_eq!(scheduler.kv_used_tokens(), tokens_before);
    assert_eq!(
        scheduler.now(),
        now_before,
        "a failed tick does not advance time"
    );
    assert_eq!(scheduler.in_flight_len(), 2, "the offender was un-admitted");
    assert_eq!(scheduler.pending_len(), 1, "…and returned to its queue");
    scheduler.assert_kv_invariants();
    // Failure is stable: retrying re-admits, fails identically, and
    // un-admits again without growing state.
    assert!(scheduler.tick().is_err());
    assert_eq!(scheduler.kv_used_pages(), used_before);

    // Cancel the offender the error named; the survivors drain to
    // bitwise-correct outputs — possible only if every rollback was clean.
    assert!(scheduler.cancel(request.unwrap()));
    let mut completions = Vec::new();
    for _ in 0..64 {
        completions.extend(scheduler.tick().unwrap().completed);
        if scheduler.is_idle() {
            break;
        }
    }
    assert_eq!(completions.len(), 2);
    for c in &completions {
        assert!(healthy_ids.contains(&c.id));
        let seed = 10 + c.id.as_u64() - healthy_ids[0].as_u64();
        let (q, k, v) = init::qkv::<f64>(12, 4, seed);
        let request = graph_attention::serve::ServeRequest {
            pattern: healthy.into(),
            priority: 0,
            prompt: 6,
            q,
            k,
            v,
        };
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(healthy),
            &request,
            config.prefill_chunk,
        )
        .unwrap();
        assert_eq!(
            c.output,
            expect,
            "survivor {} bitwise intact",
            c.id.as_u64()
        );
    }
    assert_eq!(scheduler.kv_used_pages(), 0);
}

/// A rollback-matrix scenario: submissions by arrival tick (request ids
/// are positions in `events`), the event that cannot run, and the tick
/// whose launch it fails.
struct Script {
    events: Vec<(u64, Submission<f64>)>,
    offender: usize,
    fail_tick: u64,
}

/// The rollback-matrix rig: a healthy plan and a healthy 3-layer stack,
/// plus a plan and a 3-layer stack over a `Global` kernel pinned to `pin`
/// cached tokens. A sequence whose prompt is `pin` long prefills cleanly
/// under the pinned kernel (a plan sequence over `ceil(pin / chunk)`
/// ticks, a stack in one chunk of at least `pin` rows) and fails at its
/// first decode row, so a script places the failing tick at will.
struct Rig {
    scheduler: Scheduler<'static, f64>,
    healthy: PlanId,
    pinned: PlanId,
    stack: ModelId,
    pinned_stack: ModelId,
}

fn build_rig(config: ServeConfig, pin: usize) -> Rig {
    let mut scheduler = Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
    let globals: &'static GlobalSet = Box::leak(Box::new(GlobalSet::new(pin, vec![0])));
    let local = || AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
    let global = || AttentionPlan::single(AttentionKernel::Global { globals, n_sub: 0 }).unwrap();
    let healthy = scheduler.register_plan(local()).unwrap();
    let pinned = scheduler.register_plan(global()).unwrap();
    let sparse = AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap();
    let stack = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("FSF").unwrap(),
            vec![('F', local()), ('S', sparse)],
            12,
            3,
            4,
            0x5EED,
        )
        .unwrap(),
    );
    let pinned_stack = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("FGF").unwrap(),
            vec![('F', local()), ('G', global())],
            12,
            3,
            4,
            0xD1CE,
        )
        .unwrap(),
    );
    Rig {
        scheduler,
        healthy,
        pinned,
        stack,
        pinned_stack,
    }
}

fn plan_sub(
    pattern: PlanId,
    priority: u8,
    prompt: usize,
    total: usize,
    seed: u64,
) -> Submission<f64> {
    let (q, k, v) = init::qkv::<f64>(total, 4, seed);
    Submission::Plan(graph_attention::serve::ServeRequest {
        pattern: pattern.into(),
        priority,
        prompt,
        q,
        k,
        v,
    })
}

fn model_sub(
    model: ModelId,
    priority: u8,
    prompt: usize,
    total: usize,
    seed: u64,
) -> Submission<f64> {
    Submission::Model(ModelRequest {
        model,
        priority,
        prompt,
        x: init::gaussian_matrix(total, 12, 1.0, seed),
    })
}

/// Everything a failed tick must leave untouched.
fn fingerprint(s: &Scheduler<'_, f64>) -> [u64; 8] {
    [
        s.now(),
        s.pending_len() as u64,
        s.parked_len() as u64,
        s.in_flight_len() as u64,
        s.kv_used_pages() as u64,
        s.kv_used_tokens() as u64,
        s.swap_parked_bytes() as u64,
        s.preemption_events(),
    ]
}

/// What a tick did, as request ids: admitted, resumed, preempted,
/// completed.
type Trail = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>);

/// Submit the script's events that are due at the current tick.
fn submit_due(s: &mut Scheduler<'_, f64>, script: &Script, next: &mut usize) {
    while *next < script.events.len() && script.events[*next].0 <= s.now() {
        let id = s.submit(script.events[*next].1.clone()).unwrap();
        assert_eq!(id.as_u64() as usize, *next, "ids are event positions");
        *next += 1;
    }
}

/// Submit what is due, tick once, check the KV invariants — failed tick
/// or not — and return the tick's trail.
fn script_tick(
    s: &mut Scheduler<'_, f64>,
    script: &Script,
    next: &mut usize,
    completions: &mut Vec<Completion<f64>>,
) -> Result<Trail, ServeError> {
    submit_due(s, script, next);
    let report = s.tick();
    s.assert_kv_invariants();
    let report = report?;
    let ids = |v: &[graph_attention::serve::RequestId]| v.iter().map(|id| id.as_u64()).collect();
    let trail = (
        ids(&report.admitted),
        ids(&report.resumed),
        ids(&report.preempted),
        report.completed.iter().map(|c| c.id.as_u64()).collect(),
    );
    completions.extend(report.completed);
    Ok(trail)
}

/// A fresh rig driven through every tick before the script's failing
/// one, with the failing tick's arrivals already queued.
fn rig_at_fail_tick(
    config: ServeConfig,
    pin: usize,
    script: &impl Fn(&Rig, bool) -> Script,
    broken: bool,
) -> (Rig, Script, usize, Vec<Completion<f64>>) {
    let mut rig = build_rig(config, pin);
    let script = script(&rig, broken);
    let (mut next, mut completions) = (0, Vec::new());
    while rig.scheduler.now() < script.fail_tick {
        script_tick(&mut rig.scheduler, &script, &mut next, &mut completions).unwrap();
    }
    submit_due(&mut rig.scheduler, &script, &mut next);
    (rig, script, next, completions)
}

/// Cancel the offender and drain to idle: every tick's trail, plus the
/// completions checked bitwise against the sequential references.
fn cancel_and_drain(
    rig: &mut Rig,
    script: &Script,
    mut next: usize,
    mut completions: Vec<Completion<f64>>,
) -> (Vec<Trail>, Vec<Completion<f64>>) {
    let s = &mut rig.scheduler;
    let mut trails = Vec::new();
    while next < script.events.len() || !s.is_idle() {
        trails.push(script_tick(s, script, &mut next, &mut completions).unwrap());
        assert!(trails.len() < 512, "the scenario must drain");
    }
    assert_eq!(
        completions.len(),
        script.events.len() - 1,
        "all but the offender"
    );
    for c in &completions {
        assert_eq!(
            c.output,
            reference(s, c, &script.events[c.id.as_u64() as usize].1),
            "survivor {} ({} preemptions) bitwise",
            c.id.as_u64(),
            c.preemptions
        );
    }
    assert_eq!(s.kv_used_pages(), 0);
    assert_eq!(s.swap_parked_bytes(), 0);
    (trails, completions)
}

/// What [`assert_failed_tick_leaves_no_trace`] saw, for scenario-specific
/// assertions: what the failing tick had staged, and every tick's trail
/// after the offender was cancelled.
struct Outcome {
    staged: Trail,
    after_cancel: Vec<Trail>,
}

/// The rollback contract on one scenario, `script(rig, broken)` building
/// the same submissions with the offender on the pinned kernel (`broken`)
/// or on its healthy twin. Page arithmetic is plan-blind, so the witness
/// run — the twin lets the tick succeed — shows what the failing tick had
/// staged. Then, with the real offender: the failing tick leaves the
/// whole-state fingerprint unchanged and names the offender, a retry
/// fails identically, and after `cancel(offender)` everything drains
/// bitwise against the sequential references — tick for tick and field
/// for field the same as a control run that cancelled the offender
/// *instead of* running the failing tick: a failed tick leaves no trace.
fn assert_failed_tick_leaves_no_trace(
    config: ServeConfig,
    pin: usize,
    script: impl Fn(&Rig, bool) -> Script,
) -> Outcome {
    // Witness: what the failing tick stages.
    let (mut rig, twin, mut next, mut sink) = rig_at_fail_tick(config, pin, &script, false);
    let staged = script_tick(&mut rig.scheduler, &twin, &mut next, &mut sink).unwrap();

    // The failing run.
    let (mut rig, broken, next, completions) = rig_at_fail_tick(config, pin, &script, true);
    let before = fingerprint(&rig.scheduler);
    let err = rig.scheduler.tick().unwrap_err();
    rig.scheduler.assert_kv_invariants();
    let ServeError::Launch { request, .. } = &err else {
        panic!("expected a launch failure, got {err:?}");
    };
    let offender = request.expect("the error must name the offender");
    assert_eq!(offender.as_u64() as usize, broken.offender);
    assert_eq!(
        fingerprint(&rig.scheduler),
        before,
        "a failed tick leaves no trace"
    );
    assert_eq!(
        rig.scheduler.tick().unwrap_err(),
        err,
        "a retry fails identically"
    );
    rig.scheduler.assert_kv_invariants();
    assert_eq!(fingerprint(&rig.scheduler), before, "…and leaves no trace");
    assert!(rig.scheduler.cancel(offender));
    let (trails, completions) = cancel_and_drain(&mut rig, &broken, next, completions);

    // Control: the same run, never having attempted the failing tick.
    let (mut rig, broken, next, control) = rig_at_fail_tick(config, pin, &script, true);
    assert!(rig.scheduler.cancel(offender));
    let (control_trails, control) = cancel_and_drain(&mut rig, &broken, next, control);
    assert_eq!(trails, control_trails, "the schedule after a failed tick");
    for (c, k) in completions.iter().zip(&control) {
        assert_eq!(
            (c.id, c.admitted, c.completed, c.preemptions),
            (k.id, k.admitted, k.completed, k.preemptions)
        );
        assert_eq!(c.output, k.output);
    }
    Outcome {
        staged,
        after_cancel: trails,
    }
}

/// `ServeConfig` for the rollback matrix: pages of 2 tokens and chunks of
/// 2 rows, so every other token crosses a page boundary.
fn rollback_config(kv_pages: usize, eviction: EvictionMode, swap_bytes: usize) -> ServeConfig {
    ServeConfig {
        max_in_flight: 8,
        kv_pages,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction,
        swap_bytes,
    }
}

/// Rollback matrix (a): the failing tick had staged preemption victims —
/// a 3-layer stack and a plan sequence sitting at in-flight positions 1
/// and 2, between the offender and a younger, more urgent stack — so
/// un-preempt must put both back where they were, not at the tail.
/// Cancelling the offender frees enough pages that nobody is evicted
/// again, and victims and survivor all complete on the very next tick:
/// the completion order *is* the in-flight order.
#[test]
fn failed_tick_unpreempts_victims_at_their_positions() {
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let outcome = assert_failed_tick_leaves_no_trace(
            rollback_config(22, eviction, usize::MAX),
            8,
            |rig, broken| Script {
                events: vec![
                    // The offender: four prefill ticks, first decode row
                    // on tick 4.
                    (
                        0,
                        plan_sub(if broken { rig.pinned } else { rig.healthy }, 0, 8, 10, 1),
                    ),
                    // Class 1, admitted with it: the victims-to-be.
                    (0, model_sub(rig.stack, 1, 2, 6, 2)),
                    (0, plan_sub(rig.healthy, 1, 2, 6, 3)),
                    // Class 0, a tick later: more urgent than both, and
                    // behind both in flight.
                    (1, model_sub(rig.stack, 0, 2, 5, 4)),
                ],
                offender: 0,
                fail_tick: 4,
            },
        );
        assert_eq!(
            outcome.staged,
            (vec![], vec![], vec![1, 2], vec![3]),
            "{eviction:?}: the failing tick preempts the stack and the plan sequence"
        );
        assert_eq!(
            outcome.after_cancel[0],
            (vec![], vec![], vec![], vec![1, 2, 3]),
            "{eviction:?}: the victims sit ahead of the younger stack again"
        );
    }
}

/// Rollback matrix (b): the failing tick had resumed parked sequences —
/// a plan sequence and a 3-layer stack — and admitted a fresh request
/// behind them, so the rollback re-parks and un-admits in one sweep.
#[test]
fn failed_tick_reparks_resumed_sequences() {
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let outcome = assert_failed_tick_leaves_no_trace(
            rollback_config(21, eviction, usize::MAX),
            15,
            |rig, broken| Script {
                events: vec![
                    // Class 0: a sequence that completes on tick 7 and
                    // frees six pages, the offender (eight prefill ticks,
                    // first decode row on tick 8), and a short decoder
                    // that completes with the first.
                    (0, plan_sub(rig.healthy, 0, 8, 12, 1)),
                    (
                        0,
                        plan_sub(if broken { rig.pinned } else { rig.healthy }, 0, 15, 17, 2),
                    ),
                    (0, plan_sub(rig.healthy, 0, 2, 9, 3)),
                    // Class 1: squeezed out on ticks 6 and 1, both back
                    // on tick 8, with a newcomer admitted behind them.
                    (0, plan_sub(rig.healthy, 1, 2, 12, 4)),
                    (0, model_sub(rig.stack, 1, 2, 8, 5)),
                    (8, plan_sub(rig.healthy, 1, 2, 3, 6)),
                ],
                offender: 1,
                fail_tick: 8,
            },
        );
        assert_eq!(
            outcome.staged,
            (vec![5], vec![3, 4], vec![], vec![]),
            "{eviction:?}: the failing tick resumes both victims and admits the newcomer"
        );
    }
}

/// Rollback matrix (c): the offender is a stack whose second layer is
/// pinned, launched *after* the healthy stack's group — so when its
/// launch fails, a healthy stack mid-decode and one mid-prefill have
/// already appended to every layer, a plan sequence has appended its
/// decode row, and two fresh admissions (one of each flavor) sit at the
/// in-flight tail. Every layer must come back to its pre-tick length.
#[test]
fn failed_tick_truncates_every_layer_of_model_stacks() {
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let outcome = assert_failed_tick_leaves_no_trace(
            rollback_config(64, eviction, usize::MAX),
            2,
            |rig, broken| Script {
                events: vec![
                    (0, model_sub(rig.stack, 0, 2, 10, 1)),
                    (0, model_sub(rig.stack, 0, 9, 10, 2)),
                    (0, plan_sub(rig.healthy, 0, 2, 8, 3)),
                    (
                        2,
                        model_sub(
                            if broken { rig.pinned_stack } else { rig.stack },
                            0,
                            2,
                            4,
                            4,
                        ),
                    ),
                    (3, plan_sub(rig.healthy, 0, 3, 4, 5)),
                    (3, model_sub(rig.stack, 0, 4, 5, 6)),
                ],
                offender: 3,
                fail_tick: 3,
            },
        );
        assert_eq!(
            outcome.staged,
            (vec![4, 5], vec![], vec![], vec![]),
            "{eviction:?}"
        );
    }
}

/// Rollback matrix, two plan groups in one tick: launches write their
/// rows straight into each sequence's output, past its cursor, and the
/// healthy plan's group launches *before* the pinned plan's. So when the
/// offender's first decode row fails the second launch, the first has
/// already written a decode row, a prefill window and a fresh admission's
/// first window where results live. None of it may count: no cursor
/// moved, the retry recomputes the same rows, and after the offender is
/// cancelled every survivor completes bitwise its sequential reference.
#[test]
fn failed_tick_discards_rows_an_earlier_group_already_wrote() {
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let outcome = assert_failed_tick_leaves_no_trace(
            rollback_config(64, eviction, usize::MAX),
            4,
            |rig, broken| {
                // Plan groups launch in registration order.
                assert!(rig.healthy < rig.pinned, "the healthy group goes first");
                Script {
                    events: vec![
                        // Healthy group: decoding since tick 1…
                        (0, plan_sub(rig.healthy, 0, 2, 8, 1)),
                        // …and still prefilling on the failing tick.
                        (0, plan_sub(rig.healthy, 0, 9, 10, 2)),
                        // The offender: two prefill ticks, first decode row
                        // on tick 2, in the second group to launch.
                        (
                            0,
                            plan_sub(if broken { rig.pinned } else { rig.healthy }, 0, 4, 6, 3),
                        ),
                        // Admitted by the failing tick itself, into the
                        // healthy group: its output rows do not outlive it.
                        (2, plan_sub(rig.healthy, 0, 3, 4, 4)),
                    ],
                    offender: 2,
                    fail_tick: 2,
                }
            },
        );
        assert_eq!(
            outcome.staged,
            (vec![3], vec![], vec![], vec![]),
            "{eviction:?}"
        );
    }
}

/// Mixed plan + model traces: randomized seeded workloads drawing both
/// bare-plan sequences and decoder-stack sequences (single-layer and
/// 3-layer heterogeneous models) into one trace, through one scheduler
/// and one page pool — every invariant of the headline loop holds, page
/// conservation spans every layer's table after every tick, and every
/// completion of either flavor is bitwise its sequential reference.
#[test]
fn mixed_model_traces_match_the_sequential_references_bitwise() {
    let mut model_preempted = 0u64;
    for trace_seed in 0u64..scaled_trace_count(12) {
        let mut knobs = StdRng::seed_from_u64(0x40D3 ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..4);
        let prompt_hi = prompt_lo + knobs.gen_range(0..8);
        let decode_hi = knobs.gen_range(0..6);
        let spec = TraceSpec {
            sequences: 4 + knobs.gen_range(0..7),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 1 + knobs.gen_range(0..6),
            arrival_gap: (0, knobs.gen_range(0..3) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0xA77,
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..4);
        // Enough pages for the deepest single sequence (3 layers), tight
        // enough that a healthy share of traces preempt.
        let kv_pages = 3 * max_total.div_ceil(page_size) + knobs.gen_range(0..6);
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..4),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..5),
            admission: AdmissionMode::PagedUsage,
            // Alternate eviction modes, which must change nothing: whole
            // decoder stacks park and resume as a unit either way.
            eviction: if trace_seed % 2 == 1 {
                EvictionMode::Swap
            } else {
                EvictionMode::Recompute
            },
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans, models) = build_mixed_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &models);
        let bound = starvation_bound(&trace, &config);
        let completions = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: every layer's pages released"
        );
        model_preempted += completions
            .iter()
            .filter(|c| c.target.model().is_some() && c.preemptions > 0)
            .count() as u64;
    }
    assert!(
        model_preempted > 0,
        "no model sequence preempted — tighten the page budgets"
    );
}

/// Deterministic multi-layer preempt-and-resume (the acceptance
/// scenario): two 3-layer sequences under a pool that can hold only one
/// of them at full length. The younger is evicted with all three layers'
/// caches retained, resumes after the elder drains, and both complete
/// bitwise equal to the sequential decoder-stack reference.
#[test]
fn preempted_multi_layer_sequences_resume_and_complete_bitwise() {
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 9,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, _, models) = build_mixed_scheduler(2, config);
    let stacked = models[1].0;
    // Each sequence: 2-token prompt, 4 decode tokens → 3 pages/layer = 9
    // pages at completion; both admit on 3 pages total.
    let spec = TraceSpec {
        sequences: 2,
        prompt: (2, 2),
        decode: (4, 4),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xCAFE,
    };
    let trace: Vec<TraceEvent<f64>> =
        generate_trace::<_, PlanId>(&spec, &[], &[(stacked, models[1].1)]);
    let bound = starvation_bound(&trace, &config);
    let completions = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    assert!(
        completions.iter().any(|c| c.preemptions > 0),
        "this workload must preempt a multi-layer sequence"
    );
    assert!(scheduler.preemption_events() >= 1);
    assert_eq!(scheduler.kv_used_pages(), 0);
}

/// The multi-layer preemption scenario in both [`EvictionMode`]s: the
/// victim's *whole decoder stack* (one cache per layer) parks as a unit
/// and re-adopts as a unit. Completions stay bitwise equal to the
/// sequential decoder-stack reference and identical across modes — all
/// three layers' worth of bytes are counted while parked.
#[test]
fn swapped_multi_layer_stacks_park_and_resume_as_a_unit() {
    let spec = TraceSpec {
        sequences: 2,
        prompt: (2, 2),
        decode: (4, 4),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xCAFE,
    };
    let mut runs = Vec::new();
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let config = ServeConfig {
            max_in_flight: 2,
            kv_pages: 9,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, _, models) = build_mixed_scheduler(2, config);
        let stacked = models[1].0;
        let trace: Vec<TraceEvent<f64>> =
            generate_trace::<_, PlanId>(&spec, &[], &[(stacked, models[1].1)]);
        let bound = starvation_bound(&trace, &config);
        let completions = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(
            completions.iter().any(|c| c.preemptions > 0),
            "{eviction:?}: this workload must preempt a multi-layer sequence"
        );
        // The victim is a 3-layer, 3-head f64 stack of at least its 2
        // prompt tokens: its park counts every layer, not a single one.
        assert!(
            scheduler.swap_peak_bytes() >= 3 * 3 * 2 * (4 + 4) * std::mem::size_of::<f64>(),
            "{eviction:?}: the parked stack's every layer is counted"
        );
        assert_eq!(scheduler.swap_parked_bytes(), 0, "drained ⇒ nothing held");
        runs.push(completions);
    }
    let (recompute, swap) = (&runs[0], &runs[1]);
    assert_eq!(recompute.len(), swap.len());
    for (r, s) in recompute.iter().zip(swap) {
        assert_eq!(r.id, s.id);
        assert_eq!(
            r.completed,
            s.completed,
            "seq {}: completion tick differs",
            r.id.as_u64()
        );
        assert_eq!(r.preemptions, s.preemptions);
        assert_eq!(
            r.output,
            s.output,
            "seq {}: output differs across modes",
            r.id.as_u64()
        );
    }
}

/// One-page pools, the smallest a scheduler accepts (`Scheduler::new`
/// rejects `kv_pages = 0`, pinned by the scheduler's unit test
/// `config_validation`). A plan sequence of exactly `page_size` tokens
/// and a one-layer stack of the same length are each served bitwise;
/// one token more is rejected at `submit` as over capacity, as is an
/// empty prompt of either flavor (the plan case is also pinned by
/// `submit_validation_rejects_bad_requests`); and two page-long plan
/// sequences sharing the one page both complete bitwise.
#[test]
fn one_page_pools_serve_a_page_of_tokens_bitwise() {
    const PAGE: usize = 4;
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 1,
        page_size: PAGE,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let events = |requests: Vec<Submission<f64>>| -> Vec<TraceEvent<f64>> {
        let at = |request| TraceEvent { at: 0, request };
        requests.into_iter().map(at).collect()
    };
    let (mut scheduler, plans, models) = build_mixed_scheduler(2, config);
    let (plan, stack) = (plans[0], models[0].0);
    let over = || {
        Err(ServeError::OverCapacity {
            need_pages: 2,
            total_pages: 1,
        })
    };
    assert_eq!(scheduler.submit(plan_sub(plan, 0, 2, PAGE + 1, 5)), over());
    assert_eq!(
        scheduler.submit(model_sub_of(stack, 8, 2, PAGE + 1, 6)),
        over()
    );
    for empty in [
        plan_sub(plan, 0, 0, PAGE, 7),
        model_sub_of(stack, 8, 0, PAGE, 8),
    ] {
        assert!(matches!(
            scheduler.submit(empty),
            Err(ServeError::BadRequest { .. })
        ));
    }
    assert!(
        scheduler.is_idle(),
        "rejected requests leave no state behind"
    );
    let scenarios = [
        events(vec![plan_sub(plan, 0, 2, PAGE, 1)]),
        events(vec![model_sub_of(stack, 8, 2, PAGE, 2)]),
        events(vec![
            plan_sub(plan, 0, 2, PAGE, 3),
            plan_sub(plan, 0, 1, PAGE, 4),
        ]),
    ];
    for trace in scenarios {
        let (mut scheduler, _, _) = build_mixed_scheduler(2, config);
        let completions = drive(&mut scheduler, &trace, starvation_bound(&trace, &config));
        check_completions(&scheduler, &trace, &completions);
        assert_eq!(scheduler.kv_used_pages(), 0);
    }
}

/// A model request of `d_model`-wide embedding rows.
fn model_sub_of(
    model: ModelId,
    d_model: usize,
    prompt: usize,
    total: usize,
    seed: u64,
) -> Submission<f64> {
    Submission::Model(ModelRequest {
        model,
        priority: 0,
        prompt,
        x: init::gaussian_matrix(total, d_model, 1.0, seed),
    })
}

/// The serving boundary for non-finite inputs: `submit` does not scan a
/// request's rows, and a launch propagates per row, as the kernels do. Two
/// plan sequences share one launch, one with a `NaN` key row. The clean
/// one is bitwise its sequential reference. The poisoned one is `NaN`
/// exactly on the rows whose `Local` window reaches the bad key — prompt
/// rows within the window of it, and decode rows until the window has
/// passed it — finite everywhere else, and bit for bit its own
/// sequential reference.
#[test]
fn a_non_finite_key_poisons_only_the_rows_that_reach_it() {
    let (n, prompt, total, bad) = (2, 8, 14, 6);
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 8,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let local = plans[0];
    let clean = plan_sub(local, 0, prompt, total, 1);
    let mut poisoned = plan_sub(local, 0, prompt, total, 2);
    let Submission::Plan(request) = &mut poisoned else {
        unreachable!("a plan submission");
    };
    request.k.row_mut(bad).fill(f64::NAN);
    let ids = [
        scheduler.submit(clean.clone()).unwrap(),
        scheduler.submit(poisoned.clone()).unwrap(),
    ];
    let first = scheduler.tick().unwrap();
    assert_eq!(first.admitted, ids.to_vec());
    assert_eq!(first.launches, 1, "both sequences share one launch");
    let mut completions = first.completed;
    while !scheduler.is_idle() {
        completions.extend(scheduler.tick().unwrap().completed);
    }
    let output = |id| &completions.iter().find(|c| c.id == id).unwrap().output;
    let chunk = config.prefill_chunk;
    let (engine, plan) = (scheduler.engine(), scheduler.plan(local));
    let Submission::Plan(clean) = clean else {
        unreachable!("a plan submission");
    };
    let reference = sequential_reference(engine, plan, &clean, chunk).unwrap();
    assert_eq!(
        *output(ids[0]),
        reference,
        "the clean sequence is untouched"
    );

    let out = output(ids[1]);
    for i in 0..total {
        // A prompt row sees the whole prompt; decode row `i` the tokens
        // up to itself.
        let kv_rows = if i < prompt { prompt } else { i + 1 };
        let reaches = bad < kv_rows && i.abs_diff(bad) <= n;
        let row = out.row(i);
        if reaches {
            assert!(row.iter().all(|x| x.is_nan()), "row {i} reaches the key");
        } else {
            assert!(row.iter().all(|x| x.is_finite()), "row {i} does not");
        }
    }
    let Submission::Plan(poisoned) = poisoned else {
        unreachable!("a plan submission");
    };
    let reference = sequential_reference(engine, plan, &poisoned, chunk).unwrap();
    let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(out), bits(&reference), "NaN rows included");
}
