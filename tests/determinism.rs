//! Determinism across schedules and thread counts: each attention row is
//! computed by exactly one block with a fixed neighbor order, so outputs
//! are bit-identical no matter how rows are scheduled — a property the
//! benchmark methodology silently relies on.

use graph_attention::core::{
    flash_attention, masked_sdp, AttentionEngine, AttentionKernel, AttentionPlan, AttentionRequest,
};
use graph_attention::masks::{GlobalSet, MaskPattern, RandomUniform};
use graph_attention::model::{DecoderModel, LayerPattern};
use graph_attention::serve::{
    generate_trace, replay, AdmissionMode, Completion, EvictionMode, PatternChoice, PlanId,
    RequestId, Scheduler, ServeConfig, Submission, TraceEvent, TraceSpec,
};
use graph_attention::tensor::init::qkv;

/// Assert that a replay completed exactly like the reference replay of
/// the same trace: same completion order, resolved targets, admission
/// and completion ticks, preemption counts, and output bits.
fn assert_same_completions(reference: &[Completion<f32>], run: &[Completion<f32>], what: &str) {
    assert_eq!(run.len(), reference.len());
    for (a, b) in reference.iter().zip(run) {
        assert_eq!(a.id, b.id, "{what} changed completion order");
        assert_eq!(
            a.target, b.target,
            "{what} changed the resolved plan of {:?}",
            a.id
        );
        assert_eq!(
            (a.admitted, a.completed, a.preemptions),
            (b.admitted, b.completed, b.preemptions),
            "{what} changed the schedule of {:?}",
            a.id
        );
        assert_eq!(
            a.output.as_slice(),
            b.output.as_slice(),
            "{what} changed bits of {:?}",
            a.id
        );
    }
}

/// A scheduler on `threads` workers with two registered plans (Local and
/// Dilated1d).
fn two_plan_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (Scheduler<'static, f32>, [PlanId; 2]) {
    let mut scheduler = Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
    let plans = [
        scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap())
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::single(AttentionKernel::Dilated1d { w: 4, r: 1 }).unwrap(),
            )
            .unwrap(),
    ];
    (scheduler, plans)
}

/// A tick that preempted or resumed: (tick, preempted, resumed).
type Event = (u64, Vec<RequestId>, Vec<RequestId>);

/// Replay `trace` tick by tick, recording every preemption event.
fn replay_recording_preemptions(
    scheduler: &mut Scheduler<'_, f32>,
    trace: &[TraceEvent<f32>],
) -> (Vec<Completion<f32>>, Vec<Event>) {
    let mut completions = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next = 0usize;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            scheduler.submit(trace[next].request.clone()).unwrap();
            next += 1;
        }
        let report = scheduler.tick().unwrap();
        if !report.preempted.is_empty() || !report.resumed.is_empty() {
            events.push((report.tick, report.preempted, report.resumed));
        }
        completions.extend(report.completed);
        assert!(scheduler.now() < 100_000, "trace did not drain");
    }
    (completions, events)
}

#[test]
fn outputs_bitwise_identical_across_schedules() {
    // A random CSR mask (rows of uneven degree) launched as one request
    // and as batches of row-range requests cut every 1, 17 and 32 rows, on
    // 1, 2 and 4 threads: the request cuts move the launch's segments and
    // what one claim spans, and every row keeps the bits of the one-thread
    // single-request run.
    let l = 256;
    let (q, k, v) = qkv::<f32>(l, 16, 8);
    let mask = RandomUniform::new(l, 0.1, 3).to_csr();
    let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
    let reference = AttentionEngine::with_threads(1)
        .run(&plan, &q, &k, &v)
        .unwrap();
    for threads in [1usize, 2, 4] {
        let engine = AttentionEngine::with_threads(threads);
        for cut in [1usize, 17, 32] {
            let requests: Vec<_> = (0..l)
                .step_by(cut)
                .map(|start| {
                    let rows = start..(start + cut).min(l);
                    AttentionRequest::row_range(&q, rows, &k, &v, start)
                })
                .collect();
            let outs = engine.run_batch(&plan, &requests).unwrap();
            assert_eq!(outs.len(), requests.len());
            for (out, start) in outs.iter().zip((0..l).step_by(cut)) {
                for i in 0..out.rows() {
                    assert_eq!(
                        out.row(i),
                        reference.row(start + i),
                        "{threads} threads, requests of {cut} rows, row {}",
                        start + i
                    );
                }
            }
        }
    }
}

#[test]
fn outputs_bitwise_identical_across_thread_counts() {
    // The thread count moves where a launch cuts its rows and what its
    // shares steal: a Local plan and a random CSR mask (rows of uneven
    // degree) must keep the one-thread bits at every count.
    let (q, k, v) = qkv::<f32>(192, 8, 2);
    let local = AttentionPlan::single(AttentionKernel::Local { n: 9 }).unwrap();
    let l = 256;
    let (qc, kc, vc) = qkv::<f32>(l, 16, 8);
    let mask = RandomUniform::new(l, 0.1, 3).to_csr();
    let csr = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
    let on = |threads| {
        let engine = AttentionEngine::with_threads(threads);
        [
            engine.run(&local, &q, &k, &v).unwrap(),
            engine.run(&csr, &qc, &kc, &vc).unwrap(),
        ]
    };
    let reference = on(1);
    for threads in [2usize, 3, 4, 8] {
        for (out, want) in on(threads).iter().zip(&reference) {
            assert_eq!(
                out.as_slice(),
                want.as_slice(),
                "{threads} threads changed bits"
            );
        }
    }
}

#[test]
fn edge_skewed_small_launch_identical_across_thread_counts() {
    // 17 query rows of a Longformer plan, three of them global rows of
    // 2048 edges among local rows of 33: too few rows for a 16-row block
    // per thread, heavy enough that the launch is cut finer (9-row claims
    // at 2 threads, 5-row claims at 4).
    let l = 2048;
    let (q, k, v) = qkv::<f32>(l, 16, 12);
    let globals = GlobalSet::new(l, vec![0, 1002, 1008, 1014, 2047]);
    let plan = AttentionPlan::new(&[
        AttentionKernel::Local { n: 16 },
        AttentionKernel::Global {
            globals: &globals,
            n_sub: 16,
        },
    ])
    .unwrap();
    let rows = 1000..1017;
    let square = AttentionEngine::with_threads(1)
        .run(&plan, &q, &k, &v)
        .unwrap();
    for threads in [1usize, 2, 4] {
        let request = AttentionRequest::row_range(&q, rows.clone(), &k, &v, rows.start);
        let out = AttentionEngine::with_threads(threads)
            .run_batch(&plan, &[request])
            .unwrap()
            .pop()
            .unwrap();
        for (i, row) in rows.clone().enumerate() {
            assert_eq!(out.row(i), square.row(row), "{threads} threads, row {row}");
        }
    }
}

#[test]
fn repeated_runs_identical() {
    let l = 128;
    let (q, k, v) = qkv::<f32>(l, 8, 4);
    let engine = AttentionEngine::with_threads(4);
    let mask = RandomUniform::new(l, 0.2, 7).to_dense();
    let sdp = || masked_sdp(&engine, &mask, &q, &k, &v).unwrap();
    let a = sdp();
    for _ in 0..3 {
        assert_eq!(a.as_slice(), sdp().as_slice());
    }
}

#[test]
fn serving_trace_identical_across_pool_sizes() {
    // The continuous-batching scheduler inherits the kernels' bitwise
    // schedule-independence: replaying one seeded trace on pools of 1, 2,
    // and 4 workers must produce identical outputs, identical completion
    // *order*, and identical completion ticks — the scheduler's control
    // flow is a pure function of the virtual clock, never of thread
    // timing.
    let spec = TraceSpec {
        sequences: 10,
        prompt: (3, 18),
        decode: (0, 6),
        dk: 8,
        arrival_gap: (0, 2),
        priority_classes: 2,
        seed: 0xD17,
    };
    let config = ServeConfig {
        max_in_flight: 3,
        kv_pages: 12,
        page_size: 8,
        arrival_window: 1,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let run = |threads: usize| {
        let (mut scheduler, plans) = two_plan_scheduler(threads, config);
        let trace = generate_trace::<f32, _>(&spec, &plans, &[]);
        replay(&mut scheduler, &trace, 100_000).unwrap()
    };
    let reference = run(1);
    assert_eq!(reference.len(), spec.sequences);
    for threads in [2usize, 4] {
        assert_same_completions(&reference, &run(threads), &format!("{threads} threads"));
    }
}

#[test]
fn preempting_trace_identical_across_pool_sizes() {
    // Preemption is scheduler control flow, so it must be exactly as
    // thread-count-independent as the kernels themselves: a trace tight
    // enough to force evict-and-resume replays on pools of 1, 2, and 4
    // workers with identical outputs, identical completion order, and
    // identical per-tick preemption *events* (who was evicted and who
    // resumed, at which tick).
    let spec = TraceSpec {
        sequences: 6,
        prompt: (2, 4),
        decode: (6, 10),
        dk: 8,
        arrival_gap: (0, 1),
        priority_classes: 2,
        seed: 0xE51C7,
    };
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 8,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let run = |threads: usize| {
        let (mut scheduler, plans) = two_plan_scheduler(threads, config);
        let trace = generate_trace::<f32, _>(&spec, &plans, &[]);
        let (completions, events) = replay_recording_preemptions(&mut scheduler, &trace);
        (completions, events, scheduler.preemption_events())
    };
    let (reference, ref_events, ref_count) = run(1);
    assert_eq!(reference.len(), spec.sequences);
    assert!(ref_count > 0, "this trace must force preemption");
    for threads in [2usize, 4] {
        let (completions, events, count) = run(threads);
        assert_eq!(
            events, ref_events,
            "{threads} threads changed the preemption schedule"
        );
        assert_eq!(count, ref_count);
        assert_same_completions(&reference, &completions, &format!("{threads} threads"));
    }
}

#[test]
fn swap_mode_preempting_trace_identical_across_pool_sizes_and_modes() {
    // EvictionMode::Swap must be invisible twice over: the swapped
    // replay is identical across 1/2/4 worker threads, and every event
    // and completion matches the evict-and-recompute replay of the same
    // trace tick for tick — eviction mode changes nothing. The trace
    // mixes one-layer stacks in with the plan sequences: a stack's
    // computed caches are what a park holds and counts, while a plan
    // victim parks nothing.
    let spec = TraceSpec {
        sequences: 6,
        prompt: (2, 4),
        decode: (6, 10),
        dk: 8,
        arrival_gap: (0, 1),
        priority_classes: 2,
        seed: 0xE51C7,
    };
    let run = |threads: usize, eviction: EvictionMode| {
        let config = ServeConfig {
            max_in_flight: 4,
            kv_pages: 8,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans) = two_plan_scheduler(threads, config);
        // One layer: a stack token costs the pages of a plan token.
        let local = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let stack = DecoderModel::new(
            LayerPattern::parse("F").unwrap(),
            vec![('F', local)],
            8,
            2,
            4,
            0x5A9,
        );
        let model = scheduler.register_model(stack.unwrap());
        let trace = generate_trace::<f32, _>(&spec, &plans, &[(model, 8)]);
        let (completions, events) = replay_recording_preemptions(&mut scheduler, &trace);
        assert!(
            scheduler.swap_peak_bytes() > 0,
            "{threads} threads, {eviction:?}: a parked stack's bytes are counted"
        );
        (completions, events)
    };
    let (reference, ref_events) = run(1, EvictionMode::Recompute);
    assert!(!ref_events.is_empty(), "this trace must force preemption");
    for threads in [1usize, 2, 4] {
        let (completions, events) = run(threads, EvictionMode::Swap);
        assert_eq!(
            events, ref_events,
            "swap mode at {threads} threads changed the preemption schedule"
        );
        assert_same_completions(
            &reference,
            &completions,
            &format!("swap mode at {threads} threads"),
        );
    }
}

#[test]
fn auto_serving_trace_identical_across_pool_sizes() {
    // `Auto` resolution at admission ranks the registered plans by their
    // estimated edges and indexes the ranking by the pool's free-page
    // fraction — a stage that must be a pure function of the data and the
    // virtual clock: a trace mixing a single-step plan, a composed plan
    // and Auto sequences, tight enough to evict Auto sequences
    // mid-decode, replays on pools of 1, 2, and 4 workers with identical
    // outputs, completion order, resolved plans, and preemption counts.
    let spec = TraceSpec {
        sequences: 6,
        prompt: (2, 5),
        decode: (5, 9),
        dk: 6,
        arrival_gap: (0, 1),
        priority_classes: 2,
        seed: 0xADA97,
    };
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 8,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let run = |threads: usize| {
        let mut scheduler: Scheduler<'static, f32> =
            Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
        let local = scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap())
            .unwrap();
        // A sliding window plus a dilated one, Longformer's two
        // length-free parts.
        let composed = scheduler
            .register_plan(
                AttentionPlan::new(&[
                    AttentionKernel::Local { n: 1 },
                    AttentionKernel::Dilated1d { w: 7, r: 1 },
                ])
                .unwrap(),
            )
            .unwrap();
        let patterns = [
            PatternChoice::from(local),
            PatternChoice::from(composed),
            PatternChoice::Auto,
        ];
        let trace = generate_trace::<f32, _>(&spec, &patterns, &[]);
        let completions = replay(&mut scheduler, &trace, 100_000).unwrap();
        let auto_preempted = completions.iter().any(|c| {
            c.preemptions > 0
                && matches!(
                    &trace[c.id.as_u64() as usize].request,
                    Submission::Plan(r) if r.pattern == PatternChoice::Auto
                )
        });
        (completions, scheduler.preemption_events(), auto_preempted)
    };
    let (reference, ref_events, ref_auto_preempted) = run(1);
    assert_eq!(reference.len(), spec.sequences);
    assert!(ref_events > 0, "this trace must force preemption");
    assert!(
        ref_auto_preempted,
        "an Auto sequence must be evicted and resumed"
    );
    for threads in [2usize, 4] {
        let (completions, events, _) = run(threads);
        assert_eq!(events, ref_events, "{threads} threads changed preemptions");
        assert_same_completions(&reference, &completions, &format!("{threads} threads"));
    }
}

#[test]
fn multi_layer_model_trace_identical_across_pool_sizes() {
    // Decoder-stack serving adds per-layer projections, residuals, and
    // one launch per layer per tick — all of which must stay exactly as
    // thread-count-independent as the bare kernels: one seeded
    // multi-layer trace (tight enough to preempt whole stacks) replayed
    // on pools of 1, 2, and 4 workers produces identical outputs,
    // completion order, ticks, and preemption counts.
    let spec = TraceSpec {
        sequences: 5,
        prompt: (2, 5),
        decode: (3, 7),
        dk: 4,
        arrival_gap: (0, 1),
        priority_classes: 2,
        seed: 0x11A7,
    };
    let config = ServeConfig {
        max_in_flight: 3,
        kv_pages: 40,
        page_size: 1,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let run = |threads: usize| {
        let mut scheduler: Scheduler<'static, f32> =
            Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
        let model = scheduler.register_model(
            DecoderModel::new(
                LayerPattern::parse("FSF").unwrap(),
                vec![
                    (
                        'F',
                        AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
                    ),
                    (
                        'S',
                        AttentionPlan::single(AttentionKernel::Dilated1d { w: 2, r: 2 }).unwrap(),
                    ),
                ],
                10,
                2,
                5,
                0xF00D,
            )
            .unwrap(),
        );
        let trace = generate_trace::<f32, PlanId>(&spec, &[], &[(model, 10)]);
        let completions = replay(&mut scheduler, &trace, 100_000).unwrap();
        (completions, scheduler.preemption_events())
    };
    let (reference, ref_events) = run(1);
    assert_eq!(reference.len(), spec.sequences);
    assert!(ref_events > 0, "this trace must preempt a stack");
    for threads in [2usize, 4] {
        let (completions, events) = run(threads);
        assert_eq!(events, ref_events, "{threads} threads changed preemptions");
        assert_same_completions(&reference, &completions, &format!("{threads} threads"));
    }
}

#[test]
fn flash_identical_across_threads() {
    let l = 160;
    let (q, k, v) = qkv::<f32>(l, 16, 6);
    let on = |threads| {
        let engine = AttentionEngine::with_threads(threads);
        flash_attention(&engine, &q, &k, &v).unwrap()
    };
    let (reference, out) = (on(1), on(6));
    assert_eq!(out.as_slice(), reference.as_slice());
}
