//! Seeded workload traces and the virtual-clock replay harness.
//!
//! A trace is a list of (arrival tick, [`ServeRequest`]) events, generated
//! deterministically from a [`TraceSpec`] seed — mixed prompt lengths,
//! decode lengths, priorities, plans, and inter-arrival gaps. [`replay`]
//! drives a [`Scheduler`] through a trace on its virtual clock, and
//! [`sequential_reference`] computes what any single sequence *must*
//! produce (the naive one-sequence-at-a-time serving loop: chunked prefill
//! plus per-token decode). Because batched launches do identical per-row
//! work, the scheduler's outputs are **bitwise equal** to the reference —
//! the property `tests/serving_sim.rs` checks across randomized traces.
//!
//! Decoder-model workloads have the same trio: [`generate_model_trace`]
//! draws (arrival tick, [`ModelRequest`]) events from the same spec shape,
//! [`replay_mixed`] drives a scheduler through plan and model traces
//! merged on one clock, and [`sequential_model_reference`] is the
//! one-sequence-at-a-time decoder-stack serve the batched path must
//! reproduce bitwise.

use crate::error::ServeError;
use crate::request::{Completion, ModelId, ModelRequest, PatternChoice, ServeRequest};
use crate::scheduler::Scheduler;
use gpa_core::{AttentionEngine, AttentionPlan, AttnError, KvCache, PagePool};
use gpa_model::{DecoderModel, ModelError, ModelKvState};
use gpa_tensor::{
    init::{gaussian_matrix, qkv},
    Matrix, Real,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Shape of a randomized serving workload — every field inclusive-range or
/// count, every draw taken from one seeded generator.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Number of sequences in the trace.
    pub sequences: usize,
    /// Inclusive range of prompt lengths.
    pub prompt: (usize, usize),
    /// Inclusive range of generated-token counts (0 allowed: prefill-only
    /// sequences).
    pub decode: (usize, usize),
    /// Key/value dimension of every sequence.
    pub dk: usize,
    /// Inclusive range of inter-arrival gaps, in ticks.
    pub arrival_gap: (u64, u64),
    /// Priorities are drawn uniformly from `0..priority_classes`
    /// (clamped to at least one class).
    pub priority_classes: u8,
    /// Master seed — same spec, same trace, bit for bit.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            sequences: 8,
            prompt: (4, 16),
            decode: (0, 8),
            dk: 8,
            arrival_gap: (0, 2),
            priority_classes: 1,
            seed: 0x5EED,
        }
    }
}

/// One trace event: the request and the tick it arrives at.
#[derive(Clone)]
pub struct TraceEvent<T> {
    /// Arrival tick (nondecreasing across a generated trace).
    pub at: u64,
    /// The request to submit at that tick.
    pub request: ServeRequest<T>,
}

/// One sequence's shape, drawn from a [`TraceSpec`]: everything about a
/// trace event except the rows themselves.
struct Shape {
    at: u64,
    prompt: usize,
    total: usize,
    priority: u8,
    /// Index into the generator's targets (patterns or models).
    pick: usize,
}

/// Draw every sequence's shape from the spec's seeded generator. The two
/// trace flavors draw the same fields, but their target pick sits on
/// different sides of the priority draw (`pick_first` is the model-trace
/// order); keeping each order keeps every seeded trace byte-identical.
fn draw_shapes(spec: &TraceSpec, targets: usize, pick_first: bool) -> Vec<Shape> {
    fn draw_incl(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
        assert!(lo <= hi, "empty range");
        lo + rng.gen_range(0..hi - lo + 1)
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let classes = spec.priority_classes.max(1);
    let mut at = 0u64;
    (0..spec.sequences)
        .map(|_| {
            let prompt = draw_incl(&mut rng, spec.prompt).max(1);
            let total = prompt + draw_incl(&mut rng, spec.decode);
            let mut pick = 0;
            if pick_first {
                pick = rng.gen_range(0..targets);
            }
            let priority = rng.gen_range(0..classes as usize) as u8;
            if !pick_first {
                pick = rng.gen_range(0..targets);
            }
            let (glo, ghi) = spec.arrival_gap;
            assert!(glo <= ghi, "empty arrival-gap range");
            at += glo + rng.gen_range(0..(ghi - glo + 1) as usize) as u64;
            Shape {
                at,
                prompt,
                total,
                priority,
                pick,
            }
        })
        .collect()
}

/// Generate a seeded workload trace, drawing each sequence's pattern
/// uniformly at random from `patterns` — a slice of [`crate::PlanId`]s for
/// a classic per-plan workload, or of [`PatternChoice`]s to mix explicit
/// plans with [`PatternChoice::Auto`] sequences whose plan the scheduler
/// resolves at admission. Events come back sorted by arrival tick, ready
/// for [`replay`].
///
/// # Panics
/// Panics if `patterns` is empty or a spec range is empty/inverted.
pub fn generate_trace<T: Real, C: Into<PatternChoice> + Copy>(
    spec: &TraceSpec,
    patterns: &[C],
) -> Vec<TraceEvent<T>> {
    assert!(!patterns.is_empty(), "a trace needs at least one pattern");
    draw_shapes(spec, patterns.len(), false)
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let (q, k, v) = qkv::<T>(
                shape.total,
                spec.dk,
                spec.seed ^ (0xA5A5_0000 + i as u64).wrapping_mul(0x9E37),
            );
            TraceEvent {
                at: shape.at,
                request: ServeRequest {
                    pattern: patterns[shape.pick].into(),
                    priority: shape.priority,
                    prompt: shape.prompt,
                    q,
                    k,
                    v,
                },
            }
        })
        .collect()
}

/// One decoder-model trace event: the request and the tick it arrives at.
#[derive(Clone)]
pub struct ModelTraceEvent<T> {
    /// Arrival tick (nondecreasing across a generated trace).
    pub at: u64,
    /// The model request to submit at that tick.
    pub request: ModelRequest<T>,
}

/// Generate a seeded decoder-model workload trace, drawing each sequence's
/// model uniformly from `models` (pairs of registered id and that model's
/// `d_model`, which sizes the embedding rows). The same [`TraceSpec`]
/// fields govern prompt/decode lengths, priorities, and arrival gaps;
/// `spec.dk` is unused (a model's widths are its own). Events come back
/// sorted by arrival tick, ready for [`replay_mixed`].
///
/// # Panics
/// Panics if `models` is empty or a spec range is empty/inverted.
pub fn generate_model_trace<T: Real>(
    spec: &TraceSpec,
    models: &[(ModelId, usize)],
) -> Vec<ModelTraceEvent<T>> {
    assert!(!models.is_empty(), "a trace needs at least one model");
    draw_shapes(spec, models.len(), true)
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let (model, d_model) = models[shape.pick];
            let x = gaussian_matrix(
                shape.total,
                d_model,
                1.0,
                spec.seed ^ (0xD0DE_0000 + i as u64).wrapping_mul(0x9E37),
            );
            ModelTraceEvent {
                at: shape.at,
                request: ModelRequest {
                    model,
                    priority: shape.priority,
                    prompt: shape.prompt,
                    x,
                },
            }
        })
        .collect()
}

/// Drive `scheduler` through a trace on its virtual clock: events are
/// submitted when the clock reaches their arrival tick, the scheduler
/// ticks until idle, and all completions come back in completion order —
/// [`replay_mixed`] with no model events.
///
/// `max_ticks` bounds the drive — exceeding it returns
/// [`ServeError::NotDrained`], which doubles as the simulation's
/// starvation check: on a healthy scheduler every submitted sequence
/// completes within a bound computable from the trace itself.
///
/// # Panics
/// Panics if the trace is not sorted by arrival tick.
pub fn replay<T: Real>(
    scheduler: &mut Scheduler<'_, T>,
    trace: &[TraceEvent<T>],
    max_ticks: u64,
) -> Result<Vec<Completion<T>>, ServeError> {
    replay_mixed(scheduler, trace, &[], max_ticks)
}

/// Drive `scheduler` through plan and decoder-model traces merged on one
/// virtual clock: each trace's events are submitted when the clock reaches
/// their arrival tick (every due plan event before every due model event
/// within a tick), the scheduler ticks until idle, and all completions —
/// both flavors — come back in completion order.
///
/// `max_ticks` bounds the drive exactly as in [`replay`]. Passing an empty
/// `attn` slice makes this a pure model replay.
///
/// # Panics
/// Panics if either trace is not sorted by arrival tick.
pub fn replay_mixed<T: Real>(
    scheduler: &mut Scheduler<'_, T>,
    attn: &[TraceEvent<T>],
    model: &[ModelTraceEvent<T>],
    max_ticks: u64,
) -> Result<Vec<Completion<T>>, ServeError> {
    assert!(
        attn.windows(2).all(|w| w[0].at <= w[1].at),
        "trace events must be sorted by arrival tick"
    );
    assert!(
        model.windows(2).all(|w| w[0].at <= w[1].at),
        "trace events must be sorted by arrival tick"
    );
    let mut completions = Vec::new();
    let mut next_a = 0usize;
    let mut next_m = 0usize;
    let mut ticks = 0u64;
    while next_a < attn.len() || next_m < model.len() || !scheduler.is_idle() {
        while next_a < attn.len() && attn[next_a].at <= scheduler.now() {
            scheduler.submit(attn[next_a].request.clone())?;
            next_a += 1;
        }
        while next_m < model.len() && model[next_m].at <= scheduler.now() {
            scheduler.submit_model(model[next_m].request.clone())?;
            next_m += 1;
        }
        completions.extend(scheduler.tick()?.completed);
        ticks += 1;
        if ticks > max_ticks {
            return Err(ServeError::NotDrained {
                ticks,
                outstanding: (attn.len() - next_a)
                    + (model.len() - next_m)
                    + scheduler.outstanding(),
            });
        }
    }
    Ok(completions)
}

/// The naive one-sequence-at-a-time serving reference: chunked prefill of
/// the prompt into a fresh cache, then one [`AttentionEngine::decode_step`]
/// per generated token. Returns the sequence's full `total × dv` output —
/// what the continuous-batching scheduler must reproduce **bitwise**.
pub fn sequential_reference<T: Real>(
    engine: &AttentionEngine,
    plan: &AttentionPlan<'_>,
    request: &ServeRequest<T>,
    prefill_chunk: usize,
) -> Result<Matrix<T>, AttnError> {
    let total = request.q.rows();
    let prompt = request.prompt;
    let mut cache = KvCache::single(request.k.cols(), request.v.cols());
    let mut out = Matrix::zeros(total, request.v.cols());
    let prefill = engine.prefill_chunked(
        plan,
        &request.q.rows_slice(0, prompt),
        &request.k.rows_slice(0, prompt),
        &request.v.rows_slice(0, prompt),
        prefill_chunk,
        &mut cache,
    )?;
    for i in 0..prompt {
        out.row_mut(i).copy_from_slice(prefill.row(i));
    }
    for t in prompt..total {
        let row = engine.decode_step(
            plan,
            &request.q.rows_slice(t, t + 1),
            &request.k.rows_slice(t, t + 1),
            &request.v.rows_slice(t, t + 1),
            &mut cache,
        )?;
        out.row_mut(t).copy_from_slice(row.row(0));
    }
    Ok(out)
}

/// The naive one-sequence-at-a-time decoder-stack serving reference:
/// chunked prefill of the prompt through every layer into a fresh
/// per-layer KV state, then one [`DecoderModel::forward_decode`] per
/// generated token. Returns the sequence's full `total × d_model` output —
/// what the continuous-batching scheduler must reproduce **bitwise** for a
/// model sequence served with the same `prefill_chunk` (the pool's page
/// size is pure accounting and never touches the numerics).
pub fn sequential_model_reference<T: Real>(
    engine: &AttentionEngine,
    model: &DecoderModel<'_, T>,
    request: &ModelRequest<T>,
    prefill_chunk: usize,
) -> Result<Matrix<T>, ModelError> {
    let total = request.x.rows();
    let prompt = request.prompt;
    // A private single-sequence pool sized to hold the whole stack.
    let mut pool = PagePool::new(model.layers() * total, 1);
    let state = ModelKvState::allocate(model, &mut pool);
    let mut out = Matrix::zeros(total, model.d_model());
    let prefill = model.forward_prefill_chunked(
        engine,
        &mut pool,
        &state,
        &request.x.rows_slice(0, prompt),
        prefill_chunk,
    )?;
    for i in 0..prompt {
        out.row_mut(i).copy_from_slice(prefill.row(i));
    }
    for t in prompt..total {
        let row =
            model.forward_decode(engine, &mut pool, &state, &request.x.rows_slice(t, t + 1))?;
        out.row_mut(t).copy_from_slice(row.row(0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlanId;
    use crate::scheduler::ServeConfig;
    use gpa_core::{AttentionKernel, AttentionPlan};

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let spec = TraceSpec {
            sequences: 12,
            priority_classes: 3,
            ..TraceSpec::default()
        };
        let plans = [PlanId(0), PlanId(1)];
        let a: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
        let b: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.request.q, y.request.q, "same seed, same data");
            assert_eq!(x.request.priority, y.request.priority);
        }
        let other: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                seed: spec.seed ^ 1,
                ..spec
            },
            &plans,
        );
        assert!(
            a.iter()
                .zip(&other)
                .any(|(x, y)| x.request.q != y.request.q),
            "different seeds must differ"
        );
    }

    #[test]
    fn replay_drains_and_matches_the_reference() {
        let mut scheduler: Scheduler<'static, f64> = Scheduler::new(
            AttentionEngine::with_threads(2),
            ServeConfig {
                max_in_flight: 3,
                kv_pages: 16,
                page_size: 8,
                arrival_window: 1,
                prefill_chunk: 4,
                admission: crate::scheduler::AdmissionMode::PagedUsage,
                eviction: crate::scheduler::EvictionMode::Recompute,
                swap_bytes: usize::MAX,
            },
        )
        .unwrap();
        let plan = scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap();
        let trace: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                sequences: 6,
                prompt: (2, 9),
                decode: (0, 5),
                dk: 4,
                arrival_gap: (0, 3),
                priority_classes: 2,
                seed: 7,
            },
            &[plan],
        );
        let completions = replay(&mut scheduler, &trace, 10_000).unwrap();
        assert_eq!(completions.len(), trace.len());
        for c in &completions {
            // Ids are assigned in submission (= trace) order.
            let event = &trace[c.id.as_u64() as usize];
            let plan = c.target.plan().expect("a plan-only trace");
            let expect = sequential_reference(
                scheduler.engine(),
                scheduler.plan(plan),
                &event.request,
                scheduler.config().prefill_chunk,
            )
            .unwrap();
            assert_eq!(c.output, expect, "must be bitwise the sequential serve");
        }
    }

    #[test]
    fn model_traces_are_deterministic_and_mixed_replay_drains() {
        use gpa_model::LayerPattern;

        let spec = TraceSpec {
            sequences: 4,
            prompt: (2, 6),
            decode: (0, 4),
            dk: 4,
            arrival_gap: (0, 2),
            priority_classes: 2,
            seed: 99,
        };
        let models = [(ModelId(0), 8usize)];
        let a: Vec<ModelTraceEvent<f64>> = generate_model_trace(&spec, &models);
        let b: Vec<ModelTraceEvent<f64>> = generate_model_trace(&spec, &models);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.request.x, y.request.x, "same seed, same data");
        }

        let mut scheduler: Scheduler<'static, f64> = Scheduler::new(
            AttentionEngine::with_threads(2),
            ServeConfig {
                max_in_flight: 3,
                kv_pages: 64,
                page_size: 4,
                arrival_window: 1,
                prefill_chunk: 3,
                admission: crate::scheduler::AdmissionMode::PagedUsage,
                eviction: crate::scheduler::EvictionMode::Recompute,
                swap_bytes: usize::MAX,
            },
        )
        .unwrap();
        let plan = scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap();
        let model = scheduler.register_model(
            DecoderModel::new(
                LayerPattern::parse("FS").unwrap(),
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
                8,
                2,
                4,
                0xFACE,
            )
            .unwrap(),
        );
        assert_eq!(model, ModelId(0));
        let attn: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                sequences: 3,
                seed: 98,
                ..spec
            },
            &[plan],
        );
        let completions = replay_mixed(&mut scheduler, &attn, &a, 10_000).unwrap();
        assert_eq!(completions.len(), attn.len() + a.len());
        // Ids follow submission order: the two sorted traces merged by
        // arrival tick, due plan events before due model events on ties
        // (exactly `replay_mixed`'s per-tick submission order).
        let mut order: Vec<(bool, usize)> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < attn.len() || j < a.len() {
            if j >= a.len() || (i < attn.len() && attn[i].at <= a[j].at) {
                order.push((false, i));
                i += 1;
            } else {
                order.push((true, j));
                j += 1;
            }
        }
        let chunk = scheduler.config().prefill_chunk;
        for c in &completions {
            let (is_model, idx) = order[c.id.as_u64() as usize];
            match c.target {
                crate::request::ServeTarget::Plan(p) => {
                    assert!(!is_model, "submission order maps ids to flavors");
                    let expect = sequential_reference(
                        scheduler.engine(),
                        scheduler.plan(p),
                        &attn[idx].request,
                        chunk,
                    )
                    .unwrap();
                    assert_eq!(c.output, expect, "bitwise the sequential serve");
                }
                crate::request::ServeTarget::Model(m) => {
                    assert!(is_model, "submission order maps ids to flavors");
                    let expect = sequential_model_reference(
                        scheduler.engine(),
                        scheduler.model(m),
                        &a[idx].request,
                        chunk,
                    )
                    .unwrap();
                    assert_eq!(c.output, expect, "bitwise the sequential model serve");
                }
            }
        }
    }

    #[test]
    fn replay_reports_starvation_via_tick_bound() {
        let mut scheduler: Scheduler<'static, f64> =
            Scheduler::new(AttentionEngine::with_threads(1), ServeConfig::default()).unwrap();
        let plan = scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap())
            .unwrap();
        let trace: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                sequences: 4,
                ..TraceSpec::default()
            },
            &[plan],
        );
        assert!(matches!(
            replay(&mut scheduler, &trace, 2),
            Err(ServeError::NotDrained { .. })
        ));
    }
}
