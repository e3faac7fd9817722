//! Seeded workload traces and the virtual-clock replay harness.
//!
//! A trace is a list of (arrival tick, [`Submission`]) events, generated
//! deterministically from a [`TraceSpec`] seed — mixed prompt lengths,
//! decode lengths, priorities, targets (plans, [`PatternChoice::Auto`],
//! decoder models), and inter-arrival gaps. [`replay`] drives a
//! [`Scheduler`] through a trace on its virtual clock, and the two
//! sequential references compute what any single sequence *must* produce
//! (the naive one-sequence-at-a-time serving loop: chunked prefill plus
//! per-token decode) — [`sequential_reference`] for a plan sequence,
//! [`sequential_model_reference`] for a decoder stack. Because batched
//! launches do identical per-row work, the scheduler's outputs are
//! **bitwise equal** to the reference — the property
//! `tests/serving_sim.rs` checks across randomized traces.

use crate::error::ServeError;
use crate::request::{Completion, ModelId, ModelRequest, PatternChoice, ServeRequest, Submission};
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
    /// Key/value dimension of every plan sequence (a model sequence's
    /// rows are its model's `d_model` wide).
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
    pub request: Submission<T>,
}

/// Generate a seeded workload trace, drawing each sequence's target
/// uniformly at random from `plans` and `models` together. `plans` is a
/// slice of [`crate::PlanId`]s, or of [`PatternChoice`]s to mix explicit
/// plans with [`PatternChoice::Auto`] sequences whose plan the scheduler
/// resolves at admission; a plan sequence's q/k/v rows are `spec.dk`
/// wide. `models` pairs each registered model's id with its `d_model`,
/// which sizes that sequence's embedding rows. Events come back sorted by
/// arrival tick, ready for [`replay`].
///
/// # Panics
/// Panics if `plans` and `models` are both empty or a spec range is
/// empty/inverted.
pub fn generate_trace<T: Real, C: Into<PatternChoice> + Copy>(
    spec: &TraceSpec,
    plans: &[C],
    models: &[(ModelId, usize)],
) -> Vec<TraceEvent<T>> {
    fn draw_incl(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
        assert!(lo <= hi, "empty range");
        lo + rng.gen_range(0..hi - lo + 1)
    }
    let targets = plans.len() + models.len();
    assert!(targets > 0, "a trace needs at least one plan or model");
    let (glo, ghi) = spec.arrival_gap;
    assert!(glo <= ghi, "empty arrival-gap range");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let classes = spec.priority_classes.max(1);
    let mut at = 0u64;
    (0..spec.sequences)
        .map(|i| {
            let prompt = draw_incl(&mut rng, spec.prompt).max(1);
            let total = prompt + draw_incl(&mut rng, spec.decode);
            let priority = rng.gen_range(0..classes as usize) as u8;
            let pick = rng.gen_range(0..targets);
            at += glo + rng.gen_range(0..(ghi - glo + 1) as usize) as u64;
            let salt = |base: u64| spec.seed ^ (base + i as u64).wrapping_mul(0x9E37);
            let request = match plans.get(pick) {
                Some(&pattern) => {
                    let (q, k, v) = qkv::<T>(total, spec.dk, salt(0xA5A5_0000));
                    Submission::Plan(ServeRequest {
                        pattern: pattern.into(),
                        priority,
                        prompt,
                        q,
                        k,
                        v,
                    })
                }
                None => {
                    let (model, d_model) = models[pick - plans.len()];
                    Submission::Model(ModelRequest {
                        model,
                        priority,
                        prompt,
                        x: gaussian_matrix(total, d_model, 1.0, salt(0xD0DE_0000)),
                    })
                }
            };
            TraceEvent { at, request }
        })
        .collect()
}

/// Drive `scheduler` through a trace on its virtual clock: events are
/// submitted in trace order when the clock reaches their arrival tick —
/// so request ids are trace positions — the scheduler ticks until idle,
/// and all completions, both flavors, come back in completion order.
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
    assert!(
        trace.windows(2).all(|w| w[0].at <= w[1].at),
        "trace events must be sorted by arrival tick"
    );
    let mut completions = Vec::new();
    let mut next = 0usize;
    let mut ticks = 0u64;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            scheduler.submit(trace[next].request.clone())?;
            next += 1;
        }
        completions.extend(scheduler.tick()?.completed);
        ticks += 1;
        if ticks > max_ticks {
            return Err(ServeError::NotDrained {
                ticks,
                outstanding: (trace.len() - next) + scheduler.outstanding(),
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
    use crate::request::{PlanId, ServeTarget};
    use crate::scheduler::{AdmissionMode, EvictionMode, ServeConfig};
    use gpa_core::{AttentionKernel, AttentionPlan};
    use gpa_model::LayerPattern;

    /// The rows an event carries: q for a plan sequence, x for a stack.
    fn rows(e: &TraceEvent<f64>) -> &Matrix<f64> {
        match &e.request {
            Submission::Plan(r) => &r.q,
            Submission::Model(r) => &r.x,
        }
    }

    fn config(kv_pages: usize, page_size: usize, prefill_chunk: usize) -> ServeConfig {
        ServeConfig {
            max_in_flight: 3,
            kv_pages,
            page_size,
            arrival_window: 1,
            prefill_chunk,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        }
    }

    /// Check every completion of a replayed trace bitwise against the
    /// sequential reference of its event's flavor.
    fn assert_matches_references(
        s: &Scheduler<'_, f64>,
        trace: &[TraceEvent<f64>],
        completions: &[Completion<f64>],
    ) {
        assert_eq!(completions.len(), trace.len());
        let chunk = s.config().prefill_chunk;
        for c in completions {
            // Ids are assigned in submission (= trace) order.
            let expect = match (&trace[c.id.as_u64() as usize].request, c.target) {
                (Submission::Plan(r), ServeTarget::Plan(p)) => {
                    sequential_reference(s.engine(), s.plan(p), r, chunk).unwrap()
                }
                (Submission::Model(r), ServeTarget::Model(m)) => {
                    sequential_model_reference(s.engine(), s.model(m), r, chunk).unwrap()
                }
                _ => panic!("completion {} changed flavor", c.id.as_u64()),
            };
            assert_eq!(c.output, expect, "must be bitwise the sequential serve");
        }
    }

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let spec = TraceSpec {
            sequences: 12,
            priority_classes: 3,
            ..TraceSpec::default()
        };
        let plans = [PlanId(0), PlanId(1)];
        let a: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &[]);
        let b: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &[]);
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(rows(x), rows(y), "same seed, same data");
            assert_eq!(x.request.priority(), y.request.priority());
        }
        let other: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                seed: spec.seed ^ 1,
                ..spec
            },
            &plans,
            &[],
        );
        assert!(
            a.iter().zip(&other).any(|(x, y)| rows(x) != rows(y)),
            "different seeds must differ"
        );

        // A mixed target slice draws both flavors into one sorted trace:
        // plan events `dk` wide, model events their model's `d_model`.
        let spec = TraceSpec { dk: 5, ..spec };
        let models = [(ModelId(0), 6), (ModelId(1), 10)];
        let mixed: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans, &models);
        assert!(mixed.windows(2).all(|w| w[0].at <= w[1].at));
        let (mut plan_events, mut model_events) = (0, 0);
        for e in &mixed {
            match &e.request {
                Submission::Plan(r) => {
                    plan_events += 1;
                    assert_eq!((r.q.cols(), r.k.cols(), r.v.cols()), (5, 5, 5));
                }
                Submission::Model(r) => {
                    model_events += 1;
                    let d_model = models.iter().find(|m| m.0 == r.model).unwrap().1;
                    assert_eq!(r.x.cols(), d_model);
                }
            }
            assert_eq!(rows(e).rows(), e.request.total_tokens());
        }
        assert!(plan_events > 0 && model_events > 0, "both flavors drawn");
    }

    #[test]
    fn replay_drains_and_matches_the_reference() {
        let mut scheduler: Scheduler<'static, f64> =
            Scheduler::new(AttentionEngine::with_threads(2), config(16, 8, 4)).unwrap();
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
            &[],
        );
        let completions = replay(&mut scheduler, &trace, 10_000).unwrap();
        assert_matches_references(&scheduler, &trace, &completions);
    }

    #[test]
    fn model_traces_are_deterministic_and_mixed_replay_drains() {
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
        let a: Vec<TraceEvent<f64>> = generate_trace::<_, PlanId>(&spec, &[], &models);
        let b: Vec<TraceEvent<f64>> = generate_trace::<_, PlanId>(&spec, &[], &models);
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(rows(x), rows(y), "same seed, same data");
        }

        let mut scheduler: Scheduler<'static, f64> =
            Scheduler::new(AttentionEngine::with_threads(2), config(64, 4, 3)).unwrap();
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
        // One trace of both flavors, one replay: ids are trace positions.
        let trace: Vec<TraceEvent<f64>> = generate_trace(
            &TraceSpec {
                sequences: 7,
                seed: 98,
                ..spec
            },
            &[plan],
            &models,
        );
        assert!(trace
            .iter()
            .any(|e| matches!(e.request, Submission::Plan(_))));
        assert!(trace
            .iter()
            .any(|e| matches!(e.request, Submission::Model(_))));
        let completions = replay(&mut scheduler, &trace, 10_000).unwrap();
        assert_matches_references(&scheduler, &trace, &completions);
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
            &[],
        );
        assert!(matches!(
            replay(&mut scheduler, &trace, 2),
            Err(ServeError::NotDrained { .. })
        ));
    }
}
