//! The layer ladder: direct calls into each layer's public functions at
//! the shapes the warm-up repetition recorded, timed from outside.
//!
//! Every number here is *measured* on a probe unless its name says
//! otherwise in the README: `kernel.bytes_per_edge` is computed from the
//! tensor widths, and `serve.tick_self_us_p50` / `kernel.tick_share` are
//! estimates derived by combining a probe with the serving run.

use crate::spans::Recorder;
use crate::stats::{median, mix};
use crate::workloads::{Inputs, Target};
use gpa_core::{AttentionEngine, AttentionPlan, AttentionRequest, KvCache, PagePool, SwapArena};
use gpa_model::{ModelKvState, ModelWorkItem};
use gpa_parallel::{parallel_for, parallel_for_stats, spin_work, Schedule};
use gpa_tensor::{init, ops, softmax, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// The shapes the ladder probes at, taken from the warm-up repetition.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Median query rows in one engine launch.
    pub rows_per_launch: usize,
    /// Median cached tokens a row attends against.
    pub context: usize,
    /// Mean mask edges per computed row.
    pub edges_per_row: usize,
}

/// Pool instances the cross-thread probes take their median over.
const POOLS: usize = 5;

/// Median seconds per call of `f`, over at least `min_calls` calls and
/// `budget_s` seconds.
fn time_calls(min_calls: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // first call warms caches and the allocator
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_calls || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 100_000 {
            break;
        }
    }
    median(&samples)
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the ladder measured: the per-layer metrics it owns, plus the
/// three figures the serving-side estimates are derived from.
pub struct Probes {
    pub metrics: Vec<Metric>,
    /// Median seconds of the replicated median launch on the full engine.
    pub launch_s: f64,
    /// Median seconds of one whole-stack advance (0 without a model).
    pub advance_s: f64,
    /// One-thread kernel nanoseconds per mask edge.
    pub ns_per_edge: f64,
}

/// Run one probe under its own span, its values attached as counts.
fn probe(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> Vec<Metric>) -> Vec<Metric> {
    let id = rec.open(name);
    let values = f();
    rec.close(id, values.iter().map(|&(n, v, _)| (n, v)).collect());
    values
}

/// The distinct serving plans of the workload.
fn distinct_plans<'a>(
    inputs: &'a Inputs,
    model: Option<&'a gpa_model::DecoderModel<'static, f32>>,
) -> Vec<AttentionPlan<'a>> {
    let Some(model) = model else {
        return inputs.plans();
    };
    // One plan per distinct label: the first layer's, and the first that
    // differs from it.
    let mut plans = vec![model.plan_of(0).clone()];
    if let Some(s) = (0..model.layers()).find(|&s| model.label_of(s) != model.label_of(0)) {
        plans.push(model.plan_of(s).clone());
    }
    plans
}

/// Run every probe.
pub fn run(inputs: &Inputs, shape: Shape, threads: usize, seed: u64, rec: &mut Recorder) -> Probes {
    let mut out: Vec<Metric> = Vec::new();
    let ladder = rec.open("ladder");
    let model = inputs.model();
    let dk = inputs.spec.target.dk();
    let plans = distinct_plans(inputs, model.as_ref());

    // gpa-tensor: the three row primitives and the projection matmul.
    let mut dot_peak = 1.0;
    out.extend(probe(rec, "ladder.tensor", || {
        let pairs = 256;
        let a: Matrix<f32> = init::uniform_matrix(pairs, dk, mix(seed, 101));
        let b: Matrix<f32> = init::uniform_matrix(pairs, dk, mix(seed, 102));
        let dot_s = time_calls(200, 0.1, || {
            let mut acc = 0.0f32;
            for i in 0..pairs {
                acc += ops::dot(black_box(a.row(i)), black_box(b.row(i)));
            }
            black_box(acc);
        }) / pairs as f64;
        dot_peak = 1.0 / dot_s;
        let e = shape.edges_per_row.clamp(8, 4096);
        let scores: Matrix<f32> = init::uniform_matrix(1, e, mix(seed, 103));
        let mut probs = vec![0.0f32; e];
        let softmax_s = time_calls(200, 0.1, || {
            softmax::online_softmax_slice(black_box(scores.row(0)), &mut probs);
            black_box(&probs);
        }) / e as f64;
        let v: Matrix<f32> = init::uniform_matrix(e, dk, mix(seed, 104));
        let mut acc = vec![0.0f32; dk];
        let wsum_s = time_calls(200, 0.1, || {
            ops::weighted_sum_into(&mut acc, black_box(scores.row(0)), black_box(&v));
            black_box(&acc);
        }) / e as f64;
        // The projection the stack runs per layer: chunk × d_model by
        // d_model × d_model. Not on the path of plan workloads.
        let gflops = match inputs.spec.target {
            Target::Stack { heads, dk, .. } => {
                let (m, d) = (inputs.spec.prefill_chunk, heads * dk);
                let x: Matrix<f32> = init::uniform_matrix(m, d, mix(seed, 105));
                let w: Matrix<f32> = init::uniform_matrix(d, d, mix(seed, 106));
                let s = time_calls(50, 0.1, || {
                    black_box(ops::matmul(black_box(&x), black_box(&w)));
                });
                2.0 * (m * d * d) as f64 / s / 1e9
            }
            _ => 0.0,
        };
        vec![
            ("tensor.dot_ns", dot_s * 1e9, "ns"),
            ("tensor.dot_peak_per_s", dot_peak, "1/s"),
            ("tensor.softmax_ns_per_elem", softmax_s * 1e9, "ns"),
            ("tensor.wsum_ns_per_row", wsum_s * 1e9, "ns"),
            ("tensor.matmul_gflops", gflops, "gflop/s"),
        ]
    }));

    // gpa-core kernels: one-thread square runs of every distinct plan at
    // the median context, edges counted by the engine's WorkCounter.
    let kv_len = plans
        .iter()
        .find_map(AttentionPlan::kv_pin)
        .unwrap_or(shape.context.max(2));
    let (q, k, v) = init::qkv::<f32>(kv_len, dk, mix(seed, 107));
    let mut ns_per_edge = 0.0;
    out.extend(probe(rec, "ladder.kernel", || {
        // Edges from a counting engine; time from a plain one.
        let counting = AttentionEngine::builder()
            .threads(1)
            .count_work(true)
            .build();
        let engine = AttentionEngine::with_threads(1);
        let mut seconds = 0.0;
        for plan in &plans {
            black_box(counting.run(plan, &q, &k, &v).expect("square probe runs"));
            seconds += time_calls(2, 0.2, || {
                black_box(engine.run(plan, &q, &k, &v).expect("square probe runs"));
            });
        }
        let edges = counting
            .work_report()
            .expect("counting engine")
            .dot_products;
        ns_per_edge = seconds * 1e9 / edges as f64;
        vec![
            ("kernel.ns_per_edge", ns_per_edge, "ns"),
            (
                "kernel.dot_efficiency",
                edges as f64 / seconds / dot_peak,
                "ratio",
            ),
            // One K row and one V row are read per edge: computed.
            (
                "kernel.bytes_per_edge",
                (2 * dk * std::mem::size_of::<f32>()) as f64,
                "bytes",
            ),
        ]
    }));

    // gpa-core batch/engine: the median launch, replicated. Rows beyond a
    // prefill chunk are chunk windows mid-context; fewer are decode rows.
    let chunk = inputs.spec.prefill_chunk;
    let (window_rows, windows) = if shape.rows_per_launch >= chunk {
        (chunk.min(kv_len), (shape.rows_per_launch / chunk).max(1))
    } else {
        (1, shape.rows_per_launch.max(1))
    };
    let offset = (kv_len - window_rows) / 2;
    let qw = q.rows_slice(offset, offset + window_rows);
    // Decode rows attend the cache up to and including themselves.
    let (kd, vd) = if window_rows == 1 && plans.iter().all(|p| p.kv_pin().is_none()) {
        (k.rows_slice(0, offset + 1), v.rows_slice(0, offset + 1))
    } else {
        (k.clone(), v.clone())
    };
    let requests: Vec<AttentionRequest<'_, f32>> = (0..windows)
        .map(|_| AttentionRequest::windowed(&qw, &kd, &vd, offset))
        .collect();
    // A pool's wake behaviour is settled per instance on this host (both
    // workers join every launch, or one is always late), so the two
    // probes that cross threads take the median over several pools.
    let wide: Vec<AttentionEngine> = (0..POOLS)
        .map(|_| AttentionEngine::with_threads(threads))
        .collect();
    let over_pools = |f: &dyn Fn(&AttentionEngine) -> f64| -> f64 {
        median(&wide.iter().map(f).collect::<Vec<_>>())
    };
    let mut launch_s = 0.0;
    out.extend(probe(rec, "ladder.batch", || {
        let plan = &plans[0];
        launch_s = over_pools(&|engine| {
            time_calls(10, 0.05, || {
                black_box(
                    engine
                        .run_batch(plan, &requests)
                        .expect("launch probe runs"),
                );
            })
        });
        let narrow = AttentionEngine::with_threads(1);
        let one_s = time_calls(10, 0.2, || {
            black_box(
                narrow
                    .run_batch(plan, &requests)
                    .expect("launch probe runs"),
            );
        });
        vec![
            ("batch.launch_ms_p50", launch_s * 1e3, "ms"),
            ("batch.launch_1t_ms_p50", one_s * 1e3, "ms"),
            (
                "batch.scaling_eff",
                one_s / (threads as f64 * launch_s),
                "ratio",
            ),
        ]
    }));

    // gpa-parallel: an empty launch over as many indices, and the spread
    // of uniform work across workers.
    out.extend(probe(rec, "ladder.pool", || {
        let n = shape.rows_per_launch.max(1);
        let noop_s = over_pools(&|engine| {
            time_calls(100, 0.02, || {
                parallel_for(engine.pool(), n, Schedule::default(), |range| {
                    black_box(range);
                });
            })
        });
        let imbalance = over_pools(&|engine| {
            let launches: Vec<f64> = (0..20)
                .map(|_| {
                    parallel_for_stats(engine.pool(), n.max(64), Schedule::default(), |range| {
                        for _ in range {
                            black_box(spin_work(200));
                        }
                    })
                    .imbalance()
                })
                .collect();
            median(&launches)
        });
        vec![
            ("pool.noop_launch_us", noop_s * 1e6, "us"),
            ("pool.imbalance", imbalance, "ratio"),
        ]
    }));

    // gpa-core pages/cache: append, bulk extend, arena park and take.
    out.extend(probe(rec, "ladder.pages", || {
        let spec = inputs.spec;
        let rows = shape.context.max(spec.page_size);
        let (kx, vx) = (
            k.rows_slice(0, rows.min(kv_len)),
            v.rows_slice(0, rows.min(kv_len)),
        );
        let rows = kx.rows();
        let pages = 2 * rows.div_ceil(spec.page_size) + 2;
        let append_s = time_calls(10, 0.05, || {
            let mut pool: PagePool<f32> = PagePool::new(pages, spec.page_size);
            let seq = pool.allocate(dk, dk);
            for i in 0..rows {
                black_box(pool.try_append(seq, kx.row(i), vx.row(i)));
            }
        }) / rows as f64;
        let extend_s = time_calls(10, 0.05, || {
            let mut pool: PagePool<f32> = PagePool::new(pages, spec.page_size);
            let seq = pool.allocate(dk, dk);
            black_box(pool.try_extend(seq, &kx, &vx));
        }) / rows as f64;
        // The stack a victim of this workload parks: one cache per layer.
        let (layers, heads) = match spec.target {
            Target::Stack { pattern, heads, .. } => (pattern.len(), heads),
            _ => (1, 1),
        };
        let stack = || -> Vec<KvCache<f32>> {
            (0..layers)
                .map(|_| {
                    let mut cache = KvCache::new(heads, dk, dk);
                    for h in 0..heads {
                        cache.extend(h, &kx, &vx);
                    }
                    cache
                })
                .collect()
        };
        let mut arena: SwapArena<f32> = SwapArena::unbounded();
        let (mut park, mut take) = (Vec::new(), Vec::new());
        for _ in 0..20 {
            let caches = stack();
            let t = Instant::now();
            let ticket = arena.try_park(caches).expect("unbounded arena parks");
            park.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let back = arena.take(ticket);
            take.push(t.elapsed().as_secs_f64());
            black_box(back);
        }
        vec![
            ("pages.append_ns", append_s * 1e9, "ns"),
            ("pages.extend_ns_per_row", extend_s * 1e9, "ns"),
            ("swap.park_us", median(&park) * 1e6, "us"),
            ("swap.take_us", median(&take) * 1e6, "us"),
        ]
    }));

    // gpa-model: one whole-stack advance at the median launch, and the
    // share of it spent in projections.
    let mut advance_s = 0.0;
    out.extend(probe(rec, "ladder.model", || {
        let Some(model) = model.as_ref() else {
            return vec![
                ("model.advance_ms_p50", 0.0, "ms"),
                ("model.proj_share", 0.0, "ratio"),
            ];
        };
        let engine = AttentionEngine::with_threads(threads);
        let heads = model.heads();
        let items = (windows / heads).max(1);
        let prior = offset.max(1);
        let mut pool: PagePool<f32> = PagePool::new(
            items * model.layers() * (prior + window_rows).div_ceil(inputs.spec.page_size) + 1,
            inputs.spec.page_size,
        );
        let context: Matrix<f32> =
            init::gaussian_matrix(prior, model.d_model(), 1.0, mix(seed, 108));
        let states: Vec<ModelKvState> = (0..items)
            .map(|_| {
                let state = ModelKvState::allocate(model, &mut pool);
                model
                    .forward_prefill_chunked(&engine, &mut pool, &state, &context, chunk)
                    .expect("probe context prefills");
                state
            })
            .collect();
        let x: Matrix<f32> =
            init::gaussian_matrix(window_rows, model.d_model(), 1.0, mix(seed, 109));
        let work: Vec<ModelWorkItem<'_, f32>> = states
            .iter()
            .map(|state| ModelWorkItem { x: &x, state })
            .collect();
        advance_s = time_calls(10, 0.4, || {
            black_box(
                model
                    .advance_batched(&engine, &mut pool, &work)
                    .expect("probe advance runs"),
            );
            for state in &states {
                state.truncate(&mut pool, prior);
            }
        });
        let head_outs: Vec<Matrix<f32>> = (0..heads)
            .map(|_| Matrix::zeros(window_rows, model.dk()))
            .collect();
        let proj_s = time_calls(10, 0.2, || {
            for s in 0..model.layers() {
                for _ in 0..items {
                    black_box(model.layer(s).project_qkv(black_box(&x)));
                    black_box(model.layer(s).combine_heads(black_box(&head_outs)));
                }
            }
        });
        vec![
            ("model.advance_ms_p50", advance_s * 1e3, "ms"),
            ("model.proj_share", proj_s / advance_s, "ratio"),
        ]
    }));

    rec.close(ladder, Vec::new());
    Probes {
        metrics: out,
        launch_s,
        advance_s,
        ns_per_edge,
    }
}
