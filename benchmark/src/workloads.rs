//! The four workloads: what each one serves, and how its inputs are made
//! from the seed.
//!
//! A workload's *shape* — request count, prompt/decode lengths, arrival
//! ticks, priorities, pool geometry — is a property of the workload, drawn
//! once from a constant, and so is the BigBird random mask. The run seed
//! makes the *contents*: every Q/K/V and embedding row and the model
//! weights. So every seed offers exactly the same amount of work, and the
//! spread across seeds measures the host, not the generator.

use crate::stats::{mix, SplitMix};
use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_masks::{Dilated1d, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern, RandomUniform};
use gpa_model::{DecoderModel, LayerPattern};
use gpa_serve::{
    sequential_model_reference, sequential_reference, AdmissionMode, EvictionMode, ModelId,
    ModelRequest, PlanId, Scheduler, ServeConfig, ServeRequest,
};
use gpa_sparse::{CsrMask, Idx};
use gpa_tensor::{init, Matrix};
use std::time::Instant;

/// What the sequences of a workload run on.
pub enum Target {
    /// Prompt-only requests over the three Fig. 6 plans, composed as
    /// `gpa-bench`'s `experiments/fig6.rs` composes them: Longformer as
    /// Local + Global, Longformer-dilated as one CSR over the union, and
    /// BigBird as Local + Global + CSR(random edges not already covered).
    Fig6 {
        l: usize,
        dk: usize,
        window: usize,
        globals: usize,
        dilation: usize,
        random_sf: f64,
    },
    /// Plan sequences under one implicit kernel.
    Plan {
        kernel: AttentionKernel<'static>,
        dk: usize,
    },
    /// Decoder-stack sequences: `pattern` over `F = Local{full}` and
    /// `S = Dilated1d{sparse}`.
    Stack {
        pattern: &'static str,
        full: usize,
        sparse: (usize, usize),
        heads: usize,
        dk: usize,
    },
}

impl Target {
    /// Key/value width of one attention head.
    pub fn dk(&self) -> usize {
        match *self {
            Target::Fig6 { dk, .. } | Target::Plan { dk, .. } | Target::Stack { dk, .. } => dk,
        }
    }
}

/// The constants of one workload.
pub struct Spec {
    pub name: &'static str,
    /// Seeds the shape stream: lengths, gaps, priorities.
    pub shape_seed: u64,
    pub target: Target,
    pub requests: usize,
    /// Untimed warm-up repetitions in one set-up: enough of them that a
    /// set-up lasts a second or more and `setup_s` is not the time of one
    /// short, host-dependent repetition.
    pub warm_ups: usize,
    pub prompt: (usize, usize),
    pub decode: (usize, usize),
    /// Inclusive range of arrival gaps, in virtual ticks.
    pub gap: (usize, usize),
    pub classes: usize,
    pub max_in_flight: usize,
    pub page_size: usize,
    pub prefill_chunk: usize,
    pub kv_pages: usize,
    pub eviction: EvictionMode,
    /// Every `check_stride`-th request is compared with its sequential
    /// reference (sized so the check stays near a second).
    pub check_stride: usize,
}

const fn pages(tokens: usize, page_size: usize) -> usize {
    tokens.div_ceil(page_size)
}

pub const FIG6_PREFILL: Spec = Spec {
    name: "fig6_prefill",
    shape_seed: 0xF160,
    target: Target::Fig6 {
        l: 32_768,
        dk: 64,
        window: 50,
        globals: 3,
        dilation: 2,
        random_sf: 0.001,
    },
    // Five waves of two: the requests of a wave are admitted and complete
    // on the same ticks, so a repetition has five latencies, and the
    // pooled median is the median of the third wave, the p90 that of the
    // fifth. Other splits put a gated percentile between two waves, where
    // it reads the slowest or fastest repetition of the run.
    requests: 10,
    warm_ups: 1,
    prompt: (32_768, 32_768),
    decode: (0, 0),
    gap: (0, 0),
    classes: 1,
    max_in_flight: 2,
    page_size: 16,
    prefill_chunk: 1024,
    // Ample: every request's whole context at once.
    kv_pages: 10 * pages(32_768, 16),
    eviction: EvictionMode::Recompute,
    // Requests 0, 4 and 8: one per plan.
    check_stride: 4,
};

pub const STACK_SERVE: Spec = Spec {
    name: "stack_serve",
    shape_seed: 0x57AC,
    target: Target::Stack {
        pattern: "FFFSSSSSSFFF",
        full: 256,
        sparse: (64, 2),
        heads: 4,
        dk: 32,
    },
    requests: 16,
    warm_ups: 1,
    prompt: (128, 384),
    decode: (16, 48),
    gap: (0, 4),
    classes: 2,
    max_in_flight: 6,
    page_size: 16,
    prefill_chunk: 64,
    // Three worst-case stacks for six sequences in flight: growth
    // outruns the pool and whole stacks park in the arena.
    kv_pages: 3 * 12 * pages(384 + 48, 16),
    eviction: EvictionMode::Swap,
    check_stride: 8,
};

pub const DECODE_SWARM: Spec = Spec {
    name: "decode_swarm",
    shape_seed: 0xDEC0,
    target: Target::Plan {
        kernel: AttentionKernel::Local { n: 8 },
        dk: 32,
    },
    // Short repetitions, many of them: how fast a pool's workers wake
    // differs by a factor of two from one pool instance to the next, so
    // a run should sample as many pools as it can.
    requests: 256,
    warm_ups: 3,
    prompt: (16, 64),
    decode: (512, 1024),
    gap: (0, 1),
    classes: 1,
    max_in_flight: 64,
    page_size: 16,
    prefill_chunk: 64,
    // No page pressure: every slot at its worst case.
    kv_pages: 64 * pages(64 + 1024, 16),
    eviction: EvictionMode::Recompute,
    check_stride: 8,
};

pub const EVICT_CHURN: Spec = Spec {
    name: "evict_churn",
    shape_seed: 0xE71C,
    target: Target::Plan {
        kernel: AttentionKernel::Local { n: 64 },
        dk: 64,
    },
    requests: 48,
    warm_ups: 2,
    prompt: (256, 768),
    decode: (1024, 2048),
    gap: (0, 2),
    classes: 2,
    max_in_flight: 16,
    page_size: 16,
    prefill_chunk: 256,
    // About 40 % of what sixteen mean-length sequences want resident.
    kv_pages: 16 * pages(512 + 1536, 16) * 2 / 5,
    eviction: EvictionMode::Recompute,
    check_stride: 8,
};

pub const ALL: [&Spec; 4] = [&FIG6_PREFILL, &STACK_SERVE, &DECODE_SWARM, &EVICT_CHURN];

/// One request's payload; the driver clones it outside the timed window
/// and points it at the ids a fresh scheduler hands out.
#[derive(Clone)]
pub enum Request {
    /// Runs under plan `plan` of [`Inputs::plans`].
    Plan {
        plan: usize,
        request: ServeRequest<f32>,
    },
    Model(ModelRequest<f32>),
}

impl Request {
    pub fn prompt(&self) -> usize {
        match self {
            Request::Plan { request, .. } => request.prompt,
            Request::Model(request) => request.prompt,
        }
    }

    pub fn total(&self) -> usize {
        match self {
            Request::Plan { request, .. } => request.q.rows(),
            Request::Model(request) => request.x.rows(),
        }
    }
}

/// A request and the virtual tick it arrives at (nondecreasing).
pub struct Arrival {
    pub at: u64,
    pub request: Request,
}

struct Fig6Masks {
    globals: GlobalSet,
    dilated_union: CsrMask,
    random_rest: CsrMask,
}

/// Everything one seed generates for a workload; plans and models borrow
/// the masks held here.
pub struct Inputs {
    pub spec: &'static Spec,
    pub arrivals: Vec<Arrival>,
    masks: Option<Fig6Masks>,
    model_seed: u64,
    /// Wall time spent building explicit masks and CSR structures.
    pub masks_build_s: f64,
}

impl Inputs {
    pub fn build(spec: &'static Spec, seed: u64) -> Inputs {
        // The shape stream is seeded by the workload alone.
        let mut shape = SplitMix::new(spec.shape_seed);
        let mut at = 0u64;
        let plan_count = if matches!(spec.target, Target::Fig6 { .. }) {
            3
        } else {
            1
        };
        let (masks, masks_build_s) = match spec.target {
            Target::Fig6 {
                l,
                window,
                globals,
                dilation,
                random_sf,
                ..
            } => {
                let started = Instant::now();
                // The random edges are part of the shape: every seed
                // visits the same mask, so every count repeats exactly.
                let mask_seed = mix(spec.shape_seed, 0xB16B);
                let masks = fig6_masks(l, window, globals, dilation, random_sf, mask_seed);
                (Some(masks), started.elapsed().as_secs_f64())
            }
            _ => (None, 0.0),
        };
        let arrivals = (0..spec.requests)
            .map(|i| {
                let prompt = shape.incl(spec.prompt);
                let total = prompt + shape.incl(spec.decode);
                let priority = shape.incl((0, spec.classes - 1)) as u8;
                at += shape.incl(spec.gap) as u64;
                let data_seed = mix(seed, i as u64 + 1);
                let request = match spec.target {
                    Target::Fig6 { dk, .. } | Target::Plan { dk, .. } => {
                        let (q, k, v) = init::qkv::<f32>(total, dk, data_seed);
                        Request::Plan {
                            // Fig. 6 requests take the three plans in turn.
                            plan: i % plan_count,
                            request: ServeRequest {
                                pattern: PlanId::default().into(),
                                priority,
                                prompt,
                                q,
                                k,
                                v,
                            },
                        }
                    }
                    Target::Stack { heads, dk, .. } => Request::Model(ModelRequest {
                        model: ModelId::default(),
                        priority,
                        prompt,
                        x: init::gaussian_matrix(total, heads * dk, 1.0, data_seed),
                    }),
                };
                Arrival { at, request }
            })
            .collect();
        Inputs {
            spec,
            arrivals,
            masks,
            model_seed: mix(seed, 0x30DE1),
            masks_build_s,
        }
    }

    /// The workload's plans, in the order [`Request::Plan::plan`] indexes.
    pub fn plans(&self) -> Vec<AttentionPlan<'_>> {
        match (&self.spec.target, &self.masks) {
            (Target::Fig6 { window, .. }, Some(m)) => {
                let local = AttentionKernel::Local { n: *window };
                let global = AttentionKernel::Global {
                    globals: &m.globals,
                    n_sub: *window,
                };
                vec![
                    AttentionPlan::new(&[local, global]),
                    AttentionPlan::single(AttentionKernel::Csr(&m.dilated_union)),
                    AttentionPlan::new(&[local, global, AttentionKernel::Csr(&m.random_rest)]),
                ]
                .into_iter()
                .map(|p| p.expect("the Fig. 6 compositions compile"))
                .collect()
            }
            (Target::Plan { kernel, .. }, _) => {
                vec![AttentionPlan::single(*kernel).expect("implicit plans compile")]
            }
            _ => Vec::new(),
        }
    }

    /// The workload's decoder stack, rebuilt bit-identically per call.
    pub fn model(&self) -> Option<DecoderModel<'static, f32>> {
        let Target::Stack {
            pattern,
            full,
            sparse: (w, r),
            heads,
            dk,
        } = self.spec.target
        else {
            return None;
        };
        let bindings = vec![
            (
                'F',
                AttentionPlan::single(AttentionKernel::Local { n: full }).expect("local compiles"),
            ),
            (
                'S',
                AttentionPlan::single(AttentionKernel::Dilated1d { w, r })
                    .expect("dilated compiles"),
            ),
        ];
        Some(
            DecoderModel::new(
                LayerPattern::parse(pattern).expect("the stack pattern parses"),
                bindings,
                heads * dk,
                heads,
                dk,
                self.model_seed,
            )
            .expect("the stack composes"),
        )
    }

    /// A fresh scheduler over a fresh `threads`-worker engine with the
    /// workload's plans or model registered.
    pub fn scheduler(
        &self,
        threads: usize,
        count_work: bool,
    ) -> (Scheduler<'_, f32>, Vec<PlanId>, Option<ModelId>) {
        let spec = self.spec;
        let engine = AttentionEngine::builder()
            .threads(threads)
            .count_work(count_work)
            .build();
        let mut scheduler = Scheduler::new(
            engine,
            ServeConfig {
                max_in_flight: spec.max_in_flight,
                kv_pages: spec.kv_pages,
                page_size: spec.page_size,
                arrival_window: 0,
                prefill_chunk: spec.prefill_chunk,
                admission: AdmissionMode::PagedUsage,
                eviction: spec.eviction,
                // Ample arena: Swap parks never fall back.
                swap_bytes: usize::MAX,
            },
        )
        .expect("workload scheduler configs are valid");
        let plans = self
            .plans()
            .into_iter()
            .map(|p| scheduler.register_plan(p).expect("serving plans register"))
            .collect();
        let model = self.model().map(|m| scheduler.register_model(m));
        (scheduler, plans, model)
    }

    /// Bytes one cached token occupies in one pool entry (a plan
    /// sequence's cache, or one layer of a stack): computed, from the
    /// tensor shapes.
    pub fn token_bytes(&self) -> usize {
        let heads = match self.spec.target {
            Target::Stack { heads, .. } => heads,
            _ => 1,
        };
        heads * 2 * self.spec.target.dk() * std::mem::size_of::<f32>()
    }

    /// What request `i` must produce: the one-sequence-at-a-time serve.
    pub fn reference(&self, engine: &AttentionEngine, i: usize) -> Matrix<f32> {
        match &self.arrivals[i].request {
            Request::Plan { plan, request } => sequential_reference(
                engine,
                &self.plans()[*plan],
                request,
                self.spec.prefill_chunk,
            )
            .expect("reference serve runs"),
            Request::Model(request) => sequential_model_reference(
                engine,
                &self.model().expect("model workloads have a model"),
                request,
                self.spec.prefill_chunk,
            )
            .expect("reference serve runs"),
        }
    }

    /// Mask edges one repetition must visit, and the dense-attention
    /// edges over the same rows — counted from `gpa-masks` predicates and
    /// CSR sizes, independently of the kernels' own row rules.
    pub fn expected_edges(&self) -> (u64, u64) {
        let mut edges = 0u64;
        let mut dense = 0u64;
        let chunk = self.spec.prefill_chunk;
        let fig6_local_global = match (&self.spec.target, &self.masks) {
            (Target::Fig6 { l, window, .. }, Some(m)) => {
                LocalWindow::new(*l, *window).nnz()
                    + GlobalMinusLocal::new(m.globals.clone(), *window).nnz()
            }
            _ => 0,
        };
        for a in &self.arrivals {
            let (prompt, total) = (a.request.prompt(), a.request.total());
            match (&self.spec.target, &a.request) {
                (Target::Fig6 { l, .. }, Request::Plan { plan, .. }) => {
                    let m = self.masks.as_ref().expect("fig6 inputs hold masks");
                    edges += match plan {
                        0 => fig6_local_global,
                        1 => m.dilated_union.nnz(),
                        _ => fig6_local_global + m.random_rest.nnz(),
                    } as u64;
                    dense += (*l as u64) * (*l as u64);
                }
                (Target::Plan { kernel, .. }, _) => {
                    // A plan sequence's whole prompt is cached at
                    // admission; decode row t sees t + 1 rows.
                    let rows = (0..prompt)
                        .map(|i| (i, prompt))
                        .chain((prompt..total).map(|t| (t, t + 1)));
                    for (i, kv) in rows {
                        edges += row_edges(kernel, kv, i);
                        dense += kv as u64;
                    }
                }
                (
                    Target::Stack {
                        pattern,
                        full,
                        sparse: (w, r),
                        heads,
                        ..
                    },
                    _,
                ) => {
                    // A stack's caches grow chunk by chunk: a prefill row
                    // sees its chunk's end, a decode row t sees t + 1.
                    let rows = (0..prompt)
                        .map(|i| (i, ((i / chunk + 1) * chunk).min(prompt)))
                        .chain((prompt..total).map(|t| (t, t + 1)));
                    let fulls = pattern.matches('F').count() as u64;
                    let sparses = pattern.matches('S').count() as u64;
                    let f = AttentionKernel::Local { n: *full };
                    let s = AttentionKernel::Dilated1d { w: *w, r: *r };
                    for (i, kv) in rows {
                        edges += *heads as u64
                            * (fulls * row_edges(&f, kv, i) + sparses * row_edges(&s, kv, i));
                        dense += *heads as u64 * (fulls + sparses) * kv as u64;
                    }
                }
                _ => unreachable!("targets generate their own request flavor"),
            }
        }
        (edges, dense)
    }

    /// Non-zeros and bytes of the explicit CSR structures the plans hold.
    pub fn csr_footprint(&self) -> (u64, u64) {
        let Some(m) = &self.masks else {
            return (0, 0);
        };
        [&m.dilated_union, &m.random_rest]
            .iter()
            .fold((0, 0), |(nnz, bytes), csr| {
                (
                    nnz + csr.nnz() as u64,
                    bytes
                        + std::mem::size_of_val(csr.row_offsets()) as u64
                        + std::mem::size_of_val(csr.col_indices()) as u64,
                )
            })
    }
}

/// Neighbors of absolute row `i` against `kv` cached rows, by the mask
/// crate's predicate for the kernel's pattern.
fn row_edges(kernel: &AttentionKernel<'_>, kv: usize, i: usize) -> u64 {
    let mut row: Vec<Idx> = Vec::new();
    match *kernel {
        AttentionKernel::Local { n } => {
            let (lo, hi) = LocalWindow::row_range(kv, n, i);
            return (hi - lo + 1) as u64;
        }
        AttentionKernel::Dilated1d { w, r } => Dilated1d::new(kv, w, r).append_row(i, &mut row),
        _ => unreachable!("workloads use Local and Dilated1d as implicit kernels"),
    }
    row.len() as u64
}

fn fig6_masks(
    l: usize,
    window: usize,
    globals: usize,
    dilation: usize,
    random_sf: f64,
    mask_seed: u64,
) -> Fig6Masks {
    let globals = GlobalSet::evenly_spaced(l, globals);
    let indices: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();
    let dilated_union = gpa_masks::longformer_dilated(l, window, dilation, indices).to_csr();
    let covered = LocalWindow::new(l, window)
        .to_csr()
        .union(&GlobalMinusLocal::new(globals.clone(), window).to_csr());
    let random_rest = RandomUniform::new(l, random_sf, mask_seed)
        .to_csr()
        .difference(&covered);
    Fig6Masks {
        globals,
        dilated_union,
        random_rest,
    }
}
