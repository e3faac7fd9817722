//! The continuous-batching scheduler.
//!
//! One [`Scheduler`] owns an [`AttentionEngine`], a set of registered
//! [`AttentionPlan`]s and [`DecoderModel`]s, per-priority pending queues,
//! and a block-paged [`PagePool`] of per-sequence KV caches. Time is a
//! **virtual clock** of ticks: every [`Scheduler::tick`] admits what fits,
//! then flattens *all* runnable work — each prefilling sequence's next
//! chunk of query rows plus each decoding sequence's next token row —
//! into **one** [`AttentionEngine::run_batch_into`] launch per distinct
//! plan (a single launch when the workload shares a plan), exactly the
//! mixed-geometry batch shape the engine's [`gpa_core::Geometry`] windows
//! exist for. The launch is in place: each request is a row range of its
//! sequence's own queries and writes its sequence's own output rows, so a
//! tick moves only the rows it computes.
//!
//! ## One sequence record
//!
//! A request ([`Scheduler::submit`] of a [`Submission`]) targets either a
//! bare plan (explicit q/k/v rows through one attention kernel) or a
//! registered decoder model (embedding rows through an N-layer stack of
//! [`gpa_core::MultiHeadAttention`] layers with heterogeneous plans).
//! Either way it becomes one private sequence record at submission and
//! stays that record through pending → in flight → parked → completion:
//! a shared header (id, priority, a single row cursor, timestamps), the
//! inputs it owns, and a KV slot: one pool entry (a page reservation for
//! a plan sequence, every layer's cache under one page table for a
//! stack) or parked.
//! Queueing, admission, page needs, park, resume, rollback, cancel and
//! retirement are written once over that record. Plan and model differ in
//! exactly three places:
//!
//! - **submit validation** — the shapes each flavor checks;
//! - **the cache rule** — a plan sequence's K/V rows are *inputs* it
//!   already owns, so the pool only reserves their pages
//!   ([`gpa_core::PagePool::try_reserve`]): the whole prompt at admission,
//!   one token per decode row ([`gpa_core::PagePool::try_grant`]). No row
//!   is ever copied — not at admission, not per decode row, not on
//!   resume. A stack's layer caches grow chunk by chunk and hold
//!   *computed* K/V, so they live in the pool and must be kept;
//! - **the launch** — one [`AttentionEngine::run_batch_into`] per plan,
//!   reading each sequence's `q`, `k` and `v` where they are, over the
//!   first `cached(end)` rows of its K/V, straight into the sequences'
//!   output rows, versus one [`DecoderModel::advance_batched`] per model
//!   (one launch per layer, all sequences × heads flattened; its rows are
//!   copied in).
//!
//! Every page of every layer is counted by the same arithmetic — one page
//! table per sequence, `max(1, L) × ceil(tokens / page_size)` pages — so
//! an `L`-layer sequence bills `L ×` the pages of a plan sequence of the
//! same length.
//!
//! ## Admission policy
//!
//! - **Arrival batching**: a request waits [`ServeConfig::arrival_window`]
//!   ticks in its queue before becoming eligible, so bursts admit (and
//!   prefill) together;
//! - **Strict priority, FIFO within a class**: classes admit in ascending
//!   priority value; within a class, preempted sequences resume before
//!   anything still pending (they are strictly older), the queue is FIFO,
//!   and an eligible head that does not fit blocks *all* lower-priority
//!   admission (no overtaking), which is what makes admission
//!   starvation-free for any request that can ever fit;
//! - **Paged KV**: a sequence is admitted on its *current* page need —
//!   the pages its cache holds once its first unit of work has run — not
//!   its worst case, so short prompts with long decode budgets pack the
//!   pool instead of reserving it. The pages this tick's appends are
//!   about to consume (each decode row's token, and every layer of each
//!   model sequence's next prefill chunk) are held back from admission, so
//!   newcomers can never take a page out from under a running sequence
//!   within the tick. A request whose *total* page need exceeds the whole
//!   pool is rejected at submission, before any cache exists for it.
//!
//! ## Preemption: one park/resume path
//!
//! Paged admission oversubscribes by design, so a tick can find that its
//! appends need more pages than are free. The scheduler then **preempts**:
//! walking sequences from most urgent (lowest priority class, earliest
//! admission) to least, it grants each append by evicting victims from
//! the opposite end — the lowest-priority, most-recently admitted
//! sequence first. A victim's pages go back to the free list. A plan
//! victim keeps nothing else — its K/V rows never left its inputs — and
//! its resume reserves the pages again, `O(1)` in context length. A stack
//! victim's computed caches move by value into its own record, outside
//! the pool, and one gauge counts their bytes
//! ([`Scheduler::swap_parked_bytes`], peak
//! [`Scheduler::swap_peak_bytes`]); resume re-adopts their pages via
//! [`gpa_core::PagePool::try_adopt`], `O(1)` in context length. Nothing
//! is ever rebuilt, and [`EvictionMode`] changes nothing.
//!
//! The victim parks on its class's resume queue with its computed output
//! rows and row cursor, and continues exactly where it stopped, so every
//! completed output is still **bitwise** the sequential reference.
//! The most urgent in-flight sequence is never evicted and always
//! advances, so preemption cannot livelock.
//!
//! ## The five-stage tick and failure atomicity
//!
//! [`Scheduler::tick`] runs five stages, each a private function named
//! as in `docs/SERVING.md`: `needs` → `admit` → `preempt` → `launch` →
//! `apply` or `rollback`. A tick either applies completely or not at all.
//! `launch` writes each sequence's window into the sequence's own output
//! rows, *past* its row cursor: **rows at or past the cursor are scratch
//! until `apply` moves it**, so a launch that wrote before a later launch
//! of the same tick failed has changed nothing anyone can observe, and
//! the next tick computes the same rows again, bit for bit. If any launch
//! fails, `rollback` truncates every in-flight sequence's pool entry to
//! its pre-tick length — the row cursor has not moved, so that length is
//! a function of the record — **un-preempts** this tick's
//! victims (resumed in place, page tables and in-flight positions
//! restored), **un-admits** this tick's admissions (fresh requests back
//! to their queue fronts in order, resumed sequences re-parked with the
//! caches they held), and leaves the clock where it was — a
//! failed tick leaves no trace. The returned
//! [`crate::ServeError::Launch`] names the offending request when its
//! geometry provably cannot run under its plan (or under any layer of
//! its model), so the caller can [`Scheduler::cancel`] it and the rest of
//! the workload drains untouched (exercised by `tests/serving_sim.rs`).

use crate::error::ServeError;
use crate::request::{
    Completion, ModelId, ModelRequest, PatternChoice, PlanId, RequestId, ServeRequest, ServeTarget,
    Submission, TickReport,
};
use gpa_core::{AttentionEngine, AttentionPlan, AttentionRequest, KvCache, PagePool, SeqId};
use gpa_model::{DecoderModel, ModelError, ModelKvState, ModelWorkItem};
use gpa_tensor::{Matrix, Real};
use std::collections::{BTreeMap, VecDeque};

/// How admission charges a sequence against the KV page pool.
///
/// One policy remains: the worst-case-reservation baseline it was
/// compared against was removed once that A/B concluded. The enum and the
/// [`ServeConfig::admission`] field stay **only** because the frozen
/// serving benchmark (`benchmark/src/workloads.rs`) spells
/// `admission: AdmissionMode::PagedUsage` in its config literal; both go
/// when a benchmark change can drop that line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Admit on *current* page usage: a sequence costs the pages its
    /// cached tokens occupy right now, decode growth allocates pages on
    /// append, and page exhaustion is resolved by preemption. The
    /// PagedAttention policy.
    #[default]
    PagedUsage,
}

/// What happens to a preempted stack's caches — one answer in either
/// mode: they are held in the sequence's record and counted by
/// [`Scheduler::swap_parked_bytes`]. The mode has **no effect**.
///
/// The enum and the [`ServeConfig::eviction`] and
/// [`ServeConfig::swap_bytes`] fields stay **only** because the frozen
/// serving benchmark (`benchmark/src/workloads.rs`) spells them in its
/// config literals; all three go when a benchmark change can drop those
/// lines. See `docs/SERVING.md` for the state machine.
///
/// ```
/// use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
/// use gpa_model::{DecoderModel, LayerPattern};
/// use gpa_serve::{AdmissionMode, EvictionMode, ModelRequest, Scheduler, ServeConfig};
/// use gpa_tensor::init;
///
/// // The same two-sequence page squeeze on a one-layer stack, once per
/// // mode: the bits, the schedule and the parked bytes are the same.
/// let mut runs = Vec::new();
/// for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
///     let mut s: Scheduler<'static, f32> = Scheduler::new(
///         AttentionEngine::with_threads(1),
///         ServeConfig {
///             max_in_flight: 2,
///             kv_pages: 3,
///             page_size: 2,
///             arrival_window: 0,
///             prefill_chunk: 4,
///             admission: AdmissionMode::PagedUsage,
///             eviction,
///             swap_bytes: 0, // no effect either
///         },
///     )
///     .unwrap();
///     let local = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
///     let stack = DecoderModel::new(LayerPattern::parse("F").unwrap(), vec![('F', local)], 8, 2, 4, 7);
///     let model = s.register_model(stack.unwrap());
///     for seed in [1, 2] {
///         let x = init::gaussian_matrix(6, 8, 1.0, seed);
///         s.submit(ModelRequest { model, priority: 0, prompt: 2, x }).unwrap();
///     }
///     let mut done = Vec::new();
///     while !s.is_idle() {
///         done.extend(s.tick().unwrap().completed);
///     }
///     assert!(s.preemption_events() > 0, "the squeeze must preempt");
///     assert!(s.swap_peak_bytes() > 0, "the victim's caches were held");
///     assert_eq!(s.swap_parked_bytes(), 0, "…and resumed");
///     let outputs: Vec<_> = done.into_iter().map(|c| c.output).collect();
///     runs.push((outputs, s.swap_peak_bytes()));
/// }
/// assert_eq!(runs[0], runs[1], "eviction mode changes nothing");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionMode {
    /// No effect; the default.
    #[default]
    Recompute,
    /// No effect.
    Swap,
}

/// Admission-policy knobs for a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum sequences holding KV pages at once.
    pub max_in_flight: usize,
    /// Total pages in the KV pool.
    pub kv_pages: usize,
    /// Cached tokens per page.
    pub page_size: usize,
    /// Ticks a request waits in its queue before it is eligible for
    /// admission — lets bursts of arrivals batch their prefills together.
    pub arrival_window: u64,
    /// Query rows per prefill chunk: each prefilling sequence advances by
    /// at most this many rows per tick, bounding per-tick prefill work so
    /// decode rows never wait behind a whole long prompt.
    pub prefill_chunk: usize,
    /// How admission charges sequences against the pool — one value; see
    /// [`AdmissionMode`] for why the field is still here.
    pub admission: AdmissionMode,
    /// No effect; see [`EvictionMode`] for why the field is still here.
    pub eviction: EvictionMode,
    /// No effect: parked stacks are held uncapped. Kept with
    /// [`Self::eviction`], for the same reason.
    pub swap_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // 4096 × 16 = the same 65536-token capacity the old
            // token-budget default provided.
            max_in_flight: 32,
            kv_pages: 4096,
            page_size: 16,
            arrival_window: 0,
            prefill_chunk: 128,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        }
    }
}

/// What a sequence runs on, with the inputs it owns.
enum Inputs<T> {
    Plan {
        /// The choice as submitted, kept so an un-admitted request goes
        /// back to its queue unresolved.
        pattern: PatternChoice,
        /// The plan index `pattern` resolved to at admission — fixed from
        /// then on, meaningless before.
        plan: usize,
        q: Matrix<T>,
        k: Matrix<T>,
        v: Matrix<T>,
    },
    Model {
        model: usize,
        x: Matrix<T>,
    },
}

impl<T: Real> Inputs<T> {
    /// The query-side rows, one per token of the sequence.
    fn rows(&self) -> &Matrix<T> {
        match self {
            Inputs::Plan { q, .. } => q,
            Inputs::Model { x, .. } => x,
        }
    }
}

/// Where a sequence's KV lives.
enum Kv<T> {
    /// Nowhere: a request not admitted yet.
    None,
    /// Parked: what its released pool entry returned, counted by the
    /// parked-bytes gauge — a stack's computed caches, which cannot be
    /// rebuilt, or none for a plan sequence, whose rows are its inputs.
    Held(Vec<KvCache<T>>),
    /// A plan sequence in the pool: a reservation of its cached tokens,
    /// whose rows are the sequence's own K/V inputs.
    Reserved(SeqId),
    /// A model stack in the pool: one entry, one cache per layer.
    Live(ModelKvState),
}

impl<T: Real> Kv<T> {
    /// The pool handle, while the KV is in the pool.
    fn seq(&self) -> Option<SeqId> {
        match self {
            Kv::Reserved(seq) => Some(*seq),
            Kv::Live(state) => Some(state.seq()),
            Kv::None | Kv::Held(_) => None,
        }
    }

    /// Bytes a parked stack holds outside the pool; 0 for any other KV.
    fn held_bytes(&self) -> usize {
        match self {
            Kv::Held(caches) => caches.iter().map(KvCache::kv_bytes).sum(),
            _ => 0,
        }
    }
}

/// One sequence, from submission to completion — the same record while
/// pending, in flight and parked, so no transition copies a field.
struct Seq<T> {
    id: RequestId,
    priority: u8,
    prompt: usize,
    /// KV caches this sequence appends to: 1 for a plan, the model's
    /// depth for a stack.
    layers: usize,
    /// Rows computed so far — prefilling while `done < prompt`, decoding
    /// from there, complete at `total()`.
    done: usize,
    /// Output rows; `0 × width` until admission allocates them. Rows
    /// below `done` are results. Rows at or past it are **scratch**: a
    /// launch writes its window straight into them, and they count for
    /// nothing until `apply` moves the cursor over them — a tick that
    /// fails after some launches wrote leaves the cursor where it was,
    /// and the next tick computes the same rows again, bit for bit.
    out: Matrix<T>,
    submitted: u64,
    /// First admission tick — preemption does not reset it.
    admitted: u64,
    /// Times this sequence has been preempted so far.
    preemptions: u32,
    inputs: Inputs<T>,
    kv: Kv<T>,
}

impl<T: Real> Seq<T> {
    fn total(&self) -> usize {
        self.inputs.rows().rows()
    }

    /// This tick's unit of work as query rows `start..end`: the next
    /// prefill chunk, or one decode row.
    fn window(&self, chunk: usize) -> (usize, usize) {
        if self.done < self.prompt {
            (self.done, self.prompt.min(self.done + chunk))
        } else {
            (self.done, self.done + 1)
        }
    }

    /// The cache rule: tokens each layer holds once `done` rows are
    /// computed — reserved pages for a plan sequence, cached rows for a
    /// stack. A plan sequence holds its whole prompt from admission; a
    /// stack's caches grow with the rows it has advanced.
    fn cached(&self, done: usize) -> usize {
        match self.inputs {
            Inputs::Plan { .. } => self.prompt.max(done),
            Inputs::Model { .. } => done,
        }
    }

    /// Pages the caches hold once `done` rows are computed — the whole of
    /// the page arithmetic: `layers ×` the cache rule.
    fn pages_at(&self, pool: &PagePool<T>, done: usize) -> usize {
        self.layers * pool.pages_for(self.cached(done))
    }

    /// The launch this sequence's work joins: plans before models, each
    /// by registration index.
    fn group(&self) -> (bool, usize) {
        match self.inputs {
            Inputs::Plan { plan, .. } => (false, plan),
            Inputs::Model { model, .. } => (true, model),
        }
    }

    /// The KV state of an in-flight model stack.
    fn live(&self) -> &ModelKvState {
        match &self.kv {
            Kv::Live(state) => state,
            _ => unreachable!("an in-flight stack's KV is in the pool"),
        }
    }

    /// The pool handle of an in-flight sequence.
    fn seq(&self) -> SeqId {
        self.kv.seq().expect("in flight, so in the pool")
    }
}

/// What the admit stage did, kept for the report — or the rollback.
#[derive(Default)]
struct Admitted {
    fresh: Vec<RequestId>,
    resumed: Vec<RequestId>,
}

/// What the launch stage did. The rows themselves are already in each
/// sequence's `out`, past its cursor.
struct Launched {
    launches: usize,
    rows: usize,
}

/// Rows `start..end` of a sequence's output: the window a launch writes.
fn rows_mut<T: Real>(out: &mut Matrix<T>, (start, end): (usize, usize)) -> &mut [T] {
    let width = out.cols();
    &mut out.as_mut_slice()[start * width..end * width]
}

/// Priority-class queues of sequences.
type Queues<T> = BTreeMap<u8, VecDeque<Seq<T>>>;

fn queued<T>(queues: &Queues<T>) -> usize {
    queues.values().map(VecDeque::len).sum()
}

fn take_queued<T>(queues: &mut Queues<T>, id: RequestId) -> Option<Seq<T>> {
    queues.values_mut().find_map(|queue| {
        let pos = queue.iter().position(|s| s.id == id)?;
        queue.remove(pos)
    })
}

/// The continuous-batching serving scheduler — see the [module
/// docs](self) for the policy and [`crate`] for an end-to-end example.
///
/// `'p` is the lifetime of mask data borrowed by the registered plans and
/// models (implicit-kernel plans borrow nothing and work with `'static`).
pub struct Scheduler<'p, T> {
    engine: AttentionEngine,
    config: ServeConfig,
    plans: Vec<AttentionPlan<'p>>,
    models: Vec<DecoderModel<'p, T>>,
    pending: Queues<T>,
    /// Resume queues: preempted sequences per priority class, kept in
    /// request-id order (= original admission order within the class).
    parked: Queues<T>,
    in_flight: Vec<Seq<T>>,
    pool: PagePool<T>,
    /// K/V bytes the parked stacks hold outside the pool, and its peak.
    parked_bytes: usize,
    parked_peak: usize,
    preemption_events: u64,
    now: u64,
    next_id: u64,
}

impl<'p, T: Real> Scheduler<'p, T> {
    /// Build a scheduler owning `engine` under the given admission policy.
    pub fn new(engine: AttentionEngine, config: ServeConfig) -> Result<Self, ServeError> {
        for (value, what) in [
            (config.max_in_flight, "max_in_flight must be positive"),
            (config.prefill_chunk, "prefill_chunk must be positive"),
            (config.kv_pages, "kv_pages must be positive"),
            (config.page_size, "page_size must be positive"),
        ] {
            if value == 0 {
                return Err(ServeError::BadConfig { what });
            }
        }
        Ok(Scheduler {
            engine,
            config,
            plans: Vec::new(),
            models: Vec::new(),
            pending: BTreeMap::new(),
            parked: BTreeMap::new(),
            in_flight: Vec::new(),
            pool: PagePool::new(config.kv_pages, config.page_size),
            parked_bytes: 0,
            parked_peak: 0,
            preemption_events: 0,
            now: 0,
            next_id: 0,
        })
    }

    /// Register a compiled plan; submitted requests name it by the
    /// returned id. Every plan is a chain of graph row rules, so every
    /// plan has a prefill-window and a decode-row form and registration
    /// never fails. The `Result` stays **only** because the frozen serving
    /// benchmark (`benchmark/src/workloads.rs`) calls `.expect` on it; it
    /// goes when a benchmark change can drop that call.
    pub fn register_plan(&mut self, plan: AttentionPlan<'p>) -> Result<PlanId, ServeError> {
        self.plans.push(plan);
        Ok(PlanId(self.plans.len() - 1))
    }

    /// Register a compiled decoder model; model requests name it by the
    /// returned id.
    pub fn register_model(&mut self, model: DecoderModel<'p, T>) -> ModelId {
        self.models.push(model);
        ModelId(self.models.len() - 1)
    }

    /// A registered plan.
    ///
    /// # Panics
    /// Panics if `id` did not come from this scheduler's
    /// [`Self::register_plan`].
    pub fn plan(&self, id: PlanId) -> &AttentionPlan<'p> {
        &self.plans[id.0]
    }

    /// A registered model.
    ///
    /// # Panics
    /// Panics if `id` did not come from this scheduler's
    /// [`Self::register_model`].
    pub fn model(&self, id: ModelId) -> &DecoderModel<'p, T> {
        &self.models[id.0]
    }

    /// The engine this scheduler launches through.
    pub fn engine(&self) -> &AttentionEngine {
        &self.engine
    }

    /// The admission policy.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current virtual time (ticks executed so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests queued but not yet admitted.
    pub fn pending_len(&self) -> usize {
        queued(&self.pending)
    }

    /// Preempted sequences waiting on resume queues.
    pub fn parked_len(&self) -> usize {
        queued(&self.parked)
    }

    /// Sequences currently holding KV pages.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Pending + parked + in-flight sequences.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending_len() + self.parked_len() + self.in_flight.len()
    }

    /// True when nothing is pending, parked, or in flight.
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Pages mapped into live page tables right now.
    pub fn kv_used_pages(&self) -> usize {
        self.pool.used_pages()
    }

    /// KV tokens actually cached right now.
    pub fn kv_used_tokens(&self) -> usize {
        self.pool.used_tokens()
    }

    /// Total sequence preemptions so far (each park of each sequence
    /// counts once).
    pub fn preemption_events(&self) -> u64 {
        self.preemption_events
    }

    /// Bytes of K/V the parked stacks hold outside the pool right now —
    /// the [`KvCache::kv_bytes`] of every layer of every preempted stack,
    /// in either [`EvictionMode`]. 0 whenever no stack is parked: a plan
    /// victim parks nothing. The name is the frozen serving benchmark's
    /// (`benchmark/src/drive.rs`), from when these bytes sat in a swap
    /// arena.
    pub fn swap_parked_bytes(&self) -> usize {
        self.parked_bytes
    }

    /// High-water mark of [`Self::swap_parked_bytes`] over the
    /// scheduler's life — the host memory parked stacks actually needed.
    pub fn swap_peak_bytes(&self) -> usize {
        self.parked_peak
    }

    /// Always 0: every parked stack is held, so no park falls back. It
    /// stays **only** because the frozen serving benchmark
    /// (`benchmark/src/drive.rs`) reads it; it goes when a benchmark
    /// change can drop that read.
    pub fn swap_fallbacks(&self) -> u64 {
        0
    }

    /// Assert the paged-KV invariants: page conservation
    /// (`free + mapped == total`), no page double-mapped, every page
    /// table exactly covering its entry's grant, no cache past it, and the
    /// parked-bytes gauge equal to the recomputed `kv_bytes` of every
    /// parked stack (so 0 when idle) and never above its peak. The
    /// serving simulation calls this after every tick.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn assert_kv_invariants(&self) {
        self.pool.assert_page_invariants();
        let held = self.parked.values().flatten().map(|s| s.kv.held_bytes());
        assert_eq!(
            held.sum::<usize>(),
            self.parked_bytes,
            "parked-bytes gauge drifted"
        );
        assert!(
            self.parked_peak >= self.parked_bytes,
            "parked peak below the gauge"
        );
    }

    /// Queue a request of either flavor. Validation is immediate (shape
    /// checks, plan or model lookup, and the can-it-ever-fit capacity
    /// check); admission happens on a later [`Self::tick`]. No KV cache
    /// exists — and nothing is mutated — for a rejected request. The
    /// capacity check counts every layer: a sequence of `total` tokens
    /// through an `L`-layer model needs `L × pages_for(total)` pages
    /// resident at completion.
    ///
    /// # Non-finite inputs
    ///
    /// `submit` checks shapes, not values: it does not scan a request's
    /// rows for `NaN` or infinities, and neither does a launch. Damage
    /// propagates per row, as in `gpa-core`'s kernels, and stays inside
    /// the request that carried it. A `NaN` in a plan request's K row, or
    /// an infinity that makes that key's score `NaN` or `+∞`, turns
    /// exactly the output rows whose neighbours include that key into
    /// `NaN`; every other row of the request, and every other request in
    /// the same launch, comes out as it would without it. (A key that
    /// scores `−∞` is a masked edge and weighs nothing.)
    pub fn submit(&mut self, request: impl Into<Submission<T>>) -> Result<RequestId, ServeError> {
        let bad = |what| Err(ServeError::BadRequest { what });
        match request.into() {
            Submission::Plan(ServeRequest {
                pattern,
                priority,
                prompt,
                q,
                k,
                v,
            }) => {
                let known = match pattern {
                    PatternChoice::Explicit(id) => id.0 < self.plans.len(),
                    PatternChoice::Auto => !self.plans.is_empty(),
                };
                if !known {
                    return Err(ServeError::UnknownPlan);
                }
                if q.rows() == 0 {
                    return bad("a request needs at least one token");
                }
                if k.rows() != q.rows() || v.rows() != q.rows() {
                    return bad("Q/K/V row counts differ");
                }
                if q.cols() != k.cols() {
                    return bad("Q and K disagree on the key dimension");
                }
                if q.cols() == 0 || v.cols() == 0 {
                    return bad("key/value dimensions must be positive");
                }
                let width = v.cols();
                let inputs = Inputs::Plan {
                    pattern,
                    plan: 0,
                    q,
                    k,
                    v,
                };
                self.enqueue(priority, prompt, 1, width, inputs)
            }
            Submission::Model(ModelRequest {
                model,
                priority,
                prompt,
                x,
            }) => {
                let Some(stack) = self.models.get(model.0) else {
                    return Err(ServeError::UnknownModel);
                };
                if x.rows() == 0 {
                    return bad("a request needs at least one token");
                }
                if x.cols() != stack.d_model() {
                    return bad("input width must match the model's d_model");
                }
                let (layers, width) = (stack.layers(), x.cols());
                let inputs = Inputs::Model { model: model.0, x };
                self.enqueue(priority, prompt, layers, width, inputs)
            }
        }
    }

    /// [`Self::submit`] of a model request. It stays **only** because the
    /// frozen serving benchmark (`benchmark/src/drive.rs`) calls it by
    /// name; it goes when a benchmark change can call `submit` instead.
    pub fn submit_model(&mut self, request: ModelRequest<T>) -> Result<RequestId, ServeError> {
        self.submit(request)
    }

    /// The shared tail of submission: the prompt and can-it-ever-fit
    /// checks, then the request becomes a pending `Seq`.
    fn enqueue(
        &mut self,
        priority: u8,
        prompt: usize,
        layers: usize,
        width: usize,
        inputs: Inputs<T>,
    ) -> Result<RequestId, ServeError> {
        let total = inputs.rows().rows();
        if prompt == 0 || prompt > total {
            return Err(ServeError::BadRequest {
                what: "prompt must cover between 1 and all of the rows",
            });
        }
        let need_pages = layers * self.pool.pages_for(total);
        if need_pages > self.pool.total_pages() {
            return Err(ServeError::OverCapacity {
                need_pages,
                total_pages: self.pool.total_pages(),
            });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.entry(priority).or_default().push_back(Seq {
            id,
            priority,
            prompt,
            layers,
            done: 0,
            out: Matrix::zeros(0, width),
            submitted: self.now,
            admitted: 0,
            preemptions: 0,
            inputs,
            kv: Kv::None,
        });
        Ok(id)
    }

    /// Drop a request — pending, parked, or in flight (releasing its KV
    /// pages, every layer's for a model sequence, or a parked stack's
    /// held bytes).
    /// Returns false when the id is unknown or already completed.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let found = take_queued(&mut self.pending, id)
            .or_else(|| take_queued(&mut self.parked, id))
            .or_else(|| {
                let pos = self.in_flight.iter().position(|s| s.id == id)?;
                Some(self.in_flight.remove(pos))
            });
        let Some(s) = found else {
            return false;
        };
        self.discard(s.kv);
        true
    }

    /// Give a departing sequence's KV back: pool pages, or a parked
    /// stack's held bytes.
    fn discard(&mut self, kv: Kv<T>) {
        self.parked_bytes -= kv.held_bytes();
        if let Some(seq) = kv.seq() {
            self.pool.release(seq);
        }
    }

    /// Resolve a request's pattern choice to a concrete plan index — the
    /// admission-time cost model behind [`PatternChoice::Auto`]. The
    /// registered plans are ranked cheapest-first by
    /// [`AttentionPlan::estimated_edges`] at the request's prompt length,
    /// and the pool's free-page fraction indexes the ranking: an empty
    /// pool picks the cheapest pattern, a wide-open one the densest. Both
    /// inputs are deterministic scheduler state, so a replayed trace
    /// resolves identically every run.
    fn resolve_pattern(&self, pattern: PatternChoice, prompt: usize) -> usize {
        match pattern {
            PatternChoice::Explicit(id) => id.0,
            PatternChoice::Auto => {
                let mut ranked: Vec<usize> = (0..self.plans.len()).collect();
                ranked.sort_by_key(|&p| (self.plans[p].estimated_edges(prompt), p));
                let frac = self.pool.free_pages() as f64 / self.pool.total_pages() as f64;
                let pick = ((frac * ranked.len() as f64) as usize).min(ranked.len() - 1);
                ranked[pick]
            }
        }
    }

    /// Pages this sequence's work takes from the pool this tick: a decode
    /// row that crosses a page boundary, a stack's next prefill chunk in
    /// every layer — and nothing for a plan sequence's prefill, whose
    /// prompt pages were taken at admission.
    fn append_need(&self, s: &Seq<T>) -> usize {
        let (_, end) = s.window(self.config.prefill_chunk);
        s.pages_at(&self.pool, end) - s.pages_at(&self.pool, s.done)
    }

    /// Bring a sequence's KV into the pool — the one way in, for fresh
    /// admission, resume and un-preempt alike. A plan sequence reserves
    /// the pages of its cached tokens and copies nothing — its K/V rows
    /// are its inputs, launched in place. A stack comes back out of the
    /// record, its bytes leaving the parked gauge, or, fresh, starts as
    /// empty layer caches (its first chunk is granted this very tick).
    /// The caller granted the pages, so failure here is a scheduler bug.
    fn resume(&mut self, s: &mut Seq<T>) {
        let tokens = s.cached(s.done);
        self.parked_bytes -= s.kv.held_bytes();
        let caches = match (std::mem::replace(&mut s.kv, Kv::None), &s.inputs) {
            (Kv::None | Kv::Held(_), Inputs::Plan { .. }) => {
                let Some(seq) = self.pool.try_reserve(tokens) else {
                    panic!("admission was granted its pages");
                };
                s.kv = Kv::Reserved(seq);
                return;
            }
            (Kv::None, Inputs::Model { model, .. }) => {
                debug_assert_eq!(s.done, 0, "only a fresh stack has nothing retained");
                s.kv = Kv::Live(ModelKvState::allocate(&self.models[*model], &mut self.pool));
                return;
            }
            (Kv::Held(caches), _) => caches,
            (Kv::Reserved(_) | Kv::Live(_), _) => unreachable!("already in the pool"),
        };
        let Ok(state) = ModelKvState::adopt(caches, &mut self.pool) else {
            panic!("admission was granted its pages");
        };
        s.kv = Kv::Live(state);
    }

    /// Move a live sequence's KV out of the pool — the one way out:
    /// release its entry, whose pages go back to the free list, and hold
    /// what comes back in the record. A plan sequence's entry returns no
    /// cache — its rows are its inputs; a stack's returns its computed
    /// caches, whose bytes join the parked gauge.
    fn park(&mut self, s: &mut Seq<T>) {
        s.kv = Kv::Held(self.pool.release(s.seq()));
        self.parked_bytes += s.kv.held_bytes();
        self.parked_peak = self.parked_peak.max(self.parked_bytes);
    }

    /// Put a parked sequence on its class's resume queue, in id order (=
    /// original admission order within the class).
    fn enqueue_parked(&mut self, s: Seq<T>) {
        let queue = self.parked.entry(s.priority).or_default();
        let at = queue.partition_point(|x| x.id < s.id);
        queue.insert(at, s);
    }

    /// Stage 1 — **needs**: the pages this tick's already-running appends
    /// will consume, counted before admission so newcomers cannot take
    /// them. Because of this guard a tick admits or preempts, never both
    /// — which is what lets `rollback` restore victims at their exact
    /// positions.
    fn needs(&self) -> usize {
        self.in_flight.iter().map(|s| self.append_need(s)).sum()
    }

    /// The lowest priority class at or above `from` with a queue in
    /// either map — the merged, deduplicated walk of two ordered key sets.
    fn next_class(&self, from: u8) -> Option<u8> {
        let first = |queues: &Queues<T>| queues.range(from..).next().map(|(&class, _)| class);
        match (first(&self.parked), first(&self.pending)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Stage 2 — **admit**: eligible sequences in (priority class,
    /// resumed-then-pending, FIFO) order until one does not fit the free
    /// pages less `held_back`. A sequence is charged the pages it holds
    /// once its first unit of work has run this very tick — the same
    /// formula for a fresh request and a resumed one.
    fn admit(&mut self, held_back: usize) -> Admitted {
        let mut staged = Admitted::default();
        // Nothing queued, or no slot for it: the common steady-state tick.
        if self.in_flight.len() >= self.config.max_in_flight
            || (self.pending.is_empty() && self.parked.is_empty())
        {
            return staged;
        }
        let mut headroom = self.pool.free_pages().saturating_sub(held_back);
        let mut from = Some(0u8);
        'classes: while let Some(class) = from.and_then(|from| self.next_class(from)) {
            from = class.checked_add(1);
            // Resume queue first: parked sequences were admitted from the
            // head of this class's queue once, so their ids precede every
            // id still pending — resumed-first IS global FIFO order.
            for fresh in [false, true] {
                loop {
                    let queue = if fresh {
                        &mut self.pending
                    } else {
                        &mut self.parked
                    };
                    let Some(front) = queue.get(&class).and_then(|q| q.front()) else {
                        break;
                    };
                    if fresh && self.now < front.submitted + self.config.arrival_window {
                        // Class head still batching arrivals; it does not
                        // block other classes (FIFO within the class holds
                        // — later same-class requests are younger still).
                        break;
                    }
                    let (_, end) = front.window(self.config.prefill_chunk);
                    let need = front.pages_at(&self.pool, end);
                    if self.in_flight.len() >= self.config.max_in_flight || need > headroom {
                        // A head that cannot be placed blocks all lower
                        // admission: no overtaking — of a preempted
                        // sequence or a pending one — so every placeable
                        // request is eventually admitted.
                        break 'classes;
                    }
                    headroom -= need;
                    let queue = queue.get_mut(&class).expect("front exists");
                    let mut s = queue.pop_front().expect("front exists");
                    if fresh {
                        if let Inputs::Plan { pattern, plan, .. } = &mut s.inputs {
                            *plan = self.resolve_pattern(*pattern, s.prompt);
                        }
                        s.out = Matrix::zeros(s.total(), s.out.cols());
                        s.admitted = self.now;
                        staged.fresh.push(s.id);
                    } else {
                        staged.resumed.push(s.id);
                    }
                    self.resume(&mut s);
                    self.in_flight.push(s);
                }
            }
        }
        staged
    }

    /// Stage 3 — **preempt**: when this tick's appends outstrip the free
    /// pages (growth of previously admitted sequences, not admission),
    /// grant appends from most urgent to least, evicting from the
    /// opposite end. Victims are parked and returned with their in-flight
    /// positions, ascending; they reach their resume queues in `apply`.
    ///
    /// `needed` is stage 1's total, still exact here: a tick whose appends
    /// fit admitted within what they left free, and a tick whose appends
    /// do not fit had no headroom to admit anything.
    fn preempt(&mut self, needed: usize) -> Vec<(usize, Seq<T>)> {
        let mut available = self.pool.free_pages();
        if needed <= available {
            return Vec::new();
        }
        debug_assert_eq!(needed, self.needs());
        let needs: Vec<usize> = self.in_flight.iter().map(|s| self.append_need(s)).collect();
        // Urgency = admission order under strict priority: class
        // ascending, in-flight position (admission recency) ascending.
        let mut urgency: Vec<usize> = (0..self.in_flight.len()).collect();
        urgency.sort_by_key(|&i| (self.in_flight[i].priority, i));
        let mut victim = vec![false; self.in_flight.len()];
        let mut hi = urgency.len();
        for p in 0..urgency.len() {
            if p >= hi {
                break; // everyone from here on is already a victim
            }
            let i = urgency[p];
            while needs[i] > available && hi > p + 1 {
                hi -= 1;
                victim[urgency[hi]] = true;
                available += self.pool.pages_held(self.in_flight[urgency[hi]].seq());
            }
            if needs[i] <= available {
                available -= needs[i];
            } else {
                // Even with every less-urgent sequence evicted the
                // append does not fit: this sequence parks too. The
                // most urgent sequence can never land here — its
                // held + need never exceeds `layers × pages_for(total)`,
                // which fits the pool by the submission check — so at
                // least one sequence always advances: no livelock.
                victim[i] = true;
                hi = p;
            }
        }
        let mut staged = Vec::new();
        for i in (0..self.in_flight.len()).rev() {
            if victim[i] {
                let mut s = self.in_flight.remove(i);
                self.park(&mut s);
                staged.push((i, s));
            }
        }
        staged.reverse(); // ascending original index, for restore
        staged
    }

    /// Stage 4 — **launch**: one unit of work per in-flight sequence,
    /// batched into one `run_batch_into` per distinct plan, then one layer
    /// advance per distinct model (ascending group keys: deterministic
    /// launch order). Nothing is copied on the way in or out of a plan
    /// launch: a request names its query window as a row range of the
    /// sequence's own `Q` over a prefix of its own `K`/`V`, and the launch
    /// writes rows `start..end` of the sequence's `out` where they stay —
    /// scratch until `apply` moves the cursor over them (a stack's rows
    /// are copied there from its layer advance). Plan decode grants and
    /// stack advances take their pages from the pool — the stages above
    /// set those pages aside, so no grant is refused — but no cursor
    /// moves: on `Err` the caller rolls back, and the error names
    /// the offending request when identifiable. Groups that launched
    /// before the failing one have written their windows; nothing reads
    /// those rows before the next tick overwrites them with the same bits.
    fn launch(&mut self) -> Result<Launched, ServeError> {
        let chunk = self.config.prefill_chunk;
        // A decoding plan sequence's token takes its page now — a grant,
        // not a copy: the row is already in its K/V. Stacks append inside
        // their layer advance.
        for s in &self.in_flight {
            let Kv::Reserved(seq) = s.kv else {
                continue;
            };
            if s.done < s.prompt {
                continue;
            }
            let ok = self.pool.try_grant(seq, 1);
            assert!(ok, "decode rows were granted pages at tick start");
        }
        let mut groups: Vec<(bool, usize)> = self.in_flight.iter().map(Seq::group).collect();
        groups.sort_unstable();
        groups.dedup();
        let mut launched = Launched {
            launches: 0,
            rows: 0,
        };
        for &group in &groups {
            let (stack, target) = group;
            let result = if stack {
                let members = || self.in_flight.iter().filter(|s| s.group() == group);
                let windows: Vec<Matrix<T>> = members()
                    .map(|s| {
                        let (start, end) = s.window(chunk);
                        s.inputs.rows().rows_slice(start, end)
                    })
                    .collect();
                let items: Vec<ModelWorkItem<'_, T>> = members()
                    .zip(&windows)
                    .map(|(s, x)| ModelWorkItem { x, state: s.live() })
                    .collect();
                match self.models[target].advance_batched(&self.engine, &mut self.pool, &items) {
                    Ok(adv) => {
                        let members = self.in_flight.iter_mut().filter(|s| s.group() == group);
                        for (s, rows) in members.zip(&adv.outputs) {
                            let window = s.window(chunk);
                            rows_mut(&mut s.out, window).copy_from_slice(rows.as_slice());
                        }
                        Ok((adv.launches, adv.rows))
                    }
                    // The layer advance already rolled its own appends
                    // back. Page grants and item validation happened
                    // above, so only a kernel-geometry failure can reach
                    // here.
                    Err(ModelError::Attn(e)) => Err(e),
                    Err(other) => panic!("model advance was granted pages and validated: {other}"),
                }
            } else {
                // Each member lends its launch two disjoint fields: its
                // q/k/v rows in `inputs`, and — mutably — rows `start..end`
                // of `out`.
                let mut requests = Vec::with_capacity(self.in_flight.len());
                let mut windows: Vec<&mut [T]> = Vec::with_capacity(self.in_flight.len());
                let mut rows = 0;
                for s in self.in_flight.iter_mut().filter(|s| s.group() == group) {
                    let (start, end) = s.window(chunk);
                    let kv_rows = s.cached(end);
                    let Inputs::Plan { q, k, v, .. } = &s.inputs else {
                        unreachable!("a plan group holds plan sequences");
                    };
                    // Prefill window or decode row, the geometry is the
                    // same: rows `start..end` at their own positions over
                    // the first `cached(end)` rows of its own K/V.
                    let mut request = AttentionRequest::row_range(q, start..end, k, v, start);
                    request.geometry.kv_rows = kv_rows;
                    requests.push(request);
                    windows.push(rows_mut(&mut s.out, (start, end)));
                    rows += end - start;
                }
                self.engine
                    .run_batch_into(&self.plans[target], &requests, &mut windows)
                    .map(|()| (1, rows))
            };
            match result {
                Ok((launches, rows)) => {
                    launched.launches += launches;
                    launched.rows += rows;
                }
                Err(source) => {
                    // The engine reports one error per batch; re-check
                    // the failed group's geometries against the compiled
                    // constraints — the plan's, or every layer's of the
                    // model — to name the offender, so callers can cancel
                    // it and recover. The launch saw each cache at the
                    // length the cache rule gives for the window's end.
                    let mut members = self.in_flight.iter().filter(|s| s.group() == group);
                    let offender = members.find(|s| {
                        let (_, end) = s.window(chunk);
                        (0..s.layers).any(|layer| {
                            let plan = if stack {
                                self.models[target].plan_of(layer)
                            } else {
                                &self.plans[target]
                            };
                            plan.kv_pin().is_some_and(|pin| s.cached(end) != pin)
                                || plan.q_bound().is_some_and(|bound| end > bound)
                        })
                    });
                    return Err(ServeError::Launch {
                        request: offender.map(|s| s.id),
                        source,
                    });
                }
            }
        }
        Ok(launched)
    }

    /// Stage 5, success — **apply**: move each cursor over the rows the
    /// launch wrote (from here on they are results), retire finished
    /// sequences (in in-flight — i.e. admission — order, releasing their
    /// KV pages), commit this tick's victims to their resume queues, and
    /// move the clock.
    fn apply(
        &mut self,
        admitted: Admitted,
        staged: Vec<(usize, Seq<T>)>,
        launched: Launched,
    ) -> TickReport<T> {
        for s in &mut self.in_flight {
            s.done = s.window(self.config.prefill_chunk).1;
        }
        let mut completed = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done < self.in_flight[i].total() {
                i += 1;
                continue;
            }
            let s = self.in_flight.remove(i);
            let target = match s.group() {
                (false, plan) => ServeTarget::Plan(PlanId(plan)),
                (true, model) => ServeTarget::Model(ModelId(model)),
            };
            self.discard(s.kv);
            completed.push(Completion {
                id: s.id,
                priority: s.priority,
                target,
                output: s.out,
                submitted: s.submitted,
                admitted: s.admitted,
                completed: self.now,
                preemptions: s.preemptions,
            });
        }
        let preempted = staged.iter().map(|(_, s)| s.id).collect();
        for (_, mut s) in staged {
            s.preemptions += 1;
            self.preemption_events += 1;
            self.enqueue_parked(s);
        }
        let tick = self.now;
        self.now += 1;
        TickReport {
            tick,
            admitted: admitted.fresh,
            resumed: admitted.resumed,
            preempted,
            launches: launched.launches,
            rows_computed: launched.rows,
            completed,
        }
    }

    /// Stage 5, failure — **rollback**: undo stages 2–4 so the failed
    /// tick leaves no trace. No cursor moved, so every in-flight cache's
    /// pre-tick length is what the cache rule says for `done`.
    fn rollback(&mut self, admitted: Admitted, staged: Vec<(usize, Seq<T>)>) {
        // Appends: every layer of every cache back to its pre-tick
        // length, returning this tick's granted pages.
        for s in &self.in_flight {
            self.pool.truncate(s.seq(), s.cached(s.done));
        }
        // Un-preempt: each victim back in the pool at its exact former
        // position. Page conservation covers the restores: truncation
        // returned every page the grants took, and those grants were
        // funded by the victims' own releases.
        for (index, mut s) in staged {
            self.resume(&mut s);
            self.in_flight.insert(index, s);
        }
        // Un-admit, from the in-flight tail: a fresh request goes back to
        // its queue front unresolved and without its output rows (popping
        // the tail and pushing front restores FIFO order); a resumed
        // sequence goes back to its resume queue holding what it held,
        // its bytes back on the parked gauge.
        for _ in 0..admitted.fresh.len() + admitted.resumed.len() {
            let mut s = self.in_flight.pop().expect("admissions sit at the tail");
            if s.preemptions > 0 {
                self.park(&mut s);
                self.enqueue_parked(s);
            } else {
                self.discard(std::mem::replace(&mut s.kv, Kv::None));
                s.out = Matrix::zeros(0, s.out.cols());
                self.pending.entry(s.priority).or_default().push_front(s);
            }
        }
    }

    /// Advance the virtual clock by one tick through the five stages —
    /// needs, admit (resuming preempted sequences first), preempt if this
    /// tick's appends outstrip the free pages, launch every in-flight
    /// sequence's next unit of work batched (one in-place `run_batch_into`
    /// per distinct plan, plus one launch per layer per distinct model),
    /// then apply: cursors moved over the rows the launches wrote,
    /// finished sequences retired.
    ///
    /// On a launch failure the tick is rolled back atomically instead —
    /// appends truncated (pages returned), victims restored in place,
    /// admissions un-admitted, no cursor or clock movement — and the
    /// returned error names the offending request when identifiable; see
    /// the [module docs](self).
    pub fn tick(&mut self) -> Result<TickReport<T>, ServeError> {
        let needs = self.needs();
        let admitted = self.admit(needs);
        let staged = self.preempt(needs);
        debug_assert!(
            staged.is_empty() || (admitted.fresh.is_empty() && admitted.resumed.is_empty()),
            "the admission guard makes admit-and-preempt ticks impossible"
        );
        match self.launch() {
            Ok(launched) => Ok(self.apply(admitted, staged, launched)),
            Err(error) => {
                self.rollback(admitted, staged);
                Err(error)
            }
        }
    }
}

impl<T: Real> std::fmt::Debug for Scheduler<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("plans", &self.plans.len())
            .field("models", &self.models.len())
            .field("pending", &self.pending_len())
            .field("parked", &self.parked_len())
            .field("in_flight", &self.in_flight.len())
            .field("free_pages", &self.pool.free_pages())
            .field("total_pages", &self.pool.total_pages())
            .field("preemptions", &self.preemption_events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        generate_trace, sequential_model_reference, sequential_reference, TraceEvent, TraceSpec,
    };
    use gpa_core::AttentionKernel;
    use gpa_model::LayerPattern;
    use gpa_tensor::init::{gaussian_matrix, qkv};

    fn request(
        plan: PlanId,
        priority: u8,
        prompt: usize,
        total: usize,
        seed: u64,
    ) -> ServeRequest<f64> {
        let (q, k, v) = qkv::<f64>(total, 4, seed);
        ServeRequest {
            pattern: plan.into(),
            priority,
            prompt,
            q,
            k,
            v,
        }
    }

    fn model_request(
        model: ModelId,
        priority: u8,
        prompt: usize,
        total: usize,
        seed: u64,
    ) -> ModelRequest<f64> {
        ModelRequest {
            model,
            priority,
            prompt,
            x: gaussian_matrix(total, 12, 1.0, seed),
        }
    }

    /// A request of either flavor on the [`scheduler`] rig: q/k/v rows
    /// (dk 4) through its plan, or embedding rows (d_model 12) through
    /// its 3-layer stack.
    fn submission(model: bool, prompt: usize, total: usize, seed: u64) -> Submission<f64> {
        if model {
            model_request(ModelId(0), 0, prompt, total, seed).into()
        } else {
            request(PlanId(0), 0, prompt, total, seed).into()
        }
    }

    /// The test rig: a scheduler with one Local plan and a 3-layer
    /// Full/Sparse/Full stack over implicit (length-free) kernels,
    /// d_model 12, 3 heads of dk 4.
    fn scheduler(config: ServeConfig) -> (Scheduler<'static, f64>, PlanId) {
        let mut s = Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
        let plan = s
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap();
        s.register_model(
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
                12,
                3,
                4,
                0xBEEF,
            )
            .unwrap(),
        );
        (s, plan)
    }

    fn config(
        max_in_flight: usize,
        kv_pages: usize,
        page_size: usize,
        prefill_chunk: usize,
        eviction: EvictionMode,
    ) -> ServeConfig {
        ServeConfig {
            max_in_flight,
            kv_pages,
            page_size,
            arrival_window: 0,
            prefill_chunk,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        }
    }

    /// A completion's sequential reference, by its request's flavor.
    fn reference(s: &Scheduler<'_, f64>, c: &Completion<f64>, r: &Submission<f64>) -> Matrix<f64> {
        let chunk = s.config().prefill_chunk;
        match (r, c.target) {
            (Submission::Plan(r), ServeTarget::Plan(p)) => {
                sequential_reference(s.engine(), s.plan(p), r, chunk).unwrap()
            }
            (Submission::Model(r), ServeTarget::Model(m)) => {
                sequential_model_reference(s.engine(), s.model(m), r, chunk).unwrap()
            }
            _ => panic!("completion {} changed flavor", c.id.as_u64()),
        }
    }

    /// What ticking to idle saw, in order.
    #[derive(Default)]
    struct Drained {
        admitted: Vec<RequestId>,
        preempted: Vec<RequestId>,
        resumed: Vec<RequestId>,
        completions: Vec<Completion<f64>>,
        /// High-water mark of the parked stacks' bytes between ticks.
        peak_parked: usize,
    }

    /// Tick until idle — at most 64 ticks — checking the KV invariants
    /// after every tick.
    fn drain(s: &mut Scheduler<'_, f64>) -> Drained {
        let mut d = Drained::default();
        for _ in 0..64 {
            if s.is_idle() {
                break;
            }
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            d.peak_parked = d.peak_parked.max(s.swap_parked_bytes());
            d.admitted.extend(r.admitted);
            d.preempted.extend(r.preempted);
            d.resumed.extend(r.resumed);
            d.completions.extend(r.completed);
        }
        assert!(s.is_idle(), "drains within 64 ticks");
        d
    }

    #[test]
    fn config_validation() {
        for bad in [
            ServeConfig {
                max_in_flight: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                prefill_chunk: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                kv_pages: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                page_size: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                Scheduler::<f64>::new(AttentionEngine::with_threads(1), bad),
                Err(ServeError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn submit_validation_rejects_bad_requests() {
        let (mut s, plan) = scheduler(ServeConfig {
            kv_pages: 4,
            page_size: 4,
            ..ServeConfig::default()
        });
        // Unknown plan.
        let r = request(PlanId(9), 0, 2, 4, 1);
        assert_eq!(s.submit(r), Err(ServeError::UnknownPlan));
        // Prompt outside 1..=total.
        let r = request(plan, 0, 0, 4, 2);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        let r = request(plan, 0, 5, 4, 3);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // Mismatched K rows.
        let mut r = request(plan, 0, 2, 4, 4);
        r.k = Matrix::zeros(3, 4);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // Over the whole pool (17 tokens = 5 pages of 4): rejected at
        // submission.
        let r = request(plan, 0, 2, 17, 5);
        assert_eq!(
            s.submit(r),
            Err(ServeError::OverCapacity {
                need_pages: 5,
                total_pages: 4
            })
        );
        assert!(s.is_idle(), "rejected requests leave no state behind");
        assert_eq!(s.kv_used_tokens(), 0);
    }

    #[test]
    fn submit_model_validation_counts_every_layer() {
        let (mut s, _) = scheduler(ServeConfig {
            kv_pages: 6,
            page_size: 4,
            ..ServeConfig::default()
        });
        let model = ModelId(0);
        // Unknown model.
        let r = model_request(ModelId(9), 0, 2, 4, 1);
        assert_eq!(s.submit(r), Err(ServeError::UnknownModel));
        // Wrong input width.
        let mut r = model_request(model, 0, 2, 4, 2);
        r.x = Matrix::zeros(4, 5);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // Prompt outside 1..=total.
        let r = model_request(model, 0, 5, 4, 3);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // 12 tokens = 3 pages of 4, × 3 layers = 9 > the pool's 6: the
        // capacity check must count every layer.
        let r = model_request(model, 0, 2, 12, 4);
        assert_eq!(
            s.submit(r),
            Err(ServeError::OverCapacity {
                need_pages: 9,
                total_pages: 6
            })
        );
        assert!(s.is_idle(), "rejected requests leave no state behind");
        assert_eq!(s.kv_used_tokens(), 0);
    }

    /// One uninterrupted 7-prompt, 10-token sequence of either flavor:
    /// ceil(7/3) = 3 prefill ticks + 3 decode ticks, admitted at tick 0,
    /// bitwise its sequential reference (the same chunk schedule as the
    /// scheduler), every layer's pages released on completion.
    fn serve_one(model: bool, kv_pages: usize) {
        let (mut s, _) = scheduler(config(4, kv_pages, 4, 3, EvictionMode::Recompute));
        let r = submission(model, 7, 10, 11);
        let id = s.submit(r.clone()).unwrap();
        let d = drain(&mut s);
        assert_eq!(d.completions.len(), 1);
        let c = &d.completions[0];
        assert_eq!(c.id, id);
        let (target, width) = if model {
            (ServeTarget::Model(ModelId(0)), 12)
        } else {
            (ServeTarget::Plan(PlanId(0)), 4)
        };
        assert_eq!(c.target, target);
        assert_eq!(c.output.shape(), (10, width));
        assert_eq!((c.preemptions, c.admitted, c.completed), (0, 0, 5));
        assert_eq!(c.output, reference(&s, c, &r));
        assert_eq!(s.kv_used_pages(), 0, "pages released on completion");
    }

    #[test]
    fn single_sequence_runs_to_completion() {
        serve_one(false, 16);
    }

    #[test]
    fn model_sequence_completes_bitwise_with_the_sequential_forward() {
        serve_one(true, 64);
    }

    #[test]
    fn mixed_plan_and_model_work_share_one_tick() {
        let (mut s, plan) = scheduler(config(4, 64, 4, 8, EvictionMode::Recompute));
        let a = s.submit(request(plan, 0, 4, 6, 21)).unwrap();
        let b = s.submit(model_request(ModelId(0), 0, 4, 6, 22)).unwrap();
        let r = s.tick().unwrap();
        assert_eq!(r.admitted, vec![a, b]);
        // One plan launch + one launch per layer of the 3-layer stack.
        assert_eq!(r.launches, 1 + 3);
        // 4 prefill rows for the plan sequence; the model sequence's 4
        // rows × 3 heads × 3 layers.
        assert_eq!(r.rows_computed, 4 + 4 * 3 * 3);
        let completions = drain(&mut s).completions;
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].target, ServeTarget::Plan(plan));
        assert_eq!(completions[1].target, ServeTarget::Model(ModelId(0)));
    }

    #[test]
    fn admission_respects_pages_and_in_flight_caps() {
        let (mut s, plan) = scheduler(config(1, 2, 4, 8, EvictionMode::Recompute));
        // Both fit the pool alone; the cap admits them one at a time.
        s.submit(request(plan, 0, 2, 3, 21)).unwrap();
        s.submit(request(plan, 0, 2, 3, 22)).unwrap();
        let r = s.tick().unwrap();
        assert_eq!(r.admitted.len(), 1);
        assert_eq!(s.in_flight_len(), 1);
        assert_eq!(s.pending_len(), 1);
        s.assert_kv_invariants();
        drain(&mut s);
    }

    #[test]
    fn paged_admission_packs_by_usage_not_worst_case() {
        // 8 pages × 4 tokens. Each request: 4-token prompt (1 page) but a
        // 24-token total (6 pages): paged admission packs all four
        // prompts into half the pool, where charging the worst case
        // would admit one.
        let (mut paged, plan) = scheduler(config(4, 8, 4, 8, EvictionMode::Recompute));
        for seed in 0..4 {
            paged.submit(request(plan, 0, 4, 24, 31 + seed)).unwrap();
        }
        let r = paged.tick().unwrap();
        assert_eq!(r.admitted.len(), 4, "paged admission packs by usage");
        assert_eq!(paged.kv_used_pages(), 4);
    }

    /// The two-sequence page squeeze on either flavor: pages of 2 tokens,
    /// two 2-prompt, 6-token sequences that each hold one page per layer
    /// after prefill and three at completion, in a pool of three pages
    /// per layer. Their first decode appends collide: the younger parks —
    /// every layer's cache, held in its record — resumes after the elder
    /// finishes, and both complete bitwise their sequential references.
    fn squeeze(model: bool, eviction: EvictionMode) -> Drained {
        let layers = if model { 3 } else { 1 };
        let (mut s, _) = scheduler(config(2, 3 * layers, 2, 4, eviction));
        let subs = [submission(model, 2, 6, 61), submission(model, 2, 6, 62)];
        let a = s.submit(subs[0].clone()).unwrap();
        let b = s.submit(subs[1].clone()).unwrap();
        let d = drain(&mut s);
        assert_eq!(d.preempted, vec![b], "the younger sequence is the victim");
        assert_eq!(d.resumed, vec![b]);
        assert_eq!(s.preemption_events(), 1);
        let ids: Vec<_> = d
            .completions
            .iter()
            .map(|c| (c.id, c.preemptions))
            .collect();
        assert_eq!(ids, vec![(a, 0), (b, 1)]);
        // Preempt-and-resume must not perturb a single bit of either
        // output.
        for (c, r) in d.completions.iter().zip(&subs) {
            assert_eq!(c.output, reference(&s, c, r));
        }
        // A stack's computed caches are held and counted, in either mode.
        // A plan victim's rows are its inputs: it parks nothing.
        assert_eq!(s.swap_peak_bytes() > 0, model, "only a stack parks bytes");
        assert_eq!(s.swap_parked_bytes(), 0, "resume empties the gauge");
        assert_eq!(s.kv_used_pages(), 0);
        d
    }

    #[test]
    fn preemption_parks_the_youngest_and_resumes_it_to_completion() {
        squeeze(false, EvictionMode::Recompute);
    }

    #[test]
    fn model_preemption_retains_every_layer_and_resumes_bitwise() {
        squeeze(true, EvictionMode::Recompute);
    }

    #[test]
    fn swap_eviction_resumes_plan_sequences_bitwise() {
        // Swap or not, a plan victim gives back only its pages: zero parked
        // bytes at any point, and a bitwise resume.
        assert_eq!(squeeze(false, EvictionMode::Swap).peak_parked, 0);
    }

    #[test]
    fn swap_eviction_resumes_model_stacks_bitwise() {
        // At park time the victim holds 2 prompt tokens across 3 layers
        // of 3 heads × dk 4 — the held stack is every layer.
        let peak_parked = squeeze(true, EvictionMode::Swap).peak_parked;
        assert!(
            peak_parked >= 3 * 2 * 3 * (4 + 4) * std::mem::size_of::<f64>(),
            "the parked entry must hold all three layers ({peak_parked} bytes)"
        );
    }

    /// The summed [`KvCache::kv_bytes`] of every parked stack, recomputed
    /// from the records.
    fn parked_stack_bytes<T: Real>(s: &Scheduler<'_, T>) -> usize {
        let held = |p: &Seq<T>| match &p.kv {
            Kv::Held(caches) => caches.iter().map(KvCache::kv_bytes).sum(),
            _ => 0,
        };
        s.parked.values().flatten().map(held).sum()
    }

    /// Replay `trace` to idle, checking the parked-bytes gauge after every
    /// tick: it equals the parked stacks' summed `kv_bytes`, its peak
    /// never falls, and both are 0 at idle. Returns the peak, the stack
    /// preemptions seen and the page ledger of every tick: `(kv_used_pages,
    /// kv_used_tokens, swap_parked_bytes, preemption_events)`.
    fn replay_checking_gauge<T: Real>(
        s: &mut Scheduler<'_, T>,
        trace: &[TraceEvent<T>],
    ) -> (usize, usize, Vec<Ledger>) {
        let (mut next, mut peak, mut stack_parks) = (0, 0, 0);
        let mut ledger = Vec::new();
        while next < trace.len() || !s.is_idle() {
            while next < trace.len() && trace[next].at <= s.now() {
                s.submit(trace[next].request.clone()).unwrap();
                next += 1;
            }
            let r = s.tick().unwrap();
            let stack =
                |id: &&RequestId| matches!(trace[id.0 as usize].request, Submission::Model(_));
            stack_parks += r.preempted.iter().filter(stack).count();
            assert_eq!(
                s.swap_parked_bytes(),
                parked_stack_bytes(s),
                "tick {}",
                r.tick
            );
            assert!(
                s.swap_peak_bytes() >= peak.max(s.swap_parked_bytes()),
                "the peak never falls"
            );
            peak = s.swap_peak_bytes();
            ledger.push((
                s.kv_used_pages(),
                s.kv_used_tokens(),
                s.swap_parked_bytes(),
                s.preemption_events(),
            ));
            assert!(s.now() < 10_000, "drains");
        }
        assert_eq!(
            (s.swap_parked_bytes(), parked_stack_bytes(s)),
            (0, 0),
            "idle parks nothing"
        );
        (peak, stack_parks, ledger)
    }

    type Ledger = (usize, usize, usize, u64);
    // The ledger of every tick of the stack squeeze below and of the
    // served-digest trace, captured while each layer of a stack was a pool
    // entry of its own: the pool's shape must not move a page or a token.
    #[rustfmt::skip]
    const SQUEEZE_LEDGER: &[Ledger] = &[
        (6, 12, 0, 0), (6, 9, 1152, 1), (6, 12, 1152, 1), (9, 15, 1152, 1), (0, 0, 1152, 1),
        (6, 9, 0, 1), (6, 12, 0, 1), (9, 15, 0, 1), (0, 0, 0, 1),
    ];
    #[rustfmt::skip]
    const SERVED_LEDGER: &[Ledger] = &[
        (6, 18, 0, 0), (18, 71, 0, 0), (27, 101, 0, 0), (24, 86, 1152, 1), (27, 99, 1152, 1),
        (24, 87, 1152, 2), (24, 92, 1152, 2), (27, 97, 1152, 2), (27, 102, 1152, 2),
        (25, 94, 1152, 3), (25, 98, 1152, 3), (21, 75, 1152, 3), (25, 91, 1152, 3),
        (25, 95, 1152, 3), (25, 99, 1152, 3), (0, 0, 1152, 3), (25, 85, 0, 3), (28, 107, 0, 3),
        (22, 75, 2304, 4), (22, 80, 2304, 4), (23, 85, 2304, 4), (23, 90, 2304, 4),
        (27, 95, 2304, 4), (27, 100, 2304, 4), (13, 48, 2304, 4), (22, 77, 0, 4), (25, 91, 0, 4),
        (25, 95, 0, 4), (18, 71, 0, 4), (27, 97, 0, 4), (28, 101, 0, 4), (26, 97, 0, 5),
        (26, 102, 0, 5), (25, 91, 0, 6), (26, 95, 0, 6), (26, 99, 0, 6), (5, 19, 0, 6),
        (15, 54, 0, 6), (17, 57, 0, 6), (17, 61, 0, 6), (17, 65, 0, 6), (18, 69, 0, 6),
        (21, 73, 0, 6), (14, 51, 0, 6), (17, 66, 0, 6), (18, 69, 0, 6), (21, 73, 0, 6),
        (21, 77, 0, 6), (21, 81, 0, 6), (22, 85, 0, 6), (17, 60, 0, 6), (17, 63, 0, 6),
        (11, 42, 0, 6), (5, 20, 0, 6), (6, 21, 0, 6), (6, 22, 0, 6), (6, 23, 0, 6),
        (6, 24, 0, 6), (7, 25, 0, 6), (0, 0, 0, 6),
    ];

    #[test]
    fn the_parked_bytes_gauge_counts_every_parked_stack() {
        for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
            // The squeeze, plan and stack: only a stack parks bytes. The
            // victim holds 2 tokens × 3 layers × 3 heads × (4 + 4) f64s.
            for model in [false, true] {
                let layers = if model { 3 } else { 1 };
                let (mut s, _) = scheduler(config(2, 3 * layers, 2, 4, eviction));
                let trace: Vec<_> = [61, 62]
                    .map(|seed| TraceEvent {
                        at: 0,
                        request: submission(model, 2, 6, seed),
                    })
                    .into();
                let (peak, stack_parks, ledger) = replay_checking_gauge(&mut s, &trace);
                assert_eq!(s.preemption_events(), 1);
                assert_eq!(stack_parks, usize::from(model));
                assert_eq!(peak, if model { 3 * 2 * 3 * 8 * 8 } else { 0 });
                if model {
                    assert_eq!(ledger, SQUEEZE_LEDGER, "{eviction:?}: the squeeze's ledger");
                }
            }
            // The configuration of `tests/digests.rs`'s served trace:
            // plan, `Auto` and three-layer stack sequences, both parked.
            let mut s = Scheduler::new(
                AttentionEngine::with_threads(1),
                ServeConfig {
                    max_in_flight: 4,
                    kv_pages: 28,
                    page_size: 4,
                    arrival_window: 0,
                    prefill_chunk: 6,
                    admission: AdmissionMode::PagedUsage,
                    eviction,
                    swap_bytes: usize::MAX,
                },
            )
            .unwrap();
            let local = AttentionPlan::single(AttentionKernel::Local { n: 20 }).unwrap();
            let dilated =
                AttentionPlan::single(AttentionKernel::Dilated1d { w: 40, r: 1 }).unwrap();
            let layers = vec![('F', local.clone()), ('S', dilated.clone())];
            let stack = DecoderModel::new(
                LayerPattern::parse("FSF").unwrap(),
                layers,
                8,
                2,
                4,
                0xD16E57,
            );
            let patterns = [
                PatternChoice::from(s.register_plan(local).unwrap()),
                PatternChoice::from(s.register_plan(dilated).unwrap()),
                PatternChoice::Auto,
            ];
            let model = s.register_model(stack.unwrap());
            let spec = TraceSpec {
                sequences: 12,
                prompt: (8, 20),
                decode: (6, 16),
                dk: 8,
                arrival_gap: (0, 1),
                priority_classes: 2,
                seed: 0xD16E57,
            };
            let trace = generate_trace::<f32, _>(&spec, &patterns, &[(model, 8)]);
            let (peak, stack_parks, ledger) = replay_checking_gauge(&mut s, &trace);
            assert_eq!(
                (stack_parks, peak),
                (2, 2304),
                "two stack parks, one at a time"
            );
            assert_eq!(ledger, SERVED_LEDGER, "{eviction:?}: the served ledger");
        }
    }

    #[test]
    fn cancelling_a_parked_stack_returns_its_bytes_to_the_gauge() {
        // The squeeze of `squeeze(true, _)`: three pages per layer of the
        // stack. The victim's held caches leave the gauge with it.
        let (mut s, _) = scheduler(config(2, 3 * 3, 2, 4, EvictionMode::Recompute));
        let _a = s.submit(model_request(ModelId(0), 0, 2, 6, 51)).unwrap();
        let b = s.submit(model_request(ModelId(0), 0, 2, 6, 52)).unwrap();
        while s.parked_len() == 0 {
            s.tick().unwrap();
        }
        let held = parked_stack_bytes(&s);
        assert!(held > 0, "b's caches are held");
        assert_eq!(s.swap_parked_bytes(), held);
        assert!(s.cancel(b), "parked cancel");
        assert_eq!(s.swap_parked_bytes(), 0, "cancel returns the bytes");
        assert_eq!(s.swap_peak_bytes(), held, "the peak stays");
        s.assert_kv_invariants();
        // The survivor still drains normally.
        drain(&mut s);
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn auto_pattern_resolves_by_cost_and_page_pressure() {
        // Two plans: a 1-wide local window (cheapest) and a 64-wide one
        // (dense at these lengths). Auto picks along the cheapest-first
        // ranking by free-page fraction.
        let mk = || {
            let mut s: Scheduler<'static, f64> = Scheduler::new(
                AttentionEngine::with_threads(2),
                config(4, 4, 4, 4, EvictionMode::Recompute),
            )
            .unwrap();
            let sparse = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap())
                .unwrap();
            let dense = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 64 }).unwrap())
                .unwrap();
            (s, sparse, dense)
        };
        let auto_request = |prompt: usize, total: usize, seed: u64| {
            let mut r = request(PlanId(0), 0, prompt, total, seed);
            r.pattern = PatternChoice::Auto;
            r
        };

        // Empty pool → free fraction 1 → the densest pattern.
        let (mut s, _, dense) = mk();
        let id = s.submit(auto_request(4, 4, 81)).unwrap();
        let completions = drain(&mut s).completions;
        let c = completions.iter().find(|c| c.id == id).unwrap();
        assert_eq!(
            c.target,
            ServeTarget::Plan(dense),
            "a wide-open pool affords the densest pattern"
        );

        // 3 of 4 pages taken → free fraction 1/4 → the sparsest.
        let (mut s, sparse, _) = mk();
        s.submit(request(PlanId(0), 0, 12, 12, 82)).unwrap();
        s.tick().unwrap(); // admits the hog: 3 pages held
        assert_eq!(s.pool.free_pages(), 1);
        let id = s.submit(auto_request(4, 4, 83)).unwrap();
        let completions = drain(&mut s).completions;
        let c = completions.iter().find(|c| c.id == id).unwrap();
        assert_eq!(
            c.target,
            ServeTarget::Plan(sparse),
            "a starved pool forces the sparsest pattern"
        );
        // The original Auto choice resolved at admission is what ran —
        // the output is bitwise the sequential serve under that plan.
        assert_eq!(c.output, reference(&s, c, &auto_request(4, 4, 83).into()));
    }

    #[test]
    fn arrival_window_delays_admission() {
        let (mut s, plan) = scheduler(ServeConfig {
            arrival_window: 2,
            ..ServeConfig::default()
        });
        s.submit(request(plan, 0, 2, 2, 31)).unwrap();
        assert!(s.tick().unwrap().admitted.is_empty(), "tick 0: batching");
        assert!(s.tick().unwrap().admitted.is_empty(), "tick 1: batching");
        let r = s.tick().unwrap();
        assert_eq!(r.admitted.len(), 1, "tick 2: eligible");
    }

    #[test]
    fn strict_priority_with_fifo_within_a_class() {
        let (mut s, plan) = scheduler(config(1, 8, 8, 8, EvictionMode::Recompute));
        let low_a = s.submit(request(plan, 3, 2, 2, 41)).unwrap();
        let low_b = s.submit(request(plan, 3, 2, 2, 42)).unwrap();
        let high = s.submit(request(plan, 0, 2, 2, 43)).unwrap();
        assert_eq!(drain(&mut s).admitted, vec![high, low_a, low_b]);
    }

    #[test]
    fn a_head_that_does_not_fit_blocks_lower_classes() {
        // Four pages of 4 tokens: `a` takes two, `b` needs three, and the
        // one-page class-1 `c` would fit beside `a` — but may not pass `b`.
        let (mut s, plan) = scheduler(config(4, 4, 4, 8, EvictionMode::Recompute));
        let a = s.submit(request(plan, 0, 8, 16, 44)).unwrap();
        let b = s.submit(request(plan, 0, 12, 12, 45)).unwrap();
        let c = s.submit(request(plan, 1, 4, 4, 46)).unwrap();
        assert_eq!(drain(&mut s).admitted, vec![a, b, c]);
    }

    #[test]
    fn cancel_pending_parked_and_in_flight() {
        // Same page-squeeze as the preemption test, plus a third pending
        // request, so all three cancel paths are exercised.
        let (mut s, plan) = scheduler(config(2, 3, 2, 4, EvictionMode::Recompute));
        let a = s.submit(request(plan, 0, 2, 6, 51)).unwrap();
        let b = s.submit(request(plan, 0, 2, 6, 52)).unwrap();
        let c = s.submit(request(plan, 1, 2, 6, 53)).unwrap();
        // Tick until b is parked by the page squeeze.
        for _ in 0..16 {
            if s.parked_len() > 0 {
                break;
            }
            s.tick().unwrap();
        }
        assert_eq!(s.parked_len(), 1, "b parked under page pressure");
        assert!(s.cancel(c), "pending cancel");
        assert!(s.cancel(b), "parked cancel");
        assert!(s.cancel(a), "in-flight cancel");
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert_eq!(s.kv_used_pages(), 0);
        assert!(s.is_idle());
        s.assert_kv_invariants();
    }

    #[test]
    fn debug_formats() {
        let (s, _) = scheduler(ServeConfig::default());
        assert!(format!("{s:?}").contains("Scheduler"));
    }
}
