//! Request, completion, and per-tick report types for the scheduler.

use gpa_tensor::Matrix;

/// Handle to a plan registered with a [`crate::Scheduler`] — requests name
/// the compiled plan they want to run under by this id.
/// The default id names the scheduler's **first** registered plan —
/// convenient for single-plan workloads and for trace generators whose
/// requests are retargeted at submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub(crate) usize);

/// Handle to a decoder model registered with a [`crate::Scheduler`] —
/// model requests name the registered [`gpa_model::DecoderModel`] they run
/// through by this id. The default id names the scheduler's **first**
/// registered model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub(crate) usize);

/// What a sequence runs on: a bare attention plan (a
/// [`Submission::Plan`]) or a full decoder stack (a
/// [`Submission::Model`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeTarget {
    /// A single compiled attention plan fed explicit q/k/v rows.
    Plan(PlanId),
    /// A registered decoder model fed embedding rows.
    Model(ModelId),
}

impl ServeTarget {
    /// The plan id, when the sequence ran on a bare plan.
    pub fn plan(&self) -> Option<PlanId> {
        match self {
            ServeTarget::Plan(id) => Some(*id),
            ServeTarget::Model(_) => None,
        }
    }

    /// The model id, when the sequence ran through a decoder stack.
    pub fn model(&self) -> Option<ModelId> {
        match self {
            ServeTarget::Plan(_) => None,
            ServeTarget::Model(id) => Some(*id),
        }
    }
}

/// Handle to a submitted request, assigned by
/// [`crate::Scheduler::submit`] in submission order (ids are strictly
/// increasing, which is what the FIFO invariants are stated against).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl RequestId {
    /// The id's position in submission order (0 for the first request a
    /// scheduler accepted, 1 for the second, …).
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// How a [`ServeRequest`] picks its attention pattern: name a registered
/// plan explicitly, or let the scheduler choose one at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatternChoice {
    /// Run under this registered plan, exactly as submitted.
    Explicit(PlanId),
    /// Let the scheduler pick at admission: the registered plans are
    /// ranked by [`gpa_core::AttentionPlan::estimated_edges`] for the
    /// request's prompt length (cheapest first), and the pool's free-page
    /// fraction indexes that ranking — a full pool affords the densest
    /// pattern, a starved pool forces the sparsest. The resolved plan is
    /// reported in [`Completion::target`], and the choice itself is kept
    /// so a rolled-back admission re-queues the request unresolved.
    Auto,
}

impl From<PlanId> for PatternChoice {
    fn from(plan: PlanId) -> Self {
        PatternChoice::Explicit(plan)
    }
}

impl Default for PatternChoice {
    fn default() -> Self {
        PatternChoice::Explicit(PlanId::default())
    }
}

/// One sequence's worth of serving work: a prompt to prefill plus the
/// query/key/value rows of every token it will generate.
///
/// The request owns its data (`total × dk` / `total × dv` matrices, where
/// `total = q.rows()`): rows `0..prompt` are the prompt, consumed by
/// chunked prefill; each row `t ≥ prompt` is one generated token, consumed
/// by one decode step per scheduler tick. In a real deployment the decode
/// rows would come from the model's projections token by token; here they
/// are part of the workload so traces are replayable and the output is
/// checkable bitwise against a sequential reference.
#[derive(Clone)]
pub struct ServeRequest<T> {
    /// The attention pattern this sequence runs under — a named plan or
    /// [`PatternChoice::Auto`].
    pub pattern: PatternChoice,
    /// Priority class — **lower is more urgent**; admission is strict
    /// priority across classes and FIFO within one.
    pub priority: u8,
    /// Rows of `q`/`k`/`v` that form the prompt (`1..=q.rows()`).
    pub prompt: usize,
    /// Query rows for every token, `total × dk`.
    pub q: Matrix<T>,
    /// Key rows for every token, `total × dk`.
    pub k: Matrix<T>,
    /// Value rows for every token, `total × dv`.
    pub v: Matrix<T>,
}

/// One decoder-stack sequence's worth of serving work: the embedding rows
/// for the prompt and for every token it will generate, run through a
/// registered [`gpa_model::DecoderModel`].
///
/// The request owns its input (`total × d_model`, where
/// `total = x.rows()`): rows `0..prompt` are the prompt, consumed by
/// chunked prefill; each row `t ≥ prompt` is one generated token's
/// embedding, consumed by one decode step per scheduler tick. As with
/// [`ServeRequest`], carrying the decode rows in the workload keeps traces
/// replayable and the output checkable bitwise against a sequential
/// reference.
#[derive(Clone)]
pub struct ModelRequest<T> {
    /// The registered decoder model this sequence runs through.
    pub model: ModelId,
    /// Priority class — **lower is more urgent**; admission is strict
    /// priority across classes and FIFO within one.
    pub priority: u8,
    /// Rows of `x` that form the prompt (`1..=x.rows()`).
    pub prompt: usize,
    /// Embedding rows for every token, `total × d_model`.
    pub x: Matrix<T>,
}

/// One request of either flavor — what [`crate::Scheduler::submit`]
/// accepts and what a [`crate::TraceEvent`] carries. A plan sequence is
/// the one-layer case of a decoder stack, so both flavors share one
/// submission path, one trace and one replay.
#[derive(Clone)]
pub enum Submission<T> {
    /// Explicit q/k/v rows through one attention plan.
    Plan(ServeRequest<T>),
    /// Embedding rows through a registered decoder model.
    Model(ModelRequest<T>),
}

impl<T: gpa_tensor::Real> Submission<T> {
    /// Rows that form the prompt.
    pub fn prompt(&self) -> usize {
        match self {
            Submission::Plan(r) => r.prompt,
            Submission::Model(r) => r.prompt,
        }
    }

    /// Total tokens (prompt + generated). Each cached token occupies a KV
    /// row in every layer, so a sequence's worst-case page bill is
    /// `layers × ceil(total / page_size)` (one layer for a plan).
    pub fn total_tokens(&self) -> usize {
        match self {
            Submission::Plan(r) => r.q.rows(),
            Submission::Model(r) => r.x.rows(),
        }
    }

    /// Priority class — lower is more urgent.
    pub fn priority(&self) -> u8 {
        match self {
            Submission::Plan(r) => r.priority,
            Submission::Model(r) => r.priority,
        }
    }
}

impl<T> From<ServeRequest<T>> for Submission<T> {
    fn from(request: ServeRequest<T>) -> Self {
        Submission::Plan(request)
    }
}

impl<T> From<ModelRequest<T>> for Submission<T> {
    fn from(request: ModelRequest<T>) -> Self {
        Submission::Model(request)
    }
}

/// A finished sequence: its full `total × dv` attention output plus the
/// virtual-clock timestamps of its lifecycle.
#[derive(Clone)]
pub struct Completion<T> {
    /// The id [`crate::Scheduler::submit`] returned for this sequence.
    pub id: RequestId,
    /// The request's priority class.
    pub priority: u8,
    /// What the sequence ran on: a bare plan or a decoder model.
    pub target: ServeTarget,
    /// Output for every token (`total × dv` for a plan sequence,
    /// `total × d_model` for a model sequence); rows `0..prompt` from
    /// prefill, the rest one decode row per tick.
    pub output: Matrix<T>,
    /// Tick at which the request was submitted.
    pub submitted: u64,
    /// Tick at which it was admitted into a KV slot.
    pub admitted: u64,
    /// Tick at which its last row was computed.
    pub completed: u64,
    /// Times the sequence was preempted (evicted and later resumed)
    /// between admission and completion; 0 for an uninterrupted run.
    pub preemptions: u32,
}

impl<T> Completion<T> {
    /// End-to-end latency in ticks (submission to completion, inclusive of
    /// the completing tick).
    pub fn latency_ticks(&self) -> u64 {
        self.completed - self.submitted + 1
    }

    /// Ticks spent queued before admission.
    pub fn queue_ticks(&self) -> u64 {
        self.admitted - self.submitted
    }
}

impl<T> std::fmt::Debug for Completion<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("target", &self.target)
            .field("submitted", &self.submitted)
            .field("admitted", &self.admitted)
            .field("completed", &self.completed)
            .field("preemptions", &self.preemptions)
            .finish_non_exhaustive()
    }
}

/// What one [`crate::Scheduler::tick`] did.
pub struct TickReport<T> {
    /// The virtual time this tick executed at.
    pub tick: u64,
    /// Requests admitted into the KV pool for the first time this tick,
    /// in admission order.
    pub admitted: Vec<RequestId>,
    /// Preempted sequences re-admitted from their resume queues this
    /// tick, in resume order.
    pub resumed: Vec<RequestId>,
    /// Sequences evicted to resume queues this tick, in admission order.
    pub preempted: Vec<RequestId>,
    /// Batched launches issued: one per distinct plan with runnable work,
    /// plus — for each model with runnable work — one per distinct plan
    /// per layer of that model's stack.
    pub launches: usize,
    /// Total attention rows computed across those launches (prefill-chunk
    /// rows plus one row per decoding sequence; model sequences count each
    /// of their layers).
    pub rows_computed: usize,
    /// Sequences that finished this tick, in completion order.
    pub completed: Vec<Completion<T>>,
}

impl<T> std::fmt::Debug for TickReport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickReport")
            .field("tick", &self.tick)
            .field("admitted", &self.admitted)
            .field("resumed", &self.resumed)
            .field("preempted", &self.preempted)
            .field("launches", &self.launches)
            .field("rows_computed", &self.rows_computed)
            .field("completed", &self.completed)
            .finish()
    }
}
