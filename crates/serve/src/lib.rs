#![warn(missing_docs)]
//! # gpa-serve — continuous-batching serving on the attention engine
//!
//! The paper's kernels compute one sequence per launch; PR 3's geometry
//! refactor made one launch mix full squares, prefill-chunk windows, and
//! single decode rows. This crate adds the missing serving layer on top:
//! a **continuous-batching scheduler** ([`Scheduler`]) that owns an
//! [`gpa_core::AttentionEngine`], queues requests per priority class,
//! admits them under an explicit policy (arrival-batching window, max
//! in-flight sequences, block-paged KV over a [`gpa_core::PagePool`]),
//! and on every virtual-clock tick flattens *all* runnable work — each
//! prefilling sequence's next chunk plus each decoding sequence's next
//! token — into one batched launch per plan. That is the regime where
//! sparse serving wins: per-token launch overhead is paid once per tick,
//! not once per sequence, and block-sparse patterns keep the pool
//! saturated with mixed prefill/decode work.
//!
//! ## Paged KV: admission on usage, not worst case
//!
//! KV memory is a pool of fixed-size pages. A sequence is one pool entry
//! whose page table holds exactly the pages its tokens occupy in each of
//! its layers, growing by grants as decode rows cross page boundaries. A
//! plan sequence's K/V rows are its own inputs, so its entry holds no
//! cache and every launch reads its K/V in place; only a decoder stack's
//! computed K/V live in pool caches, one per layer. Admission charges a sequence its
//! *current* page need, not its worst-case length — the difference is
//! stark. Take 16-token prompts with a 4096-token generation cap on a
//! 4096-token pool (256 pages of 16): charging the worst case would fill
//! the pool with **one** sequence while 255 pages sit idle (an earlier
//! revision shipped that policy as an A/B baseline; it lost and is gone);
//! paged admission charges the one page the prompt occupies, packing
//! dozens of sequences into the same pool. The price is
//! oversubscription: when decode growth outruns the free list, the
//! scheduler **preempts** the lowest-priority, most-recently admitted
//! sequence — its pages are released and it parks on a resume queue,
//! continuing when pages free up. There is one park/resume path: a plan
//! victim keeps nothing but its inputs and resumes by reserving its pages
//! again, `O(1)` in context length; a decoder stack's computed caches are
//! held in its record, outside the pool, counted by one parked-bytes
//! gauge ([`Scheduler::swap_parked_bytes`]), and re-adopted in `O(1)`.
//! ([`EvictionMode`] has no effect; it stays for the serving benchmark.)
//! Preempted-and-resumed sequences complete **bitwise equal** to their
//! uninterrupted runs, and the most urgent sequence is never evicted, so
//! the pool cannot livelock;
//! `docs/SERVING.md` has the full preemption/resume state machine.
//!
//! Everything is deterministic: time is a tick counter, admission order is
//! a pure function of (priority, submission order, fit), and batched
//! per-row work is identical to sequential per-sequence work — so every
//! completed sequence's output is **bitwise equal** to the naive
//! one-sequence-at-a-time serve ([`sequential_reference`]), a property
//! `tests/serving_sim.rs` checks across dozens of randomized seeded
//! traces along with the scheduler invariants (page conservation, no
//! page double-mapped, no starvation, FIFO within a priority class,
//! atomic rollback on launch failure).
//!
//! ## Example
//!
//! ```
//! use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
//! use gpa_serve::{
//!     generate_trace, replay, sequential_reference, AdmissionMode, ServeConfig, Scheduler,
//!     Submission, TraceSpec,
//! };
//!
//! // A scheduler owning its engine: admit at most 4 sequences into a
//! // paged KV pool of 32 pages × 8 tokens, prefill in chunks of 8
//! // query rows, admission charged on current page usage.
//! let mut scheduler: Scheduler<'static, f32> = Scheduler::new(
//!     AttentionEngine::with_threads(2),
//!     ServeConfig {
//!         max_in_flight: 4,
//!         kv_pages: 32,
//!         page_size: 8,
//!         arrival_window: 1,
//!         prefill_chunk: 8,
//!         admission: AdmissionMode::PagedUsage,
//!         ..ServeConfig::default()
//!     },
//! )
//! .unwrap();
//!
//! // One length-free plan serves every prefill chunk and decode row.
//! let plan = scheduler
//!     .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 4 }).unwrap())
//!     .unwrap();
//!
//! // A seeded workload: 6 sequences, mixed prompt/decode lengths and
//! // arrival times (no decoder models), replayed on the scheduler's
//! // virtual clock.
//! let trace: Vec<gpa_serve::TraceEvent<f32>> = generate_trace(
//!     &TraceSpec {
//!         sequences: 6,
//!         prompt: (4, 12),
//!         decode: (0, 6),
//!         dk: 8,
//!         arrival_gap: (0, 2),
//!         priority_classes: 2,
//!         seed: 42,
//!     },
//!     &[plan],
//!     &[],
//! );
//! let completions = replay(&mut scheduler, &trace, 10_000).unwrap();
//! assert_eq!(completions.len(), 6);
//!
//! // Continuous batching changes the schedule, never the numbers: each
//! // output is bitwise the naive one-sequence-at-a-time serve. Request
//! // ids are trace positions.
//! for c in &completions {
//!     let Submission::Plan(request) = &trace[c.id.as_u64() as usize].request else {
//!         unreachable!("a plan-only workload");
//!     };
//!     let plan = c.target.plan().expect("a plan-only workload");
//!     let expect = sequential_reference(
//!         scheduler.engine(),
//!         scheduler.plan(plan),
//!         request,
//!         scheduler.config().prefill_chunk,
//!     )
//!     .unwrap();
//!     assert_eq!(c.output, expect);
//! }
//! ```
//!
//! ## Decoder-model sequences
//!
//! A request can target a registered [`gpa_model::DecoderModel`] instead
//! of a bare plan ([`Scheduler::register_model`], then
//! [`Scheduler::submit`] of a [`ModelRequest`]; traces draw both flavors
//! into one [`TraceEvent`] stream, one [`replay`] drives it): the
//! sequence's embedding rows run through the model's whole layer stack —
//! heterogeneous Full/Sparse plans per layer — with one KV cache per
//! layer in its one pool entry, every page of which is counted by
//! the same admission, preemption, and rollback code — inside the
//! scheduler both flavors are one sequence record, a plan sequence being
//! the one-layer case (an `L`-layer sequence bills `L ×` the pages of a
//! plan sequence of the same length). Preempted model sequences keep
//! their layer caches intact and re-adopt them on resume, so
//! completions remain bitwise equal to
//! [`sequential_model_reference`]. `examples/continuous_serving.rs` serves
//! a 12-layer bookend stack under page pressure.
//!
//! ## Pattern selection at admission
//!
//! A plan request carries a [`PatternChoice`]: either a registered plan
//! named explicitly, or [`PatternChoice::Auto`], resolved once at
//! admission — the registered plans are ranked by
//! [`gpa_core::AttentionPlan::estimated_edges`] at the request's prompt
//! length, and the KV pool's free-page fraction indexes that ranking, so
//! a full pool affords the densest pattern while a starved pool forces
//! the sparsest. Every registered plan is a static mask, so a tick still
//! issues one launch per distinct plan whatever choices its sequences
//! made. The resolved plan is reported in [`Completion::target`] (the
//! original choice stays on the request), and completions — explicit or
//! `Auto` — remain bitwise equal to their per-plan
//! [`sequential_reference`].
//!
//! `examples/continuous_serving.rs` walks all of this in one trace —
//! explicit, `Auto` and stack requests under page pressure — checks every
//! completion bitwise and times it against the sequential baseline. Throughput, tick and request
//! latency percentiles, admission and preemption counts are measured by
//! the serving benchmark: `bash benchmark/run.sh --workload decode_swarm`
//! (plan sequences in flight), `--workload evict_churn` (page pressure),
//! `--workload stack_serve` (a 12-layer decoder stack under Swap
//! eviction); add `--trace 1` for the per-layer ladder.

pub mod error;
pub mod request;
pub mod scheduler;
pub mod trace;

pub use error::ServeError;
pub use request::{
    Completion, ModelId, ModelRequest, PatternChoice, PlanId, RequestId, ServeRequest, ServeTarget,
    Submission, TickReport,
};
pub use scheduler::{AdmissionMode, EvictionMode, Scheduler, ServeConfig};
pub use trace::{
    generate_trace, replay, sequential_model_reference, sequential_reference, TraceEvent, TraceSpec,
};
