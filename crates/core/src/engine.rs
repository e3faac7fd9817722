//! `AttentionEngine` — the only way to launch a graph kernel.
//!
//! An engine owns the execution substrate (worker pool) and the launch
//! policy (schedule, scale override, optional work counting), compiles
//! kernel compositions into reusable [`AttentionPlan`]s, and executes them
//! against single sequences or whole batches:
//!
//! ```
//! use gpa_core::{AttentionEngine, AttentionKernel, AttentionRequest};
//! use gpa_tensor::init::qkv;
//!
//! let engine = AttentionEngine::with_threads(2);
//! let plan = engine.compile(&[AttentionKernel::Local { n: 4 }]).unwrap();
//!
//! // One sequence…
//! let (q, k, v) = qkv::<f32>(64, 8, 1);
//! let out = engine.run(&plan, &q, &k, &v).unwrap();
//! assert_eq!(out.shape(), (64, 8));
//!
//! // …or a ragged batch through the same plan, in one launch.
//! let (q2, k2, v2) = qkv::<f32>(48, 8, 2);
//! let outs = engine
//!     .run_batch(
//!         &plan,
//!         &[AttentionRequest::new(&q, &k, &v), AttentionRequest::new(&q2, &k2, &v2)],
//!     )
//!     .unwrap();
//! assert_eq!(outs.len(), 2);
//! ```
//!
//! Every plan is a chain of graph row rules, and every entry point here —
//! `run`, `run_kernel`, the `run_batch*` family, chunked prefill, decode —
//! is a thin wrapper over one row loop ([`crate::batch`]); the multi-head
//! layer's one forward ([`crate::MultiHeadAttention::forward_on`])
//! launches through [`AttentionEngine::run_batch`], so a row computes the
//! same bits whichever of them launched it. The dense baselines
//! ([`crate::masked_sdp`], [`crate::flash_attention`]) are not plans: they
//! are plain functions, called with [`AttentionEngine::pool`] and
//! [`AttentionEngine::options`], and they are what tests compare the graph
//! kernels against.

use crate::batch::{execute_batch, execute_batch_into, execute_batch_states, AttentionRequest};
use crate::cache::{KvCache, KvPrecision};
use crate::dispatch::AttentionKernel;
use crate::error::AttnError;
use crate::options::KernelOptions;
use crate::plan::AttentionPlan;
use crate::routing::Router;
use crate::state::AttentionState;
use gpa_parallel::{default_threads, Schedule, ThreadPool, WorkCounter, WorkReport};
use gpa_tensor::{Matrix, Real};

/// Builder for [`AttentionEngine`] — threads, schedule, scale, work
/// counting.
#[derive(Clone, Copy, Debug, Default)]
pub struct AttentionEngineBuilder {
    threads: Option<usize>,
    schedule: Schedule,
    scale: Option<f64>,
    count_work: bool,
    kv_precision: KvPrecision,
}

impl AttentionEngineBuilder {
    /// Participants in each launch, the calling thread included: the
    /// engine's pool spawns `threads − 1` helper threads, and `1` means
    /// every launch runs inline on the caller (default: `GPA_THREADS` or
    /// all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Row-block scheduling policy for every launch this engine issues.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Override the attention scale (default: Eq. (1)'s `1/√dk`).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Attach an engine-owned [`WorkCounter`] so every run is tallied —
    /// read it back via [`AttentionEngine::work_report`].
    pub fn count_work(mut self, enabled: bool) -> Self {
        self.count_work = enabled;
        self
    }

    /// Storage precision for KV caches created through
    /// [`AttentionEngine::new_cache`], the only constructor that honours
    /// it: [`KvPrecision::F16`] emulates FP16 storage with full-precision
    /// compute (quantize on append, compute in `T`; the verification suite
    /// gates its error bounds, see [`crate::verify::F16_KV_ATOL`]). The
    /// scheduler's [`crate::PagePool`] builds its caches with
    /// [`KvCache::single`]/[`KvCache::new`] and never sees this setting.
    pub fn kv_precision(mut self, precision: KvPrecision) -> Self {
        self.kv_precision = precision;
        self
    }

    /// Build the engine (spawns the pool's helper threads).
    pub fn build(self) -> AttentionEngine {
        AttentionEngine {
            pool: ThreadPool::new(self.threads.unwrap_or_else(default_threads)),
            schedule: self.schedule,
            scale: self.scale,
            counter: self.count_work.then(WorkCounter::new),
            kv_precision: self.kv_precision,
        }
    }
}

/// The workspace's execution front door: a worker pool plus launch policy,
/// compiling and running [`AttentionPlan`]s. See the [module
/// docs](self) for an end-to-end example.
pub struct AttentionEngine {
    pool: ThreadPool,
    schedule: Schedule,
    scale: Option<f64>,
    counter: Option<WorkCounter>,
    kv_precision: KvPrecision,
}

impl Default for AttentionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AttentionEngine {
    /// Engine with default policy and the library's default thread count.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Engine with default policy whose launches have `threads`
    /// participants, the calling thread included (so `threads − 1` helper
    /// threads are spawned; see [`gpa_parallel::ThreadPool::new`]).
    pub fn with_threads(threads: usize) -> Self {
        Self::builder().threads(threads).build()
    }

    /// Start configuring an engine.
    pub fn builder() -> AttentionEngineBuilder {
        AttentionEngineBuilder::default()
    }

    /// The engine's worker pool — what the dense baselines and code with
    /// launches of its own (projections, the decoder stack) run on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Participants in each launch, the calling thread included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The engine's scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The KV storage precision this engine's caches use.
    pub fn kv_precision(&self) -> KvPrecision {
        self.kv_precision
    }

    /// An empty single-head [`KvCache`] for this engine's serving surface
    /// ([`Self::prefill_chunked`] / [`Self::decode_step`]), created with
    /// the engine's [`KvPrecision`].
    pub fn new_cache<T: Real>(&self, dk: usize, dv: usize) -> KvCache<T> {
        KvCache::with_precision(1, dk, dv, self.kv_precision)
    }

    /// The launch options every engine run uses — schedule, scale, and
    /// the engine's counter — in [`KernelOptions`] form: what a dense
    /// baseline called directly takes, so it runs under the engine's
    /// policy and is tallied by its counter.
    pub fn options(&self) -> KernelOptions<'_> {
        KernelOptions {
            schedule: self.schedule,
            counter: self.counter.as_ref(),
            scale: self.scale,
        }
    }

    /// The engine-owned work counter, when enabled at build time.
    pub fn work_counter(&self) -> Option<&WorkCounter> {
        self.counter.as_ref()
    }

    /// Snapshot of the engine's work tallies (None unless built with
    /// `count_work(true)`).
    pub fn work_report(&self) -> Option<WorkReport> {
        self.counter.as_ref().map(WorkCounter::report)
    }

    /// Reset the engine's work tallies.
    pub fn reset_work(&self) {
        if let Some(counter) = &self.counter {
            counter.reset();
        }
    }

    /// Compile a kernel composition into a reusable plan (geometry and
    /// parameters validated once — see [`AttentionPlan::new`]).
    pub fn compile<'a>(
        &self,
        kernels: &[AttentionKernel<'a>],
    ) -> Result<AttentionPlan<'a>, AttnError> {
        AttentionPlan::new(kernels)
    }

    /// Run a plan over one sequence. A routed plan routes `q`'s rows
    /// itself, so the convenience entry needs no caller-held
    /// [`crate::Routing`] (batched callers attach one per request via
    /// [`AttentionRequest::with_routing`]).
    pub fn run<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Result<Matrix<T>, AttnError> {
        let routing = plan.routing_spec().map(|spec| Router::new(spec).route(q));
        let request = AttentionRequest::new(q, k, v).with_routing(routing.as_ref());
        let mut outs = self.run_batch(plan, &[request])?;
        Ok(outs.pop().expect("one request, one output"))
    }

    /// Run a plan over a batch of requests in one flattened launch,
    /// returning one output per request (in order). Requests may have
    /// ragged lengths when the plan's geometry allows it
    /// ([`AttentionPlan::kv_pin`] is `None`), and may mix full squares,
    /// prefill-chunk windows, and decode rows — each request carries its
    /// own [`crate::Geometry`].
    pub fn run_batch<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        requests: &[AttentionRequest<'_, T>],
    ) -> Result<Vec<Matrix<T>>, AttnError> {
        execute_batch(&self.pool, plan, &self.options(), requests)
    }

    /// Run a plan over a batch and return the full per-request
    /// [`AttentionState`]s — the `(O, l, m)` triples at rest. It stays
    /// public because the numerics-contract tests read each row's `l` and
    /// `m` through it.
    pub fn run_batch_states<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        requests: &[AttentionRequest<'_, T>],
    ) -> Result<Vec<AttentionState<T>>, AttnError> {
        execute_batch_states(&self.pool, plan, &self.options(), requests)
    }

    /// Run a plan over a batch **in place**: request `s` writes its
    /// `rows × dv` output rows, row-major, into `windows[s]` — memory the
    /// caller owns and keeps, such as the rows of a longer output matrix
    /// where they stay. Bitwise [`Self::run_batch`] without the output
    /// matrices (and, with [`AttentionRequest::row_range`], without the
    /// query windows either). This is the loop every batch entry point
    /// runs; the others allocate their windows and call it.
    ///
    /// A window's contents on entry are ignored — each row is zeroed
    /// before its first stream, so a row with no edges comes out `0.0`
    /// whatever the window held. Every request, the window count and every
    /// window length are checked before any window is touched; after an
    /// `Err` the windows are as they were.
    pub fn run_batch_into<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        requests: &[AttentionRequest<'_, T>],
        windows: &mut [&mut [T]],
    ) -> Result<(), AttnError> {
        execute_batch_into(&self.pool, plan, &self.options(), requests, windows)
    }

    /// Chunked prefill: append a prompt's `K`/`V` rows to `cache`
    /// (single-head), then compute the prompt's query rows in windows of
    /// `chunk` rows — **one** flattened launch mixing every chunk, each a
    /// [`crate::Geometry`] window against the full cache contents.
    ///
    /// Because the kernels see absolute query indices, the stitched output
    /// is bitwise identical to the square forward over the cache for *any*
    /// chunk split (property-tested in `tests/geometry.rs`). Returns the
    /// prompt's `q.rows() × dv` outputs.
    pub fn prefill_chunked<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        chunk: usize,
        cache: &mut KvCache<T>,
    ) -> Result<Matrix<T>, AttnError> {
        if cache.heads() != 1 {
            return Err(AttnError::BadParameter {
                what: "engine-level prefill takes a single-head cache",
            });
        }
        if chunk == 0 {
            return Err(AttnError::BadParameter {
                what: "prefill chunk size must be positive",
            });
        }
        if q.rows() != k.rows() || q.rows() != v.rows() {
            return Err(AttnError::ContextLengthMismatch {
                q: q.rows(),
                k: k.rows(),
                v: v.rows(),
            });
        }
        if k.cols() != cache.dk() || v.cols() != cache.dv() {
            return Err(AttnError::BadParameter {
                what: "K/V widths do not match the cache's dk/dv",
            });
        }
        let prior = cache.len();
        cache.extend(0, k, v);
        // A routed plan routes the whole prompt up front — one pure
        // per-row pass, so any chunk split sees identical assignments.
        if let Some(spec) = plan.routing_spec() {
            if let Err(e) = cache.extend_routing(spec, 0, q) {
                cache.truncate(prior);
                return Err(e);
            }
        }
        // Every chunk is a row range of `q`, written straight into its
        // rows of the stitched output (`dv > 0`: it is the cache's).
        let (prompt, dv) = (q.rows(), v.cols());
        let chunk = chunk.min(prompt.max(1));
        let mut stitched = Matrix::zeros(prompt, dv);
        let result = {
            let cache = &*cache;
            let requests: Vec<AttentionRequest<'_, T>> = (0..prompt)
                .step_by(chunk)
                .map(|a| {
                    let rows = a..(a + chunk).min(prompt);
                    AttentionRequest::row_range(q, rows, cache.k(0), cache.v(0), prior + a)
                        .with_routing(cache.routing(0))
                })
                .collect();
            let mut windows: Vec<&mut [T]> =
                stitched.as_mut_slice().chunks_mut(chunk * dv).collect();
            self.run_batch_into(plan, &requests, &mut windows)
        };
        if let Err(e) = result {
            // Per-request validation failed (e.g. a length-pinned plan):
            // roll the append back so the cache still
            // mirrors the logical token stream.
            cache.truncate(prior);
            return Err(e);
        }
        Ok(stitched)
    }

    /// One KV-cached decode step: append the new token's key/value rows
    /// (`k_t`/`v_t`, one row each) to `cache` (single-head), then compute
    /// the token's attention output — a single
    /// [`crate::Geometry::decode`] row over the cache, exactly the last
    /// row of the square forward over every token cached so far.
    ///
    /// Implicit-kernel plans pin no length, so **one** compiled plan
    /// serves every step of the growing cache. The step is validated
    /// before the cache is touched, and a failed launch truncates the
    /// append back: the cache still mirrors the logical token stream.
    pub fn decode_step<T: Real>(
        &self,
        plan: &AttentionPlan<'_>,
        q_t: &Matrix<T>,
        k_t: &Matrix<T>,
        v_t: &Matrix<T>,
        cache: &mut KvCache<T>,
    ) -> Result<Matrix<T>, AttnError> {
        if cache.heads() != 1 {
            return Err(AttnError::BadParameter {
                what: "engine-level decode takes a single-head cache",
            });
        }
        if q_t.rows() != 1 || k_t.rows() != 1 || v_t.rows() != 1 {
            return Err(AttnError::ContextLengthMismatch {
                q: q_t.rows(),
                k: k_t.rows(),
                v: v_t.rows(),
            });
        }
        if k_t.cols() != cache.dk() || v_t.cols() != cache.dv() {
            return Err(AttnError::BadParameter {
                what: "K/V widths do not match the cache's dk/dv",
            });
        }
        let prior = cache.len();
        cache.append(0, k_t.row(0), v_t.row(0));
        // A routed plan routes the new token from its query row — the same
        // pure per-row function prefill used, so the decode row joins the
        // exact group the square forward would put it in.
        if let Some(spec) = plan.routing_spec() {
            if let Err(e) = cache.extend_routing(spec, 0, q_t) {
                cache.truncate(prior);
                return Err(e);
            }
        }
        let request =
            AttentionRequest::decode(q_t, cache.k(0), cache.v(0)).with_routing(cache.routing(0));
        let result = self.run_batch(plan, &[request]);
        match result {
            Ok(mut outs) => Ok(outs.pop().expect("one request, one output")),
            Err(e) => {
                cache.truncate(prior);
                Err(e)
            }
        }
    }

    /// Compile-and-run convenience for one-shot kernel calls.
    pub fn run_kernel<T: Real>(
        &self,
        kernel: AttentionKernel<'_>,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> Result<Matrix<T>, AttnError> {
        self.run(&AttentionPlan::single(kernel)?, q, k, v)
    }
}

impl std::fmt::Debug for AttentionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttentionEngine")
            .field("threads", &self.threads())
            .field("schedule", &self.schedule)
            .field("scale", &self.scale)
            .field("count_work", &self.counter.is_some())
            .field("kv_precision", &self.kv_precision)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_masks::{LocalWindow, MaskPattern};
    use gpa_tensor::init::qkv;

    #[test]
    fn builder_configures_policy() {
        let engine = AttentionEngine::builder()
            .threads(2)
            .schedule(Schedule::StaticContiguous)
            .scale(1.0)
            .count_work(true)
            .build();
        assert_eq!(engine.threads(), 2);
        assert_eq!(engine.schedule(), Schedule::StaticContiguous);
        let opts = engine.options();
        assert_eq!(opts.scale, Some(1.0));
        assert!(opts.counter.is_some());
        assert!(engine.work_report().is_some());
    }

    #[test]
    fn engine_counts_work_across_runs() {
        let engine = AttentionEngine::builder()
            .threads(2)
            .count_work(true)
            .build();
        let l = 20;
        let (q, k, v) = qkv::<f64>(l, 4, 81);
        let pat = LocalWindow::new(l, 2);
        let plan = engine.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
        let _ = engine.run(&plan, &q, &k, &v).unwrap();
        let _ = engine.run(&plan, &q, &k, &v).unwrap();
        let report = engine.work_report().unwrap();
        assert_eq!(report.dot_products, 2 * pat.nnz() as u64);
        engine.reset_work();
        assert_eq!(engine.work_report().unwrap().dot_products, 0);
    }

    #[test]
    fn engine_scale_override_applies() {
        let engine = AttentionEngine::builder().threads(2).scale(0.0).build();
        let l = 16;
        let (q, k, v) = qkv::<f64>(l, 4, 82);
        let plan = engine.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
        let flat = engine.run(&plan, &q, &k, &v).unwrap();
        let default_engine = AttentionEngine::with_threads(2);
        let scaled = default_engine.run(&plan, &q, &k, &v).unwrap();
        assert!(flat.max_abs_diff(&scaled) > 1e-9);
    }

    #[test]
    fn run_kernel_convenience() {
        let engine = AttentionEngine::with_threads(2);
        let (q, k, v) = qkv::<f64>(24, 8, 83);
        let out = engine
            .run_kernel(AttentionKernel::Local { n: 2 }, &q, &k, &v)
            .unwrap();
        let plan = engine.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
        assert_eq!(out, engine.run(&plan, &q, &k, &v).unwrap());
        // Parameters are checked by the compile it does, not skipped.
        assert!(engine
            .run_kernel(AttentionKernel::Dilated1d { w: 0, r: 0 }, &q, &k, &v)
            .is_err());
    }

    #[test]
    fn prefill_chunked_is_bitwise_the_square_forward() {
        let engine = AttentionEngine::with_threads(3);
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 84);
        let plan = engine.compile(&[AttentionKernel::Local { n: 4 }]).unwrap();
        let full = engine.run(&plan, &q, &k, &v).unwrap();
        for chunk in [1usize, 7, 16, 40, 100] {
            let mut cache = crate::KvCache::single(8, 8);
            let out = engine
                .prefill_chunked(&plan, &q, &k, &v, chunk, &mut cache)
                .unwrap();
            assert_eq!(out, full, "chunk={chunk}");
            assert_eq!(cache.len(), l);
        }
    }

    #[test]
    fn decode_step_reproduces_the_square_prefix_rows() {
        let engine = AttentionEngine::with_threads(2);
        let l = 24;
        let (q, k, v) = qkv::<f64>(l, 4, 85);
        let plan = engine.compile(&[AttentionKernel::Local { n: 3 }]).unwrap();
        let mut cache = crate::KvCache::single(4, 4);
        for t in 0..l {
            let out = engine
                .decode_step(
                    &plan,
                    &q.rows_slice(t, t + 1),
                    &k.rows_slice(t, t + 1),
                    &v.rows_slice(t, t + 1),
                    &mut cache,
                )
                .unwrap();
            // Exactly the last row of the square forward over tokens 0..=t.
            let prefix = engine
                .run(
                    &plan,
                    &q.rows_slice(0, t + 1),
                    &k.rows_slice(0, t + 1),
                    &v.rows_slice(0, t + 1),
                )
                .unwrap();
            assert_eq!(out.row(0), prefix.row(t), "step {t}");
        }
        assert_eq!(cache.len(), l);
    }

    #[test]
    fn serving_surface_rejects_bad_inputs() {
        let engine = AttentionEngine::with_threads(1);
        let plan = engine.compile(&[AttentionKernel::Local { n: 1 }]).unwrap();
        let (q, k, v) = qkv::<f64>(4, 4, 86);
        let mut multi = crate::KvCache::new(2, 4, 4);
        assert!(engine
            .prefill_chunked(&plan, &q, &k, &v, 2, &mut multi)
            .is_err());
        let mut cache = crate::KvCache::single(4, 4);
        assert!(engine
            .prefill_chunked(&plan, &q, &k, &v, 0, &mut cache)
            .is_err());
        assert!(engine.decode_step(&plan, &q, &k, &v, &mut cache).is_err());
        // Nothing was appended by the failed calls.
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_launches_roll_the_cache_back() {
        // A plan that passes the pre-append checks but fails per-request
        // validation (length-pinned Global at the wrong context) must not
        // leave phantom tokens behind.
        let engine = AttentionEngine::with_threads(1);
        let (q, k, v) = qkv::<f64>(4, 4, 87);
        let globals = gpa_masks::GlobalSet::new(99, vec![0]);
        let pinned = engine
            .compile(&[AttentionKernel::Global {
                globals: &globals,
                n_sub: 0,
            }])
            .unwrap();
        let mut cache = crate::KvCache::single(4, 4);
        assert!(engine
            .prefill_chunked(&pinned, &q, &k, &v, 2, &mut cache)
            .is_err());
        assert!(cache.is_empty(), "failed prefill must roll back");

        let ok = engine.compile(&[AttentionKernel::Local { n: 1 }]).unwrap();
        engine
            .prefill_chunked(&ok, &q, &k, &v, 2, &mut cache)
            .unwrap();
        let one = q.rows_slice(0, 1);
        assert!(engine
            .decode_step(&pinned, &one, &one, &one, &mut cache)
            .is_err());
        assert_eq!(cache.len(), 4, "failed decode must roll back");
        // Width mismatches are rejected before any mutation.
        let wide = Matrix::<f64>::zeros(1, 5);
        assert!(engine
            .decode_step(&ok, &one, &wide, &one, &mut cache)
            .is_err());
        assert_eq!(cache.len(), 4);
        // And the rolled-back cache still decodes correctly.
        engine
            .decode_step(&ok, &one, &one, &one, &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn compile_rejects_bad_compositions_before_any_data_exists() {
        let engine = AttentionEngine::with_threads(1);
        assert!(engine.compile(&[]).is_err());
        let (a, b) = (
            LocalWindow::new(8, 1).to_csr(),
            LocalWindow::new(9, 1).to_csr(),
        );
        assert!(engine
            .compile(&[AttentionKernel::Csr(&a), AttentionKernel::Csr(&b)])
            .is_err());
    }

    #[test]
    fn debug_formats() {
        let engine = AttentionEngine::with_threads(1);
        let s = format!("{engine:?}");
        assert!(s.contains("AttentionEngine"));
    }
}
