//! Batched plan execution — many sequences and query windows, one launch.
//!
//! The paper's kernels are "single-batch and single-headed" (Section IV-B):
//! every sequence pays a full pool launch. This module removes that tax for
//! serving-style workloads: a batch of (possibly ragged-length) requests is
//! flattened into one `(sequence, row)` index space via
//! [`gpa_parallel::RaggedSpace`] and executed in a **single**
//! `parallel_for`, with every plan step chained per row against that row's
//! softmax state. Each request carries its own [`Geometry`], so one launch
//! freely mixes full squares, chunked-prefill windows, and single-row
//! KV-cached decode requests. Per-row work is identical — same step order,
//! same neighbor order, the same row tile restarted with every step (see
//! [`crate::driver`]) — so batched outputs are element-exact with
//! independent per-sequence runs (property-tested in `tests/batching.rs`
//! and `tests/geometry.rs`).
//!
//! ## One row loop, and who owns `O`
//!
//! There is one row loop in the crate, `launch_rows` below — the only place
//! a row tile is built, with [`crate::AttentionEngine::run_batch_into`] its
//! public face — and it is **in place** on both sides. A request
//! names its query rows as a range of a `Q` the caller keeps
//! ([`AttentionRequest::row_range`]; the other constructors are the range
//! `0..Q.rows`), so no window of `Q` is copied to be launched. The output
//! rows land in one `rows × dv` window per request that the *caller* owns
//! — a fresh matrix under [`crate::AttentionEngine::run_batch`], a slice
//! of a stitched prefill output, or the rows of a served sequence's output
//! where they stay — and the per-row `l`/`m` statistics live in two
//! vectors per launch, not in three allocations per request. Every entry
//! point that returns matrices or [`AttentionState`]s is a thin wrapper
//! that allocates the windows and runs the loop.
//!
//! A window's contents on entry are **not** trusted: the loop zeroes each
//! row just before that row's first stream. A first block multiplies `O`
//! by `exp(−∞ − m) = 0`, and `0 · NaN` is `NaN` — a dirty window must not
//! leak into a result — and a row with no edges must come out `0.0`. All
//! requests and windows are validated before any window is touched.

use crate::driver::{tally_edges, RowTile};
use crate::error::AttnError;
use crate::geometry::Geometry;
use crate::options::KernelOptions;
use crate::plan::AttentionPlan;
use crate::routing::Routing;
use crate::state::AttentionState;
use gpa_parallel::{parallel_for, CellWriter, LocalTally, RaggedSpace, RowWriter, ThreadPool};
use gpa_tensor::{attention_scale, Matrix, Real};
use std::ops::Range;

/// One request's borrowed Q/K/V triple plus its query-window geometry in a
/// batched launch.
///
/// Requests in one batch may differ in context length (ragged batches),
/// key dimension, value dimension, and geometry (full squares, prefill
/// chunks, decode rows) — each is validated against the plan
/// independently.
#[derive(Clone, Copy)]
pub struct AttentionRequest<'a, T> {
    /// Query matrix, `dk` wide. The request computes its rows
    /// `q_start .. q_start + geometry.q_rows`.
    pub q: &'a Matrix<T>,
    /// Key matrix, `dk` wide. The request attends over its first
    /// `geometry.kv_rows` rows.
    pub k: &'a Matrix<T>,
    /// Value matrix, `dv` wide, with as many rows as `k`.
    pub v: &'a Matrix<T>,
    /// The query window this request computes. Every constructor sets
    /// `kv_rows` to `K`'s row count; a caller that keeps a sequence's
    /// whole K/V and attends over a prefix of it lowers `kv_rows` instead
    /// of copying the prefix out.
    pub geometry: Geometry,
    /// Row of `q` holding the window's first query — `0` unless the
    /// request was built with [`AttentionRequest::row_range`].
    pub q_start: usize,
    /// This sequence's token-to-group assignment, required exactly when
    /// the plan has routed steps ([`AttentionPlan::routing_spec`]). Attach
    /// with [`AttentionRequest::with_routing`].
    pub routing: Option<&'a Routing>,
}

impl<'a, T: Real> AttentionRequest<'a, T> {
    /// Borrow one sequence's Q/K/V at the inferred geometry: query rows
    /// starting at absolute offset 0 over `K`'s row count (the full square
    /// when `Q` and `K` have equally many rows; a prefix window or a
    /// rectangular explicit-mask request otherwise).
    pub fn new(q: &'a Matrix<T>, k: &'a Matrix<T>, v: &'a Matrix<T>) -> Self {
        Self::row_range(q, 0..q.rows(), k, v, 0)
    }

    /// Borrow a query window: `Q` holds rows
    /// `q_offset .. q_offset + Q.rows` of the logical sequence whose
    /// key/value set is `K`/`V` — the chunked-prefill request shape.
    pub fn windowed(q: &'a Matrix<T>, k: &'a Matrix<T>, v: &'a Matrix<T>, q_offset: usize) -> Self {
        Self::row_range(q, 0..q.rows(), k, v, q_offset)
    }

    /// Borrow a query window **in place**: rows `rows` of a longer `Q`,
    /// the first of them at absolute position `q_offset` of the logical
    /// sequence whose key/value set is `K`/`V`. Bitwise the request
    /// `windowed(&q.rows_slice(rows.start, rows.end), k, v, q_offset)`
    /// without the copy. A range reaching past `Q`'s rows is rejected when
    /// the request is validated, never read.
    pub fn row_range(
        q: &'a Matrix<T>,
        rows: Range<usize>,
        k: &'a Matrix<T>,
        v: &'a Matrix<T>,
        q_offset: usize,
    ) -> Self {
        AttentionRequest {
            q,
            k,
            v,
            geometry: Geometry::window(q_offset, rows.len(), k.rows()),
            q_start: rows.start,
            routing: None,
        }
    }

    /// Borrow a KV-cached decode request: `Q` is the newest token's single
    /// query row and `K`/`V` the cache contents (newest token included).
    ///
    /// # Panics
    /// Panics if `K` is empty (decode needs at least the new token).
    pub fn decode(q: &'a Matrix<T>, k: &'a Matrix<T>, v: &'a Matrix<T>) -> Self {
        AttentionRequest {
            q,
            k,
            v,
            geometry: Geometry::decode(k.rows()),
            q_start: 0,
            routing: None,
        }
    }

    /// Attach this sequence's [`Routing`] — required when the plan has
    /// routed steps, ignored otherwise. `None` detaches.
    pub fn with_routing(mut self, routing: Option<&'a Routing>) -> Self {
        self.routing = routing;
        self
    }

    /// Number of query rows (output rows).
    pub fn rows(&self) -> usize {
        self.geometry.q_rows
    }
}

/// Check one request's routing against the plan: a routed plan needs a
/// routing built under exactly its spec, covering the whole key/value set
/// when any routed step is noncausal and at least the query window's end
/// otherwise (a decode row may run with routing grown only that far). A
/// static plan silently ignores any attached routing.
fn validate_routing<T: Real>(
    plan: &AttentionPlan<'_>,
    r: &AttentionRequest<'_, T>,
) -> Result<(), AttnError> {
    let Some(spec) = plan.routing_spec() else {
        return Ok(());
    };
    let Some(routing) = r.routing else {
        return Err(AttnError::RoutingMismatch {
            what: "a routed plan needs each request's Routing attached",
        });
    };
    if routing.spec() != spec {
        return Err(AttnError::RoutingMismatch {
            what: "the request's routing was built under a different spec",
        });
    }
    if plan.routed_full_kv() {
        // A noncausal routed step streams whole groups, so the routing
        // must cover the key/value set exactly — no more (stale members
        // past the KV set would be out of bounds), no fewer.
        if routing.len() != r.geometry.kv_rows {
            return Err(AttnError::RoutingMismatch {
                what: "a noncausal routed plan needs routing over the exact key/value set",
            });
        }
    } else if routing.len() < r.geometry.q_end() {
        return Err(AttnError::RoutingMismatch {
            what: "the request's routing does not cover its query window",
        });
    }
    Ok(())
}

/// Validate every request of a batch against the plan — before anything
/// is allocated for it or written.
fn validate_batch<T: Real>(
    plan: &AttentionPlan<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<(), AttnError> {
    requests.iter().try_for_each(|r| {
        plan.validate_request(r)?;
        validate_routing(plan, r)
    })
}

/// A launch's per-row `(l, m)` statistics, flat in launch order.
type RowStats<T> = (Vec<T>, Vec<T>);

/// Validate a batch, then run it into fresh `rows × dv` matrices, one per
/// request; also returns the launch's statistics.
fn execute_batch_fresh<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    opts: &KernelOptions<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<(Vec<Matrix<T>>, RowStats<T>), AttnError> {
    validate_batch(plan, requests)?;
    let mut outs: Vec<Matrix<T>> = requests
        .iter()
        .map(|r| Matrix::zeros(r.rows(), r.v.cols()))
        .collect();
    let mut windows: Vec<&mut [T]> = outs.iter_mut().map(Matrix::as_mut_slice).collect();
    let stats = launch_rows(pool, plan, opts, requests, &mut windows);
    Ok((outs, stats))
}

/// Execute a plan over a batch as one flattened launch, returning one
/// output matrix per request.
pub(crate) fn execute_batch<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    opts: &KernelOptions<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<Vec<Matrix<T>>, AttnError> {
    execute_batch_fresh(pool, plan, opts, requests).map(|(outs, _)| outs)
}

/// As [`execute_batch`], but returning the full per-request
/// [`AttentionState`]s — the `(O, l, m)` triples at rest, which the
/// numerics-contract tests read.
pub(crate) fn execute_batch_states<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    opts: &KernelOptions<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<Vec<AttentionState<T>>, AttnError> {
    let (outs, (l, m)) = execute_batch_fresh(pool, plan, opts, requests)?;
    let mut at = 0;
    Ok(outs
        .into_iter()
        .map(|o| {
            let rows = at..at + o.rows();
            at = rows.end;
            AttentionState {
                o,
                l: l[rows.clone()].to_vec(),
                m: m[rows].to_vec(),
            }
        })
        .collect())
}

/// Execute a plan over a batch **in place**: request `s` writes its
/// `rows × dv` outputs, row-major, into `windows[s]`, which the caller
/// owns and need not have cleared. Every request and every window length
/// is checked before any window is touched.
pub(crate) fn execute_batch_into<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    opts: &KernelOptions<'_>,
    requests: &[AttentionRequest<'_, T>],
    windows: &mut [&mut [T]],
) -> Result<(), AttnError> {
    if windows.len() != requests.len() {
        return Err(AttnError::BadParameter {
            what: "a launch needs exactly one output window per request",
        });
    }
    validate_batch(plan, requests)?;
    if requests
        .iter()
        .zip(windows.iter())
        .any(|(r, w)| w.len() != r.rows() * r.v.cols())
    {
        return Err(AttnError::BadParameter {
            what: "an output window must hold its request's rows × dv elements",
        });
    }
    launch_rows(pool, plan, opts, requests, windows);
    Ok(())
}

/// The one row loop under every batch entry point. `requests` are
/// validated and `windows[s]` is `requests[s]`'s `rows × dv` output, its
/// contents on entry ignored. Returns the rows' statistics.
fn launch_rows<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    opts: &KernelOptions<'_>,
    requests: &[AttentionRequest<'_, T>],
    windows: &mut [&mut [T]],
) -> RowStats<T> {
    let space = RaggedSpace::new(requests.iter().map(AttentionRequest::rows));
    let mut l = vec![T::ZERO; space.total()];
    let mut m = vec![T::neg_infinity(); space.total()];
    if space.total() == 0 {
        return (l, m);
    }

    // Per-request execution context: a writer over that request's window
    // plus the launch-invariant scalars resolved once.
    struct SeqCtx<'s, T> {
        o: RowWriter<'s, T>,
        /// Flat index of the request's first row — where its `l`/`m` start.
        base: usize,
        scale: T,
        kv_len: usize,
        routing: Option<&'s Routing>,
    }
    let ctxs: Vec<SeqCtx<'_, T>> = windows
        .iter_mut()
        .zip(requests)
        .enumerate()
        .map(|(s, (window, r))| SeqCtx {
            o: RowWriter::new(window, r.rows(), r.v.cols()),
            base: space.segment_range(s).start,
            scale: attention_scale(r.q.cols()),
            kv_len: r.geometry.kv_rows,
            routing: r.routing,
        })
        .collect();
    let (l_cells, m_cells) = (CellWriter::new(&mut l), CellWriter::new(&mut m));

    parallel_for(pool, space.total(), opts.schedule, |range| {
        let mut tally = opts.counter.map(LocalTally::new);
        space.for_each_segment(range, |s, local| {
            let req = &requests[s];
            let ctx = &ctxs[s];
            for i in local {
                // SAFETY: `parallel_for` dispatches each flat index to
                // exactly one block and `for_each_segment` maps flat
                // indices to (sequence, row) bijectively, so row `i` of
                // sequence `s` — and cell `base + i` of the launch's
                // statistics — is accessed by this worker only. The
                // windows are the caller's, but each is an exclusive
                // `&mut [T]` for the whole launch (no two can overlap, and
                // nobody else can read them), and its `RowWriter` was
                // built over exactly `rows × dv` of it.
                let (o_row, m_i, l_i) = unsafe {
                    (
                        ctx.o.row_mut(i),
                        m_cells.cell_mut(ctx.base + i),
                        l_cells.cell_mut(ctx.base + i),
                    )
                };
                // The window is the caller's and may hold anything; a
                // first block scales `O` by `exp(−∞ − m) = 0`, and
                // `0 · NaN` must not survive.
                o_row.fill(T::ZERO);
                let q_row = req.q.row(req.q_start + i);
                let mut tile = RowTile::new(q_row, req.k, req.v, ctx.scale, m_i, l_i, o_row);
                // Chain every plan step against this row's shared state —
                // the sequential-composition semantics, one row at a time:
                // each step's stream ends (and the row comes to rest)
                // before the next begins, as in step-by-step launches.
                // Kernels see the *absolute* query index, so windows of a
                // longer sequence stream exactly the square run's rows.
                for step in plan.steps() {
                    step.stream_row(
                        ctx.kv_len,
                        req.geometry.q_offset + i,
                        ctx.routing,
                        opts.counter,
                        &mut tile,
                    );
                    tally_edges(&mut tally, tile.end_stream());
                }
            }
        });
    });

    (l, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::AttentionKernel;
    use crate::kernels::CooSearch;
    use gpa_masks::{GlobalSet, LocalWindow, MaskPattern, RandomUniform};
    use gpa_parallel::{ThreadPool, WorkCounter};
    use gpa_tensor::init::qkv;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// One launch of one square request.
    fn alone<T: Real>(
        pool: &ThreadPool,
        plan: &AttentionPlan<'_>,
        opts: &KernelOptions<'_>,
        (q, k, v): &(Matrix<T>, Matrix<T>, Matrix<T>),
    ) -> Matrix<T> {
        execute_batch(pool, plan, opts, &[AttentionRequest::new(q, k, v)])
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn batch_of_one_is_exactly_the_single_run() {
        // A launch of one, on pools of every size and inline, is the row
        // loop's own sequential order: one set of bits.
        let seq = qkv::<f64>(32, 8, 70);
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let single = alone(&pool(), &plan, &opts, &seq);
        for threads in [1usize, 2, 7] {
            let batched = execute_batch(
                &ThreadPool::new(threads),
                &plan,
                &opts,
                &[AttentionRequest::new(&seq.0, &seq.1, &seq.2)],
            )
            .unwrap();
            assert_eq!(batched[0], single, "must be element-exact, not just close");
        }
    }

    #[test]
    fn ragged_batch_matches_per_sequence_runs_exactly() {
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap();
        let seqs: Vec<_> = [7usize, 33, 1, 64, 12]
            .iter()
            .enumerate()
            .map(|(s, &l)| qkv::<f64>(l, 8, 100 + s as u64))
            .collect();
        let reqs: Vec<_> = seqs
            .iter()
            .map(|(q, k, v)| AttentionRequest::new(q, k, v))
            .collect();
        let batched = execute_batch(&p, &plan, &opts, &reqs).unwrap();
        for (seq, out) in seqs.iter().zip(batched.iter()) {
            assert_eq!(*out, alone(&p, &plan, &opts, seq));
        }
    }

    #[test]
    fn composed_plan_equals_manual_state_threading() {
        let l = 40;
        let n = 3;
        let (q, k, v) = qkv::<f64>(l, 8, 71);
        let p = pool();
        let opts = KernelOptions::new();
        let globals = GlobalSet::new(l, vec![0, 17, 29]);
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            },
        ])
        .unwrap();
        let batched = execute_batch(&p, &plan, &opts, &[AttentionRequest::new(&q, &k, &v)])
            .unwrap()
            .pop()
            .unwrap();

        // Thread the state by hand, edge by edge, in the plan's step order:
        // `absorb_edge` is Algorithm 1 as the paper writes it.
        let mut state = AttentionState::new(l, v.cols());
        let scale = attention_scale::<f64>(q.cols());
        for step in plan.steps() {
            for i in 0..l {
                step.for_each_neighbor(l, i, None, &mut |j| {
                    crate::driver::absorb_edge(
                        q.row(i),
                        k.row(j),
                        v.row(j),
                        scale,
                        &mut state.m[i],
                        &mut state.l[i],
                        state.o.row_mut(i),
                    )
                });
            }
        }
        assert!(gpa_tensor::paper_allclose(&batched, &state.into_output()));
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = pool();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let outs: Vec<Matrix<f64>> = execute_batch(&p, &plan, &KernelOptions::new(), &[]).unwrap();
        assert!(outs.is_empty());
    }

    #[test]
    fn work_counter_tallies_whole_batch() {
        let l = 24;
        let p = pool();
        let counter = WorkCounter::new();
        let opts = KernelOptions::new().with_counter(&counter);
        let pat = LocalWindow::new(l, 2);
        let csr = pat.to_csr();
        let plan = AttentionPlan::single(AttentionKernel::Csr(&csr)).unwrap();
        let seqs: Vec<_> = (0..3).map(|s| qkv::<f64>(l, 4, 200 + s)).collect();
        let reqs: Vec<_> = seqs
            .iter()
            .map(|(q, k, v)| AttentionRequest::new(q, k, v))
            .collect();
        let _ = execute_batch(&p, &plan, &opts, &reqs).unwrap();
        assert_eq!(counter.dot_products(), 3 * pat.nnz() as u64);
    }

    #[test]
    fn coo_search_cost_counted_in_batches_too() {
        let l = 32;
        let p = pool();
        let pat = RandomUniform::new(l, 0.2, 5);
        let coo = pat.to_coo();
        let (q, k, v) = qkv::<f64>(l, 4, 73);

        let plan = AttentionPlan::single(AttentionKernel::Coo(&coo, CooSearch::Linear)).unwrap();
        let request = AttentionRequest::new(&q, &k, &v);
        let report_of = |requests: &[AttentionRequest<'_, f64>]| {
            let counter = WorkCounter::new();
            let opts = KernelOptions::new().with_counter(&counter);
            let _ = execute_batch(&p, &plan, &opts, requests).unwrap();
            counter.report()
        };
        let single = report_of(&[request]);
        // The scanned prefixes, summed over rows, are the mask's alone.
        let scanned: u64 = (0..l).map(|i| coo.row_bounds_linear(i).2 as u64).sum();
        assert!(scanned > 0 && single.neighbor_searches == scanned);
        let batch = report_of(&[request; 3]);
        assert_eq!(batch.neighbor_searches, 3 * single.neighbor_searches);
        assert_eq!(batch.dot_products, 3 * single.dot_products);
    }

    #[test]
    fn mixed_good_and_bad_requests_fail_before_any_work() {
        let p = pool();
        let mask = LocalWindow::new(16, 1).to_csr();
        let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
        let (q, k, v) = qkv::<f64>(16, 4, 74);
        let (q_bad, k_bad, v_bad) = qkv::<f64>(17, 4, 74);
        let err = execute_batch(
            &p,
            &plan,
            &KernelOptions::new(),
            &[
                AttentionRequest::new(&q, &k, &v),
                AttentionRequest::new(&q_bad, &k_bad, &v_bad),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, AttnError::MaskShapeMismatch { .. }));
    }

    #[test]
    fn one_launch_mixes_squares_prefill_chunks_and_decode_rows() {
        // The serving batch shape this module exists for: a full square, a
        // prefill chunk of a second sequence, and a decode row of a third,
        // all flattened into ONE parallel_for.
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let (qa, ka, va) = qkv::<f64>(20, 8, 80);
        let (qb, kb, vb) = qkv::<f64>(32, 8, 81);
        let (qc, kc, vc) = qkv::<f64>(11, 8, 82);
        let qb_chunk = qb.rows_slice(8, 24);
        let qc_last = qc.rows_slice(10, 11);
        let outs = execute_batch(
            &p,
            &plan,
            &opts,
            &[
                AttentionRequest::new(&qa, &ka, &va),
                AttentionRequest::windowed(&qb_chunk, &kb, &vb, 8),
                AttentionRequest::decode(&qc_last, &kc, &vc),
            ],
        )
        .unwrap();
        // Each output is bitwise a row range of a square launch of one.
        assert_eq!(outs[0], alone(&p, &plan, &opts, &(qa, ka, va)));
        let full_b = alone(&p, &plan, &opts, &(qb, kb, vb));
        for i in 0..16 {
            assert_eq!(outs[1].row(i), full_b.row(8 + i), "chunk row {i}");
        }
        let full_c = alone(&p, &plan, &opts, &(qc, kc, vc));
        assert_eq!(outs[2].row(0), full_c.row(10));
    }

    #[test]
    fn rectangular_csr_requests_run_in_batches() {
        // A rectangular row-slice shape: 4 query rows against 16 keys.
        let full = LocalWindow::new(16, 2).to_csr();
        let entries: Vec<(usize, usize)> = (0..4)
            .flat_map(|r| full.row(r).iter().map(move |&c| (r, c as usize)))
            .collect();
        let rect = gpa_sparse::CsrMask::from_coo(
            &gpa_sparse::CooMask::from_entries(4, 16, entries).unwrap(),
        );
        let (q_full, k, v) = qkv::<f64>(16, 4, 75);
        let q = q_full.rows_slice(0, 4);
        let p = pool();
        let plan = AttentionPlan::single(AttentionKernel::Csr(&rect)).unwrap();
        let out = execute_batch(
            &p,
            &plan,
            &KernelOptions::new(),
            &[AttentionRequest::new(&q, &k, &v)],
        )
        .unwrap()
        .pop()
        .unwrap();
        // Rows must match the square mask's first rows.
        let square_plan = AttentionPlan::single(AttentionKernel::Csr(&full)).unwrap();
        let square = alone(&p, &square_plan, &KernelOptions::new(), &(q_full, k, v));
        for i in 0..4 {
            assert_eq!(out.row(i), square.row(i), "row {i}");
        }
    }
    #[test]
    fn row_range_is_the_copied_window_without_the_copy() {
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n: 2 },
            AttentionKernel::Dilated1d { w: 3, r: 1 },
        ])
        .unwrap();
        let (q, k, v) = qkv::<f32>(40, 8, 91);
        let ranges = [0..40, 5..21, 17..17, 39..40];
        let copies: Vec<_> = ranges
            .iter()
            .map(|r| q.rows_slice(r.start, r.end))
            .collect();
        let copied: Vec<_> = ranges
            .iter()
            .zip(&copies)
            .map(|(r, q_win)| AttentionRequest::windowed(q_win, &k, &v, r.start))
            .collect();
        let in_place: Vec<_> = ranges
            .iter()
            .map(|r| AttentionRequest::row_range(&q, r.clone(), &k, &v, r.start))
            .collect();
        assert_eq!(in_place[1].rows(), 16);
        assert_eq!(in_place[1].geometry, copied[1].geometry);
        assert_eq!(
            execute_batch(&p, &plan, &opts, &in_place).unwrap(),
            execute_batch(&p, &plan, &opts, &copied).unwrap()
        );
    }

    #[test]
    fn a_kv_prefix_is_the_copied_prefix_without_the_copy() {
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let (q, k, v) = qkv::<f64>(30, 4, 94);
        // A 12-row prefill window over the first 20 keys, and the decode
        // row of token 24 over the first 25.
        let (k20, v20) = (k.rows_slice(0, 20), v.rows_slice(0, 20));
        let (k25, v25) = (k.rows_slice(0, 25), v.rows_slice(0, 25));
        let copied = [
            AttentionRequest::row_range(&q, 8..20, &k20, &v20, 8),
            AttentionRequest::row_range(&q, 24..25, &k25, &v25, 24),
        ];
        let mut in_place = [
            AttentionRequest::row_range(&q, 8..20, &k, &v, 8),
            AttentionRequest::row_range(&q, 24..25, &k, &v, 24),
        ];
        in_place[0].geometry.kv_rows = 20;
        in_place[1].geometry.kv_rows = 25;
        assert_eq!(in_place[1].geometry, Geometry::decode(25));
        assert_eq!(
            execute_batch(&p, &plan, &opts, &in_place).unwrap(),
            execute_batch(&p, &plan, &opts, &copied).unwrap()
        );
        // Past K's rows, or over K and V of different lengths: rejected.
        let mut past = in_place[0];
        past.geometry.kv_rows = 31;
        let short_v = v.rows_slice(0, 29);
        let mut unequal = AttentionRequest::row_range(&q, 8..20, &k, &short_v, 8);
        unequal.geometry.kv_rows = 20;
        for bad in [past, unequal] {
            assert!(matches!(
                execute_batch(&p, &plan, &opts, &[bad]),
                Err(AttnError::ContextLengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn in_place_launch_ignores_what_the_windows_held() {
        let p = pool();
        let opts = KernelOptions::new();
        // Rows 0 and 3 have no edges at all: they must come out 0.0.
        let mask = gpa_sparse::CsrMask::from_coo(
            &gpa_sparse::CooMask::from_entries(4, 4, vec![(1, 0), (1, 1), (2, 3)]).unwrap(),
        );
        let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
        let (q, k, v) = qkv::<f64>(4, 3, 92);
        let requests = [AttentionRequest::new(&q, &k, &v)];
        let expect = execute_batch(&p, &plan, &opts, &requests).unwrap();
        let mut dirty = vec![f64::NAN; 12];
        execute_batch_into(&p, &plan, &opts, &requests, &mut [&mut dirty[..]]).unwrap();
        assert_eq!(dirty, expect[0].as_slice());
        assert!(dirty[..3].iter().chain(&dirty[9..]).all(|&x| x == 0.0));
        // A second launch over its own output is the same launch.
        execute_batch_into(&p, &plan, &opts, &requests, &mut [&mut dirty[..]]).unwrap();
        assert_eq!(dirty, expect[0].as_slice());
    }

    #[test]
    fn states_split_the_launch_statistics_per_request() {
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let seqs: Vec<_> = [5usize, 0, 9]
            .iter()
            .enumerate()
            .map(|(s, &l)| qkv::<f64>(l, 4, 300 + s as u64))
            .collect();
        let requests: Vec<_> = seqs
            .iter()
            .map(|(q, k, v)| AttentionRequest::new(q, k, v))
            .collect();
        let batched = execute_batch_states(&p, &plan, &opts, &requests).unwrap();
        for (request, state) in requests.iter().zip(&batched) {
            let alone = execute_batch_states(&p, &plan, &opts, std::slice::from_ref(request))
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(state.o.shape(), (request.rows(), 4));
            assert_eq!(
                (state.l.len(), state.m.len()),
                (request.rows(), request.rows())
            );
            assert_eq!(
                (&state.o, &state.l, &state.m),
                (&alone.o, &alone.l, &alone.m)
            );
        }
    }

    #[test]
    fn bad_requests_and_windows_fail_before_any_write() {
        let p = pool();
        let opts = KernelOptions::new();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let (q, k, v) = qkv::<f64>(8, 4, 93);
        let good = AttentionRequest::row_range(&q, 0..4, &k, &v, 0);
        let past = AttentionRequest::row_range(&q, 6..9, &k, &v, 5);
        let overflow = AttentionRequest::row_range(&q, 1..usize::MAX, &k, &v, 0);
        let (mut a, mut b) = (vec![f64::NAN; 16], vec![f64::NAN; 12]);
        for bad in [past, overflow] {
            let err = execute_batch_into(&p, &plan, &opts, &[good, bad], &mut [&mut a, &mut b]);
            assert!(matches!(err, Err(AttnError::ContextLengthMismatch { .. })));
            assert!(execute_batch(&p, &plan, &opts, &[good, bad]).is_err());
        }
        // One window too few, and a window of the wrong length.
        let err = execute_batch_into(&p, &plan, &opts, &[good, good], &mut [&mut a]);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })));
        let err = execute_batch_into(&p, &plan, &opts, &[good, good], &mut [&mut a, &mut b]);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })));
        assert!(
            a.iter().chain(&b).all(|x| x.is_nan()),
            "nothing was written"
        );
    }
}
