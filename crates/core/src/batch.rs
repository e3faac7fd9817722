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
//! where they stay. A row's `l`/`m` statistics are the row's own: two
//! locals, `(−∞, 0)` when the row starts, stored after its last plan step
//! only into the two launch vectors of a caller that asked for them —
//! [`crate::AttentionEngine::run_batch_states`], and no other entry point,
//! so a served launch allocates no statistics and no participant writes a
//! cache line another one writes. Every entry point that returns matrices
//! or [`AttentionState`]s is a thin wrapper that allocates the windows and
//! runs the loop.
//!
//! ## The next row, fetched ahead
//!
//! A decode row's inputs are cold: each tick reads a new query, key, value
//! and output row per sequence, at addresses no hardware stream follows.
//! So as a participant starts a request it prefetches the next request's
//! diagonal key and value rows (position `q_offset`, when that is below
//! `kv_rows` — a decode row's newest token, the one row of its window no
//! earlier tick read) while the current request computes. It does so only
//! when the next request's first row lies in its own claimed range. A
//! prefetch is a hint on a raw address (a no-op off x86_64): it reads
//! nothing and moves no bit. Prefetching the query and output rows as well
//! paid nothing on `decode_swarm` (0–3 % slower), so neither is fetched.
//!
//! ## Who runs a launch
//!
//! The loop hands `parallel_for` its rows at the default grain of 16,
//! with one exception. Cut by rows alone, a launch of fewer than
//! `grain × threads` rows leaves a thread without a claim
//! (a 9-row decode tick is one 16-row block, which the caller runs
//! inline), whatever its rows cost. So such a launch, and only such a launch,
//! estimates its edges from the row rules' degrees (`rows × degree` of
//! each request's middle row, no stream, no allocation); when they reach
//! `FORK_EDGES` (256, measured below) it claims `⌈rows / threads⌉` rows at
//! a time, so every thread gets one. Cuts fall at row boundaries, so the
//! choice moves no output bit. Launches with enough rows and one-thread
//! pools compute no estimate.
//!
//! A window's contents on entry are **not** trusted: the loop zeroes each
//! row just before that row's first stream. A first block multiplies `O`
//! by `exp(−∞ − m) = 0`, and `0 · NaN` is `NaN` — a dirty window must not
//! leak into a result — and a row with no edges must come out `0.0`. All
//! requests and windows are validated before any window is touched.

use crate::driver::{tally_edges, RowTile};
use crate::error::AttnError;
use crate::geometry::Geometry;
use crate::plan::AttentionPlan;
use crate::state::AttentionState;
use gpa_parallel::{
    parallel_for, CellWriter, LocalTally, RaggedSpace, RowWriter, Schedule, ThreadPool, WorkCounter,
};
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
        }
    }

    /// Number of query rows (output rows).
    pub fn rows(&self) -> usize {
        self.geometry.q_rows
    }
}

/// Validate every request of a batch against the plan — before anything
/// is allocated for it or written.
fn validate_batch<T: Real>(
    plan: &AttentionPlan<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<(), AttnError> {
    requests.iter().try_for_each(|r| plan.validate_request(r))
}

/// A launch's per-row `(l, m)` statistics, flat in launch order.
type RowStats<T> = (Vec<T>, Vec<T>);

/// A launch into fresh matrices: one output per request, and the rows'
/// statistics when they were asked for.
type FreshLaunch<T> = (Vec<Matrix<T>>, Option<RowStats<T>>);

/// Validate a batch, then run it into fresh `rows × dv` matrices, one per
/// request; also returns the launch's statistics when `with_stats` asks.
fn execute_batch_fresh<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    counter: Option<&WorkCounter>,
    requests: &[AttentionRequest<'_, T>],
    with_stats: bool,
) -> Result<FreshLaunch<T>, AttnError> {
    validate_batch(plan, requests)?;
    let mut outs: Vec<Matrix<T>> = requests
        .iter()
        .map(|r| Matrix::zeros(r.rows(), r.v.cols()))
        .collect();
    let mut windows: Vec<&mut [T]> = outs.iter_mut().map(Matrix::as_mut_slice).collect();
    let stats = launch_rows(pool, plan, counter, requests, &mut windows, with_stats);
    Ok((outs, stats))
}

/// Execute a plan over a batch as one flattened launch, returning one
/// output matrix per request.
pub(crate) fn execute_batch<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    counter: Option<&WorkCounter>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<Vec<Matrix<T>>, AttnError> {
    execute_batch_fresh(pool, plan, counter, requests, false).map(|(outs, _)| outs)
}

/// As [`execute_batch`], but returning the full per-request
/// [`AttentionState`]s — the `(O, l, m)` triples at rest, which the
/// numerics-contract tests read. The only launch that stores its rows'
/// statistics.
pub(crate) fn execute_batch_states<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    counter: Option<&WorkCounter>,
    requests: &[AttentionRequest<'_, T>],
) -> Result<Vec<AttentionState<T>>, AttnError> {
    let (outs, stats) = execute_batch_fresh(pool, plan, counter, requests, true)?;
    let (l, m) = stats.expect("a launch that asks for its statistics returns them");
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
    counter: Option<&WorkCounter>,
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
    launch_rows(pool, plan, counter, requests, windows, false);
    Ok(())
}

/// The one row loop under every batch entry point. `requests` are
/// validated and `windows[s]` is `requests[s]`'s `rows × dv` output, its
/// contents on entry ignored. Returns the rows' statistics when
/// `with_stats` asks for them.
fn launch_rows<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    counter: Option<&WorkCounter>,
    requests: &[AttentionRequest<'_, T>],
    windows: &mut [&mut [T]],
    with_stats: bool,
) -> Option<RowStats<T>> {
    let space = RaggedSpace::new(requests.iter().map(AttentionRequest::rows));
    let mut stats =
        with_stats.then(|| (vec![T::ZERO; space.total()], vec![T::ZERO; space.total()]));
    if space.total() == 0 {
        return stats;
    }

    // Per-request execution context: a writer over that request's window
    // plus the launch-invariant scalars resolved once.
    struct SeqCtx<'s, T> {
        o: RowWriter<'s, T>,
        /// Flat index of the request's first row — where its `l`/`m` start.
        base: usize,
        scale: T,
        kv_len: usize,
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
        })
        .collect();
    let cells = stats
        .as_mut()
        .map(|(l, m)| (CellWriter::new(l), CellWriter::new(m)));
    let schedule = launch_schedule(pool, plan, requests, space.total());

    parallel_for(pool, space.total(), schedule, |range| {
        let mut tally = counter.map(LocalTally::new);
        let end = range.end;
        space.for_each_segment(range, |s, local| {
            // The next request's diagonal key and value, while this one
            // computes — only when its first row is this participant's too.
            let next = space.segment_range(s).end;
            if next < end {
                let mut t = s + 1;
                while space.segment_range(t).is_empty() {
                    t += 1;
                }
                prefetch_diagonal(&requests[t]);
            }
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
                let o_row = unsafe { ctx.o.row_mut(i) };
                // The window is the caller's and may hold anything; a
                // first block scales `O` by `exp(−∞ − m) = 0`, and
                // `0 · NaN` must not survive.
                o_row.fill(T::ZERO);
                let q_row = req.q.row(req.q_start + i);
                // The row's statistics are its own, in locals: a fresh
                // row is `m = −∞, l = 0`.
                let (mut m, mut l) = (T::neg_infinity(), T::ZERO);
                let mut tile = RowTile::new(q_row, req.k, req.v, ctx.scale, &mut m, &mut l, o_row);
                // Chain every plan step against this row's shared state —
                // the sequential-composition semantics, one row at a time:
                // each step's stream ends (and the row comes to rest)
                // before the next begins, as in step-by-step launches.
                // Kernels see the *absolute* query index, so windows of a
                // longer sequence stream exactly the square run's rows.
                for step in plan.steps() {
                    step.stream_row(ctx.kv_len, req.geometry.q_offset + i, counter, &mut tile);
                    tally_edges(&mut tally, tile.end_stream());
                }
                if let Some((l_cells, m_cells)) = &cells {
                    // SAFETY: as for the output row above.
                    unsafe {
                        *l_cells.cell_mut(ctx.base + i) = l;
                        *m_cells.cell_mut(ctx.base + i) = m;
                    }
                }
            }
        });
    });

    stats
}

/// Prefetch a request's diagonal key and value rows: position
/// `q_offset`, a decode row's newest token — the one row of its window no
/// earlier tick read — when it lies below `kv_rows`.
#[inline(always)]
fn prefetch_diagonal<T: Real>(r: &AttentionRequest<'_, T>) {
    let diagonal = r.geometry.q_offset;
    if diagonal < r.geometry.kv_rows {
        prefetch(r.k.row(diagonal).as_ptr(), r.k.cols());
        prefetch(r.v.row(diagonal).as_ptr(), r.v.cols());
    }
}

/// Ask the cache for the lines of `len` elements at `row`. A hint that
/// reads nothing and cannot fault, so `row` is never dereferenced; a no-op
/// off x86_64.
#[inline(always)]
fn prefetch<T>(row: *const T, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        for at in (0..len * std::mem::size_of::<T>()).step_by(64) {
            // SAFETY: a prefetch neither reads nor writes memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(row.cast::<i8>().wrapping_add(at)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (row, len);
}

/// Estimated edges at which a launch the row rule would leave with fewer
/// participants than the pool has is cut for all of them anyway.
///
/// Measured on a 2-core Xeon (f32, `dk = 64`): launches of `r` decode
/// rows × 65 edges (`Local { n: 64 }`), one thread against a fork across
/// two, each the median of 5 × 2000 launches, in three rounds. A fork
/// repays its fixed cost (a forked no-op launch is 1.7 µs, the serving
/// benchmark's `pool.noop_launch_us` over 64 rows) only past ≈ 200
/// edges: while one thread ran ≈ 40 ns an edge, 130 and 195 edges ran
/// 0.86–1.00× as fast forked, 260 edges 1.09–1.21×, 390 edges 1.16–1.30×
/// and 585 edges (`evict_churn`'s median launch) 1.32–1.35×. In the three
/// measurements where one thread ran ≈ 24 ns an edge instead (the host's
/// faster regime, which comes and goes), forks of 455–1040 edges ran
/// 0.91–0.94×; no threshold avoids that. 256 is the first power of two
/// past the crossover.
const FORK_EDGES: usize = 256;

/// The schedule a launch of `rows` rows runs under: the default grain,
/// except that a launch too small to give every participant a claim
/// (`rows < grain × threads`) whose estimated edges reach [`FORK_EDGES`]
/// claims `⌈rows / threads⌉` rows at a time instead. Cuts stay at row
/// boundaries, so no output bit depends on the choice.
fn launch_schedule<T: Real>(
    pool: &ThreadPool,
    plan: &AttentionPlan<'_>,
    requests: &[AttentionRequest<'_, T>],
    rows: usize,
) -> Schedule {
    let threads = pool.threads();
    let Schedule { grain } = Schedule::default();
    if threads > 1 && rows < grain.saturating_mul(threads) && reaches_fork_edges(plan, requests) {
        Schedule {
            grain: grain.min(rows.div_ceil(threads)),
        }
    } else {
        Schedule { grain }
    }
}

/// Whether a launch's estimated edges reach [`FORK_EDGES`]: each
/// request counts `rows × degree` of its middle row in every plan step,
/// and the sum stops at the threshold.
fn reaches_fork_edges<T: Real>(
    plan: &AttentionPlan<'_>,
    requests: &[AttentionRequest<'_, T>],
) -> bool {
    let mut edges = 0;
    requests.iter().filter(|r| r.rows() > 0).any(|r| {
        let mid = r.geometry.q_offset + r.rows() / 2;
        for step in plan.steps() {
            edges += r.rows() * step.row_degree(r.geometry.kv_rows, mid);
        }
        edges >= FORK_EDGES
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::AttentionKernel;
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
        counter: Option<&WorkCounter>,
        (q, k, v): &(Matrix<T>, Matrix<T>, Matrix<T>),
    ) -> Matrix<T> {
        execute_batch(pool, plan, counter, &[AttentionRequest::new(q, k, v)])
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn batch_of_one_is_exactly_the_single_run() {
        // A launch of one, on pools of every size and inline, is the row
        // loop's own sequential order: one set of bits.
        let seq = qkv::<f64>(32, 8, 70);
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let single = alone(&pool(), &plan, None, &seq);
        for threads in [1usize, 2, 7] {
            let batched = execute_batch(
                &ThreadPool::new(threads),
                &plan,
                None,
                &[AttentionRequest::new(&seq.0, &seq.1, &seq.2)],
            )
            .unwrap();
            assert_eq!(batched[0], single, "must be element-exact, not just close");
        }
    }

    #[test]
    fn ragged_batch_matches_per_sequence_runs_exactly() {
        let p = pool();
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
        let batched = execute_batch(&p, &plan, None, &reqs).unwrap();
        for (seq, out) in seqs.iter().zip(batched.iter()) {
            assert_eq!(*out, alone(&p, &plan, None, seq));
        }
    }

    #[test]
    fn composed_plan_equals_manual_state_threading() {
        let l = 40;
        let n = 3;
        let (q, k, v) = qkv::<f64>(l, 8, 71);
        let p = pool();
        let globals = GlobalSet::new(l, vec![0, 17, 29]);
        let plan = AttentionPlan::new(&[
            AttentionKernel::Local { n },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            },
        ])
        .unwrap();
        let batched = execute_batch(&p, &plan, None, &[AttentionRequest::new(&q, &k, &v)])
            .unwrap()
            .pop()
            .unwrap();

        // Thread the state by hand, edge by edge, in the plan's step order:
        // `absorb_edge` is Algorithm 1 as the paper writes it.
        let mut state = AttentionState::new(l, v.cols());
        let scale = attention_scale::<f64>(q.cols());
        for step in plan.steps() {
            for i in 0..l {
                step.for_each_neighbor(l, i, &mut |j| {
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
        assert!(gpa_tensor::paper_allclose(&batched, &state.o));
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = pool();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let outs: Vec<Matrix<f64>> = execute_batch(&p, &plan, None, &[]).unwrap();
        assert!(outs.is_empty());
    }

    #[test]
    fn work_counter_tallies_whole_batch() {
        let l = 24;
        let p = pool();
        let counter = WorkCounter::new();
        let pat = LocalWindow::new(l, 2);
        let csr = pat.to_csr();
        let plan = AttentionPlan::single(AttentionKernel::Csr(&csr)).unwrap();
        let seqs: Vec<_> = (0..3).map(|s| qkv::<f64>(l, 4, 200 + s)).collect();
        let reqs: Vec<_> = seqs
            .iter()
            .map(|(q, k, v)| AttentionRequest::new(q, k, v))
            .collect();
        let _ = execute_batch(&p, &plan, Some(&counter), &reqs).unwrap();
        assert_eq!(counter.dot_products(), 3 * pat.nnz() as u64);
    }

    #[test]
    fn coo_search_cost_counted_in_batches_too() {
        let l = 32;
        let p = pool();
        let pat = RandomUniform::new(l, 0.2, 5);
        let coo = pat.to_coo();
        let (q, k, v) = qkv::<f64>(l, 4, 73);

        let plan = AttentionPlan::single(AttentionKernel::Coo(&coo)).unwrap();
        let request = AttentionRequest::new(&q, &k, &v);
        let report_of = |requests: &[AttentionRequest<'_, f64>]| {
            let counter = WorkCounter::new();
            let _ = execute_batch(&p, &plan, Some(&counter), requests).unwrap();
            counter.report()
        };
        let single = report_of(&[request]);
        // The scanned prefixes, summed over rows, are the mask's alone.
        let scanned: u64 = (0..l).map(|i| coo.row_bounds_linear(i).1 as u64).sum();
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
            None,
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
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 3 }).unwrap();
        let (qa, ka, va) = qkv::<f64>(20, 8, 80);
        let (qb, kb, vb) = qkv::<f64>(32, 8, 81);
        let (qc, kc, vc) = qkv::<f64>(11, 8, 82);
        let qb_chunk = qb.rows_slice(8, 24);
        let qc_last = qc.rows_slice(10, 11);
        let outs = execute_batch(
            &p,
            &plan,
            None,
            &[
                AttentionRequest::new(&qa, &ka, &va),
                AttentionRequest::windowed(&qb_chunk, &kb, &vb, 8),
                AttentionRequest::decode(&qc_last, &kc, &vc),
            ],
        )
        .unwrap();
        // Each output is bitwise a row range of a square launch of one.
        assert_eq!(outs[0], alone(&p, &plan, None, &(qa, ka, va)));
        let full_b = alone(&p, &plan, None, &(qb, kb, vb));
        for i in 0..16 {
            assert_eq!(outs[1].row(i), full_b.row(8 + i), "chunk row {i}");
        }
        let full_c = alone(&p, &plan, None, &(qc, kc, vc));
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
        let out = execute_batch(&p, &plan, None, &[AttentionRequest::new(&q, &k, &v)])
            .unwrap()
            .pop()
            .unwrap();
        // Rows must match the square mask's first rows.
        let square_plan = AttentionPlan::single(AttentionKernel::Csr(&full)).unwrap();
        let square = alone(&p, &square_plan, None, &(q_full, k, v));
        for i in 0..4 {
            assert_eq!(out.row(i), square.row(i), "row {i}");
        }
    }
    #[test]
    fn row_range_is_the_copied_window_without_the_copy() {
        let p = pool();
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
            execute_batch(&p, &plan, None, &in_place).unwrap(),
            execute_batch(&p, &plan, None, &copied).unwrap()
        );
    }

    #[test]
    fn a_kv_prefix_is_the_copied_prefix_without_the_copy() {
        let p = pool();
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
            execute_batch(&p, &plan, None, &in_place).unwrap(),
            execute_batch(&p, &plan, None, &copied).unwrap()
        );
        // Past K's rows, or over K and V of different lengths: rejected.
        let mut past = in_place[0];
        past.geometry.kv_rows = 31;
        let short_v = v.rows_slice(0, 29);
        let mut unequal = AttentionRequest::row_range(&q, 8..20, &k, &short_v, 8);
        unequal.geometry.kv_rows = 20;
        for bad in [past, unequal] {
            assert!(matches!(
                execute_batch(&p, &plan, None, &[bad]),
                Err(AttnError::ContextLengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn in_place_launch_ignores_what_the_windows_held() {
        let p = pool();
        // Rows 0 and 3 have no edges at all: they must come out 0.0.
        let mask = gpa_sparse::CsrMask::from_coo(
            &gpa_sparse::CooMask::from_entries(4, 4, vec![(1, 0), (1, 1), (2, 3)]).unwrap(),
        );
        let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
        let (q, k, v) = qkv::<f64>(4, 3, 92);
        let requests = [AttentionRequest::new(&q, &k, &v)];
        let expect = execute_batch(&p, &plan, None, &requests).unwrap();
        let mut dirty = vec![f64::NAN; 12];
        execute_batch_into(&p, &plan, None, &requests, &mut [&mut dirty[..]]).unwrap();
        assert_eq!(dirty, expect[0].as_slice());
        assert!(dirty[..3].iter().chain(&dirty[9..]).all(|&x| x == 0.0));
        // A second launch over its own output is the same launch.
        execute_batch_into(&p, &plan, None, &requests, &mut [&mut dirty[..]]).unwrap();
        assert_eq!(dirty, expect[0].as_slice());
    }

    #[test]
    fn states_split_the_launch_statistics_per_request() {
        let p = pool();
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
        let batched = execute_batch_states(&p, &plan, None, &requests).unwrap();
        for (request, state) in requests.iter().zip(&batched) {
            let alone = execute_batch_states(&p, &plan, None, std::slice::from_ref(request))
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
    fn every_entry_point_computes_one_mixed_launch_alike() {
        // One launch of every row shape under one 12 × 8 CSR mask whose row
        // 5 has no edges: a square, a prefill window, a decode row over a
        // longer K, a square with a NaN query, an empty request, and rows
        // 8..12 past `kv_rows` — the empty request and the rows past
        // `kv_rows` side by side, so the next-row prefetch skips a request
        // and then finds no diagonal key to fetch.
        let entries: Vec<(usize, usize)> = (0..12usize)
            .filter(|&r| r != 5)
            .flat_map(|r| {
                let c = r.min(7);
                (c.saturating_sub(2)..=c).map(move |j| (r, j))
            })
            .collect();
        let mask = gpa_sparse::CsrMask::from_coo(
            &gpa_sparse::CooMask::from_entries(12, 8, entries).unwrap(),
        );
        let plan = AttentionPlan::single(AttentionKernel::Csr(&mask)).unwrap();
        let dk = 24;
        let square = qkv::<f32>(8, dk, 501);
        let prefill = qkv::<f32>(8, dk, 502);
        let decode = qkv::<f32>(20, dk, 503);
        let mut poisoned = qkv::<f32>(8, dk, 504);
        poisoned.0.row_mut(1)[3] = f32::NAN;
        let (q_past, k_past, v_past) = qkv::<f32>(12, dk, 505);
        let (k8, v8) = (k_past.rows_slice(0, 8), v_past.rows_slice(0, 8));
        let mut decode_row = AttentionRequest::row_range(&decode.0, 7..8, &decode.1, &decode.2, 7);
        decode_row.geometry.kv_rows = 8;
        assert_eq!(decode_row.geometry, Geometry::decode(8));
        let requests = [
            AttentionRequest::new(&square.0, &square.1, &square.2),
            AttentionRequest::row_range(&prefill.0, 2..6, &prefill.1, &prefill.2, 2),
            decode_row,
            AttentionRequest::new(&poisoned.0, &poisoned.1, &poisoned.2),
            AttentionRequest::row_range(&square.0, 3..3, &square.1, &square.2, 3),
            AttentionRequest::row_range(&q_past, 8..12, &k8, &v8, 8),
        ];
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        for p in [ThreadPool::new(1), ThreadPool::new(2), pool()] {
            let fresh = execute_batch(&p, &plan, None, &requests).unwrap();
            let mut dirty: Vec<Vec<f32>> = requests
                .iter()
                .map(|r| vec![f32::NAN; r.rows() * dk])
                .collect();
            let mut windows: Vec<&mut [f32]> = dirty.iter_mut().map(Vec::as_mut_slice).collect();
            execute_batch_into(&p, &plan, None, &requests, &mut windows).unwrap();
            let states = execute_batch_states(&p, &plan, None, &requests).unwrap();
            for (s, request) in requests.iter().enumerate() {
                let o = bits(fresh[s].as_slice());
                assert_eq!(o, bits(&dirty[s]), "request {s}: run_batch_into");
                assert_eq!(o, bits(states[s].o.as_slice()), "request {s}: states");
                let alone = execute_batch_states(&p, &plan, None, std::slice::from_ref(request))
                    .unwrap()
                    .pop()
                    .unwrap();
                assert_eq!(o, bits(alone.o.as_slice()), "request {s}: alone");
                assert_eq!(bits(&states[s].l), bits(&alone.l), "request {s}: l");
                assert_eq!(bits(&states[s].m), bits(&alone.m), "request {s}: m");
            }
            // Row 5 has no edges, in the square and in the prefill window:
            // `O = 0, l = 0, m = −∞`, whatever the window held.
            for (s, row) in [(0, 5), (1, 3)] {
                assert!(fresh[s].row(row).iter().all(|&x| x == 0.0));
                assert_eq!(dirty[s][row * dk..(row + 1) * dk], fresh[s].row(row)[..]);
                assert_eq!(
                    (states[s].l[row], states[s].m[row]),
                    (0.0, f32::NEG_INFINITY)
                );
            }
            // The NaN query poisons its own row and no other.
            assert!(states[3].l[1].is_nan() && fresh[3].row(1).iter().all(|x| x.is_nan()));
            assert!(fresh[3]
                .row(2)
                .iter()
                .chain(fresh[3].row(0))
                .all(|x| x.is_finite()));
            assert!(fresh[4].as_slice().is_empty() && states[4].l.is_empty());
            assert!(states[5].l.iter().all(|&l| l >= 1.0));
        }
    }

    #[test]
    fn small_launches_fork_by_their_edges_not_their_rows() {
        // Decode launches under a 2-thread engine, each read against the
        // pool's pushes: a fork hands the helper one job, an inline launch
        // none. Whoever runs a row, its bits are the 1-thread engine's.
        let two = crate::AttentionEngine::with_threads(2);
        let one = crate::AttentionEngine::with_threads(1);
        let launch = |n: usize, dk: usize, seqs: usize| {
            let plan = AttentionPlan::single(AttentionKernel::Local { n }).unwrap();
            let caches: Vec<_> = (0..seqs)
                .map(|s| qkv::<f32>(596 + s, dk, 400 + s as u64))
                .collect();
            let requests: Vec<_> = caches
                .iter()
                .map(|(q, k, v)| {
                    AttentionRequest::row_range(q, k.rows() - 1..k.rows(), k, v, k.rows() - 1)
                })
                .collect();
            let before = two.pool().metrics().report().jobs_pushed;
            let outs = two.run_batch(&plan, &requests).unwrap();
            let forked = two.pool().metrics().report().jobs_pushed > before;
            assert_eq!(outs, one.run_batch(&plan, &requests).unwrap());
            forked
        };
        // 9 decode rows of 65 edges: one schedule block, past the threshold.
        assert!(launch(64, 64, 9), "a small launch of heavy rows forks");
        // 9 decode rows of 9 edges stay on the caller.
        assert!(!launch(8, 32, 9), "a small launch of light rows is inline");
        // 64 rows are four blocks: the row rule alone forks them.
        assert!(launch(8, 32, 64), "a launch of many blocks forks");
    }

    #[test]
    fn bad_requests_and_windows_fail_before_any_write() {
        let p = pool();
        let plan = AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap();
        let (q, k, v) = qkv::<f64>(8, 4, 93);
        let good = AttentionRequest::row_range(&q, 0..4, &k, &v, 0);
        let past = AttentionRequest::row_range(&q, 6..9, &k, &v, 5);
        let overflow = AttentionRequest::row_range(&q, 1..usize::MAX, &k, &v, 0);
        let (mut a, mut b) = (vec![f64::NAN; 16], vec![f64::NAN; 12]);
        for bad in [past, overflow] {
            let err = execute_batch_into(&p, &plan, None, &[good, bad], &mut [&mut a, &mut b]);
            assert!(matches!(err, Err(AttnError::ContextLengthMismatch { .. })));
            assert!(execute_batch(&p, &plan, None, &[good, bad]).is_err());
        }
        // One window too few, and a window of the wrong length.
        let err = execute_batch_into(&p, &plan, None, &[good, good], &mut [&mut a]);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })));
        let err = execute_batch_into(&p, &plan, None, &[good, good], &mut [&mut a, &mut b]);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })));
        assert!(
            a.iter().chain(&b).all(|x| x.is_nan()),
            "nothing was written"
        );
    }
}
