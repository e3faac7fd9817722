//! Scoped row-parallel execution — the simulated CUDA grid.
//!
//! The paper's kernels are "parallelized along the L dimension,
//! simultaneously operating on rows of the attention matrix" (Section IV-B),
//! with one CUDA block per row. [`parallel_for`] reproduces that model on a
//! CPU pool: the index space `0..n` is split into *blocks* (chunks of rows)
//! that the launch's participants claim by one rule, work stealing. Each
//! share starts with a contiguous span of rows, its participant claims
//! [`Schedule::grain`] rows at a time from the front, and when the span
//! runs dry it steals half of a randomly chosen sibling's remaining span —
//! real range stealing, not a shared counter, so the common case is an
//! uncontended CAS on a cache line the participant owns. The paper
//! attributes the Global kernel's poor scaling to block-level load
//! imbalance ("the algorithm can only be as fast as its slowest block");
//! stealing is what keeps one heavy span from being that block. Which
//! thread executes a row never affects the row's result, so outputs stay
//! bitwise identical across grains and thread counts (pinned by
//! `tests/determinism.rs`).
//!
//! # The fork-join protocol
//!
//! A launch is cut into `shares = min(pool.threads(), ⌈n / grain⌉)`
//! shares (a launch of ≤ 16 rows at the default grain is one block, hence
//! one share). One share runs inline on the caller and touches nothing
//! shared. Otherwise:
//!
//! 1. **Fork.** The caller builds the launch context on its stack, a small
//!    heap header (`Join`), and submits `shares − 1` helper jobs, each
//!    holding the header by `Arc` and the context by erased address.
//! 2. **Claim.** Share 0 is the caller's. Every other share goes to
//!    whoever claims it first by `fetch_add` on the header's counter: a
//!    helper job claims *when it starts*, the caller claims after finishing
//!    each share it holds. A claim past the last share is "nothing left",
//!    and the claimant never looks at the context.
//! 3. **Join.** Once the caller's own claim comes back empty, every share
//!    has an owner; it waits (a bounded spin, then a Condvar) until the shares
//!    *helpers* claimed have all signalled completion, and returns. A
//!    helper that was asleep or busy elsewhere wakes to an exhausted
//!    counter and its job runs to nothing — the launch never waited for
//!    it. Unclaimed shares' spans are stolen from like any sibling's, so
//!    the caller usually finds them already empty (and
//!    [`LaunchStats::imbalance`] leaves such rowless shares out).
//!
//! Nor does the fork wait: those run-to-nothing jobs stay queued until a
//! helper gets to them, and while every helper is held in another
//! launcher's long share they accumulate — up to the injector's 4096
//! slots, past which `submit` drops the job rather than spin for a slot
//! (a dropped job is a share nobody else claims, i.e. the caller's).
//!
//! Panics in `body` are caught per block, so a share always reaches its
//! completion signal; the first payload is re-raised on the caller after
//! the join.

use crate::metrics::PoolMetrics;
use crate::pool::{on_worker_thread, ThreadPool};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a launch's rows are claimed: each share's participant claims
/// `grain` rows at a time from the front of its own contiguous span and
/// steals half of a sibling's span when it runs dry. Every engine launches
/// at the default grain of 16, and an attention launch of fewer than
/// `grain × threads` rows is cut finer when its estimated edges clear a
/// measured threshold (`FORK_EDGES` in `gpa-core`'s `batch.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Rows claimed per grab; `0` claims one.
    pub grain: usize,
}

impl Schedule {
    /// How many blocks this schedule can cut `0..n` into — the most
    /// shares a launch of `n` rows can use.
    fn blocks(self, n: usize) -> usize {
        n.div_ceil(self.grain.max(1))
    }
}

impl Default for Schedule {
    fn default() -> Self {
        // Grain 16 is the knee of the grain sweep (the table under
        // "Substrate performance" in README.md — grain 1 pays ~7× in claim
        // traffic on an empty body, and while grain 64 shaves the noop
        // launch further, batched engine runs show no gain over 16 at
        // half the stealable granularity).
        Schedule { grain: 16 }
    }
}

/// Per-launch execution statistics, used by the load-imbalance analyses.
#[derive(Clone, Debug, Default)]
pub struct LaunchStats {
    /// Busy time per share of the launch (seconds).
    pub worker_busy: Vec<f64>,
    /// Rows processed per share.
    pub worker_rows: Vec<usize>,
    /// Wall-clock time of the whole launch (seconds).
    pub elapsed: f64,
}

impl LaunchStats {
    /// Max-over-mean busy time over the shares that ran rows: 1.0 =
    /// perfectly balanced. The paper's "slowest block" effect shows up as
    /// values ≫ 1.
    ///
    /// A share with no rows is left out: a share nobody had claimed yet is stolen empty by the participants
    /// already running, and whoever claims it later finds nothing — no
    /// participant stands behind its (≈ 0) busy time, and counting it would
    /// measure which helper woke in time rather than how the load fell on
    /// the participants that worked.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .worker_busy
            .iter()
            .enumerate()
            .filter(|&(w, busy)| busy.is_finite() && self.worker_rows.get(w) != Some(&0))
            .map(|(_, &busy)| busy)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = busy.iter().cloned().fold(0.0, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Run `body` over every index range covering `0..n` in parallel on `pool`.
///
/// `body` receives disjoint `Range<usize>` blocks whose union is `0..n`.
/// Blocks of one share arrive in order; across shares there is no
/// ordering. The calling thread is one of the participants (see the
/// [module docs](self)); the call returns only after every block completed.
/// Panics inside `body` are forwarded to the caller after every claimed
/// share has quiesced.
///
/// Called from inside a pool helper (nested parallelism), the body runs
/// inline on the calling thread to avoid pool starvation.
///
/// # Panics
/// Panics, before `body` runs, if `n` is 2³² or more: a share's span
/// packs its start and end into one 64-bit word.
pub fn parallel_for<F>(pool: &ThreadPool, n: usize, schedule: Schedule, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let _ = parallel_for_impl(pool, n, schedule, &body, false);
}

/// As [`parallel_for`], additionally returning per-share timing for the
/// load-imbalance experiments.
pub fn parallel_for_stats<F>(
    pool: &ThreadPool,
    n: usize,
    schedule: Schedule,
    body: F,
) -> LaunchStats
where
    F: Fn(Range<usize>) + Sync,
{
    parallel_for_impl(pool, n, schedule, &body, true)
}

/// A participant's remaining rows, packed as `(start << 32) | end` in one
/// atomic word so claims and steals are single CAS operations. The value
/// fully encodes the span, which makes the CAS protocol immune to ABA: a
/// compare-exchange that succeeds on `(s, e)` is operating on exactly the
/// span `(s, e)`, whatever the word held in between.
struct SpanSlot(AtomicU64);

#[inline]
fn pack(start: u64, end: u64) -> u64 {
    (start << 32) | end
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> 32, word & 0xFFFF_FFFF)
}

impl SpanSlot {
    fn new(start: usize, end: usize) -> Self {
        SpanSlot(AtomicU64::new(pack(start as u64, end as u64)))
    }

    /// Claim up to `grain` rows from the front (owner side).
    fn claim_front(&self, grain: u64) -> Option<Range<usize>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            let take = grain.min(end - start);
            match self.0.compare_exchange_weak(
                cur,
                pack(start + take, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start as usize..(start + take) as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Steal roughly half the span from the tail (thief side). Every CAS
    /// failure means another participant shrank this span, so the retry
    /// loop terminates.
    fn steal_tail(&self) -> Option<Range<usize>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            let take = (end - start).div_ceil(2);
            let split = end - take;
            match self.0.compare_exchange_weak(
                cur,
                pack(start, split),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(split as usize..end as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Install a stolen range as this participant's new span. Plain store:
    /// only the owner writes its own slot outside the CAS protocol, and
    /// only while the slot is empty (thieves never CAS an empty span).
    fn install(&self, range: &Range<usize>) {
        self.0.store(
            pack(range.start as u64, range.end as u64),
            Ordering::Release,
        );
    }
}

/// Lock-free per-share timing slot for [`parallel_for_stats`]: written
/// once by whoever ran the share, read after the join.
#[derive(Default)]
struct StatSlot {
    busy_bits: AtomicU64,
    rows: AtomicU64,
}

/// How long the caller of a launch spins for the helpers' last blocks
/// before it sleeps: about one futex sleep/wake pair on the measured host.
const JOIN_SPIN: Duration = Duration::from_micros(20);

/// Heap header of one forked launch, shared by `Arc` between the caller
/// and the helper jobs it submitted. It outlives the launch for exactly as
/// long as a late helper job still holds it, which is what lets such a job
/// find out — without touching the caller's stack — that nothing is left.
struct Join {
    /// Shares in the launch; share 0 is the caller's own.
    shares: usize,
    /// The next share nobody has claimed.
    next: AtomicUsize,
    /// Shares claimed by helpers that have finished.
    finished: AtomicUsize,
    lock: Mutex<()>,
    all_finished: Condvar,
}

impl Join {
    fn new(shares: usize) -> Arc<Self> {
        Arc::new(Join {
            shares,
            next: AtomicUsize::new(1),
            finished: AtomicUsize::new(0),
            lock: Mutex::new(()),
            all_finished: Condvar::new(),
        })
    }

    /// Claim the next unclaimed share, if one is left. Each share index is
    /// returned to exactly one claimant (`fetch_add` hands out distinct
    /// values). AcqRel: a helper's claim happens-after the caller's writes
    /// to the context — already ordered by the injector push/pop — and the
    /// ordering is kept explicit here rather than borrowed.
    fn claim(&self) -> Option<usize> {
        let share = self.next.fetch_add(1, Ordering::AcqRel);
        (share < self.shares).then_some(share)
    }

    /// A helper finished the share it claimed. Release pairs with the
    /// Acquire loads in [`Self::wait`], publishing the share's writes.
    fn finish(&self) {
        self.finished.fetch_add(1, Ordering::Release);
        // Lock-then-notify so the signal cannot slot between the waiter's
        // re-check and its wait.
        drop(self.lock.lock());
        self.all_finished.notify_one();
    }

    /// Block until `claimed` helper shares have finished. A helper that
    /// claimed a share is awake and running it, and range stealing keeps
    /// the shares within a grain of each other, so the wait is usually
    /// microseconds: spin for about what a sleep/wake pair would cost,
    /// then sleep. No `yield_now` here — the helper being waited for has
    /// its own core unless the box is oversubscribed, and then the sleep
    /// is what hands it this one.
    fn wait(&self, claimed: usize) {
        let finished = || self.finished.load(Ordering::Acquire) >= claimed;
        let spin_until = Instant::now() + JOIN_SPIN;
        while !finished() {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.lock.lock();
            while !finished() {
                self.all_finished.wait(&mut guard);
            }
            return;
        }
    }
}

/// The caller's side of a forked launch. Its `Drop` is the join, so the
/// join runs on every exit path — unwinding included — before the launch
/// context leaves the caller's stack.
struct JoinOnDrop<'a> {
    join: &'a Join,
    /// Shares the caller took (share 0 plus every later claim).
    mine: usize,
}

impl Drop for JoinOnDrop<'_> {
    fn drop(&mut self) {
        // Close the launch: on the ordinary path the caller's claim loop
        // already ran dry and this claims nothing; on an unwinding path it
        // takes (without running) whatever no helper has started.
        while self.join.claim().is_some() {
            self.mine += 1;
        }
        self.join.wait(self.join.shares - self.mine);
    }
}

/// Shared context for one launch; lives on the caller's stack for the
/// duration of the launch. Helpers reach it through the erased address in
/// their job, and only between claiming a share and finishing it.
struct LaunchCtx<'a, F> {
    body: &'a F,
    /// Rows claimed per grab, at least 1.
    grain: u64,
    /// Shares the launch is cut into (`Join::shares`).
    shares: usize,
    /// Per-share stealable spans.
    spans: Vec<SpanSlot>,
    /// Fast sibling-panicked flag; checked per block without taking the
    /// payload lock.
    panicked: AtomicBool,
    panic_slot: Mutex<Option<Box<dyn Any + Send>>>,
    stats: Option<Vec<StatSlot>>,
    metrics: &'a PoolMetrics,
}

impl<F> LaunchCtx<'_, F>
where
    F: Fn(Range<usize>) + Sync,
{
    /// Share `w` of the index space: drain the own span from the front,
    /// then steal half of a randomized sibling's remainder and repeat until
    /// no span anywhere holds rows.
    fn run_share(&self, w: usize) {
        let mut rows = 0usize;
        let started = Instant::now();
        // Decorrelate which victim each participant probes first.
        let mut seed = (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        'drain: loop {
            while let Some(range) = self.spans[w].claim_front(self.grain) {
                rows += range.len();
                self.run_block(range);
            }
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let start = seed as usize % self.shares;
            for k in 0..self.shares {
                let victim = (start + k) % self.shares;
                if victim == w {
                    continue;
                }
                if let Some(stolen) = self.spans[victim].steal_tail() {
                    self.metrics.count_range_steal();
                    self.spans[w].install(&stolen);
                    continue 'drain;
                }
            }
            // Every span was observed empty; any row still unclaimed lives
            // in a span some thief just installed — and that thief drains
            // its own span before ever stealing again, so coverage holds.
            break;
        }
        if let Some(stats) = &self.stats {
            let slot = &stats[w];
            slot.busy_bits
                .store(started.elapsed().as_secs_f64().to_bits(), Ordering::Relaxed);
            slot.rows.store(rows as u64, Ordering::Relaxed);
        }
    }

    /// Run `body` over one block, catching its panic.
    fn run_block(&self, range: Range<usize>) {
        // Stop early if a sibling panicked — keeps failure latency low on
        // large launches.
        if self.panicked.load(Ordering::Relaxed) {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(range))) {
            self.panicked.store(true, Ordering::Relaxed);
            let mut slot = self.panic_slot.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

fn parallel_for_impl<F>(
    pool: &ThreadPool,
    n: usize,
    schedule: Schedule,
    body: &F,
    want_stats: bool,
) -> LaunchStats
where
    F: Fn(Range<usize>) + Sync,
{
    assert!(
        u32::try_from(n).is_ok(),
        "a launch covers fewer than 2³² rows, not {n}"
    );
    let launch_start = Instant::now();
    if n == 0 {
        return LaunchStats::default();
    }

    // Inline: one-participant pools, launches the schedule cannot cut in
    // two, and nested calls from inside a helper (which would starve the
    // pool). Nothing shared is touched.
    let shares = pool.threads().min(schedule.blocks(n));
    if shares <= 1 || on_worker_thread() {
        if !want_stats {
            // Nobody reads the stats: no clock reads, no vectors.
            body(0..n);
            return LaunchStats::default();
        }
        let started = Instant::now();
        body(0..n);
        let busy = started.elapsed().as_secs_f64();
        return LaunchStats {
            worker_busy: vec![busy],
            worker_rows: vec![n],
            elapsed: launch_start.elapsed().as_secs_f64(),
        };
    }

    // Balanced contiguous seed spans, refined by stealing at runtime.
    let per = n.div_ceil(shares);
    let ctx = LaunchCtx {
        body,
        grain: schedule.grain.max(1) as u64,
        shares,
        spans: (0..shares)
            .map(|w| SpanSlot::new((w * per).min(n), ((w + 1) * per).min(n)))
            .collect(),
        panicked: AtomicBool::new(false),
        panic_slot: Mutex::new(None),
        stats: want_stats.then(|| (0..shares).map(|_| StatSlot::default()).collect()),
        metrics: pool.metrics(),
    };

    // Type- and lifetime-erasure shim: a monomorphised function pointer is
    // `'static` even though `F` (and the data it borrows) is not, so the
    // boxed job below never mentions `F`.
    unsafe fn share_shim<F: Fn(Range<usize>) + Sync>(ctx_addr: usize, w: usize) {
        // SAFETY: see the block comment at the call site.
        let ctx = unsafe { &*(ctx_addr as *const LaunchCtx<'_, F>) };
        ctx.run_share(w);
    }
    let shim: unsafe fn(usize, usize) = share_shim::<F>;

    // SAFETY (of the `shim` calls in the helper jobs below): the pointer
    // round-trip erases the stack lifetime of `ctx` (and through it the
    // caller's closure and whatever that borrows) so a job can be boxed as
    // 'static. A job dereferences the address only after `Join::claim`
    // handed it a share, and calls `Join::finish` after its last use of
    // it. This function leaves `ctx`'s frame only through `joined`'s
    // `Drop`, on return and on unwind alike, which first exhausts the
    // claim counter — so no job can claim a share afterwards, and a job
    // that has not claimed never forms the reference — and then blocks
    // until every share a helper did claim has called `finish`. Every
    // dereference therefore happens while `ctx` is live. `F: Sync` makes
    // sharing `&F` across the threads sound, and the `Release` in `finish`
    // / `Acquire` in `wait` publish the shares' writes to the caller.
    let ctx_addr = &ctx as *const LaunchCtx<'_, F> as usize;
    let join = Join::new(shares);
    let mut joined = JoinOnDrop {
        join: &join,
        mine: 1,
    };
    for _ in 1..shares {
        let join = Arc::clone(&join);
        let offered = pool.submit(Box::new(move || {
            if let Some(share) = join.claim() {
                // SAFETY: a share was claimed, so the caller is still
                // inside the launch and waits for the `finish` below.
                unsafe { shim(ctx_addr, share) };
                join.finish();
            }
        }));
        if !offered {
            // Injector full of jobs no helper has come for: nobody is
            // idle, and the shares are the caller's anyway.
            break;
        }
    }
    // The caller's own share, then any share no helper has started.
    ctx.run_share(0);
    while let Some(share) = join.claim() {
        joined.mine += 1;
        ctx.run_share(share);
    }
    drop(joined);

    if let Some(payload) = ctx.panic_slot.lock().take() {
        resume_unwind(payload);
    }

    let mut out = LaunchStats {
        elapsed: launch_start.elapsed().as_secs_f64(),
        ..LaunchStats::default()
    };
    if let Some(stats) = ctx.stats {
        for slot in stats {
            out.worker_busy
                .push(f64::from_bits(slot.busy_bits.load(Ordering::Relaxed)));
            out.worker_rows
                .push(slot.rows.load(Ordering::Relaxed) as usize);
        }
    }
    out
}

/// Sleep-free busy work used by scheduling tests (returns a value dependent
/// on `spins` so the optimizer cannot remove the loop).
pub fn spin_work(spins: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..spins {
        // black_box inside the loop: each iteration must execute even at
        // high opt-levels, or scheduling tests lose their workload.
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool4() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn covered_exactly_once(threads: usize, n: usize, schedule: Schedule) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(&pool, n, schedule, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} of {n} under {schedule:?} on {threads} threads"
            );
        }
    }

    #[test]
    fn full_coverage_all_schedules() {
        // Sizes around one block of every grain below (one share, exactly
        // one block, one row over), a ragged several-block launch, a long
        // one — on the inline pool, one helper, and several.
        for threads in [1usize, 2, 4] {
            for n in [0usize, 1, 2, 3, 7, 15, 16, 17, 53, 64, 1000, 1003, 10_000] {
                for grain in [1, 7, 16] {
                    covered_exactly_once(threads, n, Schedule { grain });
                }
            }
        }
    }

    #[test]
    fn span_pack_roundtrip_and_protocol() {
        let slot = SpanSlot::new(10, 30);
        assert_eq!(slot.claim_front(4), Some(10..14));
        // Steal takes half of the remainder (16 rows → 8 from the tail).
        assert_eq!(slot.steal_tail(), Some(22..30));
        assert_eq!(slot.claim_front(100), Some(14..22));
        assert_eq!(slot.claim_front(1), None);
        assert_eq!(slot.steal_tail(), None, "empty spans cannot be stolen");
        slot.install(&(5..7));
        assert_eq!(slot.claim_front(10), Some(5..7));
    }

    #[test]
    fn span_pack_roundtrip_at_the_packing_bound() {
        // `u32::MAX` rows is the largest launch `parallel_for` accepts, so
        // every start and end below must survive the 32-bit halves exactly.
        let n = u32::MAX as usize;
        let slot = SpanSlot::new(n - 10, n);
        assert_eq!(slot.claim_front(3), Some(n - 10..n - 7));
        // Seven rows left: the thief takes the tail four.
        assert_eq!(slot.steal_tail(), Some(n - 4..n));
        assert_eq!(slot.claim_front(u64::MAX), Some(n - 7..n - 4));
        assert_eq!(slot.claim_front(1), None);
        assert_eq!(slot.steal_tail(), None);

        // The whole packed range: the thief takes the larger half, the
        // owner claims the rest.
        slot.install(&(0..n));
        let half = n.div_ceil(2);
        assert_eq!(slot.steal_tail(), Some(n - half..n));
        assert_eq!(slot.claim_front(n as u64), Some(0..n - half));
        assert_eq!(slot.claim_front(1), None);

        slot.install(&(n - 1..n));
        assert_eq!(slot.steal_tail(), Some(n - 1..n));
        assert_eq!(slot.claim_front(1), None);
        assert_eq!(SpanSlot::new(n, n).claim_front(1), None);
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = pool4();
        parallel_for(&pool, 0, Schedule::default(), |_| {
            panic!("body must not run for n = 0")
        });
    }

    #[test]
    fn zero_grain_is_clamped() {
        covered_exactly_once(4, 10, Schedule { grain: 0 });
    }

    /// A launch of 2³² rows on `pool`, whose body must never run.
    #[cfg(target_pointer_width = "64")]
    fn launch_2_32_rows(pool: &ThreadPool) {
        parallel_for(pool, 1 << 32, Schedule::default(), |_| {
            unreachable!("the body of an oversized launch ran")
        });
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fewer than 2³² rows")]
    fn a_launch_of_2_32_rows_panics_before_the_body_inline() {
        launch_2_32_rows(&ThreadPool::new(1));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fewer than 2³² rows")]
    fn a_launch_of_2_32_rows_panics_before_the_body_forked() {
        launch_2_32_rows(&ThreadPool::new(2));
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = pool4();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(&pool, 100, Schedule::default(), |range| {
                if range.contains(&37) {
                    panic!("boom at 37");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
            .unwrap_or("");
        assert!(msg.contains("boom"), "got: {msg}");

        // Pool still usable after the panic.
        let sum = AtomicU64::new(0);
        parallel_for(&pool, 10, Schedule::default(), |range| {
            for i in range {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn nested_calls_run_inline() {
        let pool = pool4();
        let total = AtomicU64::new(0);
        // Grain 1: eight blocks, so the outer launch forks and helpers
        // meet the nested launch too.
        parallel_for(&pool, 8, Schedule { grain: 1 }, |outer| {
            for _ in outer {
                // Nested launch must not deadlock.
                parallel_for(&pool, 4, Schedule { grain: 1 }, |inner| {
                    for _ in inner {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    // ---- the fork-join protocol -------------------------------------

    #[test]
    fn one_thread_pool_runs_the_body_on_the_calling_thread() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let blocks = AtomicUsize::new(0);
        parallel_for(&pool, 1_000, Schedule { grain: 1 }, |_| {
            assert_eq!(std::thread::current().id(), caller);
            blocks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(blocks.load(Ordering::Relaxed), 1, "inline: one block");
        assert_eq!(pool.metrics().report(), Default::default());
    }

    /// Occupy every helper of `pool` with an unrelated job that returns
    /// only once the test also waits on the returned barrier.
    fn hold_helpers(pool: &ThreadPool) -> Arc<std::sync::Barrier> {
        let helpers = pool.threads() - 1;
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let release = Arc::new(std::sync::Barrier::new(helpers + 1));
        for _ in 0..helpers {
            let (started, release) = (started_tx.clone(), Arc::clone(&release));
            assert!(pool.submit(Box::new(move || {
                started.send(()).expect("the test is receiving");
                release.wait();
            })));
        }
        for _ in 0..helpers {
            started_rx.recv().expect("each helper starts its job");
        }
        release
    }

    #[test]
    fn launch_completes_on_the_caller_while_every_helper_is_held() {
        // Both helpers sit inside unrelated jobs for the whole launch, so
        // nobody but the caller can claim a share: the launch must finish
        // anyway (no wait on an unclaimed share), and the helper jobs it
        // submitted must later run to nothing.
        let pool = ThreadPool::new(3);
        let release = hold_helpers(&pool);

        let n = 3 * 16 + 5;
        let caller = std::thread::current().id();
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for grain in [1, 4, 16] {
            parallel_for(&pool, n, Schedule { grain }, |range| {
                assert_eq!(std::thread::current().id(), caller);
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3));
        let r = pool.metrics().report();
        assert_eq!(r.injector_pushes, 2 + 3 * 2, "one job per helper share");
        assert_eq!(r.jobs_executed, 2, "only the held jobs have started");

        release.wait();
        pool.quiesce();
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 3),
            "late helper jobs must find nothing to run"
        );
    }

    #[test]
    fn a_full_injector_never_stalls_a_launch() {
        // The helper is held for longer than the injector has slots: the
        // run-to-nothing jobs of finished launches fill the ring, and the
        // launches after that must drop their job, not wait for a slot
        // only the held helper could free.
        let pool = ThreadPool::new(2);
        let release = hold_helpers(&pool);
        let cap = crate::pool::INJECTOR_CAP;
        let rows = AtomicUsize::new(0);
        for _ in 0..cap + 100 {
            parallel_for(&pool, 2, Schedule { grain: 1 }, |range| {
                rows.fetch_add(range.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(rows.load(Ordering::Relaxed), 2 * (cap + 100));
        let r = pool.metrics().report();
        assert_eq!(r.injector_pushes as usize, 1 + cap, "the ring, no more");

        release.wait();
        pool.quiesce();
        // The drained pool forks again.
        parallel_for(&pool, 2, Schedule { grain: 1 }, |_| {});
        assert_eq!(pool.metrics().report().injector_pushes as usize, 2 + cap);
    }

    #[test]
    fn imbalance_counts_only_shares_that_ran_rows() {
        let stats = LaunchStats {
            worker_busy: vec![3.0, 1.0, 1e-7, 1e-7],
            worker_rows: vec![40, 24, 0, 0],
            elapsed: 3.0,
        };
        assert_eq!(stats.imbalance(), 1.5, "3 over the mean of 3 and 1");

        // In a launch: with the helpers held, the caller steals the other
        // shares' spans empty from inside share 0 and then claims them with
        // nothing left — one participant, perfectly balanced with itself.
        let pool = ThreadPool::new(3);
        let release = hold_helpers(&pool);
        let stats = parallel_for_stats(&pool, 60, Schedule { grain: 2 }, |range| {
            spin_work(range.len() * 1_000);
        });
        release.wait();
        assert_eq!(stats.worker_rows, [60, 0, 0]);
        assert_eq!(stats.imbalance(), 1.0);
    }

    #[test]
    fn one_block_launches_push_nothing() {
        let pool = pool4();
        let ran = AtomicUsize::new(0);
        for (n, schedule) in [
            (16, Schedule { grain: 16 }),
            (1, Schedule { grain: 16 }),
            (5, Schedule { grain: 8 }),
            (1, Schedule { grain: 1 }),
        ] {
            parallel_for(&pool, n, schedule, |range| {
                assert_eq!(range, 0..n, "one block, whole");
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        assert_eq!(pool.metrics().report().injector_pushes, 0);
        // One row more than a block is two shares: one helper job.
        parallel_for(&pool, 17, Schedule { grain: 16 }, |_| {});
        assert_eq!(pool.metrics().report().injector_pushes, 1);
    }

    /// A two-share launch of one row per share whose share 1 can only be running on the
    /// helper while the caller is inside share 0: share 0 waits for share
    /// 1 to start before it does anything.
    fn two_overlapping_shares(
        share0: impl Fn() + Sync,
        share1: impl Fn() + Sync,
    ) -> std::thread::Result<()> {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let helper_started = AtomicBool::new(false);
        catch_unwind(AssertUnwindSafe(|| {
            parallel_for(&pool, 2, Schedule { grain: 1 }, |range| {
                if range.start == 0 {
                    assert_eq!(
                        std::thread::current().id(),
                        caller,
                        "share 0 is the caller's"
                    );
                    while !helper_started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    share0();
                } else {
                    assert_ne!(std::thread::current().id(), caller);
                    helper_started.store(true, Ordering::Release);
                    share1();
                }
            });
        }))
    }

    #[test]
    fn caller_panic_is_forwarded_only_after_the_helper_share_finished() {
        let caller_panicking = AtomicBool::new(false);
        let helper_finished = AtomicBool::new(false);
        let result = two_overlapping_shares(
            || {
                caller_panicking.store(true, Ordering::Release);
                panic!("boom in the caller's share");
            },
            || {
                // Still inside the share when the caller panics, and for a
                // while after.
                while !caller_panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                spin_work(200_000);
                helper_finished.store(true, Ordering::Release);
            },
        );
        assert!(result.is_err(), "the panic must reach the caller");
        assert!(
            helper_finished.load(Ordering::Acquire),
            "parallel_for unwound while a helper was still inside its share"
        );
    }

    #[test]
    fn helper_panic_is_forwarded_after_the_caller_share_finished() {
        let helper_panicking = AtomicBool::new(false);
        let caller_finished = AtomicBool::new(false);
        let result = two_overlapping_shares(
            || {
                while !helper_panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                spin_work(200_000);
                caller_finished.store(true, Ordering::Release);
            },
            || {
                helper_panicking.store(true, Ordering::Release);
                panic!("boom in a helper's share");
            },
        );
        let payload = result.expect_err("the helper's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("boom in a helper's share")
        );
        assert!(caller_finished.load(Ordering::Acquire));
    }

    #[test]
    fn nested_launch_inside_the_callers_own_share_terminates() {
        // The caller is not a helper thread, so a launch nested in its own
        // share forks again — onto helpers that may all be busy with the
        // outer launch. It must finish regardless.
        let pool = pool4();
        let caller = std::thread::current().id();
        let inner_rows = AtomicUsize::new(0);
        let nested_on_caller = AtomicUsize::new(0);
        parallel_for(&pool, 4, Schedule { grain: 1 }, |outer| {
            for _ in outer {
                if std::thread::current().id() == caller {
                    nested_on_caller.fetch_add(1, Ordering::Relaxed);
                }
                parallel_for(&pool, 100, Schedule { grain: 4 }, |inner| {
                    inner_rows.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(inner_rows.load(Ordering::Relaxed), 400);
        assert!(nested_on_caller.load(Ordering::Relaxed) >= 1, "share 0");
    }

    #[test]
    fn two_threads_launch_on_one_pool_concurrently() {
        let pool = pool4();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2usize {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..300 {
                        let n = 40 + (round * 7 + t * 13) % 200;
                        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        parallel_for(pool, n, Schedule { grain: 4 }, |range| {
                            for i in range {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            }
                        });
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
        pool.quiesce();
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let pool = ThreadPool::new(8);
        let data: Vec<u64> = (0..100_000).map(|i| (i * 2654435761) % 1000).collect();
        let expected: u64 = data.iter().sum();
        let got = AtomicU64::new(0);
        parallel_for(&pool, data.len(), Schedule { grain: 128 }, |range| {
            let local: u64 = data[range].iter().sum();
            got.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(got.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn stats_cover_all_rows() {
        let pool = pool4();
        let stats = parallel_for_stats(&pool, 1000, Schedule { grain: 8 }, |range| {
            spin_work(range.len() * 10);
        });
        assert_eq!(stats.worker_rows.iter().sum::<usize>(), 1000);
        assert!(stats.elapsed >= 0.0);
        assert!(stats.imbalance() >= 1.0 - 1e-9);
        assert!(!stats.worker_busy.is_empty());
    }

    #[test]
    fn dynamic_stats_cover_all_rows_with_stealing() {
        let pool = pool4();
        // Heavy head: the first span's owner is slow, so siblings must
        // steal from it to finish — rows still sum exactly.
        let stats = parallel_for_stats(&pool, 256, Schedule { grain: 2 }, |range| {
            for i in range {
                spin_work(if i < 64 { 20_000 } else { 10 });
            }
        });
        assert_eq!(stats.worker_rows.iter().sum::<usize>(), 256);
    }

    #[test]
    fn coarse_grain_shows_imbalance_on_skewed_work() {
        let pool = pool4();
        // All heavy rows in the first quarter. At a grain of a whole
        // share's span the caller claims all of them in its first grab, so
        // it does ~all the work; at grain 1 the siblings steal them. The
        // two launches are compared by the busiest participant's share of
        // all busy time: `imbalance` is max over mean of the participants
        // that ran rows, so a helper that joins only for light rows raises
        // it (two heavy and two light participants read 2.0, as does the
        // coarse launch's caller next to one light helper).
        let busiest_share = |stats: &LaunchStats| {
            let busy = stats.worker_busy.iter().filter(|b| b.is_finite());
            busy.clone().cloned().fold(0.0, f64::max) / busy.sum::<f64>()
        };
        let n = 64;
        let heavy = n / 4;
        let skewed = |grain| {
            parallel_for_stats(&pool, n, Schedule { grain }, |range| {
                for i in range {
                    spin_work(if i < heavy { 400_000 } else { 100 });
                }
            })
        };
        let coarse = skewed(n / 4);
        assert!(
            coarse.imbalance() > 1.5,
            "expected skew, imbalance = {}",
            coarse.imbalance()
        );
        let fine = skewed(1);
        assert!(
            busiest_share(&fine) < busiest_share(&coarse),
            "busiest share at grain 1 {} vs grain {} {}",
            busiest_share(&fine),
            n / 4,
            busiest_share(&coarse)
        );
    }

    #[test]
    fn borrowed_output_buffer_is_written() {
        // The scoped-lifetime erasure must let workers write into a caller
        // buffer through an UnsafeCell-free route: disjoint &mut access via
        // raw parts is modeled here with per-index atomics in other tests;
        // this test uses the common real pattern of splitting outputs.
        let pool = pool4();
        let n = 1024;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(&pool, n, Schedule { grain: 1 }, |range| {
            for i in range {
                out[i].store((i * i) as u64, Ordering::Relaxed);
            }
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), (i * i) as u64);
        }
    }
}
