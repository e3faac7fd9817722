//! Persistent helper pool.
//!
//! The attention kernels launch thousands of short row-parallel regions
//! (10 warm-up + 15 timed iterations per configuration in the paper's
//! protocol), and a serving tick issues one small launch per layer — so
//! thread-spawn cost, per-launch queue overhead *and* sleep/wake latency
//! must all stay off the hot path.
//!
//! **Who participates.** A pool of `n` threads is `n` *participants*: the
//! thread that calls a launch plus `n − 1` persistent helper threads (so
//! `ThreadPool::new(1)` spawns nothing, and a box with `n` cores runs `n`
//! threads during a launch, not `n + 1`). The caller works in its own
//! launch — see [`mod@crate::parallel_for`] for the claim/join protocol —
//! and helpers only ever run the `'static` jobs a launch submits here.
//!
//! **The queue** (`shims/crossbeam`'s bounded [`Injector`]): submitted jobs
//! land in one shared lock-free ring, and an idle helper pops it. A job
//! only claims a share of its launch; balancing the launch's rows is the
//! launch's own job (share claims plus `Schedule::Dynamic` range
//! stealing), so the pool keeps no per-helper deques and steals nothing.
//! The submit fast path never takes a lock — it only notifies when the
//! sleeper count (an atomic mirror) says someone is parked.
//!
//! **The idle policy.** A helper that finds nothing keeps polling —
//! `spin_loop` rounds, one `yield_now` every 128th — for 200 µs before it
//! parks on the Condvar: about one wake. With helpers that parked after
//! 8 spins + 8 yields, the 0.1–7 ms of serial work between a serving
//! tick's launches always outlasted the backoff, so every launch paid a
//! futex wake on its critical path (the benchmark's 16-row decode launch:
//! 0.036–0.073 ms on the two-thread engine against 0.027 ms on one thread,
//! and 3300 parks per `stack_serve` repetition, ≈ 19 a tick). Swept on
//! that benchmark, a bound of 0 / 20 / 50 / 200 / 1000 µs left 1644 / 1428
//! / 501 / 117 / 11 parks a repetition; throughput was within the host's
//! run-to-run spread from 20 µs on (the benchmark's idle spinners keep the
//! vCPUs out of the hypervisor's halt path, so a wake is cheap there) and
//! 1–17 % higher at 200 µs than at 0 in three of three alternating runs.
//! The sizing prototype of this design, on a host where a wake cost more,
//! read 5285 / 6126 / 6288 / 6385 rows/s at 20 / 50 / 200 / 1000 µs. Both
//! plateau by one wake latency, so the bound sits there (the spin-then-park
//! rule: never burn much more than the sleep would have cost) and is not
//! an option.
//!
//! The poll must not be a stream of `sched_yield` calls: next to one
//! `SCHED_IDLE` spinner per CPU (how the serving benchmark conditions its
//! host) a yield returns in 0.25 µs at the median, but about one in 600
//! gives the core away for 5 ms, and a helper that yielded every round
//! found 52 % of `stack_serve`'s forked launches already finished when it
//! came back. It must still yield now and then: with more runnable threads
//! than cores (four participants pinned to one CPU in CI) that is what
//! hands the core to the thread holding the work.
//!
//! Every push, job and park is tallied into relaxed [`PoolMetrics`]
//! counters (see [`crate::metrics`]), so instrumentation does not
//! serialize the lock-free path.

use crate::metrics::PoolMetrics;
use crossbeam::deque::{Injector, Steal};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Capacity of the shared injector ring. A launch enqueues at most one
/// job per helper, so ordinary occupancy is a few concurrent launches plus
/// the jobs of launches that finished before a helper got to them. Those
/// pile up while every helper sits in some other launcher's long share;
/// past this many, [`ThreadPool::submit`] drops the job instead of
/// waiting for a slot.
pub(crate) const INJECTOR_CAP: usize = 4096;
/// How long an idle helper keeps polling before it parks: about one wake
/// latency on the measured host (see the module docs for the sweep).
const IDLE_POLL: Duration = Duration::from_micros(200);
/// An idle helper polls with `spin_loop` and yields its timeslice once
/// every this many rounds (a round measured 0.2–0.45 µs when it also
/// probed three sibling deques, so at most every 25–60 µs); see the module
/// docs for why not more often and why not never.
const YIELD_EVERY: u32 = 128;

thread_local! {
    /// Set on pool helper threads — used to detect nested parallel regions
    /// (which would starve a bounded pool) and run them inline instead.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a pool helper thread.
pub fn on_worker_thread() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

/// State shared between the pool handle and every worker thread.
struct Shared {
    injector: Injector<Job>,
    shutdown: AtomicBool,
    /// Lock-free mirror of "how many workers are parked": submitters only
    /// touch `sleep_lock` when this is non-zero, so an all-busy pool never
    /// contends on the Condvar.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    metrics: PoolMetrics,
}

impl Shared {
    /// Pop the next job, retrying while a concurrent pop took the head.
    fn find_job(&self) -> Option<Job> {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => return None,
            }
        }
    }

    /// Wake one parked worker if the sleeper mirror says there is one.
    #[inline]
    fn notify_sleeper(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            // Taking the lock orders this notify after any in-progress
            // park's work-recheck, closing the lost-wakeup window.
            let _guard = self.sleep_lock.lock();
            self.wakeup.notify_one();
        }
    }

    /// Park until new work (or shutdown) is signalled. The sleeper count
    /// is raised *before* the final work re-check (with a SeqCst fence in
    /// between) so a submitter either sees the sleeper and notifies, or
    /// pushed early enough for the re-check to see the job.
    fn park(&self) {
        let mut guard = self.sleep_lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !self.injector.is_empty() || self.shutdown.load(Ordering::Acquire) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.metrics.count_park();
        self.wakeup.wait(&mut guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn helper_loop(shared: &Shared) {
    IN_POOL_WORKER.with(|f| f.set(true));
    // Poll rounds since the last job, and when that idle stretch began
    // (`None` while there is work).
    let mut rounds = 0u32;
    let mut idle_since: Option<Instant> = None;
    loop {
        if let Some(job) = shared.find_job() {
            rounds = 0;
            idle_since = None;
            // Count before running: a job's last action signals its
            // launch's caller, so counting after would let that caller
            // observe the job as "not yet executed".
            shared.metrics.count_job();
            job();
            continue;
        }
        // Only exit once the pool is shutting down AND the injector is
        // empty, so pending jobs are drained rather than leaked.
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if idle_since.get_or_insert_with(Instant::now).elapsed() >= IDLE_POLL {
            shared.park();
            rounds = 0;
            idle_since = None;
            continue;
        }
        rounds += 1;
        if rounds % YIELD_EVERY == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A fixed-size persistent helper pool.
///
/// A pool of `n` threads is `n` participants in a launch: the launching
/// thread itself plus `n − 1` helper threads owned by the pool. Helpers
/// exit when the pool is dropped (after draining queued jobs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool of `threads` participants (at least 1): the calling
    /// thread of each launch plus `threads − 1` helper threads spawned
    /// here. A one-thread pool spawns nothing and runs every launch inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Injector::with_capacity(INJECTOR_CAP),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            metrics: PoolMetrics::new(),
        });
        let handles = (0..threads - 1)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpa-helper-{idx}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("failed to spawn pool helper")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of participants in a launch: the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Substrate counters (jobs pushed and executed, range steals, parks).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.shared.metrics
    }

    /// Block until every job submitted so far has been executed: a helper
    /// job whose launch the caller finished alone runs (to nothing) after
    /// that launch returned.
    #[cfg(test)]
    pub(crate) fn quiesce(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let r = self.metrics().report();
            if r.jobs_executed == r.injector_pushes {
                return;
            }
            assert!(Instant::now() < deadline, "queued jobs never ran: {r:?}");
            std::thread::yield_now();
        }
    }

    /// Offer a `'static` job to the helpers, without ever waiting: when the
    /// injector is full (every helper has been busy elsewhere for
    /// [`INJECTOR_CAP`] submissions) the job is dropped unrun and `false`
    /// returned. A launch loses nothing by that — a share no job claims is
    /// the caller's — and the backlog is of jobs that will run to nothing.
    ///
    /// # Panics
    /// Panics if the pool has shut down, or has no helper to run the job
    /// (a one-thread pool — its launches never fork).
    pub(crate) fn submit(&self, job: Job) -> bool {
        assert!(
            !self.shared.shutdown.load(Ordering::Acquire),
            "thread pool has shut down"
        );
        assert!(
            !self.handles.is_empty(),
            "a one-thread pool has no helper to run a job"
        );
        if self.shared.injector.try_push(job).is_err() {
            return false;
        }
        self.shared.metrics.count_injector_push();
        self.shared.notify_sleeper();
        true
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Lock-then-notify: a worker between its shutdown re-check and
        // `wait` still holds the lock, so acquiring it here orders this
        // broadcast after that worker is actually parked.
        drop(self.shared.sleep_lock.lock());
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide default pool, sized by `GPA_THREADS` or the machine's
/// available parallelism.
pub fn global_pool() -> &'static ThreadPool {
    use std::sync::OnceLock;
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// Thread count policy: `GPA_THREADS` env var if set, else available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("GPA_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Submit `count` jobs that bump a counter and report on a channel;
    /// block until all have run.
    fn run_counted(pool: &ThreadPool, count: usize, work: fn()) -> usize {
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..count {
            let c = counter.clone();
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move || {
                work();
                c.fetch_add(1, Ordering::Relaxed);
                tx.send(()).expect("the test is still receiving");
            })));
        }
        for _ in 0..count {
            rx.recv().expect("every job reports");
        }
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn jobs_run_and_latch_releases() {
        let pool = ThreadPool::new(4);
        assert_eq!(run_counted(&pool, 100, || {}), 100);
        assert_eq!(pool.metrics().report().jobs_executed, 100);
    }

    #[test]
    fn worker_flag_visible_inside_jobs() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || {
            tx.send(on_worker_thread()).expect("receiver is alive");
        }));
        assert!(rx.recv().expect("the job reports"), "jobs run on helpers");
        assert!(!on_worker_thread(), "the caller thread is not a helper");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let ran = run_counted(&pool, 10, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        drop(pool); // must not hang or abort
        assert_eq!(ran, 10);
    }

    #[test]
    fn drop_drains_pending_jobs() {
        // Jobs still queued when the pool drops are executed, not leaked —
        // the shutdown flag only stops helpers once the injector is empty.
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let c = counter.clone();
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        // The caller is the pool's one participant: a helper could never
        // receive a job, so none is spawned (`new(0)` clamps to 1).
        for requested in [0usize, 1] {
            let pool = ThreadPool::new(requested);
            assert_eq!(pool.threads(), 1);
            assert!(pool.handles.is_empty());
        }
        assert_eq!(ThreadPool::new(4).handles.len(), 3);
    }

    #[test]
    #[should_panic(expected = "no helper")]
    fn submit_to_a_one_thread_pool_is_a_bug() {
        ThreadPool::new(1).submit(Box::new(|| {}));
    }

    #[test]
    fn parked_workers_wake_for_new_work() {
        let pool = ThreadPool::new(4);
        // Far longer than the idle poll: the helpers must have parked.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(run_counted(&pool, 8, || {}), 8);
        // With a 20ms idle window the helpers must actually have parked —
        // otherwise the idle poll never hands the CPU back.
        assert!(pool.metrics().report().parks > 0, "helpers never parked");
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global_pool().threads() >= 1);
    }
}
