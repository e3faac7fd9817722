//! Work-counting instrumentation for the work-optimality claims.
//!
//! Section IV-B argues the graph kernels are *work optimal*: they perform
//! exactly `O(Sf·L²·d)` operations — one query–key dot product per non-zero
//! of the attention mask, and nothing else. [`WorkCounter`] lets the
//! instrumented kernel variants prove that empirically: tests assert
//! `dot_products == nnz(mask)` for every kernel and mask.
//!
//! Counting is designed to stay off the hot path: workers accumulate into a
//! local `u64` and flush once per block via `WorkCounter::add_dot_products`.
//!
//! [`PoolMetrics`] plays the same role for the pool itself: every counter
//! is a relaxed `AtomicU64`, so observing the pool (jobs, parks, range
//! steals) adds no ordering to the submit and pop paths it measures.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cross-thread tally of the operations a kernel performed.
#[derive(Debug, Default)]
pub struct WorkCounter {
    dot_products: AtomicU64,
    neighbor_searches: AtomicU64,
}

impl WorkCounter {
    /// Fresh counter with all tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` query–key dot products (one per mask non-zero).
    #[inline]
    pub(crate) fn add_dot_products(&self, n: u64) {
        self.dot_products.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` elements scanned while locating row bounds — the COO
    /// kernel's search overhead (Section V-C's explanation of COO's cost).
    #[inline]
    pub(crate) fn add_neighbor_searches(&self, n: u64) {
        self.neighbor_searches.fetch_add(n, Ordering::Relaxed);
    }

    /// Total dot products so far.
    pub fn dot_products(&self) -> u64 {
        self.dot_products.load(Ordering::Relaxed)
    }

    /// Total search steps so far.
    pub(crate) fn neighbor_searches(&self) -> u64 {
        self.neighbor_searches.load(Ordering::Relaxed)
    }

    /// Reset all tallies.
    pub fn reset(&self) {
        self.dot_products.store(0, Ordering::Relaxed);
        self.neighbor_searches.store(0, Ordering::Relaxed);
    }

    /// Snapshot of all tallies.
    pub fn report(&self) -> WorkReport {
        WorkReport {
            dot_products: self.dot_products(),
            neighbor_searches: self.neighbor_searches(),
        }
    }
}

/// Immutable snapshot of a [`WorkCounter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkReport {
    /// Query–key dot products performed.
    pub dot_products: u64,
    /// Elements scanned during row-bound searches (COO only).
    pub neighbor_searches: u64,
}

impl WorkReport {
    /// The work-optimality check of Section IV-B: a kernel is work optimal
    /// on a mask with `nnz` non-zeros iff it performed exactly `nnz` dot
    /// products.
    pub fn is_work_optimal(&self, nnz: u64) -> bool {
        self.dot_products == nnz
    }
}

/// Relaxed atomic counters for the pool: jobs pushed into its queue and
/// executed, parks, and range steals.
///
/// Updates are single relaxed RMWs — no ordering, no locks — so enabling
/// metrics costs nothing on the paths being measured. Relaxed counters
/// still sum exactly: `fetch_add` is atomic regardless of ordering, so no
/// increment is ever lost (only *observation* of in-flight increments is
/// unordered). [`PoolMetrics::report`] takes a snapshot.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    jobs_executed: AtomicU64,
    jobs_pushed: AtomicU64,
    range_steals: AtomicU64,
    parks: AtomicU64,
}

impl PoolMetrics {
    /// Count one executed job.
    #[inline]
    pub(crate) fn count_job(&self) {
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one job pushed into the pool's queue.
    #[inline]
    pub(crate) fn count_job_push(&self) {
        self.jobs_pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one range span stolen from a sibling.
    #[inline]
    pub(crate) fn count_range_steal(&self) {
        self.range_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one worker parking on the Condvar.
    #[inline]
    pub(crate) fn count_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn report(&self) -> PoolReport {
        PoolReport {
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            jobs_pushed: self.jobs_pushed.load(Ordering::Relaxed),
            steal_attempts: 0,
            steals: 0,
            range_steals: self.range_steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of a [`PoolMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Jobs executed by workers.
    pub jobs_executed: u64,
    /// Jobs pushed into the pool's queue.
    pub jobs_pushed: u64,
    /// Always 0: helpers pop one shared queue and steal no jobs. This
    /// field and [`Self::steals`] stay **only** because the frozen serving
    /// benchmark (`benchmark/src/{drive,main}.rs`) reads them; both go when
    /// a benchmark change can drop `pool.steals` and `pool.steal_hit_ratio`.
    pub steal_attempts: u64,
    /// Always 0; see [`Self::steal_attempts`].
    pub steals: u64,
    /// Range spans stolen from siblings.
    pub range_steals: u64,
    /// Times a worker parked on the wakeup Condvar.
    pub parks: u64,
}

/// Per-worker local tally that flushes into a shared [`WorkCounter`] on
/// drop — one atomic RMW per block instead of per dot product.
pub struct LocalTally<'a> {
    counter: &'a WorkCounter,
    dot_products: u64,
    neighbor_searches: u64,
}

impl<'a> LocalTally<'a> {
    /// Start a local tally against `counter`.
    pub fn new(counter: &'a WorkCounter) -> Self {
        LocalTally {
            counter,
            dot_products: 0,
            neighbor_searches: 0,
        }
    }

    /// Count one dot product.
    #[inline(always)]
    pub fn dot(&mut self) {
        self.dot_products += 1;
    }

    /// Count `n` dot products at once — for kernels that score a whole
    /// tile of edges per sweep.
    #[inline(always)]
    pub fn dots(&mut self, n: u64) {
        self.dot_products += n;
    }

    /// Count `n` search steps.
    #[inline(always)]
    pub fn searched(&mut self, n: u64) {
        self.neighbor_searches += n;
    }
}

impl Drop for LocalTally<'_> {
    fn drop(&mut self) {
        if self.dot_products > 0 {
            self.counter.add_dot_products(self.dot_products);
        }
        if self.neighbor_searches > 0 {
            self.counter.add_neighbor_searches(self.neighbor_searches);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for::{parallel_for, Schedule};
    use crate::pool::ThreadPool;

    #[test]
    fn tallies_accumulate_and_reset() {
        let c = WorkCounter::new();
        c.add_dot_products(10);
        c.add_dot_products(5);
        c.add_neighbor_searches(7);
        assert_eq!(c.dot_products(), 15);
        assert_eq!(c.neighbor_searches(), 7);
        let r = c.report();
        assert_eq!(r.dot_products, 15);
        assert!(r.is_work_optimal(15));
        assert!(!r.is_work_optimal(14));
        c.reset();
        assert_eq!(c.report().dot_products, 0);
    }

    #[test]
    fn local_tally_flushes_on_drop() {
        let c = WorkCounter::new();
        {
            let mut t = LocalTally::new(&c);
            for _ in 0..42 {
                t.dot();
            }
            t.dots(8);
            t.searched(9);
            assert_eq!(c.dot_products(), 0, "not flushed until drop");
        }
        assert_eq!(c.dot_products(), 50);
        assert_eq!(c.neighbor_searches(), 9);
    }

    #[test]
    fn concurrent_tallies_do_not_lose_counts() {
        let pool = ThreadPool::new(8);
        let c = WorkCounter::new();
        let n = 10_000usize;
        parallel_for(&pool, n, Schedule { grain: 64 }, |range| {
            let mut t = LocalTally::new(&c);
            for _ in range {
                t.dot();
            }
        });
        assert_eq!(c.dot_products(), n as u64);
    }

    #[test]
    fn pool_metrics_sum_consistently_across_threads() {
        // Relaxed ordering must not lose increments: 8 raw threads hammer
        // every counter concurrently and the totals must be exact.
        let m = std::sync::Arc::new(PoolMetrics::default());
        let per = 50_000u64;
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        m.count_job();
                        m.count_range_steal();
                        m.count_job_push();
                        m.count_park();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = m.report();
        let want = 8 * per;
        assert_eq!(r.jobs_executed, want);
        assert_eq!(r.range_steals, want);
        assert_eq!(r.jobs_pushed, want);
        assert_eq!(r.parks, want);
        assert_eq!((r.steal_attempts, r.steals), (0, 0));
    }

    #[test]
    fn pool_metrics_account_for_a_real_launch() {
        // The pool's own accounting must balance: a forked launch pushes
        // one job per helper share, and every submitted job executes
        // exactly once — possibly after its launch returned, when the
        // caller took the share first, so right after a launch
        // `executed <= pushed` and equality holds at quiescence.
        let pool = ThreadPool::new(4);
        for _ in 0..16 {
            parallel_for(&pool, 512, Schedule { grain: 8 }, |range| {
                std::hint::black_box(range.len());
            });
        }
        let r = pool.metrics().report();
        assert_eq!(r.jobs_pushed, 16 * 3, "one job per helper share");
        assert!(r.jobs_executed <= r.jobs_pushed);
        pool.quiesce();
        let r = pool.metrics().report();
        assert_eq!(r.jobs_executed, r.jobs_pushed);
        assert_eq!((r.steal_attempts, r.steals), (0, 0));
    }
}
