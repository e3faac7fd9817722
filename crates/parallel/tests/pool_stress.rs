//! Seeded stress harness for the work-stealing pool. No registry access
//! means no `loom`; instead this drives real threads through high-churn
//! schedules — rapid launch storms, skewed stealing workloads, concurrent
//! launchers, and pool teardown with jobs still queued — and checks the
//! exactly-once invariants after each.
//!
//! Every test generates seeded rounds until its time budget runs out: a
//! slice of a couple of seconds in the default `cargo test` run, a soak
//! under `GPA_STRESS` (`GPA_STRESS=1 cargo test -p gpa-parallel --test
//! pool_stress`, as the serving-simulation soak is requested).

use gpa_parallel::{parallel_for, parallel_for_stats, Schedule, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the running test should stop generating rounds.
fn stress_deadline() -> Instant {
    let soak = std::env::var("GPA_STRESS").is_ok_and(|v| v != "0");
    Instant::now() + Duration::from_millis(if soak { 20_000 } else { 2_000 })
}

struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn stress_launch_storm_exactly_once() {
    // Small launches with seeded random n and grain, back to back —
    // the decode-serving shape. Every index must be visited exactly once
    // per launch, under maximal launch-path churn.
    let deadline = stress_deadline();
    let mut rng = XorShift(0xC0FF_EE00);
    while Instant::now() < deadline {
        let threads = [2usize, 4, 8][(rng.next() % 3) as usize];
        let pool = ThreadPool::new(threads);
        for round in 0..500 {
            let n = 1 + (rng.next() % 97) as usize;
            let schedule = match rng.next() % 2 {
                0 => Schedule {
                    grain: 1 + (rng.next() % 8) as usize,
                },
                _ => Schedule::default(),
            };
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
                    "round {round}: index {i} of {n} under {schedule:?} ({threads} threads)"
                );
            }
        }
        // A helper job whose launch the caller finished alone runs (to
        // nothing) later: executed trails pushed until the pool is quiet.
        let report = pool.metrics().report();
        assert!(report.jobs_executed <= report.injector_pushes);
        while pool.metrics().report().jobs_executed < report.injector_pushes {
            std::thread::yield_now();
        }
        let report = pool.metrics().report();
        assert_eq!(report.jobs_executed, report.injector_pushes);
    }
}

#[test]
fn stress_skewed_stealing_conserves_rows() {
    // Pathologically skewed workloads force heavy range stealing; the
    // per-share row tallies must still sum to n every time.
    let deadline = stress_deadline();
    let pool = ThreadPool::new(4);
    let mut rng = XorShift(0xDEAD_BEEF);
    let mut range_steals_seen = 0u64;
    while Instant::now() < deadline {
        let n = 64 + (rng.next() % 512) as usize;
        let hot = (rng.next() % n as u64) as usize;
        let stats = parallel_for_stats(&pool, n, Schedule { grain: 1 }, |range| {
            for i in range {
                gpa_parallel::spin_work(if i == hot { 200_000 } else { 50 });
            }
        });
        assert_eq!(stats.worker_rows.iter().sum::<usize>(), n);
        range_steals_seen = pool.metrics().report().range_steals;
    }
    // On a multi-core host stealing is effectively guaranteed here; on a
    // single-core box the caller may finish whole launches alone. Only
    // assert that the counter moved if two threads can run concurrently.
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        > 1
    {
        assert!(range_steals_seen > 0, "skewed loads never stole a range");
    }
}

#[test]
fn stress_concurrent_launchers_share_one_pool() {
    // Several caller threads issue launches against the same pool at once
    // (the engine's run_batch pattern under concurrent serving) — jobs
    // from different launches interleave in the injector.
    let deadline = stress_deadline();
    let pool = Arc::new(ThreadPool::new(4));
    let total = Arc::new(AtomicUsize::new(0));
    let callers: Vec<_> = (0..4)
        .map(|c| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut rng = XorShift(0x5EED + c as u64);
                let mut local = 0usize;
                while Instant::now() < deadline {
                    let n = 1 + (rng.next() % 256) as usize;
                    let sum = AtomicUsize::new(0);
                    parallel_for(&pool, n, Schedule { grain: 4 }, |range| {
                        sum.fetch_add(range.len(), Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), n);
                    local += n;
                }
                total.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
    assert!(total.load(Ordering::Relaxed) > 0);
}

#[test]
fn stress_teardown_with_queued_jobs() {
    // Pools are created, loaded, and dropped in a tight loop; drop must
    // drain every queued job — the helper jobs of launches the caller
    // finished alone among them (no leaks, no lost executions, no hangs).
    let deadline = stress_deadline();
    for seed in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let pool = ThreadPool::new(2 + (seed % 3) as usize);
        let counter = Arc::new(AtomicUsize::new(0));
        let n = 100 + (seed * 7 % 400) as usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(&pool, n, Schedule { grain: 3 }, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        counter.fetch_add(
            hits.iter()
                .map(|h| h.load(Ordering::Relaxed))
                .sum::<usize>(),
            Ordering::Relaxed,
        );
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), n, "seed {seed}");
    }
}
