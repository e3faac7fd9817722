#![warn(missing_docs)]
//! Offline stand-in for the crates.io
//! [`crossbeam-deque`](https://docs.rs/crossbeam-deque/0.8) crate
//! (published under the `crossbeam` umbrella).
//!
//! Provides the one queue `gpa-parallel`'s pool hands jobs to its helpers
//! through, implemented with plain `std` atomics:
//!
//! - [`deque::Injector`] — a shared MPMC FIFO, a Vyukov-style bounded ring
//!   with per-slot sequence numbers (ABA-safe without tagged pointers or
//!   deferred reclamation). Launches push with
//!   [`deque::Injector::try_push`]; helpers pop with
//!   [`deque::Injector::steal`].
//! - [`deque::Steal`] — the three-valued pop result (`Empty` / `Success` /
//!   `Retry`) callers loop on.
//!
//! Upstream's per-worker `Worker`/`Stealer` deques are not provided: a
//! pool job only claims a share of its launch, and the launch balances its
//! rows itself, so a second work-stealing layer under it moved nothing.
//!
//! ## API subset & deviations from upstream (shim-parity watch)
//!
//! Upstream `crossbeam_deque` grows its injector dynamically and reclaims
//! blocks through `crossbeam-epoch`. This shim has no garbage collector,
//! so the ring is **bounded** and sized at construction:
//!
//! - `Injector::with_capacity(cap)` replaces `Injector::new()`;
//! - [`deque::Injector::try_push`] returns `Err(task)` when the ring is
//!   full instead of allocating a new block. Upstream's infallible `push`
//!   is not provided; the pool drops a job the ring has no room for.
//!
//! If this build environment ever gains crates.io access, swap this shim
//! for `crossbeam-deque` behind the same manifest name, replace
//! `with_capacity(_)` with `new()` and `try_push` with `push`.

pub mod deque {
    //! Bounded MPMC injector (subset of `crossbeam_deque`).

    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Result of a pop ("steal") from an [`Injector`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// One task was taken.
        Success(T),
        /// A concurrent pop took the head first; retrying may succeed.
        Retry,
    }

    /// One slot of the injector ring: `sequence` encodes whether the slot
    /// is empty (== index), full (== index + 1), or recycled for a later
    /// lap (> index + 1), which is what makes the ring ABA-safe.
    struct Slot<T> {
        sequence: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// Shared MPMC injector queue (Vyukov bounded ring).
    ///
    /// FIFO across [`Injector::try_push`]/[`Injector::steal`]; every
    /// operation is a load + CAS pair — no locks anywhere.
    pub struct Injector<T> {
        head: AtomicUsize,
        tail: AtomicUsize,
        slots: Box<[Slot<T>]>,
        mask: usize,
    }

    // SAFETY: slot payloads are published/consumed through the per-slot
    // sequence number protocol (write before Release store, read after
    // Acquire load of the matching sequence value).
    unsafe impl<T: Send> Sync for Injector<T> {}
    // SAFETY: the ring owns the tasks it holds and no thread-bound state,
    // so moving it to another thread moves `T`s, which `T: Send` allows.
    unsafe impl<T: Send> Send for Injector<T> {}

    impl<T> Injector<T> {
        /// Injector with room for `capacity` tasks (rounded up to a power
        /// of two, at least 2).
        pub fn with_capacity(capacity: usize) -> Self {
            let cap = capacity.max(2).next_power_of_two();
            let slots = (0..cap)
                .map(|i| Slot {
                    sequence: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Injector {
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                slots,
                mask: cap - 1,
            }
        }

        /// Enqueue at the tail, failing when the ring is full.
        pub fn try_push(&self, task: T) -> Result<(), T> {
            let mut pos = self.tail.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos & self.mask];
                let seq = slot.sequence.load(Ordering::Acquire);
                let dif = seq as isize - pos as isize;
                if dif == 0 {
                    // Slot free for this lap: claim it.
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: `seq == pos` says the slot is empty
                            // for this lap, and the CAS made this thread the
                            // only producer of `pos`; no consumer reads the
                            // slot before the Release store of `pos + 1`
                            // below (`stress_injector_churn_with_drop_mid_flight`).
                            unsafe { (*slot.value.get()).write(task) };
                            slot.sequence.store(pos.wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(now) => pos = now,
                    }
                } else if dif < 0 {
                    // The slot still holds a task from the previous lap.
                    return Err(task);
                } else {
                    pos = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Dequeue from the head.
        pub fn steal(&self) -> Steal<T> {
            let mut pos = self.head.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos & self.mask];
                let seq = slot.sequence.load(Ordering::Acquire);
                let dif = seq as isize - pos.wrapping_add(1) as isize;
                if dif == 0 {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: `seq == pos + 1` was loaded with
                            // Acquire after the producer's Release store, so
                            // the value is initialised and visible; the CAS
                            // made this thread the only consumer of `pos`, and
                            // no producer rewrites the slot before the store
                            // of `pos + capacity` below.
                            let task = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.sequence
                                .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                            return Steal::Success(task);
                        }
                        Err(_) => return Steal::Retry,
                    }
                } else if dif < 0 {
                    return Steal::Empty;
                } else {
                    pos = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// True when the queue is observed empty.
        pub fn is_empty(&self) -> bool {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            tail <= head
        }
    }

    impl<T> Drop for Injector<T> {
        fn drop(&mut self) {
            // Exclusive access: drain every slot still holding a task.
            let head = *self.head.get_mut();
            let tail = *self.tail.get_mut();
            for pos in head..tail {
                let slot = &mut self.slots[pos & self.mask];
                // SAFETY: `&mut self` means no push or steal is running;
                // every position in `head..tail` was written by a push that
                // has returned and was never read by a steal, so it holds an
                // initialised task that is dropped exactly once here
                // (`stress_injector_churn_with_drop_mid_flight`).
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Push, yielding until a consumer frees a slot when the ring is full.
    pub(crate) fn push_waiting<T>(inj: &Injector<T>, mut task: T) {
        while let Err(back) = inj.try_push(task) {
            task = back;
            std::thread::yield_now();
        }
    }

    #[test]
    fn injector_fifo_and_full() {
        // Eight rounds over a four-slot ring (17 pushes: four laps). Each
        // round fills the ring until `try_push` fails at exactly the
        // capacity, then drains one to three values, so the next fill
        // wraps past the end of the ring from a different head offset.
        // Values leave in push order throughout.
        let inj: Injector<u32> = Injector::with_capacity(4);
        let (mut pushed, mut popped) = (0u32, 0u32);
        for round in 0..8 {
            while inj.try_push(pushed).is_ok() {
                pushed += 1;
            }
            assert_eq!(pushed - popped, 4, "round {round}: full at the capacity");
            assert_eq!(inj.try_push(99), Err(99));
            for _ in 0..=round % 3 {
                assert_eq!(inj.steal(), Steal::Success(popped), "round {round}");
                popped += 1;
            }
        }
        assert!(pushed >= 3 * 4, "the ring wrapped at least three laps");
        while popped < pushed {
            assert_eq!(inj.steal(), Steal::Success(popped));
            popped += 1;
        }
        assert_eq!(inj.steal(), Steal::Empty);
        assert!(inj.is_empty());
    }

    #[test]
    fn drop_mid_flight_runs_destructors() {
        // Tasks still queued when the injector drops must be dropped
        // exactly once — the "drop-mid-flight" shutdown scenario.
        struct Token(Arc<AtomicUsize>);
        impl Drop for Token {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let inj: Injector<Token> = Injector::with_capacity(8);
        for _ in 0..6 {
            assert!(inj.try_push(Token(Arc::clone(&drops))).is_ok());
        }
        drop(inj.steal()); // one consumed
        drop(inj);
        assert_eq!(drops.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn injector_mpmc_partition() {
        let inj = Arc::new(Injector::<usize>::with_capacity(256));
        let producers = 3usize;
        let per = 5_000usize;
        let live = Arc::new(AtomicUsize::new(producers));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let inj = Arc::clone(&inj);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match inj.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if live.load(Ordering::Acquire) == 0 && inj.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let inj = Arc::clone(&inj);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for i in 0..per {
                        push_waiting(&inj, p * per + i);
                    }
                    live.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut all = BTreeSet::new();
        let mut count = 0;
        for c in consumers {
            let got = c.join().unwrap();
            count += got.len();
            all.extend(got);
        }
        assert_eq!(count, producers * per, "no duplicates");
        assert_eq!(all.len(), producers * per, "no losses");
    }
}

#[cfg(test)]
mod stress {
    //! Seeded stress harness (no registry access, so no `loom`; this
    //! drives real threads through adversarial interleavings instead).
    //! Each test runs seeded rounds until its time budget is spent: a
    //! one-second slice in the default `cargo test` run, a soak under
    //! `GPA_STRESS`, as the serving-simulation soak is requested.

    use super::deque::{Injector, Steal};
    use super::tests::push_waiting;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// When the running test should stop starting new rounds.
    fn stress_deadline() -> Instant {
        let soak = std::env::var("GPA_STRESS").is_ok_and(|v| v != "0");
        Instant::now() + Duration::from_millis(if soak { 20_000 } else { 1_000 })
    }

    /// Tiny deterministic RNG so every run of the harness explores the
    /// same interleaving *pressure* (the actual interleavings are up to
    /// the scheduler, which is the point).
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
    fn stress_injector_churn_with_drop_mid_flight() {
        let deadline = stress_deadline();
        // Producers and consumers churn a small ring (maximum wrap-around
        // pressure), then the queue is dropped while still holding tasks;
        // drop counts must account for every single token.
        struct Token {
            _payload: u64,
            drops: Arc<AtomicUsize>,
        }
        impl Drop for Token {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        for seed in 1u64.. {
            if Instant::now() >= deadline {
                break;
            }
            let inj = Arc::new(Injector::<Token>::with_capacity(16));
            let drops = Arc::new(AtomicUsize::new(0));
            let produced = Arc::new(AtomicUsize::new(0));
            let live = Arc::new(AtomicUsize::new(2));
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let inj = Arc::clone(&inj);
                    let drops = Arc::clone(&drops);
                    let produced = Arc::clone(&produced);
                    let live = Arc::clone(&live);
                    std::thread::spawn(move || {
                        let mut rng = XorShift(seed.wrapping_mul(31).wrapping_add(p) | 1);
                        for _ in 0..20_000 {
                            let token = Token {
                                _payload: rng.next(),
                                drops: Arc::clone(&drops),
                            };
                            push_waiting(&inj, token);
                            produced.fetch_add(1, Ordering::Relaxed);
                        }
                        live.fetch_sub(1, Ordering::Release);
                    })
                })
                .collect();
            // One consumer drains while any producer is alive (producers
            // wait on the tiny full ring otherwise), then stops on the
            // first empty pop after the last producer finished.
            let consumer = {
                let inj = Arc::clone(&inj);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    loop {
                        match inj.steal() {
                            Steal::Success(t) => {
                                drop(t);
                                got += 1;
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if live.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            };
            for p in producers {
                p.join().unwrap();
            }
            let consumed = consumer.join().unwrap();
            assert!(
                consumed <= produced.load(Ordering::Relaxed),
                "seed {seed}: consumed more than was produced"
            );
            // Refill a little so the drop below genuinely happens
            // mid-flight (the consumer drained the ring before it left).
            let mut rng = XorShift(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
            for _ in 0..5 {
                let token = Token {
                    _payload: rng.next(),
                    drops: Arc::clone(&drops),
                };
                assert!(inj.try_push(token).is_ok(), "seed {seed}: ring has room");
                produced.fetch_add(1, Ordering::Relaxed);
            }
            drop(inj); // drop mid-flight: remaining tokens dropped here
            assert_eq!(
                drops.load(Ordering::Relaxed),
                produced.load(Ordering::Relaxed),
                "seed {seed}: every token dropped exactly once"
            );
        }
    }
}
