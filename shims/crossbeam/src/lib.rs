#![warn(missing_docs)]
//! Offline stand-in for the crates.io
//! [`crossbeam-deque`](https://docs.rs/crossbeam-deque/0.8) crate
//! (published under the `crossbeam` umbrella).
//!
//! Provides the work-stealing substrate `gpa-parallel`'s pool is built on,
//! implemented with plain `std` atomics:
//!
//! - [`deque::Worker`] — a bounded Chase–Lev deque. The owning worker
//!   pushes and pops at the *bottom* (LIFO); thieves steal from the *top*
//!   (FIFO) through [`deque::Stealer`] handles. Single-word indices plus a
//!   fixed power-of-two ring buffer make every operation lock-free; the
//!   last-element owner/thief race is resolved by a compare-exchange on
//!   `top` exactly as in Chase & Lev's original algorithm (with the
//!   fences from Lê et al., "Correct and Efficient Work-Stealing for
//!   Weak Memory Models").
//! - [`deque::Injector`] — the shared MPMC queue launches are submitted
//!   through, a Vyukov-style bounded ring with per-slot sequence numbers
//!   (ABA-safe without tagged pointers or deferred reclamation).
//!   [`deque::Injector::steal_batch_and_pop`] moves a batch into a
//!   worker's deque and hands one task back, the crossbeam idiom for
//!   draining the global queue.
//! - [`deque::Steal`] — the three-valued steal result (`Empty` /
//!   `Success` / `Retry`) callers loop on.
//!
//! ## API subset & deviations from upstream (shim-parity watch)
//!
//! Upstream `crossbeam_deque` grows buffers dynamically and reclaims them
//! through `crossbeam-epoch`. This shim has no garbage collector, so both
//! containers are **bounded** rings sized at construction:
//!
//! - `Worker::with_capacity(cap)` replaces `Worker::new_lifo()`;
//!   [`deque::Worker::push`] returns `Err(task)` when the ring is full
//!   (callers overflow into the injector) instead of reallocating.
//! - `Injector::with_capacity(cap)` replaces `Injector::new()`;
//!   [`deque::Injector::push`] spins (with backoff) for a slot when the
//!   ring is momentarily full rather than allocating a new block. The
//!   pool sizes the ring far above its worst-case occupancy (a handful of
//!   jobs per in-flight launch), so the spin path is effectively dead
//!   code outside stress tests.
//!
//! If this build environment ever gains crates.io access, swap this shim
//! for `crossbeam-deque` behind the same manifest name and replace
//! `with_capacity(_)` calls with the unbounded constructors.

pub mod deque {
    //! Work-stealing deque + injector (subset of `crossbeam_deque`).

    use std::cell::{Cell, UnsafeCell};
    use std::marker::PhantomData;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicIsize, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Result of a steal attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// A concurrent operation interfered; retrying may succeed.
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }

        /// True when the result is [`Steal::Retry`].
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        /// True when the result is [`Steal::Empty`].
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// Chase–Lev ring buffer shared by one owner and any number of
    /// thieves. `top` only ever increases (steals and the owner's
    /// last-element claim); `bottom` is owned by the worker.
    struct ChaseLev<T> {
        top: AtomicIsize,
        bottom: AtomicIsize,
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
    }

    // SAFETY: slot access is mediated by the top/bottom protocol — a slot
    // is written only by the owner while unclaimed, and read exactly once
    // by whoever wins the index (owner pop or successful steal CAS).
    unsafe impl<T: Send> Sync for ChaseLev<T> {}
    unsafe impl<T: Send> Send for ChaseLev<T> {}

    impl<T> ChaseLev<T> {
        #[inline]
        fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
            self.slots[index as usize & self.mask].get()
        }
    }

    impl<T> Drop for ChaseLev<T> {
        fn drop(&mut self) {
            // Exclusive access: drop every task still in [top, bottom).
            let top = *self.top.get_mut();
            let bottom = *self.bottom.get_mut();
            for i in top..bottom {
                unsafe { (*self.slot(i)).assume_init_drop() };
            }
        }
    }

    /// Owner handle of a work-stealing deque: LIFO push/pop at the bottom.
    ///
    /// Not `Sync` — only the owning thread may push or pop. Cloneable
    /// [`Stealer`]s provide concurrent FIFO access to the top.
    pub struct Worker<T> {
        inner: Arc<ChaseLev<T>>,
        /// `Cell` makes the handle `!Sync`, enforcing single-owner access.
        _not_sync: PhantomData<Cell<()>>,
    }

    impl<T> Worker<T> {
        /// Deque with room for `capacity` tasks (rounded up to a power of
        /// two, at least 2).
        pub fn with_capacity(capacity: usize) -> Self {
            let cap = capacity.max(2).next_power_of_two();
            let slots = (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Worker {
                inner: Arc::new(ChaseLev {
                    top: AtomicIsize::new(0),
                    bottom: AtomicIsize::new(0),
                    slots,
                    mask: cap - 1,
                }),
                _not_sync: PhantomData,
            }
        }

        /// A new stealer handle onto this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }

        /// Push at the bottom. Returns `Err(task)` when the ring is full
        /// (upstream grows instead; callers overflow to the injector).
        pub fn push(&self, task: T) -> Result<(), T> {
            let q = &*self.inner;
            let b = q.bottom.load(Ordering::Relaxed);
            let t = q.top.load(Ordering::Acquire);
            if b.wrapping_sub(t) >= (q.mask + 1) as isize {
                return Err(task);
            }
            unsafe { (*q.slot(b)).write(task) };
            q.bottom.store(b.wrapping_add(1), Ordering::Release);
            Ok(())
        }

        /// Pop from the bottom (the task pushed most recently).
        pub fn pop(&self) -> Option<T> {
            let q = &*self.inner;
            let b = q.bottom.load(Ordering::Relaxed).wrapping_sub(1);
            q.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = q.top.load(Ordering::Relaxed);
            if t > b {
                // Empty: restore bottom.
                q.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                return None;
            }
            if t == b {
                // Last element: race any thief for it via `top`.
                let won = q
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                q.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                return won.then(|| unsafe { (*q.slot(b)).assume_init_read() });
            }
            Some(unsafe { (*q.slot(b)).assume_init_read() })
        }

        /// True when the deque is observed empty.
        pub fn is_empty(&self) -> bool {
            let q = &*self.inner;
            q.top.load(Ordering::Acquire) >= q.bottom.load(Ordering::Acquire)
        }

        /// Number of tasks observed in the deque.
        pub fn len(&self) -> usize {
            let q = &*self.inner;
            let t = q.top.load(Ordering::Acquire);
            let b = q.bottom.load(Ordering::Acquire);
            b.wrapping_sub(t).max(0) as usize
        }
    }

    /// Thief handle onto a [`Worker`]'s deque: FIFO steal from the top.
    pub struct Stealer<T> {
        inner: Arc<ChaseLev<T>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steal the task at the top (the oldest task).
        pub fn steal(&self) -> Steal<T> {
            let q = &*self.inner;
            let t = q.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = q.bottom.load(Ordering::Acquire);
            if t >= b {
                return Steal::Empty;
            }
            // Speculative read before the claim: if the CAS below fails,
            // someone else took index `t` and this byte copy is forgotten
            // without ever being treated as a live `T`.
            let task = unsafe { (*q.slot(t)).assume_init_read() };
            if q.top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::mem::forget(task);
                return Steal::Retry;
            }
            Steal::Success(task)
        }

        /// True when the deque is observed empty.
        pub fn is_empty(&self) -> bool {
            let q = &*self.inner;
            q.top.load(Ordering::Acquire) >= q.bottom.load(Ordering::Acquire)
        }
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
    /// FIFO across [`Injector::push`]/[`Injector::steal`]; every operation
    /// is a load + CAS pair — no locks anywhere.
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
    unsafe impl<T: Send> Send for Injector<T> {}

    /// How many tasks one [`Injector::steal_batch_and_pop`] moves at most.
    const MAX_BATCH: usize = 16;

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

        /// Enqueue at the tail. When the ring is momentarily full, spins
        /// with backoff until consumers free a slot (upstream allocates a
        /// new block instead; see the module docs on sizing).
        pub fn push(&self, task: T) {
            let mut task = task;
            let mut spins = 0u32;
            loop {
                match self.try_push(task) {
                    Ok(()) => return,
                    Err(back) => {
                        task = back;
                        // Ring full: let consumers run.
                        spins += 1;
                        if spins < 16 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
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

        /// Steal a batch of tasks, pushing all but the first into `dest`
        /// and returning that first one — the crossbeam idiom for moving
        /// global work onto a worker's own deque in one go. Takes at most
        /// half the observed queue (capped at `MAX_BATCH`) so concurrent
        /// thieves still find work.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let limit = (self.len().div_ceil(2)).clamp(1, MAX_BATCH);
            let first = match self.steal() {
                Steal::Success(task) => task,
                other => return other,
            };
            for _ in 1..limit {
                match self.steal() {
                    Steal::Success(task) => {
                        if let Err(task) = dest.push(task) {
                            // Destination full: hand the task back.
                            self.push(task);
                            break;
                        }
                    }
                    _ => break,
                }
            }
            Steal::Success(first)
        }

        /// True when the queue is observed empty.
        pub fn is_empty(&self) -> bool {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            tail <= head
        }

        /// Number of tasks observed in the queue.
        pub fn len(&self) -> usize {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            tail.saturating_sub(head)
        }
    }

    impl<T> Drop for Injector<T> {
        fn drop(&mut self) {
            // Exclusive access: drain every slot still holding a task.
            let head = *self.head.get_mut();
            let tail = *self.tail.get_mut();
            for pos in head..tail {
                let slot = &mut self.slots[pos & self.mask];
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn worker_lifo_pop_fifo_steal() {
        let w: Worker<u32> = Worker::with_capacity(8);
        let s = w.stealer();
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.pop(), Some(3), "owner pops LIFO");
        assert_eq!(s.steal(), Steal::Success(0), "thief steals FIFO");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty() && s.is_empty());
    }

    #[test]
    fn worker_push_fails_when_full() {
        let w: Worker<u8> = Worker::with_capacity(2);
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(w.push(3), Err(3));
        assert_eq!(w.pop(), Some(2));
        w.push(3).unwrap();
    }

    #[test]
    fn injector_fifo_and_full() {
        let inj: Injector<u8> = Injector::with_capacity(4);
        for i in 0..4 {
            inj.try_push(i).unwrap();
        }
        assert_eq!(inj.try_push(9), Err(9));
        assert_eq!(inj.len(), 4);
        for i in 0..4 {
            assert_eq!(inj.steal(), Steal::Success(i));
        }
        assert!(inj.steal().is_empty());
        assert!(inj.is_empty());
    }

    #[test]
    fn steal_batch_moves_work_onto_the_deque() {
        let inj: Injector<u32> = Injector::with_capacity(64);
        for i in 0..10 {
            inj.push(i);
        }
        let w: Worker<u32> = Worker::with_capacity(64);
        let first = inj.steal_batch_and_pop(&w).success().unwrap();
        assert_eq!(first, 0, "first task is handed back directly");
        assert!(!w.is_empty(), "the rest landed on the deque");
        let mut got = vec![first];
        while let Some(v) = w.pop() {
            got.push(v);
        }
        while let Steal::Success(v) = inj.steal() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_mid_flight_runs_destructors() {
        // Tasks still queued when the container drops must be dropped
        // exactly once — the "drop-mid-flight" shutdown scenario.
        struct Token(Arc<AtomicUsize>);
        impl Drop for Token {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));

        let w: Worker<Token> = Worker::with_capacity(8);
        for _ in 0..5 {
            w.push(Token(Arc::clone(&drops))).ok().unwrap();
        }
        drop(w.pop()); // one consumed
        drop(w);
        assert_eq!(drops.load(Ordering::Relaxed), 5);

        drops.store(0, Ordering::Relaxed);
        let inj: Injector<Token> = Injector::with_capacity(8);
        for _ in 0..6 {
            inj.push(Token(Arc::clone(&drops)));
        }
        drop(inj.steal().success()); // one consumed
        drop(inj);
        assert_eq!(drops.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn owner_and_thieves_partition_the_stream() {
        // 4 thieves + 1 owner over one deque; every pushed value must be
        // taken exactly once.
        let w: Worker<usize> = Worker::with_capacity(1024);
        let total = 20_000usize;
        let stop = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..4)
            .map(|_| {
                let s = w.stealer();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if stop.load(Ordering::Acquire) == 1 {
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
        let mut owned = Vec::new();
        let mut next = 0usize;
        while next < total {
            if w.push(next).is_ok() {
                next += 1;
            } else if let Some(v) = w.pop() {
                owned.push(v);
            }
        }
        while let Some(v) = w.pop() {
            owned.push(v);
        }
        stop.store(1, Ordering::Release);
        let mut all = BTreeSet::new();
        let mut count = owned.len();
        all.extend(owned);
        for t in thieves {
            let got = t.join().unwrap();
            count += got.len();
            all.extend(got);
        }
        assert_eq!(count, total, "no duplicates");
        assert_eq!(all.len(), total, "no losses");
        assert_eq!(all.iter().next_back(), Some(&(total - 1)));
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
                        inj.push(p * per + i);
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

    use super::deque::{Injector, Steal, Worker};
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
    fn stress_owner_pop_vs_steal_interleavings() {
        let deadline = stress_deadline();
        // Many rounds of: owner pushes a seeded burst and mixes pops with
        // the thieves' steals; the union of everything taken must be the
        // exact set pushed, every round.
        for seed in 1u64.. {
            if Instant::now() >= deadline {
                break;
            }
            let w: Worker<u64> = Worker::with_capacity(64);
            let taken = Arc::new(AtomicUsize::new(0));
            let stop = Arc::new(AtomicUsize::new(0));
            let sum = Arc::new(AtomicUsize::new(0));
            let thieves: Vec<_> = (0..3)
                .map(|_| {
                    let s = w.stealer();
                    let stop = Arc::clone(&stop);
                    let taken = Arc::clone(&taken);
                    let sum = Arc::clone(&sum);
                    std::thread::spawn(move || loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                taken.fetch_add(1, Ordering::Relaxed);
                                sum.fetch_add(v as usize, Ordering::Relaxed);
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if stop.load(Ordering::Acquire) == 1 {
                                    break;
                                }
                                // Yield, not spin: on a single-core host a
                                // spinning thief burns whole timeslices the
                                // owner needs to make progress.
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut pushed = 0u64;
            let mut expect_sum = 0usize;
            let total = 50_000u64;
            while pushed < total {
                match rng.next() % 4 {
                    // Bias toward pushes so thieves stay fed.
                    0..=2 => {
                        if w.push(pushed).is_ok() {
                            expect_sum += pushed as usize;
                            pushed += 1;
                        } else if let Some(v) = w.pop() {
                            taken.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(v as usize, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        if let Some(v) = w.pop() {
                            taken.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(v as usize, Ordering::Relaxed);
                        }
                    }
                }
            }
            while let Some(v) = w.pop() {
                taken.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(v as usize, Ordering::Relaxed);
            }
            // Let thieves drain the tail before stopping them.
            while taken.load(Ordering::Relaxed) < total as usize {
                std::thread::yield_now();
            }
            stop.store(1, Ordering::Release);
            for t in thieves {
                t.join().unwrap();
            }
            assert_eq!(taken.load(Ordering::Relaxed), total as usize, "seed {seed}");
            assert_eq!(sum.load(Ordering::Relaxed), expect_sum, "seed {seed}");
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
                            inj.push(Token {
                                _payload: rng.next(),
                                drops: Arc::clone(&drops),
                            });
                            produced.fetch_add(1, Ordering::Relaxed);
                        }
                        live.fetch_sub(1, Ordering::Release);
                    })
                })
                .collect();
            // One consumer drains while any producer is alive (producers
            // block on the tiny full ring otherwise), then stops — *not*
            // necessarily on an empty queue.
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
            // mid-flight (the consumer may have drained the ring).
            let mut rng = XorShift(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
            for _ in 0..5 {
                inj.push(Token {
                    _payload: rng.next(),
                    drops: Arc::clone(&drops),
                });
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

    #[test]
    fn stress_shutdown_while_stealing() {
        let deadline = stress_deadline();
        // Thieves keep stealing while the owner drains and drops the
        // deque's worker handle — stealers hold the buffer alive through
        // their Arc, so late steals must stay safe and return Empty.
        for seed in 1u64.. {
            if Instant::now() >= deadline {
                break;
            }
            let w: Worker<u64> = Worker::with_capacity(256);
            let stolen = Arc::new(AtomicUsize::new(0));
            let stop = Arc::new(AtomicUsize::new(0));
            let thieves: Vec<_> = (0..4)
                .map(|_| {
                    let s = w.stealer();
                    let stop = Arc::clone(&stop);
                    let stolen = Arc::clone(&stolen);
                    std::thread::spawn(move || loop {
                        match s.steal() {
                            Steal::Success(_) => {
                                stolen.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                if stop.load(Ordering::Acquire) == 1 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut rng = XorShift(seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
            let mut popped = 0usize;
            let mut pushed = 0usize;
            for _ in 0..50_000 {
                if rng.next() % 2 == 0 {
                    if w.push(rng.next()).is_ok() {
                        pushed += 1;
                    }
                } else if w.pop().is_some() {
                    popped += 1;
                }
            }
            // Drop the owner handle while thieves are mid-steal.
            drop(w);
            stop.store(1, Ordering::Release);
            for t in thieves {
                t.join().unwrap();
            }
            assert!(
                stolen.load(Ordering::Relaxed) + popped <= pushed,
                "seed {seed}: cannot take more than was pushed"
            );
        }
    }
}
