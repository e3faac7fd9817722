//! A steady-state decode tick over plan sequences allocates O(1) per
//! launch, not O(requests): the same number of heap allocations with 8
//! sequences in flight and with 64, and that number is pinned.
//!
//! A launch is in place — requests are row ranges of each sequence's own
//! `Q`, outputs land in each sequence's own rows — so what a tick
//! allocates is the launch's fixed set of vectors: the group list, the
//! request and window lists, the flat row space, the per-request launch
//! contexts and the `l`/`m` statistics. Before the in-place launch the
//! same tick made about four allocations *per sequence* (a query-window
//! matrix and an `(O, l, m)` triple each).
//!
//! The counter is a `#[global_allocator]`, so this file holds one test
//! and counts only on the thread that ticks. The engine has one thread:
//! every launch runs inline, and no helper thread allocates behind the
//! count.

use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_serve::{AdmissionMode, EvictionMode, Scheduler, ServeConfig, ServeRequest};
use gpa_tensor::init;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell` with no destructor, so touching
// it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|count| count.set(Some(0)));
    f();
    COUNT.with(|count| count.take()).expect("counting was on")
}

/// Heap allocations of each of `TICKS` consecutive decode ticks with
/// `sequences` plan sequences in flight, all past their prefill and none
/// near completion.
fn decode_tick_allocations(sequences: usize) -> Vec<usize> {
    const TICKS: usize = 12;
    const PROMPT: usize = 24;
    let mut scheduler: Scheduler<'static, f32> = Scheduler::new(
        AttentionEngine::with_threads(1),
        ServeConfig {
            max_in_flight: sequences,
            kv_pages: 64 * sequences,
            page_size: 16,
            arrival_window: 0,
            prefill_chunk: PROMPT,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: 0,
        },
    )
    .unwrap();
    let plan = scheduler
        .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 4 }).unwrap())
        .unwrap();
    for seed in 0..sequences {
        let (q, k, v) = init::qkv::<f32>(PROMPT + 4 * TICKS, 16, seed as u64);
        let request = ServeRequest {
            pattern: plan.into(),
            priority: 0,
            prompt: PROMPT,
            q,
            k,
            v,
        };
        scheduler.submit(request).unwrap();
    }
    // Admission and the whole prefill in one tick, then decode ticks until
    // the caches have made their first growth past the prompt.
    for _ in 0..TICKS {
        scheduler.tick().unwrap();
    }
    assert_eq!(scheduler.in_flight_len(), sequences);
    (0..TICKS)
        .map(|_| {
            let mut rows = 0;
            let count = allocations_in(|| rows = scheduler.tick().unwrap().rows_computed);
            assert_eq!(rows, sequences, "one decode row per sequence");
            count
        })
        .collect()
}

#[test]
fn a_decode_tick_allocates_the_same_with_8_and_64_sequences_in_flight() {
    let few = decode_tick_allocations(8);
    let many = decode_tick_allocations(64);
    // A cache that outgrows its buffer, or a sequence that crosses into a
    // new page, allocates on that tick — per sequence, rightly. The steady
    // state is every other tick.
    let steady = |ticks: &[usize]| *ticks.iter().min().unwrap();
    assert_eq!(
        steady(&few),
        steady(&many),
        "allocations per steady decode tick must not grow with the batch: {few:?} vs {many:?}"
    );
    // The launch's fixed set: groups, requests, windows, row space,
    // launch contexts, l, m.
    assert_eq!(steady(&many), 7, "{many:?}");
    let at_steady = many.iter().filter(|&&n| n == steady(&many)).count();
    assert!(
        2 * at_steady > many.len(),
        "most ticks are steady: {many:?}"
    );
}
