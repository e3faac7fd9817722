//! A steady-state decode tick over plan sequences allocates O(1) per
//! launch, not O(requests): the same number of heap allocations with 8
//! sequences in flight and with 64, and that number is pinned. And no
//! decode tick copies a K/V row: the bytes every decode tick allocates do
//! not depend on the key width.
//!
//! A launch is in place — requests are row ranges of each sequence's own
//! `Q` over a prefix of its own `K`/`V`, outputs land in each sequence's
//! own rows — so what a tick allocates is the launch's fixed set of
//! vectors: the group list, the request and window lists, the flat row
//! space and the per-request launch contexts. A row's `l`/`m` statistics
//! are two locals of the row loop, stored to launch vectors only for
//! `run_batch_states`, which no tick calls; the next request's diagonal
//! key and value rows are prefetched, which allocates nothing. A decode
//! row's page is a grant, so a tick that crosses a page boundary
//! grows a page table by one id, whatever `dk` is. Before the in-place
//! launch the same tick made about four allocations *per sequence* (a
//! query-window matrix and an `(O, l, m)` triple each), and before the
//! grant every decode row was copied into a cache whose growth
//! reallocations scaled with `dk`.
//!
//! The ticks that park and resume a decoder stack are pinned too: the
//! victim's caches move by value into its record and back.
//!
//! The counter is a `#[global_allocator]` that counts only on a thread
//! that asked it to, so each test counts its own ticks. The engine has one
//! thread: every launch runs inline, and no helper thread allocates behind
//! the count.

use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_model::{DecoderModel, LayerPattern};
use gpa_serve::{AdmissionMode, EvictionMode, ModelRequest, Scheduler, ServeConfig, ServeRequest};
use gpa_tensor::init;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

/// Allocations and bytes allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    allocations: usize,
    bytes: usize,
}

thread_local! {
    /// `Some(tally)` while this thread counts.
    static COUNT: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|count| {
        count.set(count.get().map(|t| Tally {
            allocations: t.allocations + 1,
            bytes: t.bytes + bytes,
        }))
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell` with no destructor, so touching
// it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout` (non-zero size), which is all `System.alloc` needs.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`: the caller's `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator, hence
        // from `System`, with `layout`, and that `new_size` is non-zero and
        // does not overflow `isize` when rounded to `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator, hence
        // from `System`, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What `f` allocated on this thread.
fn allocations_in(f: impl FnOnce()) -> Tally {
    COUNT.with(|count| count.set(Some(Tally::default())));
    f();
    COUNT.with(|count| count.take()).expect("counting was on")
}

const PROMPT: usize = 24;

/// A one-thread scheduler of `sequences` plan sequences of key width `dk`,
/// each a `PROMPT`-token prompt and `decode` generated tokens, after its
/// first tick: every sequence admitted with its whole prompt prefilled.
fn admitted(sequences: usize, dk: usize, decode: usize) -> Scheduler<'static, f32> {
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
        let (q, k, v) = init::qkv::<f32>(PROMPT + decode, dk, seed as u64);
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
    scheduler.tick().unwrap();
    assert_eq!(scheduler.in_flight_len(), sequences);
    scheduler
}

/// What each of `ticks` consecutive decode ticks allocates, one decode
/// row per sequence each.
fn decode_ticks(scheduler: &mut Scheduler<'_, f32>, ticks: usize) -> Vec<Tally> {
    let sequences = scheduler.in_flight_len();
    (0..ticks)
        .map(|_| {
            let mut rows = 0;
            let tally = allocations_in(|| rows = scheduler.tick().unwrap().rows_computed);
            assert_eq!(rows, sequences, "one decode row per sequence");
            tally
        })
        .collect()
}

/// Allocations of each of 12 decode ticks with `sequences` sequences in
/// flight, none near completion, after 11 decode ticks that take each
/// sequence past its first page boundary.
fn steady_decode_allocations(sequences: usize) -> Vec<usize> {
    const TICKS: usize = 12;
    let mut scheduler = admitted(sequences, 16, 4 * TICKS);
    decode_ticks(&mut scheduler, TICKS - 1);
    let ticks = decode_ticks(&mut scheduler, TICKS);
    ticks.iter().map(|t| t.allocations).collect()
}

#[test]
fn a_decode_tick_allocates_the_same_with_8_and_64_sequences_in_flight() {
    let few = steady_decode_allocations(8);
    let many = steady_decode_allocations(64);
    // A sequence that crosses into a new page grows its page table on
    // that tick — per sequence, rightly. The steady state is every other
    // tick.
    let steady = |ticks: &[usize]| *ticks.iter().min().unwrap();
    assert_eq!(
        steady(&few),
        steady(&many),
        "allocations per steady decode tick must not grow with the batch: {few:?} vs {many:?}"
    );
    // The launch's fixed set: groups, requests, windows, row space,
    // launch contexts.
    assert_eq!(steady(&many), 5, "{many:?}");
    let at_steady = many.iter().filter(|&&n| n == steady(&many)).count();
    assert!(
        2 * at_steady > many.len(),
        "most ticks are steady: {many:?}"
    );
}

#[test]
fn decode_ticks_allocate_the_same_bytes_at_every_key_width() {
    // Twice the prompt in decode rows: a cache holding these rows would
    // outgrow the prompt's capacity at least once, reallocating `dk`-wide
    // rows. Every decode tick after the admitting one, to completion.
    const DECODE: usize = 2 * PROMPT;
    let bytes = |dk: usize| {
        let mut scheduler = admitted(8, dk, DECODE);
        let ticks = decode_ticks(&mut scheduler, DECODE);
        assert!(scheduler.is_idle(), "every sequence completed");
        ticks.iter().map(|t| t.bytes).sum::<usize>()
    };
    let (narrow, wide) = (bytes(16), bytes(64));
    assert_eq!(
        narrow, wide,
        "decode ticks copied K/V rows: {narrow} bytes at dk 16, {wide} at dk 64"
    );
}

/// What the tick that parks a stack and the tick that resumes it
/// allocate, in the two-sequence squeeze of a one-thread scheduler: two
/// 2-prompt, 6-token sequences through a three-layer stack in a pool of
/// three 2-token pages per layer. Their first decode appends collide, the
/// younger parks its caches, and it resumes once the elder completes.
/// Last, the least any tick allocates: a steady decode tick, one stack
/// decoding alone inside its pages.
fn stack_park_and_resume_allocations() -> (Tally, Tally, usize) {
    let mut scheduler: Scheduler<'static, f32> = Scheduler::new(
        AttentionEngine::with_threads(1),
        ServeConfig {
            max_in_flight: 2,
            kv_pages: 9,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Swap,
            swap_bytes: usize::MAX,
        },
    )
    .unwrap();
    let plan = |kernel| AttentionPlan::single(kernel).unwrap();
    let stack = DecoderModel::new(
        LayerPattern::parse("FSF").unwrap(),
        vec![
            ('F', plan(AttentionKernel::Local { n: 2 })),
            ('S', plan(AttentionKernel::Dilated1d { w: 2, r: 2 })),
        ],
        12,
        3,
        4,
        0xBEEF,
    )
    .unwrap();
    let model = scheduler.register_model(stack);
    for seed in [61, 62] {
        let x = init::gaussian_matrix(6, 12, 1.0, seed);
        scheduler
            .submit(ModelRequest {
                model,
                priority: 0,
                prompt: 2,
                x,
            })
            .unwrap();
    }
    let (mut park, mut resume, mut steady) = (None, None, usize::MAX);
    while !scheduler.is_idle() {
        let mut report = None;
        let tally = allocations_in(|| report = Some(scheduler.tick().unwrap()));
        let report = report.unwrap();
        steady = steady.min(tally.allocations);
        if !report.preempted.is_empty() {
            assert!(park.replace(tally).is_none(), "one park");
        }
        if !report.resumed.is_empty() {
            assert!(resume.replace(tally).is_none(), "one resume");
        }
    }
    (
        park.expect("the squeeze parks"),
        resume.expect("…and resumes"),
        steady,
    )
}

#[test]
fn parking_and_resuming_a_stack_allocate_a_pinned_count() {
    // Nearly all of either tick is the surviving stack's three-layer
    // advance; a park or a resume moves the victim's caches by value and
    // adds no allocation of its own beyond the one page table it gives
    // back or takes. A steady decode tick is nearly all that same advance.
    let (park, resume, steady) = stack_park_and_resume_allocations();
    assert_eq!(
        (park.allocations, resume.allocations, steady),
        (133, 127, 106),
        "{park:?} {resume:?}"
    );
}
