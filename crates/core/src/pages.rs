//! Paged KV allocation — fixed-size pages, a free list, one page table
//! per sequence.
//!
//! A serving scheduler keeps one [`KvCache`] per in-flight sequence, and
//! the resource that limits how many sequences can be in flight is total
//! KV memory. The predecessor of this module (`SlotPool`) accounted for
//! that memory by **worst-case reservation**: a sequence reserved its full
//! prompt-plus-generated length at admission, so a 16-token prompt under a
//! 4096-token cap held 4096 tokens of budget from its first tick. That
//! makes budgets trivially safe — and leaves almost all of the memory
//! idle, which is exactly the failure mode PagedAttention removes.
//!
//! [`PagePool`] is the paged replacement. Capacity is a fixed set of
//! pages of `page_size` tokens each, handed out and taken back by a free
//! list. A pool entry is one sequence: the tokens it has been **granted**,
//! a **page table** of `max(1, L) × ceil(tokens / page_size)` physical
//! page ids, and its `L` layer caches. A grant ([`PagePool::try_grant`])
//! is the only way the table grows: an append writes rows into tokens
//! already granted. A sequence therefore costs what it *currently* holds,
//! rounded up to whole pages — admission can pack the pool by usage, and a
//! scheduler that oversubscribes recovers by releasing a victim's pages
//! (preemption; see `gpa-serve`).
//!
//! The page table governs *capacity*, not data layout: each layer's K/V
//! rows stay in one contiguous [`KvCache`]. A request that brings its own
//! K/V rows has no cache at all — a **reservation**
//! ([`PagePool::try_reserve`]) whose kernels attend over the first
//! `kv_rows` rows of the request's own `K`/`V`. Either way kernels borrow
//! whole matrices with zero copies and the library's bitwise guarantees
//! are untouched. Page ids are still real: finite, conserved
//! (`free + mapped == total`, asserted by
//! [`PagePool::assert_page_invariants`]), and never double-mapped.
//!
//! **Eviction** rides behind that same accounting layer: a scheduler
//! [`PagePool::release`]s a victim's entry and holds its caches itself (a
//! reservation has none: its rows never left their owner) — K/V rows
//! move as-is, `O(1)` in context length, and nothing is ever rebuilt. Resume is [`PagePool::try_adopt`] (all-or-nothing),
//! splicing the identical bytes back under a fresh page table. The held
//! bytes are the owner's to count ([`KvCache::kv_bytes`]).
//!
//! Handles are generation-checked: using a released or stale [`SeqId`]
//! panics, because indices are recycled and a stale handle is a logic
//! error, not a recoverable condition. [`SwapArena`] is what is left of
//! a host-side parking lot for evicted caches, kept for the serving
//! benchmark's timing ladder.

use crate::cache::KvCache;
use gpa_tensor::{Matrix, Real};
use std::convert::Infallible;

/// Opaque handle to one live sequence in a [`PagePool`].
///
/// Handles are invalidated by [`PagePool::release`]; using a released
/// handle panics (sequence indices are recycled, so a stale handle is a
/// logic error, not a recoverable condition).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeqId {
    index: usize,
    generation: u64,
}

/// One sequence in the pool.
struct PagedSeq<T> {
    /// Tokens granted; no cache holds more rows than this.
    tokens: usize,
    /// Layer caches, in layer order; none for a reservation.
    caches: Vec<KvCache<T>>,
    /// Physical page ids backing the grant; always exactly
    /// `depth() × ceil(tokens / page_size)` entries.
    pages: Vec<usize>,
    generation: u64,
}

impl<T> PagedSeq<T> {
    /// Layers the grant is paged for: a reservation pages its tokens once.
    fn depth(&self) -> usize {
        self.caches.len().max(1)
    }
}

/// A pool of sequences under block-paged allocation.
///
/// An entry is one sequence: a single-head cache ([`Self::allocate`]), a
/// decoder stack's layer caches ([`Self::try_adopt`]; page budgets count
/// every layer) or a **reservation** ([`Self::try_reserve`]) — a count of
/// tokens whose K/V rows the caller keeps. Pages account **tokens** per
/// layer: head count, like `dk`, only widens the rows, and a reservation
/// of `n` tokens costs what a single cache of `n` tokens costs.
///
/// ```
/// use gpa_core::PagePool;
///
/// // 4 pages of 4 tokens each: room for 16 cached tokens in total.
/// let mut pool: PagePool<f32> = PagePool::new(4, 4);
/// let a = pool.allocate(8, 8);
/// assert_eq!(pool.pages_held(a), 0, "pages are granted on append, not up front");
/// assert!(pool.try_append(a, &[0.0; 8], &[0.0; 8]));
/// assert_eq!((pool.pages_held(a), pool.free_pages()), (1, 3));
/// let caches = pool.release(a);
/// assert_eq!(caches[0].len(), 1, "the cache keeps its tokens");
/// assert_eq!(pool.free_pages(), 4, "the pages come back");
/// ```
pub struct PagePool<T> {
    page_size: usize,
    total_pages: usize,
    /// Free physical page ids, popped from the back (LIFO reuse).
    free: Vec<usize>,
    seqs: Vec<Option<PagedSeq<T>>>,
    free_seqs: Vec<usize>,
    next_generation: u64,
}

impl<T: Real> PagePool<T> {
    /// Empty pool of `total_pages` pages, each holding `page_size` cached
    /// tokens.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn new(total_pages: usize, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        PagePool {
            page_size,
            total_pages,
            // Reversed so pop() hands out ids 0, 1, 2, … in order.
            free: (0..total_pages).rev().collect(),
            seqs: Vec::new(),
            free_seqs: Vec::new(),
            next_generation: 0,
        }
    }

    /// Total pages in the pool, free or mapped.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Pages mapped into live page tables.
    pub fn used_pages(&self) -> usize {
        self.total_pages - self.free.len()
    }

    /// Pages needed to cache `tokens` tokens: `ceil(tokens / page_size)`.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_size)
    }

    /// Tokens granted right now, summed across live sequences and, within
    /// a stack, across its layers.
    pub fn used_tokens(&self) -> usize {
        self.seqs
            .iter()
            .flatten()
            .map(|s| s.depth() * s.tokens)
            .sum()
    }

    /// Number of live sequences.
    pub(crate) fn len(&self) -> usize {
        self.seqs.iter().flatten().count()
    }

    /// Admit a sequence: an empty single-head cache (`dk`/`dv` key and
    /// value dimensions) with an empty page table. Allocation itself
    /// costs nothing — pages are granted as appends need them — so this
    /// cannot fail.
    pub fn allocate(&mut self, dk: usize, dv: usize) -> SeqId {
        self.install(vec![KvCache::single(dk, dv)], 0, Vec::new())
    }

    /// Adopt a sequence's layer caches — retained by a preempted sequence,
    /// or empty for a fresh stack — granting their tokens and taking the
    /// pages they occupy in every layer. Returns the caches untouched when
    /// the free list cannot cover them: the all-or-nothing resume path.
    ///
    /// # Panics
    /// Panics when the caches disagree on length or head shape.
    pub fn try_adopt(&mut self, caches: Vec<KvCache<T>>) -> Result<SeqId, Vec<KvCache<T>>> {
        let tokens = caches.first().map_or(0, KvCache::len);
        let shape = |c: &KvCache<T>| (c.heads(), c.dk(), c.dv());
        for cache in &caches {
            assert_eq!(cache.len(), tokens, "adopted caches disagree on length");
            assert_eq!(
                shape(cache),
                shape(&caches[0]),
                "adopted caches disagree on head shape"
            );
        }
        match self.take_pages(caches.len().max(1) * self.pages_for(tokens)) {
            Some(pages) => Ok(self.install(caches, tokens, pages)),
            None => Err(caches),
        }
    }

    /// Admit a sequence whose K/V rows the caller keeps: an entry granted
    /// `tokens` tokens, mapping the pages they occupy and holding no cache.
    /// All-or-nothing: `None`, with nothing taken, when the free list
    /// cannot cover them.
    pub fn try_reserve(&mut self, tokens: usize) -> Option<SeqId> {
        let pages = self.take_pages(self.pages_for(tokens))?;
        Some(self.install(Vec::new(), tokens, pages))
    }

    /// `count` pages off the free list — or `None`, taking nothing, when
    /// it is too short.
    fn take_pages(&mut self, count: usize) -> Option<Vec<usize>> {
        let at = self.free.len().checked_sub(count)?;
        Some(self.free.drain(at..).rev().collect())
    }

    fn install(&mut self, caches: Vec<KvCache<T>>, tokens: usize, pages: Vec<usize>) -> SeqId {
        let generation = self.next_generation;
        self.next_generation += 1;
        let seq = PagedSeq {
            tokens,
            caches,
            pages,
            generation,
        };
        let index = match self.free_seqs.pop() {
            Some(index) => {
                self.seqs[index] = Some(seq);
                index
            }
            None => {
                self.seqs.push(Some(seq));
                self.seqs.len() - 1
            }
        };
        SeqId { index, generation }
    }

    fn seq(&self, id: SeqId) -> &PagedSeq<T> {
        let seq = self.seqs[id.index].as_ref().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        seq
    }

    fn seq_mut(&mut self, id: SeqId) -> &mut PagedSeq<T> {
        let seq = self.seqs[id.index].as_mut().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        seq
    }

    /// The sequence's layer caches, in layer order; empty for a
    /// reservation.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn caches(&self, id: SeqId) -> &[KvCache<T>] {
        &self.seq(id).caches
    }

    /// Pages currently mapped by the sequence's page table.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn pages_held(&self, id: SeqId) -> usize {
        self.seq(id).pages.len()
    }

    /// Grant the sequence `tokens` more tokens in every layer, taking
    /// whatever pages the new count needs — the only way an entry gains
    /// pages. Atomic: returns false — no page taken, nothing granted — when
    /// the free list cannot supply them.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn try_grant(&mut self, id: SeqId, tokens: usize) -> bool {
        let page_size = self.page_size;
        let seq = self.seqs[id.index].as_mut().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        let granted = seq.tokens + tokens;
        let missing = seq.depth() * granted.div_ceil(page_size) - seq.pages.len();
        let Some(at) = self.free.len().checked_sub(missing) else {
            return false;
        };
        seq.pages.extend(self.free.drain(at..).rev());
        seq.tokens = granted;
        true
    }

    /// Layer `layer`'s cache, checked to have room for `rows` more rows
    /// inside the grant.
    fn granted_rows(&mut self, id: SeqId, layer: usize, rows: usize) -> &mut KvCache<T> {
        let PagedSeq { tokens, caches, .. } = self.seq_mut(id);
        let cache = &mut caches[layer];
        assert!(
            cache.len() + rows <= *tokens,
            "an append of {rows} rows past the grant of {tokens} tokens"
        );
        cache
    }

    /// Grant one token and append its K/V rows to a single-head
    /// sequence's cache. Atomic: returns false — no page taken, no row
    /// appended — when a needed page is not free.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on row-width mismatches
    /// (as [`KvCache::append`]).
    pub fn try_append(&mut self, id: SeqId, k_row: &[T], v_row: &[T]) -> bool {
        if !self.try_grant(id, 1) {
            return false;
        }
        self.granted_rows(id, 0, 1).append(0, k_row, v_row);
        true
    }

    /// Grant a prompt's worth of tokens and append its K/V rows to a
    /// single-head sequence's cache. Atomic: returns false — no pages
    /// taken, no rows appended — when the pages do not fit.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on `k`/`v` shape
    /// mismatches (as [`KvCache::extend`]).
    pub fn try_extend(&mut self, id: SeqId, k: &Matrix<T>, v: &Matrix<T>) -> bool {
        if !self.try_grant(id, k.rows()) {
            return false;
        }
        self.granted_rows(id, 0, k.rows()).extend(0, k, v);
        true
    }

    /// Write per-head K/V rows (`ks[h]`/`vs[h]` to head `h`) into layer
    /// `layer`'s cache, inside tokens already granted ([`Self::try_grant`]).
    ///
    /// # Panics
    /// Panics on a released or stale handle, on rows past the grant, on
    /// one matrix too many or too few per head, or on heads that disagree
    /// on row count or shape (as [`KvCache::extend`]).
    pub fn extend(&mut self, id: SeqId, layer: usize, ks: &[Matrix<T>], vs: &[Matrix<T>]) {
        let rows = ks.first().map_or(0, Matrix::rows);
        assert!(
            ks.iter().chain(vs).all(|m| m.rows() == rows),
            "heads must gain the same number of tokens"
        );
        let cache = self.granted_rows(id, layer, rows);
        assert_eq!(ks.len(), cache.heads(), "one K matrix per head");
        assert_eq!(vs.len(), cache.heads(), "one V matrix per head");
        for (h, (k, v)) in ks.iter().zip(vs).enumerate() {
            cache.extend(h, k, v);
        }
    }

    /// Drop every token past the first `tokens` — granted tokens and every
    /// layer's cached rows — returning the pages the shorter grant no
    /// longer needs to the free list: the rollback path when a launch fails
    /// after its grants or appends landed.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn truncate(&mut self, id: SeqId, tokens: usize) {
        let page_size = self.page_size;
        let seq = self.seqs[id.index].as_mut().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        if tokens >= seq.tokens {
            return;
        }
        seq.tokens = tokens;
        for cache in &mut seq.caches {
            cache.truncate(tokens);
        }
        // Pop from the back: pages return in reverse grant order, keeping
        // reuse LIFO and fully deterministic.
        let keep = seq.depth() * tokens.div_ceil(page_size);
        self.free.extend(seq.pages.drain(keep..).rev());
    }

    /// Release a sequence, returning every mapped page to the free list
    /// and its caches (with whatever rows they still hold; none for a
    /// reservation) to the caller.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn release(&mut self, id: SeqId) -> Vec<KvCache<T>> {
        let seq = self.seqs[id.index].take().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        self.free.extend(seq.pages.into_iter().rev());
        self.free_seqs.push(id.index);
        seq.caches
    }

    /// Assert the pool's paging invariants: page conservation
    /// (`free + mapped == total`), no page mapped twice (across page
    /// tables or the free list), every page table exactly covering its
    /// entry's grant (`max(1, layers) × ceil(tokens / page_size)`
    /// entries), and no cache holding rows past the grant. The serving
    /// simulation calls this after every scheduler tick.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn assert_page_invariants(&self) {
        let mapped: usize = self.seqs.iter().flatten().map(|s| s.pages.len()).sum();
        assert_eq!(
            self.free.len() + mapped,
            self.total_pages,
            "pages leaked: {} free + {mapped} mapped != {} total",
            self.free.len(),
            self.total_pages
        );
        let mut seen = vec![false; self.total_pages];
        let mut claim = |page: usize, owner: &str| {
            assert!(page < self.total_pages, "{owner} maps unknown page {page}");
            assert!(
                !seen[page],
                "page {page} double-mapped (second owner: {owner})"
            );
            seen[page] = true;
        };
        for &page in &self.free {
            claim(page, "free list");
        }
        for seq in self.seqs.iter().flatten() {
            for &page in &seq.pages {
                claim(page, "a page table");
            }
            assert_eq!(
                seq.pages.len(),
                seq.depth() * seq.tokens.div_ceil(self.page_size),
                "page table does not exactly cover {} tokens in {} layers",
                seq.tokens,
                seq.depth()
            );
            assert!(
                seq.caches.iter().all(|c| c.len() <= seq.tokens),
                "a cache holds rows past its grant of {} tokens",
                seq.tokens
            );
        }
    }
}

impl<T: Real> std::fmt::Debug for PagePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagePool")
            .field("sequences", &self.len())
            .field("page_size", &self.page_size)
            .field("total_pages", &self.total_pages)
            .field("free_pages", &self.free.len())
            .field("used_tokens", &self.used_tokens())
            .finish()
    }
}

/// Opaque handle to one parked cache stack in a [`SwapArena`].
///
/// Tickets are invalidated by [`SwapArena::take`]; using a taken ticket
/// panics (entry indices are recycled, so a stale ticket is a logic
/// error, not a recoverable condition — exactly the [`SeqId`] contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SwapTicket {
    index: usize,
    generation: u64,
}

struct SwapEntry<T> {
    /// The victim's per-layer caches, in layer order.
    caches: Vec<KvCache<T>>,
    generation: u64,
}

/// A ticketed parking lot for evicted [`KvCache`] stacks, with no byte
/// cap. The scheduler holds a preempted stack in its own record instead;
/// this stays **only** because the frozen serving benchmark
/// (`benchmark/src/ladder.rs`) times a park and a take through it. It
/// goes when a benchmark change can drop that probe.
///
/// ```
/// use gpa_core::{PagePool, SwapArena};
///
/// let mut pool: PagePool<f32> = PagePool::new(2, 2);
/// let mut arena: SwapArena<f32> = SwapArena::unbounded();
/// let seq = pool.allocate(4, 4);
/// assert!(pool.try_append(seq, &[0.5; 4], &[0.25; 4]));
///
/// // Preempt: pages go back to the pool, the cache parks in the arena.
/// let ticket = arena.try_park(pool.release(seq)).expect("never refuses");
/// assert_eq!(pool.free_pages(), 2);
///
/// // Resume: take the stack and re-adopt its pages — no re-extension.
/// let seq = pool.try_adopt(arena.take(ticket)).expect("pages are free");
/// assert_eq!(pool.caches(seq)[0].len(), 1);
/// assert_eq!(pool.caches(seq)[0].k(0).row(0), &[0.5; 4]);
/// ```
pub struct SwapArena<T> {
    entries: Vec<Option<SwapEntry<T>>>,
    free: Vec<usize>,
    next_generation: u64,
}

impl<T: Real> SwapArena<T> {
    /// An empty arena.
    pub fn unbounded() -> Self {
        SwapArena {
            entries: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        }
    }

    /// Park a per-layer cache stack. It never refuses; the `Result` is
    /// the shape the benchmark's `expect` was written against.
    pub fn try_park(&mut self, caches: Vec<KvCache<T>>) -> Result<SwapTicket, Infallible> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let entry = SwapEntry { caches, generation };
        let index = match self.free.pop() {
            Some(index) => {
                self.entries[index] = Some(entry);
                index
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        Ok(SwapTicket { index, generation })
    }

    /// Take a parked stack back, in the layer order it was parked. The
    /// ticket is dead afterwards.
    ///
    /// # Panics
    /// Panics on a taken or stale ticket.
    pub fn take(&mut self, ticket: SwapTicket) -> Vec<KvCache<T>> {
        let slot = &mut self.entries[ticket.index];
        let generation = slot.as_ref().expect("taken swap ticket").generation;
        assert_eq!(generation, ticket.generation, "stale swap ticket");
        self.free.push(ticket.index);
        slot.take().expect("checked above").caches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_tensor::init::qkv;

    #[test]
    fn pages_allocate_on_append_and_round_up() {
        let mut pool: PagePool<f64> = PagePool::new(3, 4);
        assert_eq!((pool.total_pages(), pool.page_size), (3, 4));
        assert_eq!(pool.pages_for(0), 0);
        assert_eq!(pool.pages_for(4), 1);
        assert_eq!(pool.pages_for(5), 2);
        let a = pool.allocate(2, 2);
        assert_eq!(pool.pages_held(a), 0);
        for t in 0..5 {
            assert!(pool.try_append(a, &[t as f64; 2], &[0.0; 2]));
        }
        // 5 tokens over 4-token pages: two pages, partially filled second.
        assert_eq!(pool.pages_held(a), 2);
        assert_eq!(pool.seq(a).pages, [0, 1]);
        assert_eq!(pool.free_pages(), 1);
        assert_eq!(pool.used_tokens(), 5);
        pool.assert_page_invariants();
    }

    #[test]
    fn failed_append_takes_nothing() {
        let mut pool: PagePool<f64> = PagePool::new(1, 2);
        let a = pool.allocate(2, 2);
        assert!(pool.try_append(a, &[0.0; 2], &[0.0; 2]));
        assert!(pool.try_append(a, &[1.0; 2], &[1.0; 2]), "same page");
        // Third token needs a second page; none is free.
        assert!(!pool.try_append(a, &[2.0; 2], &[2.0; 2]));
        assert_eq!(pool.caches(a)[0].len(), 2, "failed append left no row");
        assert_eq!((pool.pages_held(a), pool.used_tokens()), (1, 2));
        pool.assert_page_invariants();
    }

    #[test]
    fn failed_extend_is_atomic() {
        let mut pool: PagePool<f64> = PagePool::new(2, 4);
        let a = pool.allocate(3, 3);
        let (_, k, v) = qkv::<f64>(9, 3, 1);
        // 9 tokens need 3 pages; only 2 exist. Nothing moves.
        assert!(!pool.try_extend(a, &k, &v));
        assert_eq!(pool.caches(a)[0].len(), 0);
        assert_eq!(pool.free_pages(), 2);
        let (_, k, v) = qkv::<f64>(8, 3, 2);
        assert!(pool.try_extend(a, &k, &v));
        assert_eq!(pool.caches(a)[0].len(), 8);
        assert_eq!(pool.pages_held(a), 2);
        assert_eq!(
            pool.caches(a)[0].k(0).row(3),
            k.row(3),
            "rows land in order"
        );
        pool.assert_page_invariants();
    }

    #[test]
    fn truncate_returns_excess_pages() {
        let mut pool: PagePool<f32> = PagePool::new(4, 2);
        let a = pool.allocate(2, 2);
        let (_, k, v) = qkv::<f32>(7, 2, 3);
        assert!(pool.try_extend(a, &k, &v));
        assert_eq!((pool.pages_held(a), pool.free_pages()), (4, 0));
        pool.truncate(a, 3);
        assert_eq!(pool.caches(a)[0].len(), 3);
        assert_eq!((pool.pages_held(a), pool.free_pages()), (2, 2));
        pool.truncate(a, 9); // longer than the cache: no-op
        assert_eq!(pool.caches(a)[0].len(), 3);
        pool.truncate(a, 0);
        assert_eq!((pool.pages_held(a), pool.free_pages()), (0, 4));
        pool.assert_page_invariants();
    }

    #[test]
    fn release_returns_pages_and_cache() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.allocate(2, 2);
        assert!(pool.try_append(a, &[1.0, 2.0], &[3.0, 4.0]));
        let caches = pool.release(a);
        assert_eq!(caches.len(), 1);
        assert_eq!(caches[0].len(), 1);
        assert_eq!(caches[0].k(0).row(0), &[1.0, 2.0]);
        assert_eq!(pool.free_pages(), 2);
        assert_eq!(pool.len(), 0);
        pool.assert_page_invariants();
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut pool: PagePool<f64> = PagePool::new(2, 1);
        let a = pool.allocate(2, 2);
        let b = pool.allocate(2, 2);
        assert!(pool.try_append(a, &[0.0; 2], &[0.0; 2]));
        assert!(pool.try_append(b, &[0.0; 2], &[0.0; 2]));
        assert!(!pool.try_append(a, &[0.0; 2], &[0.0; 2]), "pool exhausted");
        pool.release(b);
        assert!(pool.try_append(a, &[0.0; 2], &[0.0; 2]), "b's page freed");
        assert_eq!(pool.pages_held(a), 2);
        assert_eq!(pool.len(), 1);
        pool.assert_page_invariants();
    }

    #[test]
    fn sequence_indices_are_recycled_but_handles_are_not() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        let a = pool.allocate(2, 2);
        pool.release(a);
        let b = pool.allocate(2, 2);
        // Recycled index, fresh generation: `a` must no longer resolve.
        assert_ne!(a, b);
        assert_eq!(pool.caches(b)[0].len(), 0);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.caches(a);
        }));
        assert!(stale.is_err(), "stale handle must panic");
    }

    #[test]
    #[should_panic(expected = "released sequence")]
    fn released_handle_panics() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.allocate(2, 2);
        pool.release(a);
        let _ = pool.caches(a);
    }

    /// `tokens` K and V rows for each of `heads` heads, width 2.
    fn head_rows(heads: u64, tokens: usize, seed: u64) -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let rows = (0..heads).map(|h| qkv::<f64>(tokens, 2, seed + h));
        rows.map(|(_, k, v)| (k, v)).unzip()
    }

    /// `layers` empty caches of `heads` heads, width 2.
    fn empty_stack(layers: usize, heads: usize) -> Vec<KvCache<f64>> {
        (0..layers).map(|_| KvCache::new(heads, 2, 2)).collect()
    }

    #[test]
    fn a_stack_entry_pages_every_layer() {
        // Three layers of two heads in 2-token pages: one page table of
        // 3 × ceil(tokens / 2) pages through every operation. Heads, like
        // `dk`, widen the rows and charge no pages.
        let mut pool: PagePool<f64> = PagePool::new(9, 2);
        let a = pool.try_adopt(empty_stack(3, 2)).unwrap();
        assert!(!pool.try_grant(a, 7), "3 × 4 pages > 9");
        assert_eq!((pool.pages_held(a), pool.free_pages()), (0, 9));
        assert!(pool.try_grant(a, 5));
        assert_eq!((pool.pages_held(a), pool.used_tokens()), (9, 15));
        for layer in 0..3 {
            let (ks, vs) = head_rows(2, 5, 10 * layer as u64);
            pool.extend(a, layer, &ks, &vs);
            assert_eq!(pool.caches(a)[layer].k(1).row(4), ks[1].row(4));
        }
        pool.truncate(a, 3);
        assert_eq!((pool.pages_held(a), pool.used_tokens()), (6, 9));
        assert!(pool.caches(a).iter().all(|c| c.len() == 3));
        pool.assert_page_invariants();
        // Release hands back every layer; adopt pages them all again.
        let caches = pool.release(a);
        assert_eq!((caches.len(), pool.free_pages()), (3, 9));
        let b = pool.try_adopt(caches).unwrap();
        assert_eq!((pool.pages_held(b), pool.used_tokens()), (6, 9));
        assert!(pool.try_grant(b, 1), "inside every layer's last page");
        assert_eq!(pool.pages_held(b), 6);
        pool.assert_page_invariants();
    }

    #[test]
    #[should_panic(expected = "past the grant")]
    fn an_append_past_the_grant_panics() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        let a = pool.try_adopt(empty_stack(2, 1)).unwrap();
        assert!(pool.try_grant(a, 1));
        let (ks, vs) = head_rows(1, 2, 0);
        pool.extend(a, 1, &ks, &vs);
    }

    #[test]
    #[should_panic(expected = "rows past its grant")]
    fn the_invariants_catch_rows_past_the_grant() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        let a = pool.allocate(2, 2);
        // Only a bug writes past the grant: write into the cache directly.
        pool.seq_mut(a).caches[0].append(0, &[0.0; 2], &[0.0; 2]);
        pool.assert_page_invariants();
    }

    #[test]
    #[should_panic(expected = "disagree on length")]
    fn adopting_caches_of_different_lengths_panics() {
        let mut caches = stack(2, 0);
        caches[1].truncate(1);
        let _ = PagePool::new(4, 2).try_adopt(caches);
    }

    #[test]
    #[should_panic(expected = "disagree on head shape")]
    fn adopting_caches_of_different_head_shapes_panics() {
        let caches = vec![KvCache::<f64>::single(2, 2), KvCache::new(2, 2, 2)];
        let _ = PagePool::new(4, 2).try_adopt(caches);
    }

    #[test]
    fn adopt_takes_pages_for_retained_tokens_or_nothing() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        // Adoption under pressure: one page held elsewhere, 3 tokens in 2
        // layers need 4 pages — refused, caches handed back intact.
        let b = pool.allocate(2, 2);
        assert!(pool.try_append(b, &[0.0; 2], &[0.0; 2]));
        let Err(retained) = pool.try_adopt(stack(3, 7)) else {
            panic!("adoption must fail without pages");
        };
        assert_eq!(retained.len(), 2, "refused adoption returns the caches");
        assert!(retained.iter().all(|c| c.len() == 3));
        assert_eq!(pool.free_pages(), 3, "and takes no page");
        pool.assert_page_invariants();
        // With the squatter gone, adoption restores the exact bytes.
        pool.release(b);
        let expect = retained[1].k(0).row(2).to_vec();
        let c = pool.try_adopt(retained).expect("pages are free now");
        assert_eq!((pool.caches(c)[1].len(), pool.pages_held(c)), (3, 4));
        assert_eq!(pool.caches(c)[1].k(0).row(2), &expect[..]);
        pool.assert_page_invariants();
    }

    #[test]
    fn reserved_entries_count_like_a_cache_of_their_length() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        assert!(pool.try_reserve(9).is_none(), "9 tokens need 5 pages");
        assert_eq!(pool.free_pages(), 4, "a refused reservation takes nothing");
        let a = pool.try_reserve(3).expect("2 pages are free");
        assert!(pool.caches(a).is_empty(), "a reservation holds no cache");
        let b = pool.allocate(2, 2);
        assert!(pool.try_append(b, &[0.0; 2], &[0.0; 2]));
        assert_eq!((pool.pages_held(a), pool.used_tokens()), (2, 4));
        // A grant inside the last page takes none; the next one takes the
        // last free page; past that, nothing moves.
        assert!(pool.try_grant(a, 1));
        assert_eq!((pool.pages_held(a), pool.free_pages()), (2, 1));
        assert!(pool.try_grant(a, 2));
        assert!(!pool.try_grant(a, 1), "no page left");
        assert_eq!((pool.pages_held(a), pool.used_tokens()), (3, 7));
        pool.assert_page_invariants();
        // Rollback shrinks the count and returns the pages past it.
        pool.truncate(a, 2);
        assert_eq!((pool.pages_held(a), pool.free_pages()), (1, 2));
        assert_eq!(pool.used_tokens(), 3);
        pool.assert_page_invariants();
        assert!(pool.release(a).is_empty());
        assert_eq!((pool.free_pages(), pool.len()), (3, 1));
        pool.assert_page_invariants();
        // An empty reservation maps nothing.
        let c = pool.try_reserve(0).expect("costs no page");
        assert_eq!(pool.pages_held(c), 0);
        pool.release(c);
    }

    #[test]
    #[should_panic(expected = "page size must be positive")]
    fn zero_page_size_rejected() {
        let _ = PagePool::<f32>::new(4, 0);
    }

    #[test]
    fn debug_formats() {
        let pool: PagePool<f32> = PagePool::new(3, 2);
        assert!(format!("{pool:?}").contains("PagePool"));
    }

    /// A two-layer stack with distinct rows per layer, for swap tests.
    fn stack(tokens: usize, seed: u64) -> Vec<KvCache<f64>> {
        (0..2)
            .map(|layer| {
                let mut cache = KvCache::new(1, 2, 2);
                let (_, k, v) = qkv::<f64>(tokens, 2, seed + layer);
                cache.extend(0, &k, &v);
                cache
            })
            .collect()
    }

    #[test]
    fn park_and_take_roundtrips_the_exact_stack() {
        let mut arena: SwapArena<f64> = SwapArena::unbounded();
        let parked = stack(3, 7);
        let expect: Vec<Vec<f64>> = parked.iter().map(|c| c.k(0).row(2).to_vec()).collect();
        let ticket = arena.try_park(parked).expect("never refuses");
        let taken = arena.take(ticket);
        assert_eq!(taken.len(), 2, "layer order preserved");
        for (layer, cache) in taken.iter().enumerate() {
            assert_eq!(cache.k(0).row(2), &expect[layer][..]);
        }
    }

    #[test]
    fn ticket_indices_are_recycled_but_tickets_are_not() {
        let mut arena: SwapArena<f64> = SwapArena::unbounded();
        let a = arena.try_park(stack(1, 0)).unwrap();
        let _ = arena.take(a);
        let b = arena.try_park(stack(2, 1)).unwrap();
        assert_ne!(a, b, "recycled index, fresh generation");
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.take(a);
        }));
        assert!(stale.is_err(), "stale ticket must panic");
        assert_eq!(arena.take(b).len(), 2);
    }

    #[test]
    #[should_panic(expected = "taken swap ticket")]
    fn taken_ticket_panics() {
        let mut arena: SwapArena<f64> = SwapArena::unbounded();
        let a = arena.try_park(stack(1, 0)).unwrap();
        let _ = arena.take(a);
        let _ = arena.take(a);
    }
}
