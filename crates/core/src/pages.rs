//! Paged KV allocation — fixed-size pages, a free list, per-sequence page
//! tables.
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
//! pages of `page_size` tokens each; every live sequence owns
//! a **page table** (a list of physical page ids) that grows only when an
//! append crosses a page boundary, and a free-page list hands ids out and
//! takes them back. A sequence therefore costs what it *currently* caches,
//! rounded up to whole pages — admission can pack the pool by usage, and a
//! scheduler that oversubscribes recovers by releasing a victim's pages
//! (preemption; see `gpa-serve`).
//!
//! The page table governs *capacity*, not data layout. A decoder layer's
//! K/V rows are computed as the sequence advances, so they stay in one
//! contiguous [`KvCache`] per pool entry. A request that brings its own
//! K/V rows needs no cache at all: its entry is a **reservation**
//! ([`PagePool::try_reserve`]) that only counts tokens, grown one page
//! grant per decode row ([`PagePool::try_grant`]), while kernels attend
//! over the first `kv_rows` rows of the request's own `K`/`V`. Either way
//! kernels borrow whole matrices with zero copies and the library's
//! bitwise guarantees are untouched. Page ids are still real: finite,
//! conserved (`free + mapped == total`, asserted by
//! [`PagePool::assert_page_invariants`]), and never double-mapped.
//!
//! **Eviction** rides behind that same accounting layer: a scheduler
//! [`PagePool::release`]s a victim's caches and holds them itself (a
//! reservation has nothing to hold: its rows never left their owner) —
//! K/V rows and routing state move as-is, `O(1)` in context length, and
//! nothing is ever rebuilt. Resume is [`PagePool::try_adopt`]
//! (all-or-nothing), splicing the identical bytes back under a fresh page
//! table. The held bytes are the owner's to count ([`KvCache::kv_bytes`]).
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
/// Handles are invalidated by [`PagePool::release`] (or
/// [`PagePool::release_reserved`]); using a released handle panics
/// (sequence indices are recycled, so a stale handle is a logic error,
/// not a recoverable condition).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeqId {
    index: usize,
    generation: u64,
}

/// What a pool entry holds: the sequence's K/V rows, or only a count of
/// tokens whose rows its caller keeps.
enum Held<T> {
    Cache(KvCache<T>),
    Tokens(usize),
}

struct PagedSeq<T> {
    held: Held<T>,
    /// Physical page ids backing this sequence, in logical order; always
    /// exactly `ceil(tokens / page_size)` entries between calls.
    pages: Vec<usize>,
    generation: u64,
}

impl<T: Real> PagedSeq<T> {
    /// Tokens this entry accounts: its cache's length, or its count.
    fn tokens(&self) -> usize {
        match &self.held {
            Held::Cache(cache) => cache.len(),
            Held::Tokens(tokens) => *tokens,
        }
    }

    fn cache(&self) -> &KvCache<T> {
        match &self.held {
            Held::Cache(cache) => cache,
            Held::Tokens(_) => panic!("a reserved entry holds no cache"),
        }
    }

    fn cache_mut(&mut self) -> &mut KvCache<T> {
        match &mut self.held {
            Held::Cache(cache) => cache,
            Held::Tokens(_) => panic!("a reserved entry holds no cache"),
        }
    }
}

/// A pool of per-sequence [`KvCache`]s under block-paged allocation.
///
/// A pool entry is one growable cache — single-head ([`Self::allocate`])
/// or multi-head for one decoder-stack *layer* ([`Self::allocate_heads`];
/// a model holds one entry per layer, so page budgets count every layer)
/// — or a **reservation** ([`Self::try_reserve`]): a count of tokens whose
/// K/V rows the caller keeps, such as a request's own input rows. Pages
/// account **tokens** either way; head count, like `dk`, only widens the
/// rows, and a reservation of `n` tokens costs what a cache of length `n`
/// costs.
///
/// ```
/// use gpa_core::PagePool;
///
/// // 4 pages of 4 tokens each: room for 16 cached tokens in total.
/// let mut pool: PagePool<f32> = PagePool::new(4, 4);
/// let a = pool.allocate(8, 8);
/// assert_eq!(pool.pages_held(a), 0, "pages allocate on append, not up front");
/// assert!(pool.try_append(a, &[0.0; 8], &[0.0; 8]));
/// assert_eq!((pool.pages_held(a), pool.free_pages()), (1, 3));
/// let cache = pool.release(a);
/// assert_eq!(cache.len(), 1, "the cache keeps its tokens");
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

    /// Tokens actually cached right now, summed across live sequences.
    pub fn used_tokens(&self) -> usize {
        self.seqs.iter().flatten().map(PagedSeq::tokens).sum()
    }

    /// Number of live sequences.
    pub(crate) fn len(&self) -> usize {
        self.seqs.iter().flatten().count()
    }

    /// Admit a sequence: an empty single-head cache (`dk`/`dv` key and
    /// value dimensions) with an empty page table. Allocation itself
    /// costs nothing — pages are taken only when appends need them — so
    /// this cannot fail.
    pub fn allocate(&mut self, dk: usize, dv: usize) -> SeqId {
        self.install(Held::Cache(KvCache::single(dk, dv)), Vec::new())
    }

    /// Admit a multi-head sequence — one model *layer*'s cache in a
    /// decoder stack, where every layer of every sequence is its own pool
    /// entry so page budgets count all layers. Pages account **tokens**
    /// (the cache length); the head count is a row-width multiplier, like
    /// `dk`, and does not change the page arithmetic.
    pub fn allocate_heads(&mut self, heads: usize, dk: usize, dv: usize) -> SeqId {
        self.install(Held::Cache(KvCache::new(heads, dk, dv)), Vec::new())
    }

    /// Adopt an already-populated cache (e.g. one retained by a preempted
    /// sequence), allocating the pages its tokens occupy. Returns the
    /// cache untouched when the free list cannot cover it — the all-or-
    /// nothing resume path.
    pub fn try_adopt(&mut self, cache: KvCache<T>) -> Result<SeqId, KvCache<T>> {
        match self.take_pages(cache.len()) {
            Some(pages) => Ok(self.install(Held::Cache(cache), pages)),
            None => Err(cache),
        }
    }

    /// Admit a sequence whose K/V rows the caller keeps: an entry that
    /// counts `tokens` tokens and maps the pages they occupy, holding no
    /// rows. All-or-nothing: `None`, with nothing taken, when the free list
    /// cannot cover them. The entry grows by [`Self::try_grant`] and
    /// shrinks by [`Self::truncate`]; it has no [`Self::cache`], and
    /// [`Self::release_reserved`] gives it back.
    pub fn try_reserve(&mut self, tokens: usize) -> Option<SeqId> {
        let pages = self.take_pages(tokens)?;
        Some(self.install(Held::Tokens(tokens), pages))
    }

    /// The pages `tokens` tokens occupy, off the free list — or `None`,
    /// taking nothing, when it is too short.
    fn take_pages(&mut self, tokens: usize) -> Option<Vec<usize>> {
        let needed = tokens.div_ceil(self.page_size);
        if needed > self.free.len() {
            return None;
        }
        let at = self.free.len() - needed;
        Some(self.free.drain(at..).rev().collect())
    }

    fn install(&mut self, held: Held<T>, pages: Vec<usize>) -> SeqId {
        let generation = self.next_generation;
        self.next_generation += 1;
        let seq = PagedSeq {
            held,
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

    /// The sequence's cache.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn cache(&self, id: SeqId) -> &KvCache<T> {
        self.seq(id).cache()
    }

    /// Pages currently mapped by the sequence's page table.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn pages_held(&self, id: SeqId) -> usize {
        self.seq(id).pages.len()
    }

    /// Grow the page table at `index` to cover `tokens` tokens. Returns
    /// false — without mutating anything — when the free list cannot
    /// supply the missing pages.
    fn grow_to(&mut self, index: usize, tokens: usize) -> bool {
        let needed = tokens.div_ceil(self.page_size);
        let held = self.seqs[index]
            .as_ref()
            .expect("live sequence")
            .pages
            .len();
        let missing = needed.saturating_sub(held);
        if missing > self.free.len() {
            return false;
        }
        let seq = self.seqs[index].as_mut().expect("live sequence");
        for _ in 0..missing {
            seq.pages.push(self.free.pop().expect("counted above"));
        }
        true
    }

    /// Append a prompt's worth of K/V rows, allocating whatever pages the
    /// new length needs. Atomic: returns false — no pages taken, no rows
    /// appended — when the pages do not fit.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on `k`/`v` shape
    /// mismatches (as [`KvCache::extend`]).
    pub fn try_extend(&mut self, id: SeqId, k: &Matrix<T>, v: &Matrix<T>) -> bool {
        let tokens = self.seq(id).cache().len() + k.rows();
        if !self.grow_to(id.index, tokens) {
            return false;
        }
        self.seq_mut(id).cache_mut().extend(0, k, v);
        true
    }

    /// Append one decode token's K/V rows, allocating a fresh page when
    /// the append crosses a page boundary. Atomic: returns false — no
    /// page taken, no row appended — when a needed page is not free.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on row-width mismatches
    /// (as [`KvCache::append`]).
    pub fn try_append(&mut self, id: SeqId, k_row: &[T], v_row: &[T]) -> bool {
        let tokens = self.seq(id).cache().len() + 1;
        if !self.grow_to(id.index, tokens) {
            return false;
        }
        self.seq_mut(id).cache_mut().append(0, k_row, v_row);
        true
    }

    /// Append per-head K/V rows — `ks[h]`/`vs[h]` go to head `h`, all
    /// heads gaining the same number of tokens — allocating whatever
    /// pages the new length needs. Atomic: returns false — no pages
    /// taken, no rows appended — when the pages do not fit.
    ///
    /// # Panics
    /// Panics on a released or stale handle, when the slice lengths do
    /// not match the cache's head count, when the heads disagree on row
    /// count, or on shape mismatches (as [`KvCache::extend`]).
    pub fn try_extend_heads(&mut self, id: SeqId, ks: &[Matrix<T>], vs: &[Matrix<T>]) -> bool {
        let heads = self.seq(id).cache().heads();
        assert_eq!(ks.len(), heads, "one K matrix per head");
        assert_eq!(vs.len(), heads, "one V matrix per head");
        let rows = ks[0].rows();
        assert!(
            ks.iter().chain(vs.iter()).all(|m| m.rows() == rows),
            "heads must gain the same number of tokens"
        );
        let tokens = self.seq(id).cache().len() + rows;
        if !self.grow_to(id.index, tokens) {
            return false;
        }
        let cache = self.seq_mut(id).cache_mut();
        for (h, (k, v)) in ks.iter().zip(vs).enumerate() {
            cache.extend(h, k, v);
        }
        true
    }

    /// Route `q`'s rows as the sequence's next tokens on head `head` —
    /// the passthrough to `KvCache::extend_routing`. Routing costs no
    /// pages (it is `O(1)` words per token), so this cannot fail for
    /// capacity reasons.
    ///
    /// # Errors
    /// As `KvCache::extend_routing` — the head was previously routed
    /// under a different spec.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn extend_routing(
        &mut self,
        id: SeqId,
        spec: crate::routing::RoutedSpec,
        head: usize,
        q: &Matrix<T>,
    ) -> Result<(), crate::error::AttnError> {
        self.seq_mut(id).cache_mut().extend_routing(spec, head, q)
    }

    /// Count `tokens` more tokens on a reserved entry, allocating whatever
    /// pages the new count needs — the page grant that stands in for an
    /// append when the caller keeps the rows. Atomic: returns false — no
    /// page taken, nothing counted — when a needed page is not free.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on an entry that holds a
    /// cache (its length is its rows').
    pub fn try_grant(&mut self, id: SeqId, tokens: usize) -> bool {
        let Held::Tokens(held) = self.seq(id).held else {
            panic!("only a reserved entry is granted tokens without rows");
        };
        if !self.grow_to(id.index, held + tokens) {
            return false;
        }
        self.seq_mut(id).held = Held::Tokens(held + tokens);
        true
    }

    /// Drop every token past the first `tokens` — cached rows, or counted
    /// tokens of a reservation — returning the pages the shorter length no
    /// longer needs to the free list: the rollback path when a launch fails
    /// after its appends or grants landed.
    ///
    /// # Panics
    /// Panics on a released or stale handle.
    pub fn truncate(&mut self, id: SeqId, tokens: usize) {
        // Validate the handle, then split the borrow: the sequence entry
        // and the free list are disjoint fields.
        let _ = self.seq(id);
        let seq = self.seqs[id.index].as_mut().expect("live sequence");
        if tokens >= seq.tokens() {
            return;
        }
        match &mut seq.held {
            Held::Cache(cache) => cache.truncate(tokens),
            Held::Tokens(held) => *held = tokens,
        }
        let keep = tokens.div_ceil(self.page_size);
        while seq.pages.len() > keep {
            let page = seq.pages.pop().expect("longer than keep");
            self.free.push(page);
        }
    }

    /// Release a sequence, returning every mapped page to the free list
    /// and the cache (with whatever tokens it still holds) to the caller.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on a reserved entry
    /// ([`Self::release_reserved`]).
    pub fn release(&mut self, id: SeqId) -> KvCache<T> {
        match self.unmap(id) {
            Held::Cache(cache) => cache,
            Held::Tokens(_) => panic!("a reserved entry holds no cache"),
        }
    }

    /// Release a [reserved](Self::try_reserve) entry, returning every
    /// mapped page to the free list.
    ///
    /// # Panics
    /// Panics on a released or stale handle, or on an entry that holds a
    /// cache ([`Self::release`]).
    pub fn release_reserved(&mut self, id: SeqId) {
        if let Held::Cache(_) = self.unmap(id) {
            panic!("a cache entry is released with its cache");
        }
    }

    /// Remove an entry, returning its pages to the free list.
    fn unmap(&mut self, id: SeqId) -> Held<T> {
        let seq = self.seqs[id.index].take().expect("released sequence");
        assert_eq!(seq.generation, id.generation, "stale sequence handle");
        // Pop from the back: pages return in reverse allocation order,
        // keeping reuse LIFO and fully deterministic.
        let mut pages = seq.pages;
        while let Some(page) = pages.pop() {
            self.free.push(page);
        }
        self.free_seqs.push(id.index);
        seq.held
    }

    /// Assert the pool's paging invariants: page conservation
    /// (`free + mapped == total`), no page mapped twice (across page
    /// tables or the free list), and every page table exactly covering its
    /// entry's tokens (`ceil(tokens / page_size)` entries, a cache's tokens
    /// being its length). The serving simulation calls this after every
    /// scheduler tick.
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
                seq.tokens().div_ceil(self.page_size),
                "page table does not exactly cover {} tokens",
                seq.tokens()
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
/// let cache = pool.release(seq);
/// let ticket = arena.try_park(vec![cache]).expect("never refuses");
/// assert_eq!(pool.free_pages(), 2);
///
/// // Resume: take the stack and re-adopt its pages — no re-extension.
/// let mut stack = arena.take(ticket);
/// let seq = pool.try_adopt(stack.pop().unwrap()).expect("pages are free");
/// assert_eq!(pool.cache(seq).len(), 1);
/// assert_eq!(pool.cache(seq).k(0).row(0), &[0.5; 4]);
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
        assert_eq!(pool.cache(a).len(), 2, "failed append left no row");
        assert_eq!(pool.pages_held(a), 1);
        pool.assert_page_invariants();
    }

    #[test]
    fn failed_extend_is_atomic() {
        let mut pool: PagePool<f64> = PagePool::new(2, 4);
        let a = pool.allocate(3, 3);
        let (_, k, v) = qkv::<f64>(9, 3, 1);
        // 9 tokens need 3 pages; only 2 exist. Nothing moves.
        assert!(!pool.try_extend(a, &k, &v));
        assert_eq!(pool.cache(a).len(), 0);
        assert_eq!(pool.free_pages(), 2);
        let (_, k, v) = qkv::<f64>(8, 3, 2);
        assert!(pool.try_extend(a, &k, &v));
        assert_eq!(pool.cache(a).len(), 8);
        assert_eq!(pool.pages_held(a), 2);
        assert_eq!(pool.cache(a).k(0).row(3), k.row(3), "rows land in order");
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
        assert_eq!(pool.cache(a).len(), 3);
        assert_eq!((pool.pages_held(a), pool.free_pages()), (2, 2));
        pool.truncate(a, 9); // longer than the cache: no-op
        assert_eq!(pool.cache(a).len(), 3);
        pool.truncate(a, 0);
        assert_eq!((pool.pages_held(a), pool.free_pages()), (0, 4));
        pool.assert_page_invariants();
    }

    #[test]
    fn release_returns_pages_and_cache() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.allocate(2, 2);
        assert!(pool.try_append(a, &[1.0, 2.0], &[3.0, 4.0]));
        let cache = pool.release(a);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.k(0).row(0), &[1.0, 2.0]);
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
        assert_eq!(pool.cache(b).len(), 0);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.cache(a);
        }));
        assert!(stale.is_err(), "stale handle must panic");
    }

    #[test]
    #[should_panic(expected = "released sequence")]
    fn released_handle_panics() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.allocate(2, 2);
        pool.release(a);
        let _ = pool.cache(a);
    }

    #[test]
    fn multi_head_entries_charge_tokens_not_heads() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        let a = pool.allocate_heads(3, 2, 2);
        assert_eq!(pool.cache(a).heads(), 3);
        let ks: Vec<Matrix<f64>> = (0..3).map(|h| qkv::<f64>(3, 2, h as u64).1).collect();
        let vs: Vec<Matrix<f64>> = (0..3).map(|h| qkv::<f64>(3, 2, 9 + h as u64).2).collect();
        assert!(pool.try_extend_heads(a, &ks, &vs));
        // 3 tokens over 2-token pages: 2 pages, regardless of 3 heads.
        assert_eq!(pool.pages_held(a), 2);
        assert_eq!(pool.cache(a).len(), 3);
        assert_eq!(pool.cache(a).k(2).row(1), ks[2].row(1));
        // A failing multi-head extend takes nothing from any head.
        let ks: Vec<Matrix<f64>> = (0..3).map(|h| qkv::<f64>(6, 2, 20 + h as u64).1).collect();
        let vs: Vec<Matrix<f64>> = (0..3).map(|h| qkv::<f64>(6, 2, 30 + h as u64).2).collect();
        assert!(!pool.try_extend_heads(a, &ks, &vs), "9 tokens need 5 pages");
        assert_eq!(pool.cache(a).len(), 3);
        assert_eq!(pool.pages_held(a), 2);
        pool.assert_page_invariants();
    }

    #[test]
    fn adopt_takes_pages_for_retained_tokens_or_nothing() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.allocate_heads(2, 2, 2);
        let ks: Vec<Matrix<f64>> = (0..2).map(|h| qkv::<f64>(3, 2, h as u64).1).collect();
        let vs: Vec<Matrix<f64>> = (0..2).map(|h| qkv::<f64>(3, 2, 5 + h as u64).2).collect();
        assert!(pool.try_extend_heads(a, &ks, &vs));
        let retained = pool.release(a);
        assert_eq!(pool.free_pages(), 2);
        // Adoption under pressure: one page held elsewhere, 3 tokens need
        // 2 pages — refused, cache handed back intact.
        let b = pool.allocate(2, 2);
        assert!(pool.try_append(b, &[0.0; 2], &[0.0; 2]));
        let retained = match pool.try_adopt(retained) {
            Err(cache) => cache,
            Ok(_) => panic!("adoption must fail without pages"),
        };
        assert_eq!(retained.len(), 3, "refused adoption returns the cache");
        pool.assert_page_invariants();
        // With the squatter gone, adoption restores the exact bytes.
        pool.release(b);
        let c = pool.try_adopt(retained).expect("pages are free now");
        assert_eq!(pool.cache(c).len(), 3);
        assert_eq!(pool.pages_held(c), 2);
        assert_eq!(pool.cache(c).k(1).row(2), ks[1].row(2));
        pool.assert_page_invariants();
    }

    #[test]
    fn reserved_entries_count_like_a_cache_of_their_length() {
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        assert!(pool.try_reserve(9).is_none(), "9 tokens need 5 pages");
        assert_eq!(pool.free_pages(), 4, "a refused reservation takes nothing");
        let a = pool.try_reserve(3).expect("2 pages are free");
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
        pool.release_reserved(a);
        assert_eq!((pool.free_pages(), pool.len()), (3, 1));
        pool.assert_page_invariants();
        // An empty reservation maps nothing.
        let c = pool.try_reserve(0).expect("costs no page");
        assert_eq!(pool.pages_held(c), 0);
        pool.release_reserved(c);
    }

    #[test]
    #[should_panic(expected = "a reserved entry holds no cache")]
    fn a_reserved_entry_has_no_cache() {
        let mut pool: PagePool<f64> = PagePool::new(2, 2);
        let a = pool.try_reserve(1).unwrap();
        let _ = pool.cache(a);
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
