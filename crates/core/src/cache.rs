//! KV cache — per-head key/value storage for incremental decode.
//!
//! Autoregressive generation recomputes nothing: each new token appends
//! its key/value rows to a [`KvCache`] and attends over the cache with a
//! single-row `Geometry::decode` window (the regime where sparse
//! attention's per-token cost is `O(row nnz · d)` instead of the dense
//! `O(L · d)` — InAttention's linear inference-time scaling). The cache is
//! plain growable row storage: one `(K, V)` matrix pair per head, appended
//! a row at a time (amortized `O(d)` per token via
//! [`gpa_tensor::Matrix::push_row`]) and borrowed directly by
//! [`crate::AttentionRequest`]s — no copies on the decode hot path.

use crate::error::AttnError;
use crate::routing::{RoutedSpec, Routing};
use gpa_tensor::{Matrix, Real};

/// Growable per-head key/value storage for one sequence.
///
/// Single-head callers (the engine's [`crate::AttentionEngine::decode_step`]
/// surface) build it with [`KvCache::single`]; a decoder layer's cache in
/// a [`crate::PagePool`] keeps one entry per head ([`KvCache::new`]).
/// Rows are stored exactly as appended, in `T`.
#[derive(Clone)]
pub struct KvCache<T> {
    /// `(K, V)` per head; `K` is `len × dk`, `V` is `len × dv`.
    heads: Vec<(Matrix<T>, Matrix<T>)>,
    /// Per-head token routing for routed plans — created lazily by the
    /// first [`KvCache::extend_routing`], absent for static sequences.
    /// Rides in the cache so every rollback path ([`KvCache::truncate`])
    /// keeps routing and tokens consistent by construction.
    routing: Option<Vec<Routing>>,
}

impl<T: Real> std::fmt::Debug for KvCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvCache")
            .field("heads", &self.heads())
            .field("tokens", &self.len())
            .field("dk", &self.dk())
            .field("dv", &self.dv())
            .finish()
    }
}

impl<T: Real> KvCache<T> {
    /// Empty cache for `heads` heads with key dimension `dk` and value
    /// dimension `dv`.
    ///
    /// # Panics
    /// Panics if `heads`, `dk`, or `dv` is zero.
    pub fn new(heads: usize, dk: usize, dv: usize) -> Self {
        assert!(heads > 0, "a cache needs at least one head");
        assert!(dk > 0 && dv > 0, "key/value dimensions must be positive");
        KvCache {
            heads: (0..heads)
                .map(|_| (Matrix::zeros(0, dk), Matrix::zeros(0, dv)))
                .collect(),
            routing: None,
        }
    }

    /// Single-head cache — the engine-level decode surface.
    pub fn single(dk: usize, dv: usize) -> Self {
        Self::new(1, dk, dv)
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads.len()
    }

    /// Key dimension.
    pub fn dk(&self) -> usize {
        self.heads[0].0.cols()
    }

    /// Value dimension.
    pub fn dv(&self) -> usize {
        self.heads[0].1.cols()
    }

    /// Number of cached tokens (uniform across heads between appends).
    pub fn len(&self) -> usize {
        debug_assert!(
            self.heads
                .iter()
                .all(|(k, v)| k.rows() == self.heads[0].0.rows() && v.rows() == k.rows()),
            "heads hold different token counts — a per-token append is incomplete"
        );
        self.heads[0].0.rows()
    }

    /// True when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of K/V payload this cache holds:
    /// `heads × len × (dk + dv) × size_of::<T>()`. This is what a
    /// preempted sequence's held cache counts for while it is outside the
    /// pool.
    pub fn kv_bytes(&self) -> usize {
        self.heads() * self.len() * (self.dk() + self.dv()) * std::mem::size_of::<T>()
    }

    /// Append one token's key/value rows to head `head`.
    ///
    /// # Panics
    /// Panics if the rows do not match the cache's `dk`/`dv` — checked for
    /// *both* rows before either is pushed, so a bad call never leaves `K`
    /// and `V` with diverged row counts.
    pub fn append(&mut self, head: usize, k_row: &[T], v_row: &[T]) {
        let (k, v) = &mut self.heads[head];
        assert_eq!(k_row.len(), k.cols(), "key row width mismatch");
        assert_eq!(v_row.len(), v.cols(), "value row width mismatch");
        k.push_row(k_row);
        v.push_row(v_row);
    }

    /// Bulk-append a prompt's key/value rows to head `head` — the prefill
    /// fill path.
    ///
    /// # Panics
    /// Panics if `k`/`v` disagree on rows or do not match `dk`/`dv` (all
    /// checked before any mutation).
    pub fn extend(&mut self, head: usize, k: &Matrix<T>, v: &Matrix<T>) {
        assert_eq!(k.rows(), v.rows(), "K/V row counts differ");
        let (ck, cv) = &mut self.heads[head];
        assert_eq!(k.cols(), ck.cols(), "key width mismatch");
        assert_eq!(v.cols(), cv.cols(), "value width mismatch");
        ck.reserve_rows(k.rows());
        cv.reserve_rows(k.rows());
        for i in 0..k.rows() {
            ck.push_row(k.row(i));
            cv.push_row(v.row(i));
        }
    }

    /// The cached keys of head `head`, `len × dk`.
    pub fn k(&self, head: usize) -> &Matrix<T> {
        &self.heads[head].0
    }

    /// The cached values of head `head`, `len × dv`.
    pub fn v(&self, head: usize) -> &Matrix<T> {
        &self.heads[head].1
    }

    /// The routing of head `head`, if this sequence runs a routed plan
    /// and the head has been routed (`KvCache::extend_routing`).
    pub fn routing(&self, head: usize) -> Option<&Routing> {
        self.routing.as_ref().map(|r| &r[head])
    }

    /// Route `q`'s rows as head `head`'s next `q.rows()` tokens under
    /// `spec`, creating the per-head routing state on first use.
    ///
    /// Routing a row is a pure function of `(spec, q_row)`, so extending
    /// chunk by chunk, token by token, or re-extending after a
    /// [`KvCache::truncate`] rollback reproduces identical assignments —
    /// the property that keeps decode, chunked prefill, and
    /// evict-and-resume routing-consistent.
    ///
    /// # Errors
    /// [`AttnError::RoutingMismatch`] when the head was previously routed
    /// under a different spec.
    pub(crate) fn extend_routing(
        &mut self,
        spec: RoutedSpec,
        head: usize,
        q: &Matrix<T>,
    ) -> Result<(), AttnError> {
        let heads = self.heads.len();
        let routing = self
            .routing
            .get_or_insert_with(|| vec![Routing::empty(spec); heads]);
        if routing[head].spec() != spec {
            return Err(AttnError::RoutingMismatch {
                what: "this cache's routing was built under a different spec",
            });
        }
        routing[head].extend(q);
        Ok(())
    }

    /// Drop every token past the first `tokens` on every head — the
    /// rollback the engine uses when an append succeeded but the launch
    /// that followed it failed validation. Routing state truncates with
    /// the tokens, so a rolled-back cache never carries routing for rows
    /// it no longer holds.
    pub(crate) fn truncate(&mut self, tokens: usize) {
        for (k, v) in &mut self.heads {
            k.truncate_rows(tokens);
            v.truncate_rows(tokens);
        }
        if let Some(routing) = &mut self.routing {
            for r in routing {
                r.truncate(tokens);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_tensor::init::qkv;

    #[test]
    fn append_and_extend_grow_all_views() {
        let mut cache: KvCache<f64> = KvCache::new(2, 4, 3);
        assert_eq!(cache.heads(), 2);
        assert_eq!((cache.dk(), cache.dv()), (4, 3));
        assert!(cache.is_empty());

        for h in 0..2 {
            cache.append(h, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0]);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.k(1).row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cache.v(0).row(0), &[5.0, 6.0, 7.0]);

        let (_, k, _) = qkv::<f64>(5, 4, 1);
        let (_, _, v) = qkv::<f64>(5, 3, 2);
        for h in 0..2 {
            cache.extend(h, &k, &v);
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.k(0).row(3), k.row(2));
    }

    #[test]
    fn kv_bytes_counts_heads_tokens_and_both_widths() {
        let mut cache: KvCache<f64> = KvCache::new(2, 4, 3);
        assert_eq!(cache.kv_bytes(), 0);
        let (_, k, _) = qkv::<f64>(5, 4, 1);
        let (_, _, v) = qkv::<f64>(5, 3, 2);
        for h in 0..2 {
            cache.extend(h, &k, &v);
        }
        // 2 heads × 5 tokens × (4 + 3) columns × 8 bytes.
        assert_eq!(cache.kv_bytes(), 2 * 5 * 7 * 8);
        cache.truncate(2);
        assert_eq!(cache.kv_bytes(), 2 * 2 * 7 * 8);
    }

    #[test]
    #[should_panic(expected = "at least one head")]
    fn zero_heads_rejected() {
        let _ = KvCache::<f32>::new(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "key row width mismatch")]
    fn wrong_row_width_rejected() {
        let mut cache: KvCache<f32> = KvCache::single(4, 4);
        cache.append(0, &[1.0, 2.0], &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "value row width mismatch")]
    fn wrong_value_width_rejected_before_any_push() {
        // Both widths are checked before either row lands, so a bad call
        // can never leave K and V with diverged row counts.
        let mut cache: KvCache<f32> = KvCache::single(2, 2);
        cache.append(0, &[1.0, 2.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "K/V row counts differ")]
    fn extend_rejects_k_and_v_of_different_lengths() {
        let (_, k, v) = qkv::<f32>(3, 2, 1);
        KvCache::single(2, 2).extend(0, &k, &v.rows_slice(0, 2));
    }

    #[test]
    fn routing_rides_the_cache_and_rolls_back_with_it() {
        use crate::routing::{RoutedSpec, Router};
        let spec = RoutedSpec { groups: 3, seed: 9 };
        let (q, k, v) = qkv::<f64>(12, 4, 21);
        let mut cache: KvCache<f64> = KvCache::new(2, 4, 4);
        assert!(cache.routing(0).is_none(), "no routing until extended");
        for h in 0..2 {
            cache.extend(h, &k, &v);
            cache.extend_routing(spec, h, &q).unwrap();
        }
        let expect = Router::new(spec).route(&q);
        assert_eq!(cache.routing(1), Some(&expect));
        // Wrong spec is rejected without touching state.
        let err = cache
            .extend_routing(RoutedSpec { groups: 4, seed: 9 }, 0, &q)
            .unwrap_err();
        assert!(matches!(err, AttnError::RoutingMismatch { .. }));
        assert_eq!(cache.routing(0), Some(&expect));
        // Truncation rolls tokens and routing back together; re-extending
        // the retained rows reproduces the assignment bit for bit.
        cache.truncate(7);
        assert_eq!(cache.routing(0).unwrap().len(), 7);
        cache.extend_routing(spec, 0, &q.rows_slice(7, 12)).unwrap();
        assert_eq!(cache.routing(0), Some(&expect));
    }

    #[test]
    fn truncate_rolls_back_appends() {
        let mut cache: KvCache<f64> = KvCache::new(2, 2, 2);
        for h in 0..2 {
            cache.append(h, &[1.0, 2.0], &[3.0, 4.0]);
            cache.append(h, &[5.0, 6.0], &[7.0, 8.0]);
        }
        cache.truncate(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.k(1).row(0), &[1.0, 2.0]);
        cache.truncate(9); // longer than the cache: no-op
        assert_eq!(cache.len(), 1);
    }
}
