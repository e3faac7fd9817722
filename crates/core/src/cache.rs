//! KV cache — per-head key/value storage for incremental decode.
//!
//! Autoregressive generation recomputes nothing: each new token appends
//! its key/value rows to a [`KvCache`] and attends over the cache with a
//! single-row [`crate::Geometry::decode`] window (the regime where sparse
//! attention's per-token cost is `O(row nnz · d)` instead of the dense
//! `O(L · d)` — InAttention's linear inference-time scaling). The cache is
//! plain growable row storage: one `(K, V)` matrix pair per head, appended
//! a row at a time (amortized `O(d)` per token via
//! [`gpa_tensor::Matrix::push_row`]) and borrowed directly by
//! [`crate::AttentionRequest`]s — no copies on the decode hot path.

use crate::error::AttnError;
use crate::routing::{RoutedSpec, Routing};
use gpa_tensor::{Matrix, Real, F16};

/// Storage precision of a [`KvCache`].
///
/// `F16` emulates FP16 KV storage with full-precision compute (the common
/// serving configuration): every appended key/value element is rounded
/// through IEEE binary16 ([`gpa_tensor::F16`]) and stored as the nearest
/// representable value, while all downstream arithmetic stays in `T`.
/// Quantization is idempotent — re-appending already-quantized rows (the
/// scheduler's preemption rebuild path) is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KvPrecision {
    /// Store keys/values exactly as computed (in `T`).
    #[default]
    Native,
    /// Round keys/values to the nearest IEEE binary16 value on append.
    F16,
}

/// Round one value to the nearest IEEE binary16, staying in `T`.
#[inline(always)]
fn to_f16<T: Real>(x: T) -> T {
    T::from_f64(F16::from_f64(x.to_f64()).to_f64())
}

/// Round every element of a freshly appended row to binary16 in place.
fn quantize_row<T: Real>(row: &mut [T]) {
    for x in row.iter_mut() {
        *x = to_f16(*x);
    }
}

/// Growable per-head key/value storage for one sequence.
///
/// Single-head callers (the engine's [`crate::AttentionEngine::decode_step`]
/// surface) build it with [`KvCache::single`]; a decoder layer's cache in
/// a [`crate::PagePool`] keeps one entry per head ([`KvCache::new`]).
/// Storage precision is fixed at construction ([`KvPrecision`], default
/// native).
#[derive(Clone)]
pub struct KvCache<T> {
    /// `(K, V)` per head; `K` is `len × dk`, `V` is `len × dv`.
    heads: Vec<(Matrix<T>, Matrix<T>)>,
    precision: KvPrecision,
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
            .field("precision", &self.precision)
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
        Self::with_precision(heads, dk, dv, KvPrecision::Native)
    }

    /// As [`KvCache::new`] with an explicit storage precision.
    ///
    /// # Panics
    /// Panics if `heads`, `dk`, or `dv` is zero.
    pub fn with_precision(heads: usize, dk: usize, dv: usize, precision: KvPrecision) -> Self {
        assert!(heads > 0, "a cache needs at least one head");
        assert!(dk > 0 && dv > 0, "key/value dimensions must be positive");
        KvCache {
            heads: (0..heads)
                .map(|_| (Matrix::zeros(0, dk), Matrix::zeros(0, dv)))
                .collect(),
            precision,
            routing: None,
        }
    }

    /// Single-head cache — the engine-level decode surface.
    pub fn single(dk: usize, dv: usize) -> Self {
        Self::new(1, dk, dv)
    }

    /// This cache's storage precision.
    pub fn precision(&self) -> KvPrecision {
        self.precision
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
    /// `heads × len × (dk + dv) × size_of::<T>()`. This is the quantity a
    /// host-side [`crate::SwapArena`] accounts when a preempted sequence
    /// parks its cache instead of dropping it. [`KvPrecision::F16`] rounds
    /// values but stores them in `T`, so precision does not change the
    /// byte count.
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
        let precision = self.precision;
        let (k, v) = &mut self.heads[head];
        assert_eq!(k_row.len(), k.cols(), "key row width mismatch");
        assert_eq!(v_row.len(), v.cols(), "value row width mismatch");
        k.push_row(k_row);
        v.push_row(v_row);
        if precision == KvPrecision::F16 {
            quantize_row(k.row_mut(k.rows() - 1));
            quantize_row(v.row_mut(v.rows() - 1));
        }
    }

    /// Bulk-append a prompt's key/value rows to head `head` — the prefill
    /// fill path.
    ///
    /// # Panics
    /// Panics if `k`/`v` disagree on rows or do not match `dk`/`dv` (all
    /// checked before any mutation).
    pub fn extend(&mut self, head: usize, k: &Matrix<T>, v: &Matrix<T>) {
        assert_eq!(k.rows(), v.rows(), "K/V row counts differ");
        let precision = self.precision;
        let (ck, cv) = &mut self.heads[head];
        assert_eq!(k.cols(), ck.cols(), "key width mismatch");
        assert_eq!(v.cols(), cv.cols(), "value width mismatch");
        ck.reserve_rows(k.rows());
        cv.reserve_rows(k.rows());
        for i in 0..k.rows() {
            ck.push_row(k.row(i));
            cv.push_row(v.row(i));
            if precision == KvPrecision::F16 {
                quantize_row(ck.row_mut(ck.rows() - 1));
                quantize_row(cv.row_mut(cv.rows() - 1));
            }
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
    /// and the head has been routed ([`KvCache::extend_routing`]).
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
    pub fn extend_routing(
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
    pub fn truncate(&mut self, tokens: usize) {
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

    /// Drop every cached token, keeping the configuration, head count,
    /// and allocated capacity — sequence reset in a serving loop.
    pub fn clear(&mut self) {
        self.truncate(0);
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

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.dk(), cache.dv()), (4, 3));
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
    fn f16_cache_rounds_appends_to_binary16() {
        let mut cache: KvCache<f64> = KvCache::with_precision(1, 2, 2, KvPrecision::F16);
        assert_eq!(cache.precision(), KvPrecision::F16);
        // 0.1 is not binary16-representable; 0.5 and 1.0 are exact.
        cache.append(0, &[0.1, 0.5], &[1.0, 0.3]);
        let k = cache.k(0).row(0);
        assert_ne!(k[0], 0.1, "non-representable values must be rounded");
        assert!((k[0] - 0.1).abs() < 1e-4, "…but only to the nearest f16");
        assert_eq!(k[1], 0.5);
        assert_eq!(cache.v(0).row(0)[0], 1.0);
        // Idempotent: re-appending stored rows reproduces them exactly
        // (the preemption-rebuild path).
        let (stored_k, stored_v) = (k.to_vec(), cache.v(0).row(0).to_vec());
        cache.append(0, &stored_k, &stored_v);
        assert_eq!(cache.k(0).row(1), &stored_k[..]);
        assert_eq!(cache.v(0).row(1), &stored_v[..]);
    }

    #[test]
    fn f16_extend_matches_per_row_append() {
        let (_, k, v) = qkv::<f32>(6, 4, 11);
        let mut bulk: KvCache<f32> = KvCache::with_precision(1, 4, 4, KvPrecision::F16);
        bulk.extend(0, &k, &v);
        let mut single: KvCache<f32> = KvCache::with_precision(1, 4, 4, KvPrecision::F16);
        for i in 0..k.rows() {
            single.append(0, k.row(i), v.row(i));
        }
        assert_eq!(bulk.k(0), single.k(0));
        assert_eq!(bulk.v(0), single.v(0));
        // And the quantized storage differs from native storage.
        let mut native: KvCache<f32> = KvCache::single(4, 4);
        native.extend(0, &k, &v);
        assert_ne!(bulk.k(0), native.k(0));
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
