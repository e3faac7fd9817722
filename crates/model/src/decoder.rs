//! The decoder stack: N multi-head attention layers, each bound to its
//! own compiled [`AttentionPlan`], driven through per-layer paged KV.
//!
//! A [`DecoderModel`] is compiled once from a [`LayerPattern`] plus a
//! label→plan binding list; after that, serving is three verbs:
//!
//! - [`ModelKvState::allocate`] — one pool entry **per layer**, so page
//!   budgets count every layer of every sequence;
//! - [`DecoderModel::advance_batched`] — push one input window per
//!   sequence through the whole stack. Per layer that is three launches
//!   on the engine's pool, each over the rows of *all* sequences at once:
//!   one fused `[Wq|Wk|Wv]` projection, **one** attention launch over all
//!   sequences × heads (a 1-row window *is* a decode step — the geometry
//!   is identical), and one `Wo` + residual projection;
//! - [`ModelKvState::release`] / [`ModelKvState::adopt`] — eviction
//!   retains every layer's cache, resume re-adopts them page-atomically.
//!
//! Advances are transactional: a failed page grab or kernel launch
//! truncates every layer of every sequence back to its prior length and
//! reports an error, leaving pool accounting untouched.

use crate::error::ModelError;
use crate::pattern::LayerPattern;
use gpa_core::batch::AttentionRequest;
use gpa_core::pages::{PagePool, SeqId};
use gpa_core::{AttentionEngine, AttentionPlan, KvCache, MultiHeadAttention};
use gpa_tensor::{Matrix, Real};

/// A stack of [`MultiHeadAttention`] layers with heterogeneous attention
/// plans, compiled once from a [`LayerPattern`].
///
/// Layer `s` runs the plan bound to `pattern.labels()[s]`; its output is
/// added back to its input (a residual connection), and the sum feeds
/// layer `s + 1`. Layer weights are Xavier-initialized deterministically
/// from the model seed, so two models built with the same arguments are
/// identical.
pub struct DecoderModel<'p, T> {
    pattern: LayerPattern,
    /// Distinct plans, one per binding, indexed by [`Self::layer_plan`].
    plans: Vec<AttentionPlan<'p>>,
    plan_labels: Vec<char>,
    /// For each layer, the index into [`Self::plans`] it runs.
    layer_plan: Vec<usize>,
    layers: Vec<MultiHeadAttention<T>>,
    d_model: usize,
    heads: usize,
    dk: usize,
}

impl<'p, T: Real> DecoderModel<'p, T> {
    /// Compile a model: one layer per pattern label, each label bound to
    /// exactly one plan. The binding list must cover the
    /// pattern's distinct labels exactly — no unbound labels, no
    /// duplicates, no unused bindings.
    pub fn new(
        pattern: LayerPattern,
        bindings: Vec<(char, AttentionPlan<'p>)>,
        d_model: usize,
        heads: usize,
        dk: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        if d_model == 0 {
            return Err(ModelError::BadModel {
                what: "d_model must be positive",
            });
        }
        if heads == 0 {
            return Err(ModelError::BadModel {
                what: "heads must be positive",
            });
        }
        if dk == 0 {
            return Err(ModelError::BadModel {
                what: "dk must be positive",
            });
        }
        let mut plans = Vec::with_capacity(bindings.len());
        let mut plan_labels: Vec<char> = Vec::with_capacity(bindings.len());
        for (label, plan) in bindings {
            if plan_labels.contains(&label) {
                return Err(ModelError::DuplicateBinding { label });
            }
            plan_labels.push(label);
            plans.push(plan);
        }
        let mut layer_plan = Vec::with_capacity(pattern.len());
        for &label in pattern.labels() {
            match plan_labels.iter().position(|&l| l == label) {
                Some(p) => layer_plan.push(p),
                None => return Err(ModelError::Unbound { label }),
            }
        }
        if let Some(&label) = plan_labels
            .iter()
            .find(|&&l| !pattern.labels().contains(&l))
        {
            return Err(ModelError::UnusedBinding { label });
        }
        let layers = (0..pattern.len())
            .map(|s| {
                // One deterministic seed per layer position: same model
                // arguments always rebuild bit-identical weights.
                let layer_seed = seed ^ ((s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                MultiHeadAttention::new_random(d_model, heads, dk, layer_seed)
            })
            .collect();
        Ok(DecoderModel {
            pattern,
            plans,
            plan_labels,
            layer_plan,
            layers,
            d_model,
            heads,
            dk,
        })
    }

    /// Number of layers in the stack.
    pub fn layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer `s`'s attention sub-layer.
    pub fn layer(&self, s: usize) -> &MultiHeadAttention<T> {
        &self.layers[s]
    }

    /// The plan layer `s` runs.
    pub fn plan_of(&self, s: usize) -> &AttentionPlan<'p> {
        &self.plans[self.layer_plan[s]]
    }

    /// The pattern label of layer `s`.
    pub fn label_of(&self, s: usize) -> char {
        self.pattern.labels()[s]
    }

    /// Model (stream) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Heads per layer.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Head dimension.
    pub fn dk(&self) -> usize {
        self.dk
    }

    /// The full square forward pass — the sequential reference the
    /// serving paths are proven against. No cache is involved: every
    /// layer sees all `L` rows at once.
    pub fn forward(
        &self,
        engine: &AttentionEngine,
        x: &Matrix<T>,
    ) -> Result<Matrix<T>, ModelError> {
        if x.cols() != self.d_model {
            return Err(ModelError::BadState {
                what: "input width must be d_model",
            });
        }
        let mut h = x.clone();
        for (s, layer) in self.layers.iter().enumerate() {
            let attn = layer.forward_on(engine, &self.plans[self.layer_plan[s]], &h)?;
            // The residual connection, as `advance_batched` adds it.
            for (h, &a) in h.as_mut_slice().iter_mut().zip(attn.as_slice()) {
                *h += a;
            }
        }
        Ok(h)
    }

    fn check_items(
        &self,
        pool: &PagePool<T>,
        items: &[ModelWorkItem<'_, T>],
    ) -> Result<(), ModelError> {
        for item in items {
            if item.x.cols() != self.d_model {
                return Err(ModelError::BadState {
                    what: "item input width must be d_model",
                });
            }
            if item.x.rows() == 0 {
                return Err(ModelError::BadState {
                    what: "item input must have at least one row",
                });
            }
            let seqs = item.state.layer_seqs();
            if seqs.len() != self.layers.len() {
                return Err(ModelError::BadState {
                    what: "state layer count does not match the model",
                });
            }
            let tokens = pool.cache(seqs[0]).len();
            for &seq in seqs {
                let cache = pool.cache(seq);
                if cache.heads() != self.heads || cache.dk() != self.dk || cache.dv() != self.dk {
                    return Err(ModelError::BadState {
                        what: "state cache shape does not match the model (use ModelKvState::allocate)",
                    });
                }
                if cache.len() != tokens {
                    return Err(ModelError::BadState {
                        what: "layers disagree on cached length",
                    });
                }
            }
        }
        for (i, item) in items.iter().enumerate() {
            if items[..i]
                .iter()
                .any(|prev| prev.state.layer_seqs()[0] == item.state.layer_seqs()[0])
            {
                return Err(ModelError::BadState {
                    what: "two items share a ModelKvState",
                });
            }
        }
        Ok(())
    }

    /// Advance every item by its input window through the whole stack:
    /// per layer, project the rows of all items in one fused
    /// `[Wq|Wk|Wv]` launch, append every item's K/V through the pool, run
    /// all sequences × heads as **one** attention launch, and apply `Wo`
    /// plus the residual to all rows in one more launch, feeding each sum
    /// to the next layer. Returns one `rows × d_model` output per item.
    ///
    /// A 1-row window is exactly a decode step (the query window sits at
    /// the cache tail either way), so prefill chunks and decode tokens
    /// share this path — and a mixed batch is one launch per layer.
    ///
    /// Transactional: on [`ModelError::OutOfPages`] or a failed launch,
    /// every layer of every item is truncated back to its prior length.
    pub fn advance_batched(
        &self,
        engine: &AttentionEngine,
        pool: &mut PagePool<T>,
        items: &[ModelWorkItem<'_, T>],
    ) -> Result<ModelAdvance<T>, ModelError> {
        self.check_items(pool, items)?;
        let priors: Vec<usize> = items
            .iter()
            .map(|item| pool.cache(item.state.layer_seqs()[0]).len())
            .collect();
        let rollback = |pool: &mut PagePool<T>| {
            for (item, &prior) in items.iter().zip(&priors) {
                for &seq in item.state.layer_seqs() {
                    pool.truncate(seq, prior);
                }
            }
        };
        let mut xs: Vec<Matrix<T>> = items.iter().map(|item| item.x.clone()).collect();
        let mut launches = 0;
        let mut rows = 0;
        let (workers, schedule) = (engine.pool(), engine.schedule());
        for (s, layer) in self.layers.iter().enumerate() {
            let inputs: Vec<&Matrix<T>> = xs.iter().collect();
            let projected = layer.project_qkv_batched(workers, schedule, &inputs);
            for (item, (_, kh, vh)) in items.iter().zip(&projected) {
                if !pool.try_extend_heads(item.state.layer_seqs()[s], kh, vh) {
                    rollback(pool);
                    return Err(ModelError::OutOfPages);
                }
            }
            if let Some(spec) = self.plans[self.layer_plan[s]].routing_spec() {
                for (item, (qh, _, _)) in items.iter().zip(&projected) {
                    for (h, q) in qh.iter().enumerate().take(self.heads) {
                        if let Err(e) = pool.extend_routing(item.state.layer_seqs()[s], spec, h, q)
                        {
                            rollback(pool);
                            return Err(e.into());
                        }
                    }
                }
            }
            let result = {
                let requests: Vec<AttentionRequest<'_, T>> = items
                    .iter()
                    .zip(&projected)
                    .zip(&priors)
                    .flat_map(|((item, (qh, _, _)), &prior)| {
                        let cache = pool.cache(item.state.layer_seqs()[s]);
                        (0..self.heads)
                            .map(move |h| {
                                AttentionRequest::windowed(&qh[h], cache.k(h), cache.v(h), prior)
                                    .with_routing(cache.routing(h))
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                rows += requests.iter().map(AttentionRequest::rows).sum::<usize>();
                launches += 1;
                engine.run_batch(&self.plans[self.layer_plan[s]], &requests)
            };
            let outs = match result {
                Ok(outs) => outs,
                Err(e) => {
                    rollback(pool);
                    return Err(e.into());
                }
            };
            xs = layer.combine_heads_batched(workers, schedule, &outs, &inputs);
        }
        Ok(ModelAdvance {
            outputs: xs,
            launches,
            rows,
        })
    }

    /// Prefill a prompt in query windows of `chunk` rows — one
    /// [`Self::advance_batched`] call per chunk — returning the
    /// `P × d_model` prompt outputs. On error the state is truncated
    /// back to where it started.
    pub fn forward_prefill_chunked(
        &self,
        engine: &AttentionEngine,
        pool: &mut PagePool<T>,
        state: &ModelKvState,
        x: &Matrix<T>,
        chunk: usize,
    ) -> Result<Matrix<T>, ModelError> {
        if chunk == 0 {
            return Err(ModelError::BadState {
                what: "prefill chunk size must be positive",
            });
        }
        let initial = state.tokens(pool);
        let mut out = Matrix::zeros(x.rows(), self.d_model);
        let mut done = 0;
        while done < x.rows() {
            let take = chunk.min(x.rows() - done);
            let window = x.rows_slice(done, done + take);
            let items = [ModelWorkItem { x: &window, state }];
            let adv = match self.advance_batched(engine, pool, &items) {
                Ok(adv) => adv,
                Err(e) => {
                    state.truncate(pool, initial);
                    return Err(e);
                }
            };
            for i in 0..take {
                out.row_mut(done + i).copy_from_slice(adv.outputs[0].row(i));
            }
            done += take;
        }
        Ok(out)
    }

    /// One KV-cached decode step for a single sequence: a 1-row
    /// [`Self::advance_batched`]. `x_t` must be a single `1 × d_model`
    /// row.
    pub fn forward_decode(
        &self,
        engine: &AttentionEngine,
        pool: &mut PagePool<T>,
        state: &ModelKvState,
        x_t: &Matrix<T>,
    ) -> Result<Matrix<T>, ModelError> {
        if x_t.rows() != 1 {
            return Err(ModelError::BadState {
                what: "decode items must be single rows",
            });
        }
        let adv = self.advance_batched(engine, pool, &[ModelWorkItem { x: x_t, state }])?;
        Ok(adv
            .outputs
            .into_iter()
            .next()
            .expect("one item in, one out"))
    }
}

impl<T> std::fmt::Debug for DecoderModel<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecoderModel")
            .field("pattern", &self.pattern.to_string())
            .field("plans", &self.plan_labels)
            .field("d_model", &self.d_model)
            .field("heads", &self.heads)
            .field("dk", &self.dk)
            .finish()
    }
}

/// One sequence's pending work in a batched model advance: the input
/// window (a prompt chunk, or a single decode row) plus the sequence's
/// per-layer KV state.
pub struct ModelWorkItem<'a, T> {
    /// Input window, `rows × d_model`.
    pub x: &'a Matrix<T>,
    /// The sequence's per-layer caches.
    pub state: &'a ModelKvState,
}

/// What one [`DecoderModel::advance_batched`] call did.
#[derive(Debug)]
pub struct ModelAdvance<T: Real> {
    /// One `rows × d_model` output per item, in item order.
    pub outputs: Vec<Matrix<T>>,
    /// Attention launches issued (one per layer; the projection launches
    /// around each are not counted).
    pub launches: usize,
    /// Query rows computed, summed over layers, items, and heads.
    pub rows: usize,
}

/// One sequence's KV state through a [`DecoderModel`]: one
/// [`PagePool`] entry per layer, so every page-accounting question —
/// admission budgets, preemption pressure, conservation — sums over all
/// layers.
///
/// All layers always hold the same number of cached tokens; a model
/// advance appends to every layer, and rollback truncates every layer.
#[derive(Debug)]
pub struct ModelKvState {
    seqs: Vec<SeqId>,
}

impl ModelKvState {
    /// Allocate an empty per-layer state for `model`. Allocation itself
    /// takes no pages — pages are taken as appends need them.
    pub fn allocate<T: Real>(model: &DecoderModel<'_, T>, pool: &mut PagePool<T>) -> Self {
        let seqs = (0..model.layers())
            .map(|_| pool.allocate_heads(model.heads(), model.dk(), model.dk()))
            .collect();
        ModelKvState { seqs }
    }

    /// Re-adopt retained per-layer caches (the resume path after an
    /// eviction), taking the pages their tokens occupy. All-or-nothing:
    /// when the pool cannot cover every layer, nothing stays adopted and
    /// the caches come back untouched, in order.
    pub fn adopt<T: Real>(
        caches: Vec<KvCache<T>>,
        pool: &mut PagePool<T>,
    ) -> Result<Self, Vec<KvCache<T>>> {
        let mut seqs = Vec::with_capacity(caches.len());
        let mut pending = caches.into_iter();
        while let Some(cache) = pending.next() {
            match pool.try_adopt(cache) {
                Ok(id) => seqs.push(id),
                Err(cache) => {
                    let mut returned: Vec<KvCache<T>> =
                        seqs.into_iter().map(|id| pool.release(id)).collect();
                    returned.push(cache);
                    returned.extend(pending);
                    return Err(returned);
                }
            }
        }
        Ok(ModelKvState { seqs })
    }

    /// Release every layer's pool entry, returning the caches (tokens
    /// intact) in layer order — what an evicted sequence retains.
    pub fn release<T: Real>(self, pool: &mut PagePool<T>) -> Vec<KvCache<T>> {
        self.seqs.into_iter().map(|id| pool.release(id)).collect()
    }

    /// Truncate every layer back to `tokens` cached tokens, returning
    /// excess pages to the pool — the transactional rollback path.
    pub fn truncate<T: Real>(&self, pool: &mut PagePool<T>, tokens: usize) {
        for &seq in &self.seqs {
            pool.truncate(seq, tokens);
        }
    }

    /// The per-layer pool handles, in layer order.
    pub(crate) fn layer_seqs(&self) -> &[SeqId] {
        &self.seqs
    }

    /// Tokens cached per layer (all layers are equal).
    pub fn tokens<T: Real>(&self, pool: &PagePool<T>) -> usize {
        self.seqs.first().map_or(0, |&s| pool.cache(s).len())
    }

    /// Pages currently mapped, summed over all layers.
    pub fn pages_held<T: Real>(&self, pool: &PagePool<T>) -> usize {
        self.seqs.iter().map(|&s| pool.pages_held(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_core::AttentionKernel;
    use gpa_masks::GlobalSet;
    use gpa_tensor::init::gaussian_matrix;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(2)
    }

    fn fs_bindings<'p>(engine: &AttentionEngine, full_n: usize) -> Vec<(char, AttentionPlan<'p>)> {
        vec![
            (
                'F',
                engine
                    .compile(&[AttentionKernel::Local { n: full_n }])
                    .unwrap(),
            ),
            (
                'S',
                engine
                    .compile(&[AttentionKernel::Dilated1d { w: 2, r: 2 }])
                    .unwrap(),
            ),
        ]
    }

    fn model<'p>(engine: &AttentionEngine, pattern: &str, seed: u64) -> DecoderModel<'p, f64> {
        DecoderModel::new(
            LayerPattern::parse(pattern).unwrap(),
            fs_bindings(engine, 64),
            12,
            3,
            4,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn compile_validates_bindings() {
        let e = engine();
        let pat = || LayerPattern::parse("FSF").unwrap();
        let mk = |bindings| DecoderModel::<f64>::new(pat(), bindings, 12, 3, 4, 0);
        assert!(matches!(
            mk(fs_bindings(&e, 8)[..1].to_vec().into_iter().collect()),
            Err(ModelError::Unbound { label: 'S' })
        ));
        let mut dup = fs_bindings(&e, 8);
        dup.push(('F', e.compile(&[AttentionKernel::Local { n: 1 }]).unwrap()));
        assert!(matches!(
            mk(dup),
            Err(ModelError::DuplicateBinding { label: 'F' })
        ));
        let mut unused = fs_bindings(&e, 8);
        unused.push(('X', e.compile(&[AttentionKernel::Local { n: 1 }]).unwrap()));
        assert!(matches!(
            mk(unused),
            Err(ModelError::UnusedBinding { label: 'X' })
        ));
        assert!(matches!(
            DecoderModel::<f64>::new(pat(), fs_bindings(&e, 8), 0, 3, 4, 0),
            Err(ModelError::BadModel { .. })
        ));
        assert!(matches!(
            DecoderModel::<f64>::new(pat(), fs_bindings(&e, 8), 12, 0, 4, 0),
            Err(ModelError::BadModel { .. })
        ));
        assert!(matches!(
            DecoderModel::<f64>::new(pat(), fs_bindings(&e, 8), 12, 3, 0, 0),
            Err(ModelError::BadModel { .. })
        ));
    }

    #[test]
    fn compiled_model_exposes_its_shape() {
        let e = engine();
        let m = model(&e, "FSSF", 7);
        assert_eq!(m.layers(), 4);
        assert_eq!((m.d_model(), m.heads(), m.dk()), (12, 3, 4));
        assert_eq!(m.label_of(1), 'S');
        assert_eq!(m.plan_of(0).describe(), m.plan_of(3).describe());
        assert!(format!("{m:?}").contains("FSSF"));
        // Same arguments → bit-identical weights; different seed → not.
        let x = gaussian_matrix(6, 12, 1.0, 3);
        let a = m.forward(&e, &x).unwrap();
        let b = model(&e, "FSSF", 7).forward(&e, &x).unwrap();
        assert_eq!(a, b);
        let c = model(&e, "FSSF", 8).forward(&e, &x).unwrap();
        assert!(c.max_abs_diff(&a) > 1e-12);
        // Layers have distinct weights: a 2-layer stack differs from
        // applying layer 0 twice (pattern "FF" vs "F" applied twice).
        assert!(m.layer(0).d_model() == 12);
    }

    #[test]
    fn batched_advance_matches_independent_sequences_bitwise() {
        let e = engine();
        let m = model(&e, "FSF", 11);
        // Batched: two sequences in one pool.
        let mut pool: PagePool<f64> = PagePool::new(64, 2);
        let sa = ModelKvState::allocate(&m, &mut pool);
        let sb = ModelKvState::allocate(&m, &mut pool);
        let xa = gaussian_matrix(5, 12, 1.0, 40);
        let xb = gaussian_matrix(3, 12, 1.0, 41);
        let adv = m
            .advance_batched(
                &e,
                &mut pool,
                &[
                    ModelWorkItem { x: &xa, state: &sa },
                    ModelWorkItem { x: &xb, state: &sb },
                ],
            )
            .unwrap();
        assert_eq!(adv.outputs.len(), 2);
        assert_eq!(adv.outputs[0].shape(), (5, 12));
        assert_eq!(adv.launches, 3, "one launch per layer");
        assert_eq!(adv.rows, 3 * (5 + 3) * 3, "layers × rows × heads");
        assert_eq!((sa.tokens(&pool), sb.tokens(&pool)), (5, 3));
        assert_eq!(sa.pages_held(&pool), 3 * 3, "ceil(5/2) pages × 3 layers");
        pool.assert_page_invariants();
        // Independent: each sequence alone in its own pool.
        for (x, out) in [(&xa, &adv.outputs[0]), (&xb, &adv.outputs[1])] {
            let mut solo: PagePool<f64> = PagePool::new(64, 2);
            let st = ModelKvState::allocate(&m, &mut solo);
            let alone = m
                .advance_batched(&e, &mut solo, &[ModelWorkItem { x, state: &st }])
                .unwrap();
            assert_eq!(&alone.outputs[0], out, "batching must be bitwise-invisible");
        }
    }

    #[test]
    fn decode_is_a_one_row_advance() {
        let e = engine();
        let m = model(&e, "SF", 5);
        let mut pool: PagePool<f64> = PagePool::new(64, 4);
        let st = ModelKvState::allocate(&m, &mut pool);
        let x = gaussian_matrix(6, 12, 1.0, 9);
        let pre = m
            .forward_prefill_chunked(&e, &mut pool, &st, &x.rows_slice(0, 5), 2)
            .unwrap();
        assert_eq!(pre.shape(), (5, 12));
        assert_eq!(st.tokens(&pool), 5);
        let tok = x.rows_slice(5, 6);
        let via_decode = m.forward_decode(&e, &mut pool, &st, &tok).unwrap();
        // Rebuild the same state and advance with a 1-row window instead.
        let st2 = ModelKvState::allocate(&m, &mut pool);
        m.forward_prefill_chunked(&e, &mut pool, &st2, &x.rows_slice(0, 5), 2)
            .unwrap();
        let via_advance = m
            .advance_batched(
                &e,
                &mut pool,
                &[ModelWorkItem {
                    x: &tok,
                    state: &st2,
                }],
            )
            .unwrap();
        assert_eq!(via_decode, via_advance.outputs[0]);
        assert_eq!(st.tokens(&pool), 6);
        assert!(m.forward_decode(&e, &mut pool, &st, &x).is_err());
        assert_eq!(st.tokens(&pool), 6, "a multi-row decode appends nothing");
    }

    #[test]
    fn routed_layer_prefill_and_decode_match_square_forward_bitwise() {
        let e = engine();
        let coarse = e
            .compile(&[AttentionKernel::Routed {
                groups: 3,
                seed: 0x5EED,
                causal: true,
            }])
            .unwrap();
        let fine = e
            .compile(&[AttentionKernel::Routed {
                groups: 2,
                seed: 0xF00D,
                causal: true,
            }])
            .unwrap();
        let m: DecoderModel<'_, f64> = DecoderModel::new(
            LayerPattern::parse("RSR").unwrap(),
            vec![('R', coarse), ('S', fine)],
            12,
            3,
            4,
            21,
        )
        .unwrap();
        let x = gaussian_matrix(9, 12, 1.0, 33);
        let square = m.forward(&e, &x).unwrap();
        // Chunked prefill then token-by-token decode through the same
        // all-causal stack: token `i`'s group depends only on `q[i]`, so
        // incremental routing reproduces the square pass's groups exactly
        // and the causal members stream in the same ascending order —
        // outputs must be bitwise equal.
        let mut pool: PagePool<f64> = PagePool::new(64, 4);
        let st = ModelKvState::allocate(&m, &mut pool);
        let pre = m
            .forward_prefill_chunked(&e, &mut pool, &st, &x.rows_slice(0, 6), 4)
            .unwrap();
        for i in 0..6 {
            assert_eq!(pre.row(i), square.row(i), "prefill row {i}");
        }
        for t in 6..9 {
            let out = m
                .forward_decode(&e, &mut pool, &st, &x.rows_slice(t, t + 1))
                .unwrap();
            assert_eq!(out.row(0), square.row(t), "decode row {t}");
        }
        // Evict-and-resume keeps each layer's routing with its cache: the
        // released caches re-adopt and the next decode is still bitwise.
        let caches = st.release(&mut pool);
        let resumed = ModelKvState::adopt(caches, &mut pool).expect("pages are free");
        let extra = gaussian_matrix(1, 12, 1.0, 34);
        let after_resume = m.forward_decode(&e, &mut pool, &resumed, &extra).unwrap();
        let mut fresh: PagePool<f64> = PagePool::new(64, 4);
        let st2 = ModelKvState::allocate(&m, &mut fresh);
        m.forward_prefill_chunked(&e, &mut fresh, &st2, &x, 3)
            .unwrap();
        let never_evicted = m.forward_decode(&e, &mut fresh, &st2, &extra).unwrap();
        assert_eq!(after_resume, never_evicted, "resume must re-adopt routing");
        pool.assert_page_invariants();
    }

    #[test]
    fn out_of_pages_rolls_every_layer_back() {
        let e = engine();
        let m = model(&e, "FSF", 2);
        // 3 layers × 1 page each fit 3 tokens/layer; growing to a second
        // page per layer needs 3 more pages but only 1 remains — layer 0
        // grabs it, layer 1 fails, and the rollback must undo layer 0.
        let mut pool: PagePool<f64> = PagePool::new(4, 3);
        let st = ModelKvState::allocate(&m, &mut pool);
        let x = gaussian_matrix(3, 12, 1.0, 1);
        m.advance_batched(&e, &mut pool, &[ModelWorkItem { x: &x, state: &st }])
            .unwrap();
        assert_eq!(st.pages_held(&pool), 3);
        let more = gaussian_matrix(2, 12, 1.0, 2);
        let err = m
            .advance_batched(
                &e,
                &mut pool,
                &[ModelWorkItem {
                    x: &more,
                    state: &st,
                }],
            )
            .unwrap_err();
        assert_eq!(err, ModelError::OutOfPages);
        assert_eq!(st.tokens(&pool), 3, "failed advance must roll back");
        assert_eq!(st.pages_held(&pool), 3);
        pool.assert_page_invariants();
        // The prefill wrapper rolls all chunks back, not just the last.
        let big = gaussian_matrix(4, 12, 1.0, 3);
        assert!(m
            .forward_prefill_chunked(&e, &mut pool, &st, &big, 1)
            .is_err());
        assert_eq!(st.tokens(&pool), 3);
        pool.assert_page_invariants();
    }

    #[test]
    fn failed_launch_rolls_every_layer_back() {
        let e = engine();
        // A kv-pinned plan (Global pins kv_rows to its mask size) cannot
        // serve a growing cache: the first advance appends, then fails
        // validation at launch.
        let globals = GlobalSet::new(99, vec![0]);
        let pinned = e
            .compile(&[AttentionKernel::Global {
                globals: &globals,
                n_sub: 0,
            }])
            .unwrap();
        let local = e.compile(&[AttentionKernel::Local { n: 8 }]).unwrap();
        let m: DecoderModel<'_, f64> = DecoderModel::new(
            LayerPattern::parse("FS").unwrap(),
            vec![('F', local), ('S', pinned)],
            12,
            3,
            4,
            0,
        )
        .unwrap();
        let mut pool: PagePool<f64> = PagePool::new(16, 4);
        let st = ModelKvState::allocate(&m, &mut pool);
        let x = gaussian_matrix(3, 12, 1.0, 4);
        let err = m
            .advance_batched(&e, &mut pool, &[ModelWorkItem { x: &x, state: &st }])
            .unwrap_err();
        assert!(matches!(err, ModelError::Attn(_)));
        assert_eq!(st.tokens(&pool), 0, "layer F's append must roll back too");
        assert_eq!(st.pages_held(&pool), 0);
        pool.assert_page_invariants();
    }

    #[test]
    fn state_release_and_adopt_round_trip() {
        let e = engine();
        let m = model(&e, "FS", 6);
        let mut pool: PagePool<f64> = PagePool::new(4, 2);
        let st = ModelKvState::allocate(&m, &mut pool);
        let x = gaussian_matrix(3, 12, 1.0, 8);
        let out = m
            .advance_batched(&e, &mut pool, &[ModelWorkItem { x: &x, state: &st }])
            .unwrap();
        let caches = st.release(&mut pool);
        assert_eq!(caches.len(), 2);
        assert_eq!(caches[0].len(), 3);
        assert_eq!(pool.free_pages(), 4);
        // The scheduler's park/resume path: the released stack is held
        // as ONE value (`release`, then `adopt`). A squatter takes enough
        // pages that only one layer fits: the adopt must be
        // all-or-nothing and return the caches in order — whole, so the
        // stack can be held again.
        let squat = pool.allocate(2, 2);
        assert!(pool.try_extend(
            squat,
            &gaussian_matrix(3, 2, 1.0, 1),
            &gaussian_matrix(3, 2, 1.0, 2)
        ));
        let caches = match ModelKvState::adopt(caches, &mut pool) {
            Err(caches) => caches,
            Ok(_) => panic!("adopt must fail under page pressure"),
        };
        assert_eq!(caches.len(), 2);
        assert!(caches.iter().all(|c| c.len() == 3));
        pool.assert_page_invariants();
        // Squatter gone → adoption succeeds and the resumed state decodes
        // bitwise-identically to never having been evicted.
        pool.release(squat);
        let resumed = ModelKvState::adopt(caches, &mut pool).expect("pages are free");
        assert_eq!(resumed.tokens(&pool), 3);
        let tok = gaussian_matrix(1, 12, 1.0, 12);
        let after_resume = m.forward_decode(&e, &mut pool, &resumed, &tok).unwrap();
        let mut fresh: PagePool<f64> = PagePool::new(4, 2);
        let st2 = ModelKvState::allocate(&m, &mut fresh);
        let out2 = m
            .advance_batched(&e, &mut fresh, &[ModelWorkItem { x: &x, state: &st2 }])
            .unwrap();
        assert_eq!(out2.outputs[0], out.outputs[0]);
        let never_evicted = m.forward_decode(&e, &mut fresh, &st2, &tok).unwrap();
        assert_eq!(after_resume, never_evicted, "resume must be bitwise");
    }

    #[test]
    fn mismatched_states_and_inputs_are_rejected() {
        let e = engine();
        let m = model(&e, "FSF", 3);
        let other = model(&e, "FS", 3);
        let mut pool: PagePool<f64> = PagePool::new(16, 4);
        let st = ModelKvState::allocate(&m, &mut pool);
        let short = ModelKvState::allocate(&other, &mut pool);
        let x = gaussian_matrix(2, 12, 1.0, 5);
        let wrong_width = gaussian_matrix(2, 11, 1.0, 5);
        let empty = Matrix::<f64>::zeros(0, 12);
        for (x, state, what) in [
            (&wrong_width, &st, "width"),
            (&empty, &st, "empty"),
            (&x, &short, "layer count"),
        ] {
            let err = m
                .advance_batched(&e, &mut pool, &[ModelWorkItem { x, state }])
                .unwrap_err();
            assert!(matches!(err, ModelError::BadState { .. }), "{what}");
        }
        let dup = m
            .advance_batched(
                &e,
                &mut pool,
                &[
                    ModelWorkItem { x: &x, state: &st },
                    ModelWorkItem { x: &x, state: &st },
                ],
            )
            .unwrap_err();
        assert_eq!(
            dup,
            ModelError::BadState {
                what: "two items share a ModelKvState",
            }
        );
        assert!(m
            .forward_prefill_chunked(&e, &mut pool, &st, &x, 0)
            .is_err());
        assert!(m.forward(&e, &wrong_width).is_err());
        assert_eq!(st.tokens(&pool), 0);
        pool.assert_page_invariants();
    }
}
