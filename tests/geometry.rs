//! Rectangular geometry is exact: query windows, chunked prefill, and
//! KV-cached decode must reproduce the square forward **bitwise**.
//!
//! Three properties anchor the serving surface:
//!
//! 1. every graph kernel on a query window or a decode row equals both the
//!    rectangular-CSR reference mask over the same rows and the
//!    corresponding rows of the square run, which itself matches
//!    `masked_sdp` over the materialized mask;
//! 2. chunked prefill over *any* chunk split is the full square forward;
//! 3. each decode step through a [`KvCache`] is the last row of the square
//!    forward over the tokens cached so far — and for causal masks (whose
//!    rows never look forward) prefill + decode reassembles the full
//!    square forward exactly.

use graph_attention::core::{KvCache, PagePool};
use graph_attention::model::{DecoderModel, LayerPattern, ModelKvState, ModelWorkItem};
use graph_attention::prelude::*;
use graph_attention::sparse::{CooMask, CsrMask, DiaMask};
use proptest::prelude::*;

fn engine() -> AttentionEngine {
    AttentionEngine::with_threads(3)
}

/// Restrict a square CSR mask to absolute query rows `0..q_end` (keeping
/// absolute row indices — the executor's explicit-mask convention).
fn restrict_rows(mask: &CsrMask, q_end: usize) -> CsrMask {
    let entries: Vec<(usize, usize)> = mask.iter().filter(|&(r, _)| r < q_end).collect();
    CsrMask::from_coo(&CooMask::from_entries(q_end, mask.cols(), entries).unwrap())
}

/// Restrict a square CSR mask to the `prefix × prefix` leading block.
fn restrict_square(mask: &CsrMask, prefix: usize) -> CsrMask {
    let entries: Vec<(usize, usize)> = mask
        .iter()
        .filter(|&(r, c)| r < prefix && c < prefix)
        .collect();
    CsrMask::from_coo(&CooMask::from_entries(prefix, prefix, entries).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1, the kernel table — every graph kernel variant (COO
    /// linear/binary, CSR, DIA, Local, Dilated-1D, Dilated-2D, Global) ×
    /// {square, a mid-sequence `row_range` window, the decode row}: the square run is `paper_allclose` to
    /// `masked_sdp` over the materialized mask, and the window and the
    /// decode row are bitwise equal to (a) the rectangular-CSR reference
    /// mask of the same rows and (b) the matching rows of the square run.
    #[test]
    fn windowed_kernels_match_rectangular_csr_and_square_rows(
        l in 4usize..36,
        dk in 1usize..8,
        n in 0usize..5,
        w in 1usize..8,
        r in 0usize..3,
        off_frac in 0.0f64..1.0,
        rows_frac in 0.0f64..1.0,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed);
        let off = ((l - 1) as f64 * off_frac) as usize;
        let rows = 1 + ((l - off - 1) as f64 * rows_frac) as usize;
        let globals = GlobalSet::evenly_spaced(l, n.min(l));
        let dia = DiaMask::new(l, vec![-((n % l.max(2)) as i64), 0, (w % l) as i64 % l as i64])
            .unwrap();
        let random = graph_attention::masks::RandomUniform::new(l, 0.2, seed ^ 0xF00D);
        let (csr, coo) = (random.to_csr(), random.to_coo());

        let square_masks: Vec<(AttentionKernel<'_>, CsrMask)> = vec![
            (AttentionKernel::Coo(&coo, CooSearch::Linear), csr.clone()),
            (AttentionKernel::Coo(&coo, CooSearch::Binary), csr.clone()),
            (AttentionKernel::Csr(&csr), csr.clone()),
            (AttentionKernel::Dia(&dia), dia.to_csr()),
            (AttentionKernel::Local { n }, LocalWindow::new(l, n).to_csr()),
            (
                AttentionKernel::Dilated1d { w, r },
                graph_attention::masks::Dilated1d::new(l, w, r).to_csr(),
            ),
            (
                AttentionKernel::Dilated2d { block_size: w, r },
                graph_attention::masks::Dilated2d::new(l, w, r).to_csr(),
            ),
            (
                AttentionKernel::Global { globals: &globals, n_sub: n },
                graph_attention::masks::GlobalMinusLocal::new(globals.clone(), n).to_csr(),
            ),
        ];

        for (kernel, square_csr) in &square_masks {
            let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
            let what = kernel.name();
            let square = e.run(&plan, &q, &k, &v).unwrap();
            let dense = DenseMask::from_csr(square_csr);
            let reference = masked_sdp(&e, &dense, &q, &k, &v).unwrap();
            prop_assert!(paper_allclose(&square, &reference), "{} vs masked SDP", what);

            // The mid-sequence window and the decode row, in one launch.
            let last = q.rows_slice(l - 1, l);
            let requests = [
                AttentionRequest::row_range(&q, off..off + rows, &k, &v, off),
                AttentionRequest::decode(&last, &k, &v),
            ];
            let outs = e.run_batch(&plan, &requests).unwrap();

            for (request, out) in requests.iter().zip(&outs) {
                let first = request.geometry.q_offset;
                // (a) The rectangular-CSR reference over the same rows.
                let rect = restrict_rows(square_csr, first + out.rows());
                let rect_plan = e.compile(&[AttentionKernel::Csr(&rect)]).unwrap();
                let via_rect = e.run_batch(&rect_plan, &[*request]).unwrap();
                prop_assert!(out == &via_rect[0], "{} vs rect CSR at {}", what, first);
                // (b) The matching rows of the full square run.
                for i in 0..out.rows() {
                    prop_assert!(
                        out.row(i) == square.row(first + i),
                        "{} row {} (off {})",
                        what,
                        i,
                        first
                    );
                }
            }
        }
    }

    /// Property 2 — chunked prefill over any chunk split is bitwise the
    /// square forward, for every composable kernel family.
    #[test]
    fn any_chunked_prefill_is_bitwise_the_full_forward(
        l in 2usize..32,
        dk in 1usize..8,
        n in 0usize..5,
        chunk in 1usize..40,
        density in 0.05f64..0.8,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed ^ 0x9E0);
        let globals = GlobalSet::evenly_spaced(l, (n + 1).min(l));
        let csr = graph_attention::masks::RandomUniform::new(l, density, seed).to_csr();
        let coo = csr.to_coo();
        let dia = DiaMask::local(l, n);

        let kernels: Vec<AttentionKernel<'_>> = vec![
            AttentionKernel::Local { n },
            AttentionKernel::Dilated1d { w: n + 1, r: 1 },
            AttentionKernel::Dilated2d { block_size: n + 1, r: 1 },
            AttentionKernel::Global { globals: &globals, n_sub: n },
            AttentionKernel::Dia(&dia),
            AttentionKernel::Csr(&csr),
            AttentionKernel::Coo(&coo, CooSearch::Linear),
        ];
        for kernel in &kernels {
            let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
            let full = e.run(&plan, &q, &k, &v).unwrap();
            let mut cache = KvCache::single(dk, dk);
            let prefill = e
                .prefill_chunked(&plan, &q, &k, &v, chunk, &mut cache)
                .unwrap();
            prop_assert!(prefill == full, "{} chunk={}", kernel.name(), chunk);
            prop_assert_eq!(cache.len(), l);
        }
    }

    /// Property 3 — prefill a prompt, then decode the remaining tokens one
    /// at a time through the KvCache: every decode step is bitwise the
    /// last row of the square forward over the tokens so far, for every
    /// composable kernel family (length-pinning kernels get a per-prefix
    /// mask, exactly as the square reference does).
    #[test]
    fn prefill_plus_decode_reproduces_every_square_prefix(
        l in 2usize..24,
        dk in 1usize..6,
        n in 0usize..4,
        chunk in 1usize..8,
        density in 0.1f64..0.9,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed ^ 0xD3C);
        let prompt = 1 + (seed as usize % l);
        let full_csr = graph_attention::masks::RandomUniform::new(l, density, seed).to_csr();
        let global_indices: Vec<usize> = vec![0];

        // Length-free plans: compiled once, reused for prefill and every
        // decode step of the growing cache.
        let implicit: Vec<AttentionKernel<'_>> = vec![
            AttentionKernel::Local { n },
            AttentionKernel::Dilated1d { w: n + 1, r: 1 },
            AttentionKernel::Dilated2d { block_size: n + 2, r: 1 },
        ];
        for kernel in &implicit {
            let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
            let mut cache = KvCache::single(dk, dk);
            let prefill = e
                .prefill_chunked(
                    &plan,
                    &q.rows_slice(0, prompt),
                    &k.rows_slice(0, prompt),
                    &v.rows_slice(0, prompt),
                    chunk,
                    &mut cache,
                )
                .unwrap();
            let square_prompt = e.run(
                &plan,
                &q.rows_slice(0, prompt),
                &k.rows_slice(0, prompt),
                &v.rows_slice(0, prompt),
            )
            .unwrap();
            prop_assert!(prefill == square_prompt, "{} prefill", kernel.name());
            for t in prompt..l {
                let out = e
                    .decode_step(
                        &plan,
                        &q.rows_slice(t, t + 1),
                        &k.rows_slice(t, t + 1),
                        &v.rows_slice(t, t + 1),
                        &mut cache,
                    )
                    .unwrap();
                let prefix = e.run(
                    &plan,
                    &q.rows_slice(0, t + 1),
                    &k.rows_slice(0, t + 1),
                    &v.rows_slice(0, t + 1),
                )
                .unwrap();
                prop_assert!(out.row(0) == prefix.row(t), "{} step {}", kernel.name(), t);
            }
        }

        // Length-pinned families: the mask grows with the prefix on both
        // the decode side and the square-reference side.
        let mut cache = KvCache::single(dk, dk);
        cache.extend(0, &k.rows_slice(0, prompt), &v.rows_slice(0, prompt));
        for t in prompt..l {
            cache.append(0, k.row(t), v.row(t));
            let len = t + 1;
            let q_t = q.rows_slice(t, t + 1);
            let prefix_q = q.rows_slice(0, len);
            let prefix_k = k.rows_slice(0, len);
            let prefix_v = v.rows_slice(0, len);

            let globals = GlobalSet::new(len, global_indices.clone());
            let dia = DiaMask::local(len, n);
            let csr = restrict_square(&full_csr, len);
            let coo = csr.to_coo();
            let pinned: Vec<AttentionKernel<'_>> = vec![
                AttentionKernel::Global { globals: &globals, n_sub: n },
                AttentionKernel::Dia(&dia),
                AttentionKernel::Csr(&csr),
                AttentionKernel::Coo(&coo, CooSearch::Binary),
            ];
            for kernel in &pinned {
                let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
                let out = e
                    .run_batch(
                        &plan,
                        &[AttentionRequest::decode(&q_t, cache.k(0), cache.v(0))],
                    )
                    .unwrap()
                    .pop()
                    .unwrap();
                let prefix = e.run(&plan, &prefix_q, &prefix_k, &prefix_v).unwrap();
                prop_assert!(out.row(0) == prefix.row(t), "{} step {}", kernel.name(), t);
            }
        }
    }

    /// Eviction is invisible: serve a sequence, evict its cache at a random
    /// decode step, resume over a fresh cache that holds exactly the
    /// retained K/V rows, and keep decoding — every output row and the
    /// final cache must be bitwise the uninterrupted run's, for all seven
    /// composable kernel families. Those rows are what a resumed plan
    /// sequence in `gpa-serve` attends over: its own `K`/`V` inputs up to
    /// its cached length, re-reserved rather than copied.
    #[test]
    fn evict_and_recompute_at_any_decode_step_is_bitwise_invisible(
        l in 3usize..24,
        dk in 1usize..6,
        n in 0usize..4,
        chunk in 1usize..8,
        density in 0.1f64..0.9,
        evict_frac in 0.0f64..1.0,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed ^ 0xE71C);
        // At least one decode token, and an eviction point somewhere in
        // the decode phase: the cache holds `evict_at` tokens when the
        // sequence is evicted, token `evict_at` is the first one decoded
        // after resume.
        let prompt = 1 + (seed as usize % (l - 1));
        let evict_at = prompt + ((l - prompt - 1) as f64 * evict_frac) as usize;
        let full_csr = graph_attention::masks::RandomUniform::new(l, density, seed).to_csr();

        // Length-free plans: one compiled plan serves prefill and every
        // decode step, before and after the eviction.
        let implicit: Vec<AttentionKernel<'_>> = vec![
            AttentionKernel::Local { n },
            AttentionKernel::Dilated1d { w: n + 1, r: 1 },
            AttentionKernel::Dilated2d { block_size: n + 2, r: 1 },
        ];
        for kernel in &implicit {
            let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
            let serve = |cache: &mut KvCache<f64>, from: usize, to: usize| {
                (from..to)
                    .map(|t| {
                        e.decode_step(
                            &plan,
                            &q.rows_slice(t, t + 1),
                            &k.rows_slice(t, t + 1),
                            &v.rows_slice(t, t + 1),
                            cache,
                        )
                        .unwrap()
                    })
                    .collect::<Vec<_>>()
            };
            // The uninterrupted run.
            let mut cache = KvCache::single(dk, dk);
            let prefill = e
                .prefill_chunked(
                    &plan,
                    &q.rows_slice(0, prompt),
                    &k.rows_slice(0, prompt),
                    &v.rows_slice(0, prompt),
                    chunk,
                    &mut cache,
                )
                .unwrap();
            let uninterrupted = serve(&mut cache, prompt, l);
            // The evicted run: identical until `evict_at`, then the cache
            // is dropped and rebuilt from the retained K/V input rows.
            let mut before = KvCache::single(dk, dk);
            let prefill2 = e
                .prefill_chunked(
                    &plan,
                    &q.rows_slice(0, prompt),
                    &k.rows_slice(0, prompt),
                    &v.rows_slice(0, prompt),
                    chunk,
                    &mut before,
                )
                .unwrap();
            prop_assert!(prefill2 == prefill, "{} prefill", kernel.name());
            let head = serve(&mut before, prompt, evict_at);
            drop(before); // eviction: pages released, cache gone
            let mut resumed = KvCache::single(dk, dk);
            resumed.extend(0, &k.rows_slice(0, evict_at), &v.rows_slice(0, evict_at));
            let tail = serve(&mut resumed, evict_at, l);
            for (i, (a, b)) in head.iter().chain(&tail).zip(&uninterrupted).enumerate() {
                prop_assert!(
                    a == b,
                    "{} decode row {} differs across eviction at {}",
                    kernel.name(),
                    prompt + i,
                    evict_at
                );
            }
            prop_assert!(
                resumed.len() == cache.len()
                    && resumed.k(0) == cache.k(0)
                    && resumed.v(0) == cache.v(0),
                "{} final cache differs across eviction",
                kernel.name()
            );
        }

        // Length-pinned families: per-prefix masks on both sides, exactly
        // as the square reference demands — eviction rebuilds the cache
        // the same way.
        let global_indices: Vec<usize> = vec![0];
        let step = |cache: &KvCache<f64>, t: usize| -> Vec<Matrix<f64>> {
            let len = t + 1;
            let globals = GlobalSet::new(len, global_indices.clone());
            let dia = DiaMask::local(len, n);
            let csr = restrict_square(&full_csr, len);
            let coo = csr.to_coo();
            let pinned: Vec<AttentionKernel<'_>> = vec![
                AttentionKernel::Global { globals: &globals, n_sub: n },
                AttentionKernel::Dia(&dia),
                AttentionKernel::Csr(&csr),
                AttentionKernel::Coo(&coo, CooSearch::Binary),
            ];
            pinned
                .iter()
                .map(|kernel| {
                    let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
                    e.run_batch(
                        &plan,
                        &[AttentionRequest::decode(
                            &q.rows_slice(t, t + 1),
                            cache.k(0),
                            cache.v(0),
                        )],
                    )
                    .unwrap()
                    .pop()
                    .unwrap()
                })
                .collect()
        };
        let mut cache = KvCache::single(dk, dk);
        cache.extend(0, &k.rows_slice(0, prompt), &v.rows_slice(0, prompt));
        let mut evicted = KvCache::single(dk, dk);
        evicted.extend(0, &k.rows_slice(0, prompt), &v.rows_slice(0, prompt));
        for t in prompt..l {
            cache.append(0, k.row(t), v.row(t));
            if t == evict_at {
                // Eviction: the old cache is dropped by the reassignment;
                // resume rebuilds from the retained input rows.
                let mut fresh = KvCache::single(dk, dk);
                fresh.extend(0, &k.rows_slice(0, evict_at), &v.rows_slice(0, evict_at));
                evicted = fresh;
            }
            evicted.append(0, k.row(t), v.row(t));
            let a = step(&cache, t);
            let b = step(&evicted, t);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    x == y,
                    "pinned family {} decode row {} differs across eviction at {}",
                    i,
                    t,
                    evict_at
                );
            }
        }
        prop_assert!(
            evicted.len() == cache.len()
                && evicted.k(0) == cache.k(0)
                && evicted.v(0) == cache.v(0),
            "pinned final cache differs across eviction"
        );
    }

    /// Evict-and-**swap** is invisible: at a random decode step the cache
    /// takes the scheduler's park path — adopted into a [`PagePool`],
    /// released (pages back to the pool), held by value, re-adopted,
    /// released — and decoding continues on the round-tripped cache.
    /// Every output row and the final cache must be bitwise the
    /// uninterrupted run's, for all seven composable kernel families.
    #[test]
    fn evict_and_swap_at_any_decode_step_is_bitwise_invisible(
        l in 3usize..24,
        dk in 1usize..6,
        n in 0usize..4,
        chunk in 1usize..8,
        density in 0.1f64..0.9,
        evict_frac in 0.0f64..1.0,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed ^ 0x5A9);
        let prompt = 1 + (seed as usize % (l - 1));
        let evict_at = prompt + ((l - prompt - 1) as f64 * evict_frac) as usize;
        let full_csr = graph_attention::masks::RandomUniform::new(l, density, seed).to_csr();

        // The round trip the scheduler performs on a stack victim: pages
        // released to the pool, cache value held; on resume, re-adopted.
        // The cache that comes back must be the same value.
        let page_size = 1 + (seed as usize % 4);
        let swap_trip = |cache: KvCache<f64>| -> KvCache<f64> {
            let mut pool: PagePool<f64> = PagePool::new(l.div_ceil(page_size) + 1, page_size);
            let id = pool.try_adopt(vec![cache]).expect("adopt fits");
            let victim = pool.release(id);
            assert_eq!(pool.used_pages(), 0, "eviction released every page");
            let resumed = pool.try_adopt(victim).expect("re-adopt fits");
            pool.assert_page_invariants();
            pool.release(resumed).pop().expect("one cache")
        };

        // Length-free plans: one compiled plan serves prefill and every
        // decode step across the swap.
        let implicit: Vec<AttentionKernel<'_>> = vec![
            AttentionKernel::Local { n },
            AttentionKernel::Dilated1d { w: n + 1, r: 1 },
            AttentionKernel::Dilated2d { block_size: n + 2, r: 1 },
        ];
        for kernel in &implicit {
            let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
            let serve = |cache: &mut KvCache<f64>, from: usize, to: usize| {
                (from..to)
                    .map(|t| {
                        e.decode_step(
                            &plan,
                            &q.rows_slice(t, t + 1),
                            &k.rows_slice(t, t + 1),
                            &v.rows_slice(t, t + 1),
                            cache,
                        )
                        .unwrap()
                    })
                    .collect::<Vec<_>>()
            };
            let mut cache = KvCache::single(dk, dk);
            e.prefill_chunked(
                &plan,
                &q.rows_slice(0, prompt),
                &k.rows_slice(0, prompt),
                &v.rows_slice(0, prompt),
                chunk,
                &mut cache,
            )
            .unwrap();
            let uninterrupted = serve(&mut cache, prompt, l);

            let mut swapped = KvCache::single(dk, dk);
            e.prefill_chunked(
                &plan,
                &q.rows_slice(0, prompt),
                &k.rows_slice(0, prompt),
                &v.rows_slice(0, prompt),
                chunk,
                &mut swapped,
            )
            .unwrap();
            let head = serve(&mut swapped, prompt, evict_at);
            let mut resumed = swap_trip(swapped);
            prop_assert!(
                resumed.len() == evict_at,
                "{} swap must preserve length",
                kernel.name()
            );
            let tail = serve(&mut resumed, evict_at, l);
            for (i, (a, b)) in head.iter().chain(&tail).zip(&uninterrupted).enumerate() {
                prop_assert!(
                    a == b,
                    "{} decode row {} differs across swap at {}",
                    kernel.name(),
                    prompt + i,
                    evict_at
                );
            }
            prop_assert!(
                resumed.len() == cache.len()
                    && resumed.k(0) == cache.k(0)
                    && resumed.v(0) == cache.v(0),
                "{} final cache differs across swap",
                kernel.name()
            );
        }

        // Length-pinned families: the swap round trip happens between two
        // appends; the spliced-back cache must carry decoding bitwise.
        let global_indices: Vec<usize> = vec![0];
        let step = |cache: &KvCache<f64>, t: usize| -> Vec<Matrix<f64>> {
            let len = t + 1;
            let globals = GlobalSet::new(len, global_indices.clone());
            let dia = DiaMask::local(len, n);
            let csr = restrict_square(&full_csr, len);
            let coo = csr.to_coo();
            let pinned: Vec<AttentionKernel<'_>> = vec![
                AttentionKernel::Global { globals: &globals, n_sub: n },
                AttentionKernel::Dia(&dia),
                AttentionKernel::Csr(&csr),
                AttentionKernel::Coo(&coo, CooSearch::Binary),
            ];
            pinned
                .iter()
                .map(|kernel| {
                    let plan = e.compile(std::slice::from_ref(kernel)).unwrap();
                    e.run_batch(
                        &plan,
                        &[AttentionRequest::decode(
                            &q.rows_slice(t, t + 1),
                            cache.k(0),
                            cache.v(0),
                        )],
                    )
                    .unwrap()
                    .pop()
                    .unwrap()
                })
                .collect()
        };
        let mut cache = KvCache::single(dk, dk);
        cache.extend(0, &k.rows_slice(0, prompt), &v.rows_slice(0, prompt));
        let mut swapped = KvCache::single(dk, dk);
        swapped.extend(0, &k.rows_slice(0, prompt), &v.rows_slice(0, prompt));
        for t in prompt..l {
            cache.append(0, k.row(t), v.row(t));
            if t == evict_at {
                swapped = swap_trip(swapped);
            }
            swapped.append(0, k.row(t), v.row(t));
            let a = step(&cache, t);
            let b = step(&swapped, t);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    x == y,
                    "pinned family {} decode row {} differs across swap at {}",
                    i,
                    t,
                    evict_at
                );
            }
        }
        prop_assert!(
            swapped.len() == cache.len()
                && swapped.k(0) == cache.k(0)
                && swapped.v(0) == cache.v(0),
            "pinned final cache differs across swap"
        );
    }

    /// The headline invariant in its strongest form: for a *causal* mask
    /// (a DIA band of non-positive offsets — rows never look forward),
    /// chunked prefill of a prompt followed by per-token decode through
    /// the KvCache reassembles the full square forward **bitwise**.
    #[test]
    fn causal_prefill_plus_decode_is_bitwise_the_full_square_forward(
        l in 2usize..28,
        dk in 1usize..8,
        band in 1usize..6,
        chunk in 1usize..10,
        seed in 0u64..400,
    ) {
        let e = engine();
        let (q, k, v) = init::qkv::<f64>(l, dk, seed ^ 0xCA5);
        let prompt = 1 + (seed as usize % l);

        // The full-sequence causal band and its per-prefix restrictions
        // share one offset set; causal rows are prefix-independent.
        let offsets: Vec<i64> = (0..=band as i64).map(|d| -d).collect();
        let clip = |len: usize| -> DiaMask {
            DiaMask::new(
                len,
                offsets.iter().copied().filter(|d| d.unsigned_abs() < len as u64).collect(),
            )
            .unwrap()
        };
        let full_mask = clip(l);
        let full_plan = e.compile(&[AttentionKernel::Dia(&full_mask)]).unwrap();
        let full = e.run(&full_plan, &q, &k, &v).unwrap();

        let mut assembled = Matrix::zeros(l, dk);
        let mut cache = KvCache::single(dk, dk);
        let prompt_mask = clip(prompt);
        let prompt_plan = e.compile(&[AttentionKernel::Dia(&prompt_mask)]).unwrap();
        let prefill = e
            .prefill_chunked(
                &prompt_plan,
                &q.rows_slice(0, prompt),
                &k.rows_slice(0, prompt),
                &v.rows_slice(0, prompt),
                chunk,
                &mut cache,
            )
            .unwrap();
        for i in 0..prompt {
            assembled.row_mut(i).copy_from_slice(prefill.row(i));
        }
        for t in prompt..l {
            let step_mask = clip(t + 1);
            let step_plan = e.compile(&[AttentionKernel::Dia(&step_mask)]).unwrap();
            let out = e
                .decode_step(
                    &step_plan,
                    &q.rows_slice(t, t + 1),
                    &k.rows_slice(t, t + 1),
                    &v.rows_slice(t, t + 1),
                    &mut cache,
                )
                .unwrap();
            assembled.row_mut(t).copy_from_slice(out.row(0));
        }
        prop_assert_eq!(&assembled, &full);
    }

    /// The decoder-stack form of the headline invariant: a heterogeneous
    /// *causal* Full/Sparse stack served incrementally — chunked prefill
    /// plus per-token decode through per-layer paged KV caches — is
    /// bitwise the model's full square forward. Causal DIA plans pin
    /// their length, so the stack is rebuilt per prefix (same seed →
    /// identical projection weights), exactly as the square reference
    /// demands; causality makes every intermediate layer's rows
    /// prefix-independent, which is what lets the assembly succeed.
    #[test]
    fn heterogeneous_causal_stacks_serve_bitwise_the_square_forward(
        l in 2usize..12,
        heads in 1usize..3,
        dk in 1usize..4,
        band_f in 1usize..5,
        band_s in 1usize..3,
        chunk in 1usize..6,
        page in 1usize..5,
        seed in 0u64..400,
    ) {
        let e = engine();
        let d_model = heads * dk + 2;
        let x = init::gaussian_matrix::<f64>(l, d_model, 1.0, seed ^ 0x57AC);

        // Full (F) layers: a dense causal band. Sparse (S) layers: a
        // dilated causal band. Both never look forward.
        let f_off: Vec<i64> = (0..=band_f as i64).map(|d| -d).collect();
        let s_off: Vec<i64> = (0..=band_s as i64).map(|d| -2 * d).collect();
        let clip = |offsets: &[i64], len: usize| -> DiaMask {
            DiaMask::new(
                len,
                offsets
                    .iter()
                    .copied()
                    .filter(|d| d.unsigned_abs() < len as u64)
                    .collect(),
            )
            .unwrap()
        };
        let f_masks: Vec<DiaMask> = (1..=l).map(|len| clip(&f_off, len)).collect();
        let s_masks: Vec<DiaMask> = (1..=l).map(|len| clip(&s_off, len)).collect();
        let model_at = |len: usize| -> DecoderModel<'_, f64> {
            DecoderModel::new(
                LayerPattern::parse("FSF").unwrap(),
                vec![
                    (
                        'F',
                        AttentionPlan::single(AttentionKernel::Dia(&f_masks[len - 1])).unwrap(),
                    ),
                    (
                        'S',
                        AttentionPlan::single(AttentionKernel::Dia(&s_masks[len - 1])).unwrap(),
                    ),
                ],
                d_model,
                heads,
                dk,
                seed ^ 0xDEC0,
            )
            .unwrap()
        };

        let full_model = model_at(l);
        let full = full_model.forward(&e, &x).unwrap();

        let mut pool: PagePool<f64> = PagePool::new(full_model.layers() * l.div_ceil(page), page);
        let state = ModelKvState::allocate(&full_model, &mut pool);
        let prompt = 1 + (seed as usize % l);
        let mut assembled = Matrix::zeros(l, d_model);
        let mut start = 0usize;
        while start < prompt {
            let rows = chunk.min(prompt - start);
            let m = model_at(start + rows);
            let adv = m
                .advance_batched(
                    &e,
                    &mut pool,
                    &[ModelWorkItem {
                        x: &x.rows_slice(start, start + rows),
                        state: &state,
                    }],
                )
                .unwrap();
            for r in 0..rows {
                assembled
                    .row_mut(start + r)
                    .copy_from_slice(adv.outputs[0].row(r));
            }
            start += rows;
        }
        for t in prompt..l {
            let m = model_at(t + 1);
            let out = m
                .forward_decode(&e, &mut pool, &state, &x.rows_slice(t, t + 1))
                .unwrap();
            assembled.row_mut(t).copy_from_slice(out.row(0));
        }
        prop_assert_eq!(&assembled, &full);
        prop_assert_eq!(state.tokens(&pool), l);
    }

    /// Batched decoder-stack advance is exact: driving several sequences
    /// — ragged lengths, mixed prefill-chunk and decode-row windows —
    /// through one `advance_batched` call per step over a shared page
    /// pool is bitwise identical to serving each sequence alone with the
    /// same chunk schedule, for a heterogeneous implicit-kernel stack.
    #[test]
    fn batched_stack_advance_matches_per_sequence_serving_bitwise(
        l in 2usize..10,
        heads in 1usize..3,
        dk in 1usize..4,
        n in 0usize..3,
        w in 1usize..4,
        chunk in 1usize..5,
        page in 1usize..4,
        seed in 0u64..400,
    ) {
        let e = engine();
        let d_model = heads * dk + 1;
        let model = DecoderModel::new(
            LayerPattern::parse("FSSF").unwrap(),
            vec![
                (
                    'F',
                    AttentionPlan::single(AttentionKernel::Local { n }).unwrap(),
                ),
                (
                    'S',
                    AttentionPlan::single(AttentionKernel::Dilated1d { w, r: 1 }).unwrap(),
                ),
            ],
            d_model,
            heads,
            dk,
            seed ^ 0xBA7,
        )
        .unwrap();

        let totals = [l, 1 + l / 2, l + 3];
        let prompts: Vec<usize> = totals.iter().map(|&t| 1 + (seed as usize % t)).collect();
        let xs: Vec<Matrix<f64>> = totals
            .iter()
            .enumerate()
            .map(|(i, &t)| init::gaussian_matrix(t, d_model, 1.0, seed ^ (0x11 * (i as u64 + 1))))
            .collect();

        // Batched: one shared pool, one state per sequence, every step
        // advancing all unfinished sequences in one call.
        let pages: usize = totals.iter().map(|&t| t.div_ceil(page)).sum::<usize>() * model.layers();
        let mut pool: PagePool<f64> = PagePool::new(pages, page);
        let states: Vec<ModelKvState> = (0..totals.len())
            .map(|_| ModelKvState::allocate(&model, &mut pool))
            .collect();
        let mut outs: Vec<Matrix<f64>> = totals
            .iter()
            .map(|&t| Matrix::zeros(t, d_model))
            .collect();
        let mut cursors = vec![0usize; totals.len()];
        loop {
            let mut meta: Vec<(usize, usize)> = Vec::new();
            let mut windows: Vec<Matrix<f64>> = Vec::new();
            for i in 0..totals.len() {
                if cursors[i] >= totals[i] {
                    continue;
                }
                // Prefill in chunks up to the prompt, then one decode
                // row per step — the scheduler's window schedule.
                let rows = if cursors[i] < prompts[i] {
                    chunk.min(prompts[i] - cursors[i])
                } else {
                    1
                };
                windows.push(xs[i].rows_slice(cursors[i], cursors[i] + rows));
                meta.push((i, rows));
            }
            if meta.is_empty() {
                break;
            }
            let items: Vec<ModelWorkItem<'_, f64>> = meta
                .iter()
                .zip(&windows)
                .map(|(&(i, _), x)| ModelWorkItem { x, state: &states[i] })
                .collect();
            let adv = model.advance_batched(&e, &mut pool, &items).unwrap();
            for (&(i, rows), out) in meta.iter().zip(&adv.outputs) {
                for r in 0..rows {
                    outs[i].row_mut(cursors[i] + r).copy_from_slice(out.row(r));
                }
                cursors[i] += rows;
            }
        }

        // Per-sequence reference: same chunk schedule, private pool.
        for i in 0..totals.len() {
            let mut solo: PagePool<f64> = PagePool::new(model.layers() * totals[i], 1);
            let state = ModelKvState::allocate(&model, &mut solo);
            let mut expect = Matrix::zeros(totals[i], d_model);
            let prefill = model
                .forward_prefill_chunked(
                    &e,
                    &mut solo,
                    &state,
                    &xs[i].rows_slice(0, prompts[i]),
                    chunk,
                )
                .unwrap();
            for r in 0..prompts[i] {
                expect.row_mut(r).copy_from_slice(prefill.row(r));
            }
            for t in prompts[i]..totals[i] {
                let out = model
                    .forward_decode(&e, &mut solo, &state, &xs[i].rows_slice(t, t + 1))
                    .unwrap();
                expect.row_mut(t).copy_from_slice(out.row(0));
            }
            prop_assert!(outs[i] == expect, "sequence {} batched vs solo", i);
            prop_assert_eq!(states[i].tokens(&pool), totals[i]);
        }
    }
}

/// Every element's bits — `==` on floats would let `-0.0` pass for `0.0`.
fn bits<T: Real>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// The in-place request form against the copying one: for every streamed
/// kernel and the Longformer/BigBird compositions, a launch of
/// `row_range(&q, a..b, …)` requests must equal the launch of
/// `windowed(&q.rows_slice(a, b), …)` requests bit for bit — through
/// `run_batch`, and through `run_batch_into` over dirty windows.
fn row_ranges_equal_copied_windows<T: Real>(
    threads: usize,
    (l, l2, dk): (usize, usize, usize),
    (n, w, r): (usize, usize, usize),
    cuts: &[(f64, f64)],
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let e = AttentionEngine::with_threads(threads);
    let (q, k, v) = init::qkv::<T>(l, dk, seed);
    // A second, differently long sequence for the kernels that pin no
    // length: its windows ride the same launch (a ragged batch).
    let (q2, k2, v2) = init::qkv::<T>(l2, dk, seed ^ 0xA5);
    let window = |len: usize, (fa, fb): (f64, f64)| {
        let a = (len as f64 * fa) as usize;
        a..a + ((len - a + 1) as f64 * fb) as usize // zero rows included
    };

    let globals = GlobalSet::evenly_spaced(l, (n + 1).min(l));
    let random = graph_attention::masks::RandomUniform::new(l, 0.2, seed ^ 0xF00D);
    let (csr, coo) = (random.to_csr(), random.to_coo());
    let dia = DiaMask::new(l, vec![-((n % l) as i64), 0, (w % l) as i64]).unwrap();
    let longformer = [
        AttentionKernel::Local { n },
        AttentionKernel::Global {
            globals: &globals,
            n_sub: n,
        },
    ];
    let bigbird = [longformer[0], longformer[1], AttentionKernel::Csr(&csr)];
    let plans: Vec<(&str, Vec<AttentionKernel<'_>>)> = vec![
        ("Local", vec![AttentionKernel::Local { n }]),
        ("Dilated1d", vec![AttentionKernel::Dilated1d { w, r }]),
        (
            "Dilated2d",
            vec![AttentionKernel::Dilated2d { block_size: w, r }],
        ),
        ("Global", vec![longformer[1]]),
        ("Csr", vec![AttentionKernel::Csr(&csr)]),
        (
            "Coo/linear",
            vec![AttentionKernel::Coo(&coo, CooSearch::Linear)],
        ),
        (
            "Coo/binary",
            vec![AttentionKernel::Coo(&coo, CooSearch::Binary)],
        ),
        ("Dia", vec![AttentionKernel::Dia(&dia)]),
        ("Longformer", longformer.to_vec()),
        ("BigBird", bigbird.to_vec()),
    ];

    for (name, kernels) in &plans {
        let plan = e.compile(kernels).unwrap();
        // (query, keys, values, rows — the first row at its own position).
        let mut jobs = Vec::new();
        for &cut in cuts {
            jobs.push((&q, &k, &v, window(l, cut)));
        }
        // A decode row: the last token over the whole cache.
        jobs.push((&q, &k, &v, l - 1..l));
        if plan.kv_pin().is_none() {
            for &cut in cuts {
                jobs.push((&q2, &k2, &v2, window(l2, cut)));
            }
        }

        let in_place: Vec<AttentionRequest<'_, T>> = jobs
            .iter()
            .map(|(q, k, v, rows)| AttentionRequest::row_range(q, rows.clone(), k, v, rows.start))
            .collect();
        let copies: Vec<Matrix<T>> = jobs
            .iter()
            .map(|(q, _, _, rows)| q.rows_slice(rows.start, rows.end))
            .collect();
        let copied: Vec<AttentionRequest<'_, T>> = jobs
            .iter()
            .zip(&copies)
            .map(|((_, k, v, rows), q_win)| AttentionRequest::windowed(q_win, k, v, rows.start))
            .collect();

        let expect = e.run_batch(&plan, &copied).unwrap();
        let got = e.run_batch(&plan, &in_place).unwrap();
        let width = v.cols();
        let mut dirty: Vec<Vec<T>> = in_place
            .iter()
            .map(|r| vec![T::nan(); r.rows() * width])
            .collect();
        let mut windows: Vec<&mut [T]> = dirty.iter_mut().map(Vec::as_mut_slice).collect();
        e.run_batch_into(&plan, &in_place, &mut windows).unwrap();
        for (i, (want, have)) in expect.iter().zip(&got).enumerate() {
            prop_assert_eq!(in_place[i].rows(), copied[i].rows());
            prop_assert!(bits(want) == bits(have), "{} request {}", name, i);
            let into = Matrix::from_vec(want.rows(), width, dirty[i].clone());
            prop_assert!(bits(want) == bits(&into), "{} request {} in place", name, i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A row-range request is the copied window, bitwise — every streamed
    /// kernel, both compositions, ragged batches, zero-row ranges and
    /// decode rows, `f32` and `f64`, pools of 1, 2 and 4.
    #[test]
    fn row_range_requests_are_bitwise_the_copied_windows(
        l in 3usize..40,
        l2 in 2usize..30,
        dk in 1usize..9,
        n in 0usize..5,
        w in 1usize..7,
        r in 0usize..3,
        cuts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..5),
        seed in 0u64..400,
    ) {
        for threads in [1usize, 2, 4] {
            row_ranges_equal_copied_windows::<f64>(threads, (l, l2, dk), (n, w, r), &cuts, seed)?;
            row_ranges_equal_copied_windows::<f32>(threads, (l, l2, dk), (n, w, r), &cuts, seed)?;
        }
    }
}
