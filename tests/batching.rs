//! Batched execution is element-exact: `AttentionEngine::run_batch` over K
//! random (ragged, where the plan allows) sequences must equal K launches
//! of one sequence each **bitwise** — same step order, same neighbor
//! order, same row tile, wherever a row falls in the flattened launch —
//! for every composable kernel, both explicit mask formats, and multi-step
//! compositions.

use graph_attention::core::AttnError;
use graph_attention::prelude::*;
use graph_attention::sparse::DiaMask;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn engine() -> AttentionEngine {
    AttentionEngine::with_threads(3)
}

/// Deterministic ragged Q/K/V triples from a seed.
fn ragged_seqs(
    lens: &[usize],
    dk: usize,
    seed: u64,
) -> Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)> {
    lens.iter()
        .enumerate()
        .map(|(i, &l)| init::qkv(l, dk, seed.wrapping_add(i as u64)))
        .collect()
}

fn as_requests<'a>(
    seqs: &'a [(Matrix<f64>, Matrix<f64>, Matrix<f64>)],
) -> Vec<AttentionRequest<'a, f64>> {
    seqs.iter()
        .map(|(q, k, v)| AttentionRequest::new(q, k, v))
        .collect()
}

/// The batch must equal one launch per sequence, bit for bit.
fn assert_batch_is_n_launches_of_one(
    e: &AttentionEngine,
    kernels: &[AttentionKernel<'_>],
    seqs: &[(Matrix<f64>, Matrix<f64>, Matrix<f64>)],
) -> Result<Vec<Matrix<f64>>, TestCaseError> {
    let plan = e.compile(kernels).unwrap();
    let batched = e.run_batch(&plan, &as_requests(seqs)).unwrap();
    for ((q, k, v), out) in seqs.iter().zip(&batched) {
        let alone = e.run(&plan, q, k, v).unwrap();
        prop_assert!(out == &alone, "{}", plan.describe());
    }
    Ok(batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Implicit kernels pin no context length, so one plan serves a ragged
    /// batch; outputs must be bitwise equal to per-sequence launches.
    #[test]
    fn ragged_batches_exact_for_implicit_kernels(
        lens in proptest::collection::vec(2usize..40, 2..6),
        n in 0usize..6,
        w in 1usize..8,
        r in 0usize..3,
        dk in 1usize..10,
        seed in 0u64..500,
    ) {
        let e = engine();
        let seqs = ragged_seqs(&lens, dk, seed);
        for kernel in [
            AttentionKernel::Local { n },
            AttentionKernel::Dilated1d { w, r },
            AttentionKernel::Dilated2d { block_size: w, r },
        ] {
            assert_batch_is_n_launches_of_one(&e, &[kernel], &seqs)?;
        }
    }

    /// Explicit masks pin the context length; a shared-mask batch must be
    /// bitwise equal to per-sequence launches for both explicit formats
    /// (CSR and COO with both searches), the DIA format, and the global
    /// kernel.
    #[test]
    fn fixed_length_batches_exact_for_explicit_and_global_kernels(
        l in 4usize..40,
        batch in 1usize..5,
        density in 0.05f64..0.8,
        n_globals in 0usize..4,
        dk in 1usize..10,
        seed in 0u64..500,
    ) {
        let e = engine();
        let lens: Vec<usize> = vec![l; batch];
        let seqs = ragged_seqs(&lens, dk, seed ^ 0xBA7C);

        let pat = graph_attention::masks::RandomUniform::new(l, density, seed ^ 0xF00D);
        let csr = pat.to_csr();
        let coo = pat.to_coo();
        let dia = DiaMask::local(l, (seed % 5) as usize);
        let globals = GlobalSet::evenly_spaced(l, n_globals);
        for kernel in [
            AttentionKernel::Csr(&csr),
            AttentionKernel::Coo(&coo, CooSearch::Linear),
            AttentionKernel::Coo(&coo, CooSearch::Binary),
            AttentionKernel::Dia(&dia),
            // Global, minus a small local window.
            AttentionKernel::Global { globals: &globals, n_sub: (seed % 3) as usize },
        ] {
            assert_batch_is_n_launches_of_one(&e, &[kernel], &seqs)?;
        }
    }

    /// Multi-step plans (the Fig. 6 composition) over a batch must equal
    /// the same plan launched per sequence.
    #[test]
    fn composed_plan_batches_exact(
        l in 6usize..36,
        batch in 1usize..5,
        window in 0usize..4,
        n_globals in 1usize..4,
        dk in 1usize..8,
        seed in 0u64..500,
    ) {
        let e = engine();
        let lens: Vec<usize> = vec![l; batch];
        let seqs = ragged_seqs(&lens, dk, seed ^ 0xC0DE);
        let globals = GlobalSet::evenly_spaced(l, n_globals);

        let kernels = [
            AttentionKernel::Local { n: window },
            AttentionKernel::Global { globals: &globals, n_sub: window },
        ];
        let batched = assert_batch_is_n_launches_of_one(&e, &kernels, &seqs)?;
        // And the composition math itself stays right: equal (within paper
        // tolerance) to one CSR call over the Longformer union.
        let gi: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();
        let union = longformer(l, window, gi).to_csr();
        let reference = e.run_kernel(AttentionKernel::Csr(&union), &seqs[0].0, &seqs[0].1, &seqs[0].2).unwrap();
        prop_assert!(paper_allclose(&batched[0], &reference));
    }
    /// The in-place launch trusts nothing about the windows it is handed:
    /// over windows filled with `NaN`, `run_batch_into` equals `run_batch`
    /// bit for bit — ragged implicit batches, an explicit mask with empty
    /// rows (which come out `0.0`), and a composition.
    #[test]
    fn in_place_launches_over_dirty_windows_equal_run_batch(
        lens in proptest::collection::vec(1usize..40, 1..6),
        n in 0usize..5,
        density in 0.0f64..0.3,
        dk in 1usize..10,
        seed in 0u64..500,
    ) {
        let e = engine();
        let l = lens[0];
        let sparse = graph_attention::masks::RandomUniform::new(l, density, seed ^ 0xE0).to_csr();
        let globals = GlobalSet::evenly_spaced(l, 2.min(l));
        let longformer = [
            AttentionKernel::Local { n },
            AttentionKernel::Global { globals: &globals, n_sub: n },
        ];
        let cases: Vec<(Vec<AttentionKernel<'_>>, Vec<usize>)> = vec![
            (vec![AttentionKernel::Local { n }], lens.clone()),
            (vec![AttentionKernel::Csr(&sparse)], vec![l; lens.len()]),
            (longformer.to_vec(), vec![l; lens.len()]),
        ];
        for (kernels, lens) in cases {
            let plan = e.compile(&kernels).unwrap();
            let seqs = ragged_seqs(&lens, dk, seed ^ 0x17);
            let reqs = as_requests(&seqs);
            let expect = e.run_batch(&plan, &reqs).unwrap();
            let mut dirty: Vec<Vec<f64>> = lens.iter().map(|&l| vec![f64::NAN; l * dk]).collect();
            let mut windows: Vec<&mut [f64]> = dirty.iter_mut().map(Vec::as_mut_slice).collect();
            e.run_batch_into(&plan, &reqs, &mut windows).unwrap();
            for (want, have) in expect.iter().zip(&dirty) {
                let want: Vec<u64> = want.as_slice().iter().map(|x| x.to_bits()).collect();
                let have: Vec<u64> = have.iter().map(|x| x.to_bits()).collect();
                prop_assert!(want == have, "{}", plan.describe());
            }
            if let [AttentionKernel::Csr(mask)] = kernels[..] {
                for (i, row) in dirty[0].chunks(dk).enumerate() {
                    if mask.row(i).is_empty() {
                        prop_assert!(row.iter().all(|x| x.to_bits() == 0), "empty row {}", i);
                    }
                }
            }
        }
    }
}

/// `run_batch_into` checks everything before it writes anything: after a
/// rejected launch every window still holds the `NaN`s it came with.
#[test]
fn rejected_in_place_launches_touch_no_window() {
    let e = engine();
    let plan = e.compile(&[AttentionKernel::Local { n: 2 }]).unwrap();
    let (q, k, v) = init::qkv::<f64>(12, 4, 9);
    let good = AttentionRequest::row_range(&q, 2..7, &k, &v, 2);
    let untouched = |bufs: &[Vec<f64>]| bufs.iter().flatten().all(|x| x.is_nan());
    let launch = |requests: &[AttentionRequest<'_, f64>], lens: &[usize]| {
        let mut bufs: Vec<Vec<f64>> = lens.iter().map(|&len| vec![f64::NAN; len]).collect();
        let mut windows: Vec<&mut [f64]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let result = e.run_batch_into(&plan, requests, &mut windows);
        (result, bufs)
    };

    // The well-formed launch, for contrast: it does write.
    let (ok, bufs) = launch(&[good, good], &[20, 20]);
    ok.unwrap();
    assert!(bufs.iter().flatten().all(|x| x.is_finite()));

    // A window one element short or long, behind a good one.
    for len in [19, 21, 0] {
        let (err, bufs) = launch(&[good, good], &[20, len]);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })), "{len}");
        assert!(untouched(&bufs), "window of {len} elements");
    }
    // Fewer and more windows than requests.
    for lens in [&[20][..], &[20, 20, 20][..]] {
        let (err, bufs) = launch(&[good, good], lens);
        assert!(matches!(err, Err(AttnError::BadParameter { .. })));
        assert!(untouched(&bufs), "{} windows", lens.len());
    }
    // A row range reaching past `q` — by one row, from past the end, and
    // far enough to overflow `start + rows` — is an error, not a read.
    for rows in [8..13, 13..13, 2..usize::MAX, usize::MAX - 1..usize::MAX] {
        let bad = AttentionRequest::row_range(&q, rows.clone(), &k, &v, 2);
        let (err, bufs) = launch(&[good, bad], &[20, bad.rows().min(64) * 4]);
        assert!(
            matches!(err, Err(AttnError::ContextLengthMismatch { .. })),
            "{rows:?}: {err:?}"
        );
        assert!(untouched(&bufs), "range {rows:?}");
        assert!(e.run_batch(&plan, &[good, bad]).is_err(), "{rows:?}");
    }
    // In range, but the window leaves the logical square.
    let outside = AttentionRequest::row_range(&q, 2..7, &k, &v, 9);
    let (err, bufs) = launch(&[good, outside], &[20, 20]);
    assert!(matches!(err, Err(AttnError::WindowMismatch { .. })));
    assert!(untouched(&bufs));
}
