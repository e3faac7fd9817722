//! The work-optimality claim of Section IV-B, verified empirically:
//! every graph kernel performs exactly `nnz(mask)` query–key dot products —
//! `O(Sf·L²·d)` and not an operation more — while the dense baselines
//! always perform `L²`.

use graph_attention::core::{
    flash_attention, masked_sdp, AttentionEngine, AttentionKernel, CooSearch,
};
use graph_attention::masks::{
    Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow, LongNetPattern, MaskPattern,
    RandomUniform,
};
use graph_attention::tensor::init::qkv;

/// An engine that tallies the work of every run it launches.
fn counting_engine() -> AttentionEngine {
    AttentionEngine::builder()
        .threads(4)
        .count_work(true)
        .build()
}

fn dot_count(engine: &AttentionEngine, kernel: &AttentionKernel<'_>, l: usize) -> u64 {
    let (q, k, v) = qkv::<f32>(l, 8, 3);
    engine.work_counter().unwrap().reset();
    engine.run_kernel(*kernel, &q, &k, &v).unwrap();
    engine.work_report().unwrap().dot_products
}

#[test]
fn explicit_kernels_match_nnz_on_every_mask_family() {
    let l = 80;
    let engine = counting_engine();
    let patterns: Vec<(&str, Box<dyn MaskPattern>)> = vec![
        ("local", Box::new(LocalWindow::new(l, 5))),
        ("dilated1d", Box::new(Dilated1d::new(l, 11, 2))),
        ("dilated2d", Box::new(Dilated2d::new(l, 16, 1))),
        (
            "global-minus-local",
            Box::new(GlobalMinusLocal::new(GlobalSet::evenly_spaced(l, 4), 2)),
        ),
        ("random", Box::new(RandomUniform::new(l, 0.15, 9))),
        ("longnet", Box::new(LongNetPattern::new(l, 8, 2))),
    ];
    for (name, pattern) in patterns {
        let nnz = pattern.nnz() as u64;
        let csr = pattern.to_csr();
        let coo = csr.to_coo();
        assert_eq!(
            dot_count(&engine, &AttentionKernel::Csr(&csr), l),
            nnz,
            "CSR on {name}"
        );
        assert_eq!(
            dot_count(&engine, &AttentionKernel::Coo(&coo, CooSearch::Linear), l),
            nnz,
            "COO linear on {name}"
        );
        assert_eq!(
            dot_count(&engine, &AttentionKernel::Coo(&coo, CooSearch::Binary), l),
            nnz,
            "COO binary on {name}"
        );
    }
}

#[test]
fn implicit_kernels_match_their_closed_form_nnz() {
    let l = 72;
    let engine = counting_engine();

    assert_eq!(
        dot_count(&engine, &AttentionKernel::Local { n: 6 }, l),
        LocalWindow::new(l, 6).nnz() as u64
    );
    assert_eq!(
        dot_count(&engine, &AttentionKernel::Dilated1d { w: 9, r: 1 }, l),
        Dilated1d::new(l, 9, 1).nnz() as u64
    );
    assert_eq!(
        dot_count(
            &engine,
            &AttentionKernel::Dilated2d {
                block_size: 12,
                r: 2
            },
            l
        ),
        Dilated2d::new(l, 12, 2).nnz() as u64
    );
    let globals = GlobalSet::evenly_spaced(l, 3);
    assert_eq!(
        dot_count(
            &engine,
            &AttentionKernel::Global {
                globals: &globals,
                n_sub: 1
            },
            l
        ),
        GlobalMinusLocal::new(globals.clone(), 1).to_csr().nnz() as u64
    );
}

#[test]
fn dense_baselines_always_do_quadratic_work() {
    let l = 48;
    let engine = counting_engine();
    let (q, k, v) = qkv::<f32>(l, 8, 3);
    // The baselines are functions; the engine's options carry its counter.
    let dots = |run: &dyn Fn()| {
        engine.work_counter().unwrap().reset();
        run();
        engine.work_report().unwrap().dot_products
    };
    // Even with a nearly-empty mask, SDP computes L² dot products.
    let sparse_mask = LocalWindow::new(l, 0).to_dense();
    let sdp = || {
        masked_sdp(&engine, &sparse_mask, &q, &k, &v).unwrap();
    };
    assert_eq!(dots(&sdp), (l * l) as u64);
    let flash = || {
        flash_attention(&engine, &q, &k, &v).unwrap();
    };
    assert_eq!(dots(&flash), (l * l) as u64);
}

#[test]
fn work_ratio_equals_sparsity_factor() {
    // The headline relation: graph-kernel work / dense work == Sf.
    let l = 128;
    let engine = counting_engine();
    let pattern = RandomUniform::new(l, 0.07, 11);
    let csr = pattern.to_csr();
    let sparse_dots = dot_count(&engine, &AttentionKernel::Csr(&csr), l) as f64;
    let dense_dots = (l * l) as f64;
    let ratio = sparse_dots / dense_dots;
    assert!(
        (ratio - csr.sparsity_factor()).abs() < 1e-12,
        "ratio {ratio} vs Sf {}",
        csr.sparsity_factor()
    );
}

#[test]
fn coo_linear_search_overhead_is_the_only_extra_work() {
    // Linear search scans prefixes but performs no extra dot products.
    let l = 64;
    let engine = counting_engine();
    let coo = LocalWindow::new(l, 2).to_coo();
    let linear = AttentionKernel::Coo(&coo, CooSearch::Linear);
    assert_eq!(dot_count(&engine, &linear, l), coo.nnz() as u64);
    let searches = engine.work_report().unwrap().neighbor_searches;
    assert!(searches > 0);
    assert!(searches <= (l * coo.nnz()) as u64);
}
