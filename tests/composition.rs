//! Sequential kernel composition — the property behind Fig. 6's
//! "Loc + Glo" series: the steps of one plan share one softmax state per
//! row, so over disjoint masks they compute exact attention over the union
//! mask.

use graph_attention::core::{AttentionEngine, AttentionKernel};
use graph_attention::masks::{
    longformer, Dilated1d, GlobalMask, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern,
    RandomUniform,
};
use graph_attention::tensor::{init::qkv, paper_allclose, Matrix};

/// A multi-step plan over one square sequence.
fn composed(
    engine: &AttentionEngine,
    kernels: &[AttentionKernel<'_>],
    (q, k, v): &(Matrix<f64>, Matrix<f64>, Matrix<f64>),
) -> Matrix<f64> {
    let plan = engine.compile(kernels).unwrap();
    engine.run(&plan, q, k, v).unwrap()
}

#[test]
fn longformer_three_ways() {
    let l = 200;
    let n = 7;
    let engine = AttentionEngine::with_threads(4);
    let qkv = qkv::<f64>(l, 16, 1);
    let globals = GlobalSet::new(l, vec![0, 63, 150]);
    let gi: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();

    // 1. Single CSR call over the union mask.
    let union = longformer(l, n, gi).to_csr();
    let via_csr = composed(&engine, &[AttentionKernel::Csr(&union)], &qkv);

    // 2. Sequential local → global composition.
    let via_composed = composed(
        &engine,
        &[
            AttentionKernel::Local { n },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: n,
            },
        ],
        &qkv,
    );

    // 3. Explicit two-part CSR composition (local mask, then global∖local).
    let local_csr = LocalWindow::new(l, n).to_csr();
    let gml_csr = GlobalMinusLocal::new(globals.clone(), n).to_csr();
    let via_parts = composed(
        &engine,
        &[
            AttentionKernel::Csr(&local_csr),
            AttentionKernel::Csr(&gml_csr),
        ],
        &qkv,
    );

    assert!(paper_allclose(&via_composed, &via_csr));
    assert!(paper_allclose(&via_parts, &via_csr));
}

#[test]
fn composition_order_does_not_matter() {
    let l = 120;
    let engine = AttentionEngine::with_threads(4);
    let qkv = qkv::<f64>(l, 8, 5);

    let a = LocalWindow::new(l, 3).to_csr();
    let b = GlobalMask::new(GlobalSet::new(l, vec![40, 80]))
        .to_csr()
        .difference(&a);
    let (a, b) = (AttentionKernel::Csr(&a), AttentionKernel::Csr(&b));
    let ab = composed(&engine, &[a, b], &qkv);
    let ba = composed(&engine, &[b, a], &qkv);
    assert!(paper_allclose(&ab, &ba));
}

#[test]
fn state_can_be_resumed_incrementally() {
    // Feeding a mask in four chunks through one row state — a four-step
    // plan — equals one shot: the streaming-composition property of
    // Algorithm 1.
    let l = 96;
    let engine = AttentionEngine::with_threads(2);
    let qkv = qkv::<f64>(l, 8, 9);
    let full = RandomUniform::new(l, 0.3, 77).to_csr();

    // Partition edges by column quartile (disjoint).
    let mut parts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 4];
    for (r, c) in full.iter() {
        parts[c * 4 / l].push((r, c));
    }
    let chunks: Vec<_> = parts
        .into_iter()
        .map(|part| {
            graph_attention::sparse::CsrMask::from_coo(
                &graph_attention::sparse::CooMask::from_entries(l, l, part).unwrap(),
            )
        })
        .collect();
    let steps: Vec<_> = chunks.iter().map(AttentionKernel::Csr).collect();
    let incremental = composed(&engine, &steps, &qkv);
    let oneshot = composed(&engine, &[AttentionKernel::Csr(&full)], &qkv);
    assert!(paper_allclose(&incremental, &oneshot));
}

#[test]
fn dilated_parts_compose_to_dilated_union() {
    // A dilated mask split into its even/odd step offsets composes too.
    let l = 64;
    let engine = AttentionEngine::with_threads(2);
    let qkv = qkv::<f64>(l, 8, 13);

    let full = Dilated1d::new(l, 13, 1).to_csr();
    let diag = LocalWindow::new(l, 0).to_csr();
    let rest = full.difference(&diag);
    let parts = [AttentionKernel::Csr(&diag), AttentionKernel::Csr(&rest)];
    let split = composed(&engine, &parts, &qkv);
    let single = composed(&engine, &[AttentionKernel::Csr(&full)], &qkv);
    assert!(paper_allclose(&split, &single));
}
