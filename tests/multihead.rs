//! Multi-head attention integration: the paper's "trivial extension"
//! (Section IV-B / VI-A) built on the single-head kernels, verified against
//! per-head single calls and the dense reference.

use graph_attention::core::{
    masked_sdp, AttentionEngine, AttentionKernel, AttentionRequest, KernelOptions,
    MultiHeadAttention,
};
use graph_attention::masks::{longformer, MaskPattern};
use graph_attention::tensor::{init, paper_allclose, Matrix};

#[test]
fn per_head_outputs_match_reference() {
    let l = 64;
    let heads = 3;
    let engine = AttentionEngine::with_threads(4);
    let mask = longformer(l, 4, vec![0]);
    let csr = mask.to_csr();
    let dense = mask.to_dense();

    let qs: Vec<Matrix<f64>> = (0..heads)
        .map(|h| init::uniform_matrix(l, 16, h as u64))
        .collect();
    let ks: Vec<Matrix<f64>> = (0..heads)
        .map(|h| init::uniform_matrix(l, 16, 100 + h as u64))
        .collect();
    let vs: Vec<Matrix<f64>> = (0..heads)
        .map(|h| init::uniform_matrix(l, 16, 200 + h as u64))
        .collect();

    // Every head's request in one launch.
    let plan = engine.compile(&[AttentionKernel::Csr(&csr)]).unwrap();
    let requests: Vec<AttentionRequest<'_, f64>> = (0..heads)
        .map(|h| AttentionRequest::new(&qs[h], &ks[h], &vs[h]))
        .collect();
    let outs = engine.run_batch(&plan, &requests).unwrap();
    assert_eq!(outs.len(), heads);
    for h in 0..heads {
        let reference = masked_sdp(
            engine.pool(),
            &dense,
            &qs[h],
            &ks[h],
            &vs[h],
            &KernelOptions::new(),
        )
        .unwrap();
        assert!(paper_allclose(&outs[h], &reference), "head {h}");
    }
}

#[test]
fn layer_forward_same_mask_same_result_via_any_kernel() {
    let l = 48;
    let engine = AttentionEngine::with_threads(2);
    let layer: MultiHeadAttention<f64> = MultiHeadAttention::new_random(32, 4, 8, 17);
    let x = init::gaussian_matrix(l, 32, 0.7, 23);

    let union = longformer(l, 3, vec![0, 24]).to_csr();
    let dense = longformer(l, 3, vec![0, 24]).to_dense();

    let plan = engine.compile(&[AttentionKernel::Csr(&union)]).unwrap();
    let via_csr = layer.forward_on(&engine, &plan, &x).unwrap();
    // The reference: the same projections around the dense baseline.
    let (qh, kh, vh) = layer.project_qkv(&x);
    let heads: Vec<Matrix<f64>> = (0..layer.heads())
        .map(|h| {
            masked_sdp(
                engine.pool(),
                &dense,
                &qh[h],
                &kh[h],
                &vh[h],
                &engine.options(),
            )
            .unwrap()
        })
        .collect();
    let via_sdp = layer.combine_heads(&heads);
    assert!(paper_allclose(&via_csr, &via_sdp));
}

#[test]
fn llama3_head_geometry_smoke() {
    // Table II's multi-head row uses Llama-3-8B geometry (32 heads, 4096
    // total): run a scaled-down slice of it end to end.
    let l = 32;
    let heads = 8;
    let dk = 16; // per-head
    let engine = AttentionEngine::with_threads(4);
    let layer: MultiHeadAttention<f32> = MultiHeadAttention::new_random(heads * dk, heads, dk, 5);
    let x = init::gaussian_matrix(l, heads * dk, 1.0, 6);
    let plan = engine.compile(&[AttentionKernel::Local { n: 4 }]).unwrap();
    let out = layer.forward_on(&engine, &plan, &x).unwrap();
    assert_eq!(out.shape(), (l, heads * dk));
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}
