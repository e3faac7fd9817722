//! BigBird-style classification inference: all three mask components
//! (local + global + random) composed three ways, with identical outputs —
//! the Fig. 6 scenario as an application. Each approach is one compiled
//! engine plan; the composition runs as a single launch with all three
//! kernels chained per row.
//!
//! ```text
//! cargo run --release --example bigbird_inference [-- --quick]
//! ```
//!
//! `--quick` shrinks the context for smoke tests.

use graph_attention::prelude::*;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let l = if quick { 2_048 } else { 8_192 };
    let dk = 64;
    let window = 50; // paper Fig. 6: local size 50 per direction
    let random_sf = 0.001; // paper Fig. 6: random sparsity
    let engine = AttentionEngine::new();

    // Three designated global tokens (e.g. [CLS] plus two separators).
    let globals = GlobalSet::new(l, vec![0, l / 2, l - 1]);
    let gi: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();

    let (q, k, v) = init::qkv::<f32>(l, dk, 21);

    // Mask as one union (for SDP and single-CSR runs).
    let union = bigbird(l, window, gi, random_sf, 0xB16B).to_csr();
    println!(
        "BigBird mask: {} edges (Sf = {:.5})",
        union.nnz(),
        union.sparsity_factor()
    );

    // Approach 1: dense masked SDP (the PyTorch way).
    let dense = DenseMask::from_csr(&union);
    let t = Instant::now();
    let via_sdp = masked_sdp(&engine, &dense, &q, &k, &v).unwrap();
    let t_sdp = t.elapsed().as_secs_f64();

    // Approach 2: one work-optimal CSR call.
    let csr_plan = engine
        .compile(&[AttentionKernel::Csr(&union)])
        .expect("CSR plan");
    let t = Instant::now();
    let via_csr = engine.run(&csr_plan, &q, &k, &v).unwrap();
    let t_csr = t.elapsed().as_secs_f64();

    // Approach 3: sequential kernel composition — implicit local and
    // global kernels plus a CSR step for the random remainder, compiled
    // into one plan.
    let covered = LocalWindow::new(l, window)
        .to_csr()
        .union(&graph_attention::masks::GlobalMinusLocal::new(globals.clone(), window).to_csr());
    let random_rest = graph_attention::masks::RandomUniform::new(l, random_sf, 0xB16B)
        .to_csr()
        .difference(&covered);
    let composed_plan = engine
        .compile(&[
            AttentionKernel::Local { n: window },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: window,
            },
            AttentionKernel::Csr(&random_rest),
        ])
        .expect("composition plan");
    let t = Instant::now();
    let via_composed = engine.run(&composed_plan, &q, &k, &v).unwrap();
    let t_comp = t.elapsed().as_secs_f64();

    println!("SDP (masked):        {t_sdp:.3} s");
    println!(
        "CSR (single call):   {t_csr:.3} s  ({:.1}× vs SDP)",
        t_sdp / t_csr
    );
    println!(
        "{:<20} {t_comp:.3} s  ({:.1}× vs SDP)",
        format!("{}:", composed_plan.describe()),
        t_sdp / t_comp
    );

    // All three compute the same attention (paper: "outputs of each
    // approach were deemed identical").
    println!(
        "outputs identical: CSR≍SDP {}, composed≍CSR {}",
        paper_allclose(&via_csr.cast::<f64>(), &via_sdp.cast::<f64>()),
        paper_allclose(&via_composed.cast::<f64>(), &via_csr.cast::<f64>()),
    );

    // A classification head would pool the [CLS] row:
    let cls = via_csr.row(0);
    let score: f32 = cls.iter().sum::<f32>() / cls.len() as f32;
    println!("[CLS] mean activation (demo classifier input): {score:.4}");
}
