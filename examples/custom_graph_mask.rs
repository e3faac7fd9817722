//! Attention over an *arbitrary* graph — the "graph computing view" in its
//! most literal form.
//!
//! The paper's kernels are work-optimal "over arbitrary attention masks";
//! this example builds a mask that is not any standard pattern: a synthetic
//! molecule-like graph (a backbone chain with random long-range contacts,
//! like residue contact maps in protein modeling), compiles it into an
//! engine plan, and confirms both correctness and work-optimality.
//!
//! ```text
//! cargo run --release --example custom_graph_mask [-- --quick]
//! ```
//!
//! `--quick` shrinks the graph for smoke tests.

use graph_attention::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chain-plus-contacts graph: each node linked to its chain neighbors,
/// plus `contacts` random symmetric long-range edges, plus self-loops.
fn contact_graph(n: usize, contacts: usize, seed: u64) -> CsrMask {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        edges.push((i, i)); // self-loop: every token attends to itself
        if i + 1 < n {
            edges.push((i, i + 1)); // chain forward
            edges.push((i + 1, i)); // chain backward
        }
    }
    for _ in 0..contacts {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        edges.push((a, b));
        edges.push((b, a)); // symmetric contact
    }
    CsrMask::from_coo(&CooMask::from_entries(n, n, edges).expect("valid edges"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 1_024 } else { 4_096 }; // residues / tokens / graph vertices
    let dk = 32;
    let engine = AttentionEngine::builder().count_work(true).build();

    let graph = contact_graph(n, 3 * n, 99);
    println!(
        "contact graph: {} vertices, {} directed edges (Sf = {:.4})",
        n,
        graph.nnz(),
        graph.sparsity_factor()
    );
    let stats = graph_attention::sparse::degree_stats(&graph);
    println!(
        "degrees: min {}, mean {:.1}, max {} (imbalance {:.2})",
        stats.min, stats.mean, stats.max, stats.imbalance
    );

    // Node features as Q/K/V.
    let (q, k, v) = init::qkv::<f32>(n, dk, 5);

    // Work-optimal attention over the arbitrary graph.
    let csr_plan = engine
        .compile(&[AttentionKernel::Csr(&graph)])
        .expect("graph plan");
    let out = engine
        .run(&csr_plan, &q, &k, &v)
        .expect("attention over graph");
    let report = engine.work_report().expect("counting enabled");
    println!(
        "CSR kernel: {} dot products == {} edges → work optimal: {}",
        report.dot_products,
        graph.nnz(),
        report.is_work_optimal(graph.nnz() as u64)
    );

    // The same graph runs through the COO format too (linear row search).
    let coo = graph.to_coo();
    let coo_plan = engine
        .compile(&[AttentionKernel::Coo(&coo)])
        .expect("COO plan");
    let out_coo = engine.run(&coo_plan, &q, &k, &v).expect("COO run");
    println!(
        "COO agrees with CSR: {}",
        paper_allclose(&out_coo.cast::<f64>(), &out.cast::<f64>())
    );

    // Verify against the dense reference on a subsample (full dense check
    // at 4096 is cheap enough too).
    let dense = DenseMask::from_csr(&graph);
    let reference = masked_sdp(&engine, &dense, &q, &k, &v).expect("reference");
    println!(
        "matches dense masked-SDP reference: {} (max |Δ| = {:.2e})",
        paper_allclose(&out, &reference),
        out.max_abs_diff(&reference)
    );
}
