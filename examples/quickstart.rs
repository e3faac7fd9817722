//! Quickstart: sparse attention as a graph computation in ~40 lines.
//!
//! Builds a Longformer-style mask, compiles it into an engine plan, runs
//! the work-optimal CSR kernel, checks the result against the dense
//! masked-SDP reference, and shows how much work sparsity saved.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use graph_attention::prelude::*;

fn main() {
    let l = 1024; // context length (tokens = graph vertices)
    let dk = 64; // embedding dimension

    // 1. The engine — worker pool + launch policy, and the front door to
    //    every kernel. Work counting is a builder switch.
    let engine = AttentionEngine::builder().count_work(true).build();

    // 2. The token graph: Longformer = sliding window ∪ global tokens.
    let mask = longformer(l, 16, vec![0, l / 2]);
    let csr = mask.to_csr();
    println!(
        "mask: {} edges over {}² cells  (sparsity factor {:.4})",
        csr.nnz(),
        l,
        csr.sparsity_factor()
    );

    // 3. Compile the kernel selection into a reusable plan — geometry
    //    validated here, once, not on every run.
    let plan = engine
        .compile(&[AttentionKernel::Csr(&csr)])
        .expect("valid plan");

    // 4. Uniform [0,1) Q/K/V, as in the paper's verification setup.
    let (q, k, v) = init::qkv::<f32>(l, dk, 42);

    // 5. Graph-processing attention: one dot product per edge, nothing more.
    let output = engine.run(&plan, &q, &k, &v).expect("valid inputs");
    let report = engine.work_report().expect("counting enabled");
    println!(
        "CSR kernel: {} dot products for {} edges  (work-optimal: {})",
        report.dot_products,
        csr.nnz(),
        report.is_work_optimal(csr.nnz() as u64)
    );

    // 6. Verify against the dense masked-SDP reference (paper Sec. V-A).
    //    The baseline is a plain function on the engine's pool, not a plan.
    let dense = DenseMask::from_csr(&csr);
    let reference =
        masked_sdp(engine.pool(), &dense, &q, &k, &v, &engine.options()).expect("valid inputs");
    println!(
        "matches dense reference: {}  (max |Δ| = {:.2e})",
        paper_allclose(&output, &reference),
        output.max_abs_diff(&reference)
    );

    // 7. The point of it all: dense attention would have cost L² dots.
    let dense_work = (l * l) as f64;
    println!(
        "work saved vs dense attention: {:.1}×",
        dense_work / report.dot_products as f64
    );
}
