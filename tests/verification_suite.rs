//! The paper's verification protocol (Section V-A), end to end across
//! crates: every kernel vs the masked-SDP reference at L = 256, dk = 32,
//! uniform [0,1) inputs, `allclose(atol=1e-8, rtol=1e-5, equal_nan=true)`.

use graph_attention::core::{run_paper_verification, run_verification_at, AttentionEngine};

#[test]
fn paper_protocol_all_kernels_pass() {
    let records = run_paper_verification(&AttentionEngine::with_threads(4));
    assert!(!records.is_empty());
    let mut kernels_seen = std::collections::BTreeSet::new();
    for r in &records {
        kernels_seen.insert(r.kernel.clone());
        assert!(
            r.passed,
            "{} on {} failed the paper tolerance: max |Δ| = {:.3e}",
            r.kernel, r.mask, r.max_abs_diff
        );
    }
    // All six paper kernels plus the DIA extension must be covered.
    for kernel in [
        "COO",
        "CSR",
        "Local",
        "Dilated-1D",
        "Dilated-2D",
        "Global",
        "DIA",
    ] {
        assert!(kernels_seen.contains(kernel), "missing kernel {kernel}");
    }
}

#[test]
fn protocol_holds_at_other_shapes() {
    let engine = AttentionEngine::with_threads(2);
    for (l, dk, seed) in [(64, 8, 1u64), (128, 16, 2), (96, 48, 3)] {
        let records = run_verification_at(&engine, l, dk, seed);
        for r in records {
            assert!(
                r.passed,
                "L={l} dk={dk}: {} on {} failed (max |Δ| = {:.3e})",
                r.kernel, r.mask, r.max_abs_diff
            );
        }
    }
}
