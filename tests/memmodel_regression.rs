//! Cross-crate regression of the capacity results: the calibrated memory
//! model must keep reproducing the paper's Table II numbers, including the
//! 160 M-token headline, and the LongNet sparsity schedule must match the
//! paper's quoted values.

use graph_attention::masks::longnet_sparsity_factor;
use graph_attention::memmodel::{
    max_context_length, paper_value, Accounting, DType, DeviceProfile, MemAlgorithm, MemConfig,
    A100_80GB, TABLE2_ROWS,
};

#[test]
fn headline_160m_context_is_reproduced() {
    // "our algorithms are able to achieve extremely long sequence lengths
    // of as high as 160 million on a single NVIDIA A100" — the FP16 dk=64
    // Local/Flash row of Table II.
    let cfg = MemConfig {
        algo: MemAlgorithm::Local,
        dtype: DType::F16,
        d_total: 64,
        heads: 1,
        sf: 1e-4,
        accounting: Accounting::PaperCalibrated,
    };
    let max_l = max_context_length(&A100_80GB, &cfg).unwrap();
    assert!(
        (max_l as i64 - 166_471_601).abs() <= 2,
        "got {max_l}, paper says 166,471,601"
    );
    assert!(max_l > 160_000_000);
}

#[test]
fn full_table2_within_half_percent() {
    for spec in &TABLE2_ROWS {
        for algo in MemAlgorithm::ALL {
            let expected = paper_value(spec, algo);
            let cfg = MemConfig {
                algo,
                dtype: spec.dtype,
                d_total: spec.d_total,
                heads: spec.heads,
                sf: 1e-4,
                accounting: Accounting::PaperCalibrated,
            };
            let ours = max_context_length(&A100_80GB, &cfg);
            match (ours, expected) {
                (Some(a), Some(b)) => {
                    let rel = (a as f64 - b as f64).abs() / b as f64;
                    assert!(
                        rel < 0.005,
                        "{:?}/{}/{} {}: {a} vs paper {b} ({:.3}%)",
                        spec.dtype,
                        spec.d_total,
                        spec.heads,
                        algo.label(),
                        rel * 100.0
                    );
                }
                (None, None) => {}
                (a, b) => panic!("support mismatch {:?}: {a:?} vs {b:?}", algo),
            }
        }
    }
}

#[test]
fn longnet_schedule_matches_section_2d() {
    // {16k: 0.17, 32k: 0.085, 1M: 0.0027, 160M: 0.000017, 1B: 2.7e-6}.
    for (l, expected) in [
        (16_384usize, 0.17),
        (32_768, 0.085),
        (1_000_000, 0.0027),
        (160_000_000, 1.7e-5),
        (1_000_000_000, 2.7e-6),
    ] {
        let sf = longnet_sparsity_factor(l);
        let rel = (sf - expected).abs() / expected;
        assert!(rel < 0.05, "L={l}: {sf} vs paper {expected}");
    }
}

#[test]
fn training_headroom_projection_section_6b() {
    // "even if we assume that only 25% of memory is available … only 32
    // GPUs will be needed to reach a context length of 1 billion".
    let quarter = DeviceProfile::custom(A100_80GB.name, A100_80GB.mem_bytes / 4);
    let cfg = MemConfig {
        algo: MemAlgorithm::Local,
        dtype: DType::F16,
        d_total: 64,
        heads: 1,
        sf: 1e-4,
        accounting: Accounting::PaperCalibrated,
    };
    let per_gpu = max_context_length(&quarter, &cfg).unwrap();
    let gpus_needed = (1_000_000_000f64 / per_gpu as f64).ceil() as u64;
    assert!(
        gpus_needed <= 32,
        "paper projects ≤32 GPUs; model says {gpus_needed} ({per_gpu} tokens/GPU)"
    );
}
