//! Max-context-length solver: the largest `L` whose working set fits the
//! device (the inequality solving of Section V-D).

use crate::device::DeviceProfile;
use crate::layout::{bytes_required, MemConfig};

/// The largest integer context length `L ≥ 0` with
/// `bytes_required(cfg, L) ≤ device.mem_bytes`, found by monotone bisection.
///
/// Returns 0 if even `L = 1` does not fit, and `None` if the algorithm does
/// not support the configuration's data type (FlashAttention FP32).
pub fn max_context_length(device: &DeviceProfile, cfg: &MemConfig) -> Option<u64> {
    if !cfg.algo.supports(cfg.dtype) {
        return None;
    }
    let budget = device.mem_bytes as f64;
    if bytes_required(cfg, 1.0) > budget {
        return Some(0);
    }
    // Exponential search for an upper bound…
    let mut hi = 1u64;
    while bytes_required(cfg, hi as f64) <= budget {
        hi = hi.saturating_mul(2);
        if hi >= 1 << 62 {
            break;
        }
    }
    // …then bisect for the last fitting length.
    let mut lo = hi / 2; // known to fit
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if bytes_required(cfg, mid as f64) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Convenience: solve for each sparsity factor in `sfs`, returning
/// `(sf, max_L)` pairs — one Fig. 4 curve.
pub(crate) fn capacity_curve(
    device: &DeviceProfile,
    base: &MemConfig,
    sfs: &[f64],
) -> Vec<(f64, Option<u64>)> {
    sfs.iter()
        .map(|&sf| {
            let mut cfg = *base;
            cfg.sf = sf;
            (sf, max_context_length(device, &cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{A100_80GB, V100_32GB};
    use crate::layout::{Accounting, DType, MemAlgorithm};

    fn cfg(algo: MemAlgorithm, dtype: DType, d: usize, h: usize, sf: f64) -> MemConfig {
        MemConfig {
            algo,
            dtype,
            d_total: d,
            heads: h,
            sf,
            accounting: Accounting::PaperCalibrated,
        }
    }

    #[test]
    fn solution_is_tight() {
        let c = cfg(MemAlgorithm::Csr, DType::F16, 64, 1, 1e-4);
        let l = max_context_length(&A100_80GB, &c).unwrap();
        let budget = A100_80GB.mem_bytes as f64;
        assert!(crate::layout::bytes_required(&c, l as f64) <= budget);
        assert!(crate::layout::bytes_required(&c, (l + 1) as f64) > budget);
    }

    #[test]
    fn more_memory_means_longer_context() {
        let c = cfg(MemAlgorithm::Local, DType::F16, 64, 1, 1e-4);
        let big = max_context_length(&A100_80GB, &c).unwrap();
        let small = max_context_length(&V100_32GB, &c).unwrap();
        assert!(big > small);
        // O(L) algorithms scale linearly with memory: 80/32 = 2.5×.
        let ratio = big as f64 / small as f64;
        assert!((ratio - 2.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn flash_fp32_is_none() {
        let c = cfg(MemAlgorithm::Flash, DType::F32, 64, 1, 1e-4);
        assert_eq!(max_context_length(&A100_80GB, &c), None);
    }

    #[test]
    fn sparser_masks_fit_longer_contexts() {
        let mut last = 0;
        for sf in [1e-1, 1e-2, 1e-3, 1e-4] {
            let c = cfg(MemAlgorithm::Csr, DType::F16, 64, 1, sf);
            let l = max_context_length(&A100_80GB, &c).unwrap();
            assert!(l > last, "sf={sf}: {l} vs {last}");
            last = l;
        }
    }

    #[test]
    fn capacity_curve_matches_pointwise_solves() {
        let base = cfg(MemAlgorithm::Coo, DType::F16, 64, 1, 0.0);
        let sfs = [1e-4, 1e-3, 1e-2];
        let curve = capacity_curve(&A100_80GB, &base, &sfs);
        assert_eq!(curve.len(), 3);
        for (sf, l) in curve {
            let mut c = base;
            c.sf = sf;
            assert_eq!(l, max_context_length(&A100_80GB, &c));
        }
    }

    #[test]
    fn tiny_budget_yields_zero() {
        let device = DeviceProfile::custom("tiny", 8);
        let c = cfg(MemAlgorithm::Local, DType::F16, 64, 1, 1e-4);
        assert_eq!(max_context_length(&device, &c), Some(0));
    }
}
