//! Fig. 4: maximum context length as a function of the sparsity factor.
//!
//! Four panels — (dk = 64, dk = 128) × (FP32, FP16) — each charting every
//! algorithm family's capacity on one A100-80GB as `Sf` sweeps `[1e-4, 1]`.

use crate::device::DeviceProfile;
use crate::layout::{Accounting, DType, MemAlgorithm, MemConfig};
use crate::solve::capacity_curve;

/// A single algorithm's capacity curve within one panel.
#[derive(Clone, Debug)]
pub struct Fig4Series {
    /// Algorithm.
    pub algo: MemAlgorithm,
    /// `(sf, max_L)` samples; `None` where unsupported.
    pub points: Vec<(f64, Option<u64>)>,
}

/// One Fig. 4 panel: a (dtype, dk) pair with all algorithm curves.
#[derive(Clone, Debug)]
pub struct Fig4Panel {
    /// Tensor precision of this panel.
    pub dtype: DType,
    /// Embedding width of this panel.
    pub d_total: usize,
    /// Capacity curves, one per algorithm.
    pub series: Vec<Fig4Series>,
}

/// Log-spaced sparsity grid from `1e-4` to `1` with `points_per_decade`
/// samples per decade.
pub fn sparsity_grid(points_per_decade: usize) -> Vec<f64> {
    let ppd = points_per_decade.max(1);
    let total = 4 * ppd; // 4 decades: 1e-4 … 1e0
    (0..=total)
        .map(|i| 10f64.powf(-4.0 + i as f64 / ppd as f64))
        .collect()
}

/// Compute one panel on the given device.
pub(crate) fn fig4_panel(
    device: &DeviceProfile,
    dtype: DType,
    d_total: usize,
    accounting: Accounting,
    sfs: &[f64],
) -> Fig4Panel {
    let series = MemAlgorithm::ALL
        .iter()
        .map(|&algo| {
            let base = MemConfig {
                algo,
                dtype,
                d_total,
                heads: 1,
                sf: 1e-4,
                accounting,
            };
            Fig4Series {
                algo,
                points: capacity_curve(device, &base, sfs),
            }
        })
        .collect();
    Fig4Panel {
        dtype,
        d_total,
        series,
    }
}

/// All four Fig. 4 panels (dk ∈ {64, 128} × {FP32, FP16}).
pub fn fig4_all_panels(
    device: &DeviceProfile,
    accounting: Accounting,
    sfs: &[f64],
) -> Vec<Fig4Panel> {
    let mut panels = Vec::with_capacity(4);
    for &d in &[64usize, 128] {
        for &dtype in &[DType::F32, DType::F16] {
            panels.push(fig4_panel(device, dtype, d, accounting, sfs));
        }
    }
    panels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100_80GB;

    #[test]
    fn grid_is_log_spaced_and_bounded() {
        let g = sparsity_grid(4);
        assert_eq!(g.len(), 17);
        assert!((g[0] - 1e-4).abs() < 1e-12);
        assert!((g.last().unwrap() - 1.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn panel_has_all_algorithms() {
        let panel = fig4_panel(
            &A100_80GB,
            DType::F16,
            64,
            Accounting::PaperCalibrated,
            &sparsity_grid(2),
        );
        assert_eq!(panel.series.len(), MemAlgorithm::ALL.len());
        for s in &panel.series {
            assert_eq!(s.points.len(), 9);
        }
    }

    #[test]
    fn explicit_masks_decay_with_density_implicit_stay_flat() {
        let panel = fig4_panel(
            &A100_80GB,
            DType::F16,
            64,
            Accounting::PaperCalibrated,
            &[1e-4, 1e-2, 1.0],
        );
        for s in &panel.series {
            let ls: Vec<u64> = s.points.iter().filter_map(|(_, l)| *l).collect();
            if ls.is_empty() {
                continue;
            }
            if s.algo.sparsity_dependent() {
                assert!(ls[0] > ls[2], "{:?} should shrink as Sf grows", s.algo);
            } else {
                assert!(
                    ls.windows(2).all(|w| w[0] == w[1]),
                    "{:?} should be flat across Sf",
                    s.algo
                );
            }
        }
    }

    #[test]
    fn fp16_doubles_implicit_capacity_vs_fp32() {
        let sfs = [1e-4];
        let p16 = fig4_panel(
            &A100_80GB,
            DType::F16,
            64,
            Accounting::PaperCalibrated,
            &sfs,
        );
        let p32 = fig4_panel(
            &A100_80GB,
            DType::F32,
            64,
            Accounting::PaperCalibrated,
            &sfs,
        );
        let get = |p: &Fig4Panel, a: MemAlgorithm| {
            p.series.iter().find(|s| s.algo == a).unwrap().points[0]
                .1
                .unwrap()
        };
        let ratio = get(&p16, MemAlgorithm::Local) as f64 / get(&p32, MemAlgorithm::Local) as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn all_panels_generated() {
        let panels = fig4_all_panels(&A100_80GB, Accounting::PaperCalibrated, &[1e-4, 1e-1]);
        assert_eq!(panels.len(), 4);
        let dims: Vec<(usize, DType)> = panels.iter().map(|p| (p.d_total, p.dtype)).collect();
        assert!(dims.contains(&(64, DType::F16)));
        assert!(dims.contains(&(128, DType::F32)));
    }
}
