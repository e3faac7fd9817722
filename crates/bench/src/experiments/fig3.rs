//! Fig. 3 — microbenchmarks: runtime vs sparsity factor for all six graph
//! kernels and the masked-SDP baseline, swept over context length and
//! embedding dimension.
//!
//! Paper setup (Section V-C): `L ∈ {8192, 16384, 24576}`,
//! `dk ∈ {64, 128, 256}`, `Sf ∈ (0, 1]`; dilation 1 for both dilated
//! kernels; window/block fitted to the target `Sf`; COO restricted to the
//! smallest `L` and `Sf ≤ 0.4` "due to its long runtime".

use crate::args::Scale;
use crate::kernels::{fitted_case, AlgoId};
use crate::protocol::{measure_auto, Protocol};
use crate::report::{Record, Sink};
use gpa_core::AttentionEngine;
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Sweep configuration for Fig. 3.
#[derive(Clone, Debug)]
pub struct Fig3Config {
    /// Context lengths (one plot column per value).
    pub ls: Vec<usize>,
    /// Embedding dimensions (one color per value).
    pub dks: Vec<usize>,
    /// Target sparsity factors (x-axis), descending.
    pub sfs: Vec<f64>,
    /// COO runs only at `L ≤ coo_max_l`.
    pub coo_max_l: usize,
    /// COO runs only at `Sf ≤ coo_max_sf`.
    pub coo_max_sf: f64,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case time budget in seconds (adaptive iteration trimming).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Fig3Config {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> Fig3Config {
        match scale {
            Scale::Quick => Fig3Config {
                ls: vec![256],
                dks: vec![32],
                sfs: vec![0.1, 0.01],
                coo_max_l: 256,
                coo_max_sf: 0.4,
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 2.0,
                seed: 0x5EED,
            },
            Scale::Default => Fig3Config {
                ls: vec![512, 1024, 2048],
                dks: vec![64, 128, 256],
                sfs: vec![1.0, 0.4, 0.1, 0.04, 0.01, 0.004, 0.001, 4e-4, 1e-4],
                coo_max_l: 512,
                coo_max_sf: 0.4,
                protocol: Protocol::cpu_default(),
                budget_s: 8.0,
                seed: 0x5EED,
            },
            Scale::Paper => Fig3Config {
                ls: vec![8192, 16384, 24576],
                dks: vec![64, 128, 256],
                sfs: vec![1.0, 0.4, 0.1, 0.04, 0.01, 0.004, 0.001, 4e-4, 1e-4],
                coo_max_l: 8192,
                coo_max_sf: 0.4,
                protocol: Protocol::paper(),
                budget_s: f64::INFINITY,
                seed: 0x5EED,
            },
        }
    }
}

/// Run the sweep, streaming each record to `on_record` as it is produced.
/// Every case builds its call once ([`crate::OwnedKernel::runner`]: a
/// graph case compiles its plan there) and reuses it across the protocol's
/// warm-up and timed iterations.
pub fn run_fig3(
    engine: &AttentionEngine,
    cfg: &Fig3Config,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("fig3", cfg.protocol, cfg.budget_s, on_record);

    for &l in &cfg.ls {
        for &dk in &cfg.dks {
            let (q, k, v): (Matrix<f32>, _, _) = qkv(l, dk, cfg.seed);

            // The SDP baseline's runtime is Sf-independent (it always does
            // the dense computation), so measure it once per (L, dk) and
            // replicate the row across the sweep — the flat line of Fig. 3.
            let sdp_case = fitted_case(AlgoId::Sdp, l, *cfg.sfs.first().unwrap_or(&1.0));
            let sdp_run = sdp_case.runner(engine, &q, &k, &v);
            let sdp_stat = measure_auto(cfg.protocol, cfg.budget_s, || {
                std::hint::black_box(sdp_run());
            });
            for &sf in &cfg.sfs {
                let case = Record::case(sdp_case.name(), l, dk)
                    .sf(sf, 1.0)
                    .note("dense: Sf-independent, measured once per (L,dk)");
                sink.push(case, sdp_stat);
            }

            for &sf in &cfg.sfs {
                for algo in [
                    AlgoId::Coo,
                    AlgoId::Csr,
                    AlgoId::Global,
                    AlgoId::Local,
                    AlgoId::Dilated1d,
                    AlgoId::Dilated2d,
                ] {
                    if algo == AlgoId::Coo && (l > cfg.coo_max_l || sf > cfg.coo_max_sf) {
                        continue; // the paper's COO restriction
                    }
                    let case = fitted_case(algo, l, sf);
                    let run = case.runner(engine, &q, &k, &v);
                    sink.time(
                        Record::case(case.name(), l, dk).sf(sf, case.achieved_sf(l)),
                        || {
                            std::hint::black_box(run());
                        },
                    );
                }
            }
        }
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_expected_grid() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Fig3Config::for_scale(Scale::Quick);
        let mut streamed = 0usize;
        let records = run_fig3(&engine, &cfg, |_| streamed += 1);
        assert_eq!(records.len(), streamed);
        // 1 L × 1 dk × 2 sf × (SDP + 6 kernels, COO allowed at both sf).
        assert_eq!(records.len(), 2 * 7);
        // All algorithms present.
        for name in [
            "PyTorch SDP (Masked)",
            "COO",
            "CSR",
            "Local",
            "Dilated-1D",
            "Dilated-2D",
            "Global",
        ] {
            assert!(records.iter().any(|r| r.algo == name), "missing {name}");
        }
        // Runtime sanity: all positive.
        assert!(records.iter().all(|r| r.mean_s > 0.0));
    }

    #[test]
    fn graph_kernels_get_faster_with_sparsity_sdp_does_not() {
        let engine = AttentionEngine::with_threads(4);
        let cfg = Fig3Config {
            ls: vec![512],
            dks: vec![64],
            sfs: vec![0.5, 0.005],
            coo_max_l: 0, // skip COO for speed
            coo_max_sf: 0.0,
            protocol: Protocol {
                warmup: 1,
                iters: 3,
            },
            budget_s: 10.0,
            seed: 1,
        };
        let records = run_fig3(&engine, &cfg, |_| {});
        let mean_of = |algo: &str, sf: f64| {
            records
                .iter()
                .find(|r| r.algo == algo && (r.sf_target - sf).abs() < 1e-12)
                .map(|r| r.mean_s)
                .unwrap()
        };
        // CSR speeds up by roughly the sparsity ratio (allow wide margin).
        assert!(
            mean_of("CSR", 0.5) > mean_of("CSR", 0.005) * 3.0,
            "CSR: {} vs {}",
            mean_of("CSR", 0.5),
            mean_of("CSR", 0.005)
        );
        // SDP is flat by construction (single measurement replicated).
        assert_eq!(
            mean_of("PyTorch SDP (Masked)", 0.5),
            mean_of("PyTorch SDP (Masked)", 0.005)
        );
    }
}
