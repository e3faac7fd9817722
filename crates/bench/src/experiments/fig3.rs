//! Fig. 3 — microbenchmarks: runtime vs sparsity factor for all six graph
//! kernels and the masked-SDP baseline, swept over context length and
//! embedding dimension.
//!
//! Paper setup (Section V-C): `L ∈ {8192, 16384, 24576}`,
//! `dk ∈ {64, 128, 256}`, `Sf ∈ (0, 1]`; dilation 1 for both dilated
//! kernels; window/block fitted to the target `Sf`; COO restricted to the
//! smallest `L` and `Sf ≤ 0.4` "due to its long runtime".

use crate::args::Scale;
use crate::protocol::{measure_auto, Protocol};
use crate::report::{Record, Sink};
use gpa_core::{masked_sdp, AttentionEngine, AttentionKernel};
use gpa_masks::{
    dilated1d_width_for_sparsity, dilated2d_block_for_sparsity, global_count_for_sparsity,
    local_window_for_sparsity, Dilated1d, Dilated2d, GlobalMinusLocal, GlobalSet, LocalWindow,
    MaskPattern,
};
use gpa_sparse::{CooMask, CsrMask};
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// The masked-SDP baseline's name in the paper's legend.
const SDP: &str = "PyTorch SDP (Masked)";

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

/// The fitted masks of one `(L, Sf)` point, following the paper's Fig. 3
/// setup: dilation 1 for both dilated kernels, the window or block fitted
/// to `Sf`, the globals fitted with the identity diagonal subtracted. COO
/// and CSR read the fitted local window.
struct Fitted {
    l: usize,
    window: usize,
    coo: Option<CooMask>,
    csr: CsrMask,
    globals: GlobalSet,
    w: usize,
    block_size: usize,
}

impl Fitted {
    /// Fit every mask to `sf` at context `l`; the COO copy only `with_coo`.
    fn new(l: usize, sf: f64, with_coo: bool) -> Fitted {
        let window = local_window_for_sparsity(l, sf);
        let local = LocalWindow::new(l, window);
        Fitted {
            l,
            window,
            coo: with_coo.then(|| local.to_coo()),
            csr: local.to_csr(),
            globals: GlobalSet::evenly_spaced(l, global_count_for_sparsity(l, sf)),
            w: dilated1d_width_for_sparsity(l, 1, sf),
            block_size: dilated2d_block_for_sparsity(l, 1, sf),
        }
    }

    /// The graph kernels in sweep order, each with its mask's achieved `Sf`.
    fn cases(&self) -> Vec<(AttentionKernel<'_>, f64)> {
        let l = self.l;
        let coo = self.coo.iter().map(|coo| {
            let sf = coo.sparsity_factor();
            (AttentionKernel::Coo(coo), sf)
        });
        coo.chain([
            (AttentionKernel::Csr(&self.csr), self.csr.sparsity_factor()),
            (
                AttentionKernel::Global {
                    globals: &self.globals,
                    n_sub: 0,
                },
                GlobalMinusLocal::new(self.globals.clone(), 0).sparsity_factor(),
            ),
            (
                AttentionKernel::Local { n: self.window },
                LocalWindow::new(l, self.window).sparsity_factor(),
            ),
            (
                AttentionKernel::Dilated1d { w: self.w, r: 1 },
                Dilated1d::new(l, self.w, 1).sparsity_factor(),
            ),
            (
                AttentionKernel::Dilated2d {
                    block_size: self.block_size,
                    r: 1,
                },
                Dilated2d::new(l, self.block_size, 1).sparsity_factor(),
            ),
        ])
        .collect()
    }
}

/// Run the sweep, streaming each record to `on_record` as it is produced.
/// Every graph case compiles its plan once and reuses it across the
/// protocol's warm-up and timed iterations; SDP is the baseline function on
/// the engine's pool.
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
            let sf0 = *cfg.sfs.first().unwrap_or(&1.0);
            let sdp_mask = LocalWindow::new(l, local_window_for_sparsity(l, sf0)).to_dense();
            let sdp_stat = measure_auto(cfg.protocol, cfg.budget_s, || {
                let out = masked_sdp(engine, &sdp_mask, &q, &k, &v);
                std::hint::black_box(out.unwrap());
            });
            for &sf in &cfg.sfs {
                let case = Record::case(SDP, l, dk)
                    .sf(sf, 1.0)
                    .note("dense: Sf-independent, measured once per (L,dk)");
                sink.push(case, sdp_stat);
            }

            for &sf in &cfg.sfs {
                // The paper's COO restriction.
                let with_coo = l <= cfg.coo_max_l && sf <= cfg.coo_max_sf;
                let fitted = Fitted::new(l, sf, with_coo);
                for (kernel, achieved) in fitted.cases() {
                    let plan = engine.compile(&[kernel]).expect("benchmark case compiles");
                    sink.time(Record::case(kernel.name(), l, dk).sf(sf, achieved), || {
                        std::hint::black_box(engine.run(&plan, &q, &k, &v).unwrap());
                    });
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
            SDP,
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

        // Where the solvers have room, every fitted mask lands near its
        // target.
        for (kernel, sf) in Fitted::new(1024, 0.05, true).cases() {
            let name = kernel.name();
            assert!((sf - 0.05).abs() / 0.05 < 0.35, "{name}: achieved {sf}");
        }
        // COO, CSR, Local and SDP read one fitted window: same outputs.
        let l = 64;
        let (q, k, v) = qkv::<f32>(l, 8, 3);
        let fitted = Fitted::new(l, 0.1, true);
        let cases = fitted.cases();
        let run = |i: usize| engine.run_kernel(cases[i].0, &q, &k, &v).unwrap();
        let (coo, csr, local) = (run(0), run(1), run(3));
        assert_eq!(cases[3].0.name(), "Local");
        assert!(coo.max_abs_diff(&csr) < 1e-5);
        assert!(local.max_abs_diff(&csr) < 1e-5);
        let window = LocalWindow::new(l, fitted.window).to_dense();
        let sdp = masked_sdp(&engine, &window, &q, &k, &v).unwrap();
        assert!(sdp.max_abs_diff(&csr) < 1e-5);
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
        assert_eq!(mean_of(SDP, 0.5), mean_of(SDP, 0.005));
    }
}
