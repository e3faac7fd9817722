//! Fig. 6 — runtimes on the published transformer masks: Longformer
//! (local + global), Longformer (dilated + global), and BigBird
//! (local + global + random), each as masked SDP vs sequential kernel
//! composition vs a single CSR call.
//!
//! Paper setup (Section V-F): local size 50 per direction, 3 global tokens,
//! dilation 2 (effective local size 100), random `Sf = 0.001`,
//! `L ∈ {30k, 35k, 40k, 45k}`.

use crate::args::Scale;
use crate::protocol::Protocol;
use crate::report::{Record, Sink};
use gpa_core::{masked_sdp, AttentionEngine, AttentionKernel};
use gpa_masks::{
    bigbird, longformer, longformer_dilated, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern,
    RandomUniform,
};
use gpa_sparse::CsrMask;
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Sweep configuration for Fig. 6.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// Context lengths (x-axis).
    pub ls: Vec<usize>,
    /// Embedding dimension.
    pub dk: usize,
    /// Local window per direction (paper: 50).
    pub window: usize,
    /// Number of global tokens (paper: 3).
    pub n_globals: usize,
    /// Dilation factor for the dilated variant (paper: 2).
    pub dilation: usize,
    /// Random-attention sparsity for BigBird (paper: 0.001).
    pub random_sf: f64,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case budget (seconds).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Fig6Config {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> Fig6Config {
        match scale {
            Scale::Quick => Fig6Config {
                ls: vec![512, 1024],
                dk: 32,
                window: 10,
                n_globals: 3,
                dilation: 2,
                random_sf: 0.01,
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 3.0,
                seed: 0x5EED,
            },
            Scale::Default => Fig6Config {
                ls: vec![4_096, 8_192, 12_288, 16_384],
                dk: 64,
                window: 50,
                n_globals: 3,
                dilation: 2,
                random_sf: 0.001,
                protocol: Protocol::cpu_default(),
                budget_s: 20.0,
                seed: 0x5EED,
            },
            Scale::Paper => Fig6Config {
                ls: vec![30_000, 35_000, 40_000, 45_000],
                dk: 64,
                window: 50,
                n_globals: 3,
                dilation: 2,
                random_sf: 0.001,
                protocol: Protocol::paper(),
                budget_s: f64::INFINITY,
                seed: 0x5EED,
            },
        }
    }
}

/// The three mask scenarios of Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Mask {
    /// Longformer: local + global.
    LongformerLocalGlobal,
    /// Longformer: dilated local + global.
    LongformerDilatedGlobal,
    /// BigBird: local + global + random.
    BigBird,
}

impl Fig6Mask {
    /// All scenarios in paper order.
    pub const ALL: [Fig6Mask; 3] = [
        Fig6Mask::LongformerLocalGlobal,
        Fig6Mask::LongformerDilatedGlobal,
        Fig6Mask::BigBird,
    ];

    /// Plot title.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Mask::LongformerLocalGlobal => "Longformer (Local + Global)",
            Fig6Mask::LongformerDilatedGlobal => "Longformer (Dilated + Global)",
            Fig6Mask::BigBird => "BigBird (Local + Global + Random)",
        }
    }
}

/// Run all three mask scenarios; streams records through `on_record`.
/// Every graph series — including the sequential compositions — is
/// compiled into an [`gpa_core::AttentionPlan`] once per scenario and
/// reused across iterations; SDP is the baseline function on the engine's
/// pool.
pub fn run_fig6(
    engine: &AttentionEngine,
    cfg: &Fig6Config,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("fig6", cfg.protocol, cfg.budget_s, on_record);

    for &l in &cfg.ls {
        let (q, k, v): (Matrix<f32>, _, _) = qkv(l, cfg.dk, cfg.seed);
        let globals = GlobalSet::evenly_spaced(l, cfg.n_globals);
        let global_indices: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();
        let local = AttentionKernel::Local { n: cfg.window };
        let global = AttentionKernel::Global {
            globals: &globals,
            n_sub: cfg.window,
        };

        for mask in Fig6Mask::ALL {
            // Build the scenario's union mask (for SDP + single-CSR runs).
            let union_csr: CsrMask = match mask {
                Fig6Mask::LongformerLocalGlobal => {
                    longformer(l, cfg.window, global_indices.clone()).to_csr()
                }
                Fig6Mask::LongformerDilatedGlobal => {
                    longformer_dilated(l, cfg.window, cfg.dilation, global_indices.clone()).to_csr()
                }
                Fig6Mask::BigBird => bigbird(
                    l,
                    cfg.window,
                    global_indices.clone(),
                    cfg.random_sf,
                    cfg.seed ^ 0xB16B,
                )
                .to_csr(),
            };
            let sf = union_csr.sparsity_factor();
            let case = |algo: &str| {
                Record::case(algo, l, cfg.dk)
                    .sf(f64::NAN, sf)
                    .note(mask.label())
            };
            let dense = gpa_sparse::DenseMask::from_csr(&union_csr);
            sink.time(case("SDP (Masked)"), || {
                let out = masked_sdp(engine.pool(), &dense, &q, &k, &v, &engine.options());
                std::hint::black_box(out.unwrap());
            });
            // One graph series of the scenario: compile its steps, time the
            // plan.
            let mut series = |algo: &str, steps: &[AttentionKernel<'_>]| {
                let plan = engine.compile(steps).expect("series plan compiles");
                sink.time(case(algo), || {
                    std::hint::black_box(engine.run(&plan, &q, &k, &v).unwrap());
                });
            };
            series("CSR", &[AttentionKernel::Csr(&union_csr)]);

            // Sequential kernel compositions (the paper's third series).
            match mask {
                Fig6Mask::LongformerLocalGlobal => series("Loc + Glo", &[local, global]),
                Fig6Mask::LongformerDilatedGlobal => {
                    // Paper runs only SDP vs CSR for this panel.
                }
                Fig6Mask::BigBird => {
                    // Random edges not already covered by local ∪ global.
                    let covered = LocalWindow::new(l, cfg.window)
                        .to_csr()
                        .union(&GlobalMinusLocal::new(globals.clone(), cfg.window).to_csr());
                    let random_rest = RandomUniform::new(l, cfg.random_sf, cfg.seed ^ 0xB16B)
                        .to_csr()
                        .difference(&covered);
                    series(
                        "Loc + Glo + CSR",
                        &[local, global, AttentionKernel::Csr(&random_rest)],
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
    use gpa_tensor::paper_allclose;

    #[test]
    fn quick_run_covers_all_scenarios_and_series() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Fig6Config::for_scale(Scale::Quick);
        let records = run_fig6(&engine, &cfg, |_| {});
        // Per L: LF-LG (3 series) + LF-DG (2) + BigBird (3) = 8.
        assert_eq!(records.len(), 2 * 8);
        for label in [
            "Longformer (Local + Global)",
            "Longformer (Dilated + Global)",
            "BigBird (Local + Global + Random)",
        ] {
            assert!(records.iter().any(|r| r.note == label));
        }
        assert!(records.iter().any(|r| r.algo == "Loc + Glo"));
        assert!(records.iter().any(|r| r.algo == "Loc + Glo + CSR"));
    }

    #[test]
    fn composed_and_csr_series_compute_identical_attention() {
        // The benchmark's series must be numerically interchangeable — the
        // paper verified "outputs of each approach were deemed identical".
        let engine = AttentionEngine::with_threads(2);
        let l = 256;
        let cfg = Fig6Config {
            ls: vec![l],
            dk: 16,
            window: 8,
            n_globals: 3,
            dilation: 2,
            random_sf: 0.01,
            protocol: Protocol {
                warmup: 0,
                iters: 1,
            },
            budget_s: 5.0,
            seed: 11,
        };
        let (q, k, v): (Matrix<f64>, _, _) = qkv(l, cfg.dk, cfg.seed);
        let globals = GlobalSet::evenly_spaced(l, cfg.n_globals);
        let gi: Vec<usize> = globals.indices().iter().map(|&g| g as usize).collect();

        let union = longformer(l, cfg.window, gi).to_csr();
        let csr_plan = engine.compile(&[AttentionKernel::Csr(&union)]).unwrap();
        let via_csr = engine.run(&csr_plan, &q, &k, &v).unwrap();
        let composed_plan = engine
            .compile(&[
                AttentionKernel::Local { n: cfg.window },
                AttentionKernel::Global {
                    globals: &globals,
                    n_sub: cfg.window,
                },
            ])
            .unwrap();
        let via_composed = engine.run(&composed_plan, &q, &k, &v).unwrap();
        let dense = gpa_sparse::DenseMask::from_csr(&union);
        let via_sdp = masked_sdp(engine.pool(), &dense, &q, &k, &v, &engine.options()).unwrap();
        assert!(paper_allclose(&via_composed, &via_csr));
        assert!(paper_allclose(&via_sdp, &via_csr));
    }
}
