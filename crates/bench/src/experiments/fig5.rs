//! Fig. 5 — FlashAttention vs local attention as context grows, under a
//! constant window (left panel: sparsity increases with `L`) and a constant
//! sparsity factor (right panel: window grows with `L`).
//!
//! Paper setup (Section V-E): A100, FP16, `L` from 65k to 2.1M, windows
//! {5, 50, 500}, sparsity factors {1e-2, 1e-3, 1e-4}.

use crate::args::Scale;
use crate::protocol::Protocol;
use crate::report::{Record, Sink};
use gpa_core::{flash_attention, AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_masks::{local_window_for_sparsity, LocalWindow, MaskPattern};
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Sweep configuration for Fig. 5.
#[derive(Clone, Debug)]
pub struct Fig5Config {
    /// Context-length ladder (x-axis).
    pub ls: Vec<usize>,
    /// Constant windows for the left panel.
    pub windows: Vec<usize>,
    /// Constant sparsity factors for the right panel.
    pub sfs: Vec<f64>,
    /// Embedding dimension.
    pub dk: usize,
    /// FlashAttention is measured up to this length; larger entries are
    /// extrapolated from the largest measurement via its `O(L²)` work
    /// (marked "estimated" in the record note).
    pub flash_max_l: usize,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case time budget (seconds).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Fig5Config {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> Fig5Config {
        match scale {
            Scale::Quick => Fig5Config {
                ls: vec![512, 1024],
                windows: vec![5, 50],
                sfs: vec![1e-2],
                dk: 32,
                flash_max_l: 1024,
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 2.0,
                seed: 0x5EED,
            },
            Scale::Default => Fig5Config {
                ls: vec![2048, 4096, 8192, 16384, 32768],
                windows: vec![5, 50, 500],
                sfs: vec![1e-2, 1e-3, 1e-4],
                dk: 64,
                flash_max_l: 8192,
                protocol: Protocol::cpu_default(),
                budget_s: 15.0,
                seed: 0x5EED,
            },
            Scale::Paper => Fig5Config {
                ls: vec![65_536, 131_072, 262_144, 524_288, 1_048_576, 2_097_152],
                windows: vec![5, 50, 500],
                sfs: vec![1e-2, 1e-3, 1e-4],
                dk: 64,
                flash_max_l: 2_097_152,
                protocol: Protocol::paper(),
                budget_s: f64::INFINITY,
                seed: 0x5EED,
            },
        }
    }
}

/// Run the two sweeps; streams records through `on_record`. Each local
/// point compiles an engine plan once and reuses it across iterations;
/// FlashAttention is the baseline function on the engine's pool.
pub fn run_fig5(
    engine: &AttentionEngine,
    cfg: &Fig5Config,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("fig5", cfg.protocol, cfg.budget_s, on_record);
    // Largest measured flash point, for O(L²) extrapolation.
    let mut flash_ref: Option<(usize, f64)> = None;

    for &l in &cfg.ls {
        let (q, k, v): (Matrix<f32>, _, _) = qkv(l, cfg.dk, cfg.seed);
        let run = |plan: &AttentionPlan<'_>| {
            std::hint::black_box(engine.run(plan, &q, &k, &v).unwrap());
        };
        let local = |w: usize| {
            let plan = AttentionPlan::single(AttentionKernel::Local { n: w })
                .expect("local plan compiles");
            (plan, LocalWindow::new(l, w).sparsity_factor())
        };

        // FlashAttention series (both panels share it).
        let flash = Record::case("FlashAttention", l, cfg.dk).sf(f64::NAN, 1.0);
        if l <= cfg.flash_max_l {
            let run_flash = || {
                let out = flash_attention(engine, &q, &k, &v);
                std::hint::black_box(out.unwrap());
            };
            flash_ref = Some((l, sink.time(flash, run_flash).mean));
        } else {
            let reference = flash_ref.expect("ladder must start below flash_max_l");
            sink.estimated_quadratic(flash, reference);
        }

        // Left panel: constant windows.
        for &w in &cfg.windows {
            let (plan, achieved) = local(w);
            let case = Record::case(format!("Local (window={w})"), l, cfg.dk)
                .sf(f64::NAN, achieved)
                .note("constant window");
            sink.time(case, || run(&plan));
        }

        // Right panel: constant sparsity (window grows with L).
        for &sf in &cfg.sfs {
            let (plan, achieved) = local(local_window_for_sparsity(l, sf));
            let case = Record::case(format!("Local (Sf={sf})"), l, cfg.dk)
                .sf(sf, achieved)
                .note("constant sparsity");
            sink.time(case, || run(&plan));
        }
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_panels() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Fig5Config::for_scale(Scale::Quick);
        let records = run_fig5(&engine, &cfg, |_| {});
        // Per L: 1 flash + 2 windows + 1 sf.
        assert_eq!(records.len(), 2 * 4);
        assert!(records.iter().any(|r| r.algo == "FlashAttention"));
        assert!(records.iter().any(|r| r.algo.starts_with("Local (window=")));
        assert!(records.iter().any(|r| r.algo.starts_with("Local (Sf=")));
    }

    #[test]
    fn flash_extrapolation_scales_quadratically() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Fig5Config {
            ls: vec![256, 512, 1024],
            windows: vec![5],
            sfs: vec![1e-2],
            dk: 32,
            flash_max_l: 512,
            protocol: Protocol {
                warmup: 1,
                iters: 2,
            },
            budget_s: 5.0,
            seed: 3,
        };
        let records = run_fig5(&engine, &cfg, |_| {});
        let flash: Vec<&Record> = records
            .iter()
            .filter(|r| r.algo == "FlashAttention")
            .collect();
        assert_eq!(flash.len(), 3);
        let measured_512 = flash.iter().find(|r| r.l == 512).unwrap();
        let est_1024 = flash.iter().find(|r| r.l == 1024).unwrap();
        assert!(est_1024.note.contains("estimated"));
        assert!((est_1024.mean_s / measured_512.mean_s - 4.0).abs() < 1e-9);
    }
}
