//! Design-choice ablations (not in the paper; each isolates one choice this
//! reproduction made where the paper's text leaves room):
//!
//! - **A1** COO row-bound search: the paper's linear prefix scan vs binary
//!   search — quantifies how much of COO's Fig. 3 pathology is the search;
//! - **A3** FlashAttention K/V tile size.
//!
//! A1 runs compiled plans; A3 calls the dense baseline through the
//! caller's engine. There is no A2: launches have no schedule to ablate
//! (`CHANGES.md` holds its last numbers).

use crate::args::Scale;
use crate::protocol::Protocol;
use crate::report::{Record, Sink};
use gpa_core::{flash_attention_tiled, AttentionEngine, AttentionKernel, AttentionPlan, CooSearch};
use gpa_masks::{LocalWindow, MaskPattern};
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Ablation study configuration.
#[derive(Clone, Debug)]
pub struct AblationConfig {
    /// Context length for A1.
    pub l: usize,
    /// Context length for A3 (dense flash).
    pub l_flash: usize,
    /// Embedding dimension.
    pub dk: usize,
    /// COO sparsity sweep for A1.
    pub coo_sfs: Vec<f64>,
    /// Tile sizes for A3.
    pub tiles: Vec<usize>,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case budget (seconds).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl AblationConfig {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> AblationConfig {
        match scale {
            Scale::Quick => AblationConfig {
                l: 256,
                l_flash: 512,
                dk: 32,
                coo_sfs: vec![0.2],
                tiles: vec![16, 64],
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 3.0,
                seed: 0x5EED,
            },
            Scale::Default | Scale::Paper => AblationConfig {
                l: 1024,
                l_flash: 4096,
                dk: 64,
                coo_sfs: vec![0.4, 0.1, 0.01],
                tiles: vec![8, 16, 32, 64, 128, 256],
                protocol: Protocol::cpu_default(),
                budget_s: 10.0,
                seed: 0x5EED,
            },
        }
    }
}

/// Run the ablations; streams records through `on_record`.
pub fn run_ablations(
    engine: &AttentionEngine,
    cfg: &AblationConfig,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("ablation_a1", cfg.protocol, cfg.budget_s, on_record);
    let (q, k, v): (Matrix<f32>, _, _) = qkv(cfg.l, cfg.dk, cfg.seed);

    // --- A1: COO search strategy ---------------------------------------
    for &sf in &cfg.coo_sfs {
        let window = gpa_masks::local_window_for_sparsity(cfg.l, sf);
        let mask = LocalWindow::new(cfg.l, window).to_coo();
        for (search, name) in [
            (CooSearch::Linear, "COO linear search"),
            (CooSearch::Binary, "COO binary search"),
        ] {
            let plan = AttentionPlan::single(AttentionKernel::Coo(&mask, search))
                .expect("coo plan compiles");
            sink.time(Record::case(name, cfg.l, cfg.dk).sf(sf, f64::NAN), || {
                std::hint::black_box(engine.run(&plan, &q, &k, &v).unwrap());
            });
        }
    }

    // --- A3: flash tile size ---------------------------------------------
    sink.experiment("ablation_a3");
    let (qf, kf, vf): (Matrix<f32>, _, _) = qkv(cfg.l_flash, cfg.dk, cfg.seed ^ 1);
    for &tile in &cfg.tiles {
        let case = Record::case(format!("Flash tile={tile}"), cfg.l_flash, cfg.dk);
        sink.time(case, || {
            let out = flash_attention_tiled(engine, &qf, &kf, &vf, tile);
            std::hint::black_box(out.unwrap());
        });
    }

    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ablations_emit_records() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = AblationConfig::for_scale(Scale::Quick);
        let records = run_ablations(&engine, &cfg, |_| {});
        // A1: 1 sf × 2; A3: 2 tiles.
        assert_eq!(records.len(), 2 + 2);
        for exp in ["ablation_a1", "ablation_a3"] {
            assert!(records.iter().any(|r| r.experiment == exp), "missing {exp}");
        }
        assert!(records.iter().all(|r| r.mean_s > 0.0));
    }

    #[test]
    fn binary_search_beats_linear_on_large_coo() {
        // With enough rows the prefix scan's O(L·nnz) cost must dominate.
        // dk is kept tiny so per-edge arithmetic cannot mask the search.
        let engine = AttentionEngine::with_threads(4);
        let cfg = AblationConfig {
            l: 2048,
            l_flash: 256,
            dk: 4,
            coo_sfs: vec![0.1],
            tiles: vec![64],
            protocol: Protocol {
                warmup: 1,
                iters: 3,
            },
            budget_s: 30.0,
            seed: 2,
        };
        let records = run_ablations(&engine, &cfg, |_| {});
        let linear = records
            .iter()
            .find(|r| r.algo == "COO linear search")
            .unwrap()
            .mean_s;
        let binary = records
            .iter()
            .find(|r| r.algo == "COO binary search")
            .unwrap()
            .mean_s;
        assert!(
            linear > binary * 1.5,
            "linear {linear} should be ≫ binary {binary}"
        );
    }
}
