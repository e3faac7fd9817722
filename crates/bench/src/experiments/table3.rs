//! Table III — long-context runtimes: FlashAttention vs the local kernel vs
//! CSR, with sparsity following the LongNet schedule `Sf = 2730/L`
//! (Section II-D), the regime where the paper reports its headline 4.46×
//! and 51.06× speedups.
//!
//! Paper ladder: `L ∈ {1.6M, 8M, 16M, 160M}` (FP16, A100). CSR drops its
//! mask sparsity at the top of the ladder "due to memory restrictions" —
//! reproduced here with an explicit nnz cap.

use crate::args::Scale;
use crate::protocol::Protocol;
use crate::report::{Record, Sink};
use gpa_core::{flash_attention, AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_masks::{local_window_for_sparsity, longnet_sparsity_factor, LocalWindow, MaskPattern};
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Ladder configuration for Table III.
#[derive(Clone, Debug)]
pub struct Table3Config {
    /// Context lengths (rows of the table).
    pub ls: Vec<usize>,
    /// Embedding dimension.
    pub dk: usize,
    /// FlashAttention measured up to here; beyond, extrapolated `O(L²)`.
    pub flash_max_l: usize,
    /// CSR materialization capped at this many non-zeros (the paper's
    /// "memory restrictions"); the sparsity is raised to fit.
    pub csr_max_nnz: usize,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case budget (seconds).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Table3Config {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> Table3Config {
        match scale {
            Scale::Quick => Table3Config {
                ls: vec![4_096, 16_384],
                dk: 32,
                flash_max_l: 4_096,
                csr_max_nnz: 4_000_000,
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 5.0,
                seed: 0x5EED,
            },
            Scale::Default => Table3Config {
                ls: vec![8_192, 32_768, 131_072],
                dk: 64,
                flash_max_l: 16_384,
                csr_max_nnz: 120_000_000,
                protocol: Protocol::cpu_default(),
                budget_s: 30.0,
                seed: 0x5EED,
            },
            Scale::Paper => Table3Config {
                ls: vec![1_600_000, 8_000_000, 16_000_000, 160_000_000],
                dk: 64,
                flash_max_l: 2_097_152,
                csr_max_nnz: 10_000_000_000,
                protocol: Protocol::paper(),
                budget_s: f64::INFINITY,
                seed: 0x5EED,
            },
        }
    }
}

/// Run the ladder; streams records through `on_record`. Each rung's graph
/// kernels compile to engine plans reused across iterations; FlashAttention
/// is the baseline function on the engine's pool.
pub fn run_table3(
    engine: &AttentionEngine,
    cfg: &Table3Config,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("table3", cfg.protocol, cfg.budget_s, on_record);
    let mut flash_ref: Option<(usize, f64)> = None;

    for &l in &cfg.ls {
        let sf = longnet_sparsity_factor(l);
        let (q, k, v): (Matrix<f32>, _, _) = qkv(l, cfg.dk, cfg.seed);
        let run = |plan: &AttentionPlan<'_>| {
            std::hint::black_box(engine.run(plan, &q, &k, &v).unwrap());
        };

        // FlashAttention (dense).
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

        // Local kernel at the LongNet sparsity schedule.
        let window = local_window_for_sparsity(l, sf);
        let local_plan = AttentionPlan::single(AttentionKernel::Local { n: window })
            .expect("local plan compiles");
        let case = Record::case("Local", l, cfg.dk)
            .sf(sf, LocalWindow::new(l, window).sparsity_factor())
            .note(format!("window={window}"));
        sink.time(case, || run(&local_plan));

        // CSR with the explicit mask, sparsity capped by materialization
        // memory exactly as the paper's footnote describes.
        let target_nnz = (sf * l as f64 * l as f64) as usize;
        let (csr_sf, csr_note) = if target_nnz > cfg.csr_max_nnz {
            let capped = cfg.csr_max_nnz as f64 / (l as f64 * l as f64);
            (capped, "sparsity raised: mask memory restriction")
        } else {
            (sf, "")
        };
        let mask = LocalWindow::new(l, local_window_for_sparsity(l, csr_sf)).to_csr();
        let csr_plan =
            AttentionPlan::single(AttentionKernel::Csr(&mask)).expect("csr plan compiles");
        let case = Record::case("CSR", l, cfg.dk)
            .sf(csr_sf, mask.sparsity_factor())
            .note(csr_note);
        sink.time(case, || run(&csr_plan));
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::speedup;

    #[test]
    fn ladder_produces_three_algorithms_per_length() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Table3Config::for_scale(Scale::Quick);
        let records = run_table3(&engine, &cfg, |_| {});
        assert_eq!(records.len(), 2 * 3);
        for algo in ["FlashAttention", "Local", "CSR"] {
            assert_eq!(records.iter().filter(|r| r.algo == algo).count(), 2);
        }
    }

    #[test]
    fn sparse_advantage_grows_with_context() {
        // The Table III trend: local's speedup over flash increases with L
        // under the LongNet schedule (flash O(L²) vs local O(2730·L)).
        let engine = AttentionEngine::with_threads(4);
        let cfg = Table3Config {
            ls: vec![2_048, 16_384],
            dk: 32,
            flash_max_l: 16_384,
            csr_max_nnz: 50_000_000,
            protocol: Protocol {
                warmup: 1,
                iters: 2,
            },
            budget_s: 20.0,
            seed: 5,
        };
        let records = run_table3(&engine, &cfg, |_| {});
        let mean = |algo: &str, l: usize| {
            records
                .iter()
                .find(|r| r.algo == algo && r.l == l)
                .unwrap()
                .mean_s
        };
        let speedup_small = speedup(mean("FlashAttention", 2_048), mean("Local", 2_048));
        let speedup_large = speedup(mean("FlashAttention", 16_384), mean("Local", 16_384));
        assert!(
            speedup_large > speedup_small,
            "speedup must grow: {speedup_small:.2} → {speedup_large:.2}"
        );
    }

    #[test]
    fn csr_nnz_cap_engages() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = Table3Config {
            ls: vec![8_192],
            dk: 16,
            flash_max_l: 8_192,
            csr_max_nnz: 100_000, // force the cap (longnet nnz = 2730·L ≈ 22M)
            protocol: Protocol {
                warmup: 0,
                iters: 1,
            },
            budget_s: 10.0,
            seed: 1,
        };
        let records = run_table3(&engine, &cfg, |_| {});
        let csr = records.iter().find(|r| r.algo == "CSR").unwrap();
        assert!(csr.note.contains("memory restriction"));
        assert!(csr.sf_achieved < longnet_sparsity_factor(8_192));
    }
}
