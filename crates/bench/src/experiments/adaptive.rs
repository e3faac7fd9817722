//! Adaptive-sparsity trade-off surface — attention pattern × routed group
//! count × context length.
//!
//! For every context length the sweep measures a dense baseline
//! (FlashAttention), a static sparse comparator (Local), and the
//! content-routed block-diagonal kernel at each group count `K`, and
//! records three axes per point:
//!
//! - **work** — query–key dot products actually performed, tallied by the
//!   engine's [`gpa_parallel::WorkCounter`] (exact, not analytic). A
//!   routed row's work is `Σ_g n_g²` over its group sizes; zero-mean
//!   queries route near-balanced, so it lands at `≈ L²/K` against the
//!   dense baseline's `L²`;
//! - **throughput** — tokens per second of the square forward, derivable
//!   from the record as `L / mean_s` (kept out of the note so every
//!   column but the timings repeats exactly run to run);
//! - **memory** — the working-set bytes of the serving configuration:
//!   K + V rows at `f32` plus, for routed rows, the per-token group
//!   assignment the KV cache carries.
//!
//! The CSV encodes the surface as `sf_target` (the ideal `1/K` for routed
//! rows) against `sf_achieved` (measured work / `L²`), so plotting
//! achieved-vs-target shows how far router imbalance strays from the
//! block-diagonal ideal.

use crate::args::Scale;
use crate::protocol::Protocol;
use crate::report::{Record, Sink};
use gpa_core::{flash_attention, AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_tensor::init::gaussian_matrix;

/// Sweep configuration for the adaptive-sparsity surface.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Context-length ladder (one surface slice per entry).
    pub ls: Vec<usize>,
    /// Routed group counts `K` to sweep.
    pub groups: Vec<usize>,
    /// Window of the static Local comparator.
    pub window: usize,
    /// Key dimension.
    pub dk: usize,
    /// Measurement protocol ceiling.
    pub protocol: Protocol,
    /// Per-case time budget (seconds).
    pub budget_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl AdaptiveConfig {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> AdaptiveConfig {
        match scale {
            Scale::Quick => AdaptiveConfig {
                ls: vec![256, 512],
                groups: vec![2, 4],
                window: 8,
                dk: 16,
                protocol: Protocol {
                    warmup: 1,
                    iters: 2,
                },
                budget_s: 2.0,
                seed: 0x5EED,
            },
            Scale::Default => AdaptiveConfig {
                ls: vec![1024, 2048, 4096],
                groups: vec![2, 4, 8, 16],
                window: 32,
                dk: 64,
                protocol: Protocol::cpu_default(),
                budget_s: 10.0,
                seed: 0x5EED,
            },
            Scale::Paper => AdaptiveConfig {
                ls: vec![8192, 16384, 32768, 65536],
                groups: vec![4, 16, 64],
                window: 64,
                dk: 64,
                protocol: Protocol::paper(),
                budget_s: f64::INFINITY,
                seed: 0x5EED,
            },
        }
    }
}

/// Run the surface sweep; streams records through `on_record`. Build the
/// engine with [`gpa_core::AttentionEngineBuilder::count_work`] so routed
/// rows report measured — not analytic — work.
pub fn run_adaptive(
    engine: &AttentionEngine,
    cfg: &AdaptiveConfig,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    let mut sink = Sink::new("adaptive", cfg.protocol, cfg.budget_s, on_record);
    let local = AttentionPlan::single(AttentionKernel::Local { n: cfg.window })
        .expect("local plan compiles");

    for &l in &cfg.ls {
        // Zero-mean rows: the router's projection scores are symmetric
        // around zero, so groups come out near-balanced (uniform [0,1)
        // rows would skew toward the most-positive direction).
        let q = gaussian_matrix::<f32>(l, cfg.dk, 1.0, cfg.seed ^ l as u64);
        let k = gaussian_matrix::<f32>(l, cfg.dk, 1.0, cfg.seed ^ l as u64 ^ 0x7E57);
        let v = gaussian_matrix::<f32>(l, cfg.dk, 1.0, cfg.seed ^ l as u64 ^ 0xF00D);

        // A point without a plan is the dense baseline, a plain function.
        let mut points: Vec<(Option<AttentionPlan<'_>>, String, f64, bool)> = vec![
            (None, "Dense (Flash)".into(), f64::NAN, false),
            (
                Some(local.clone()),
                format!("Local (window={})", cfg.window),
                f64::NAN,
                false,
            ),
        ];
        for &groups in &cfg.groups {
            let plan = AttentionPlan::single(AttentionKernel::Routed {
                groups,
                seed: cfg.seed ^ 0xB10C,
                causal: false,
            })
            .expect("routed plan compiles");
            points.push((
                Some(plan),
                format!("Routed (K={groups})"),
                1.0 / groups as f64,
                true,
            ));
        }

        // One point of the surface: tally the square forward's exact
        // dot-product work (the plan's analytic estimate, or `l²` for the
        // dense point, when the engine was built without a counter), then
        // time it.
        for (plan, algo, sf_target, routed) in points {
            let run = || {
                let out = match &plan {
                    Some(plan) => engine.run(plan, &q, &k, &v),
                    None => flash_attention(engine.pool(), &q, &k, &v, &engine.options()),
                };
                std::hint::black_box(out.unwrap());
            };
            let work = match engine.work_counter() {
                Some(counter) => {
                    counter.reset();
                    run();
                    counter.dot_products()
                }
                None => plan
                    .as_ref()
                    .map_or(l as u64 * l as u64, |plan| plan.estimated_edges(l)),
            };
            // Serving working set: K + V rows at f32, plus one u32 group
            // assignment per token for routed sequences.
            let kv_bytes = 2 * l * cfg.dk * std::mem::size_of::<f32>()
                + if routed {
                    l * std::mem::size_of::<u32>()
                } else {
                    0
                };
            // Deterministic per (seed, L, pattern): two runs' notes are
            // compared byte for byte, so no timing-derived value belongs
            // in one.
            let case = Record::case(algo, l, cfg.dk)
                .sf(sf_target, work as f64 / (l as f64 * l as f64))
                .note(format!("work={work} kv_bytes={kv_bytes}"));
            sink.time(case, run);
        }
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_core::{RoutedSpec, Router};

    fn counting_engine() -> AttentionEngine {
        AttentionEngine::builder()
            .threads(2)
            .count_work(true)
            .build()
    }

    #[test]
    fn quick_run_covers_the_surface() {
        let engine = counting_engine();
        let cfg = AdaptiveConfig::for_scale(Scale::Quick);
        let records = run_adaptive(&engine, &cfg, |_| {});
        // Per L: dense + local + one row per K.
        assert_eq!(records.len(), cfg.ls.len() * (2 + cfg.groups.len()));
        for &l in &cfg.ls {
            assert!(records
                .iter()
                .any(|r| r.l == l && r.algo == "Dense (Flash)"));
            assert!(records
                .iter()
                .any(|r| r.l == l && r.algo.starts_with("Local")));
            for &k in &cfg.groups {
                assert!(records
                    .iter()
                    .any(|r| r.l == l && r.algo == format!("Routed (K={k})")));
            }
        }
        // Every note carries the deterministic surface axes (throughput
        // is derivable as L / mean_s).
        for r in &records {
            assert!(r.note.contains("work="), "{}", r.note);
            assert!(r.note.contains("kv_bytes="), "{}", r.note);
        }
    }

    #[test]
    fn routed_work_is_measured_exactly_and_tracks_inverse_k() {
        let engine = counting_engine();
        let cfg = AdaptiveConfig::for_scale(Scale::Quick);
        let records = run_adaptive(&engine, &cfg, |_| {});
        for &l in &cfg.ls {
            let dense = records
                .iter()
                .find(|r| r.l == l && r.algo == "Dense (Flash)")
                .unwrap();
            // The dense baseline measures exactly L² dot products.
            assert_eq!(dense.sf_achieved, 1.0, "dense work must be L² at L={l}");
            let q = gaussian_matrix::<f32>(l, cfg.dk, 1.0, cfg.seed ^ l as u64);
            let mut last_work = u64::MAX;
            for &k in &cfg.groups {
                let rec = records
                    .iter()
                    .find(|r| r.l == l && r.algo == format!("Routed (K={k})"))
                    .unwrap();
                // Measured work equals Σ n_g² over the router's actual
                // group sizes — the kernel touches exactly its block
                // diagonal, nothing more.
                let routing = Router::new(RoutedSpec {
                    groups: k,
                    seed: cfg.seed ^ 0xB10C,
                })
                .route(&q);
                let expect: u64 = (0..k)
                    .map(|g| routing.members(g).len() as u64)
                    .map(|n| n * n)
                    .sum();
                let measured = (rec.sf_achieved * (l as f64 * l as f64)).round() as u64;
                assert_eq!(measured, expect, "Routed K={k} L={l} measured work");
                // Near-balanced routing: within 2× of the ideal L²/K, and
                // strictly shrinking as K grows.
                let ideal = (l as f64 * l as f64) / k as f64;
                assert!(
                    (measured as f64) < 2.0 * ideal,
                    "Routed K={k} L={l}: work {measured} strays past 2×L²/K"
                );
                assert!(measured < last_work, "work must shrink with K");
                last_work = measured;
            }
        }
    }
}
