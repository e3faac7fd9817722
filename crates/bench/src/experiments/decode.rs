//! Decode latency — per-token cost of KV-cached autoregressive decode as
//! the context grows, for each sparse kernel family.
//!
//! This is the serving regime the geometry refactor exists for: each step
//! appends one token's K/V rows to a [`gpa_core::KvCache`] and computes a
//! single [`gpa_core::Geometry::decode`] row over the cache. A sparse
//! kernel's per-token work is `O(row nnz · dk)` — flat in context length
//! for local/dilated bands, growing only with the global set for global
//! attention — which is where sparse attention wins decode (InAttention's
//! linear inference-time scaling, "The Sparse Frontier"'s decode-side
//! trade-offs).
//!
//! Length-free plans (the implicit window kernels) are compiled **once**
//! and reused for every step; length-pinned families (Global, DIA) rebuild
//! their `O(#globals)` / `O(#offsets)` descriptor per step, and that
//! rebuild is charged to the measured step — it is part of the real decode
//! cost. Explicit COO/CSR masks are excluded: rebuilding an `O(nnz)` mask
//! per token is not a serving-shaped workload.

use crate::args::Scale;
use crate::protocol::{BenchStat, Protocol};
use crate::report::{Record, Sink};
use gpa_core::{AttentionEngine, AttentionKernel, KvCache};
use gpa_masks::GlobalSet;
use gpa_sparse::DiaMask;
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;
use std::time::Instant;

/// Sweep configuration for the decode-latency experiment.
#[derive(Clone, Debug)]
pub struct DecodeConfig {
    /// Context lengths at which decode throughput is sampled (the cache is
    /// prefilled to each length before timing).
    pub context_lengths: Vec<usize>,
    /// Key/value dimension.
    pub dk: usize,
    /// Local window per direction (dilated widths and the global count are
    /// derived from it, so every kernel does comparable per-row work).
    pub window: usize,
    /// Untimed decode steps before measurement.
    pub warmup_steps: usize,
    /// Timed decode steps (each appends a token).
    pub timed_steps: usize,
    /// Workload seed.
    pub seed: u64,
}

impl DecodeConfig {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> DecodeConfig {
        match scale {
            Scale::Quick => DecodeConfig {
                context_lengths: vec![64, 256],
                dk: 16,
                window: 8,
                warmup_steps: 2,
                timed_steps: 8,
                seed: 0x5EED,
            },
            Scale::Default => DecodeConfig {
                context_lengths: vec![1_024, 4_096, 16_384],
                dk: 64,
                window: 64,
                warmup_steps: 8,
                timed_steps: 64,
                seed: 0x5EED,
            },
            Scale::Paper => DecodeConfig {
                context_lengths: vec![8_192, 32_768, 131_072],
                dk: 64,
                window: 128,
                warmup_steps: 10,
                timed_steps: 256,
                seed: 0x5EED,
            },
        }
    }

    /// Tokens generated per sampled context length (warm-up + timed).
    pub(crate) fn steps_per_point(&self) -> usize {
        self.warmup_steps + self.timed_steps
    }
}

/// The kernel families the decode sweep covers.
const FAMILIES: [&str; 5] = ["Local", "Dilated-1D", "Dilated-2D", "Global", "DIA"];

/// Run the decode sweep, streaming each record to `on_record`.
pub fn run_decode(
    engine: &AttentionEngine,
    cfg: &DecodeConfig,
    on_record: impl FnMut(&Record),
) -> Vec<Record> {
    // A decode step appends to the cache, so it cannot be re-run as a
    // closure: the loop below walks this protocol itself, one sample a
    // step, and hands the sink finished statistics.
    let steps = Protocol {
        warmup: cfg.warmup_steps,
        iters: cfg.timed_steps,
    };
    let mut sink = Sink::new("decode", steps, f64::INFINITY, on_record);
    let max_l = cfg.context_lengths.iter().copied().max().unwrap_or(0);
    let total = max_l + cfg.steps_per_point();
    // One token stream reused across kernels: Q/K/V rows for the longest
    // context plus every generated token.
    let (q, k, v) = qkv::<f32>(total, cfg.dk, cfg.seed);

    for family in FAMILIES {
        // Length-free families: ONE plan compiled here, outside the timed
        // region, reused for every step — the compile-once property the
        // geometry refactor gives implicit kernels. Length-pinned families
        // (Global, DIA) return None and rebuild per step inside the timed
        // region instead.
        let reusable_kernel: Option<AttentionKernel<'_>> = match family {
            "Local" => Some(AttentionKernel::Local { n: cfg.window }),
            "Dilated-1D" => Some(AttentionKernel::Dilated1d {
                w: 2 * cfg.window + 1,
                r: 1,
            }),
            "Dilated-2D" => Some(AttentionKernel::Dilated2d {
                block_size: 2 * cfg.window + 1,
                r: 1,
            }),
            _ => None,
        };
        let reusable_plan = reusable_kernel
            .map(|kernel| engine.compile(&[kernel]).expect("implicit plan compiles"));
        for &l in &cfg.context_lengths {
            let mut cache = KvCache::single(cfg.dk, cfg.dk);
            cache.extend(0, &k.rows_slice(0, l), &v.rows_slice(0, l));
            let mut samples = Vec::with_capacity(cfg.timed_steps);
            for step in 0..cfg.steps_per_point() {
                let t = l + step;
                let q_t = q.rows_slice(t, t + 1);
                let k_t = k.rows_slice(t, t + 1);
                let v_t = v.rows_slice(t, t + 1);
                let started = Instant::now();
                let out = match &reusable_plan {
                    Some(plan) => engine
                        .decode_step(plan, &q_t, &k_t, &v_t, &mut cache)
                        .expect("decode step executes"),
                    None => decode_pinned(engine, family, cfg, &q_t, &k_t, &v_t, &mut cache),
                };
                let elapsed = started.elapsed().as_secs_f64();
                std::hint::black_box(out);
                if step >= cfg.warmup_steps {
                    samples.push(elapsed);
                }
            }
            // Tokens/s is `1 / mean_s`; the note holds only what repeats
            // exactly run to run.
            sink.push(
                Record::case(family, l, cfg.dk).note(format!("window={}", cfg.window)),
                BenchStat::from_samples(&samples),
            );
        }
    }
    sink.finish()
}

/// One timed decode step for a *length-pinned* family (Global, DIA):
/// the per-step descriptor rebuild happens inside the timed region — it
/// is part of their real per-token cost.
fn decode_pinned(
    engine: &AttentionEngine,
    family: &str,
    cfg: &DecodeConfig,
    q_t: &Matrix<f32>,
    k_t: &Matrix<f32>,
    v_t: &Matrix<f32>,
    cache: &mut KvCache<f32>,
) -> Matrix<f32> {
    let n = cfg.window;
    match family {
        "Global" => {
            // Global tokens pin the context length: rebuild the set at the
            // post-append length (cache.len() + 1).
            let len = cache.len() + 1;
            let globals = GlobalSet::evenly_spaced(len, (2 * n + 1).min(len));
            let plan = engine
                .compile(&[AttentionKernel::Global {
                    globals: &globals,
                    n_sub: 0,
                }])
                .expect("global plan");
            engine.decode_step(&plan, q_t, k_t, v_t, cache)
        }
        "DIA" => {
            let len = cache.len() + 1;
            let band = DiaMask::local(len, n);
            let plan = engine
                .compile(&[AttentionKernel::Dia(&band)])
                .expect("dia plan");
            engine.decode_step(&plan, q_t, k_t, v_t, cache)
        }
        other => unreachable!("unknown decode family {other}"),
    }
    .expect("decode step executes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_every_family_and_length() {
        let engine = AttentionEngine::with_threads(2);
        let cfg = DecodeConfig {
            context_lengths: vec![16, 32],
            dk: 4,
            window: 2,
            warmup_steps: 1,
            timed_steps: 3,
            seed: 7,
        };
        let mut streamed = 0usize;
        let records = run_decode(&engine, &cfg, |_| streamed += 1);
        assert_eq!(records.len(), streamed);
        assert_eq!(records.len(), FAMILIES.len() * 2);
        for family in FAMILIES {
            assert!(records.iter().any(|r| r.algo == family), "missing {family}");
        }
        assert!(records.iter().all(|r| r.mean_s > 0.0 && r.iters == 3));
        assert!(records.iter().all(|r| r.note == "window=2"));
    }

    #[test]
    fn decode_outputs_match_the_square_prefix_reference() {
        // The measured loop must compute real attention: spot-check the
        // length-pinned DIA path against the square forward's last row.
        let engine = AttentionEngine::with_threads(2);
        let l = 20;
        let (q, k, v) = qkv::<f32>(l + 1, 8, 9);
        let mut cache = KvCache::single(8, 8);
        cache.extend(0, &k.rows_slice(0, l), &v.rows_slice(0, l));
        let cfg = DecodeConfig {
            context_lengths: vec![l],
            dk: 8,
            window: 3,
            warmup_steps: 0,
            timed_steps: 1,
            seed: 9,
        };
        let out = decode_pinned(
            &engine,
            "DIA",
            &cfg,
            &q.rows_slice(l, l + 1),
            &k.rows_slice(l, l + 1),
            &v.rows_slice(l, l + 1),
            &mut cache,
        );
        let band = DiaMask::local(l + 1, 3);
        let plan = engine.compile(&[AttentionKernel::Dia(&band)]).unwrap();
        let full = engine
            .run(
                &plan,
                &q.rows_slice(0, l + 1),
                &k.rows_slice(0, l + 1),
                &v.rows_slice(0, l + 1),
            )
            .unwrap();
        assert_eq!(out.row(0), full.row(l));
    }
}
