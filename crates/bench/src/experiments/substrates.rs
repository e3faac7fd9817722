//! Substrate overhead — per-launch cost of the work-stealing pool and the
//! engine's batched dispatch, swept over `Schedule::Dynamic` grains.
//!
//! Two families of cases:
//!
//! 1. **`noop` launches**: `parallel_for` over `n` rows whose body does no
//!    work, so the measured time *is* the substrate — job injection,
//!    share claims, stealing, the join. Swept over the dynamic grain
//!    (plus a static-contiguous reference point); this is the data the
//!    default grain in [`gpa_parallel::Schedule::Dynamic`] is picked from.
//! 2. **Engine batched launches**: `n_seqs` short sequences through one
//!    flattened `run_batch` vs `n_seqs` sequential `run` calls, and the
//!    same batch swept over dynamic grains — the serving-shaped workload
//!    the per-launch overhead is amortized against.
//!
//! The pool's substrate counters (steals, injector traffic, parks) are
//! snapshotted around the noop sweep so the binary can report *why* a
//! grain wins, not just that it does.

use crate::args::Scale;
use crate::protocol::{measure, Protocol};
use crate::report::Record;
use gpa_core::{AttentionEngine, AttentionKernel, AttentionRequest, KernelOptions};
use gpa_parallel::{parallel_for, PoolReport, Schedule, ThreadPool};
use gpa_tensor::init::qkv;
use gpa_tensor::Matrix;

/// Sweep configuration for the substrate-overhead experiment.
#[derive(Clone, Debug)]
pub struct SubstratesConfig {
    /// Rows per noop launch.
    pub n: usize,
    /// `Schedule::Dynamic` grains to sweep (both families).
    pub grains: Vec<usize>,
    /// Sequences per batched engine launch.
    pub n_seqs: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Key/value dimension of the engine workload.
    pub dk: usize,
    /// Local window of the engine workload's kernel.
    pub window: usize,
    /// Warm-up/measure counts per case.
    pub protocol: Protocol,
    /// Workload seed.
    pub seed: u64,
}

impl SubstratesConfig {
    /// Configuration for a CLI scale.
    pub fn for_scale(scale: Scale) -> SubstratesConfig {
        match scale {
            Scale::Quick => SubstratesConfig {
                n: 4_096,
                grains: vec![1, 4, 16, 64],
                n_seqs: 8,
                seq_len: 128,
                dk: 16,
                window: 8,
                protocol: Protocol {
                    warmup: 5,
                    iters: 30,
                },
                seed: 0x5EED,
            },
            Scale::Default | Scale::Paper => SubstratesConfig {
                n: 4_096,
                grains: vec![1, 4, 16, 64, 256],
                n_seqs: 16,
                seq_len: 256,
                dk: 32,
                window: 8,
                protocol: Protocol {
                    warmup: 10,
                    iters: 100,
                },
                seed: 0x5EED,
            },
        }
    }
}

/// Run the substrate sweep. Returns the records plus the pool-counter
/// delta accumulated over the *noop* family (the engine family runs on the
/// engine's own pool).
pub fn run_substrates(
    pool: &ThreadPool,
    engine: &AttentionEngine,
    cfg: &SubstratesConfig,
    mut on_record: impl FnMut(&Record),
) -> (Vec<Record>, PoolReport) {
    let mut records = Vec::new();
    let mut push = |rec: Record| {
        on_record(&rec);
        records.push(rec);
    };
    let noop_record =
        |algo: String, stat: crate::protocol::BenchStat, cfg: &SubstratesConfig| Record {
            experiment: "substrates".into(),
            algo,
            l: cfg.n,
            dk: 0,
            sf_target: f64::NAN,
            sf_achieved: f64::NAN,
            mean_s: stat.mean,
            min_s: stat.min,
            max_s: stat.max,
            std_s: stat.std,
            iters: stat.iters,
            note: "noop launch".into(),
        };

    // Family 1: empty-body launches — pure substrate overhead.
    let before = pool.metrics().report();
    for &grain in &cfg.grains {
        let stat = measure(cfg.protocol, || {
            parallel_for(pool, cfg.n, Schedule::Dynamic { grain }, |range| {
                std::hint::black_box(range.len());
            });
        });
        push(noop_record(format!("noop_dynamic_g{grain}"), stat, cfg));
    }
    let stat = measure(cfg.protocol, || {
        parallel_for(pool, cfg.n, Schedule::StaticContiguous, |range| {
            std::hint::black_box(range.len());
        });
    });
    push(noop_record("noop_static".into(), stat, cfg));
    let after = pool.metrics().report();
    let delta = PoolReport {
        jobs_executed: after.jobs_executed - before.jobs_executed,
        injector_pushes: after.injector_pushes - before.injector_pushes,
        injector_pops: after.injector_pops - before.injector_pops,
        steal_attempts: after.steal_attempts - before.steal_attempts,
        steals: after.steals - before.steals,
        range_steals: after.range_steals - before.range_steals,
        parks: after.parks - before.parks,
    };

    // Family 2: serving-shaped batched launches through the engine.
    let plan = engine
        .compile(&[AttentionKernel::Local { n: cfg.window }])
        .expect("local plan compiles");
    let seqs: Vec<(Matrix<f32>, Matrix<f32>, Matrix<f32>)> = (0..cfg.n_seqs)
        .map(|s| qkv(cfg.seq_len, cfg.dk, cfg.seed + s as u64))
        .collect();
    let requests: Vec<AttentionRequest<'_, f32>> = seqs
        .iter()
        .map(|(q, k, v)| AttentionRequest::new(q, k, v))
        .collect();
    let engine_record =
        |algo: String, stat: crate::protocol::BenchStat, cfg: &SubstratesConfig| Record {
            experiment: "substrates".into(),
            algo,
            l: cfg.seq_len,
            dk: cfg.dk,
            sf_target: f64::NAN,
            sf_achieved: f64::NAN,
            mean_s: stat.mean,
            min_s: stat.min,
            max_s: stat.max,
            std_s: stat.std,
            iters: stat.iters,
            note: format!("batch of {}", cfg.n_seqs),
        };

    let stat = measure(cfg.protocol, || {
        std::hint::black_box(engine.run_batch(&plan, &requests).unwrap());
    });
    push(engine_record("engine_batched".into(), stat, cfg));
    let stat = measure(cfg.protocol, || {
        for (q, k, v) in &seqs {
            std::hint::black_box(engine.run(&plan, q, k, v).unwrap());
        }
    });
    push(engine_record("engine_sequential".into(), stat, cfg));
    for &grain in &cfg.grains {
        let opts = KernelOptions::new().with_schedule(Schedule::Dynamic { grain });
        let stat = measure(cfg.protocol, || {
            std::hint::black_box(engine.run_batch_with(&plan, &opts, &requests).unwrap());
        });
        push(engine_record(format!("engine_batched_g{grain}"), stat, cfg));
    }

    (records, delta)
}

/// The noop-sweep grain with the lowest mean launch time — the
/// measurement behind the default `Schedule::Dynamic` grain.
pub fn best_noop_grain(records: &[Record]) -> Option<(usize, f64)> {
    records
        .iter()
        .filter(|r| r.experiment == "substrates")
        .filter_map(|r| {
            let grain: usize = r.algo.strip_prefix("noop_dynamic_g")?.parse().ok()?;
            Some((grain, r.mean_s))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_families_and_counts_launches() {
        let pool = ThreadPool::new(2);
        let engine = AttentionEngine::with_threads(2);
        let cfg = SubstratesConfig {
            n: 64,
            grains: vec![4, 16],
            n_seqs: 2,
            seq_len: 16,
            dk: 4,
            window: 2,
            protocol: Protocol {
                warmup: 1,
                iters: 2,
            },
            seed: 7,
        };
        let mut streamed = 0usize;
        let (records, delta) = run_substrates(&pool, &engine, &cfg, |_| streamed += 1);
        assert_eq!(records.len(), streamed);
        // 2 dynamic grains + static, then batched + sequential + 2 grains.
        assert_eq!(records.len(), 3 + 4);
        assert!(records.iter().all(|r| r.mean_s >= 0.0 && r.iters == 2));
        // Every forked launch pushes one job per helper (a 2-thread pool
        // has one; the caller is the other participant) through the
        // injector: 3 cases × (1 warm-up + 2 timed) launches. A helper
        // job the caller beat to its share may still be queued.
        assert_eq!(delta.injector_pushes, 3 * 3);
        assert!(delta.jobs_executed <= delta.injector_pushes);
        let best = best_noop_grain(&records).expect("dynamic noop cases exist");
        assert!(cfg.grains.contains(&best.0));
    }
}
