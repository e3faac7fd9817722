//! The paper's measurement protocol.
//!
//! "Each combination of input parameters were run 10 times for a warm up
//! and then an additional 15 iterations were timed for the benchmark"
//! (Section V-C), reporting the average. `Protocol::paper` is exactly
//! that; `Protocol::cpu_default` trims iterations for CPU-scale runs, and
//! `Protocol::adaptive` further reduces them for very large cases (the
//! paper itself did this for the 160 M-token FlashAttention run, which got
//! "no warm up and only one benchmark run").

use std::time::Instant;

/// Warm-up/measure iteration counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Protocol {
    /// Untimed warm-up runs.
    pub warmup: usize,
    /// Timed runs.
    pub iters: usize,
}

impl Protocol {
    /// The paper's protocol: 10 warm-up + 15 timed runs.
    pub(crate) fn paper() -> Self {
        Protocol {
            warmup: 10,
            iters: 15,
        }
    }

    /// CPU-scale default: 2 warm-up + 5 timed runs.
    pub(crate) fn cpu_default() -> Self {
        Protocol {
            warmup: 2,
            iters: 5,
        }
    }

    /// Scale iterations down for expensive cases. `est_seconds` is a rough
    /// single-run estimate; the budget caps total measurement time.
    pub(crate) fn adaptive(self, est_seconds: f64, budget_seconds: f64) -> Self {
        if est_seconds <= 0.0 {
            return self;
        }
        let affordable = (budget_seconds / est_seconds).floor() as usize;
        if affordable >= self.warmup + self.iters {
            return self;
        }
        // Keep at least one warm-up (when any repetition is affordable) and
        // one timed run.
        let iters = affordable.saturating_sub(1).clamp(1, self.iters);
        let warmup = if affordable > 1 { 1 } else { 0 };
        Protocol { warmup, iters }
    }
}

/// Summary statistics over the timed iterations (seconds).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BenchStat {
    /// Mean runtime — the statistic the paper plots.
    pub mean: f64,
    /// Fastest run.
    pub min: f64,
    /// Slowest run.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of timed runs.
    pub iters: usize,
}

impl BenchStat {
    /// Aggregate raw per-iteration timings.
    pub(crate) fn from_samples(samples: &[f64]) -> BenchStat {
        assert!(!samples.is_empty(), "no samples to aggregate");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        BenchStat {
            mean,
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(0.0, f64::max),
            std: var.sqrt(),
            iters: samples.len(),
        }
    }
}

/// Run `f` under the protocol and aggregate timings.
pub(crate) fn measure<F: FnMut()>(protocol: Protocol, mut f: F) -> BenchStat {
    for _ in 0..protocol.warmup {
        f();
    }
    let mut samples = Vec::with_capacity(protocol.iters.max(1));
    for _ in 0..protocol.iters.max(1) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    BenchStat::from_samples(&samples)
}

/// Run `f` once to estimate its cost, then complete as much of
/// `max_protocol` as fits in `budget_seconds`. The pilot run serves as the
/// first warm-up (or as the only sample when even one repeat is
/// unaffordable) — mirroring the paper's own concession for its 160 M-token
/// FlashAttention case.
pub(crate) fn measure_auto<F: FnMut()>(
    max_protocol: Protocol,
    budget_seconds: f64,
    mut f: F,
) -> BenchStat {
    let t0 = Instant::now();
    f();
    let pilot = t0.elapsed().as_secs_f64();
    let p = max_protocol.adaptive(pilot, budget_seconds);
    if p.warmup == 0 && p.iters == 1 {
        return BenchStat::from_samples(&[pilot]);
    }
    // The pilot already served as one warm-up.
    measure(
        Protocol {
            warmup: p.warmup.saturating_sub(1),
            iters: p.iters,
        },
        f,
    )
}

/// Speedup of `baseline` over `candidate` (`>1` means the candidate is
/// faster) — the ratio the paper reports throughout Section V.
pub fn speedup(baseline_mean: f64, candidate_mean: f64) -> f64 {
    if candidate_mean <= 0.0 {
        return f64::INFINITY;
    }
    baseline_mean / candidate_mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_counts() {
        assert_eq!(
            Protocol::paper(),
            Protocol {
                warmup: 10,
                iters: 15
            }
        );
    }

    #[test]
    fn measure_runs_expected_times() {
        let mut calls = 0usize;
        let p = Protocol {
            warmup: 3,
            iters: 4,
        };
        let stat = measure(p, || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(stat.iters, 4);
        assert!(stat.mean >= 0.0 && stat.min <= stat.mean && stat.mean <= stat.max);
    }

    #[test]
    fn adaptive_trims_expensive_cases() {
        let p = Protocol::paper();
        // Cheap case: unchanged.
        assert_eq!(p.adaptive(0.001, 10.0), p);
        // Expensive: 10s budget at 3s/run → 3 affordable runs.
        let trimmed = p.adaptive(3.0, 10.0);
        assert_eq!(trimmed.warmup, 1);
        assert_eq!(trimmed.iters, 2);
        // Catastrophic: still runs once.
        let minimal = p.adaptive(100.0, 10.0);
        assert_eq!(minimal.warmup, 0);
        assert_eq!(minimal.iters, 1);
    }

    #[test]
    fn stats_from_known_samples() {
        let s = BenchStat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn speedup_ratio() {
        assert!((speedup(10.0, 2.0) - 5.0).abs() < 1e-12);
        assert!((speedup(1.0, 4.0) - 0.25).abs() < 1e-12);
        assert!(speedup(1.0, 0.0).is_infinite());
    }
}
