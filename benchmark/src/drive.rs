//! One repetition: a fresh scheduler driven through the workload's trace
//! on its virtual clock, timed from outside.
//!
//! Arrivals are pinned to virtual ticks (an open loop in virtual time:
//! the offered load is the same whatever the speed of the code under
//! test). Wall time is read at the start and end of every
//! `Scheduler::tick`; a request is *due* at the wall start of the loop
//! iteration that submits it, and its latencies run to the wall end of
//! the tick that admits or completes it.

use crate::spans::Recorder;
use crate::stats::fnv_bits;
use crate::workloads::{Inputs, Request};
use gpa_parallel::PoolReport;
use gpa_serve::{Completion, ServeError};
use std::time::Instant;

/// Wall-time cap on one repetition (healthy ones take a few seconds).
const REPETITION_LIMIT_S: u64 = 60;

/// Counts one repetition produced; all but `pool` repeat exactly for a
/// given workload.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub ticks: u64,
    pub launches: u64,
    pub rows_computed: u64,
    pub prefill_rows: u64,
    pub decode_rows: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub errored: u64,
    pub preemptions: u64,
    pub resumes: u64,
    pub kv_peak_bytes: u64,
    pub pages_peak_used: u64,
    /// Cached tokens when `pages_peak_used` was reached.
    pub tokens_at_peak: u64,
    pub swap_peak_bytes: u64,
    pub swap_fallbacks: u64,
    /// Dot products tallied by the engine's `WorkCounter` (traced runs).
    pub dots: u64,
    pub pool: PoolReport,
}

/// Everything measured in one repetition.
pub struct Rep {
    pub wall_s: f64,
    pub tick_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub ttfr_ms: Vec<f64>,
    pub request_s: Vec<f64>,
    pub queue_ticks: Vec<f64>,
    /// `(launches, rows_computed)` of every tick that launched.
    pub tick_shapes: Vec<(u32, u32)>,
    pub counts: Counts,
    /// Output fingerprint per request, in submission order (0 = never
    /// completed).
    pub hashes: Vec<u64>,
    /// Completions in submission order, kept only on request.
    pub completions: Vec<Option<Completion<f32>>>,
}

impl Rep {
    /// Completed output rows (prefill + decode) per second of wall time.
    pub fn rows_per_s(&self) -> f64 {
        (self.counts.prefill_rows + self.counts.decode_rows) as f64 / self.wall_s
    }

    /// Requests that were rejected, errored, or never completed.
    pub fn failed(&self) -> usize {
        self.hashes.iter().filter(|&&h| h == 0).count()
    }
}

/// Close `span` with lazily built counts, when the run is traced.
fn close(
    recorder: &mut Option<&mut Recorder>,
    span: Option<u32>,
    counts: impl FnOnce() -> Vec<(&'static str, f64)>,
) {
    if let (Some(r), Some(id)) = (recorder.as_deref_mut(), span) {
        r.close(id, counts());
    }
}

/// Run one repetition. `keep` retains the completions (for the reference
/// check); `recorder` turns on spans and the work counter.
pub fn repetition(
    inputs: &Inputs,
    threads: usize,
    keep: bool,
    mut recorder: Option<&mut Recorder>,
) -> Rep {
    let traced = recorder.is_some();
    let (mut scheduler, plans, model) = inputs.scheduler(threads, traced);
    // Cloned outside the timed window, pointed at this scheduler's ids.
    let mut pending: Vec<Option<Request>> = inputs
        .arrivals
        .iter()
        .map(|a| {
            let mut request = a.request.clone();
            match &mut request {
                Request::Plan { plan, request } => request.pattern = plans[*plan].into(),
                Request::Model(request) => request.model = model.expect("model is registered"),
            }
            Some(request)
        })
        .collect();
    let n = pending.len();
    let token_bytes = inputs.token_bytes() as u64;
    let mut rep = Rep {
        wall_s: 0.0,
        tick_ms: Vec::with_capacity(1 << 14),
        submit_us: Vec::with_capacity(n),
        ttfr_ms: Vec::with_capacity(n),
        request_s: Vec::with_capacity(n),
        queue_ticks: Vec::with_capacity(n),
        tick_shapes: Vec::with_capacity(1 << 14),
        counts: Counts::default(),
        hashes: vec![0; n],
        completions: Vec::new(),
    };
    let mut done: Vec<Completion<f32>> = Vec::with_capacity(n);
    // Scheduler ids count accepted submissions; `index_of[id]` maps them
    // back to trace positions when a submission was rejected.
    let mut index_of: Vec<usize> = Vec::with_capacity(n);
    let mut due: Vec<Instant> = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut prior_pool = PoolReport::default();
    let mut prior_dots = 0u64;

    let rep_span = recorder.as_deref_mut().map(|r| r.open("repetition"));
    let started = Instant::now();
    while next < n || !scheduler.is_idle() {
        let loop_start = Instant::now();
        while next < n && inputs.arrivals[next].at <= scheduler.now() {
            let request = pending[next].take().expect("each arrival submits once");
            let span = recorder.as_deref_mut().map(|r| r.open("submit"));
            let t = Instant::now();
            let outcome = match request {
                Request::Plan { request, .. } => scheduler.submit(request),
                Request::Model(request) => scheduler.submit_model(request),
            };
            rep.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            close(&mut recorder, span, || vec![("request", next as f64)]);
            match outcome {
                Ok(id) => {
                    debug_assert_eq!(id.as_u64() as usize, index_of.len());
                    index_of.push(next);
                    due.push(loop_start);
                }
                Err(_) => rep.counts.rejected += 1,
            }
            next += 1;
        }
        let span = recorder.as_deref_mut().map(|r| r.open("tick"));
        let tick_start = Instant::now();
        let outcome = scheduler.tick();
        let tick_end = Instant::now();
        let report = match outcome {
            Ok(report) => report,
            Err(error) => {
                rep.counts.errored += 1;
                close(&mut recorder, span, || vec![("errored", 1.0)]);
                match error {
                    // The tick rolled back; drop the offender, keep serving.
                    ServeError::Launch {
                        request: Some(id), ..
                    } => {
                        scheduler.cancel(id);
                        continue;
                    }
                    // Nothing to cancel: what is outstanding stays failed.
                    _ => break,
                }
            }
        };
        rep.tick_ms
            .push(tick_end.duration_since(tick_start).as_secs_f64() * 1e3);
        let c = &mut rep.counts;
        c.ticks += 1;
        c.launches += report.launches as u64;
        c.rows_computed += report.rows_computed as u64;
        c.admitted += report.admitted.len() as u64;
        c.preemptions += report.preempted.len() as u64;
        c.resumes += report.resumed.len() as u64;
        if report.launches > 0 {
            rep.tick_shapes
                .push((report.launches as u32, report.rows_computed as u32));
        }
        for id in &report.admitted {
            let since = tick_end.duration_since(due[id.as_u64() as usize]);
            rep.ttfr_ms.push(since.as_secs_f64() * 1e3);
        }
        for completion in &report.completed {
            let since = tick_end.duration_since(due[completion.id.as_u64() as usize]);
            rep.request_s.push(since.as_secs_f64());
            rep.queue_ticks.push(completion.queue_ticks() as f64);
        }
        if tick_end.duration_since(started).as_secs() >= REPETITION_LIMIT_S {
            // A stuck scheduler must not hang the run: what is still
            // outstanding stays failed.
            c.errored += 1;
            break;
        }
        let tokens = scheduler.kv_used_tokens() as u64;
        let parked = scheduler.swap_parked_bytes() as u64;
        let used_pages = scheduler.kv_used_pages() as u64;
        c.kv_peak_bytes = c.kv_peak_bytes.max(tokens * token_bytes + parked);
        if used_pages > c.pages_peak_used {
            c.pages_peak_used = used_pages;
            c.tokens_at_peak = tokens;
        }
        if let (Some(r), Some(id)) = (recorder.as_deref_mut(), span) {
            // Counter reads are the traced run's own cost: untraced
            // repetitions never get here.
            let pool = scheduler.engine().pool().metrics().report();
            let dots = scheduler
                .engine()
                .work_report()
                .map_or(0, |w| w.dot_products);
            r.close(
                id,
                vec![
                    ("tick", report.tick as f64),
                    ("launches", report.launches as f64),
                    ("rows_computed", report.rows_computed as f64),
                    ("admitted", report.admitted.len() as f64),
                    ("resumed", report.resumed.len() as f64),
                    ("preempted", report.preempted.len() as f64),
                    ("completed", report.completed.len() as f64),
                    ("dots", (dots - prior_dots) as f64),
                    (
                        "pool_jobs",
                        (pool.jobs_executed - prior_pool.jobs_executed) as f64,
                    ),
                    ("pool_steals", (pool.steals - prior_pool.steals) as f64),
                    (
                        "pool_range_steals",
                        (pool.range_steals - prior_pool.range_steals) as f64,
                    ),
                    ("pool_parks", (pool.parks - prior_pool.parks) as f64),
                    ("kv_used_pages", used_pages as f64),
                    ("kv_used_tokens", tokens as f64),
                    ("swap_parked_bytes", parked as f64),
                ],
            );
            prior_pool = pool;
            prior_dots = dots;
        }
        done.extend(report.completed);
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    close(&mut recorder, rep_span, || {
        vec![("ticks", rep.counts.ticks as f64)]
    });

    // Untimed: totals, fingerprints.
    let c = &mut rep.counts;
    c.swap_peak_bytes = scheduler.swap_peak_bytes() as u64;
    c.swap_fallbacks = scheduler.swap_fallbacks();
    c.pool = scheduler.engine().pool().metrics().report();
    c.dots = scheduler
        .engine()
        .work_report()
        .map_or(0, |w| w.dot_products);
    if keep {
        rep.completions = (0..n).map(|_| None).collect();
    }
    for completion in done {
        let i = index_of[completion.id.as_u64() as usize];
        let prompt = inputs.arrivals[i].request.prompt() as u64;
        c.prefill_rows += prompt;
        c.decode_rows += completion.output.rows() as u64 - prompt;
        // 0 marks "never completed"; a real fingerprint of 0 is remapped.
        rep.hashes[i] = fnv_bits(completion.output.as_slice()).max(1);
        if keep {
            rep.completions[i] = Some(completion);
        }
    }
    rep
}
