//! The serving benchmark's one command.
//!
//! `gpa-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//! generates the workload's inputs from the seed, drives them through
//! `gpa_serve::Scheduler` (public API only), prints every metric by name
//! with its unit, checks the outputs, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Untraced runs
//! report the end-to-end metrics; `--trace 1` reports the per-layer ones
//! and writes the span log. See `benchmark/README.md`.

mod drive;
mod host;
mod ladder;
mod spans;
mod stats;
mod workloads;

use drive::{repetition, Rep};
use spans::Recorder;
use stats::{median, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Spec};

/// Set-ups (input generation through warm-up) per untraced run. The
/// driver's contract asks for several, so that `setup_s` is a median; the
/// timed repetitions are split evenly between them.
const ROUNDS: usize = 3;

/// Engine workers on every workload, capped by the box's CPUs.
const ENGINE_THREADS: usize = 2;

/// `--seconds` when it is not given: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 24.0;

/// Format a number for JSON: shortest round-trip form, all digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, RUN_SECONDS, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    let name = workload.ok_or(format!("--workload <{}> is required", names.join("|")))?;
    let workload = workloads::ALL
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or(format!(
            "unknown workload {name}; one of {}",
            names.join(", ")
        ))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<ladder::Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("{name:<28} {value:>18.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Tallies `attempted` / `failed` over every repetition run, warm-ups
/// included: a request fails when it was rejected, errored, never
/// completed, hashed differently from the first warm-up, or when its
/// warm-up twin disagreed with the sequential reference.
struct Verdict {
    expected: Vec<u64>,
    attempted: usize,
    completed: usize,
    failed: usize,
}

impl Verdict {
    /// `expected`: the first warm-up's fingerprints.
    fn new(expected: &[u64]) -> Self {
        Verdict {
            expected: expected.to_vec(),
            attempted: 0,
            completed: 0,
            failed: 0,
        }
    }

    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.hashes.len();
        self.completed += rep.hashes.len() - rep.failed();
        self.failed += rep
            .hashes
            .iter()
            .zip(&self.expected)
            .filter(|(&got, &want)| got == 0 || got != want)
            .count();
    }

    /// Compare every `stride`-th completion of `warm` bitwise with the
    /// one-sequence-at-a-time serve. A mismatch poisons that request in
    /// every repetition (they all hash the same), so it counts once per
    /// repetition already tallied.
    fn check_reference(&mut self, inputs: &Inputs, warm: &Rep, threads: usize) -> usize {
        let engine = gpa_core::AttentionEngine::with_threads(threads);
        let reps = self.attempted / self.expected.len();
        let mut checked = 0;
        for i in (0..warm.completions.len()).step_by(inputs.spec.check_stride) {
            checked += 1;
            let same = warm.completions[i]
                .as_ref()
                .is_some_and(|c| c.output == inputs.reference(&engine, i));
            if !same && warm.hashes[i] == self.expected[i] {
                self.failed += reps;
            }
        }
        checked
    }
}

fn fingerprint(args: &Args, threads: usize, spinners: usize) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".into());
    println!(
        "host: nproc={} engine_threads={threads} idle_spinners={spinners} GPA_THREADS={} rustc=\"{}\" commit={} seed={} workload={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env("GPA_THREADS"),
        env("GPA_BENCH_RUSTC"),
        env("GPA_BENCH_COMMIT"),
        args.seed,
        args.workload.name,
        args.seconds,
        u8::from(args.trace),
    );
}

fn finish(verdict: &Verdict, correct: bool, metrics: &Metrics) -> ExitCode {
    metrics.print();
    println!(
        "requests: submitted={} completed={} failed={}",
        verdict.attempted, verdict.completed, verdict.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        verdict.attempted,
        verdict.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// One per-request or per-tick series of every repetition, end to end.
fn pooled(reps: &[Rep], series: fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| series(r).iter().copied())
        .collect()
}

/// The untraced run: `ROUNDS` set-ups, the timed repetitions split
/// between them, end-to-end metrics.
fn timed_run(args: &Args, threads: usize, process_start: Instant) -> ExitCode {
    let spec = args.workload;
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut verdict: Option<Verdict> = None;
    let timed_start = Instant::now();
    for round in 0..ROUNDS {
        // Round 0's set-up runs from process start; later rounds redo it
        // from scratch (same seed, same inputs) so the median is over
        // whole set-ups.
        let started = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let inputs = Inputs::build(spec, args.seed);
        let last = round == ROUNDS - 1;
        let warm = repetition(&inputs, threads, last, None);
        let verdict = verdict.get_or_insert_with(|| Verdict::new(&warm.hashes));
        verdict.add(&warm);
        for _ in 1..spec.warm_ups {
            verdict.add(&repetition(&inputs, threads, false, None));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        // Repeat while the next repetition is expected to end nearer
        // the round's deadline than this one did.
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / ROUNDS as f64);
        loop {
            let rep = repetition(&inputs, threads, false, None);
            let half = Duration::from_secs_f64(rep.wall_s / 2.0);
            verdict.add(&rep);
            reps.push(rep);
            if Instant::now() + half >= deadline {
                break;
            }
        }
        if last {
            let checked = verdict.check_reference(&inputs, &warm, threads);
            println!(
                "reference: {checked} of {} requests compared bitwise",
                spec.requests
            );
        }
    }
    let verdict = verdict.expect("at least one round ran");
    println!(
        "timed: {} repetitions in {:.2} s; set-ups {:?}",
        reps.len(),
        timed_start.elapsed().as_secs_f64(),
        setup_s,
    );
    println!(
        "repetition walls: {:?}",
        reps.iter()
            .map(|r| (r.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let first = &reps[0].counts;
    println!(
        "per repetition: ticks={} launches={} rows_computed={} preemptions={} resumes={}",
        first.ticks, first.launches, first.rows_computed, first.preemptions, first.resumes
    );
    // Throughput is the median over repetitions; latencies are pooled
    // over all of them, so a p90 has a tenth of several hundred samples
    // beyond it.
    let ticks = pooled(&reps, |r| &r.tick_ms);
    let ttfr = pooled(&reps, |r| &r.ttfr_ms);
    let request = pooled(&reps, |r| &r.request_s);
    println!(
        "pooled samples: ticks={} ttfr={} requests={}",
        ticks.len(),
        ttfr.len(),
        request.len()
    );
    let rates: Vec<f64> = reps.iter().map(Rep::rows_per_s).collect();
    let mut m = Metrics::default();
    m.push("rows_per_s", median(&rates), "rows/s");
    m.push("tick_p50_ms", percentile(&ticks, 50.0), "ms");
    m.push("ttfr_p50_ms", percentile(&ttfr, 50.0), "ms");
    m.push("request_p50_s", percentile(&request, 50.0), "s");
    m.push("request_p90_s", percentile(&request, 90.0), "s");
    m.push(
        "kv_peak_bytes",
        reps.iter()
            .map(|r| r.counts.kv_peak_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );
    m.push("setup_s", median(&setup_s), "s");
    finish(&verdict, verdict.failed == 0, &m)
}

/// The traced run: one set-up, untraced and traced repetitions
/// alternating, then the layer ladder; per-layer metrics.
fn traced_run(args: &Args, threads: usize, spinners: usize, process_start: Instant) -> ExitCode {
    let spec = args.workload;
    let mut rec = Recorder::new(process_start);
    let run = rec.open("run");
    let setup = rec.open("setup");
    let inputs = Inputs::build(spec, args.seed);
    let warm = repetition(&inputs, threads, true, None);
    rec.close(setup, vec![("masks_build_s", inputs.masks_build_s)]);
    let mut verdict = Verdict::new(&warm.hashes);
    verdict.add(&warm);

    // A fifth of an untraced run's repetitions, half of them traced.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 5.0);
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    loop {
        plain.push(repetition(&inputs, threads, false, None));
        traced.push(repetition(&inputs, threads, false, Some(&mut rec)));
        if Instant::now() >= deadline && plain.len() >= 2 {
            break;
        }
    }
    for rep in plain.iter().chain(&traced) {
        verdict.add(rep);
    }

    let counts = traced[0].counts;
    let ticks = pooled(&traced, |r| &r.tick_ms);
    let launch_rows: Vec<f64> = warm
        .tick_shapes
        .iter()
        .map(|&(launches, rows)| f64::from(rows) / f64::from(launches))
        .collect();
    let tick_rows: Vec<f64> = warm
        .tick_shapes
        .iter()
        .map(|&(_, r)| f64::from(r))
        .collect();
    let tick_launches: Vec<f64> = warm
        .tick_shapes
        .iter()
        .map(|&(l, _)| f64::from(l))
        .collect();
    let (edges, dense) = inputs.expected_edges();
    let contexts: Vec<f64> = inputs
        .arrivals
        .iter()
        .map(|a| (a.request.prompt() + a.request.total()) as f64 / 2.0)
        .collect();
    let shape = ladder::Shape {
        rows_per_launch: median(&launch_rows) as usize,
        context: median(&contexts) as usize,
        edges_per_row: (edges / counts.rows_computed.max(1)) as usize,
    };
    println!("ladder shape: {shape:?}");
    let probes = ladder::run(&inputs, shape, threads, args.seed, &mut rec);

    let checked = verdict.check_reference(&inputs, &warm, threads);
    println!(
        "reference: {checked} of {} requests compared bitwise",
        spec.requests
    );
    rec.close(run, Vec::new());
    let path = args.out.join(format!("{}.trace.jsonl", spec.name));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans in {}", rec.spans().len(), path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let work_ratio = counts.dots as f64 / edges as f64;
    let (csr_nnz, csr_bytes) = inputs.csr_footprint();
    let tick_p50_ms = percentile(&ticks, 50.0);
    let tick_total_s: f64 = traced[0].tick_ms.iter().sum::<f64>() / 1e3;
    // What the ladder says the median tick's launches cost; the rest of
    // the tick is the scheduler's own: an estimate by subtraction.
    let launched_s = if inputs.model().is_some() {
        probes.advance_s
    } else {
        median(&tick_launches) * probes.launch_s
    };
    let rate = |reps: &[Rep]| median(&reps.iter().map(Rep::rows_per_s).collect::<Vec<_>>());
    let pool = counts.pool;

    // The ladder's own probes first, then what the serving run counted,
    // layer by layer.
    let mut m = Metrics(probes.metrics);
    m.push("masks.build_s", inputs.masks_build_s, "s");
    m.push("sparse.nnz", csr_nnz as f64, "count");
    m.push(
        "sparse.sf_achieved",
        counts.dots as f64 / dense as f64,
        "ratio",
    );
    m.push("sparse.csr_bytes", csr_bytes as f64, "bytes");
    m.push("kernel.dots", counts.dots as f64, "count");
    m.push("kernel.work_ratio", work_ratio, "ratio");
    m.push(
        "kernel.tick_share",
        counts.dots as f64 * probes.ns_per_edge / 1e9 / threads as f64 / tick_total_s,
        "ratio",
    );
    m.push("batch.launches", counts.launches as f64, "count");
    m.push("batch.rows_per_launch", median(&launch_rows), "rows");
    m.push("pool.jobs", pool.jobs_executed as f64, "count");
    m.push("pool.steals", pool.steals as f64, "count");
    m.push("pool.range_steals", pool.range_steals as f64, "count");
    m.push("pool.parks", pool.parks as f64, "count");
    m.push(
        "pool.steal_hit_ratio",
        pool.steals as f64 / pool.steal_attempts.max(1) as f64,
        "ratio",
    );
    m.push("pages.peak_used", counts.pages_peak_used as f64, "pages");
    m.push(
        "pages.fill_ratio",
        counts.tokens_at_peak as f64
            / (counts.pages_peak_used.max(1) * spec.page_size as u64) as f64,
        "ratio",
    );
    m.push("swap.peak_bytes", counts.swap_peak_bytes as f64, "bytes");
    m.push("swap.fallbacks", counts.swap_fallbacks as f64, "count");
    m.push("model.launches_per_tick", median(&tick_launches), "count");
    m.push("serve.ticks", counts.ticks as f64, "count");
    m.push("serve.tick_p99_ms", percentile(&ticks, 99.0), "ms");
    m.push("serve.tick_max_ms", percentile(&ticks, 100.0), "ms");
    m.push(
        "serve.tick_self_us_p50",
        ((tick_p50_ms / 1e3 - launched_s) * 1e6).max(0.0),
        "us",
    );
    m.push(
        "serve.submit_us",
        percentile(&pooled(&traced, |r| &r.submit_us), 50.0),
        "us",
    );
    m.push("serve.batch_rows_p50", median(&tick_rows), "rows");
    m.push("serve.prefill_rows", counts.prefill_rows as f64, "rows");
    m.push("serve.decode_rows", counts.decode_rows as f64, "rows");
    m.push("serve.admitted", counts.admitted as f64, "count");
    m.push(
        "serve.rejected",
        (counts.rejected + counts.errored) as f64,
        "count",
    );
    m.push("serve.preemptions", counts.preemptions as f64, "count");
    m.push("serve.resumes", counts.resumes as f64, "count");
    m.push(
        "serve.queue_ticks_p50",
        percentile(&pooled(&traced, |r| &r.queue_ticks), 50.0),
        "ticks",
    );
    m.push(
        "trace.overhead_share",
        1.0 - rate(&traced) / rate(&plain),
        "ratio",
    );
    m.push("host.idle_spinners", spinners as f64, "count");
    let correct = verdict.failed == 0 && work_ratio == 1.0;
    finish(&verdict, correct, &m)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gpa-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    // The harness is one thread; the engine gets the same worker count on
    // every workload whatever GPA_THREADS says (it is recorded, not
    // obeyed), so numbers from different shells compare.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ENGINE_THREADS.min(nproc);
    // Held to the end of main: keeps the vCPUs out of the host's halt path.
    let awake = host::KeepAwake::start(nproc);
    fingerprint(&args, threads, awake.active);
    if args.trace {
        traced_run(&args, threads, awake.active, process_start)
    } else {
        timed_run(&args, threads, process_start)
    }
}
