//! Decode latency — per-token KV-cached decode cost (tokens/sec) vs
//! context length for each sparse kernel family.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin decode_latency [--quick|--paper]
//! ```

use gpa_bench::experiments::{run_decode, DecodeConfig};
use gpa_bench::{pivot, report, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let mut cfg = DecodeConfig::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Decode latency — KV-cached per-token cost");
    println!(
        "context lengths {:?}, dk = {}, window = {}, {}+{} steps per point\n",
        cfg.context_lengths, cfg.dk, cfg.window, cfg.warmup_steps, cfg.timed_steps
    );

    let records = run_decode(&engine, &cfg, report::progress);

    // Kernel × context length → tokens/sec (the serving-facing number).
    print!(
        "{}",
        pivot(
            "kernel",
            &records,
            &cfg.context_lengths,
            |l| format!("L={l}"),
            |r| r.l,
            |r| format!("{:.0} tok/s", 1.0 / r.mean_s),
        )
    );

    report::save(&args.out_dir, "decode", &records);
}
