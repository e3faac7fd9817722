//! Adaptive-sparsity trade-off surface — dense vs static-sparse vs
//! content-routed attention across pattern × group count × context length,
//! with measured work, tokens/sec, and working-set memory per point.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin adaptive_sparsity [--quick|--paper]
//! ```

use gpa_bench::experiments::{run_adaptive, AdaptiveConfig};
use gpa_bench::{fmt_seconds, pivot, report, Args};
use gpa_core::AttentionEngine;

fn main() {
    let args = Args::from_env();
    // The surface's work axis is *measured*, so this bin always builds a
    // counting engine instead of `args.make_engine()`.
    let engine = AttentionEngine::builder()
        .threads(args.threads.unwrap_or_else(gpa_parallel::default_threads))
        .count_work(true)
        .build();
    let mut cfg = AdaptiveConfig::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Adaptive sparsity — routed block-diagonal vs dense/static");
    let records = run_adaptive(&engine, &cfg, report::progress);

    // Pattern (rows) × context length (columns), cells "time / work-frac".
    print!(
        "{}",
        pivot(
            "pattern",
            &records,
            &cfg.ls,
            |l| format!("L={l}"),
            |r| r.l,
            |r| format!("{} / {:.4}", fmt_seconds(r.mean_s), r.sf_achieved),
        )
    );
    println!("(cell: mean time / measured work as a fraction of dense L²; tokens/s is L / time)");

    report::save(&args.out_dir, "adaptive", &records);
}
