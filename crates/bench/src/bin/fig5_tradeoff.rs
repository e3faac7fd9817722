//! Fig. 5 — FlashAttention vs local attention with constant window (left)
//! and constant sparsity (right) as context length grows.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin fig5_tradeoff [--quick|--paper]
//! ```

use gpa_bench::experiments::{run_fig5, Fig5Config};
use gpa_bench::{fmt_seconds, pivot, report, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let mut cfg = Fig5Config::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Fig. 5 — FlashAttention vs Local");
    let records = run_fig5(&engine, &cfg, report::progress);

    // Series (rows) × context length (columns), like the paper's panels.
    print!(
        "{}",
        pivot(
            "series",
            &records,
            &cfg.ls,
            |l| format!("L={l}"),
            |r| r.l,
            |r| {
                let star = if r.iters == 0 { "*" } else { "" };
                format!("{}{star}", fmt_seconds(r.mean_s))
            },
        )
    );
    println!("(*: extrapolated from the largest measured dense run via O(L^2))");

    report::save(&args.out_dir, "fig5", &records);
}
