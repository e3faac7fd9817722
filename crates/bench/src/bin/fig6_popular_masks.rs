//! Fig. 6 — Longformer and BigBird masks: masked SDP vs sequential kernel
//! composition vs a single CSR call.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin fig6_popular_masks [--quick|--paper]
//! ```

use gpa_bench::experiments::fig6::Fig6Mask;
use gpa_bench::experiments::{run_fig6, Fig6Config};
use gpa_bench::{fmt_seconds, pivot, report, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let mut cfg = Fig6Config::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Fig. 6 — popular attention masks");
    println!(
        "(window {}, {} globals, dilation {}, random Sf {})",
        cfg.window, cfg.n_globals, cfg.dilation, cfg.random_sf
    );

    let records = run_fig6(&engine, &cfg, report::progress);

    for mask in Fig6Mask::ALL {
        println!("\n{}:", mask.label());
        print!(
            "{}",
            pivot(
                "series",
                records.iter().filter(|r| r.note == mask.label()),
                &cfg.ls,
                |l| format!("L={l}"),
                |r| r.l,
                |r| fmt_seconds(r.mean_s),
            )
        );
    }

    report::save(&args.out_dir, "fig6", &records);
}
