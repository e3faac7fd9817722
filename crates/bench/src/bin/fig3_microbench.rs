//! Fig. 3 — microbenchmark sweep: six graph kernels + masked SDP across
//! context length, embedding dimension, and sparsity factor.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin fig3_microbench [--quick|--paper]
//! ```

use gpa_bench::experiments::{run_fig3, Fig3Config};
use gpa_bench::{fmt_seconds, pivot, report, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let mut cfg = Fig3Config::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Fig. 3 — microbenchmarks");
    println!(
        "L = {:?}, dk = {:?}, {} sparsity points; protocol {:?}",
        cfg.ls,
        cfg.dks,
        cfg.sfs.len(),
        cfg.protocol
    );

    let records = run_fig3(&engine, &cfg, report::progress);

    // One table per (L, dk): algorithms × sparsity (the paper's panels).
    for &l in &cfg.ls {
        for &dk in &cfg.dks {
            println!("\nL = {l}, dk = {dk} (mean runtime)");
            print!(
                "{}",
                pivot(
                    "algo",
                    records.iter().filter(|r| r.l == l && r.dk == dk),
                    &cfg.sfs,
                    |sf| format!("Sf={sf:.0e}"),
                    |r| r.sf_target,
                    |r| fmt_seconds(r.mean_s),
                )
            );
        }
    }

    report::save(&args.out_dir, "fig3", &records);
}
