//! Table III — long-context runtimes under the LongNet sparsity schedule
//! (`Sf = 2730/L`): FlashAttention vs Local vs CSR.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin table3_longcontext [--quick|--paper]
//! ```

use gpa_bench::experiments::{run_table3, Table3Config};
use gpa_bench::{ascii_table, fmt_seconds, report, speedup, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let mut cfg = Table3Config::for_scale(args.scale);
    cfg.seed = args.seed;

    report::header("Table III — long-context ladder (LongNet schedule Sf = 2730/L)");
    let records = run_table3(&engine, &cfg, report::progress);

    // One rung per L, FlashAttention first: the speedup's baseline.
    let rows: Vec<Vec<String>> = records
        .chunk_by(|a, b| a.l == b.l)
        .flat_map(|rung| {
            rung.iter().enumerate().map(|(i, r)| {
                vec![
                    if i == 0 {
                        r.l.to_string()
                    } else {
                        String::new()
                    },
                    r.algo.clone(),
                    if r.sf_target.is_nan() {
                        "—".into()
                    } else {
                        format!("{:.1e}", r.sf_achieved)
                    },
                    fmt_seconds(r.mean_s),
                    format!("{:.2}x", speedup(rung[0].mean_s, r.mean_s)),
                    r.note.clone(),
                ]
            })
        })
        .collect();
    print!(
        "{}",
        ascii_table(
            &[
                "L",
                "algorithm",
                "Sf",
                "mean runtime",
                "speedup vs Flash",
                "note"
            ],
            &rows
        )
    );

    report::save(&args.out_dir, "table3", &records);
}
