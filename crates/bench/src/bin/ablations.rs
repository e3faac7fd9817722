//! Ablation studies A1 and A3: COO search strategy and flash tile size.
//! There is no A2: launches have no schedule to ablate.
//!
//! ```text
//! cargo run -p gpa-bench --release --bin ablations [--quick]
//! ```

use gpa_bench::experiments::{run_ablations, AblationConfig};
use gpa_bench::{ascii_table, fmt_seconds, report, Args};

fn main() {
    let args = Args::from_env();
    let engine = args.make_engine();
    let cfg = AblationConfig::for_scale(args.scale);

    report::header("Ablations A1 and A3");
    let records = run_ablations(&engine, &cfg, report::progress);

    for (exp, title) in [
        (
            "ablation_a1",
            "A1 — COO row-bound search (linear = paper, binary = fix)",
        ),
        ("ablation_a3", "A3 — FlashAttention K/V tile size"),
    ] {
        let rows: Vec<Vec<String>> = records
            .iter()
            .filter(|r| r.experiment == exp)
            .map(|r| {
                vec![
                    r.algo.clone(),
                    format!("L={}", r.l),
                    if r.sf_target.is_nan() {
                        "—".into()
                    } else {
                        format!("Sf={:.0e}", r.sf_target)
                    },
                    fmt_seconds(r.mean_s),
                    r.note.clone(),
                ]
            })
            .collect();
        println!("\n{title}:");
        print!(
            "{}",
            ascii_table(&["variant", "L", "Sf", "mean runtime", "note"], &rows)
        );
    }

    report::save(&args.out_dir, "ablations", &records);
}
