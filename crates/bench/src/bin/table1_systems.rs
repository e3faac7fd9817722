//! Table I — system inventory: the paper's three GPU systems (as memory
//! budgets for the capacity model) and the host this reproduction's
//! runtime numbers come from.

use gpa_bench::{ascii_table, Args, HostInfo};
use gpa_memmodel::DeviceProfile;

fn main() {
    let args = Args::from_env();
    let host = HostInfo::detect();

    println!("Table I — systems\n");
    let rows: Vec<Vec<String>> = DeviceProfile::paper_devices()
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                format!("{:.0} GiB", d.mem_bytes as f64 / (1u64 << 30) as f64),
                "capacity model (Fig. 4, Table II)".to_string(),
            ]
        })
        .chain(std::iter::once(vec![
            host.summary(),
            "host RAM".to_string(),
            "runtime benches (Figs. 3, 5, 6; Table III)".to_string(),
        ]))
        .collect();
    print!("{}", ascii_table(&["system", "memory", "used for"], &rows));
    println!(
        "\nworkers: {} threads (override with --threads or GPA_THREADS)",
        args.threads.unwrap_or_else(gpa_parallel::default_threads)
    );
    println!(
        "substitution note: runtime experiments execute on the host CPU via the\n\
         gpa-parallel pool, which launches one block per attention row as the\n\
         paper's CUDA grids do; absolute times are this host's, trends are the paper's."
    );
}
