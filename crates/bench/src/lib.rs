#![warn(missing_docs)]
//! # gpa-bench — the paper's evaluation harness
//!
//! Reproduces every table and figure of the IPDPS 2025 evaluation
//! (Section V) on the CPU substrate, at three scales (`--quick`, default,
//! `--paper`). One binary per experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_systems` | Table I (device/host inventory) |
//! | `fig3_microbench` | Fig. 3 (kernel × Sf × L × dk sweep) |
//! | `fig4_table2_memlimits` | Fig. 4 + Table II (capacity model) |
//! | `table3_longcontext` | Table III (long-context ladder) |
//! | `fig5_tradeoff` | Fig. 5 (flash vs local trade-off) |
//! | `fig6_popular_masks` | Fig. 6 (Longformer/BigBird masks) |
//! | `ablations` | DESIGN.md §3 ablations A1–A3 |
//!
//! Each prints an ASCII table and writes `results/<experiment>.csv`.
//! The library half (this crate) carries the measurement protocol
//! ([`protocol`]), record/reporting plumbing ([`report`]), the owned
//! algorithm cases ([`kernels`]), and the experiment runners
//! ([`experiments`]) shared by the binaries and the Criterion benches.

pub mod args;
pub mod experiments;
pub mod host;
pub mod kernels;
pub mod protocol;
pub mod report;

pub use args::{Args, Scale};
pub use host::HostInfo;
pub use kernels::{fitted_case, AlgoId, OwnedKernel};
pub use protocol::{measure, measure_auto, speedup, BenchStat, Protocol};
pub use report::{ascii_table, fmt_count, fmt_seconds, write_csv, Record};
