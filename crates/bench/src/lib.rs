#![warn(missing_docs)]
//! # gpa-bench — the paper's evaluation harness
//!
//! Reproduces every table and figure of the IPDPS 2025 evaluation
//! (Section V) on the CPU substrate, at three scales (`--quick`, default,
//! `--paper`). One binary per experiment:
//!
//! | Binary | What it reproduces | CSV |
//! |---|---|---|
//! | `table1_systems` | Table I (device/host inventory) | — |
//! | `fig3_microbench` | Fig. 3 (kernel × Sf × L × dk sweep) | `fig3` |
//! | `fig4_table2_memlimits` | Fig. 4 + Table II (capacity model) | `fig4` |
//! | `table3_longcontext` | Table III (long-context ladder) | `table3` |
//! | `fig5_tradeoff` | Fig. 5 (flash vs local trade-off) | `fig5` |
//! | `fig6_popular_masks` | Fig. 6 (Longformer/BigBird masks) | `fig6` |
//! | `decode_latency` | kernel family × context length at KV-cached decode | `decode` |
//!
//! The last is not in the paper; it stays because no workload of the
//! serving benchmark (`benchmark/`, `bash benchmark/run.sh --workload …`)
//! varies what it varies, and no other binary times one-row KV-cached
//! decode steps. Everything about *serving* — tick latency,
//! admission, preemption, the pool's launch cost — is measured there.
//!
//! Each binary prints an ASCII table and writes `<out>/<csv>.csv`. The
//! library half (this crate) carries the measurement protocol
//! ([`protocol`]), the record sink, pivot table and CSV plumbing
//! ([`report`]), and the experiment runners ([`experiments`]), each of
//! which builds its masks and kernels in place.

pub mod args;
pub mod experiments;
pub mod host;
pub mod protocol;
pub mod report;

pub use args::{Args, Scale};
pub use host::HostInfo;
pub use protocol::{speedup, Protocol};
pub use report::{ascii_table, fmt_count, fmt_seconds, pivot, Record};
