//! Experiment runners — one module per paper table/figure, plus the two
//! sweeps no `benchmark/` workload covers (ablations A1–A3, kernel family ×
//! context length at decode). Each module is its
//! `Config::for_scale` and the cases it times through a `Sink`.

pub mod ablations;
pub mod decode;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod table3;

pub use ablations::{run_ablations, AblationConfig};
pub use decode::{run_decode, DecodeConfig};
pub use fig3::{run_fig3, Fig3Config};
pub use fig5::{run_fig5, Fig5Config};
pub use fig6::{run_fig6, Fig6Config};
pub use table3::{run_table3, Table3Config};
