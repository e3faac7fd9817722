#![warn(missing_docs)]
//! # gpa-memmodel — accelerator memory model
//!
//! The analytic half of the paper's evaluation: "theoretical context length
//! limits … calculated by solving inequalities that relate the total GPU
//! memory to the amount of memory occupied by tensors during runtime"
//! (Section V-D). This crate reproduces Fig. 4 and Table II:
//!
//! - [`device`]: the three paper GPUs (Table I) as memory budgets;
//! - [`layout`]: per-algorithm byte accounting, in two modes — the paper's
//!   (reverse-engineered from Table II, accurate to ≲0.5%) and a
//!   principled account of this repository's own data structures;
//! - [`solve`]: exact integer max-`L` via monotone bisection;
//! - [`table2`] / [`fig4`]: the published table and figure, with the
//!   paper's values embedded for regression testing.

pub mod device;
pub mod fig4;
pub mod layout;
pub mod solve;
pub mod table2;

pub use device::{DeviceProfile, A100_80GB};
pub use fig4::{fig4_all_panels, sparsity_grid, Fig4Panel, Fig4Series};
pub use layout::{Accounting, DType, MemAlgorithm, MemConfig};
pub use solve::max_context_length;
pub use table2::{paper_value, table2_row, Table2Cell, Table2RowSpec, TABLE2_ROWS};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::device::GIB;
    use crate::layout::bytes_required;
    use proptest::prelude::*;

    fn arb_algo() -> impl Strategy<Value = MemAlgorithm> {
        proptest::sample::select(MemAlgorithm::ALL.to_vec())
    }

    proptest! {
        /// The solver's answer is always tight: L fits, L+1 does not.
        #[test]
        fn solver_tightness(
            algo in arb_algo(),
            d_exp in 4usize..9,
            sf in 1e-5f64..0.99,
            mem_gib in 1u64..128,
        ) {
            let device = DeviceProfile::custom("x", mem_gib * GIB);
            let cfg = MemConfig {
                algo,
                dtype: DType::F16,
                d_total: 1 << d_exp,
                heads: 1,
                sf,
                accounting: Accounting::PaperCalibrated,
            };
            if let Some(l) = max_context_length(&device, &cfg) {
                let budget = device.mem_bytes as f64;
                prop_assert!(bytes_required(&cfg, l as f64) <= budget);
                prop_assert!(bytes_required(&cfg, (l + 1) as f64) > budget);
            }
        }

        /// Capacity is monotone: more memory never shrinks max L; a denser
        /// mask never grows it.
        #[test]
        fn capacity_monotonicity(
            algo in arb_algo(),
            sf_lo in 1e-5f64..1e-2,
            sf_mult in 1.5f64..50.0,
        ) {
            let cfg_sparse = MemConfig {
                algo,
                dtype: DType::F16,
                d_total: 64,
                heads: 1,
                sf: sf_lo,
                accounting: Accounting::PaperCalibrated,
            };
            let mut cfg_dense = cfg_sparse;
            cfg_dense.sf = (sf_lo * sf_mult).min(1.0);
            let a = max_context_length(&A100_80GB, &cfg_sparse);
            let b = max_context_length(&A100_80GB, &cfg_dense);
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert!(a >= b, "sparser {a} must be ≥ denser {b}");
            }
            let small = DeviceProfile::custom("s", 8 * GIB);
            let c = max_context_length(&small, &cfg_sparse);
            if let (Some(a), Some(c)) = (a, c) {
                prop_assert!(a >= c);
            }
        }
    }
}
