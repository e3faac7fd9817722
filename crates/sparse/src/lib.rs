#![warn(missing_docs)]
//! # gpa-sparse — sparse mask substrate
//!
//! The paper's graph view of attention stores the mask as the adjacency
//! structure of a token graph. This crate provides the two explicit storage
//! formats the kernels consume —
//!
//! - [`CooMask`]: sorted coordinate pairs (the paper's COO kernel input,
//!   including the linear row-bound search that explains its cost profile),
//! - [`CsrMask`]: row offsets + column indices (the paper's
//!   best-performing explicit format), with the set algebra (union,
//!   difference, disjointness — all one sorted [`merge`]) used to compose
//!   mask patterns,
//!
//! — plus [`DenseMask`], a bitset view for the SDP baseline and
//! verification, and [`stats`] with the degree/imbalance statistics behind
//! the Section V-C load-balance analysis.
//!
//! Column indices are stored as `u32` ([`Idx`]): the paper's largest
//! context length (160 M, Section V-D) fits comfortably, and halving index
//! bytes matters because explicit-mask memory is the capacity limiter
//! (Table II).

pub mod coo;
pub mod csr;
pub mod dense_mask;
pub mod dia;
pub mod error;
pub mod stats;

/// Index type for rows/columns in sparse storage (u32: enough for the
/// paper's 160 M-token contexts while halving mask memory vs u64).
pub type Idx = u32;

pub use coo::CooMask;
pub use csr::{merge, CsrMask};
pub use dense_mask::DenseMask;
pub use dia::DiaMask;
pub use error::SparseError;
pub use stats::{degree_stats, DegreeStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_entries(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0..n, 0..n), 0..200)
    }

    proptest! {
        /// COO → CSR → COO is the identity.
        #[test]
        fn coo_csr_roundtrip(entries in arb_entries(40)) {
            let coo = CooMask::from_entries(40, 40, entries).unwrap();
            let csr = CsrMask::from_coo(&coo);
            prop_assert_eq!(csr.to_coo(), coo);
        }

        /// Dense ↔ sparse conversions preserve membership exactly.
        #[test]
        fn dense_sparse_membership(entries in arb_entries(24)) {
            let coo = CooMask::from_entries(24, 24, entries).unwrap();
            let dense = DenseMask::from_coo(&coo);
            let csr = CsrMask::from_coo(&coo);
            for i in 0..24 {
                for j in 0..24 {
                    prop_assert_eq!(dense.get(i, j), coo.contains(i, j));
                    prop_assert_eq!(dense.get(i, j), csr.contains(i, j));
                }
            }
            prop_assert_eq!(dense.nnz(), coo.nnz());
        }

        /// Set-algebra identities: |A∪B| + |A∩B| = |A| + |B|, and
        /// A = (A∖B) ∪ (A∩B) with the two parts disjoint, where
        /// A∩B = A∖(A∖B).
        #[test]
        fn set_algebra_identities(ea in arb_entries(20), eb in arb_entries(20)) {
            let a = CsrMask::from_coo(&CooMask::from_entries(20, 20, ea).unwrap());
            let b = CsrMask::from_coo(&CooMask::from_entries(20, 20, eb).unwrap());
            let union = a.union(&b);
            let diff = a.difference(&b);
            let inter = a.difference(&diff);
            prop_assert_eq!(union.nnz() + inter.nnz(), a.nnz() + b.nnz());
            prop_assert_eq!(diff.union(&inter), a.clone());
            prop_assert_eq!(diff.difference(&diff.difference(&b)).nnz(), 0);
            // Union is commutative.
            prop_assert_eq!(union, b.union(&a));
        }

        /// Linear and binary row-bound searches agree on every row, and the
        /// linear scan inspects exactly the prefix up to the row's end.
        #[test]
        fn row_bounds_agree(entries in arb_entries(32)) {
            let coo = CooMask::from_entries(32, 32, entries).unwrap();
            for row in 0..32 {
                let (blo, bhi) = coo.row_bounds_binary(row);
                let (llo, lhi, scanned) = coo.row_bounds_linear(row);
                prop_assert_eq!((blo, bhi), (llo, lhi));
                prop_assert!(scanned >= bhi);
                prop_assert!(scanned <= coo.nnz());
            }
        }

        /// Degree stats are consistent with direct degree computation.
        #[test]
        fn degree_stats_consistent(entries in arb_entries(16)) {
            let csr = CsrMask::from_coo(&CooMask::from_entries(16, 16, entries).unwrap());
            let s = degree_stats(&csr);
            let degrees: Vec<usize> = (0..16).map(|r| csr.degree(r)).collect();
            prop_assert_eq!(s.max, *degrees.iter().max().unwrap());
            prop_assert_eq!(s.min, *degrees.iter().min().unwrap());
            let mean = degrees.iter().sum::<usize>() as f64 / 16.0;
            prop_assert!((s.mean - mean).abs() < 1e-12);
            prop_assert!(s.imbalance >= 1.0 - 1e-12 || s.mean == 0.0);
        }
    }
}
