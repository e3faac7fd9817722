#![warn(missing_docs)]
//! # gpa-distributed — distributed-memory simulation
//!
//! The paper's stated next step (Section VI-A): "to support distributed
//! training across multiple nodes, we will implement distributed memory
//! versions of the algorithms … along with graph partitioning techniques to
//! load balance work across the nodes." This crate builds that layer as a
//! *simulation* on the single-node substrate:
//!
//! - [`partition`]: contiguous sequence partitioning, uniform and
//!   degree-balanced (optimal chain partitioning), with load metrics;
//! - [`comm`]: per-device communication-volume analysis — distinct remote
//!   K/V rows a sparse mask actually needs vs the dense all-gather
//!   baseline — plus a simple makespan model;
//! - [`exec`]: *executed* decompositions verified exact against the
//!   single-device kernels: row distribution (sequence parallelism) — via
//!   explicit mask slices or, for implicit kernels, mask-free
//!   [`gpa_core::Geometry`] query windows — and ring-style KV sharding,
//!   whose per-row softmax-state merge is the correctness core of any
//!   distributed online-softmax attention. KV-cached decode is the
//!   sharding showcase ([`exec::kv_sharded_decode`]): one query row
//!   merged across shards through the same `(O, l, m)` reduction.

pub mod comm;
pub mod exec;
pub mod partition;

pub use comm::{analyze, CommStats, DeviceCost};
pub use exec::{
    kv_sharded_attention, kv_sharded_decode, row_distributed_attention,
    row_distributed_windowed_attention,
};
pub use partition::RowPartition;

#[cfg(test)]
mod proptests {
    use super::*;
    use gpa_core::{AttentionEngine, AttentionKernel};
    use gpa_masks::{MaskPattern, RandomUniform};
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Both decompositions are exact for random masks and device counts.
        #[test]
        fn decompositions_are_exact(
            l in 8usize..48,
            p in 0.05f64..0.7,
            devices in 1usize..6,
            seed in 0u64..300,
        ) {
            let engine = AttentionEngine::with_threads(2);
            let (q, k, v) = qkv::<f64>(l, 8, seed);
            let mask = RandomUniform::new(l, p, seed ^ 3).to_csr();
            let single = engine.run_kernel(AttentionKernel::Csr(&mask), &q, &k, &v).unwrap();

            let part = RowPartition::uniform(l, devices);
            let rows = row_distributed_attention(&engine, &mask, &q, &k, &v, &part);
            prop_assert!(paper_allclose(&rows, &single));

            let sharded = kv_sharded_attention(&engine, &mask, &q, &k, &v, devices);
            prop_assert!(paper_allclose(&sharded, &single));
        }

        /// Partition invariants: full disjoint contiguous cover; edge loads
        /// sum to nnz; balanced never worse than uniform.
        #[test]
        fn partition_invariants(
            l in 1usize..128,
            p in 0.01f64..0.5,
            devices in 1usize..10,
            seed in 0u64..300,
        ) {
            let mask = RandomUniform::new(l, p, seed).to_csr();
            for part in [RowPartition::uniform(l, devices),
                         RowPartition::degree_balanced(&mask, devices)] {
                let covered: usize = part.ranges().iter().map(|r| r.len()).sum();
                prop_assert_eq!(covered, l);
                let mut next = 0;
                for r in part.ranges() {
                    prop_assert_eq!(r.start, next);
                    next = r.end;
                }
                prop_assert_eq!(part.edge_loads(&mask).iter().sum::<u64>(), mask.nnz() as u64);
            }
            let uni = RowPartition::uniform(l, devices);
            let bal = RowPartition::degree_balanced(&mask, devices);
            prop_assert!(bal.edge_loads(&mask).iter().max() <= uni.edge_loads(&mask).iter().max());
        }

        /// Communication accounting: edges conserved; remote rows bounded by
        /// the shard-external context.
        #[test]
        fn comm_invariants(
            l in 4usize..64,
            p in 0.05f64..0.6,
            devices in 1usize..6,
            seed in 0u64..300,
        ) {
            let mask = RandomUniform::new(l, p, seed).to_csr();
            let part = RowPartition::uniform(l, devices);
            let stats = analyze(&mask, &part, 16, 2);
            prop_assert_eq!(stats.total_edges(), mask.nnz() as u64);
            for (d, range) in part.ranges().iter().enumerate() {
                let outside = (l - range.len()) as u64;
                prop_assert!(stats.devices[d].remote_rows <= outside);
            }
            prop_assert!(stats.total_bytes() <= CommStats::all_gather_bytes(&part, 16, 2));
        }
    }
}
