//! Executed distributed simulation: the two decompositions of Algorithm 1,
//! run locally with one simulated device at a time and verified exact.
//!
//! - **Row decomposition** (sequence parallelism over queries): each device
//!   computes the attention rows it owns. Rows are independent, so results
//!   concatenate — this is the easy direction the paper's kernels already
//!   parallelize within a node.
//! - **KV-shard decomposition** (ring-attention style): each device holds a
//!   *column* shard of K/V; every device computes a partial
//!   `AttentionState` for **all** rows restricted to its shard's columns,
//!   and the per-row `(m, l, O)` states are then merged across devices with
//!   the online-softmax merge rule. Exactness of this merge is the
//!   correctness core of any distributed version of the paper's kernels.
//!
//! Both executors run on an [`AttentionEngine`]: each simulated device's
//! work is compiled into an [`AttentionPlan`] (its row slice or column
//! shard of the mask) and dispatched through the engine.

use crate::partition::RowPartition;
use gpa_core::{
    AttentionEngine, AttentionKernel, AttentionPlan, AttentionRequest, AttentionState, KvCache,
};
use gpa_sparse::{CooMask, CsrMask};
use gpa_tensor::{merge_normalized, Matrix, OnlineSoftmaxState, Real};

/// Row-decomposed execution: each device's row slice compiles to a
/// rectangular-CSR plan (its rows × all columns) executed on the engine;
/// outputs are stitched back together.
pub fn row_distributed_attention<T: Real>(
    engine: &AttentionEngine,
    mask: &CsrMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    partition: &RowPartition,
) -> Matrix<T> {
    assert_eq!(
        partition.context_len(),
        q.rows(),
        "partition/context mismatch"
    );
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for range in partition.ranges() {
        if range.is_empty() {
            continue;
        }
        // Device-local mask: only this device's rows (renumbered to 0..len).
        let entries: Vec<(usize, usize)> = range
            .clone()
            .flat_map(|row| {
                mask.row(row)
                    .iter()
                    .map(move |&c| (row - range.start, c as usize))
            })
            .collect();
        let local_mask = CsrMask::from_coo(
            &CooMask::from_entries(range.len(), mask.cols(), entries)
                .expect("rows of a valid mask remain valid"),
        );
        // Device-local Q slice; K/V stay whole (pulled remotely on demand —
        // the traffic `comm::analyze` accounts for). The plan's mask is
        // rectangular (local rows × all columns), which the plan geometry
        // supports directly.
        let q_local = q.rows_slice(range.start, range.end);
        let plan = AttentionPlan::single(AttentionKernel::Csr(&local_mask))
            .expect("a row slice of a valid mask compiles");
        let device_out = engine
            .run(&plan, &q_local, k, v)
            .expect("validated device slice executes");
        for (i, row) in range.clone().enumerate() {
            out.row_mut(row).copy_from_slice(device_out.row(i));
        }
    }
    out
}

/// Row-decomposed execution of an *implicit* kernel via query windows: each
/// device's row slice becomes a windowed request of the same compiled plan
/// (its rows at their absolute offset, against the full K/V), so **no mask
/// is materialized anywhere** — the geometry refactor's distributed
/// dividend. All device slices execute as one batched launch, which is
/// also the single-launch shape a real multi-process version would issue
/// per device.
///
/// # Panics
/// Panics if the kernel is a dense baseline or pins a key/value length
/// other than `q.rows()`.
pub fn row_distributed_windowed_attention<T: Real>(
    engine: &AttentionEngine,
    kernel: &AttentionKernel<'_>,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    partition: &RowPartition,
) -> Matrix<T> {
    assert_eq!(
        partition.context_len(),
        q.rows(),
        "partition/context mismatch"
    );
    let plan = AttentionPlan::single(*kernel).expect("distributed kernel compiles");
    let q_slices: Vec<(usize, Matrix<T>)> = partition
        .ranges()
        .iter()
        .filter(|range| !range.is_empty())
        .map(|range| (range.start, q.rows_slice(range.start, range.end)))
        .collect();
    let requests: Vec<AttentionRequest<'_, T>> = q_slices
        .iter()
        .map(|(start, q_local)| AttentionRequest::windowed(q_local, k, v, *start))
        .collect();
    let outs = engine
        .run_batch(&plan, &requests)
        .expect("validated device windows execute");
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for ((start, _), device_out) in q_slices.iter().zip(outs.iter()) {
        for i in 0..device_out.rows() {
            out.row_mut(start + i).copy_from_slice(device_out.row(i));
        }
    }
    out
}

/// KV-shard (ring-style) execution: `shards` devices each own a contiguous
/// column range of K/V; each shard's column-restricted mask compiles to a
/// plan whose full per-row [`AttentionState`] the engine returns, and the
/// partial states are merged exactly.
pub fn kv_sharded_attention<T: Real>(
    engine: &AttentionEngine,
    mask: &CsrMask,
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    shards: usize,
) -> Matrix<T> {
    let l = q.rows();
    let partition = RowPartition::uniform(l, shards.max(1));
    let mut merged: Option<AttentionState<T>> = None;

    for shard in partition.ranges() {
        // Mask restricted to this shard's columns.
        let entries: Vec<(usize, usize)> =
            mask.iter().filter(|&(_, c)| shard.contains(&c)).collect();
        let shard_mask = CsrMask::from_coo(
            &CooMask::from_entries(l, l, entries).expect("subset of a valid mask"),
        );
        let plan = AttentionPlan::single(AttentionKernel::Csr(&shard_mask))
            .expect("a column shard of a valid mask compiles");
        let partial = engine
            .run_batch_states(&plan, &[AttentionRequest::new(q, k, v)])
            .expect("validated shard inputs")
            .pop()
            .expect("one request, one state");

        merged = Some(match merged.take() {
            None => partial,
            Some(mut acc) => {
                // Exact distributed reduction: merge per-row (m, l, O).
                for i in 0..l {
                    let mut sa = OnlineSoftmaxState {
                        m: acc.m[i],
                        l: acc.l[i],
                    };
                    let sb = OnlineSoftmaxState {
                        m: partial.m[i],
                        l: partial.l[i],
                    };
                    merge_normalized(&mut sa, acc.o.row_mut(i), &sb, partial.o.row(i));
                    acc.m[i] = sa.m;
                    acc.l[i] = sa.l;
                }
                acc
            }
        });
    }
    merged
        .map(|s| s.into_output())
        .unwrap_or_else(|| Matrix::zeros(l, v.cols()))
}

/// KV-sharded decode — the sharding showcase of the geometry refactor: one
/// query row (the newest token of a [`KvCache`]) computed against `shards`
/// simulated devices, each owning a contiguous column range of the cache.
///
/// Each shard enumerates the decode row's neighbors through the kernel's
/// own row rule ([`AttentionKernel::for_each_neighbor`] at the absolute
/// index), keeps only its columns, and runs them as a single-row
/// [`gpa_core::Geometry::decode`] request; the per-shard `(O, l, m)`
/// softmax states then merge exactly, the same reduction a ring of devices
/// would perform. The result equals the last row of the square forward
/// over the cache (verified in tests).
///
/// # Panics
/// Panics if the cache is empty or multi-head, or the kernel is a dense
/// baseline.
pub fn kv_sharded_decode<T: Real>(
    engine: &AttentionEngine,
    kernel: &AttentionKernel<'_>,
    q_t: &Matrix<T>,
    cache: &KvCache<T>,
    shards: usize,
) -> Matrix<T> {
    assert_eq!(
        cache.heads(),
        1,
        "decode sharding takes a single-head cache"
    );
    let kv_len = cache.len();
    assert!(kv_len > 0, "decode needs at least one cached token");
    let t = kv_len - 1;
    let mut neighbors = Vec::new();
    kernel.for_each_neighbor(kv_len, t, &mut |j| neighbors.push(j));

    let partition = RowPartition::uniform(kv_len, shards.max(1));
    let mut merged: Option<AttentionState<T>> = None;
    for shard in partition.ranges() {
        let entries: Vec<(usize, usize)> = neighbors
            .iter()
            .copied()
            .filter(|j| shard.contains(j))
            .map(|j| (t, j))
            .collect();
        if entries.is_empty() {
            continue; // this shard owns none of the row's edges
        }
        let shard_mask = CsrMask::from_coo(
            &CooMask::from_entries(t + 1, kv_len, entries).expect("row-t entries are in range"),
        );
        let plan = AttentionPlan::single(AttentionKernel::Csr(&shard_mask))
            .expect("a shard of one decode row compiles");
        let partial = engine
            .run_batch_states(
                &plan,
                &[AttentionRequest::decode(q_t, cache.k(0), cache.v(0))],
            )
            .expect("validated shard inputs")
            .pop()
            .expect("one request, one state");
        merged = Some(match merged.take() {
            None => partial,
            Some(mut acc) => {
                let mut sa = OnlineSoftmaxState {
                    m: acc.m[0],
                    l: acc.l[0],
                };
                let sb = OnlineSoftmaxState {
                    m: partial.m[0],
                    l: partial.l[0],
                };
                merge_normalized(&mut sa, acc.o.row_mut(0), &sb, partial.o.row(0));
                acc.m[0] = sa.m;
                acc.l[0] = sa.l;
                acc
            }
        });
    }
    merged
        .map(|s| s.into_output())
        .unwrap_or_else(|| Matrix::zeros(1, cache.dv()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_masks::{
        longformer, GlobalMask, GlobalSet, LocalWindow, MaskPattern, RandomUniform, Union,
    };
    use gpa_tensor::init::qkv;
    use gpa_tensor::paper_allclose;

    fn engine() -> AttentionEngine {
        AttentionEngine::with_threads(4)
    }

    #[test]
    fn row_distribution_is_exact_for_any_device_count() {
        let l = 96;
        let (q, k, v) = qkv::<f64>(l, 8, 61);
        let mask = longformer(l, 3, vec![0, 48]).to_csr();
        let e = engine();
        let single = e
            .run_kernel(AttentionKernel::Csr(&mask), &q, &k, &v)
            .unwrap();
        for devices in [1usize, 2, 3, 7, 96] {
            let part = RowPartition::uniform(l, devices);
            let distributed = row_distributed_attention(&e, &mask, &q, &k, &v, &part);
            assert!(paper_allclose(&distributed, &single), "devices = {devices}");
        }
    }

    #[test]
    fn row_distribution_exact_with_balanced_partition() {
        let l = 64;
        let (q, k, v) = qkv::<f64>(l, 8, 62);
        let mask = Union::new(
            LocalWindow::new(l, 2),
            GlobalMask::new(GlobalSet::new(l, vec![0, 1])),
        )
        .to_csr();
        let e = engine();
        let part = RowPartition::degree_balanced(&mask, 4);
        let single = e
            .run_kernel(AttentionKernel::Csr(&mask), &q, &k, &v)
            .unwrap();
        let distributed = row_distributed_attention(&e, &mask, &q, &k, &v, &part);
        assert!(paper_allclose(&distributed, &single));
    }

    #[test]
    fn windowed_row_distribution_is_exact_without_materializing_masks() {
        let l = 72;
        let (q, k, v) = qkv::<f64>(l, 8, 65);
        let e = engine();
        let kernel = AttentionKernel::Local { n: 4 };
        let plan = AttentionPlan::single(kernel).unwrap();
        let single = e.run(&plan, &q, &k, &v).unwrap();
        for devices in [1usize, 2, 5, 72] {
            let part = RowPartition::uniform(l, devices);
            let distributed = row_distributed_windowed_attention(&e, &kernel, &q, &k, &v, &part);
            // Windows stream the same absolute rows ⇒ bitwise equality.
            assert_eq!(distributed, single, "devices = {devices}");
        }
    }

    #[test]
    fn kv_sharded_decode_matches_the_square_forward_last_row() {
        let l = 40;
        let (q, k, v) = qkv::<f64>(l, 8, 66);
        let e = engine();
        let globals = GlobalSet::evenly_spaced(l, 3);
        let kernels = [
            AttentionKernel::Local { n: 5 },
            AttentionKernel::Dilated1d { w: 9, r: 2 },
            AttentionKernel::Global {
                globals: &globals,
                n_sub: 0,
            },
        ];
        let mut cache = KvCache::single(8, 8);
        cache.extend(0, &k, &v);
        let q_t = q.rows_slice(l - 1, l);
        for kernel in &kernels {
            let plan = AttentionPlan::single(*kernel).unwrap();
            let single = e.run(&plan, &q, &k, &v).unwrap();
            for shards in [1usize, 2, 3, 7, 40] {
                let sharded = kv_sharded_decode(&e, kernel, &q_t, &cache, shards);
                assert_eq!(sharded.shape(), (1, 8));
                let mut row = Matrix::zeros(1, 8);
                row.row_mut(0).copy_from_slice(single.row(l - 1));
                assert!(
                    paper_allclose(&sharded, &row),
                    "{} shards = {shards}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn kv_sharding_is_exact_for_any_shard_count() {
        let l = 80;
        let (q, k, v) = qkv::<f64>(l, 16, 63);
        let mask = RandomUniform::new(l, 0.15, 9).to_csr();
        let e = engine();
        let single = e
            .run_kernel(AttentionKernel::Csr(&mask), &q, &k, &v)
            .unwrap();
        for shards in [1usize, 2, 4, 5, 80] {
            let sharded = kv_sharded_attention(&e, &mask, &q, &k, &v, shards);
            assert!(paper_allclose(&sharded, &single), "shards = {shards}");
        }
    }

    #[test]
    fn kv_sharding_handles_empty_shards_and_rows() {
        // A mask whose edges all live in the first columns: later shards
        // contribute nothing, and some rows have no edges at all.
        let l = 24;
        let (q, k, v) = qkv::<f64>(l, 4, 64);
        let entries: Vec<(usize, usize)> = (0..l / 2).map(|i| (i, i % 3)).collect();
        let mask = CsrMask::from_coo(&CooMask::from_entries(l, l, entries).unwrap());
        let e = engine();
        let single = e
            .run_kernel(AttentionKernel::Csr(&mask), &q, &k, &v)
            .unwrap();
        let sharded = kv_sharded_attention(&e, &mask, &q, &k, &v, 6);
        assert!(paper_allclose(&sharded, &single));
        // Fully masked rows stay zero through the merge.
        for i in l / 2..l {
            assert!(sharded.row(i).iter().all(|&x| x == 0.0), "row {i}");
        }
    }
}
