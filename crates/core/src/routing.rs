//! Content-adaptive routing: the data-dependent counterpart of the
//! static masks.
//!
//! A [`Router`] assigns every token to one of `K` groups ("timelines" in
//! HyperGraph terminology) by scoring that token's **own** query row
//! against `K` seeded projection directions and taking the argmax — no
//! learned weights, no stored state beyond the `(groups, seed)` pair in
//! [`RoutedSpec`]. Attention is then block-diagonal over the groups:
//! each query attends exactly its group's tokens, so the `K` groups
//! partition all `N` tokens (full coverage) and expected work drops from
//! `O(N²)` to `O(N²/K)`.
//!
//! Determinism is the load-bearing property. The assignment of token `i`
//! is a pure function of `(spec, q[i])` — independent of batch shape,
//! chunk boundaries, thread count, and every other token — so a decode
//! row routes identically to the same row inside a square forward, and a
//! preempted sequence that re-routes its retained query rows re-adopts
//! the exact same grouping. The scorer accumulates in `f64` with a
//! strict-`>` lowest-index-wins argmax ([`gpa_tensor::argmax`]), so ties
//! cannot flip under reordering.

use crate::driver::NeighborSink;
use gpa_tensor::{argmax, Matrix, Real};

/// Configuration of a routed block-diagonal pattern: the group count and
/// the projection seed. Two routed kernels compose (and a cached routing
/// is reusable) exactly when their specs are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedSpec {
    /// Number of groups `K` tokens are routed into (must be positive).
    pub groups: usize,
    /// Seed of the projection directions.
    pub seed: u64,
}

/// SplitMix64 — the standard 64-bit finalizer, used here as a stateless
/// hash from `(seed, group, dim)` to a projection weight.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic top-1 scoring router. Stateless beyond its
/// [`RoutedSpec`]: projection weights are hashed on the fly, so the
/// router works at any key dimension without re-seeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Router {
    spec: RoutedSpec,
}

impl Router {
    /// A router for the given spec.
    pub fn new(spec: RoutedSpec) -> Self {
        Router { spec }
    }

    /// Projection weight of dimension `d` in group `g`'s scoring
    /// direction, in `[-1, 1)`.
    pub(crate) fn projection(&self, g: usize, d: usize) -> f64 {
        let h = splitmix64(
            self.spec.seed
                ^ (g as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ (d as u64).wrapping_mul(0x9E37_79B1_85EB_CA87),
        );
        ((h >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// The group one query row routes to: argmax over the `K` projection
    /// scores, ties broken toward the lowest group index.
    pub(crate) fn group_of_row<T: Real>(&self, row: &[T]) -> u32 {
        let scores: Vec<f64> = (0..self.spec.groups)
            .map(|g| {
                row.iter()
                    .enumerate()
                    .map(|(d, &x)| x.to_f64() * self.projection(g, d))
                    .sum()
            })
            .collect();
        argmax(&scores) as u32
    }

    /// Route every row of `q` into a fresh [`Routing`].
    pub fn route<T: Real>(&self, q: &Matrix<T>) -> Routing {
        let mut routing = Routing::empty(self.spec);
        routing.extend(q);
        routing
    }
}

/// The materialized group assignment of one sequence's tokens — the
/// per-sequence state a routed kernel enumerates neighbors from. Grows
/// append-only as a sequence decodes ([`Routing::extend`]) and truncates
/// with its KV cache on rollback ([`Routing::truncate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routing {
    spec: RoutedSpec,
    /// Group of each routed token, indexed by absolute token position.
    assign: Vec<u32>,
    /// Member tokens of each group, ascending (append order).
    members: Vec<Vec<u32>>,
}

impl Routing {
    /// An empty routing for `spec` — no tokens assigned yet.
    ///
    /// # Panics
    /// Panics if `spec.groups` is zero.
    pub(crate) fn empty(spec: RoutedSpec) -> Self {
        assert!(spec.groups > 0, "a routing needs at least one group");
        Routing {
            spec,
            assign: Vec::new(),
            members: vec![Vec::new(); spec.groups],
        }
    }

    /// The spec this routing was built under.
    pub(crate) fn spec(&self) -> RoutedSpec {
        self.spec
    }

    /// Number of routed tokens.
    pub(crate) fn len(&self) -> usize {
        self.assign.len()
    }

    /// The group token `i` belongs to.
    pub fn group_of(&self, i: usize) -> u32 {
        self.assign[i]
    }

    /// Member tokens of group `g`, in ascending token order.
    pub fn members(&self, g: usize) -> &[u32] {
        &self.members[g]
    }

    /// Route the rows of `q` as the next `q.rows()` tokens, appending to
    /// the existing assignment. Each row's group depends only on that row
    /// and the spec, so extending row by row, chunk by chunk, or all at
    /// once produces identical assignments.
    pub fn extend<T: Real>(&mut self, q: &Matrix<T>) {
        let router = Router::new(self.spec);
        for i in 0..q.rows() {
            let g = router.group_of_row(q.row(i));
            self.members[g as usize].push(self.assign.len() as u32);
            self.assign.push(g);
        }
    }

    /// Drop every routed token past the first `tokens` — the rollback
    /// counterpart of [`Routing::extend`], mirroring
    /// `KvCache::truncate`. A no-op when already shorter.
    pub fn truncate(&mut self, tokens: usize) {
        if tokens >= self.assign.len() {
            return;
        }
        for &g in &self.assign[tokens..] {
            self.members[g as usize].pop();
        }
        self.assign.truncate(tokens);
    }
}

/// Stream row `i`'s routed block-diagonal neighbors: the members of
/// `i`'s own group, ascending; under `causal`, only those at or before
/// `i`. Row `i` is always a member of its own group, so no row attends
/// an empty set.
#[inline]
pub(crate) fn routed_row(routing: &Routing, causal: bool, i: usize, sink: &mut impl NeighborSink) {
    let members = routing.members(routing.group_of(i) as usize);
    // Members ascend, so the causal row is a prefix of its group.
    let visible = if causal {
        members.partition_point(|&j| j as usize <= i)
    } else {
        members.len()
    };
    sink.extend(&members[..visible]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_tensor::init::qkv;

    fn spec(groups: usize, seed: u64) -> RoutedSpec {
        RoutedSpec { groups, seed }
    }

    #[test]
    fn groups_partition_every_token() {
        let (q, _, _) = qkv::<f64>(37, 8, 5);
        let routing = Router::new(spec(4, 0x5EED)).route(&q);
        assert_eq!(routing.len(), 37);
        let total: usize = (0..4).map(|g| routing.members(g).len()).sum();
        assert_eq!(total, 37, "group sizes must sum to N");
        let mut seen = [false; 37];
        for g in 0..4 {
            for &t in routing.members(g) {
                assert!(!seen[t as usize], "token routed twice");
                seen[t as usize] = true;
                assert_eq!(routing.group_of(t as usize), g as u32);
            }
        }
        assert!(seen.iter().all(|&s| s), "no token may go unrouted");
    }

    #[test]
    fn extension_order_is_irrelevant() {
        let (q, _, _) = qkv::<f64>(24, 6, 9);
        let whole = Router::new(spec(3, 42)).route(&q);
        let mut incremental = Routing::empty(spec(3, 42));
        incremental.extend(&q.rows_slice(0, 10));
        incremental.extend(&q.rows_slice(10, 11));
        incremental.extend(&q.rows_slice(11, 24));
        assert_eq!(whole, incremental);
    }

    #[test]
    fn truncate_rolls_back_extend() {
        let (q, _, _) = qkv::<f64>(16, 4, 11);
        let mut routing = Router::new(spec(4, 3)).route(&q.rows_slice(0, 10));
        let snapshot = routing.clone();
        routing.extend(&q.rows_slice(10, 16));
        routing.truncate(10);
        assert_eq!(routing, snapshot);
        routing.truncate(99); // longer: no-op
        assert_eq!(routing, snapshot);
    }

    #[test]
    fn seed_changes_the_grouping() {
        let (q, _, _) = qkv::<f64>(64, 8, 13);
        let a = Router::new(spec(4, 1)).route(&q);
        let b = Router::new(spec(4, 2)).route(&q);
        assert_ne!(a.assign, b.assign);
    }

    #[test]
    fn single_group_routes_everything_together() {
        let (q, _, _) = qkv::<f64>(12, 4, 17);
        let routing = Router::new(spec(1, 0)).route(&q);
        assert!(routing.assign.iter().all(|&g| g == 0));
        assert_eq!(routing.members(0).len(), 12);
    }

    #[test]
    fn routed_row_is_causal_block_diagonal() {
        let (q, _, _) = qkv::<f64>(20, 4, 19);
        let routing = Router::new(spec(3, 7)).route(&q);
        for i in 0..20 {
            let mut full = Vec::new();
            routed_row(&routing, false, i, &mut |j| full.push(j));
            let g = routing.group_of(i);
            assert_eq!(
                full,
                routing
                    .members(g as usize)
                    .iter()
                    .map(|&j| j as usize)
                    .collect::<Vec<_>>()
            );
            assert!(full.windows(2).all(|w| w[0] < w[1]), "ascending order");
            let mut causal = Vec::new();
            routed_row(&routing, true, i, &mut |j| causal.push(j));
            assert_eq!(
                causal,
                full.iter().copied().filter(|&j| j <= i).collect::<Vec<_>>()
            );
            assert_eq!(causal.last(), Some(&i), "a row always attends itself");
        }
    }

    #[test]
    fn projections_are_stable_and_bounded() {
        let r = Router::new(spec(8, 0xABCD));
        for g in 0..8 {
            for d in 0..32 {
                let w = r.projection(g, d);
                assert!((-1.0..1.0).contains(&w));
                assert_eq!(w, r.projection(g, d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = Routing::empty(spec(0, 1));
    }
}
