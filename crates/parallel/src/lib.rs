#![warn(missing_docs)]
//! # gpa-parallel — row-parallel execution substrate
//!
//! The paper runs its kernels as CUDA grids: one block per attention row,
//! shared-memory online softmax inside each block. This crate is the CPU
//! stand-in for that substrate — a row is the unit of parallel work in
//! both, and which thread runs a row never changes the row's result, so
//! what carries over from the paper is work and scaling trends, not
//! absolute times:
//!
//! - [`ThreadPool`]: `n` participants per launch — the calling thread
//!   plus `n − 1` persistent helpers. Submitted jobs land in one
//!   lock-free injector that idle helpers pop, and an idle helper polls
//!   for about one wake latency before it parks — so repeated
//!   kernel launches pay neither thread-spawn cost, nor queue-lock
//!   contention, nor a sleep/wake per launch ([`PoolMetrics`] counts the
//!   traffic);
//! - [`parallel_for()`] / [`parallel_for_stats`]: scoped row-parallel
//!   fork-join in which the caller works (shares are claimed, and a late
//!   helper is never waited for), with one claiming rule — range stealing
//!   at a [`Schedule`]'s grain — and per-share busy-time statistics for
//!   the load-imbalance analyses of Section V-C;
//! - [`RowWriter`] / [`CellWriter`]: disjoint-row mutable access to shared
//!   output buffers without per-element atomics;
//! - [`RaggedSpace`]: flattened (sequence, row) index spaces, so a batch of
//!   ragged-length sequences runs as one launch instead of one per sequence;
//! - [`WorkCounter`] / [`LocalTally`]: operation counting that backs the
//!   paper's work-optimality claim (Section IV-B).

pub mod metrics;
pub mod parallel_for;
pub mod pool;
pub mod ragged;
pub mod shared;

pub use metrics::{LocalTally, PoolMetrics, PoolReport, WorkCounter, WorkReport};
pub use parallel_for::{parallel_for, parallel_for_stats, spin_work, LaunchStats, Schedule};
pub use pool::{default_threads, ThreadPool};
pub use ragged::RaggedSpace;
pub use shared::{CellWriter, RowWriter};
