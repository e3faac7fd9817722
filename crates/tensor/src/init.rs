//! Deterministic random initialization for Q/K/V workloads.
//!
//! The paper's verification and benchmarks create query/key/value matrices
//! "from the uniform random distribution [0, 1)" (Section V-A). Everything
//! here is seeded so that tests and benchmarks are reproducible run-to-run.

use crate::matrix::Matrix;
use crate::real::Real;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniform `[0, 1)` matrix — the paper's workload generator.
pub fn uniform_matrix<T: Real>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    uniform_range_matrix(rows, cols, 0.0, 1.0, seed)
}

/// Uniform `[lo, hi)` matrix.
pub fn uniform_range_matrix<T: Real>(
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
    seed: u64,
) -> Matrix<T> {
    assert!(lo < hi, "empty range [{lo}, {hi})");
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(lo, hi);
    let data = (0..rows * cols)
        .map(|_| T::from_f64(dist.sample(&mut rng)))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Standard-normal matrix via Box–Muller (no extra crate needed), scaled by
/// `std`. Useful for realistic transformer activations in examples.
pub fn gaussian_matrix<T: Real>(rows: usize, cols: usize, std: f64, seed: u64) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(0.0f64, 1.0);
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        // Box–Muller transform: two uniforms → two independent normals.
        let u1: f64 = dist.sample(&mut rng).max(f64::MIN_POSITIVE);
        let u2: f64 = dist.sample(&mut rng);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        data.push(T::from_f64(r * theta.cos() * std));
        if data.len() < n {
            data.push(T::from_f64(r * theta.sin() * std));
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot-uniform initialization for projection weights in the
/// multi-head examples: `U(−√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform<T: Real>(fan_in: usize, fan_out: usize, seed: u64) -> Matrix<T> {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform_range_matrix(fan_in, fan_out, -limit, limit, seed)
}

/// The standard Q/K/V triple for a given context length and head dimension,
/// seeded independently per matrix (seed, seed+1, seed+2) like the paper's
/// per-tensor `torch.rand` calls.
pub fn qkv<T: Real>(l: usize, dk: usize, seed: u64) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    (
        uniform_matrix(l, dk, seed),
        uniform_matrix(l, dk, seed.wrapping_add(1)),
        uniform_matrix(l, dk, seed.wrapping_add(2)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_in_range_and_seeded() {
        let a: Matrix<f64> = uniform_matrix(16, 8, 42);
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
        let b: Matrix<f64> = uniform_matrix(16, 8, 42);
        assert_eq!(a, b, "same seed must reproduce");
        let c: Matrix<f64> = uniform_matrix(16, 8, 43);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn qkv_matrices_are_distinct() {
        let (q, k, v): (Matrix<f32>, _, _) = qkv(32, 8, 7);
        assert_ne!(q, k);
        assert_ne!(k, v);
        assert_eq!(q.shape(), (32, 8));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let m: Matrix<f64> = gaussian_matrix(200, 50, 2.0, 1);
        let n = m.as_slice().len() as f64;
        let mean: f64 = m.as_slice().iter().sum::<f64>() / n;
        let var: f64 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn xavier_limit_respected() {
        let w: Matrix<f64> = xavier_uniform(64, 64, 3);
        let limit = (6.0f64 / 128.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn degenerate_range_panics() {
        let _: Matrix<f64> = uniform_range_matrix(1, 1, 1.0, 1.0, 0);
    }
}
