//! Degree statistics and load-imbalance indicators for attention masks.
//!
//! Section V-C explains the Global kernel's slower scaling by the *shape* of
//! its sparsity: a few rows are (almost) fully dense while the rest are
//! nearly empty, so a row-parallel launch "can only be as fast as its
//! slowest block". These statistics quantify that skew for any mask.

use crate::csr::CsrMask;

/// Row-degree summary of a mask.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum row degree.
    pub min: usize,
    /// Maximum row degree — the "slowest block" proxy.
    pub max: usize,
    /// Mean row degree.
    pub mean: f64,
    /// Population standard deviation of row degrees.
    pub std: f64,
    /// `max / mean`: ≥ 1, equal to 1 only for perfectly uniform masks.
    /// Large values predict block-level load imbalance under row-parallel
    /// execution.
    pub imbalance: f64,
}

/// Compute [`DegreeStats`] for a CSR mask.
pub fn degree_stats(mask: &CsrMask) -> DegreeStats {
    let rows = mask.rows();
    if rows == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std: 0.0,
            imbalance: 1.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut sum_sq = 0.0f64;
    for r in 0..rows {
        let d = mask.degree(r);
        min = min.min(d);
        max = max.max(d);
        sum += d;
        sum_sq += (d * d) as f64;
    }
    let mean = sum as f64 / rows as f64;
    let var = (sum_sq / rows as f64 - mean * mean).max(0.0);
    DegreeStats {
        min,
        max,
        mean,
        std: var.sqrt(),
        imbalance: if mean > 0.0 { max as f64 / mean } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMask;

    fn mask_from(entries: Vec<(usize, usize)>, n: usize) -> CsrMask {
        CsrMask::from_coo(&CooMask::from_entries(n, n, entries).unwrap())
    }

    #[test]
    fn uniform_mask_has_no_imbalance() {
        // Diagonal: every row degree 1.
        let m = mask_from((0..8).map(|i| (i, i)).collect(), 8);
        let s = degree_stats(&m);
        assert_eq!((s.min, s.max), (1, 1));
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.imbalance, 1.0);
    }

    #[test]
    fn global_like_mask_is_imbalanced() {
        // Row 0 attends everywhere; other rows attend only to column 0 —
        // the global-token shape from Fig. 2.
        let mut entries: Vec<(usize, usize)> = (0..16).map(|j| (0, j)).collect();
        entries.extend((1..16).map(|i| (i, 0)));
        let m = mask_from(entries, 16);
        let s = degree_stats(&m);
        assert_eq!(s.max, 16);
        assert_eq!(s.min, 1);
        assert!(s.imbalance > 5.0, "imbalance = {}", s.imbalance);
    }

    #[test]
    fn empty_mask_stats() {
        let m = CsrMask::empty(0, 0);
        let s = degree_stats(&m);
        assert_eq!(s.max, 0);
        assert_eq!(s.imbalance, 1.0);
    }
}
