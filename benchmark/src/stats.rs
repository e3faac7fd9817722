//! Order statistics, the output hash, and the seeded integer generator the
//! harness draws workload shapes from.

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples; 0 for
/// an empty slice so an absent layer reports a number, not a panic.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over the bit patterns of `values` — the output fingerprint the
/// timed repetitions are compared by.
pub fn fnv_bits(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the harness's only source of randomness for workload
/// shapes (lengths, gaps, priorities). Tensor contents come from
/// `gpa_tensor::init`, seeded through [`mix`].
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from the inclusive range.
    pub fn incl(&mut self, (lo, hi): (usize, usize)) -> usize {
        assert!(lo <= hi, "empty range");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Derive an independent tensor seed from the run seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 90.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn hash_sees_every_bit() {
        assert_ne!(fnv_bits(&[0.0]), fnv_bits(&[-0.0]));
        assert_ne!(fnv_bits(&[1.0, 2.0]), fnv_bits(&[2.0, 1.0]));
        assert_eq!(fnv_bits(&[1.5, 2.5]), fnv_bits(&[1.5, 2.5]));
    }
}
