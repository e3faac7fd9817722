//! Accelerator device profiles (paper Table I).
//!
//! The capacity experiments (Fig. 4, Table II) depend only on a device's
//! memory size; these profiles carry the three GPUs of the paper's test
//! systems plus a way to describe any other budget (e.g. "25% of an A100",
//! the training headroom assumption of Section VI-B).

/// A device whose memory capacity bounds the attention working set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Display name.
    pub name: &'static str,
    /// Usable memory in bytes.
    pub mem_bytes: u64,
}

/// GiB → bytes.
pub(crate) const GIB: u64 = 1 << 30;

/// NVIDIA A100 SXM4 80 GB — the paper's headline device.
pub const A100_80GB: DeviceProfile = DeviceProfile {
    name: "NVIDIA A100 (SXM4 80GB)",
    mem_bytes: 80 * GIB,
};

/// NVIDIA L40 48 GB.
pub(crate) const L40_48GB: DeviceProfile = DeviceProfile {
    name: "NVIDIA L40 (48GB)",
    mem_bytes: 48 * GIB,
};

/// NVIDIA V100 SXM2 32 GB.
pub(crate) const V100_32GB: DeviceProfile = DeviceProfile {
    name: "NVIDIA V100 (SXM2 32GB)",
    mem_bytes: 32 * GIB,
};

impl DeviceProfile {
    /// A custom memory budget.
    pub const fn custom(name: &'static str, mem_bytes: u64) -> Self {
        DeviceProfile { name, mem_bytes }
    }

    /// All three paper devices (Table I order: A100, L40, V100).
    pub fn paper_devices() -> [DeviceProfile; 3] {
        [A100_80GB, L40_48GB, V100_32GB]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_table1() {
        assert_eq!(A100_80GB.mem_bytes, 85_899_345_920);
        assert_eq!(L40_48GB.mem_bytes, 51_539_607_552);
        assert_eq!(V100_32GB.mem_bytes, 34_359_738_368);
    }
}
