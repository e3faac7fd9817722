//! Bit digests of the graph kernels' outputs, pinned as fixed numbers.
//!
//! The other suites compare two computations (a kernel with the masked-SDP
//! reference, a decode row with the square forward), so a change that
//! moves the bits of both alike passes them. Here each output is hashed —
//! 64-bit FNV-1a over the little-endian `to_bits()` of every element,
//! row-major — and compared with a constant that a change meant to keep
//! the bits must leave as it is. CI also runs this in the release profile.
//!
//! At the paper's verification shape (`L = 256`, `dk = 32`), in `f32` and
//! `f64`, each composable kernel and Fig. 6's BigBird composition is
//! digested twice: the square forward (`AttentionEngine::run`) and a
//! `decode_step` of the last token over a cache bulk-`extend`ed with the
//! first `L − 1` rows. A failure prints the table the code now computes.

use graph_attention::core::{AttentionEngine, AttentionKernel, CooSearch, KvCache};
use graph_attention::masks::{
    GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern, RandomUniform,
};
use graph_attention::sparse::DiaMask;
use graph_attention::tensor::{init::qkv, Matrix, Real};

const L: usize = 256;
const DK: usize = 32;
const SEED: u64 = 0xD16E57;
/// Window per direction of the local-type kernels.
const W: usize = L / 16;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `(plan, run digest, decode digest)` in `f32`.
const F32: [(&str, u64, u64); 8] = [
    ("Local", 0xd5d06617251ae951, 0xa0dc99da2574b779),
    ("Dilated-1D", 0x9d45c95e22e9b3a1, 0xb0a3aacf70030694),
    ("Dilated-2D", 0x289bc03ea36715e2, 0x8421ae126c7ced25),
    ("Global", 0x71f521aaaa72989e, 0x5d0e3f517c632bcf),
    ("CSR", 0x188fbcda286dcd4f, 0xa1b976d67df77887),
    ("COO", 0x188fbcda286dcd4f, 0xa1b976d67df77887),
    ("DIA", 0xd4a0660f36d4b90f, 0xf6b5e558eae91a4c),
    ("Loc + Glo + CSR", 0x08e7663d7012bbe8, 0x225995ced36b483b),
];

/// `(plan, run digest, decode digest)` in `f64`.
const F64: [(&str, u64, u64); 8] = [
    ("Local", 0x5dd30466180c0e1b, 0xba24263484323667),
    ("Dilated-1D", 0xb45c908d00991416, 0xe649f0c52c002935),
    ("Dilated-2D", 0x1c944c3d81ad9c0e, 0xd80ac658736bb725),
    ("Global", 0x8a71010196f5e505, 0xea0513f09172a574),
    ("CSR", 0xe989eeaa99b4429b, 0x705b3bf5d2684ad7),
    ("COO", 0xe989eeaa99b4429b, 0x705b3bf5d2684ad7),
    ("DIA", 0x675fc52106a8dd6f, 0x34a5bc9fbb6b1151),
    ("Loc + Glo + CSR", 0x601a9c110ba413d3, 0x35b7c1627b87f77f),
];

/// A float's `to_bits()`, little-endian.
trait Bits: Real {
    fn le_bytes(self) -> Vec<u8>;
}

impl Bits for f32 {
    fn le_bytes(self) -> Vec<u8> {
        self.to_bits().to_le_bytes().to_vec()
    }
}

impl Bits for f64 {
    fn le_bytes(self) -> Vec<u8> {
        self.to_bits().to_le_bytes().to_vec()
    }
}

fn digest<T: Bits>(m: &Matrix<T>) -> u64 {
    let bytes = m.as_slice().iter().flat_map(|x| x.le_bytes());
    bytes.fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Every plan's digests, in table order. CSR and COO run BigBird's
/// local ∪ global ∪ random mask, whose rows are irregular.
fn digests<T: Bits>() -> Vec<(&'static str, u64, u64)> {
    let globals = GlobalSet::evenly_spaced(L, 3);
    let covered = LocalWindow::new(L, W)
        .to_csr()
        .union(&GlobalMinusLocal::new(globals.clone(), W).to_csr());
    let random_rest = RandomUniform::new(L, 0.05, SEED)
        .to_csr()
        .difference(&covered);
    let bigbird = covered.union(&random_rest);
    let bigbird_coo = bigbird.to_coo();
    let band = DiaMask::new(L, vec![-(W as i64), -1, 0]).unwrap();
    let local = AttentionKernel::Local { n: W };
    let global = AttentionKernel::Global {
        globals: &globals,
        n_sub: W,
    };
    let dilated1d = AttentionKernel::Dilated1d { w: 2 * W + 1, r: 1 };
    let dilated2d = AttentionKernel::Dilated2d {
        block_size: L / 8,
        r: 1,
    };
    let coo = AttentionKernel::Coo(&bigbird_coo, CooSearch::Linear);
    let plans: [(&str, &[AttentionKernel<'_>]); 8] = [
        ("Local", &[local]),
        ("Dilated-1D", &[dilated1d]),
        ("Dilated-2D", &[dilated2d]),
        ("Global", &[global]),
        ("CSR", &[AttentionKernel::Csr(&bigbird)]),
        ("COO", &[coo]),
        ("DIA", &[AttentionKernel::Dia(&band)]),
        (
            "Loc + Glo + CSR",
            &[local, global, AttentionKernel::Csr(&random_rest)],
        ),
    ];

    let engine = AttentionEngine::with_threads(2);
    let (q, k, v) = qkv::<T>(L, DK, SEED);
    let last = |m: &Matrix<T>| m.rows_slice(L - 1, L);
    plans
        .iter()
        .map(|&(name, steps)| {
            let plan = engine.compile(steps).unwrap();
            let out = engine.run(&plan, &q, &k, &v).unwrap();
            let mut cache = KvCache::single(DK, DK);
            cache.extend(0, &k.rows_slice(0, L - 1), &v.rows_slice(0, L - 1));
            let row = engine
                .decode_step(&plan, &last(&q), &last(&k), &last(&v), &mut cache)
                .unwrap();
            assert_eq!((out.shape(), row.shape()), ((L, DK), (1, DK)));
            (name, digest(&out), digest(&row))
        })
        .collect()
}

fn check<T: Bits>(expected: &[(&str, u64, u64)]) {
    let got = digests::<T>();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(name, run, decode)| {
                format!("    (\"{name}\", 0x{run:016x}, 0x{decode:016x}),\n")
            })
            .collect();
        panic!("digests moved; the code now computes:\n{table}");
    }
}

#[test]
fn f32_digests() {
    check::<f32>(&F32);
}

#[test]
fn f64_digests() {
    check::<f64>(&F64);
}
