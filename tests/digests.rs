//! Bit digests of the graph kernels' outputs and of the masks they read,
//! pinned as fixed numbers.
//!
//! The other suites compare two computations (a kernel with the masked-SDP
//! reference, a decode row with the square forward), so a change that
//! moves the bits of both alike passes them. Here each output is hashed —
//! 64-bit FNV-1a over the little-endian `to_bits()` of every element,
//! row-major — and compared with a constant that a change meant to keep
//! the bits must leave as it is. CI also runs this in the release profile.
//!
//! Each plan is digested twice: the square forward (`AttentionEngine::run`)
//! and a `decode_step` of the last token over a cache bulk-`extend`ed with
//! the first `L − 1` rows. The tables:
//!
//! - [`F32`], [`F64`]: each composable kernel and Fig. 6's BigBird
//!   composition at the paper's verification shape (`L = 256`, `dk = 32`);
//! - [`LONGFORMER_F32`], [`LONGFORMER_F64`]: Fig. 6's Longformer composition (Loc + Glo) at the
//!   same shape, in both types;
//! - [`F32_LONG`]: the graph kernels at `L = 4096`, where a row spans
//!   several 32-edge tiles;
//! - [`MASKS`]: the CSR structures (`row_offsets`, `col_idx`) the mask
//!   crate builds at `L = 4096` for the Fig. 6 plans.
//!
//! A failure prints the table the code now computes.

use graph_attention::core::{AttentionEngine, AttentionKernel, CooSearch, KvCache};
use graph_attention::masks::{
    bigbird, longformer_dilated, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern,
    RandomUniform, Union,
};
use graph_attention::sparse::{CsrMask, DiaMask};
use graph_attention::tensor::{init::qkv, Matrix, Real};

const L: usize = 256;
/// The long shape's context: a Local row holds 513 edges, 17 tiles.
const L_LONG: usize = 4096;
const DK: usize = 32;
const SEED: u64 = 0xD16E57;
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

/// `(plan, run digest, decode digest)` of Fig. 6's Longformer plan at
/// `L = 256`, in `f32` and in `f64`.
const LONGFORMER_F32: [(&str, u64, u64); 1] =
    [("Loc + Glo", 0x7e964654d95ea1f4, 0xbe9f22c9231f9d38)];
const LONGFORMER_F64: [(&str, u64, u64); 1] =
    [("Loc + Glo", 0xb6925847d2210e61, 0xaf7f4794509f4586)];

/// `(plan, run digest, decode digest)` in `f32` at `L = 4096`.
const F32_LONG: [(&str, u64, u64); 6] = [
    ("Local", 0xba5a346c9294b9e6, 0xd30c945f7b43f0f0),
    ("Dilated-1D", 0xce7b85fe9b86d333, 0xf544897075941264),
    ("Dilated-2D", 0x7a64ee36a585ec3f, 0x8421ae126c7ced25),
    ("Global", 0xddab8541237b0e76, 0x6ba93f2b97f9dc80),
    ("DIA", 0x443edae0d1fcb92b, 0xef0c15ea6df8e5f3),
    ("CSR", 0xc630823de7f1a4df, 0x2d1282c1d6d2a1c1),
];

/// `(mask, digest of its CSR)` at `L = 4096`.
const MASKS: [(&str, u64); 4] = [
    ("longformer_dilated", 0x182ab5bbcd3c3e34),
    ("Local ∪ GlobalMinusLocal", 0x4d72c1c14b082b77),
    ("RandomUniform ∖ covered", 0xefee7b514475c547),
    ("bigbird", 0x482b4ed7e54b62fc),
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

fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn digest<T: Bits>(m: &Matrix<T>) -> u64 {
    fnv(m.as_slice().iter().flat_map(|x| x.le_bytes()))
}

/// A CSR mask's `row_offsets` (as `u64`) then its `col_idx`, little-endian.
fn mask_digest(m: &CsrMask) -> u64 {
    let offsets = m
        .row_offsets()
        .iter()
        .flat_map(|&o| (o as u64).to_le_bytes());
    fnv(offsets.chain(m.col_indices().iter().flat_map(|c| c.to_le_bytes())))
}

/// Fig. 6's masks at context `l`: a window of `l / 16` per direction,
/// three evenly spaced globals, and random edges at `Sf = 0.05` less those
/// the window and globals already cover.
struct Fig6 {
    l: usize,
    w: usize,
    globals: GlobalSet,
    covered: CsrMask,
    random_rest: CsrMask,
}

impl Fig6 {
    fn new(l: usize) -> Self {
        let w = l / 16;
        let globals = GlobalSet::evenly_spaced(l, 3);
        let covered = LocalWindow::new(l, w)
            .to_csr()
            .union(&GlobalMinusLocal::new(globals.clone(), w).to_csr());
        let random_rest = RandomUniform::new(l, 0.05, SEED)
            .to_csr()
            .difference(&covered);
        Fig6 {
            l,
            w,
            globals,
            covered,
            random_rest,
        }
    }
}

/// The run and decode digests of every plan in `expected`, in its order.
/// CSR and COO run BigBird's local ∪ global ∪ random mask, whose rows are
/// irregular; DIA runs `band`.
fn digests<T: Bits>(
    fig6: &Fig6,
    band: &[i64],
    expected: &[(&str, u64, u64)],
) -> Vec<(String, u64, u64)> {
    let (l, w) = (fig6.l, fig6.w);
    let bigbird = fig6.covered.union(&fig6.random_rest);
    let bigbird_coo = bigbird.to_coo();
    let band = DiaMask::new(l, band.to_vec()).unwrap();
    let local = AttentionKernel::Local { n: w };
    let global = AttentionKernel::Global {
        globals: &fig6.globals,
        n_sub: w,
    };
    let dilated1d = AttentionKernel::Dilated1d { w: 2 * w + 1, r: 1 };
    let dilated2d = AttentionKernel::Dilated2d {
        block_size: l / 8,
        r: 1,
    };
    let coo = AttentionKernel::Coo(&bigbird_coo, CooSearch::Linear);
    let random_rest = AttentionKernel::Csr(&fig6.random_rest);
    let plans: [(&str, &[AttentionKernel<'_>]); 9] = [
        ("Local", &[local]),
        ("Dilated-1D", &[dilated1d]),
        ("Dilated-2D", &[dilated2d]),
        ("Global", &[global]),
        ("CSR", &[AttentionKernel::Csr(&bigbird)]),
        ("COO", &[coo]),
        ("DIA", &[AttentionKernel::Dia(&band)]),
        ("Loc + Glo", &[local, global]),
        ("Loc + Glo + CSR", &[local, global, random_rest]),
    ];

    let engine = AttentionEngine::with_threads(2);
    let (q, k, v) = qkv::<T>(l, DK, SEED);
    let last = |m: &Matrix<T>| m.rows_slice(l - 1, l);
    expected
        .iter()
        .map(|&(name, _, _)| {
            let (_, steps) = plans.iter().find(|(n, _)| *n == name).unwrap();
            let plan = engine.compile(steps).unwrap();
            let out = engine.run(&plan, &q, &k, &v).unwrap();
            let mut cache = KvCache::single(DK, DK);
            cache.extend(0, &k.rows_slice(0, l - 1), &v.rows_slice(0, l - 1));
            let row = engine
                .decode_step(&plan, &last(&q), &last(&k), &last(&v), &mut cache)
                .unwrap();
            assert_eq!((out.shape(), row.shape()), ((l, DK), (1, DK)));
            (name.to_string(), digest(&out), digest(&row))
        })
        .collect()
}

fn check(got: Vec<(String, u64, u64)>, expected: &[(&str, u64, u64)]) {
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| (g.0.as_str(), g.1, g.2) == *e);
    if !same {
        let table: String = got
            .iter()
            .map(|(name, run, decode)| {
                format!("    (\"{name}\", 0x{run:016x}, 0x{decode:016x}),\n")
            })
            .collect();
        panic!("digests moved; the code now computes:\n{table}");
    }
}

/// The band of the `L = 256` tables: three diagonals.
fn short_band() -> Vec<i64> {
    vec![-((L / 16) as i64), -1, 0]
}

#[test]
fn f32_digests() {
    check(digests::<f32>(&Fig6::new(L), &short_band(), &F32), &F32);
}

#[test]
fn f64_digests() {
    check(digests::<f64>(&Fig6::new(L), &short_band(), &F64), &F64);
}

#[test]
fn longformer_digests() {
    let fig6 = Fig6::new(L);
    let f32s = digests::<f32>(&fig6, &short_band(), &LONGFORMER_F32);
    check(f32s, &LONGFORMER_F32);
    let f64s = digests::<f64>(&fig6, &short_band(), &LONGFORMER_F64);
    check(f64s, &LONGFORMER_F64);
}

#[test]
fn f32_digests_at_4096() {
    // 103 diagonals, every fifth offset of the window: four tiles a row.
    let w = (L_LONG / 16) as i64;
    let band: Vec<i64> = (-w..=w).step_by(5).collect();
    check(
        digests::<f32>(&Fig6::new(L_LONG), &band, &F32_LONG),
        &F32_LONG,
    );
}

#[test]
fn mask_digests() {
    let fig6 = Fig6::new(L_LONG);
    let (l, w) = (fig6.l, fig6.w);
    let indices: Vec<usize> = fig6.globals.indices().iter().map(|&g| g as usize).collect();
    let combined = Union::new(
        LocalWindow::new(l, w),
        GlobalMinusLocal::new(fig6.globals.clone(), w),
    );
    assert_eq!(
        combined.to_csr(),
        fig6.covered,
        "Union disagrees with CsrMask::union"
    );
    let masks = [
        longformer_dilated(l, w, 2, indices.clone()).to_csr(),
        fig6.covered,
        fig6.random_rest,
        bigbird(l, w, indices, 0.05, SEED).to_csr(),
    ];
    let got: Vec<(&str, u64)> = MASKS
        .iter()
        .zip(&masks)
        .map(|(&(name, _), m)| (name, mask_digest(m)))
        .collect();
    if got != MASKS {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
            .collect();
        panic!("mask digests moved; the code now computes:\n{table}");
    }
}
