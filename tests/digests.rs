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
//! - [`F32_LONG`], [`F64_LONG`]: the graph kernels at `L = 4096`, where a
//!   row spans several 32-edge tiles;
//! - [`DENSE`]: the dense baselines `masked_sdp` (over BigBird's mask) and
//!   `flash_attention_tiled` at `L = 256`, in both types;
//! - [`CHUNKED`]: `AttentionEngine::prefill_chunked` at `L = 256` with a
//!   chunk that does not divide `L`, in both types;
//! - [`MODEL`]: a three-layer `FSF` `DecoderModel` outside the scheduler —
//!   `forward`, then `forward_prefill_chunked` and `forward_decode`;
//! - [`MODEL_ODD`]: the same stack at projection widths that are no
//!   multiple of 16 and a head width that is no multiple of 4, so the
//!   projections' and the row tile's remainder columns are pinned;
//! - [`MODEL_ZEROS`], [`ZERO_QUERIES`]: inputs with exact zeros (see
//!   [`with_exact_zeros`]) — the stack's input, so the projections skip
//!   zero factors end to end, and the queries of Fig. 6's Longformer
//!   plan, so whole rows score `0` and take the row tile's `±0` maximum;
//! - [`MASKS`]: the CSR structures (`row_offsets`, `col_idx`) the mask
//!   crate builds at `L = 4096` for the Fig. 6 plans;
//! - [`SERVED`]: every output of one mixed trace replayed through the
//!   `Scheduler` under page pressure, at 1 and at 2 engine threads.
//!
//! A failure prints the table the code now computes.

use graph_attention::core::{
    flash_attention_tiled, masked_sdp, AttentionEngine, AttentionKernel, AttentionPlan, CooSearch,
    KvCache, PagePool,
};
use graph_attention::masks::{
    bigbird, longformer, longformer_dilated, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern,
    RandomUniform,
};
use graph_attention::model::{DecoderModel, LayerPattern, ModelKvState};
use graph_attention::serve::{
    generate_trace, replay, AdmissionMode, EvictionMode, PatternChoice, Scheduler, ServeConfig,
    TraceSpec,
};
use graph_attention::sparse::{CsrMask, DenseMask, DiaMask};
use graph_attention::tensor::init::{qkv, uniform_matrix};
use graph_attention::tensor::{Matrix, Real};

const L: usize = 256;
/// The long shape's context: a Local row holds 513 edges, 17 tiles.
const L_LONG: usize = 4096;
const DK: usize = 32;
/// The chunked prefill's chunk: 256 = 4 · 60 + 16.
const CHUNK: usize = 60;
/// The decoder stack's context, width and heads (`dk = D_MODEL / HEADS`).
const L_MODEL: usize = 64;
const D_MODEL: usize = 16;
const HEADS: usize = 2;
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

/// `(plan, run digest, decode digest)` in `f64` at `L = 4096`.
const F64_LONG: [(&str, u64, u64); 6] = [
    ("Local", 0xd1b76e3f73caf193, 0xfabf3618b9f752c9),
    ("Dilated-1D", 0x5cd664e258091173, 0xa27a0278c9cc951f),
    ("Dilated-2D", 0xf6771ce0854c95a5, 0xd80ac658736bb725),
    ("Global", 0xf962cd8697726e29, 0x83587a25fe4fd28a),
    ("DIA", 0x82ec9225a3f09f1b, 0xb339104a9ddb7875),
    ("CSR", 0xc0a6fa3d726dce45, 0x810fcb064c60d71f),
];

/// `(baseline, f32 digest, f64 digest)` at `L = 256`.
const DENSE: [(&str, u64, u64); 2] = [
    ("masked_sdp", 0x6f5540c38878d643, 0x71923bea711110e0),
    ("flash_tiled", 0x331ae0ad0742cd1b, 0x74907069208667f9),
];

/// `(plan, f32 digest, f64 digest)` of a chunked prefill at `L = 256`.
/// Each equals the plan's square run digest in [`F32`] and [`F64`]: any
/// chunk split computes the same bits.
const CHUNKED: [(&str, u64, u64); 3] = [
    ("Local", 0xd5d06617251ae951, 0x5dd30466180c0e1b),
    ("Global", 0x71f521aaaa72989e, 0x8a71010196f5e505),
    ("Loc + Glo + CSR", 0x08e7663d7012bbe8, 0x601a9c110ba413d3),
];

/// `(path, f32 digest, f64 digest)` of the `FSF` stack.
const MODEL: [(&str, u64, u64); 3] = [
    ("forward", 0x13f532598ae9abdb, 0x3af6f9c021d3f258),
    ("prefill", 0xa964a97d15f2087d, 0x5e160ee90c03b3c6),
    ("decode", 0x63cb16292c69c619, 0x3d70f3adf8572f09),
];

/// [`MODEL`] at `d_model` 20, two heads of `dk` 10: the projection widths
/// 60 and 20 are no multiple of 16 and the head width 10 no multiple of 4,
/// so the projections' and the row tile's remainder columns carry bits
/// too.
const MODEL_ODD: [(&str, u64, u64); 3] = [
    ("forward", 0x63dbdbe9745bf1d1, 0x45e781bd0b0b0883),
    ("prefill", 0x63842876a2f80244, 0x50d885cfa69d9c8e),
    ("decode", 0x51843a69a9a1bd6c, 0x843a49973d5cc0ea),
];

/// [`MODEL`] over an input [`with_exact_zeros`].
const MODEL_ZEROS: [(&str, u64, u64); 3] = [
    ("forward", 0x38be9e334abc136b, 0x9737162a16a39f23),
    ("prefill", 0x39b52fd2ca210b0e, 0x0e6aec97aae85c32),
    ("decode", 0xfb04eafd1f631b59, 0xd77fc7813ee01d9e),
];

/// `(plan, run digest, decode digest)` of Fig. 6's Longformer plan at
/// `L = 256` with queries [`with_exact_zeros`] (the decoded last row is
/// all `−0`), in `f32` and in `f64`.
const ZERO_QUERIES: [(&str, u64, u64); 2] = [
    ("Loc + Glo f32", 0x7766f430ee9003d3, 0xc97665d1ec168797),
    ("Loc + Glo f64", 0x7dab96b9c044e80d, 0x3b2f2f6e53dea5b1),
];

/// `(mask, digest of its CSR)` at `L = 4096`.
const MASKS: [(&str, u64); 4] = [
    ("longformer_dilated", 0x182ab5bbcd3c3e34),
    ("Local ∪ GlobalMinusLocal", 0x4d72c1c14b082b77),
    ("RandomUniform ∖ covered", 0xefee7b514475c547),
    ("bigbird", 0x482b4ed7e54b62fc),
];

/// Digest of [`served`]'s outputs, concatenated in request-id order.
const SERVED: u64 = 0x67921db45afba0dd;

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
    let (q, k, v) = qkv::<T>(fig6.l, DK, SEED);
    plan_digests(fig6, band, expected, &q, &k, &v)
}

/// [`digests`] over the given inputs.
fn plan_digests<T: Bits>(
    fig6: &Fig6,
    band: &[i64],
    expected: &[(&str, u64, u64)],
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
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
    let last = |m: &Matrix<T>| m.rows_slice(l - 1, l);
    expected
        .iter()
        .map(|&(name, _, _)| {
            let (_, steps) = plans.iter().find(|(n, _)| *n == name).unwrap();
            let plan = engine.compile(steps).unwrap();
            let out = engine.run(&plan, q, k, v).unwrap();
            let mut cache = KvCache::single(DK, DK);
            cache.extend(0, &k.rows_slice(0, l - 1), &v.rows_slice(0, l - 1));
            let row = engine
                .decode_step(&plan, &last(q), &last(k), &last(v), &mut cache)
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

/// Exact zeros in `m`: every row `i ≡ 1 (mod 4)` all `+0`, every row
/// `i ≡ 3 (mod 4)` all `−0`, and in the other rows every seventh element
/// (counted row-major) `+0` or `−0` by turns.
fn with_exact_zeros<T: Real>(m: &mut Matrix<T>) {
    let cols = m.cols();
    for i in 0..m.rows() {
        for (j, x) in m.row_mut(i).iter_mut().enumerate() {
            let at = i * cols + j;
            *x = match i % 4 {
                1 => T::ZERO,
                3 => -T::ZERO,
                _ if at % 7 == 2 && at % 2 == 0 => T::ZERO,
                _ if at % 7 == 2 => -T::ZERO,
                _ => *x,
            };
        }
    }
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

/// The band of the `L = 4096` tables: 103 diagonals, every fifth offset
/// of the window, so four tiles a row.
fn long_band() -> Vec<i64> {
    let w = (L_LONG / 16) as i64;
    (-w..=w).step_by(5).collect()
}

#[test]
fn f32_digests_at_4096() {
    let fig6 = Fig6::new(L_LONG);
    check(digests::<f32>(&fig6, &long_band(), &F32_LONG), &F32_LONG);
}

/// One Longformer row of [`ZERO_QUERIES`]: its name with `ty` appended.
fn zero_query_digests<T: Bits>(fig6: &Fig6, ty: &str) -> (String, u64, u64) {
    let (mut q, k, v) = qkv::<T>(fig6.l, DK, SEED);
    with_exact_zeros(&mut q);
    let (name, run, decode) = plan_digests(fig6, &short_band(), &LONGFORMER_F32, &q, &k, &v)
        .pop()
        .unwrap();
    (format!("{name} {ty}"), run, decode)
}

#[test]
fn zero_query_digests_take_the_signed_zero_maximum() {
    let fig6 = Fig6::new(L);
    let got = vec![
        zero_query_digests::<f32>(&fig6, "f32"),
        zero_query_digests::<f64>(&fig6, "f64"),
    ];
    check(got, &ZERO_QUERIES);
}

#[test]
fn f64_digests_at_4096() {
    let fig6 = Fig6::new(L_LONG);
    check(digests::<f64>(&fig6, &long_band(), &F64_LONG), &F64_LONG);
}

/// Pair each name of `table` with the `f32` and `f64` digests at its index.
fn pair_up(table: &[(&str, u64, u64)], f32s: &[u64], f64s: &[u64]) -> Vec<(String, u64, u64)> {
    table
        .iter()
        .zip(f32s.iter().zip(f64s))
        .map(|(&(name, _, _), (&a, &b))| (name.to_string(), a, b))
        .collect()
}

/// `masked_sdp` over BigBird's local ∪ global ∪ random mask, and
/// `flash_attention_tiled` with 48-row tiles (the last holds 16 rows).
fn dense_digests<T: Bits>(fig6: &Fig6) -> Vec<u64> {
    let engine = AttentionEngine::with_threads(2);
    let (q, k, v) = qkv::<T>(fig6.l, DK, SEED);
    let mask = DenseMask::from_csr(&fig6.covered.union(&fig6.random_rest));
    let sdp = masked_sdp(&engine, &mask, &q, &k, &v).unwrap();
    let flash = flash_attention_tiled(&engine, &q, &k, &v, 48).unwrap();
    vec![digest(&sdp), digest(&flash)]
}

#[test]
fn dense_baseline_digests() {
    let fig6 = Fig6::new(L);
    let (f32s, f64s) = (dense_digests::<f32>(&fig6), dense_digests::<f64>(&fig6));
    check(pair_up(&DENSE, &f32s, &f64s), &DENSE);
}

/// The prompt outputs of `prefill_chunked` into an empty cache, in
/// [`CHUNK`]-row chunks, for each plan of [`CHUNKED`].
fn chunked_digests<T: Bits>(fig6: &Fig6) -> Vec<u64> {
    let local = AttentionKernel::Local { n: fig6.w };
    let global = AttentionKernel::Global {
        globals: &fig6.globals,
        n_sub: fig6.w,
    };
    let random_rest = AttentionKernel::Csr(&fig6.random_rest);
    let plans: [&[AttentionKernel<'_>]; 3] = [&[local], &[global], &[local, global, random_rest]];
    let engine = AttentionEngine::with_threads(2);
    let (q, k, v) = qkv::<T>(fig6.l, DK, SEED);
    plans
        .iter()
        .map(|steps| {
            let plan = engine.compile(steps).unwrap();
            let mut cache = KvCache::single(DK, DK);
            let out = engine
                .prefill_chunked(&plan, &q, &k, &v, CHUNK, &mut cache)
                .unwrap();
            digest(&out)
        })
        .collect()
}

#[test]
fn chunked_prefill_digests() {
    let fig6 = Fig6::new(L);
    let (f32s, f64s) = (chunked_digests::<f32>(&fig6), chunked_digests::<f64>(&fig6));
    check(pair_up(&CHUNKED, &f32s, &f64s), &CHUNKED);
}

/// A three-layer `FSF` stack (Local `n = 20`, Dilated-1D `w = 40`) of
/// `heads` heads of `dk` over a `d_model` stream, run three ways outside
/// the scheduler: the square `forward` over all [`L_MODEL`] rows;
/// `forward_prefill_chunked` of the first `L_MODEL − 1` rows in 7-row
/// chunks; then `forward_decode` of the last row.
fn model_digests<T: Bits>(d_model: usize, heads: usize, dk: usize, zeros: bool) -> Vec<u64> {
    let local = AttentionPlan::single(AttentionKernel::Local { n: 20 }).unwrap();
    let dilated = AttentionPlan::single(AttentionKernel::Dilated1d { w: 40, r: 1 }).unwrap();
    let model = DecoderModel::<T>::new(
        LayerPattern::parse("FSF").unwrap(),
        vec![('F', local), ('S', dilated)],
        d_model,
        heads,
        dk,
        SEED,
    )
    .unwrap();
    let engine = AttentionEngine::with_threads(2);
    let mut x = uniform_matrix::<T>(L_MODEL, d_model, SEED);
    if zeros {
        with_exact_zeros(&mut x);
    }
    let full = model.forward(&engine, &x).unwrap();
    let mut pool = PagePool::new(3 * L_MODEL / 4, 4);
    let state = ModelKvState::allocate(&model, &mut pool);
    let prompt = x.rows_slice(0, L_MODEL - 1);
    let prefill = model
        .forward_prefill_chunked(&engine, &mut pool, &state, &prompt, 7)
        .unwrap();
    let last = x.rows_slice(L_MODEL - 1, L_MODEL);
    let decode = model
        .forward_decode(&engine, &mut pool, &state, &last)
        .unwrap();
    vec![digest(&full), digest(&prefill), digest(&decode)]
}

#[test]
fn decoder_model_digests() {
    let dk = D_MODEL / HEADS;
    let f32s = model_digests::<f32>(D_MODEL, HEADS, dk, false);
    let f64s = model_digests::<f64>(D_MODEL, HEADS, dk, false);
    check(pair_up(&MODEL, &f32s, &f64s), &MODEL);
}

#[test]
fn odd_width_decoder_model_digests() {
    let f32s = model_digests::<f32>(20, 2, 10, false);
    let f64s = model_digests::<f64>(20, 2, 10, false);
    check(pair_up(&MODEL_ODD, &f32s, &f64s), &MODEL_ODD);
}

/// The zero-skip of the projections, end to end: whole input rows of `+0`
/// and of `−0` (the decoded last row is all `−0`) and scattered signed
/// zeros elsewhere.
#[test]
fn exact_zero_decoder_model_digests() {
    let dk = D_MODEL / HEADS;
    let f32s = model_digests::<f32>(D_MODEL, HEADS, dk, true);
    let f64s = model_digests::<f64>(D_MODEL, HEADS, dk, true);
    check(pair_up(&MODEL_ZEROS, &f32s, &f64s), &MODEL_ZEROS);
}

#[test]
fn mask_digests() {
    let fig6 = Fig6::new(L_LONG);
    let (l, w) = (fig6.l, fig6.w);
    let indices: Vec<usize> = fig6.globals.indices().iter().map(|&g| g as usize).collect();
    assert_eq!(
        longformer(l, w, indices.clone()).to_csr(),
        fig6.covered,
        "the longformer preset disagrees with CsrMask::union"
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

/// Replay one seeded trace through a `Scheduler` on `threads` engine
/// threads and return every completion's output in request-id order. The
/// trace mixes explicit Local and Dilated-1D requests, `Auto` requests and
/// a three-layer stack; a Local row holds up to 41 edges, more than one
/// tile. The pool's 28 four-token pages hold one stack at its longest, so
/// plan sequences and stacks are both preempted and resumed.
fn served(threads: usize) -> Vec<Matrix<f32>> {
    let spec = TraceSpec {
        sequences: 12,
        prompt: (8, 20),
        decode: (6, 16),
        dk: 8,
        arrival_gap: (0, 1),
        priority_classes: 2,
        seed: SEED,
    };
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 28,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 6,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Swap,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f32> =
        Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
    let local = AttentionPlan::single(AttentionKernel::Local { n: 20 }).unwrap();
    let dilated = AttentionPlan::single(AttentionKernel::Dilated1d { w: 40, r: 1 }).unwrap();
    let stack = DecoderModel::new(
        LayerPattern::parse("FSF").unwrap(),
        vec![('F', local.clone()), ('S', dilated.clone())],
        8,
        2,
        4,
        SEED,
    )
    .unwrap();
    let patterns = [
        PatternChoice::from(scheduler.register_plan(local).unwrap()),
        PatternChoice::from(scheduler.register_plan(dilated).unwrap()),
        PatternChoice::Auto,
    ];
    let model = scheduler.register_model(stack);
    let trace = generate_trace::<f32, _>(&spec, &patterns, &[(model, 8)]);
    let mut completions = replay(&mut scheduler, &trace, 100_000).unwrap();
    assert_eq!(completions.len(), spec.sequences);
    for (what, kind) in [("plan", false), ("stack", true)] {
        assert!(
            completions
                .iter()
                .any(|c| c.target.model().is_some() == kind && c.preemptions > 0),
            "{threads} threads: no {what} sequence was preempted"
        );
    }
    completions.sort_by_key(|c| c.id.as_u64());
    completions.into_iter().map(|c| c.output).collect()
}

#[test]
fn served_trace_digest() {
    for threads in [1, 2] {
        let got = fnv(served(threads)
            .iter()
            .flat_map(|m| m.as_slice().iter().flat_map(|x| x.le_bytes())));
        assert_eq!(
            got, SERVED,
            "{threads} threads: the served outputs moved; the code now computes 0x{got:016x}"
        );
    }
}
