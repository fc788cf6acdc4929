//! Property suite for the fused GEMM hot path: across random shapes, bit widths
//! 1–8 and odd/exactly-padded K values, the fused kernels must agree
//! bit-for-bit with the plane-by-plane serial oracle of `qgtc_bitmat::gemm`.
//!
//! The tiling properties extend the contract to the panel-staged kernel:
//! under *any* [`TilingScheme`] — including the degenerate `1x1x1` and
//! K-panels larger than the whole K extent — every available popcount body
//! must reproduce the portable baseline oracle bitwise, result **and** word
//! statistics (the counters are scheme-independent by design).  ci.sh re-runs
//! this file under `RAYON_NUM_THREADS` 1/2/8 in the `tiling` stage, so the
//! staged double-buffered loop is also held deterministic across pool widths.
//!
//! The narrow-K suite at the end enumerates small shapes around the K ≤ 128
//! boundary of the AVX-512 narrow-K route on every available backend.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::{
    aggregate_adj_features_fused, any_bit_gemm_fused, any_bit_gemm_fused_with_scheme, PopcountBody,
    TilingScheme,
};
use qgtc_repro::bitmat::gemm::{aggregate_adj_features, any_bit_gemm_serial};
use qgtc_repro::bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::kernels::backend::{available_backends, PortableBackend};
use qgtc_repro::kernels::GemmBackend;
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::Matrix;

/// K values that exercise the padding edge cases: odd widths, one short of /
/// exactly at / one past the 128-bit tile boundary, and multi-tile widths.
const AWKWARD_K: [usize; 8] = [1, 31, 127, 128, 129, 200, 255, 256];

fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
    let max = (1u64 << bits) as f32;
    random_uniform_matrix(rows, cols, 0.0, max, seed).map(|&v| (v as u32).min((1u32 << bits) - 1))
}

fn stacks(
    m: usize,
    k: usize,
    n: usize,
    s: u32,
    t: u32,
    seed: u64,
) -> (StackedBitMatrix, StackedBitMatrix) {
    let a_codes = random_codes(m, k, s, seed);
    let b_codes = random_codes(k, n, t, seed ^ 0x5DEE_CE66);
    (
        StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked),
        StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_gemm_matches_serial_oracle(
        dims in (1usize..24, 1usize..200, 1usize..24),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        prop_assert_eq!(any_bit_gemm_fused(&a, &b), any_bit_gemm_serial(&a, &b));
    }

    #[test]
    fn fused_gemm_matches_oracle_at_padding_boundaries(
        k_index in 0usize..8,
        dims in (1usize..20, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        seed in 0u64..1_000_000,
    ) {
        let k = AWKWARD_K[k_index];
        let (m, n) = dims;
        let (s, t) = bits;
        let (a, b) = stacks(m, k, n, s, t, seed);
        prop_assert_eq!(any_bit_gemm_fused(&a, &b), any_bit_gemm_serial(&a, &b));
    }

    #[test]
    fn every_tiling_scheme_matches_the_baseline_oracle_on_every_body(
        dims in (1usize..24, 1usize..300, 1usize..20),
        bits in (1u32..=8, 1u32..=8),
        scheme in (1usize..40, 1usize..12, 0usize..40),
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let (s, t) = bits;
        let (row_block, col_block, k_panel_words) = scheme;
        let scheme = TilingScheme { row_block, col_block, k_panel_words };
        // Element-level sparsity so the skip path sees zero words under
        // staging too.
        let mask = random_uniform_matrix(m, k, 0.0, 1.0, seed ^ 0x517A_11CE);
        let mut a_codes = random_codes(m, k, s, seed);
        for r in 0..m {
            for c in 0..k {
                if f64::from(mask[(r, c)]) >= density {
                    a_codes[(r, c)] = 0;
                }
            }
        }
        let b_codes = random_codes(k, n, t, seed ^ 0xBEE5);
        let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
        for skip in [false, true] {
            let (want, want_stats) = any_bit_gemm_fused_with_scheme(
                &a, &b, skip, PopcountBody::Portable, TilingScheme::baseline());
            for body in [PopcountBody::Portable, PopcountBody::Avx2, PopcountBody::Avx512] {
                if !body.is_available() {
                    continue;
                }
                let (got, got_stats) =
                    any_bit_gemm_fused_with_scheme(&a, &b, skip, body, scheme);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got_stats, want_stats);
            }
        }
    }

    #[test]
    fn fused_aggregation_matches_plane_composition(
        dims in (1usize..48, 1usize..24),
        bits in 1u32..=8,
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let (nodes, dim) = dims;
        let adjacency = random_uniform_matrix(nodes, nodes, 0.0, 1.0, seed)
            .map(|&v| (f64::from(v) < density) as u32 as f32);
        let features = random_codes(nodes, dim, bits, seed ^ 0xA5A5);
        let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&features, bits, BitMatrixLayout::ColPacked);
        prop_assert_eq!(
            aggregate_adj_features_fused(&adj, &x),
            aggregate_adj_features(&adj, &x)
        );
    }
}

/// K values straddling the narrow-K route boundary (K ≤ 128 bits, one PAD128
/// tile): single words, both sides of every 32/64-bit word edge, the tile
/// edge itself, and two-tile widths that stay on the scheme's loops.
const NARROW_K: [usize; 11] = [1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 256];

/// Deterministic `bits`-bit code of element `(r, c)` (SplitMix64 finalizer).
fn hashed_code(r: usize, c: usize, bits: u32, seed: u64) -> u32 {
    let mut z = seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((c as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) as u32) & (u32::MAX >> (32 - bits))
}

/// A-side codes with the zero structure the narrow-K kernel skips on: every
/// fourth row all zero, and another fourth with one isolated all-zero 64-bit
/// K word (a different word from row to row where K has several).
fn narrow_a_codes(rows: usize, k: usize, bits: u32, seed: u64) -> Matrix<u32> {
    let k_words = k.div_ceil(64);
    let mut codes = Matrix::zeros(rows, k);
    for r in 0..rows {
        if r % 4 == 3 {
            continue;
        }
        let zero_word = (r % 4 == 1).then_some((r / 4) % k_words);
        for (c, code) in codes.row_mut(r).iter_mut().enumerate() {
            if Some(c / 64) != zero_word {
                *code = hashed_code(r, c, bits, seed);
            }
        }
    }
    codes
}

/// Exhaustive small-shape conformance across the narrow-K route boundary.
/// For every K in [`NARROW_K`] and every bit-width pair in 1..=4 × 1..=4
/// (s = 1 is the adjacency case), twenty shapes cover every m in 1..=17 and
/// every n in 1..=17 and 63..=65 (the eight-column tail and the four-block
/// register tile); the m-to-n pairing rotates with (K, s, t), so across the
/// suite every (m, n) pair meets about ten (K, s, t) triples.  For s = t, two
/// row counts past the kernel's 128-row block run the pool split.  Skip on
/// and off, on every available backend: outputs must equal the serial
/// plane-composition oracle, and word statistics the portable backend's.
#[test]
fn narrow_k_shapes_match_the_oracle_on_every_backend() {
    let backends = available_backends();
    let scheme = TilingScheme::parse("16x8x8").expect("valid scheme");
    let n_values: Vec<usize> = (1..=17).chain([63, 64, 65]).collect();
    let mut combo = 0usize;
    for k in NARROW_K {
        for s in 1..=4u32 {
            let a_codes = narrow_a_codes(300, k, s, combo as u64);
            for t in 1..=4u32 {
                combo += 1;
                let b_codes = Matrix::from_vec(
                    k,
                    65,
                    (0..k * 65)
                        .map(|i| hashed_code(i / 65, i % 65, t, !(combo as u64)))
                        .collect(),
                )
                .expect("k x 65 codes");
                let shapes = n_values
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| (1 + (i + combo) % 17, n))
                    .chain(if s == t {
                        vec![(129, 65), (300, 9)]
                    } else {
                        vec![]
                    });
                for (m, n) in shapes {
                    let a = StackedBitMatrix::from_codes(
                        &a_codes.truncate_to(m, k),
                        s,
                        BitMatrixLayout::RowPacked,
                    );
                    let b = StackedBitMatrix::from_codes(
                        &b_codes.truncate_to(k, n),
                        t,
                        BitMatrixLayout::ColPacked,
                    );
                    let oracle = any_bit_gemm_serial(&a, &b);
                    for skip in [false, true] {
                        let case = format!("m={m} k={k} n={n} s={s} t={t} skip={skip}");
                        let (want, want_stats) =
                            PortableBackend.any_bit_gemm_tiled(&a, &b, skip, scheme);
                        assert_eq!(want, oracle, "portable {case}");
                        for backend in backends.iter().filter(|b| b.name() != "portable") {
                            let (got, stats) = backend.any_bit_gemm_tiled(&a, &b, skip, scheme);
                            assert_eq!(got, oracle, "{} {case}", backend.name());
                            assert_eq!(stats, want_stats, "{} {case}", backend.name());
                        }
                    }
                }
            }
        }
    }
}
