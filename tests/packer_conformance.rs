//! Conformance of the one-pass packers against the two-step composition they
//! replaced.
//!
//! Floats reach the packed bit planes in one pass: `StackedBitMatrix::from_f32`
//! quantizes each value and ORs its bits straight into the plane words (with
//! the per-row code sums accumulated alongside), `StackedBitMatrix::from_codes`
//! packs explicit codes the same way, and `BitMatrix::from_dense_f32` packs a
//! 0/1 adjacency without a byte matrix.  The oracle is the old composition:
//! `Quantizer::quantize_matrix_u32` → `bit_decompose` (one `Matrix<u8>` per
//! plane) → `BitMatrix::from_bits` per plane, with the row sums taken over the
//! oracle's code matrix.
//!
//! The sweep is exhaustive over every shape with rows and cols in `1..=40`
//! (the 32-bit word edge, the `PAD8` lane edge and the `PAD128` word-count
//! edge all fall inside it), every bitwidth in `1..=8` and both layouts, on
//! values salted with NaN, ±inf, −0.0 and exact bucket edges, with the output
//! storage drawn from poisoned recycled spares.

use qgtc_repro::bitmat::decompose::bit_decompose;
use qgtc_repro::bitmat::{BitMatrix, BitMatrixLayout, StackedBitMatrix};
use qgtc_repro::tensor::rng::random_uniform_matrix;
use qgtc_repro::tensor::{Matrix, QuantParams, Quantizer};

const LAYOUTS: [BitMatrixLayout; 2] = [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked];
const MAX_DIM: usize = 40;

/// Uniform values in `[-2, 2)` with roughly every fifth entry replaced by a
/// special: NaN, ±inf, ±0, the range ends, huge magnitudes, or an exact
/// bucket edge (and its float neighbours) of the 1..=8-bit grids over the
/// `[-2, 2]` range the tests quantize under.
fn salted_values(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut specials = vec![
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        -2.0,
        2.0,
        1e30,
        -1e30,
    ];
    for bits in 1..=8u32 {
        let p = QuantParams::from_range(bits, -2.0, 2.0).unwrap();
        for k in [0, 1, p.max_code() / 2, p.max_code(), p.max_code() + 1] {
            let edge = p.min + k as f32 * p.scale;
            specials.push(edge);
            specials.push(f32::from_bits(edge.to_bits() + 1));
            specials.push(f32::from_bits(edge.to_bits().wrapping_sub(1)));
        }
    }
    let mut x = random_uniform_matrix(rows, cols, -2.0, 2.0, seed);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        if h.is_multiple_of(5) {
            *v = specials[(h / 5) as usize % specials.len()];
        }
    }
    x
}

/// The old composition: one byte matrix per plane, each packed on its own.
fn oracle_planes(codes: &Matrix<u32>, bits: u32, layout: BitMatrixLayout) -> Vec<BitMatrix> {
    bit_decompose(codes, bits)
        .iter()
        .map(|plane| BitMatrix::from_bits(plane, layout))
        .collect()
}

fn code_rowsums(codes: &Matrix<u32>) -> Vec<i64> {
    (0..codes.rows())
        .map(|r| codes.row(r).iter().map(|&c| i64::from(c)).sum())
        .collect()
}

/// Poison every spare and vary their lengths (shorter and longer than any
/// plane of the sweep), so a packer that forgets to clear or resize recycled
/// storage shows up as a plane mismatch.
fn poison(spares: &mut Vec<Vec<u32>>, round: usize) {
    spares.truncate(9);
    spares.push(Vec::new());
    for (i, spare) in spares.iter_mut().enumerate() {
        spare.clear();
        spare.resize((i * 37 + round) % 97, 0xDEAD_BEEF);
    }
}

fn assert_stack_matches(
    stack: &StackedBitMatrix,
    oracle: &[BitMatrix],
    (rows, cols, bits, layout): (usize, usize, u32, BitMatrixLayout),
) {
    assert_eq!(stack.bits(), bits);
    assert_eq!(
        (stack.rows(), stack.cols(), stack.layout()),
        (rows, cols, layout)
    );
    assert_eq!(stack.planes().len(), oracle.len());
    for (p, (plane, expected)) in stack.planes().iter().zip(oracle).enumerate() {
        assert_eq!(
            plane, expected,
            "plane {p} of a {rows}x{cols} {bits}-bit {layout:?} stack"
        );
    }
}

#[test]
fn one_pass_quantize_and_pack_equals_quantize_then_decompose_on_every_small_shape() {
    let mut spares: Vec<Vec<u32>> = Vec::new();
    let mut round = 0;
    for rows in 1..=MAX_DIM {
        for cols in 1..=MAX_DIM {
            let x = salted_values(rows, cols, (rows * 131 + cols) as u64);
            for bits in 1..=8u32 {
                let params = QuantParams::from_range(bits, -2.0, 2.0).unwrap();
                let codes = Quantizer::new(params).quantize_matrix_u32(&x);
                let expected_sums = code_rowsums(&codes);
                for layout in LAYOUTS {
                    poison(&mut spares, round);
                    round += 1;
                    let (stack, rowsums) =
                        StackedBitMatrix::from_f32_in(&x, params, layout, &mut spares);
                    let shape = (rows, cols, bits, layout);
                    assert_stack_matches(&stack, &oracle_planes(&codes, bits, layout), shape);
                    assert_eq!(stack.quant_params(), Some(params));
                    assert_eq!(rowsums, expected_sums, "rowsums of {shape:?}");
                    stack.recycle(&mut spares);
                }
            }
        }
    }
}

#[test]
fn explicit_codes_pack_like_the_decomposition() {
    let mut spares: Vec<Vec<u32>> = Vec::new();
    let mut round = 0;
    for rows in 1..=MAX_DIM {
        for cols in (1..=MAX_DIM).step_by(3).chain([31, 32, 33]) {
            for bits in 1..=8u32 {
                let max = (1u32 << bits) - 1;
                let seed = (rows * 977 + cols * 31 + bits as usize) as u64;
                let codes =
                    random_uniform_matrix(rows, cols, 0.0, max as f32 + 1.0, seed).map(|&v| {
                        // Half the entries pinned to the extreme codes.
                        match (v * 7.0) as u32 % 4 {
                            0 => 0,
                            1 => max,
                            _ => (v as u32).min(max),
                        }
                    });
                for layout in LAYOUTS {
                    poison(&mut spares, round);
                    round += 1;
                    let stack = StackedBitMatrix::from_codes_in(&codes, bits, layout, &mut spares);
                    let oracle = oracle_planes(&codes, bits, layout);
                    assert_stack_matches(&stack, &oracle, (rows, cols, bits, layout));
                    assert_eq!(stack.to_codes(), codes);
                    stack.recycle(&mut spares);
                }
            }
        }
    }
}

#[test]
fn constant_matrices_take_the_degenerate_scale() {
    for value in [0.0f32, -0.0, 3.5, -1e-30, f32::INFINITY, f32::NAN] {
        for (rows, cols) in [(1, 1), (7, 33), (40, 40), (33, 8)] {
            let x = Matrix::filled(rows, cols, value);
            for bits in 1..=8u32 {
                let params = QuantParams::calibrate(bits, &x).unwrap();
                let codes = Quantizer::new(params).quantize_matrix_u32(&x);
                for layout in LAYOUTS {
                    let (stack, rowsums) = StackedBitMatrix::from_f32(&x, params, layout);
                    let shape = (rows, cols, bits, layout);
                    assert_stack_matches(&stack, &oracle_planes(&codes, bits, layout), shape);
                    assert_eq!(rowsums, code_rowsums(&codes), "{value} {shape:?}");
                }
            }
        }
    }
}

#[test]
fn wide_codes_take_the_bit_by_bit_path() {
    // Bitwidths above 8 skip the byte-gather transposition; 32 bits also
    // exercises the saturating upper clamp of the quantizer.
    for bits in [9u32, 16, 24, 31, 32] {
        let params = QuantParams::from_range(bits, -2.0, 2.0).unwrap();
        for (rows, cols) in [(1, 1), (5, 31), (33, 40), (40, 33)] {
            let x = salted_values(rows, cols, u64::from(bits) * 7 + rows as u64);
            let codes = Quantizer::new(params).quantize_matrix_u32(&x);
            for layout in LAYOUTS {
                let (stack, rowsums) = StackedBitMatrix::from_f32(&x, params, layout);
                let shape = (rows, cols, bits, layout);
                assert_stack_matches(&stack, &oracle_planes(&codes, bits, layout), shape);
                assert_eq!(rowsums, code_rowsums(&codes), "rowsums of {shape:?}");
            }
        }
    }
}

#[test]
fn dense_adjacency_packs_like_the_byte_matrix() {
    let mut spare = Vec::new();
    for rows in 1..=MAX_DIM {
        for cols in 1..=MAX_DIM {
            let mut x = salted_values(rows, cols, (rows * 7 + cols * 1009) as u64);
            // Mostly zeros, as an adjacency is; the salt keeps NaN, ±inf and
            // -0.0 (which counts as zero) in play.
            for v in x.data_mut() {
                if (0.0..1.5).contains(v) {
                    *v = 0.0;
                }
            }
            let bytes = x.map(|&v| u8::from(v != 0.0));
            for layout in LAYOUTS {
                spare.iter_mut().for_each(|w| *w = u32::MAX);
                let plane = BitMatrix::from_dense_f32_in(&x, layout, std::mem::take(&mut spare));
                assert_eq!(
                    plane,
                    BitMatrix::from_bits(&bytes, layout),
                    "{rows}x{cols} {layout:?}"
                );
                spare = plane.into_words();
            }
        }
    }
}
