//! 3D-stacked bit compression (paper §4.2, Figure 4).
//!
//! A `q`-bit quantized matrix is stored as `q` packed bit planes stacked along a
//! third ("z") axis.  The plane layout depends on the operand position the matrix
//! will take in a GEMM:
//!
//! * left operand (`A` in `C = A·B`): each plane uses row-packed storage
//!   ("column-wise compression" — coalesced reads along each row);
//! * right operand (`B`): each plane uses column-packed storage
//!   ("row-wise compression" — coalesced reads along each column).
//!
//! The stack also records the quantization parameters used to produce the codes so
//! that downstream layers can dequantize or re-quantize fused with the GEMM epilogue.

use crate::bitmatrix::{BitMatrix, BitMatrixLayout};
use crate::pack::{pad128, pad8, WORD_BITS};
use qgtc_tensor::{Matrix, QuantParams};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of stack unpacks ([`StackedBitMatrix::to_codes`] calls).
static UNPACK_OPS: AtomicU64 = AtomicU64::new(0);

/// Number of stack unpacks (`to_codes` calls, including those inside `repack`)
/// this process has performed so far.  Unpacking is the expensive escape hatch
/// out of the packed quantized domain, so the GNN regression suite asserts on
/// deltas of this counter to pin how many unpacks a forward pass is allowed.
pub fn unpack_ops() -> u64 {
    UNPACK_OPS.load(Ordering::Relaxed)
}

/// Largest code that fits in `bits` bits.  Panics unless `bits` is in `1..=32`.
fn max_code(bits: u32) -> u32 {
    assert!(
        (1..=32).contains(&bits),
        "bits must be in 1..=32, got {bits}"
    );
    u32::MAX >> (32 - bits)
}

/// Codes of up to 32 values, zero-padded to a full word's worth.
#[inline]
fn code_chunk<T: Copy>(chunk: &[T], code: impl Fn(T) -> u32) -> [u32; WORD_BITS] {
    let mut codes = [0u32; WORD_BITS];
    match <&[T; WORD_BITS]>::try_from(chunk) {
        // The fixed-length loop of a full chunk vectorizes.
        Ok(full) => {
            for (slot, &v) in codes.iter_mut().zip(full) {
                *slot = code(v);
            }
        }
        Err(_) => {
            for (slot, &v) in codes.iter_mut().zip(chunk) {
                *slot = code(v);
            }
        }
    }
    codes
}

#[inline]
fn chunk_sum(codes: &[u32; WORD_BITS]) -> i64 {
    codes.iter().map(|&c| i64::from(c)).sum()
}

/// Bit-transpose 32 codes: for every plane `p < bits`, call `emit(p, word)`
/// where bit `j` of `word` is bit `p` of `codes[j]`.
///
/// Codes of up to 8 bits go through the byte-gather multiply: with eight
/// codes as the bytes of a `u64`, `((g >> p) & 0x0101…01) * 0x0102040810204080`
/// moves bit `p` of byte `i` to bit `56 + i` — every partial product lands on
/// its own bit position, so nothing carries — and `>> 56` reads out the 8
/// gathered bits.  Wider codes take the bit-by-bit loop.
#[inline]
fn transpose_codes(codes: &[u32; WORD_BITS], bits: u32, mut emit: impl FnMut(usize, u32)) {
    const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    if bits <= 8 {
        let bytes: [u8; WORD_BITS] = std::array::from_fn(|j| codes[j] as u8);
        let groups: [u64; 4] = std::array::from_fn(|g| {
            u64::from_le_bytes(bytes[8 * g..8 * g + 8].try_into().expect("8 bytes"))
        });
        for p in 0..bits as usize {
            let word = groups.iter().enumerate().fold(0u32, |w, (g, &group)| {
                let gathered = ((group >> p) & BYTE_LSBS).wrapping_mul(GATHER) >> 56;
                w | (gathered as u32) << (8 * g)
            });
            emit(p, word);
        }
    } else {
        for p in 0..bits as usize {
            let word = codes
                .iter()
                .enumerate()
                .fold(0u32, |w, (j, &c)| w | ((c >> p) & 1) << j);
            emit(p, word);
        }
    }
}

/// A quantized matrix stored as stacked packed bit planes.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedBitMatrix {
    /// Logical number of rows.
    rows: usize,
    /// Logical number of columns.
    cols: usize,
    /// Bitwidth (number of planes).
    bits: u32,
    /// Layout shared by all planes.
    layout: BitMatrixLayout,
    /// The bit planes, LSB first.
    planes: Vec<BitMatrix>,
    /// Quantization parameters used to produce the codes, if any.
    quant: Option<QuantParams>,
}

impl StackedBitMatrix {
    /// Build a stack from a matrix of unsigned codes.
    pub fn from_codes(codes: &Matrix<u32>, bits: u32, layout: BitMatrixLayout) -> Self {
        Self::from_codes_in(codes, bits, layout, &mut Vec::new())
    }

    /// [`StackedBitMatrix::from_codes`] drawing per-plane word storage from
    /// `spares` (buffers recovered via [`StackedBitMatrix::recycle`]); one
    /// spare is popped per plane, falling back to a fresh allocation when the
    /// spare list runs dry.  Recycled storage is zeroed before packing, so the
    /// result is bitwise identical to the freshly-allocated constructor.
    ///
    /// Panics if `bits` is outside `1..=32` or any code does not fit in `bits`
    /// bits.
    pub fn from_codes_in(
        codes: &Matrix<u32>,
        bits: u32,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> Self {
        Self::from_codes_with_rowsums_in(codes, bits, layout, spares).0
    }

    /// [`StackedBitMatrix::from_codes_in`] that also returns the per-row code
    /// sums, accumulated in the packing pass.
    fn from_codes_with_rowsums_in(
        codes: &Matrix<u32>,
        bits: u32,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> (Self, Vec<i64>) {
        let max = max_code(bits);
        for &v in codes.data() {
            assert!(v <= max, "value {v} does not fit in {bits} bits");
        }
        Self::pack_with(codes, bits, layout, spares, |c| c)
    }

    /// One-pass quantize-and-pack: quantize `values` under `params` and write
    /// each code's bits straight into the packed plane words, accumulating the
    /// per-row code sums in the same loop.  No code matrix and no per-plane
    /// byte matrix is built.  Returns the stack (remembering `params`) and the
    /// row sums the next layer's affine correction needs.
    ///
    /// Bitwise identical to quantizing with
    /// `Quantizer::quantize_matrix_u32` and packing the codes with
    /// [`StackedBitMatrix::from_codes`].
    pub fn from_f32(
        values: &Matrix<f32>,
        params: QuantParams,
        layout: BitMatrixLayout,
    ) -> (Self, Vec<i64>) {
        Self::from_f32_in(values, params, layout, &mut Vec::new())
    }

    /// [`StackedBitMatrix::from_f32`] drawing plane storage from `spares`
    /// (see [`StackedBitMatrix::from_codes_in`]).
    pub fn from_f32_in(
        values: &Matrix<f32>,
        params: QuantParams,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> (Self, Vec<i64>) {
        let (mut stack, rowsums) = if params.bits <= 24 {
            let top = params.max_code() as f32;
            Self::pack_with(values, params.bits, layout, spares, |v| {
                let q = ((v - params.min) / params.scale).max(0.0).min(top);
                // SAFETY: `max` and `min` return their non-NaN operand, so `q`
                // is finite and in `[0, top]`, and `top < 2^24` fits a `u32`.
                // (The checked cast costs a scalar saturation fix-up per
                // element; unchecked, the loop vectorizes: ~2x on the packer.)
                unsafe { q.to_int_unchecked::<u32>() }
            })
        } else {
            Self::pack_with(values, params.bits, layout, spares, |v| params.quantize(v))
        };
        stack.quant = Some(params);
        (stack, rowsums)
    }

    /// Build a stack from codes produced by a quantizer, remembering its parameters.
    pub fn from_quantized(
        codes: &Matrix<u32>,
        params: QuantParams,
        layout: BitMatrixLayout,
    ) -> Self {
        let mut s = Self::from_codes(codes, params.bits, layout);
        s.quant = Some(params);
        s
    }

    /// The shared packer: map every element of `values` to its code and OR
    /// the code's bits into the packed planes, 32 codes (one packed word per
    /// plane) at a time, summing each row's codes on the way.  `code` must
    /// return values that fit in `bits` bits.
    fn pack_with<T: Copy>(
        values: &Matrix<T>,
        bits: u32,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
        code: impl Fn(T) -> u32,
    ) -> (Self, Vec<i64>) {
        max_code(bits); // validates the bitwidth
        let (rows, cols) = values.shape();
        let mut planes: Vec<BitMatrix> = (0..bits)
            .map(|_| BitMatrix::zeroed_in(rows, cols, layout, spares.pop().unwrap_or_default()))
            .collect();
        let words_per_lane = match layout {
            BitMatrixLayout::RowPacked => pad128(cols) / WORD_BITS,
            BitMatrixLayout::ColPacked => pad128(rows) / WORD_BITS,
        };
        let mut rowsums = vec![0i64; rows];
        let mut emit = |plane: usize, index: usize, word: u32| {
            planes[plane].words_mut()[index] = word;
        };
        match layout {
            BitMatrixLayout::RowPacked => {
                // Lane = row: each 32-column chunk of a row is one word per plane.
                for (r, sum) in rowsums.iter_mut().enumerate() {
                    for (w, chunk) in values.row(r).chunks(WORD_BITS).enumerate() {
                        let codes = code_chunk(chunk, &code);
                        *sum += chunk_sum(&codes);
                        transpose_codes(&codes, bits, |p, word| {
                            emit(p, r * words_per_lane + w, word)
                        });
                    }
                }
            }
            BitMatrixLayout::ColPacked => {
                // Lane = column: a tile of 32 rows × up to 32 columns is
                // quantized row by row (contiguous reads of the source) and
                // stored transposed; each tile column is then one word per
                // plane.
                for (w, r0) in (0..rows).step_by(WORD_BITS).enumerate() {
                    let tile_rows = (rows - r0).min(WORD_BITS);
                    for c0 in (0..cols).step_by(WORD_BITS) {
                        let tile_cols = (cols - c0).min(WORD_BITS);
                        let mut tile = [[0u32; WORD_BITS]; WORD_BITS];
                        for k in 0..tile_rows {
                            let codes = code_chunk(&values.row(r0 + k)[c0..c0 + tile_cols], &code);
                            rowsums[r0 + k] += chunk_sum(&codes);
                            for (column, &c) in tile.iter_mut().zip(&codes) {
                                column[k] = c;
                            }
                        }
                        for (j, column) in tile[..tile_cols].iter().enumerate() {
                            transpose_codes(column, bits, |p, word| {
                                emit(p, (c0 + j) * words_per_lane + w, word)
                            });
                        }
                    }
                }
            }
        }
        let stack = Self {
            rows,
            cols,
            bits,
            layout,
            planes,
            quant: None,
        };
        (stack, rowsums)
    }

    /// Build a 1-bit stack from a dense 0/1 adjacency matrix.
    pub fn from_binary_adjacency(adjacency: &Matrix<f32>, layout: BitMatrixLayout) -> Self {
        Self::from_binary_adjacency_in(adjacency, layout, &mut Vec::new())
    }

    /// [`StackedBitMatrix::from_binary_adjacency`] drawing the plane's storage
    /// from `spares` (see [`StackedBitMatrix::from_codes_in`]).
    pub fn from_binary_adjacency_in(
        adjacency: &Matrix<f32>,
        layout: BitMatrixLayout,
        spares: &mut Vec<Vec<u32>>,
    ) -> Self {
        let plane =
            BitMatrix::from_dense_f32_in(adjacency, layout, spares.pop().unwrap_or_default());
        Self {
            rows: adjacency.rows(),
            cols: adjacency.cols(),
            bits: 1,
            layout,
            planes: vec![plane],
            quant: None,
        }
    }

    /// Consume the stack and push every plane's packed word buffer onto
    /// `spares` for reuse through the `*_in` constructors — the serving
    /// layer's packed-buffer pool rides this seam.
    pub fn recycle(self, spares: &mut Vec<Vec<u32>>) {
        for plane in self.planes {
            spares.push(plane.into_words());
        }
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bitwidth (number of stacked planes).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Plane layout.
    pub fn layout(&self) -> BitMatrixLayout {
        self.layout
    }

    /// Quantization parameters, if the stack came from a quantizer.
    pub fn quant_params(&self) -> Option<QuantParams> {
        self.quant
    }

    /// The bit planes, LSB first.
    pub fn planes(&self) -> &[BitMatrix] {
        &self.planes
    }

    /// A single plane.
    pub fn plane(&self, i: usize) -> &BitMatrix {
        &self.planes[i]
    }

    /// Total packed size in bytes across all planes — the paper's memory-saving
    /// metric and the payload size of the bandwidth-optimized subgraph packing.
    pub fn packed_bytes(&self) -> usize {
        self.planes.iter().map(BitMatrix::packed_bytes).sum()
    }

    /// Size in bytes the same matrix would occupy as dense `f32`.
    pub fn dense_f32_bytes(&self) -> usize {
        self.rows * self.cols * std::mem::size_of::<f32>()
    }

    /// Compression ratio versus dense fp32 storage (ignoring padding of the dense side).
    pub fn compression_ratio(&self) -> f64 {
        if self.packed_bytes() == 0 {
            return 1.0;
        }
        self.dense_f32_bytes() as f64 / self.packed_bytes() as f64
    }

    /// Re-pack the same codes under another plane layout, preserving the
    /// quantization parameters.
    ///
    /// This is a pure bit shuffle in the quantized domain — no calibration and
    /// no quantize calls — used when a stack packed as one GEMM operand (e.g.
    /// the payload's column-packed features) must enter a GEMM on the other
    /// side (e.g. batched GIN's update-first order, which wants a row-packed
    /// left operand).  Returns a clone when the layout already matches.
    pub fn repack(&self, layout: BitMatrixLayout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        self.repack_with_rowsums(layout).0
    }

    /// [`Self::repack`] that also returns the per-row code sums, paying one
    /// unpack for both.  Callers that need rowsums for the fused epilogue's
    /// affine correction right after a repack (e.g. batched GIN's entry
    /// repack) would otherwise unpack the stack a second time to sum it.
    pub fn repack_with_rowsums(&self, layout: BitMatrixLayout) -> (Self, Vec<i64>) {
        let (mut repacked, rowsums) =
            Self::from_codes_with_rowsums_in(&self.to_codes(), self.bits, layout, &mut Vec::new());
        repacked.quant = self.quant;
        (repacked, rowsums)
    }

    /// Reassemble the unsigned code matrix (exact inverse of `from_codes`).
    pub fn to_codes(&self) -> Matrix<u32> {
        UNPACK_OPS.fetch_add(1, Ordering::Relaxed);
        let (rows, cols) = (self.rows, self.cols);
        let mut codes: Matrix<u32> = Matrix::zeros(rows, cols);
        let out = codes.data_mut();
        // Walk each logical lane's words; lane element `k` is code
        // `(lane, k)` for row-packed planes and `(k, lane)` for column-packed.
        let (lanes, lane_len, lane_stride, elem_stride) = match self.layout {
            BitMatrixLayout::RowPacked => (rows, cols, cols, 1),
            BitMatrixLayout::ColPacked => (cols, rows, 1, cols),
        };
        for (p, plane) in self.planes.iter().enumerate() {
            for lane in 0..lanes {
                let words = plane.lane(lane);
                for k in 0..lane_len {
                    let bit = (words[k / WORD_BITS] >> (k % WORD_BITS)) & 1;
                    out[lane * lane_stride + k * elem_stride] |= bit << p;
                }
            }
        }
        codes
    }

    /// Order-sensitive checksum across all planes (see [`BitMatrix::checksum`]).
    ///
    /// Any single-bit flip in any plane changes the result, so the epoch pipeline
    /// can validate a staged payload in one comparison at queue-take time.
    pub fn checksum(&self) -> u64 {
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut hash = (self.bits as u64).wrapping_mul(FNV_PRIME) ^ 0x51ac3ed_u64;
        for plane in &self.planes {
            hash = (hash ^ plane.checksum()).wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// XOR `mask` into word `word_index` of plane `plane_index` — the
    /// fault-injection corruption hook (see [`BitMatrix::flip_word_bits`]).
    pub fn flip_word_bits(&mut self, plane_index: usize, word_index: usize, mask: u32) {
        self.planes[plane_index].flip_word_bits(word_index, mask);
    }

    /// The shape of the packed representation after padding, expressed as
    /// `(planes, padded_lanes, words_per_lane)` — matches the paper's description of
    /// the compressed tensor, e.g. `3-bit × PAD8(M) × PAD128(K)/32` for operand A.
    pub fn packed_shape(&self) -> (u32, usize, usize) {
        match self.layout {
            BitMatrixLayout::RowPacked => (self.bits, pad8(self.rows), pad128(self.cols) / 32),
            BitMatrixLayout::ColPacked => (self.bits, pad8(self.cols), pad128(self.rows) / 32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_tensor::rng::random_uniform_matrix;
    use qgtc_tensor::Quantizer;

    fn code_matrix(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u32 << bits) - 1;
        let f = random_uniform_matrix(rows, cols, 0.0, max as f32 + 0.99, seed);
        f.map(|&v| (v as u32).min(max))
    }

    #[test]
    fn round_trip_codes() {
        for bits in [1u32, 2, 3, 4, 8] {
            let codes = code_matrix(9, 33, bits, 42 + bits as u64);
            for layout in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
                let s = StackedBitMatrix::from_codes(&codes, bits, layout);
                assert_eq!(s.bits(), bits);
                assert_eq!(s.planes().len(), bits as usize);
                assert_eq!(s.to_codes(), codes, "bits {bits} layout {layout:?}");
            }
        }
    }

    #[test]
    fn packed_shape_matches_paper_example() {
        // Paper: 3-bit M x K operand A packs to 3-bit x PAD8(M) x PAD128(K)/32.
        let codes = code_matrix(10, 200, 3, 7);
        let a = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::RowPacked);
        assert_eq!(a.packed_shape(), (3, 16, 8));
        // 2-bit K x N operand B packs to 2-bit x PAD128(K)/32 words per lane with
        // PAD8(N) lanes.
        let codes_b = code_matrix(200, 10, 2, 8);
        let b = StackedBitMatrix::from_codes(&codes_b, 2, BitMatrixLayout::ColPacked);
        assert_eq!(b.packed_shape(), (2, 16, 8));
    }

    #[test]
    fn compression_ratio_beats_fp32_for_low_bits() {
        // A 256x256 2-bit matrix: 2 x 256 x 256 bits packed vs 32 bits per element.
        let codes = code_matrix(256, 256, 2, 3);
        let s = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::RowPacked);
        assert!(
            s.compression_ratio() > 10.0,
            "expected >10x compression, got {:.1}",
            s.compression_ratio()
        );
    }

    #[test]
    fn binary_adjacency_stack_is_one_plane() {
        let mut adj = Matrix::zeros(6, 6);
        adj[(0, 1)] = 1.0;
        adj[(1, 0)] = 1.0;
        adj[(4, 5)] = 1.0;
        let s = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        assert_eq!(s.bits(), 1);
        assert_eq!(s.plane(0).count_ones(), 3);
        assert_eq!(s.to_codes()[(0, 1)], 1);
        assert_eq!(s.to_codes()[(2, 2)], 0);
    }

    #[test]
    fn repack_preserves_codes_and_params() {
        let x = random_uniform_matrix(11, 37, -2.0, 2.0, 6);
        let q = Quantizer::calibrate(3, &x).unwrap();
        let codes = q.quantize_matrix_u32(&x);
        let col = StackedBitMatrix::from_quantized(&codes, q.params(), BitMatrixLayout::ColPacked);
        let row = col.repack(BitMatrixLayout::RowPacked);
        assert_eq!(row.layout(), BitMatrixLayout::RowPacked);
        assert_eq!(row.to_codes(), codes);
        assert_eq!(row.quant_params(), Some(q.params()));
        // Re-packing to the same layout is the identity.
        assert_eq!(col.repack(BitMatrixLayout::ColPacked), col);
    }

    #[test]
    fn repack_with_rowsums_matches_repack_and_code_sums() {
        let codes = code_matrix(13, 29, 3, 11);
        let col = StackedBitMatrix::from_codes(&codes, 3, BitMatrixLayout::ColPacked);
        let (row, rowsums) = col.repack_with_rowsums(BitMatrixLayout::RowPacked);
        assert_eq!(row, col.repack(BitMatrixLayout::RowPacked));
        let expected: Vec<i64> = (0..13)
            .map(|i| (0..29).map(|j| codes[(i, j)] as i64).sum())
            .collect();
        assert_eq!(rowsums, expected);
    }

    #[test]
    fn repack_of_one_row_stack_is_the_identity_on_codes() {
        // Pin the degenerate single-row case the epilogue boundary suite leans
        // on: a 1-row stack repacks to either layout without panicking and
        // round-trips its codes exactly (no padding bits leak into row 0).
        let codes = code_matrix(1, 37, 4, 21);
        for from in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
            let stack = StackedBitMatrix::from_codes(&codes, 4, from);
            for to in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
                let repacked = stack.repack(to);
                assert_eq!(repacked.layout(), to);
                assert_eq!(repacked.to_codes(), codes, "{from:?} -> {to:?}");
            }
            let (repacked, rowsums) = stack.repack_with_rowsums(BitMatrixLayout::RowPacked);
            assert_eq!(repacked.to_codes(), codes);
            assert_eq!(rowsums.len(), 1);
            assert_eq!(
                rowsums[0],
                (0..37).map(|j| codes[(0, j)] as i64).sum::<i64>()
            );
        }
    }

    #[test]
    fn unpack_counter_advances_with_to_codes() {
        let codes = code_matrix(4, 4, 2, 31);
        let stack = StackedBitMatrix::from_codes(&codes, 2, BitMatrixLayout::RowPacked);
        let before = super::unpack_ops();
        let _ = stack.to_codes();
        assert!(super::unpack_ops() > before);
    }

    #[test]
    fn recycled_storage_packs_bitwise_identical_to_fresh() {
        let codes_a = code_matrix(9, 33, 3, 1);
        let codes_b = code_matrix(5, 17, 2, 2);
        for layout in [BitMatrixLayout::RowPacked, BitMatrixLayout::ColPacked] {
            let fresh = StackedBitMatrix::from_codes(&codes_b, 2, layout);
            let mut spares = Vec::new();
            StackedBitMatrix::from_codes(&codes_a, 3, layout).recycle(&mut spares);
            assert_eq!(spares.len(), 3);
            // Poison the recycled buffers; the `_in` constructors must zero them.
            for spare in &mut spares {
                spare.iter_mut().for_each(|w| *w = 0xDEAD_BEEF);
            }
            let recycled = StackedBitMatrix::from_codes_in(&codes_b, 2, layout, &mut spares);
            assert_eq!(recycled, fresh, "layout {layout:?}");
            assert_eq!(recycled.checksum(), fresh.checksum());
            assert_eq!(spares.len(), 1, "two planes consumed two spares");
        }
    }

    #[test]
    fn recycled_adjacency_matches_fresh() {
        let mut adj = Matrix::zeros(6, 6);
        adj[(0, 1)] = 1.0;
        adj[(5, 2)] = 1.0;
        let fresh = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let mut spares = vec![vec![0xFFFF_FFFFu32; 64]];
        let recycled = StackedBitMatrix::from_binary_adjacency_in(
            &adj,
            BitMatrixLayout::RowPacked,
            &mut spares,
        );
        assert_eq!(recycled, fresh);
        assert!(spares.is_empty());
    }

    #[test]
    fn from_quantized_remembers_params() {
        let x = random_uniform_matrix(8, 8, -1.0, 1.0, 5);
        let q = Quantizer::calibrate(4, &x).unwrap();
        let codes = q.quantize_matrix_u32(&x);
        let s = StackedBitMatrix::from_quantized(&codes, q.params(), BitMatrixLayout::RowPacked);
        assert_eq!(s.quant_params(), Some(q.params()));
        assert_eq!(s.bits(), 4);
        assert_eq!(s.to_codes(), codes);
    }

    #[test]
    fn stacked_checksum_detects_flips_in_any_plane() {
        let mut codes = Matrix::zeros(6, 40);
        for r in 0..6 {
            for c in 0..40 {
                codes[(r, c)] = ((r * 7 + c) % 16) as u32;
            }
        }
        let clean = StackedBitMatrix::from_codes(&codes, 4, BitMatrixLayout::RowPacked);
        let reference = clean.checksum();
        for plane_index in 0..clean.planes().len() {
            let mut damaged = clean.clone();
            damaged.flip_word_bits(plane_index, 0, 0b101);
            assert_ne!(damaged.checksum(), reference, "flip in plane {plane_index}");
            damaged.flip_word_bits(plane_index, 0, 0b101);
            assert_eq!(damaged.checksum(), reference, "double flip restores");
        }
    }
}
