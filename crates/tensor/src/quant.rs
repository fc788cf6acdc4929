//! Uniform affine quantization (Equation 2 of the QGTC paper).
//!
//! QGTC quantizes a 32-bit float `α` into a `q`-bit code
//!
//! ```text
//! α_q = floor((α - α_min) / scale)        scale = (α_max - α_min) / 2^q
//! ```
//!
//! where `α_min` / `α_max` are empirical bounds of the tensor (or supplied by the
//! user).  Codes are unsigned and live in `[0, 2^q - 1]`; dequantization maps a code
//! back to the centre of its bucket.  The same scheme is used for node-embedding
//! matrices and weight matrices; the binary adjacency matrix needs no calibration
//! because its entries are already 0/1.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// Calibrated parameters for quantizing one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Number of bits per code, in `1..=32`.
    pub bits: u32,
    /// Lower bound of the represented range (`α_min` in the paper).
    pub min: f32,
    /// Bucket width (`scale` in the paper).
    pub scale: f32,
}

impl QuantParams {
    /// Calibrate parameters from an explicit range.
    ///
    /// `scale` follows Equation 2: the range divided by the number of representable
    /// codes `2^bits`.  Degenerate ranges (max == min) get a scale of 1 so that
    /// quantization maps everything to code 0 and dequantization returns `min`.
    pub fn from_range(bits: u32, min: f32, max: f32) -> Result<Self> {
        if bits == 0 || bits > 32 {
            return Err(TensorError::InvalidBitwidth(bits));
        }
        let levels = 2f64.powi(bits as i32) as f32;
        let range = (max - min).abs();
        let scale = if range > 0.0 { range / levels } else { 1.0 };
        Ok(Self { bits, min, scale })
    }

    /// Calibrate parameters from the observed min/max of a matrix.
    pub fn calibrate(bits: u32, x: &Matrix<f32>) -> Result<Self> {
        let (mn, mx) = x.min_max();
        Self::from_range(bits, mn, mx)
    }

    /// Largest representable code, `2^bits - 1`.
    #[inline]
    pub fn max_code(&self) -> u32 {
        if self.bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.bits) - 1
        }
    }

    /// Quantize a single value to its unsigned code: `floor((v - min) / scale)`
    /// clamped to `[0, max_code]`, with NaN mapping to 0.
    ///
    /// The float-to-int cast does the floor and the lower clamp in one step:
    /// `as u32` truncates toward zero (the floor for every non-negative
    /// quotient, and 0 for every quotient in `(-1, 0)`), saturates negatives
    /// to 0 and infinities to `u32::MAX`, and maps NaN to 0.  The `min` is the
    /// upper clamp.  This is bitwise identical to floor-then-clamp (pinned by
    /// the `quantize_equals_the_floor_clamp_oracle` test) and costs no libm
    /// call per element.
    #[inline]
    pub fn quantize(&self, v: f32) -> u32 {
        (((v - self.min) / self.scale) as u32).min(self.max_code())
    }

    /// Map a code back to the centre of its bucket.
    #[inline]
    pub fn dequantize(&self, code: u32) -> f32 {
        self.min + (code as f32 + 0.5) * self.scale
    }
}

/// Convenience wrapper that quantizes whole matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    params: QuantParams,
}

impl Quantizer {
    /// Build a quantizer from explicit parameters.
    pub fn new(params: QuantParams) -> Self {
        Self { params }
    }

    /// Calibrate a quantizer for `bits` on the value range of `x`.
    pub fn calibrate(bits: u32, x: &Matrix<f32>) -> Result<Self> {
        Ok(Self {
            params: QuantParams::calibrate(bits, x)?,
        })
    }

    /// The underlying parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Quantize a full matrix into unsigned integer codes stored as `i64`
    /// (wide enough for exact integer GEMM accumulation downstream).
    pub fn quantize_matrix(&self, x: &Matrix<f32>) -> Matrix<i64> {
        x.map(|&v| self.params.quantize(v) as i64)
    }

    /// Quantize a full matrix into `u32` codes (the bit-decomposition input
    /// format).  The forward pass packs straight from floats instead (see
    /// `StackedBitMatrix::from_f32`); this two-step form remains for weights,
    /// explicit code tensors and as the packers' test oracle.
    pub fn quantize_matrix_u32(&self, x: &Matrix<f32>) -> Matrix<u32> {
        x.map(|&v| self.params.quantize(v))
    }

    /// Dequantize an integer-code matrix back to `f32`.
    pub fn dequantize_matrix(&self, codes: &Matrix<i64>) -> Matrix<f32> {
        codes.map(|&c| self.params.dequantize(c.max(0) as u32))
    }

    /// Worst-case absolute quantization error (half a bucket).
    pub fn max_error(&self) -> f32 {
        self.params.scale * 0.5
    }
}

/// Dequantize the result of an integer GEMM `C = Aq · Bq` given the quantizers of the
/// two operands and the inner dimension.
///
/// With affine codes `a = (α - a_min)/s_a` this is only an approximation (the exact
/// affine correction needs row/column sums); QGTC sidesteps the issue by operating on
/// the codes directly and treating the result as the quantized-domain activation, so
/// this helper implements the same convention: a pure rescale by `s_a * s_b`.
pub fn rescale_gemm_output(
    c: &Matrix<i64>,
    a_params: QuantParams,
    b_params: QuantParams,
) -> Matrix<f32> {
    let s = a_params.scale * b_params.scale;
    c.map(|&v| v as f32 * s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-cast formulation of [`QuantParams::quantize`]: explicit floor,
    /// then clamp to the code range.
    fn floor_clamp_oracle(p: &QuantParams, v: f32) -> u32 {
        let code = ((v - p.min) / p.scale).floor();
        if code <= 0.0 {
            0
        } else if code >= p.max_code() as f32 {
            p.max_code()
        } else {
            code as u32
        }
    }

    #[test]
    fn quantize_equals_the_floor_clamp_oracle() {
        let params = [
            QuantParams::from_range(1, 0.0, 1.0).unwrap(),
            QuantParams::from_range(2, -3.5, 7.25).unwrap(),
            QuantParams::from_range(4, -1.0, 1.0).unwrap(),
            QuantParams::from_range(8, -0.0, 1e-3).unwrap(),
            QuantParams::from_range(8, 2.5, 2.5).unwrap(), // degenerate: scale 1
            QuantParams::from_range(24, -100.0, 100.0).unwrap(),
            QuantParams::from_range(31, 0.0, 1.0).unwrap(),
            QuantParams::from_range(32, -1e30, 1e30).unwrap(),
        ];
        let mut specials = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::EPSILON,
        ];
        for p in &params {
            // Every bucket edge and its float neighbours (capped so the
            // 24- and 32-bit ranges stay quick).
            for code in (0..=p.max_code().min(4096)).chain([p.max_code()]) {
                let edge = p.min + code as f32 * p.scale;
                specials.extend([edge, f32::from_bits(edge.to_bits().wrapping_add(1))]);
                specials.push(f32::from_bits(edge.to_bits().wrapping_sub(1)));
            }
        }
        // A strided sweep over every sign, exponent and a spread of mantissas.
        let sweep = (0..=u32::MAX).step_by(4093).map(f32::from_bits);
        for v in specials.iter().copied().chain(sweep) {
            for p in &params {
                assert_eq!(
                    p.quantize(v),
                    floor_clamp_oracle(p, v),
                    "value {v:e} ({:#010x}) under {p:?}",
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    fn rejects_bad_bitwidths() {
        assert!(QuantParams::from_range(0, 0.0, 1.0).is_err());
        assert!(QuantParams::from_range(33, 0.0, 1.0).is_err());
        assert!(QuantParams::from_range(1, 0.0, 1.0).is_ok());
        assert!(QuantParams::from_range(32, 0.0, 1.0).is_ok());
    }

    #[test]
    fn codes_stay_in_range() {
        let p = QuantParams::from_range(3, -1.0, 1.0).unwrap();
        assert_eq!(p.max_code(), 7);
        assert_eq!(p.quantize(-5.0), 0);
        assert_eq!(p.quantize(5.0), 7);
        for i in 0..100 {
            let v = -1.0 + 2.0 * i as f32 / 99.0;
            assert!(p.quantize(v) <= 7);
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded() {
        let p = QuantParams::from_range(8, -4.0, 4.0).unwrap();
        for i in 0..1000 {
            let v = -4.0 + 8.0 * i as f32 / 999.0;
            let code = p.quantize(v);
            let back = p.dequantize(code);
            assert!(
                (v - back).abs() <= p.scale,
                "value {v} decoded to {back} (scale {})",
                p.scale
            );
        }
    }

    #[test]
    fn degenerate_range_is_safe() {
        let p = QuantParams::from_range(4, 2.5, 2.5).unwrap();
        assert_eq!(p.quantize(2.5), 0);
        assert!(p.dequantize(0).is_finite());
    }

    #[test]
    fn one_bit_quantization_is_binary() {
        let p = QuantParams::from_range(1, 0.0, 1.0).unwrap();
        assert_eq!(p.max_code(), 1);
        assert_eq!(p.quantize(0.1), 0);
        assert_eq!(p.quantize(0.9), 1);
    }

    #[test]
    fn calibrate_uses_matrix_range() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, 0.0, 1.0, 6.0]).unwrap();
        let q = Quantizer::calibrate(4, &x).unwrap();
        assert_eq!(q.params().min, -2.0);
        assert!((q.params().scale - 8.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn matrix_round_trip_error_bounded() {
        let x = Matrix::from_vec(2, 3, vec![-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]).unwrap();
        let q = Quantizer::calibrate(6, &x).unwrap();
        let codes = q.quantize_matrix(&x);
        let back = q.dequantize_matrix(&codes);
        assert!(x.max_abs_diff(&back).unwrap() <= q.params().scale);
    }

    #[test]
    fn u32_and_i64_codes_agree() {
        let x = Matrix::from_vec(1, 5, vec![0.0, 0.2, 0.4, 0.6, 0.8]).unwrap();
        let q = Quantizer::calibrate(3, &x).unwrap();
        let a = q.quantize_matrix(&x);
        let b = q.quantize_matrix_u32(&x);
        for i in 0..5 {
            assert_eq!(a[(0, i)] as u32, b[(0, i)]);
        }
    }

    #[test]
    fn rescale_gemm_output_scales_linearly() {
        let c = Matrix::from_vec(1, 2, vec![10i64, 20]).unwrap();
        let pa = QuantParams::from_range(4, 0.0, 1.6).unwrap(); // scale 0.1
        let pb = QuantParams::from_range(4, 0.0, 3.2).unwrap(); // scale 0.2
        let out = rescale_gemm_output(&c, pa, pb);
        assert!((out[(0, 0)] - 10.0 * 0.02).abs() < 1e-6);
        assert!((out[(0, 1)] - 20.0 * 0.02).abs() < 1e-6);
    }

    #[test]
    fn max_error_is_half_bucket() {
        let q = Quantizer::new(QuantParams::from_range(2, 0.0, 4.0).unwrap());
        assert!((q.max_error() - 0.5).abs() < 1e-6);
    }
}
