//! Bit-accurate low-precision floating-point rounding.
//!
//! Each function rounds an `f32` to the nearest value representable in the
//! target format using round-to-nearest-even — the rounding mode tensor
//! cores and PyTorch's quantization use — and returns it re-widened to
//! `f32`.  This "fake quantization" is numerically identical to storing and
//! computing in the narrow format for the weight-only quantization the
//! paper studies (weights are converted once; the matmul accumulates in
//! FP32, as tensor-core MACs do).
//!
//! Format structure (sign / exponent / mantissa bits):
//!
//! | format | e | m | notes |
//! |---|---|---|---|
//! | FP32 | 8 | 23 | reference |
//! | TF32 | 8 | 10 | FP32 exponent range, FP16 mantissa |
//! | FP16 | 5 | 10 | subnormals below 2⁻¹⁴, saturates at ±65504 |
//! | BF16 | 8 | 7  | truncated FP32 |

/// Rounds to BF16 (8-bit exponent, 7-bit mantissa) with round-to-nearest-even.
pub fn round_to_bf16(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let bits = x.to_bits();
    // Round the low 16 bits away with nearest-even on bit 16.
    let lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x7fff + lsb);
    f32::from_bits(rounded & 0xffff_0000)
}

/// Rounds to TF32 (8-bit exponent, 10-bit mantissa) with round-to-nearest-even.
///
/// TF32 keeps the full FP32 exponent range, so no overflow/underflow handling
/// beyond what FP32 itself does is required.
pub fn round_to_tf32(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let bits = x.to_bits();
    // Drop 13 mantissa bits (23 → 10), nearest-even on bit 13.
    let lsb = (bits >> 13) & 1;
    let rounded = bits.wrapping_add(0xfff + lsb);
    f32::from_bits(rounded & !0x1fff)
}

/// Rounds to IEEE-754 binary16 (FP16) with round-to-nearest-even, including
/// subnormal handling below 2⁻¹⁴ and saturation to ±∞ above the FP16 max.
pub fn round_to_fp16(x: f32) -> f32 {
    fp16_bits_to_f32(f32_to_fp16_bits(x))
}

/// Converts an `f32` to raw FP16 bits (round-to-nearest-even).
pub fn f32_to_fp16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf / NaN
        let m = if mant != 0 { 0x200 } else { 0 };
        return sign | 0x7c00 | m;
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        // Overflow → infinity.
        return sign | 0x7c00;
    }
    if e >= -14 {
        // Normal range: keep 10 mantissa bits, round nearest-even on bit 13.
        let mut m = mant >> 13;
        let rem = mant & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut he = (e + 15) as u32;
        if m == 0x400 {
            // Mantissa rounding overflowed into the exponent.
            m = 0;
            he += 1;
            if he >= 0x1f {
                return sign | 0x7c00;
            }
        }
        return sign | ((he as u16) << 10) | (m as u16);
    }
    if e >= -24 {
        // Subnormal: shift the implicit leading 1 into the mantissa.
        let full = mant | 0x80_0000; // 24-bit significand
        let shift = (-14 - e) + 13; // 13 base + extra for subnormal
        let m = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut m = m;
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1;
        }
        // m may carry into the smallest normal — that encoding is still correct.
        return sign | (m as u16);
    }
    // Underflow to signed zero.
    sign
}

/// Converts raw FP16 bits back to `f32` exactly.
pub fn fp16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m × 2⁻²⁴ — renormalise for the f32 encoding.
            let lead = 31 - m.leading_zeros(); // index of highest set bit (0..9)
            let shift = 10 - lead;
            let e = 127 - 15 - shift + 1;
            let frac = (m << (13 + shift)) & 0x7f_ffff;
            sign | (e << 23) | frac
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13),
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Rounds an `f32` to `m` mantissa bits (round-to-nearest-even), keeping the
/// full 8-bit exponent — a *hypothetical* FP32-exponent format with a
/// configurable significand.
///
/// This is the knob the paper's Future Work section asks about ("formats
/// with increased mantissa bits can offer improved efficiency"): the
/// `ablation_formats` bench sweeps `m` to chart error vs. mantissa width.
/// `m = 23` is a no-op, `m = 10` equals TF32, `m = 7` equals BF16.
pub fn round_mantissa(x: f32, m: u32) -> f32 {
    assert!(m <= 23, "f32 has 23 mantissa bits");
    if x.is_nan() || m == 23 {
        return x;
    }
    let drop = 23 - m;
    let bits = x.to_bits();
    let lsb = (bits >> drop) & 1;
    let bias = (1u32 << (drop - 1)) - 1;
    let rounded = bits.wrapping_add(bias + lsb);
    f32::from_bits(rounded & !((1u32 << drop) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_exact_values_pass_through() {
        for &v in &[0.0f32, 1.0, -2.0, 0.5, 1.5, 256.0] {
            assert_eq!(round_to_bf16(v), v);
        }
    }

    #[test]
    fn bf16_rounds_to_7_mantissa_bits() {
        // 1 + 2⁻⁸ rounds to 1.0 (nearest even); 1 + 3·2⁻⁸ rounds to 1 + 2⁻⁷·2 = 1+2^-6... check simple cases.
        let x = 1.0f32 + 2f32.powi(-8);
        assert_eq!(round_to_bf16(x), 1.0);
        let y = 1.0f32 + 2f32.powi(-7);
        assert_eq!(round_to_bf16(y), y); // exactly representable
    }

    #[test]
    fn tf32_rounds_to_10_mantissa_bits() {
        let x = 1.0f32 + 2f32.powi(-11);
        assert_eq!(round_to_tf32(x), 1.0); // ties to even
        let y = 1.0f32 + 2f32.powi(-10);
        assert_eq!(round_to_tf32(y), y);
    }

    #[test]
    fn fp16_roundtrip_exact_values() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, 2f32.powi(-14)] {
            assert_eq!(round_to_fp16(v), v, "value {v}");
        }
    }

    #[test]
    fn fp16_overflow_saturates_to_infinity() {
        assert_eq!(round_to_fp16(1e6), f32::INFINITY);
        assert_eq!(round_to_fp16(-1e6), f32::NEG_INFINITY);
    }

    #[test]
    fn fp16_subnormals() {
        let tiny = 2f32.powi(-24); // smallest FP16 subnormal
        assert_eq!(round_to_fp16(tiny), tiny);
        let half_tiny = 2f32.powi(-25);
        // Ties to even → rounds to zero.
        assert_eq!(round_to_fp16(half_tiny), 0.0);
        let sub = 3.0 * 2f32.powi(-24);
        assert_eq!(round_to_fp16(sub), sub);
    }

    #[test]
    fn fp16_underflow_to_zero() {
        assert_eq!(round_to_fp16(1e-10), 0.0);
        assert_eq!(round_to_fp16(-1e-10), -0.0);
    }

    #[test]
    fn fp16_rounding_error_within_half_ulp() {
        // In the normal range the error is ≤ 2⁻¹¹·|x| (half of 2⁻¹⁰ ulp).
        let mut x = 0.001f32;
        while x < 1000.0 {
            let r = round_to_fp16(x);
            assert!(
                (r - x).abs() <= x.abs() * 2f32.powi(-11) + f32::EPSILON,
                "x={x} r={r}"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn bf16_rounding_error_within_half_ulp() {
        let mut x = 1e-3f32;
        while x < 1e6 {
            let r = round_to_bf16(x);
            assert!((r - x).abs() <= x.abs() * 2f32.powi(-8) + f32::EPSILON);
            x *= 1.73;
        }
    }

    #[test]
    fn tf32_rounding_error_within_half_ulp() {
        let mut x = 1e-6f32;
        while x < 1e6 {
            let r = round_to_tf32(x);
            assert!((r - x).abs() <= x.abs() * 2f32.powi(-11) + f32::EPSILON);
            x *= 2.31;
        }
    }

    #[test]
    fn nan_propagates() {
        assert!(round_to_bf16(f32::NAN).is_nan());
        assert!(round_to_tf32(f32::NAN).is_nan());
        assert!(round_to_fp16(f32::NAN).is_nan());
    }

    #[test]
    fn round_mantissa_matches_named_formats() {
        let mut x = 1e-3f32;
        while x < 1e3 {
            assert_eq!(round_mantissa(x, 10), round_to_tf32(x), "x={x}");
            assert_eq!(round_mantissa(x, 7), round_to_bf16(x), "x={x}");
            assert_eq!(round_mantissa(x, 23), x);
            x *= 1.91;
        }
    }

    #[test]
    fn round_mantissa_error_within_half_ulp() {
        for m in [4u32, 8, 12, 16, 20] {
            let mut x = 0.01f32;
            while x < 100.0 {
                let r = round_mantissa(x, m);
                assert!(
                    (r - x).abs() <= x * 2f32.powi(-(m as i32 + 1)) + f32::EPSILON,
                    "m={m} x={x}"
                );
                x *= 1.77;
            }
        }
    }

    #[test]
    fn fp16_bits_roundtrip_all_finite_encodings() {
        for h in 0..=0xffffu16 {
            let exp = (h >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // skip inf/nan encodings
            }
            let f = fp16_bits_to_f32(h);
            let back = f32_to_fp16_bits(f);
            // -0.0 and 0.0 encode distinctly and must round-trip exactly.
            assert_eq!(back, h, "h={h:#06x} f={f}");
        }
    }
}
