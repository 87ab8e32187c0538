//! Numerical format taxonomy and Table-I average quantization step sizes.

use crate::affine;
use crate::fp;
use errflow_tensor::Matrix;

/// A weight-storage numerical format.
///
/// The four reduced-precision formats are the ones the paper evaluates
/// (Figs. 5, 6, 9); [`QuantFormat::Fp32`] is the full-precision reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// IEEE-754 binary32 — the reference format; quantization is a no-op.
    Fp32,
    /// NVIDIA TensorFloat-32: 8-bit exponent, 10-bit mantissa.
    Tf32,
    /// IEEE-754 binary16: 5-bit exponent, 10-bit mantissa.
    Fp16,
    /// Brain floating point: 8-bit exponent, 7-bit mantissa.
    Bf16,
    /// 8-bit integer with uniform affine quantization, max calibration.
    Int8,
}

impl QuantFormat {
    /// All reduced-precision formats, ordered from highest to lowest
    /// fidelity for scientific inference (the paper's finding: TF32 ≈ FP16
    /// in error, BF16 worse, INT8 worst).
    pub const REDUCED: [QuantFormat; 4] = [
        QuantFormat::Tf32,
        QuantFormat::Fp16,
        QuantFormat::Bf16,
        QuantFormat::Int8,
    ];

    /// All formats including FP32.
    pub const ALL: [QuantFormat; 5] = [
        QuantFormat::Fp32,
        QuantFormat::Tf32,
        QuantFormat::Fp16,
        QuantFormat::Bf16,
        QuantFormat::Int8,
    ];

    /// Lowercase label used by figure binaries (`"fp16"` etc.).
    pub fn label(&self) -> &'static str {
        match self {
            QuantFormat::Fp32 => "fp32",
            QuantFormat::Tf32 => "tf32",
            QuantFormat::Fp16 => "fp16",
            QuantFormat::Bf16 => "bf16",
            QuantFormat::Int8 => "int8",
        }
    }

    /// Mantissa (fraction) bits; `None` for the integer format.
    pub fn mantissa_bits(&self) -> Option<u32> {
        match self {
            QuantFormat::Fp32 => Some(23),
            QuantFormat::Tf32 | QuantFormat::Fp16 => Some(10),
            QuantFormat::Bf16 => Some(7),
            QuantFormat::Int8 => None,
        }
    }

    /// Average quantization step size `q(W)` for a weight matrix — Table I.
    ///
    /// For the float formats the per-element step is `2⁻ᵐ · 2^⌊log₂|W_ij|⌋`
    /// (the ulp at that element's binade); Table I averages in the
    /// root-mean-square sense, i.e.
    /// `q(W) = 2⁻ᵐ · √(mean_ij 2^(2·⌊log₂|W_ij|⌋))`,
    /// with FP16 flooring the exponent at −14 (its subnormal threshold).
    /// For INT8, `q(W) = 2⁻⁸ · (max W_ij − min W_ij)` — the affine step over
    /// 256 levels.  FP32 is treated as exact (`q = 0`): its residual ulp is
    /// the baseline everything is measured against.
    pub fn step_size(&self, w: &Matrix) -> f64 {
        if w.is_empty() {
            return 0.0;
        }
        match self {
            QuantFormat::Fp32 => 0.0,
            QuantFormat::Int8 => {
                let range = (w.max() as f64) - (w.min() as f64);
                range * 2f64.powi(-8)
            }
            QuantFormat::Tf32 | QuantFormat::Fp16 | QuantFormat::Bf16 => {
                self.float_step(binade_sums(w.as_slice()), w.len())
            }
        }
    }

    /// [`QuantFormat::step_size`] of every format, in [`QuantFormat::ALL`]
    /// order, with one pass over the weights for the three float formats:
    /// TF32 and BF16 differ only in mantissa bits, so they share one sum,
    /// and FP16 needs the same sum with its exponent floor.
    pub fn step_sizes(w: &Matrix) -> [f64; 5] {
        if w.is_empty() {
            return [0.0; 5];
        }
        let sums = binade_sums(w.as_slice());
        Self::ALL.map(|f| match f {
            QuantFormat::Tf32 | QuantFormat::Fp16 | QuantFormat::Bf16 => {
                f.float_step(sums, w.len())
            }
            QuantFormat::Fp32 | QuantFormat::Int8 => f.step_size(w),
        })
    }

    /// `2⁻ᵐ · √(sum / len)` for a float format, from the [`binade_sums`]
    /// of its weights.
    fn float_step(&self, sums: BinadeSums, len: usize) -> f64 {
        // audit:allow(panic-reach) only the float formats reach here, and they all define mantissa_bits
        let m = self.mantissa_bits().expect("float format") as i32;
        let sum = if *self == QuantFormat::Fp16 {
            sums.fp16_floored
        } else {
            sums.unfloored
        };
        2f64.powi(-m) * (sum / len as f64).sqrt()
    }

    /// Rounds a single weight value to this format (bit-accurate for float
    /// formats).  INT8 needs tensor-level calibration and therefore panics
    /// here; use [`QuantFormat::quantize_matrix`] instead.
    pub fn round_scalar(&self, x: f32) -> f32 {
        match self {
            QuantFormat::Fp32 => x,
            QuantFormat::Tf32 => fp::round_to_tf32(x),
            QuantFormat::Fp16 => fp::round_to_fp16(x),
            QuantFormat::Bf16 => fp::round_to_bf16(x),
            QuantFormat::Int8 => {
                // audit:allow(panic-reach) deliberate API-misuse guard: scalar rounding of INT8 is meaningless
                panic!("INT8 requires tensor-level calibration; use quantize_matrix")
            }
        }
    }

    /// Quantizes an entire weight matrix to this format and returns the
    /// dequantized (`f32`-widened) result — the weights inference will
    /// actually use.
    pub fn quantize_matrix(&self, w: &Matrix) -> Matrix {
        match self {
            QuantFormat::Fp32 => w.clone(),
            QuantFormat::Int8 => affine::quantize_int8(w).dequantize(),
            _ => w.map(|v| self.round_scalar(v)),
        }
    }
}

/// `Σ 2^(2e)` over a weight slice, `e = ⌊log₂|v|⌋` and zeros adding 0.
#[derive(Debug, Clone, Copy)]
struct BinadeSums {
    unfloored: f64,
    /// With `e` floored at FP16's −14.
    fp16_floored: f64,
}

/// Both [`BinadeSums`] in one pass, element order, from the exponent bits.
///
/// Every `f32` is a normal `f64` (its subnormals included), so the biased
/// `f64` exponent field minus 1023 is `⌊log₂|v|⌋` exactly, and `2^(2e)`
/// (`2e ∈ [−298, 254]`) is built from its bits.  The summands and their
/// order are those of `log2().floor()` and `powf`, so the sums are
/// bit-identical to that formula's, at a fraction of libm's cost.
fn binade_sums(w: &[f32]) -> BinadeSums {
    const FP16_MIN_EXP: i64 = -14;
    let pow2 = |k: i64| f64::from_bits(((k + 1023) as u64) << 52);
    let mut sums = BinadeSums {
        unfloored: 0.0,
        fp16_floored: 0.0,
    };
    for &v in w {
        let a = (v as f64).abs();
        let biased = (a.to_bits() >> 52) as i64;
        let (plain, floored) = match biased {
            0 => (0.0, 0.0),
            // ±inf or NaN: what `powf(2, 2·log₂|v|)` gives.
            0x7ff => (a, a),
            _ => {
                let e = biased - 1023;
                (pow2(2 * e), pow2(2 * e.max(FP16_MIN_EXP)))
            }
        };
        sums.unfloored += plain;
        sums.fp16_floored += floored;
    }
    sums
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuantFormat::Fp32 => "FP32",
            QuantFormat::Tf32 => "TF32",
            QuantFormat::Fp16 => "FP16",
            QuantFormat::Bf16 => "BF16",
            QuantFormat::Int8 => "INT8",
        })
    }
}

impl std::str::FromStr for QuantFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fp32" => Ok(QuantFormat::Fp32),
            "tf32" => Ok(QuantFormat::Tf32),
            "fp16" => Ok(QuantFormat::Fp16),
            "bf16" => Ok(QuantFormat::Bf16),
            "int8" => Ok(QuantFormat::Int8),
            other => Err(format!("unknown quantization format: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones() -> Matrix {
        Matrix::from_fn(4, 4, |_, _| 1.0)
    }

    #[test]
    fn labels_and_parse_roundtrip() {
        for f in QuantFormat::ALL {
            let parsed: QuantFormat = f.label().parse().unwrap();
            assert_eq!(parsed, f);
        }
        assert!("fp8".parse::<QuantFormat>().is_err());
    }

    #[test]
    fn step_size_tf32_all_ones() {
        // |W_ij| = 1 → floor(log2) = 0 → q = 2⁻¹⁰.
        let q = QuantFormat::Tf32.step_size(&ones());
        assert!((q - 2f64.powi(-10)).abs() < 1e-15);
    }

    #[test]
    fn step_size_bf16_all_ones() {
        let q = QuantFormat::Bf16.step_size(&ones());
        assert!((q - 2f64.powi(-7)).abs() < 1e-15);
    }

    #[test]
    fn step_size_fp16_floors_exponent_at_minus_14() {
        // Tiny weights: TF32 ulp keeps shrinking, FP16 hits the subnormal floor.
        let tiny = Matrix::from_fn(2, 2, |_, _| 2f32.powi(-20));
        let q16 = QuantFormat::Fp16.step_size(&tiny);
        let q32 = QuantFormat::Tf32.step_size(&tiny);
        assert!((q16 - 2f64.powi(-10) * 2f64.powi(-14)).abs() < 1e-22);
        assert!(q32 < q16);
    }

    /// The formula `step_size` had before it read exponent bits: libm
    /// `log2().floor()` and `powf` per element.
    fn libm_step_size(f: QuantFormat, w: &Matrix) -> f64 {
        let m = match f.mantissa_bits() {
            Some(m) if f != QuantFormat::Fp32 && !w.is_empty() => m as i32,
            _ => return f.step_size(w),
        };
        let floor_at = (f == QuantFormat::Fp16).then_some(-14.0);
        let mean_sq: f64 = w
            .as_slice()
            .iter()
            .map(|&v| {
                let a = (v as f64).abs();
                if a == 0.0 {
                    return 0.0;
                }
                let mut e = a.log2().floor();
                if let Some(fl) = floor_at {
                    e = f64::max(e, fl);
                }
                2f64.powf(2.0 * e)
            })
            .sum::<f64>()
            / w.len() as f64;
        2f64.powi(-m) * mean_sq.sqrt()
    }

    /// `2^e` as an `f32`, subnormals included.
    fn pow2_f32(e: i32) -> f32 {
        if e >= -126 {
            f32::from_bits(((e + 127) as u32) << 23)
        } else {
            f32::from_bits(1 << (e + 149))
        }
    }

    #[test]
    fn step_size_bit_identical_to_libm_formula() {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(5);
        let random = Matrix::from_fn(256, 128, |_, _| rng.gen_range(-0.15..0.15));
        let mut hostile = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            65504.0,
            -65504.0,
            f32::MAX,
        ];
        for e in -149..=127 {
            let p = pow2_f32(e);
            hostile.extend([p, -p, p.next_down(), -p.next_down()]);
        }
        // Below FP16's 2⁻¹⁴ floor, where its sum and TF32's part ways.
        let tiny: Vec<f32> = (0..64)
            .map(|i| pow2_f32(-15 - i / 4) * (1.0 + i as f32 / 64.0))
            .collect();
        let matrices = [
            random,
            Matrix::from_vec(1, hostile.len(), hostile).unwrap(),
            Matrix::from_vec(8, 8, tiny).unwrap(),
            Matrix::zeros(3, 3),
            Matrix::from_vec(1, 2, vec![-0.0, 0.0]).unwrap(),
        ];
        for w in &matrices {
            let oracle = QuantFormat::ALL.map(|f| libm_step_size(f, w).to_bits());
            let each = QuantFormat::ALL.map(|f| f.step_size(w).to_bits());
            assert_eq!(each, oracle, "{}x{}", w.rows(), w.cols());
            assert_eq!(QuantFormat::step_sizes(w).map(f64::to_bits), oracle);
        }
    }

    #[test]
    fn step_size_int8_is_range_over_256() {
        let w = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 3.0]).unwrap();
        let q = QuantFormat::Int8.step_size(&w);
        assert!((q - 4.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn step_size_fp32_is_zero() {
        assert_eq!(QuantFormat::Fp32.step_size(&ones()), 0.0);
    }

    #[test]
    fn step_size_ordering_matches_paper() {
        // For weights in a typical trained range, TF32 ≈ FP16 < BF16 < INT8.
        let w = Matrix::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 / 32.0) - 1.0);
        let q_tf32 = QuantFormat::Tf32.step_size(&w);
        let q_fp16 = QuantFormat::Fp16.step_size(&w);
        let q_bf16 = QuantFormat::Bf16.step_size(&w);
        let q_int8 = QuantFormat::Int8.step_size(&w);
        assert!(
            (q_tf32 - q_fp16).abs() < 1e-12,
            "TF32 and FP16 share mantissa width"
        );
        assert!(q_bf16 > q_fp16);
        assert!(q_int8 > q_fp16);
    }

    #[test]
    fn quantize_matrix_error_within_step() {
        let w = Matrix::from_fn(6, 6, |r, c| (r as f32 - c as f32) * 0.137);
        for f in [QuantFormat::Tf32, QuantFormat::Fp16, QuantFormat::Bf16] {
            let wq = f.quantize_matrix(&w);
            let q = f.step_size(&w);
            // Worst single-element error ≤ ulp at that element's binade;
            // q is an RMS so allow a generous multiple.
            let max_err = w
                .as_slice()
                .iter()
                .zip(wq.as_slice())
                .map(|(&a, &b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(max_err <= 4.0 * q, "{f}: max_err={max_err} q={q}");
        }
    }

    #[test]
    fn quantize_matrix_fp32_identity() {
        let w = ones();
        assert_eq!(QuantFormat::Fp32.quantize_matrix(&w), w);
    }

    #[test]
    #[should_panic(expected = "tensor-level calibration")]
    fn int8_scalar_rounding_panics() {
        QuantFormat::Int8.round_scalar(0.5);
    }

    #[test]
    fn empty_matrix_step_is_zero() {
        let w = Matrix::zeros(0, 0);
        for f in QuantFormat::ALL {
            assert_eq!(f.step_size(&w), 0.0);
        }
    }
}
