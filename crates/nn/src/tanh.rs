//! The crate's one `tanh`: a branch-free `f32` kernel with a measured ulp
//! contract, so the activation's rounding is ours to state instead of
//! libm's (DESIGN.md §7).
//!
//! Formulation (Cephes-style), on `a = |x|` with the sign copied back at
//! the end, which makes the function exactly odd:
//!
//! * `a < 0.625`: the odd polynomial `a + a·z·P(z)`, `z = a²`, degree 4 in
//!   `z`.  `z` underflows to zero for tiny and subnormal `a`, so those come
//!   back unchanged.
//! * `a ≥ 0.625`: `1 − 2/(e^{2a} + 1)`.  `e^u` is a degree-5 polynomial on
//!   `r = u − k·ln 2`, `|r| ≤ ln 2 / 2`, with `k = round(u·log₂e)` taken by
//!   adding and subtracting `1.5·2²³` (no float→int cast) and `2^k` built
//!   from the low bits that addition leaves in the mantissa.  `a` is clamped
//!   at 10 first (`k ≤ 29`); `2/(e^{2a}+1)` drops below half an ulp of 1 at
//!   `a ≈ 9.011`, so every larger input — `+∞` included — returns exactly 1.
//!
//! Both branches are evaluated and a select picks one: a NaN fails the
//! `a ≥ 0.625` compare and takes the polynomial, which propagates it.
//!
//! Every operation is a plain IEEE `f32` add, multiply, divide, compare or
//! bit move — no `mul_add`, and Rust never contracts `a * b + c` — so the
//! scalar call, the baseline-SSE2 autovectorised slice loop and its AVX2
//! and AVX-512 instantiations are one body and bit-identical.
//!
//! Contract, checked against `f64::tanh` by the tests below (the exhaustive
//! sweep is `#[ignore]`d; CI runs it once in release): ≤ 2 ulp over every
//! finite `f32` (measured max 1.33), exactly odd, `tanh(±0) = ±0`,
//! subnormals unchanged, NaN → NaN, `|y| ≤ 1`, monotone non-decreasing.

use crate::activation::map_slice;
use errflow_tensor::simd;

/// `tanh(x)`; see the module docs for the formulation and contract.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let a = f32::from_bits(x.to_bits() & !SIGN);

    let z = a * a;
    let p = -5.704_988_7e-3;
    let p = p * z + 2.063_908_8e-2;
    let p = p * z - 5.373_971_5e-2;
    let p = p * z + 1.333_144_2e-1;
    let p = p * z - 3.333_328e-1;
    let small = p * z * a + a;

    // 1.5·2²³: adding it rounds to an integer and leaves that integer in
    // the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    let clamped = if a < 10.0 { a } else { 10.0 };
    let u = clamped + clamped;
    let shifted = u * std::f32::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    // ln 2 split so that the first product is exact: 355/512 has nine
    // significant bits and `k ≤ 29`.
    let r = u - k * (355.0 / 512.0);
    let r = r + k * 2.121_944_4e-4;
    let q = 1.987_569_1e-4;
    let q = q * r + 1.398_199_9e-3;
    let q = q * r + 8.333_452e-3;
    let q = q * r + 4.166_579_6e-2;
    let q = q * r + 1.666_666_6e-1;
    let q = q * r + 0.5;
    let exp_r = q * (r * r) + r + 1.0;
    // The shift drops ROUND's own exponent and mantissa-top bits off the
    // end, leaving `k + 127` in the exponent field.
    let two_k = f32::from_bits(shifted.to_bits().wrapping_add(127) << 23);
    let large = 1.0 - 2.0 / (exp_r * two_k + 1.0);

    let y = if a >= 0.625 { large } else { small };
    f32::from_bits(y.to_bits() | (x.to_bits() & SIGN))
}

/// Portable instantiation of the slice loop (SSE2 on baseline x86-64).
fn sweep_portable(z: &mut [f32], bias: Option<&[f32]>) {
    map_slice(z, bias, tanh);
}

/// AVX2 instantiation of the same `#[inline(always)]` loop and body.
///
/// # Safety
/// Callers must have verified `avx2` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(z: &mut [f32], bias: Option<&[f32]>) {
    map_slice(z, bias, tanh);
}

/// AVX-512 instantiation of the same loop and body: 16 lanes a vector.
///
/// # Safety
/// Callers must have verified `avx512f` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_avx512(z: &mut [f32], bias: Option<&[f32]>) {
    map_slice(z, bias, tanh);
}

/// Which instantiation [`sweep`] runs on this host: `"avx512"`, `"avx2"`
/// or `"portable"` (always, under `ERRFLOW_NO_SIMD=1`).
pub fn tanh_arm() -> &'static str {
    match simd::level() {
        _ if simd::force_scalar() => "portable",
        simd::Level::Avx512 => "avx512",
        simd::Level::Avx2 | simd::Level::Avx2Fma => "avx2",
        simd::Level::Scalar => "portable",
    }
}

/// `z[i] ← tanh(z[i] + bias[i])` (bias optional), on the widest
/// instantiation the host supports.
pub(crate) fn sweep(z: &mut [f32], bias: Option<&[f32]>) {
    match tanh_arm() {
        // SAFETY: `tanh_arm()` names this arm only on `Level::Avx512`,
        // which `simd` reports after detecting `avx512f`.
        #[cfg(target_arch = "x86_64")]
        "avx512" => unsafe { sweep_avx512(z, bias) },
        // SAFETY: `tanh_arm()` names this arm only on a level that
        // `simd` reports after detecting `avx2`.
        #[cfg(target_arch = "x86_64")]
        "avx2" => unsafe { sweep_avx2(z, bias) },
        _ => sweep_portable(z, bias),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    const INF_BITS: u32 = 0x7f80_0000;
    /// First input that returns exactly 1 (≈ 9.0109).
    const KNEE_BITS: u32 = 0x4110_2cb4;

    /// Error of `y` against `f64::tanh(x)` in ulps of the correctly
    /// rounded `f32` result.
    fn ulp_error(x: f32, y: f32) -> f64 {
        let exact = (x as f64).tanh();
        (y as f64 - exact).abs() / spacing(exact)
    }

    /// Spacing of the `f32` grid in the binade that holds `y` (the
    /// subnormal spacing below the normal range).
    fn spacing(y: f64) -> f64 {
        let exponent = (y.abs().to_bits() >> 52) as i32 - 1023;
        2f64.powi(exponent.max(-126) - 23)
    }

    struct Sweep {
        max_ulp: f64,
        max_ulp_at: f32,
        first_one: f32,
        /// Consecutive pairs whose outputs stepped further than the inputs.
        overshoots: u64,
        checked: u64,
    }

    /// Walks the non-negative bit patterns `0, stride, 2·stride, … ≤ +∞`
    /// through the dispatched slice kernel and asserts the contract on each;
    /// the negative half is covered by asserting exact oddness.
    fn sweep_contract(stride: u32) -> Sweep {
        const CHUNK: usize = 1 << 14;
        let mut out = Sweep {
            max_ulp: 0.0,
            max_ulp_at: 0.0,
            first_one: f32::INFINITY,
            overshoots: 0,
            checked: 0,
        };
        let (mut prev_x, mut prev) = (0.0f32, 0.0f32);
        let mut next = 0u64;
        let mut xs = Vec::with_capacity(CHUNK);
        let mut neg = Vec::with_capacity(CHUNK);
        while next <= INF_BITS as u64 {
            xs.clear();
            while xs.len() < CHUNK && next <= INF_BITS as u64 {
                xs.push(f32::from_bits(next as u32));
                next += stride as u64;
            }
            let mut ys = xs.clone();
            sweep(&mut ys, None);
            neg.clear();
            neg.extend(xs.iter().map(|x| -x));
            sweep(&mut neg, None);
            for ((&x, &y), &yn) in xs.iter().zip(&ys).zip(&neg) {
                assert_eq!(y.to_bits(), tanh(x).to_bits(), "slice vs scalar at {x:e}");
                assert_eq!(yn.to_bits(), (-y).to_bits(), "not odd at {x:e}");
                assert!(y <= 1.0, "tanh({x:e}) = {y:e} > 1");
                assert!(y >= prev, "not monotone at {x:e}: {y:e} < {prev:e}");
                // 1-Lipschitz up to the output's own grid (see
                // `one_lipschitz_up_to_one_output_spacing`).
                let over = (y as f64 - prev as f64) - (x as f64 - prev_x as f64);
                assert!(over <= spacing(y as f64), "step at {x:e} overshoots");
                out.overshoots += (over > 0.0) as u64;
                (prev_x, prev) = (x, y);
                if y == 1.0 && x < out.first_one {
                    out.first_one = x;
                }
                let e = ulp_error(x, y);
                if e > out.max_ulp {
                    out.max_ulp = e;
                    out.max_ulp_at = x;
                }
            }
            out.checked += xs.len() as u64;
        }
        assert!(
            out.max_ulp <= 2.0,
            "{} ulp at {:e}",
            out.max_ulp,
            out.max_ulp_at
        );
        out
    }

    #[test]
    fn strided_sweep_meets_the_contract() {
        let s = sweep_contract(61);
        println!(
            "stride 61: {} values per sign, max {:.3} ulp at {:e}, exactly 1 from {:e}",
            s.checked, s.max_ulp, s.max_ulp_at, s.first_one
        );
        // NaN payloads of both signs stay NaN.
        for bits in (INF_BITS + 1..=0x7fff_ffff).step_by(61 * 1021) {
            assert!(tanh(f32::from_bits(bits)).is_nan());
            assert!(tanh(f32::from_bits(bits | 0x8000_0000)).is_nan());
        }
    }

    /// Every non-negative `f32` bit pattern (and, by oddness, every
    /// negative one): `cargo test --release -p errflow-nn -- --ignored`.
    #[test]
    #[ignore = "2^31 evaluations against f64::tanh; CI runs it once in release"]
    fn exhaustive_sweep_meets_the_contract() {
        let s = sweep_contract(1);
        println!(
            "exhaustive: {} values per sign, max {:.3} ulp at {:e}, exactly 1 from {:e}, \
             monotone, odd; {} adjacent pairs step further than their inputs, none by more \
             than one output spacing",
            s.checked, s.max_ulp, s.max_ulp_at, s.first_one, s.overshoots
        );
        assert_eq!(s.checked, INF_BITS as u64 + 1);
        assert_eq!(s.first_one.to_bits(), KNEE_BITS);
    }

    #[test]
    fn edges() {
        let next_up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let next_down = |x: f32| f32::from_bits(x.to_bits() - 1);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        // Subnormals and the smallest normals come back unchanged.
        for bits in [1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000, 0x0080_0001] {
            let x = f32::from_bits(bits);
            assert_eq!(tanh(x).to_bits(), bits);
            assert_eq!(tanh(-x).to_bits(), (-x).to_bits());
        }
        // The seam between the two branches, and the saturation knee.
        let knee = f32::from_bits(KNEE_BITS);
        for x in [
            next_down(0.625),
            0.625,
            next_up(0.625),
            next_down(knee),
            knee,
            next_up(knee),
            10.0,
            next_up(10.0),
            f32::MAX,
        ] {
            for x in [x, -x] {
                let y = tanh(x);
                assert!(ulp_error(x, y) <= 2.0, "{x:e} -> {y:e}");
                assert!(y.abs() <= 1.0);
            }
        }
        assert!(tanh(next_down(0.625)) <= tanh(0.625));
        assert!(tanh(next_down(knee)) < 1.0);
        assert_eq!(tanh(knee), 1.0);
        assert_eq!(tanh(f32::MAX), 1.0);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
    }

    /// Inputs that put every lane of a vector on a different part of the
    /// function: both branches, both signs, saturation, specials.
    fn mixed_inputs(n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..n)
            .map(|i| match i % 8 {
                0 => rng.gen_range(-0.625f32..0.625),
                1 => rng.gen_range(-12.0f32..12.0),
                2 => f32::from_bits(rng.next_u64() as u32),
                3 => [0.0, -0.0, f32::INFINITY, f32::NAN, 1e-40, -f32::MAX][i / 8 % 6],
                _ => rng.gen_range(-3.0f32..3.0),
            })
            .collect()
    }

    /// The scalar call and every instantiation of the slice loop — portable,
    /// AVX2, AVX-512 — agree bit for bit.  The lengths straddle one and two
    /// vectors of 8 and of 16 lanes; 1 031 ends in a 7-lane tail.
    #[test]
    fn every_instantiation_agrees_bitwise() {
        if cfg!(miri) || !simd::has_avx512() {
            eprintln!(
                "every_instantiation_agrees_bitwise: 512-bit arm skipped, no AVX-512 (or miri)"
            );
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1031] {
            let x = mixed_inputs(n);
            let bias: Vec<f32> = mixed_inputs(n).iter().rev().map(|b| b * 0.5).collect();
            for bias in [None, Some(bias.as_slice())] {
                let mut portable = x.clone();
                sweep_portable(&mut portable, bias);
                let scalar: Vec<f32> = (0..n)
                    .map(|i| tanh(bias.map_or(x[i], |b| x[i] + b[i])))
                    .collect();
                assert_eq!(bits(&portable), bits(&scalar), "portable n={n}");
                #[cfg(target_arch = "x86_64")]
                if !cfg!(miri) && simd::has_avx2() {
                    let mut avx2 = x.clone();
                    // SAFETY: `has_avx2()` was just checked.
                    unsafe { sweep_avx2(&mut avx2, bias) };
                    assert_eq!(bits(&avx2), bits(&scalar), "avx2 n={n}");
                }
                #[cfg(target_arch = "x86_64")]
                if !cfg!(miri) && simd::has_avx512() {
                    let mut avx512 = x.clone();
                    // SAFETY: `has_avx512()` was just checked.
                    unsafe { sweep_avx512(&mut avx512, bias) };
                    assert_eq!(bits(&avx512), bits(&scalar), "avx512 n={n}");
                }
            }
        }
    }

    /// `Activation::Tanh.lipschitz() == 1.0` is now a claim about this
    /// function.  Compared exactly in `f64`, `|t(a) − t(b)| ≤ |a − b|` holds
    /// for separated pairs; for neighbouring inputs a rounded result can
    /// overshoot by its own grid — one spacing of the larger output, never
    /// more (on adjacent inputs 0.03 % of pairs do; libm's `tanhf` steps up
    /// to four spacings there).  That spacing is the activation's share of
    /// the fp term ROADMAP 3(b) adds to Ineq. 3.
    #[test]
    fn one_lipschitz_up_to_one_output_spacing() {
        let excess = |a: f32, b: f32| {
            let (ya, yb) = (tanh(a), tanh(b));
            let dy = (ya as f64 - yb as f64).abs();
            let dx = (a as f64 - b as f64).abs();
            (dy - dx) / spacing(ya.abs().max(yb.abs()) as f64)
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut overshoots = 0;
        for _ in 0..200_000 {
            // Adjacent pairs anywhere below saturation, sign at random.
            let r = rng.next_u64();
            let bits = ((r >> 32) as u32 % KNEE_BITS) | (r as u32 & 0x8000_0000);
            let e = excess(f32::from_bits(bits), f32::from_bits(bits + 1));
            assert!(e <= 1.0, "adjacent pair at {bits:#x}: {e} spacings over");
            overshoots += (e > 0.0) as u32;
            // Close pairs where the slope is steepest.
            let a = rng.gen_range(-1.0f32..1.0);
            let b = a + rng.gen_range(-1e-5f32..1e-5);
            assert!(excess(a, b) <= 1.0, "close pair {a:e}, {b:e}");
            // Unrelated pairs: exactly 1-Lipschitz.
            let (a, b) = (rng.gen_range(-10.0f32..10.0), rng.gen_range(-10.0f32..10.0));
            assert!(excess(a, b) <= 0.0, "pair {a:e}, {b:e}");
        }
        println!("adjacent pairs stepping more than their inputs: {overshoots} of 200000");
        assert!(excess(-0.0, 0.0) <= 0.0);
        assert!(excess(f32::from_bits(1), -f32::from_bits(1)) <= 0.0);
    }
}
