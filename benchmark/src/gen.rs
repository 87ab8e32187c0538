//! The benchmark's own input generator.  Everything a server sees is made
//! here from `--seed`; nothing depends on the library's RNG or loadgens, so
//! a library change cannot change the inputs it is measured on.

use errflow_nn::Model;
use std::f64::consts::TAU;

/// Payloads per workload.  Large enough that the codec never sees the same
/// bytes twice in a row, small enough that the biggest pool (64 × 256 KiB
/// inputs plus their outputs) stays near 17 MiB.
pub const POOL_SIZE: usize = 64;

/// Calibration inputs are part of the served model's identity, not of the
/// traffic, so they do not follow `--seed`.
const CALIBRATION_SEED: u64 = 23;
const CALIBRATION_INPUTS: usize = 8;

const NOISE_AMPLITUDE: f64 = 1e-4;

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, seedable, and ours.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One low-frequency mode: `(amplitude, cycles across one sample's
/// features, cycles across one payload's samples, phase advance per
/// payload)`.  The spectrum is fixed and only the starting phases and the
/// noise follow the seed, because how well a field compresses is set by its
/// amplitudes and frequencies.  The phases advance by incommensurate steps,
/// so the pool's payloads sweep the modes' relative phases and its mean
/// compressibility hardly depends on where a seed starts them: measured,
/// `compression_ratio` stays within ±0.6 % over seeds (seeded frequencies
/// gave ±10 %, a slow common drift ±2 %).
const MODES: [(f64, f64, f64, f64); 4] = [
    (0.43, 0.8, 0.5, 0.37),
    (0.22, 1.7, 0.9, 0.61),
    (0.14, 2.3, 1.4, 0.47),
    (0.11, 2.9, 1.9, 0.83),
];

/// A smooth 2-D field (samples × features): a few low-frequency modes plus
/// a noise floor.  This is the regime the paper's pipeline targets — the
/// library loadgens' random walk compresses at ≤ 1.2× and would leave the
/// codec workloads measuring an entropy coder on noise.
pub struct Field {
    seed: u64,
    phases: [f64; MODES.len()],
}

impl Field {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Field {
            seed,
            phases: std::array::from_fn(|_| TAU * rng.unit()),
        }
    }

    /// Payload number `index`: `n` samples of `d` features.
    pub fn samples(&self, index: usize, n: usize, d: usize) -> Vec<Vec<f32>> {
        let mut noise =
            SplitMix64::new(self.seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        (0..n)
            .map(|s| {
                (0..d)
                    .map(|f| {
                        let smooth: f64 = MODES
                            .iter()
                            .zip(self.phases)
                            .map(
                                |(&(amplitude, feature_cycles, sample_cycles, drift), phase)| {
                                    let turns = feature_cycles * f as f64 / d as f64
                                        + sample_cycles * s as f64 / n as f64;
                                    amplitude * (TAU * turns + phase + drift * index as f64).sin()
                                },
                            )
                            .sum();
                        (smooth + NOISE_AMPLITUDE * (2.0 * noise.unit() - 1.0)) as f32
                    })
                    .collect()
            })
            .collect()
    }
}

pub fn calibration(d: usize) -> Vec<Vec<f32>> {
    Field::new(CALIBRATION_SEED).samples(0, CALIBRATION_INPUTS, d)
}

/// One request's inputs with the outputs the *unquantized* model gives on
/// the *uncompressed* inputs — what every response is checked against.
pub struct Payload {
    pub samples: Vec<Vec<f32>>,
    pub reference: Vec<Vec<f32>>,
}

pub fn pool(seed: u64, model: &impl Model, samples_per_request: usize) -> Vec<Payload> {
    let field = Field::new(seed);
    (0..POOL_SIZE)
        .map(|i| {
            let samples = field.samples(i, samples_per_request, model.input_dim());
            let reference = samples.iter().map(|x| model.forward(x)).collect();
            Payload { samples, reference }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Field::new(41).samples(3, 4, 32);
        assert_eq!(a, Field::new(41).samples(3, 4, 32));
        assert_ne!(a, Field::new(97).samples(3, 4, 32));
        assert_ne!(a, Field::new(41).samples(4, 4, 32), "payloads drift");
        assert_eq!(calibration(16), calibration(16));
    }

    #[test]
    fn field_is_bounded_smooth_and_noisy() {
        let p = Field::new(41).samples(0, 8, 256);
        assert_eq!((p.len(), p[0].len()), (8, 256));
        let mut max_step = 0.0f32;
        for row in &p {
            assert!(row.iter().all(|v| v.is_finite() && v.abs() < 1.0));
            for w in row.windows(2) {
                max_step = max_step.max((w[1] - w[0]).abs());
            }
        }
        // ≤ 3 cycles over 256 features: neighbours differ by far less than
        // the field's range, but the noise floor keeps them from repeating.
        assert!(max_step < 0.1, "max neighbour step {max_step}");
        assert!(max_step > 0.0);
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        let u = SplitMix64::new(7).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
