//! Property-style round-trip coverage: random fields × every backend ×
//! every bound mode must reconstruct within the certified bound, and the
//! slow oracle in `errflow_compress::reference` must decode every stream
//! to the same bits as the fast decoder.
//!
//! Fields are drawn from the in-workspace PRNG (`errflow_tensor::rng`) at
//! several roughness levels — smooth correlated walks (the compressors'
//! home turf), noisy fields, constant stretches (RLE-heavy), and fields
//! salted with outlier spikes (escape-path heavy) — so the fast decode
//! paths see every symbol class the coders emit.

use errflow_compress::{
    reference, ChunkedCompressor, Compressor, ErrorBound, MgardCompressor, SzCompressor,
    ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// One random test field with a descriptive label for failure messages.
fn fields(seed: u64, n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();

    // Smooth correlated walk.
    let mut v = 0.0f32;
    out.push((
        "smooth-walk",
        (0..n)
            .map(|_| {
                v += rng.gen_range(-0.01f32..0.01);
                v
            })
            .collect(),
    ));

    // White noise (worst case for prediction; exercises wide alphabets).
    out.push((
        "white-noise",
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    ));

    // Mostly-constant field with occasional level shifts (RLE-heavy).
    let mut level = 1.5f32;
    out.push((
        "piecewise-constant",
        (0..n)
            .map(|i| {
                if i % 257 == 0 {
                    level = rng.gen_range(-2.0f32..2.0);
                }
                level
            })
            .collect(),
    ));

    // Smooth field salted with large spikes (outlier escape path).
    let mut w = 0.0f32;
    out.push((
        "spiky",
        (0..n)
            .map(|i| {
                w += rng.gen_range(-0.005f32..0.005);
                if i % 401 == 0 {
                    w + rng.gen_range(-100.0f32..100.0)
                } else {
                    w
                }
            })
            .collect(),
    ));

    out
}

fn bounds() -> Vec<ErrorBound> {
    vec![
        ErrorBound::abs_linf(1e-3),
        ErrorBound::rel_linf(1e-4),
        ErrorBound::abs_l2(1e-2),
    ]
}

#[test]
fn random_fields_roundtrip_within_bound_all_backends() {
    let backends: Vec<Box<dyn Compressor>> = vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
    ];
    for (label, data) in fields(42, 10_000) {
        for bound in bounds() {
            for be in &backends {
                if !be.supports(&bound) {
                    continue; // ZFP has no L2 mode
                }
                let stream = be
                    .compress(&data, &bound)
                    .unwrap_or_else(|e| panic!("{} compress {label}: {e}", be.name()));
                let recon = be
                    .decompress(&stream, data.len())
                    .unwrap_or_else(|e| panic!("{} decompress {label}: {e}", be.name()));
                assert_eq!(recon.len(), data.len());
                assert!(
                    bound.verify(&data, &recon),
                    "{} violated {bound:?} on {label}",
                    be.name()
                );
                let oracle = reference::decompress(be.name(), &stream)
                    .unwrap_or_else(|e| panic!("{} oracle {label}: {e}", be.name()));
                assert!(
                    oracle.len() == recon.len()
                        && oracle
                            .iter()
                            .zip(&recon)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} fast decoder and oracle differ under {bound:?} on {label}",
                    be.name()
                );
            }
        }
    }
}

#[test]
fn decompress_into_agrees_with_the_oracle_all_backends() {
    // The zero-copy decode path, through scratch reused from backend to
    // backend, must be value-identical to the oracle.
    let backends: Vec<Box<dyn Compressor>> = vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
    ];
    let bound = ErrorBound::abs_linf(1e-4);
    let mut scratch = errflow_compress::CodecScratch::new();
    for (label, data) in fields(44, 8_192) {
        for be in &backends {
            let stream = be.compress(&data, &bound).unwrap();
            let oracle = reference::decompress(be.name(), &stream).unwrap();
            let mut via_into = vec![0.0f32; data.len()];
            be.decompress_into(&stream, &mut via_into, &mut scratch)
                .unwrap_or_else(|e| panic!("{} decompress_into {label}: {e}", be.name()));
            assert!(
                oracle.len() == via_into.len()
                    && oracle
                        .iter()
                        .zip(&via_into)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} differs on {label}",
                be.name()
            );
        }
    }
}

/// Decodes `data`'s stream through `decompress`, `decompress_into`,
/// `ChunkedCompressor::decode_unit_into` and the oracle, and checks each
/// result: non-finite values come back with their exact bits at their own
/// indices, finite values within `tol`.
fn check_non_finite_roundtrip<C: Compressor + Clone>(be: &C, data: &[f32], bound: &ErrorBound) {
    let tol = bound.absolute_target(data);
    let check = |recon: &[f32], path: &str| {
        assert_eq!(recon.len(), data.len(), "{} {path}: length", be.name());
        for (i, (&a, &b)) in data.iter().zip(recon).enumerate() {
            if a.is_finite() {
                let err = (a as f64 - b as f64).abs();
                assert!(
                    err <= tol * (1.0 + 1e-9),
                    "{} {path}: |{a} - {b}| = {err:e} > {tol:e} at {i}",
                    be.name()
                );
            } else {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {path}: {a} came back as {b} at {i}",
                    be.name()
                );
            }
        }
    };
    let stream = be.compress(data, bound).unwrap();
    check(&be.decompress(&stream, data.len()).unwrap(), "decompress");
    let mut scratch = errflow_compress::CodecScratch::new();
    let mut into = vec![0.0f32; data.len()];
    be.decompress_into(&stream, &mut into, &mut scratch)
        .unwrap();
    check(&into, "decompress_into");
    check(
        &reference::decompress(be.name(), &stream).unwrap(),
        "reference",
    );
    // Chunks of 1000 put non-finite values in ragged last blocks too.
    let chunked = ChunkedCompressor::new(be.clone()).with_chunk_values(1000);
    let container = chunked.compress(data, bound).unwrap();
    let mut by_unit = vec![0.0f32; data.len()];
    for unit in &chunked.decode_units(&container, data.len()).unwrap() {
        let dst = &mut by_unit[unit.offset..unit.offset + unit.len];
        chunked.decode_unit_into(unit, dst, &mut scratch).unwrap();
    }
    check(&by_unit, "decode_unit_into");
}

#[test]
fn non_finite_values_survive_every_decode_path_sz_and_zfp() {
    const QUIET_NAN_WITH_PAYLOAD: u32 = 0x7FC1_2345;
    const NEGATIVE_NAN: u32 = 0xFFC0_0001;
    let n = 2051; // ragged: the last block holds three values
    let smooth: Vec<f32> = (0..n)
        .map(|i| (i as f32 * 0.01).sin() * 2.0 + 0.3 * (i as f32 * 0.07).cos())
        .collect();
    let nan = f32::from_bits(QUIET_NAN_WITH_PAYLOAD);
    let mut with_nan = smooth.clone();
    // One NaN at each position of a 4-value block, beside finite values.
    for (block, lane) in [(10, 0), (20, 1), (30, 2), (40, 3)] {
        with_nan[4 * block + lane] = nan;
    }
    with_nan[997] = f32::from_bits(NEGATIVE_NAN);
    // A block of nothing but NaN, and NaN as the value the tail is padded with.
    with_nan[400..404].fill(nan);
    with_nan[n - 1] = f32::from_bits(NEGATIVE_NAN);
    let mut with_inf = with_nan.clone();
    with_inf[5] = f32::INFINITY;
    with_inf[1203] = f32::NEG_INFINITY;
    with_inf[1600..1604].copy_from_slice(&[f32::INFINITY, nan, f32::NEG_INFINITY, 1.0]);

    for bound in [ErrorBound::abs_linf(1e-3), ErrorBound::rel_linf(1e-4)] {
        check_non_finite_roundtrip(&SzCompressor::default(), &with_nan, &bound);
        check_non_finite_roundtrip(&ZfpCompressor::default(), &with_nan, &bound);
    }
    // An infinity makes the value range, and so a relative budget, infinite.
    let bound = ErrorBound::abs_linf(1e-3);
    check_non_finite_roundtrip(&SzCompressor::default(), &with_inf, &bound);
    check_non_finite_roundtrip(&ZfpCompressor::default(), &with_inf, &bound);
}
