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
    reference, Compressor, ErrorBound, MgardCompressor, Sz2dCompressor, SzCompressor, ZfpCompressor,
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
                    .decompress(&stream)
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
fn random_grids_roundtrip_within_bound_sz2d() {
    let sz2d = Sz2dCompressor::new();
    let (nx, ny) = (80, 125);
    for (label, data) in fields(43, nx * ny) {
        for bound in bounds() {
            let stream = sz2d
                .compress(&data, nx, ny, &bound)
                .unwrap_or_else(|e| panic!("sz2d compress {label}: {e}"));
            let (recon, rx, ry) = sz2d
                .decompress(&stream)
                .unwrap_or_else(|e| panic!("sz2d decompress {label}: {e}"));
            assert_eq!((rx, ry), (nx, ny));
            assert!(
                bound.verify(&data, &recon),
                "sz2d violated {bound:?} on {label}"
            );
        }
    }
}

#[test]
fn decompress_into_agrees_with_decompress_all_backends() {
    // The zero-copy decode path must be value-identical to the Vec path.
    let backends: Vec<Box<dyn Compressor>> = vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
    ];
    let bound = ErrorBound::abs_linf(1e-4);
    for (label, data) in fields(44, 8_192) {
        for be in &backends {
            let stream = be.compress(&data, &bound).unwrap();
            let via_vec = be.decompress(&stream).unwrap();
            let mut via_into = vec![0.0f32; data.len()];
            let mut scratch = errflow_compress::CodecScratch::new();
            be.decompress_into(&stream, &mut via_into, &mut scratch)
                .unwrap_or_else(|e| panic!("{} decompress_into {label}: {e}", be.name()));
            assert_eq!(via_vec, via_into, "{} differs on {label}", be.name());
        }
    }
}
