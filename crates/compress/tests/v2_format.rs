//! Stream-format matrix: the container every backend writes, and the
//! retired single-stream ("v1") layout that is still read.
//!
//! * v1 streams (golden fixtures — no encoder for them is left) must decode
//!   **bit-identically** through the backends' public decoders and the
//!   [`errflow_compress::reference`] oracle.
//! * Container streams must round-trip within the requested bound under
//!   every bound mode the backend supports.
//! * A container header whose declared sub-stream / table lengths don't sum
//!   to the actual payload must be rejected with a typed
//!   [`CompressError::CorruptStream`], never silently truncated.

use errflow_compress::{
    reference, scratch, CompressError, Compressor, ErrorBound, SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// Smooth field with mild noise — representative of the HPC data the
/// paper's codecs target, with enough variation to exercise outliers.
fn field(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(0x5eed_f0e1);
    (0..n)
        .map(|i| {
            let x = i as f32;
            (x * 0.003).sin() * 3.0 + 0.2 * (x * 0.041).cos() + rng.gen_range(-0.002f32..0.002)
        })
        .collect()
}

#[test]
fn v1_streams_decode_bit_identically_to_the_oracle() {
    let mut sc = scratch::acquire();
    let v1_streams: [(&dyn Compressor, &[u8]); 2] = [
        (&SzCompressor::new(), include_bytes!("fixtures/sz_v1.bin")),
        (&ZfpCompressor::new(), include_bytes!("fixtures/zfp_v1.bin")),
    ];
    for (c, stream) in v1_streams {
        let name = c.name();
        let oracle = reference::decompress(name, stream).unwrap();
        let fast = c.decompress(stream).unwrap();
        assert_eq!(oracle.len(), fast.len(), "{name}: length mismatch");
        for (i, (a, b)) in oracle.iter().zip(&fast).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: v1 decode diverges from the oracle at index {i}"
            );
        }
        let mut into = vec![0.0f32; oracle.len()];
        c.decompress_into(stream, &mut into, &mut sc).unwrap();
        assert!(oracle
            .iter()
            .zip(&into)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn v2_round_trips_under_every_supported_bound_mode() {
    let data = field(10_000);
    let mut sc = scratch::acquire();
    let bounds = [
        ErrorBound::abs_linf(1e-3),
        ErrorBound::rel_linf(1e-4),
        ErrorBound::abs_l2(1e-3),
    ];
    let sz = SzCompressor::new();
    let zfp = ZfpCompressor::new();
    for bound in &bounds {
        for c in [&sz as &dyn Compressor, &zfp] {
            if !c.supports(bound) {
                continue;
            }
            let stream = c.compress(&data, bound).unwrap();
            let rec = c.decompress(&stream).unwrap();
            assert!(
                bound.verify(&data, &rec),
                "{} v2 violates {bound:?}",
                c.name()
            );
            let mut into = vec![0.0f32; data.len()];
            c.decompress_into(&stream, &mut into, &mut sc).unwrap();
            assert!(rec
                .iter()
                .zip(&into)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

/// ZFP's container re-encodes the *same* per-block stream the v1 layout
/// held, merely split at block boundaries — so the v1 fixture and today's
/// encoding of the fixture's field must reconstruct bit-identical values,
/// not merely bound-respecting ones.
#[test]
fn zfp_v2_reconstruction_matches_v1_exactly() {
    let data: Vec<f32> = include_bytes!("fixtures/field.f32")
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let zfp = ZfpCompressor::new();
    let v1 = zfp
        .decompress(include_bytes!("fixtures/zfp_v1.bin"))
        .unwrap();
    let v2 = zfp
        .decompress(&zfp.compress(&data, &ErrorBound::rel_linf(1e-4)).unwrap())
        .unwrap();
    assert_eq!(v1.len(), v2.len());
    assert!(v1.iter().zip(&v2).all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// Flip the first declared sub-stream length in a v2 ZFP header so the
/// lengths no longer sum to the payload size.
#[test]
fn zfp_forged_substream_lengths_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let zfp = ZfpCompressor::new();
    let mut stream = zfp.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
    // Layout: preamble (10) + n (8) + per-stream u64 lengths.
    let len0 = u64::from_le_bytes(stream[18..26].try_into().unwrap());
    stream[18..26].copy_from_slice(&(len0 + 1).to_le_bytes());
    let mut out = vec![0.0f32; data.len()];
    let mut sc = scratch::acquire();
    let err = zfp.decompress_into(&stream, &mut out, &mut sc).unwrap_err();
    match err {
        CompressError::CorruptStream(msg) => {
            assert!(
                msg.contains("sub-stream lengths"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("expected CorruptStream, got {other:?}"),
    }
    assert!(zfp.decompress(&stream).is_err());
}

/// Inflate a declared per-segment outlier count in a v2 SZ header so the
/// outlier tables no longer match the trailing payload bytes.
#[test]
fn sz_forged_outlier_counts_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let sz = SzCompressor::new();
    let mut stream = sz.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
    // Layout: preamble (10) + n (8) + eb (8) + per-stream u32 counts.
    let c0 = u32::from_le_bytes(stream[26..30].try_into().unwrap());
    stream[26..30].copy_from_slice(&(c0 + 1).to_le_bytes());
    let mut out = vec![0.0f32; data.len()];
    let mut sc = scratch::acquire();
    let err = sz.decompress_into(&stream, &mut out, &mut sc).unwrap_err();
    match err {
        CompressError::CorruptStream(msg) => {
            assert!(msg.contains("outlier table"), "unexpected message: {msg}")
        }
        other => panic!("expected CorruptStream, got {other:?}"),
    }
    assert!(sz.decompress(&stream).is_err());
}

/// Truncating the payload (without touching the header) must also be
/// rejected by the strict length-sum check, for both backends.
#[test]
fn v2_truncated_payloads_are_rejected() {
    let data = field(4096);
    let bound = ErrorBound::abs_linf(1e-3);
    for c in [
        &SzCompressor::new() as &dyn Compressor,
        &ZfpCompressor::new(),
    ] {
        let stream = c.compress(&data, &bound).unwrap();
        let cut = &stream[..stream.len() - 3];
        assert!(
            matches!(c.decompress(cut), Err(CompressError::CorruptStream(_))),
            "{}: truncated v2 stream must be CorruptStream",
            c.name()
        );
    }
}
