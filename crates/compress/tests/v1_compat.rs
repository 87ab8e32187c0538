//! Golden streams from the last commit that could still *write* the
//! retired single-stream ("v1") layout.
//!
//! `fixtures/` holds one seeded 1027-value field (`field.f32`, little-endian
//! `f32` bits; offset so that roughly a third of the SZ values escape to
//! the outlier table, with a 120-value constant stretch for the RLE path),
//! that commit's v1 SZ/ZFP/MGARD streams for it under `rel_linf(1e-4)` with
//! the bit patterns they decoded to, and its SZ/ZFP container streams.
//!
//! * v1 bytes have no encoder left in the tree; they must keep decoding to
//!   exactly the recorded values, through the oracle and through every
//!   backend's public entry points.
//! * The container bytes pin the writers: today's SZ and ZFP encoders must
//!   reproduce them byte for byte.

use errflow_compress::{
    reference, scratch, Compressor, ErrorBound, MgardCompressor, SzCompressor, ZfpCompressor,
};

fn f32_bits(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn field() -> Vec<f32> {
    f32_bits(include_bytes!("fixtures/field.f32"))
        .into_iter()
        .map(f32::from_bits)
        .collect()
}

#[test]
fn v1_fixtures_decode_to_the_recorded_values_everywhere() {
    let cases: [(&dyn Compressor, &[u8], &[u8]); 3] = [
        (
            &SzCompressor::new(),
            include_bytes!("fixtures/sz_v1.bin"),
            include_bytes!("fixtures/sz_v1.f32"),
        ),
        (
            &ZfpCompressor::new(),
            include_bytes!("fixtures/zfp_v1.bin"),
            include_bytes!("fixtures/zfp_v1.f32"),
        ),
        (
            &MgardCompressor::new(),
            include_bytes!("fixtures/mgard_v1.bin"),
            include_bytes!("fixtures/mgard_v1.f32"),
        ),
    ];
    let data = field();
    let bound = ErrorBound::rel_linf(1e-4);
    let mut sc = scratch::acquire();
    for (c, stream, decoded) in cases {
        let name = c.name();
        let want = f32_bits(decoded);
        assert_eq!(want.len(), data.len());
        let oracle = reference::decompress(name, stream).unwrap();
        assert_eq!(bits(&oracle), want, "{name}: oracle");
        assert!(bound.verify(&data, &oracle), "{name}: bound");
        assert_eq!(
            bits(&c.decompress(stream).unwrap()),
            want,
            "{name}: decompress"
        );
        let mut into = vec![0.0f32; want.len()];
        c.decompress_into(stream, &mut into, &mut sc).unwrap();
        assert_eq!(bits(&into), want, "{name}: decompress_into");
        // A wrong-sized destination is a typed error, not a partial write.
        assert!(c.decompress_into(stream, &mut into[1..], &mut sc).is_err());
    }
}

#[test]
fn sz_and_zfp_still_write_the_recorded_container_bytes() {
    let data = field();
    let bound = ErrorBound::rel_linf(1e-4);
    let cases: [(&dyn Compressor, &[u8]); 2] = [
        (&SzCompressor::new(), include_bytes!("fixtures/sz_v2.bin")),
        (&ZfpCompressor::new(), include_bytes!("fixtures/zfp_v2.bin")),
    ];
    for (c, want) in cases {
        let got = c.compress(&data, &bound).unwrap();
        assert!(got == want, "{}: stream bytes changed", c.name());
    }
}
