//! Golden streams: the layouts nothing writes any more, and the bytes
//! today's writers must keep producing.
//!
//! `fixtures/` holds one seeded 1027-value field (`field.f32`, little-endian
//! `f32` bits; offset so that roughly a third of the SZ values escape to
//! the outlier table, with a 120-value constant stretch for the RLE path)
//! and, all under `rel_linf(1e-4)`:
//!
//! * the headerless ("v1") SZ/ZFP/MGARD streams of the last commit that
//!   could write them, and that commit's SZ container stream under the
//!   retired tag 1 (`sz_v2.bin`, residuals against reconstructed values),
//!   each with the bit patterns it decoded to.  No encoder for them is left
//!   in the tree; they must keep decoding to exactly the recorded values,
//!   through the oracle and through every backend's public entry points.
//! * the SZ lattice stream (`sz_lattice.bin`, tag 4) with its decoded bits,
//!   and the ZFP container stream.  These pin the writers: today's SZ and
//!   ZFP encoders must reproduce them byte for byte.

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
fn golden_streams_decode_to_the_recorded_values_everywhere() {
    let cases: [(&dyn Compressor, &str, &[u8], &[u8]); 5] = [
        (
            &SzCompressor::new(),
            "headerless",
            include_bytes!("fixtures/sz_v1.bin"),
            include_bytes!("fixtures/sz_v1.f32"),
        ),
        (
            &SzCompressor::new(),
            "retired tag",
            include_bytes!("fixtures/sz_v2.bin"),
            include_bytes!("fixtures/sz_v2.f32"),
        ),
        (
            &SzCompressor::new(),
            "lattice",
            include_bytes!("fixtures/sz_lattice.bin"),
            include_bytes!("fixtures/sz_lattice.f32"),
        ),
        (
            &ZfpCompressor::new(),
            "headerless",
            include_bytes!("fixtures/zfp_v1.bin"),
            include_bytes!("fixtures/zfp_v1.f32"),
        ),
        (
            &MgardCompressor::new(),
            "headerless",
            include_bytes!("fixtures/mgard_v1.bin"),
            include_bytes!("fixtures/mgard_v1.f32"),
        ),
    ];
    let data = field();
    let bound = ErrorBound::rel_linf(1e-4);
    let mut sc = scratch::acquire();
    for (c, layout, stream, decoded) in cases {
        let name = format!("{} ({layout})", c.name());
        let want = f32_bits(decoded);
        assert_eq!(want.len(), data.len());
        let oracle = reference::decompress(c.name(), stream).unwrap();
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
        (
            &SzCompressor::new(),
            include_bytes!("fixtures/sz_lattice.bin"),
        ),
        (&ZfpCompressor::new(), include_bytes!("fixtures/zfp_v2.bin")),
    ];
    for (c, want) in cases {
        let got = c.compress(&data, &bound).unwrap();
        assert!(got == want, "{}: stream bytes changed", c.name());
    }
}
