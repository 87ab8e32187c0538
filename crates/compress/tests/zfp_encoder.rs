//! The ZFP encoder through its public surface: the output buffer is sized
//! once for the worst case and written in place, so the streams that come
//! closest to that size — and the ones made of escapes — are encoded here
//! and decoded every way there is.  (Byte identity with the float encoder
//! it replaced is a unit test beside the encoder, which needs the private
//! oracle; this file is the one the sanitizer job runs.)

use errflow_compress::{reference, scratch, Compressor, ErrorBound, ZfpCompressor};
use errflow_tensor::rng::StdRng;

/// Container header: preamble, element count, four sub-stream lengths.
const HEADER_BYTES: usize = 50;
/// The encoder's per-block reserve: 23 header bits and four 39-bit fields.
const MAX_BLOCK_BYTES: usize = 23;

/// Encodes `data` and holds every decoder to the oracle, bit for bit.
fn roundtrip(data: &[f32], tol: f64, what: &str) -> Vec<u8> {
    let zfp = ZfpCompressor;
    let bound = ErrorBound::abs_linf(tol);
    let stream = zfp.compress(data, &bound).unwrap();
    assert!(
        stream.len() <= HEADER_BYTES + MAX_BLOCK_BYTES * data.len().div_ceil(4),
        "{what}: {} bytes for {} values is past the encoder's reserve",
        stream.len(),
        data.len()
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let oracle = reference::zfp_decompress(&stream).unwrap();
    assert_eq!(oracle.len(), data.len(), "{what}: length");
    assert_eq!(
        bits(&zfp.decompress(&stream, data.len()).unwrap()),
        bits(&oracle),
        "{what}: decompress vs oracle"
    );
    let mut into = vec![0.0f32; data.len()];
    zfp.decompress_into(&stream, &mut into, &mut scratch::acquire())
        .unwrap();
    assert_eq!(bits(&into), bits(&oracle), "{what}: decompress_into");
    for (block, recon) in data.chunks(4).zip(oracle.chunks(4)) {
        // A budget below the block's 38-bit working precision is met only
        // to that precision: five units of `2^(emax − 36)` with nothing cut.
        let peak = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let floor = if peak.is_finite() {
            peak as f64 * 2f64.powi(-33)
        } else {
            0.0
        };
        for (&a, &b) in block.iter().zip(recon) {
            if a.is_finite() {
                let err = (a as f64 - b as f64).abs();
                assert!(
                    err <= tol.max(floor),
                    "{what}: |{a} - {b}| = {err:e} > {tol:e}"
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: non-finite value");
            }
        }
    }
    stream
}

#[test]
fn widest_blocks_fit_the_reserve() {
    // `f32::MAX`-amplitude noise under a budget far below one unit of the
    // 38-bit working precision: nothing is cut, every coefficient is as
    // wide as the transform can make it.
    let mut rng = StdRng::seed_from_u64(0x2F4);
    for n in [1usize, 4, 7, 4096, 4099] {
        let noise: Vec<f32> = (0..n)
            .map(|_| rng.gen_range(-1.0f32..1.0) * f32::MAX)
            .collect();
        let stream = roundtrip(&noise, 1e-30, "f32::MAX noise");
        // Alternating signs at full amplitude maximise the differences.
        let saw: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { f32::MAX } else { -f32::MAX })
            .collect();
        roundtrip(&saw, 1e-30, "±f32::MAX sawtooth");
        if n >= 4096 {
            // Near the reserve, not merely under it: 19+ bytes a block.
            assert!(stream.len() > 19 * n / 4, "only {} bytes", stream.len());
        }
    }
}

#[test]
fn all_verbatim_streams_fit_the_reserve() {
    for n in [1usize, 3, 4, 5, 1024, 1027] {
        // One non-finite value per block sends every block down the escape.
        let data: Vec<f32> = (0..n)
            .map(|i| match i % 4 {
                0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(i / 4) % 3],
                lane => lane as f32 * 1e30,
            })
            .collect();
        let stream = roundtrip(&data, 1e-3, "one escape per block");
        // 130 bits a block, byte-aligned per sub-stream.
        assert!(stream.len() >= HEADER_BYTES + 130 * n.div_ceil(4) / 8);
        let all_nan = vec![f32::from_bits(0x7FC0_0BAD); n];
        roundtrip(&all_nan, 1e-3, "nothing but NaN");
    }
}

#[test]
fn zero_and_subnormal_streams_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x2F5);
    for n in [0usize, 1, 2, 4, 1025] {
        roundtrip(&vec![0.0; n], 1e-3, "zeros");
        roundtrip(&vec![-0.0; n], 1e-3, "negative zeros");
        let subnormal: Vec<f32> = (0..n)
            .map(|_| f32::from_bits(rng.next_u64() as u32 & 0x807F_FFFF))
            .collect();
        // Budgets below, inside and above the subnormal range.
        for tol in [1e-46, 1e-41, 1e-30] {
            roundtrip(&subnormal, tol, "subnormals");
        }
    }
}
