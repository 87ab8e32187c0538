//! Robustness: decompressing arbitrary bytes must return an error (or a
//! harmless value) — never panic, never allocate unboundedly.  These are
//! deterministic pseudo-fuzz sweeps over random buffers and mutated valid
//! streams.  Every decoder checks the container magic first, so random
//! bytes alone stop there; the sweeps that put random bodies behind a
//! valid preamble, and the ones that mutate valid streams, reach the
//! parsers behind it.  Wherever a stream reaches a backend's fast decoder,
//! the oracle in `errflow_compress::reference` must accept and reject it
//! alike and, when both accept, decode it to the same bits.

use errflow_compress::bitstream::BitWriter;
use errflow_compress::chunked::ChunkedCompressor;
use errflow_compress::format::{write_preamble, BackendTag, V2_STREAMS};
use errflow_compress::{
    all_backends, reference, Compressor, ErrorBound, SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// Every decoder under test, with the backend name `reference::decompress`
/// reads its streams under — `None` for SZ inside the chunked container,
/// which has no oracle.
fn codecs() -> Vec<(Box<dyn Compressor>, Option<&'static str>)> {
    let mut all: Vec<(Box<dyn Compressor>, Option<&'static str>)> = all_backends()
        .into_iter()
        .map(|c| {
            let name = c.name();
            (c, Some(name))
        })
        .collect();
    all.push((Box::new(ChunkedCompressor::new(SzCompressor::new())), None));
    all
}

/// The container tag each backend writes, by [`Compressor::name`].
fn tag_of(backend: &str) -> BackendTag {
    match backend {
        "sz" => BackendTag::SzOrder,
        "zfp" => BackendTag::Zfp,
        "mgard" => BackendTag::Mgard,
        other => panic!("no container tag for {other}"),
    }
}

/// Decodes `stream` with `c` and with the oracle for `backend`, and checks
/// that they accept and reject alike and agree on every value.
fn assert_oracle_parity(c: &dyn Compressor, backend: &str, stream: &[u8], what: &str) {
    let fast = c.decompress(stream);
    let oracle = reference::decompress(backend, stream);
    match (fast, oracle) {
        (Ok(fast), Ok(oracle)) => assert!(
            fast.len() == oracle.len()
                && fast
                    .iter()
                    .zip(&oracle)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{backend}: decoders disagree on {what}"
        ),
        (Err(_), Err(_)) => {}
        (fast, oracle) => panic!(
            "{backend}: fast decoder {} but the oracle {} on {what}",
            fast.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
            oracle.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
        ),
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xf22);
    for (c, _) in codecs() {
        for len in [0usize, 1, 7, 8, 16, 24, 64, 256, 4096] {
            for _ in 0..20 {
                let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                // Any Result is fine; panics/OOM are the failure mode.
                let _ = c.decompress(&buf);
            }
        }
    }
}

/// Random bodies behind each backend's valid preamble reach the fast
/// decoder's header and body parsers, which must take them as the oracle
/// does.
#[test]
fn random_bodies_behind_each_preamble_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xf23);
    for c in all_backends() {
        for len in [0usize, 1, 8, 16, 28, 32, 64, 256, 4096] {
            for n_streams in [1, 4, 16] {
                for _ in 0..20 {
                    let mut buf = Vec::new();
                    write_preamble(&mut buf, tag_of(c.name()), n_streams);
                    buf.extend((0..len).map(|_| rng.gen::<u8>()));
                    let what = format!("a {len}-byte body behind {n_streams} sub-streams");
                    assert_oracle_parity(c.as_ref(), c.name(), &buf, &what);
                }
            }
        }
    }
}

#[test]
fn huge_declared_counts_do_not_allocate() {
    // A header declaring 2^60 values with a 16-byte body must error fast,
    // behind a valid preamble where the codec has one.
    for (c, backend) in codecs() {
        let mut buf = Vec::new();
        if let Some(backend) = backend {
            write_preamble(&mut buf, tag_of(backend), V2_STREAMS);
        }
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(c.decompress(&buf).is_err(), "{}", c.name());
        if let Some(backend) = backend {
            assert!(reference::decompress(backend, &buf).is_err(), "{backend}");
        }
    }
}

#[test]
fn bit_flips_in_valid_streams_agree_with_the_oracle() {
    let data: Vec<f32> = (0..2048).map(|i| ((i as f32) * 0.01).sin() * 2.0).collect();
    let mut rng = StdRng::seed_from_u64(99);
    for bound in [1e-1, 1e-3, 1e-6].map(ErrorBound::abs_linf) {
        for (c, backend) in codecs() {
            let stream = c.compress(&data, &bound).unwrap();
            for _ in 0..200 {
                let mut mutated = stream.clone();
                let idx = rng.gen_range(0..mutated.len());
                mutated[idx] ^= 1 << rng.gen_range(0..8u8);
                // Either an error or a (wrong) reconstruction — never a
                // panic, and the same verdict and values as the oracle.
                match backend {
                    Some(backend) => {
                        let what = format!("a flip in byte {idx} under {bound:?}");
                        assert_oracle_parity(c.as_ref(), backend, &mutated, &what);
                    }
                    None => {
                        let _ = c.decompress(&mutated);
                    }
                }
            }
        }
    }
}

/// The SZ header's predictor-order byte (two bits per segment, at byte 26)
/// under every one of its 256 values, on streams whose segments chose each
/// order: the fast decoders and the oracle must accept and reject alike and
/// agree on every value.  Only fields of 1–3 for all four segments are
/// well-formed, and the honest byte must round-trip.
#[test]
fn every_predictor_order_byte_agrees_with_the_oracle() {
    const ORDERS_AT: usize = 26;
    let sz = SzCompressor::new();
    let chunked = ChunkedCompressor::new(SzCompressor::new());
    let mut rng = StdRng::seed_from_u64(0x0B7E);
    let n = 4 * 700;
    // A segment per order — a random walk, a line, a parabola (indices 5t
    // and t² at this bound) — and a constant one, which takes order 1.
    let mut walk = 0.0f32;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let t = (i % 700) as f32;
            match i / 700 {
                0 => {
                    walk += rng.gen_range(-0.05f32..0.05);
                    walk
                }
                1 => t * 0.01,
                2 => t * t * 2e-3,
                _ => 0.25,
            }
        })
        .collect();
    let bound = ErrorBound::abs_linf(1e-3);
    let stream = sz.compress(&data, &bound).unwrap();
    let honest = stream[ORDERS_AT];
    assert_eq!(honest, 1 | 2 << 2 | 3 << 4 | 1 << 6);
    for byte in 0..=u8::MAX {
        let mut mutated = stream.clone();
        mutated[ORDERS_AT] = byte;
        let what = format!("order byte {byte:#04x}");
        assert_oracle_parity(&sz, "sz", &mutated, &what);
        let well_formed = (0..4).all(|s| (byte >> (2 * s)) & 3 != 0);
        assert_eq!(sz.decompress(&mutated).is_ok(), well_formed, "{what}");
        let _ = chunked.decompress(&mutated);
        if byte == honest {
            assert!(bound.verify(&data, &sz.decompress(&mutated).unwrap()));
        }
    }
    // A field past the last segment must be clear: a one-segment stream
    // reads its order from the low two bits alone.
    let mut one = Vec::new();
    write_preamble(&mut one, BackendTag::SzOrder, 1);
    one.extend_from_slice(&0u64.to_le_bytes());
    one.extend_from_slice(&1e-3f64.to_le_bytes());
    let at = one.len();
    one.push(0);
    one.extend_from_slice(&0u32.to_le_bytes());
    one.extend(errflow_compress::huffman::encode_multi(&[&[]]));
    for byte in 0..=u8::MAX {
        one[at] = byte;
        let what = format!("one-segment order byte {byte:#04x}");
        assert_oracle_parity(&sz, "sz", &one, &what);
        assert_eq!(sz.decompress(&one).is_ok(), matches!(byte, 1..=3), "{what}");
    }
}

/// Forged ZFP headers can declare coefficients far past anything the
/// encoder writes (`width + cut` up to 90).  Lifted, those leave the exact
/// range of the AVX2 decode round's `i64 → f64` conversion, so such rounds
/// must go to the scalar path: the fast decoder matches the oracle bit for
/// bit at the `width + cut = 48` edge of its vector path and beyond it.
#[test]
fn forged_zfp_coefficient_ranges_decode_like_the_oracle() {
    let zfp = ZfpCompressor::new();
    let mut rng = StdRng::seed_from_u64(0x2F3);
    let blocks = 64;
    for (cut, width) in [(21u32, 27u32), (22, 27), (30, 20), (40, 8), (63, 27)] {
        let payloads: Vec<Vec<u8>> = (0..V2_STREAMS)
            .map(|_| {
                let mut w = BitWriter::new();
                for _ in 0..blocks {
                    // A normal block: flag, biased exponent, cut, width,
                    // then four sign + magnitude fields.
                    w.write_bit(false);
                    w.write_bits(rng.gen_range(0u64..1024), 10);
                    w.write_bits(u64::from(cut), 6);
                    w.write_bits(u64::from(width), 6);
                    for _ in 0..4 {
                        w.write_bit(rng.gen());
                        w.write_bits(rng.gen_range(0..1u64 << width), width);
                    }
                }
                w.into_bytes()
            })
            .collect();
        let mut stream = Vec::new();
        write_preamble(&mut stream, BackendTag::Zfp, V2_STREAMS);
        stream.extend_from_slice(&((V2_STREAMS * blocks * 4) as u64).to_le_bytes());
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u64).to_le_bytes());
        }
        stream.extend(payloads.concat());
        let what = format!("blocks with cut {cut} and width {width}");
        assert!(zfp.decompress(&stream).is_ok(), "{what}: well framed");
        assert_oracle_parity(&zfp, "zfp", &stream, &what);
    }
}

#[test]
fn truncations_of_valid_streams_never_panic() {
    let data: Vec<f32> = (0..1024).map(|i| (i as f32).cos()).collect();
    let bound = ErrorBound::abs_linf(1e-4);
    for (c, _) in codecs() {
        let stream = c.compress(&data, &bound).unwrap();
        for cut in 0..stream.len().min(200) {
            let _ = c.decompress(&stream[..cut]);
        }
        // Also a coarse sweep across the whole stream.
        let step = (stream.len() / 50).max(1);
        for cut in (0..stream.len()).step_by(step) {
            let _ = c.decompress(&stream[..cut]);
        }
    }
}
