//! Robustness: decompressing arbitrary bytes must return an error (or a
//! harmless value) — never panic, never allocate unboundedly.  These are
//! deterministic pseudo-fuzz sweeps over random buffers and mutated valid
//! streams.  Bytes that do not open with the container magic reach the
//! slow decoders in `errflow_compress::reference`, so the same sweeps cover
//! those too.

use errflow_compress::chunked::ChunkedCompressor;
use errflow_compress::{
    reference, CompressError, Compressor, ErrorBound, MgardCompressor, Sz2dCompressor,
    SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// One decoder under test.  `Sz2dCompressor` carries a grid shape and so is
/// not a [`Compressor`]; the sweeps only need these two operations.
struct Codec {
    name: &'static str,
    /// Backend name `reference::decompress` decodes this codec's streams
    /// under, if it has an oracle.
    oracle: Option<&'static str>,
    compress: Box<dyn Fn(&[f32], &ErrorBound) -> Vec<u8>>,
    decompress: Box<dyn Fn(&[u8]) -> Result<Vec<f32>, CompressError>>,
}

fn codecs() -> Vec<Codec> {
    fn of<C: Compressor + 'static>(name: &'static str, c: C, has_oracle: bool) -> Codec {
        let c = std::rc::Rc::new(c);
        let d = c.clone();
        Codec {
            name,
            oracle: has_oracle.then(|| c.name()),
            compress: Box::new(move |data, bound| c.compress(data, bound).unwrap()),
            decompress: Box::new(move |stream| d.decompress(stream)),
        }
    }
    vec![
        of("sz", SzCompressor::default(), true),
        of("zfp", ZfpCompressor::default(), true),
        of("mgard", MgardCompressor::default(), true),
        of(
            "chunked-sz",
            ChunkedCompressor::new(SzCompressor::default()),
            false,
        ),
        Codec {
            name: "sz2d",
            oracle: None,
            // Every sweep below compresses a multiple of 32 values.
            compress: Box::new(|data, bound| {
                Sz2dCompressor::new()
                    .compress(data, 32, data.len() / 32, bound)
                    .unwrap()
            }),
            decompress: Box::new(|stream| Sz2dCompressor::new().decompress(stream).map(|r| r.0)),
        },
    ]
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xf22);
    for codec in codecs() {
        for len in [0usize, 1, 7, 8, 16, 24, 64, 256, 4096] {
            for _ in 0..20 {
                let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                // Any Result is fine; panics/OOM are the failure mode.
                let _ = (codec.decompress)(&buf);
            }
        }
    }
}

/// Random bytes carry no container magic and so only ever reach the slow
/// decoders; behind a valid lattice preamble they reach the fast SZ
/// decoder too, which must take them as the oracle does.
#[test]
fn random_bodies_behind_the_lattice_preamble_never_panic() {
    use errflow_compress::format::{write_preamble, BackendTag};
    let sz = SzCompressor::default();
    let mut rng = StdRng::seed_from_u64(0xf23);
    for len in [0usize, 1, 8, 16, 28, 32, 64, 256, 4096] {
        for n_streams in [1, 4, 16] {
            for _ in 0..20 {
                let mut buf = Vec::new();
                write_preamble(&mut buf, BackendTag::SzLattice, n_streams);
                buf.extend((0..len).map(|_| rng.gen::<u8>()));
                let fast = sz.decompress(&buf);
                let oracle = reference::decompress("sz", &buf);
                assert_eq!(fast.is_ok(), oracle.is_ok(), "accept/reject differs");
                if let (Ok(fast), Ok(oracle)) = (fast, oracle) {
                    assert!(fast
                        .iter()
                        .zip(&oracle)
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                }
            }
        }
    }
}

#[test]
fn huge_declared_counts_do_not_allocate() {
    // A header declaring 2^60 values with a 16-byte body must error fast.
    for codec in codecs() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!((codec.decompress)(&buf).is_err(), "{}", codec.name);
    }
}

#[test]
fn bit_flips_in_valid_streams_never_panic() {
    let data: Vec<f32> = (0..2048).map(|i| ((i as f32) * 0.01).sin() * 2.0).collect();
    let bound = ErrorBound::abs_linf(1e-3);
    let mut rng = StdRng::seed_from_u64(99);
    for codec in codecs() {
        let stream = (codec.compress)(&data, &bound);
        for _ in 0..200 {
            let mut mutated = stream.clone();
            let idx = rng.gen_range(0..mutated.len());
            mutated[idx] ^= 1 << rng.gen_range(0..8u8);
            // Either an error or a (wrong) reconstruction — never a panic.
            let fast = (codec.decompress)(&mutated);
            // The oracle must not panic either, and whenever both decoders
            // accept a mutant they must agree on every value.
            let Some(backend) = codec.oracle else {
                continue;
            };
            let oracle = reference::decompress(backend, &mutated);
            if let (Ok(fast), Ok(oracle)) = (fast, oracle) {
                assert!(
                    fast.len() == oracle.len()
                        && fast
                            .iter()
                            .zip(&oracle)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{}: decoders disagree on a mutant (byte {idx})",
                    codec.name
                );
            }
        }
    }
}

#[test]
fn truncations_of_valid_streams_never_panic() {
    let data: Vec<f32> = (0..1024).map(|i| (i as f32).cos()).collect();
    let bound = ErrorBound::abs_linf(1e-4);
    for codec in codecs() {
        let stream = (codec.compress)(&data, &bound);
        for cut in 0..stream.len().min(200) {
            let _ = (codec.decompress)(&stream[..cut]);
        }
        // Also a coarse sweep across the whole stream.
        let step = (stream.len() / 50).max(1);
        for cut in (0..stream.len()).step_by(step) {
            let _ = (codec.decompress)(&stream[..cut]);
        }
    }
}

#[test]
fn sz2d_random_bytes_never_panic() {
    let sz2d = Sz2dCompressor::new();
    let mut rng = StdRng::seed_from_u64(7);
    for len in [0usize, 10, 24, 100, 1000] {
        for _ in 0..20 {
            let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let _ = sz2d.decompress(&buf);
        }
    }
    // Overflow-bait dimensions, and grids with exactly one zero dimension:
    // no values to decode, but up to 2^64 empty rows for a row loop to walk
    // (the valid empty block makes the symbol count match).
    let empty_block = sz2d
        .compress(&[], 0, 0, &ErrorBound::abs_linf(1e-3))
        .unwrap()[24..]
        .to_vec();
    for (nx, ny) in [
        (u64::MAX, u64::MAX),
        (0, 1 << 31),
        (1 << 31, 0),
        (0, u64::MAX),
    ] {
        let mut buf = Vec::new();
        buf.extend_from_slice(&nx.to_le_bytes());
        buf.extend_from_slice(&ny.to_le_bytes());
        buf.extend_from_slice(&1e-3f64.to_le_bytes());
        buf.extend_from_slice(&empty_block);
        assert!(
            matches!(sz2d.decompress(&buf), Err(CompressError::CorruptStream(_))),
            "{nx}x{ny} grid must be rejected"
        );
    }
    let bound = ErrorBound::abs_linf(1e-3);
    assert!(sz2d.compress(&[], 0, 7, &bound).is_err());
    assert!(sz2d.compress(&[], 7, 0, &bound).is_err());
}
