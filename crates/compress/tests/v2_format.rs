//! Stream-format matrix: the container every backend writes, the bytes
//! it must keep holding, and the layouts no decoder reads any more.
//!
//! `fixtures/` holds one seeded 1027-value field (`field.f32`, little-endian
//! `f32` bits; offset so that roughly a third of the SZ values escape to
//! the outlier table, with a 120-value constant stretch for the RLE path)
//! and, all under `rel_linf(1e-4)`:
//!
//! * the SZ stream (`sz_compact.bin`, tag 6: a predictor order per
//!   segment, varint counts and the compact code table) with its decoded
//!   bits (`sz_order.f32`), the MGARD stream (`mgard_compact.bin`, tag 7)
//!   and the ZFP container stream (`zfp_v2.bin`).  Two more SZ streams pin
//!   the other block kinds: `sz_runs.bin`, the golden field at
//!   `rel_linf(1e-2)` (a Huffman block with runs), and `sz_raw16.bin`, the
//!   seeded [`field`] of 1027 values at `abs_linf(1e-6)` (a raw 16-bit
//!   block).  These pin the writers: today's SZ, MGARD and ZFP encoders
//!   must reproduce them byte for byte, and the `sz_compact.bin` stream
//!   must keep decoding to the recorded bits through every path.  (Those
//!   bits are the ones the retired order-2 and tag-5 layouts decoded to:
//!   every layout since has coded the same lattice.)
//! * retired layouts with no writer in the tree: the headerless ("v1")
//!   SZ/ZFP/MGARD streams (`*_v1.bin`), an SZ container under the retired
//!   tag 1 (`sz_v2.bin`), one under the retired order-2 lattice tag 4
//!   (`sz_lattice.bin`) and one under tag 5, the per-segment orders behind
//!   fixed-width counts and 5-byte code-table entries (`sz_order.bin`).
//!   Every decoder — `decompress`, `decompress_into`, the
//!   [`errflow_compress::reference`] oracle and the codec inside
//!   [`ChunkedCompressor`] — must refuse them with a typed
//!   [`CompressError::CorruptStream`], and the chunked container must
//!   refuse its own retired layout (fixed-width `u64` fields) even around
//!   a valid stream.
//!
//! Beyond the fixtures: container streams round-trip within the requested
//! bound under every bound mode the backend supports, and a header whose
//! declared sub-stream / table lengths don't sum to the actual payload is
//! a typed [`CompressError::CorruptStream`], never silently truncated.

use errflow_compress::chunked::CONTAINER_TAG;
use errflow_compress::traits::{read_varint, write_varint};
use errflow_compress::{
    reference, scratch, ChunkedCompressor, CompressError, Compressor, ErrorBound, MgardCompressor,
    SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// Values in the golden field and in every fixture stream.
const FIELD_LEN: usize = 1027;

fn f32_bits(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn golden_field() -> Vec<f32> {
    f32_bits(include_bytes!("fixtures/field.f32"))
        .into_iter()
        .map(f32::from_bits)
        .collect()
}

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
fn the_sz_golden_decodes_to_the_recorded_values_everywhere() {
    let sz = SzCompressor;
    let stream = include_bytes!("fixtures/sz_compact.bin");
    let want = f32_bits(include_bytes!("fixtures/sz_order.f32"));
    let data = golden_field();
    assert_eq!(want.len(), data.len());
    let oracle = reference::decompress(sz.name(), stream).unwrap();
    assert_eq!(bits(&oracle), want, "oracle");
    assert!(ErrorBound::rel_linf(1e-4).verify(&data, &oracle), "bound");
    assert_eq!(
        bits(&sz.decompress(stream, FIELD_LEN).unwrap()),
        want,
        "decompress"
    );
    let mut sc = scratch::acquire();
    let mut into = vec![0.0f32; want.len()];
    sz.decompress_into(stream, &mut into, &mut sc).unwrap();
    assert_eq!(bits(&into), want, "decompress_into");
    // A wrong-sized destination is a typed error, not a partial write.
    assert!(sz.decompress_into(stream, &mut into[1..], &mut sc).is_err());
    assert!(sz.decompress(stream, FIELD_LEN + 1).is_err());
}

/// The flag byte of the symbol block in an SZ (`tag` 6) or MGARD (tag 7)
/// stream of [`FIELD_LEN`] values: behind the preamble, the element count
/// and the bound come SZ's order byte and outlier counts, or MGARD's
/// three-value coarse level.
fn block_flag(stream: &[u8], sz: bool) -> u8 {
    let mut pos = 10;
    read_varint(stream, &mut pos, u64::MAX, "n").unwrap();
    pos += 8;
    if sz {
        pos += 1;
        for _ in 0..4 {
            read_varint(stream, &mut pos, u64::MAX, "outlier count").unwrap();
        }
    } else {
        pos += 4 * 3;
    }
    stream[pos]
}

#[test]
fn sz_mgard_and_zfp_still_write_the_recorded_container_bytes() {
    let golden = golden_field();
    let smooth = field(FIELD_LEN);
    let at = ErrorBound::rel_linf(1e-4);
    let (sz, mgard) = (SzCompressor, MgardCompressor);
    // (codec, field, bound, fixture, the symbol block's flag byte: kind 1
    // is a Huffman block with runs, 2 a raw 16-bit one).
    type Case<'a> = (
        &'a dyn Compressor,
        &'a [f32],
        ErrorBound,
        &'a [u8],
        Option<u8>,
    );
    let cases: [Case; 5] = [
        (
            &sz,
            &golden,
            at,
            include_bytes!("fixtures/sz_compact.bin"),
            Some(1),
        ),
        (
            &sz,
            &golden,
            ErrorBound::rel_linf(1e-2),
            include_bytes!("fixtures/sz_runs.bin"),
            Some(1),
        ),
        (
            &sz,
            &smooth,
            ErrorBound::abs_linf(1e-6),
            include_bytes!("fixtures/sz_raw16.bin"),
            Some(2),
        ),
        (
            &mgard,
            &golden,
            at,
            include_bytes!("fixtures/mgard_compact.bin"),
            None,
        ),
        (
            &ZfpCompressor,
            &golden,
            at,
            include_bytes!("fixtures/zfp_v2.bin"),
            None,
        ),
    ];
    for (c, data, bound, want, flag) in cases {
        let got = c.compress(data, &bound).unwrap();
        assert!(
            got == want,
            "{} at {bound:?}: stream bytes changed",
            c.name()
        );
        if let Some(flag) = flag {
            assert_eq!(block_flag(want, true), flag, "sz at {bound:?}: block kind");
        }
        let back = c.decompress(want, FIELD_LEN).unwrap();
        assert!(
            bound.verify(data, &back),
            "{} at {bound:?}: bound",
            c.name()
        );
    }
    let mgard_stream = include_bytes!("fixtures/mgard_compact.bin");
    assert_eq!(block_flag(mgard_stream, false) & 3, 1, "mgard: block kind");
}

fn is_corrupt<T>(result: Result<T, CompressError>) -> bool {
    matches!(result, Err(CompressError::CorruptStream(_)))
}

/// Holds every decoder of `c` to refusing `stream`, a would-be stream of
/// [`FIELD_LEN`] values, with a typed [`CompressError::CorruptStream`]:
/// `decompress`, `decompress_into`, the oracle, and a [`ChunkedCompressor`]
/// over `c` whose one chunk is `stream`.
fn refused_everywhere<C: Compressor + Clone>(c: &C, stream: &[u8], what: &str) {
    let mut sc = scratch::acquire();
    let mut out = vec![0.0f32; FIELD_LEN];
    assert!(
        is_corrupt(c.decompress(stream, FIELD_LEN)),
        "{what}: decompress"
    );
    assert!(
        is_corrupt(c.decompress_into(stream, &mut out, &mut sc)),
        "{what}: decompress_into"
    );
    assert!(
        is_corrupt(reference::decompress(c.name(), stream)),
        "{what}: oracle"
    );
    // The one-chunk container: its tag, the element count and the chunk
    // size, then the chunk.
    let mut container = vec![CONTAINER_TAG];
    write_varint(&mut container, FIELD_LEN as u64);
    write_varint(&mut container, FIELD_LEN as u64);
    container.extend_from_slice(stream);
    assert!(
        is_corrupt(reference::chunked_decompress(c.name(), &container)),
        "{what}: chunked oracle"
    );
    let chunked = ChunkedCompressor::new(c.clone());
    assert!(
        is_corrupt(chunked.decompress(&container, FIELD_LEN)),
        "{what}: chunked decompress"
    );
    assert!(
        is_corrupt(chunked.decompress_into(&container, &mut out, &mut sc)),
        "{what}: chunked decompress_into"
    );
    let units = chunked.decode_units(&container, FIELD_LEN).unwrap();
    assert_eq!(units.len(), 1, "{what}: one chunk");
    assert!(
        is_corrupt(chunked.decode_unit_into(&units[0], &mut out, &mut sc)),
        "{what}: chunked decode_unit_into"
    );
}

#[test]
fn retired_layouts_are_refused_by_every_decoder() {
    let sz = SzCompressor;
    refused_everywhere(&sz, include_bytes!("fixtures/sz_v1.bin"), "sz headerless");
    refused_everywhere(&sz, include_bytes!("fixtures/sz_v2.bin"), "sz tag 1");
    refused_everywhere(
        &sz,
        include_bytes!("fixtures/sz_lattice.bin"),
        "sz order-2 lattice, tag 4",
    );
    refused_everywhere(
        &sz,
        include_bytes!("fixtures/sz_order.bin"),
        "sz fixed-width framing, tag 5",
    );
    refused_everywhere(
        &ZfpCompressor,
        include_bytes!("fixtures/zfp_v1.bin"),
        "zfp headerless",
    );
    refused_everywhere(
        &MgardCompressor,
        include_bytes!("fixtures/mgard_v1.bin"),
        "mgard headerless",
    );
    // Today's SZ and MGARD bodies under a retired tag are no stream
    // either.
    let bound = ErrorBound::rel_linf(1e-4);
    let today = sz.compress(&golden_field(), &bound).unwrap();
    assert!(sz.decompress(&today, FIELD_LEN).is_ok());
    for tag in [1, 3, 4, 5] {
        let mut retagged = today.clone();
        retagged[8] = tag;
        refused_everywhere(&sz, &retagged, &format!("today's SZ body under tag {tag}"));
    }
    let mgard = MgardCompressor;
    let today = mgard.compress(&golden_field(), &bound).unwrap();
    assert!(mgard.decompress(&today, FIELD_LEN).is_ok());
    for tag in [1, 3, 4, 5] {
        let mut retagged = today.clone();
        retagged[8] = tag;
        refused_everywhere(
            &mgard,
            &retagged,
            &format!("today's MGARD body under tag {tag}"),
        );
    }
}

/// The chunked container's retired layout — element count and chunk size
/// as `u64`, a `u32` chunk count, a `u64` length per chunk — around
/// today's valid streams: every chunked decoder and the oracle refuse it,
/// and today's container around the same stream decodes everywhere.
#[test]
fn the_retired_chunk_header_is_refused_around_valid_streams() {
    fn check<C: Compressor + Clone>(c: &C) {
        let data = golden_field();
        let bound = ErrorBound::rel_linf(1e-4);
        let mut sc = scratch::acquire();
        let mut out = vec![0.0f32; data.len()];
        let stream = c.compress(&data, &bound).unwrap();
        let mut retired = Vec::new();
        retired.extend_from_slice(&(data.len() as u64).to_le_bytes());
        retired.extend_from_slice(&(data.len() as u64).to_le_bytes());
        retired.extend_from_slice(&1u32.to_le_bytes());
        retired.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        retired.extend_from_slice(&stream);
        let chunked = ChunkedCompressor::new(c.clone());
        let what = c.name();
        assert!(
            is_corrupt(chunked.decompress(&retired, data.len())),
            "{what}"
        );
        assert!(
            is_corrupt(chunked.decompress_into(&retired, &mut out, &mut sc)),
            "{what}: decompress_into"
        );
        assert!(
            is_corrupt(chunked.decode_units(&retired, data.len())),
            "{what}: units"
        );
        assert!(
            is_corrupt(reference::chunked_decompress(what, &retired)),
            "{what}: oracle"
        );
        let today = chunked.compress(&data, &bound).unwrap();
        assert_eq!(today[today.len() - stream.len()..], stream[..], "{what}");
        let want = bits(&c.decompress(&stream, data.len()).unwrap());
        assert_eq!(
            bits(&chunked.decompress(&today, data.len()).unwrap()),
            want,
            "{what}"
        );
        let oracle = reference::chunked_decompress(what, &today).unwrap();
        assert_eq!(bits(&oracle), want, "{what}: oracle");
    }
    check(&SzCompressor);
    check(&ZfpCompressor);
    check(&MgardCompressor);
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
    let sz = SzCompressor;
    let zfp = ZfpCompressor;
    for bound in &bounds {
        for c in [&sz as &dyn Compressor, &zfp] {
            if !c.supports(bound) {
                continue;
            }
            let stream = c.compress(&data, bound).unwrap();
            let rec = c.decompress(&stream, data.len()).unwrap();
            assert!(
                bound.verify(&data, &rec),
                "{} v2 violates {bound:?}",
                c.name()
            );
            let oracle = reference::decompress(c.name(), &stream).unwrap();
            assert_eq!(bits(&rec), bits(&oracle), "{}: decompress", c.name());
            let mut into = vec![0.0f32; data.len()];
            c.decompress_into(&stream, &mut into, &mut sc).unwrap();
            assert_eq!(bits(&into), bits(&oracle), "{}: decompress_into", c.name());
        }
    }
}

/// Flip the first declared sub-stream length in a v2 ZFP header so the
/// lengths no longer sum to the payload size.
#[test]
fn zfp_forged_substream_lengths_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let zfp = ZfpCompressor;
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
    assert!(zfp.decompress(&stream, data.len()).is_err());
}

/// Inflate a declared per-segment outlier count in a v2 SZ header so the
/// outlier tables no longer match the trailing payload bytes.
#[test]
fn sz_forged_outlier_counts_are_a_typed_corrupt_stream() {
    let data = field(2048);
    let sz = SzCompressor;
    let valid = sz.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
    // Layout: preamble (10) + n (2048: a two-byte varint) + eb (8) +
    // orders (1) + per-stream varint counts.
    let mut end = 21;
    let c0 = read_varint(&valid, &mut end, u64::MAX, "count").unwrap();
    let mut stream = valid[..21].to_vec();
    write_varint(&mut stream, c0 + 1);
    stream.extend_from_slice(&valid[end..]);
    let mut out = vec![0.0f32; data.len()];
    let mut sc = scratch::acquire();
    let err = sz.decompress_into(&stream, &mut out, &mut sc).unwrap_err();
    match err {
        CompressError::CorruptStream(msg) => {
            assert!(msg.contains("outlier table"), "unexpected message: {msg}")
        }
        other => panic!("expected CorruptStream, got {other:?}"),
    }
    assert!(sz.decompress(&stream, data.len()).is_err());
}

/// Truncating the payload (without touching the header) must also be
/// rejected by the strict length-sum check, for both backends.
#[test]
fn v2_truncated_payloads_are_rejected() {
    let data = field(4096);
    let bound = ErrorBound::abs_linf(1e-3);
    for c in [&SzCompressor as &dyn Compressor, &ZfpCompressor] {
        let stream = c.compress(&data, &bound).unwrap();
        let cut = &stream[..stream.len() - 3];
        assert!(
            matches!(
                c.decompress(cut, data.len()),
                Err(CompressError::CorruptStream(_))
            ),
            "{}: truncated v2 stream must be CorruptStream",
            c.name()
        );
    }
}
