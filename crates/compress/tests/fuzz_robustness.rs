//! Robustness: decompressing arbitrary bytes must return an error (or a
//! harmless value) — never panic, never allocate unboundedly.  These are
//! deterministic pseudo-fuzz sweeps over random buffers and mutated valid
//! streams.  Every decoder checks the container magic first, so random
//! bytes alone stop there; the sweeps that put random bodies behind a
//! valid preamble, and the ones that mutate valid streams, reach the
//! parsers behind it.  Every decode is asked for a value count, as every
//! caller asks: wherever a stream reaches a backend's fast decoder, it must
//! accept exactly when the oracle in `errflow_compress::reference` accepts
//! and decodes that many values, and then decode to the same bits.

use errflow_compress::bitstream::BitWriter;
use errflow_compress::chunked::{ChunkedCompressor, CONTAINER_TAG};
use errflow_compress::format::{write_preamble, BackendTag, V2_STREAMS};
use errflow_compress::traits::{read_varint, write_varint};
use errflow_compress::{
    all_backends, reference, scratch, CodecScratch, CompressError, Compressor, ErrorBound,
    MgardCompressor, SzCompressor, ZfpCompressor,
};
use errflow_tensor::rng::StdRng;

/// Every decoder under test, by the key [`oracle`] reads its streams
/// under: a backend's [`Compressor::name`], or `chunked-` and the name for
/// the backend inside a [`ChunkedCompressor`].
fn codecs() -> Vec<(Box<dyn Compressor>, &'static str)> {
    let mut all: Vec<(Box<dyn Compressor>, &'static str)> = all_backends()
        .into_iter()
        .map(|c| {
            let name = c.name();
            (c, name)
        })
        .collect();
    all.push((Box::new(ChunkedCompressor::new(SzCompressor)), "chunked-sz"));
    all.push((
        Box::new(ChunkedCompressor::new(ZfpCompressor)),
        "chunked-zfp",
    ));
    all.push((
        Box::new(ChunkedCompressor::new(MgardCompressor)),
        "chunked-mgard",
    ));
    all
}

/// The oracle for the decoder under `key`.
fn oracle(key: &str, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    match key.strip_prefix("chunked-") {
        Some(backend) => reference::chunked_decompress(backend, stream),
        None => reference::decompress(key, stream),
    }
}

/// The container tag each backend writes, by [`Compressor::name`].
fn tag_of(backend: &str) -> BackendTag {
    match backend {
        "sz" => BackendTag::Sz,
        "zfp" => BackendTag::Zfp,
        "mgard" => BackendTag::Mgard,
        other => panic!("no container tag for {other}"),
    }
}

/// Decodes `stream` to the caller's `n` values with `c` and checks it
/// against the oracle for `key`: `c` must accept exactly when the oracle
/// accepts and decodes `n` values, and then agree with it on every value,
/// through `decompress` and through `decompress_into` on pooled scratch.
/// Returns the values.
fn assert_oracle_parity(
    c: &dyn Compressor,
    key: &str,
    stream: &[u8],
    n: usize,
    what: &str,
) -> Option<Vec<f32>> {
    let fast = c.decompress(stream, n);
    let slow = oracle(key, stream).and_then(|v| {
        if v.len() == n {
            Ok(v)
        } else {
            Err(CompressError::CorruptStream(format!(
                "{} values where the caller expects {n}",
                v.len()
            )))
        }
    });
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert!(
                bits(&fast) == bits(&slow),
                "{key}: decoders disagree on {what}"
            );
            let mut into = vec![f32::NAN; n];
            let got = c.decompress_into(stream, &mut into, &mut scratch::acquire());
            assert!(got.is_ok(), "{key}: decompress_into rejects {what}");
            assert!(
                bits(&into) == bits(&slow),
                "{key}: decompress_into on {what}"
            );
            Some(fast)
        }
        (Err(_), Err(_)) => None,
        (fast, slow) => panic!(
            "{key}: fast decoder {} but the oracle {} on {what}",
            fast.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
            slow.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
        ),
    }
}

/// [`assert_oracle_parity`] for a caller who expects the count the oracle
/// decodes `stream` to (none when it refuses the stream), and for one who
/// expects a value more.
fn assert_parity_at_its_own_count(c: &dyn Compressor, key: &str, stream: &[u8], what: &str) {
    let n = oracle(key, stream).map_or(0, |v| v.len());
    assert_oracle_parity(c, key, stream, n, what);
    assert_oracle_parity(c, key, stream, n + 1, what);
}

fn is_corrupt<T>(result: Result<T, CompressError>) -> bool {
    matches!(result, Err(CompressError::CorruptStream(_)))
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xf22);
    for (c, _) in codecs() {
        for len in [0usize, 1, 7, 8, 16, 24, 64, 256, 4096] {
            for _ in 0..20 {
                let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                // Any Result is fine; panics/OOM are the failure mode.
                let _ = c.decompress(&buf, len);
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
                    // Half the bodies open with a small element count, so
                    // that the parsers behind it are reached too.
                    if rng.next_f64() < 0.5 {
                        buf.push(rng.gen_range(0u8..128));
                    }
                    buf.extend((0..len).map(|_| rng.gen::<u8>()));
                    let what = format!("a {len}-byte body behind {n_streams} sub-streams");
                    assert_parity_at_its_own_count(c.as_ref(), c.name(), &buf, &what);
                }
            }
        }
    }
}

#[test]
fn huge_declared_counts_do_not_allocate() {
    // A header declaring 2^60 values with a 16-byte body must error fast,
    // behind a valid preamble where the codec has one.
    for (c, key) in codecs() {
        let mut buf = Vec::new();
        match key.strip_prefix("chunked-") {
            Some(_) => buf.push(CONTAINER_TAG),
            None => write_preamble(&mut buf, tag_of(key), V2_STREAMS),
        }
        write_varint(&mut buf, 1 << 60);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(c.decompress(&buf, 16).is_err(), "{key}");
        assert!(oracle(key, &buf).is_err(), "{key}");
    }
}

/// Every container's element count — the `u64` after ZFP's preamble, the
/// first varint of the others — set to anything but the caller's count,
/// and an honest stream asked for another count: every decoder refuses
/// with a typed error, before any work sized by the declared count, as the
/// oracle does.
#[test]
fn element_counts_other_than_the_callers_are_refused() {
    let data: Vec<f32> = (0..1500).map(|i| (i as f32 * 0.01).sin()).collect();
    let n = data.len();
    let bound = ErrorBound::abs_linf(1e-4);
    for (c, key) in codecs() {
        let stream = c.compress(&data, &bound).unwrap();
        let counts = [0, n - 1, n + 1, 2 * n, u32::MAX as usize, usize::MAX];
        for w in counts.map(|w| w as u64) {
            let mutant = match key {
                "zfp" => [&stream[..10], &w.to_le_bytes(), &stream[18..]].concat(),
                _ if key.starts_with("chunked-") => splice(&stream, 1, &varint(w)),
                _ => splice(&stream, 10, &varint(w)),
            };
            let what = format!("a declared count of {w}");
            assert!(is_corrupt(c.decompress(&mutant, n)), "{key}: {what}");
            assert!(assert_oracle_parity(c.as_ref(), key, &mutant, n, &what).is_none());
        }
        for m in [0, 1, n - 1, n + 1] {
            let what = format!("the honest stream asked for {m} values");
            assert!(is_corrupt(c.decompress(&stream, m)), "{key}: {what}");
            let mut out = vec![0.0f32; m];
            let mut fresh = CodecScratch::default();
            let into = c.decompress_into(&stream, &mut out, &mut fresh);
            assert!(is_corrupt(into), "{key}: {what}, decompress_into");
            assert!(assert_oracle_parity(c.as_ref(), key, &stream, m, &what).is_none());
        }
        assert!(assert_oracle_parity(c.as_ref(), key, &stream, n, "the honest count").is_some());
    }
}

#[test]
fn bit_flips_in_valid_streams_agree_with_the_oracle() {
    let data: Vec<f32> = (0..2048).map(|i| ((i as f32) * 0.01).sin() * 2.0).collect();
    let mut rng = StdRng::seed_from_u64(99);
    for bound in [1e-1, 1e-3, 1e-6].map(ErrorBound::abs_linf) {
        for (c, key) in codecs() {
            let stream = c.compress(&data, &bound).unwrap();
            for _ in 0..200 {
                let mut mutated = stream.clone();
                let idx = rng.gen_range(0..mutated.len());
                mutated[idx] ^= 1 << rng.gen_range(0..8u8);
                // Either an error or a (wrong) reconstruction — never a
                // panic, and the same verdict and values as the oracle.
                let what = format!("a flip in byte {idx} under {bound:?}");
                assert_oracle_parity(c.as_ref(), key, &mutated, data.len(), &what);
            }
        }
    }
}

/// The SZ header's predictor-order byte (two bits per segment, at byte 20
/// behind a two-byte element count) under every one of its 256 values, on streams whose segments chose each
/// order: the fast decoders and the oracle must accept and reject alike and
/// agree on every value.  Only fields of 1–3 for all four segments are
/// well-formed, and the honest byte must round-trip.
#[test]
fn every_predictor_order_byte_agrees_with_the_oracle() {
    const ORDERS_AT: usize = 20;
    let sz = SzCompressor;
    let chunked = ChunkedCompressor::new(SzCompressor).with_chunk_values(4 * 700);
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
        assert_oracle_parity(&sz, "sz", &mutated, n, &what);
        let well_formed = (0..4).all(|s| (byte >> (2 * s)) & 3 != 0);
        assert_eq!(sz.decompress(&mutated, n).is_ok(), well_formed, "{what}");
        let contained = ChunkedCompressor::new(SzCompressor)
            .with_chunk_values(n)
            .compress(&data, &bound)
            .unwrap();
        let mut mutated_in = contained.clone();
        mutated_in[contained.len() - stream.len() + ORDERS_AT] = byte;
        assert_oracle_parity(&chunked, "chunked-sz", &mutated_in, n, &what);
        if byte == honest {
            assert!(bound.verify(&data, &sz.decompress(&mutated, n).unwrap()));
        }
    }
    // A field past the last segment must be clear: a one-segment stream
    // reads its order from the low two bits alone.
    let mut one = Vec::new();
    write_preamble(&mut one, BackendTag::Sz, 1);
    write_varint(&mut one, 0);
    one.extend_from_slice(&1e-3f64.to_le_bytes());
    let at = one.len();
    one.push(0);
    write_varint(&mut one, 0);
    errflow_compress::huffman::encode_multi_into(&[], 1, &mut one);
    for byte in 0..=u8::MAX {
        one[at] = byte;
        let what = format!("one-segment order byte {byte:#04x}");
        assert_oracle_parity(&sz, "sz", &one, 0, &what);
        assert_eq!(
            sz.decompress(&one, 0).is_ok(),
            matches!(byte, 1..=3),
            "{what}"
        );
    }
}

/// Forged ZFP headers can declare coefficients far past anything the
/// encoder writes (`width + cut` up to 90).  Lifted, those leave the exact
/// range of the AVX2 decode round's `i64 → f64` conversion, so such rounds
/// must go to the scalar path: the fast decoder matches the oracle bit for
/// bit at the `width + cut = 48` edge of its vector path and beyond it.
#[test]
fn forged_zfp_coefficient_ranges_decode_like_the_oracle() {
    let zfp = ZfpCompressor;
    let mut rng = StdRng::seed_from_u64(0x2F3);
    let blocks = 64;
    for (cut, width) in [(21u32, 27u32), (22, 27), (30, 20), (40, 8), (63, 27)] {
        let payloads: Vec<Vec<u8>> = (0..V2_STREAMS)
            .map(|_| {
                let mut w = BitWriter::default();
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
        let n = V2_STREAMS * blocks * 4;
        assert!(zfp.decompress(&stream, n).is_ok(), "{what}: well framed");
        assert_oracle_parity(&zfp, "zfp", &stream, n, &what);
    }
}

#[test]
fn truncations_of_valid_streams_never_panic() {
    let data: Vec<f32> = (0..1024).map(|i| (i as f32).cos()).collect();
    let bound = ErrorBound::abs_linf(1e-4);
    for (c, _) in codecs() {
        let stream = c.compress(&data, &bound).unwrap();
        for cut in 0..stream.len().min(200) {
            let _ = c.decompress(&stream[..cut], data.len());
        }
        // Also a coarse sweep across the whole stream.
        let step = (stream.len() / 50).max(1);
        for cut in (0..stream.len()).step_by(step) {
            let _ = c.decompress(&stream[..cut], data.len());
        }
    }
}

/// One varint field of a stream: its name and where it starts.
struct Field {
    name: &'static str,
    at: usize,
}

/// The varint fields of `stream`, the encoding of a `key` codec (see
/// [`codecs`]), restated from the layouts in `errflow_compress::{sz,
/// mgard, huffman, chunked}`: element counts, outlier counts, run counts
/// and lengths, code-table sizes and symbol gaps, payload and chunk
/// lengths.
fn varint_fields(key: &str, stream: &[u8]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut pos;
    let mut field = |name, pos: &mut usize| {
        fields.push(Field { name, at: *pos });
        read_varint(stream, pos, u64::MAX, name).unwrap()
    };
    if let Some(backend) = key.strip_prefix("chunked-") {
        pos = 1;
        let n = field("element count", &mut pos);
        let chunk_values = field("chunk size", &mut pos);
        for _ in 1..n.div_ceil(chunk_values) {
            field("chunk length", &mut pos);
        }
        // The chunks' own fields, where the last (or only) chunk starts.
        let mut inner = varint_fields(backend, &stream[stream.len() - last_chunk(stream)..]);
        let start = stream.len() - last_chunk(stream);
        for f in &mut inner {
            f.at += start;
        }
        fields.extend(inner);
        return fields;
    }
    if key == "zfp" {
        return fields;
    }
    let n_streams = usize::from(stream[9]);
    pos = 10;
    let n = field("element count", &mut pos) as usize;
    pos += 8;
    let n_symbols = if key == "sz" {
        pos += n_streams.div_ceil(4);
        for _ in 0..n_streams {
            field("outlier count", &mut pos);
        }
        n
    } else {
        let mut lens = vec![n];
        while lens[lens.len() - 1] > 3 && lens.len() < 24 {
            lens.push(lens[lens.len() - 1].div_ceil(2));
        }
        pos += 4 * lens[lens.len() - 1];
        lens[..lens.len() - 1].iter().map(|&len| len / 2).sum()
    };
    if n_symbols == 0 || stream[pos] == 2 {
        return fields;
    }
    let flag = stream[pos];
    pos += 1;
    let runs = flag & 3 == 1;
    if runs {
        for _ in 0..n_streams {
            for _ in 0..field("run count", &mut pos) {
                field("run length", &mut pos);
            }
        }
    }
    let n_distinct = field("code table size", &mut pos) as usize;
    for _ in 0..n_distinct - usize::from(runs) {
        field("symbol gap", &mut pos);
    }
    pos += (n_distinct * (4 + usize::from(flag >> 2))).div_ceil(8);
    for _ in 0..n_streams {
        field("payload length", &mut pos);
    }
    fields
}

/// Bytes of a chunked container's last chunk.
fn last_chunk(container: &[u8]) -> usize {
    let mut pos = 1;
    let mut next = || read_varint(container, &mut pos, u64::MAX, "field").unwrap();
    let (n, chunk_values) = (next(), next());
    let mut sum = 0;
    for _ in 1..n.div_ceil(chunk_values) {
        sum += next() as usize;
    }
    container.len() - pos - sum
}

/// `stream` with the varint at `at` replaced by the bytes `with`.
fn splice(stream: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut end = at;
    read_varint(stream, &mut end, u64::MAX, "field").unwrap();
    [&stream[..at], with, &stream[end..]].concat()
}

/// `v` as a varint.
fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, v);
    out
}

/// Every varint field of SZ, MGARD and chunked streams — with and without
/// runs, Huffman-coded and raw — truncated, overlong, zero, at the range
/// maximum and one off its value: every fast decoder and the oracle must
/// reject a mutant alike or decode it to the same values, and a truncated
/// or overlong field is refused everywhere.
#[test]
fn every_varint_field_mutated_agrees_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x7A21);
    let smooth: Vec<f32> = (0..1500).map(|i| (i as f32 * 0.004).sin()).collect();
    let noisy: Vec<f32> = (0..1500)
        .map(|i| (i as f32 * 0.02).sin() + rng.gen_range(-1e-3f32..1e-3))
        .collect();
    let mut cases = 0;
    for (c, key) in codecs() {
        let key: &str = key;
        if key.ends_with("zfp") && !key.starts_with("chunked") {
            continue;
        }
        let c = match key.strip_prefix("chunked-") {
            // Two chunks, so a chunk length is written.
            Some(_) => codec_with_chunks(key, 1000),
            None => c,
        };
        for (data, tol) in [(&smooth, 1e-2), (&noisy, 1e-4), (&noisy, 1e-7)] {
            let n = data.len();
            let stream = c.compress(data, &ErrorBound::abs_linf(tol)).unwrap();
            for f in varint_fields(key, &stream) {
                let mut end = f.at;
                let v = read_varint(&stream, &mut end, u64::MAX, f.name).unwrap();
                let what = |how: &str| format!("{} at {} {how} (tol {tol})", f.name, f.at);
                // Truncated inside the field (or right before it).
                for cut in f.at..end {
                    let mutant = &stream[..cut];
                    let got = assert_oracle_parity(c.as_ref(), key, mutant, n, &what("cut"));
                    assert!(got.is_none());
                }
                // Overlong: the same value with a zero byte more.
                let mut long = varint(v);
                *long.last_mut().unwrap() |= 0x80;
                long.push(0);
                let mutant = splice(&stream, f.at, &long);
                let got = assert_oracle_parity(c.as_ref(), key, &mutant, n, &what("overlong"));
                assert!(got.is_none(), "{}", what("overlong"));
                for w in [0, v.saturating_sub(1), v + 1, u64::from(u32::MAX), u64::MAX] {
                    let mutant = splice(&stream, f.at, &varint(w));
                    let what = what(&format!("= {w}"));
                    let got = assert_oracle_parity(c.as_ref(), key, &mutant, n, &what);
                    // An element count is the caller's (or, in a chunk, its
                    // share of the caller's), or the stream is refused.
                    if f.name == "element count" && w != v {
                        assert!(got.is_none(), "{what}");
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 1000, "{cases} mutants");
}

/// The codec under `key` with chunks of `chunk_values` values.
fn codec_with_chunks(key: &str, chunk_values: usize) -> Box<dyn Compressor> {
    match key {
        "chunked-sz" => {
            Box::new(ChunkedCompressor::new(SzCompressor).with_chunk_values(chunk_values))
        }
        "chunked-zfp" => {
            Box::new(ChunkedCompressor::new(ZfpCompressor).with_chunk_values(chunk_values))
        }
        _ => Box::new(ChunkedCompressor::new(MgardCompressor).with_chunk_values(chunk_values)),
    }
}

/// Where an SZ stream's code table lies: the block's flag byte, the
/// symbol-gap fields and the first byte of the packed lengths.
fn sz_table(stream: &[u8]) -> (usize, Vec<usize>, usize) {
    let fields = varint_fields("sz", stream);
    let end_of = |at: usize| {
        let mut end = at;
        read_varint(stream, &mut end, u64::MAX, "field").unwrap();
        end
    };
    let mut counts = fields.iter().filter(|f| f.name == "outlier count");
    let flag_at = end_of(counts.next_back().unwrap().at);
    let gaps: Vec<usize> = fields
        .iter()
        .filter(|f| f.name == "symbol gap")
        .map(|f| f.at)
        .collect();
    (flag_at, gaps.clone(), end_of(*gaps.last().unwrap()))
}

/// The SZ code table forged: a symbol gap that lands past the 16-bit
/// alphabet or past `u32`, which every decoder refuses; a zero length, the
/// longest a nibble holds, a length field wider than the longest code
/// needs, and lengths that break the Kraft inequality.  Every fast decoder
/// and the oracle must agree on each.
#[test]
fn forged_code_tables_agree_with_the_oracle() {
    let sz = SzCompressor;
    let chunked = ChunkedCompressor::new(SzCompressor);
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    let data: Vec<f32> = (0..1024)
        .map(|i| (i as f32 * 0.02).sin() + rng.gen_range(-1e-3f32..1e-3))
        .collect();
    let stream = sz.compress(&data, &ErrorBound::abs_linf(1.25e-4)).unwrap();
    let (flag_at, gaps, lengths_at) = sz_table(&stream);
    assert_eq!(stream[flag_at], 0, "a run-free block with nibble lengths");
    let n_distinct = gaps.len();
    let check = |mutant: &[u8], what: &str| {
        let got = assert_oracle_parity(&sz, "sz", mutant, data.len(), what);
        let mut container = vec![CONTAINER_TAG];
        write_varint(&mut container, data.len() as u64);
        write_varint(&mut container, 65_536);
        container.extend_from_slice(mutant);
        let contained = assert_oracle_parity(&chunked, "chunked-sz", &container, data.len(), what);
        assert_eq!(got.is_some(), contained.is_some(), "{what}: chunked");
        got
    };
    assert!(check(&stream, "the honest table").is_some());
    // Gaps: the escape's 0, the jump to the symbols near 32 768, and the
    // last; each pushed past 65 535 and past u32.
    for &at in [gaps[0], gaps[1], gaps[n_distinct - 1]].iter() {
        for w in [70_000u64, u64::from(u32::MAX), 1 << 32] {
            let mutant = splice(&stream, at, &varint(w));
            let got = check(&mutant, &format!("gap at {at} = {w}"));
            assert!(got.is_none(), "a symbol past 65 535 at {at}");
        }
    }
    // Lengths, a nibble each.
    let nibble = |mutant: &mut Vec<u8>, k: usize, len: u8| {
        let byte = &mut mutant[lengths_at + k / 2];
        let shift = 4 * (k % 2);
        *byte = (*byte & !(0xf << shift)) | len << shift;
    };
    for k in [0, n_distinct / 2, n_distinct - 1] {
        for len in [0u8, 1, 15] {
            let mut mutant = stream.clone();
            nibble(&mut mutant, k, len);
            let got = check(&mutant, &format!("length {k} = {len}"));
            if len == 0 {
                assert!(got.is_none(), "a zero length at {k}");
            }
        }
    }
    // Every length 1: a Kraft sum of n_distinct / 2.
    let mut mutant = stream.clone();
    for k in 0..n_distinct {
        nibble(&mut mutant, k, 1);
    }
    assert!(check(&mutant, "all lengths 1").is_none());
    // The same table under 5- and 6-bit length fields: wider than the
    // longest code needs, so refused, whatever the bytes read as.
    for width in [1u8, 2, 3] {
        let mut mutant = stream.clone();
        mutant[flag_at] = width << 2;
        let got = check(&mutant, &format!("width code {width}"));
        assert!(got.is_none(), "width code {width}");
    }
    // A padding bit past the last length.
    if n_distinct % 2 == 1 {
        let mut mutant = stream.clone();
        mutant[lengths_at + n_distinct / 2] |= 0x80;
        assert!(check(&mutant, "a padding bit").is_none());
    }
}

/// The chunked container's header: every tag byte but its own, the
/// retired fixed-width header, and chunk lengths one off — in every
/// chunked decoder and the oracle alike.
#[test]
fn forged_chunk_headers_agree_with_the_oracle() {
    let data: Vec<f32> = (0..2500).map(|i| (i as f32 * 0.01).cos()).collect();
    let bound = ErrorBound::abs_linf(1e-4);
    for key in ["chunked-sz", "chunked-zfp", "chunked-mgard"] {
        let c = codec_with_chunks(key, 1000);
        let stream = c.compress(&data, &bound).unwrap();
        assert_eq!(stream[0], CONTAINER_TAG);
        for tag in 0..=u8::MAX {
            let mut mutant = stream.clone();
            mutant[0] = tag;
            let what = format!("tag {tag}");
            let got = assert_oracle_parity(c.as_ref(), key, &mutant, data.len(), &what);
            assert_eq!(got.is_some(), tag == CONTAINER_TAG, "{key}: tag {tag}");
        }
        // The retired header: u64 count and size, u32 chunk count, u64
        // lengths, around today's chunks.
        let fields = varint_fields(key, &stream);
        let lens: Vec<usize> = {
            let mut pos = fields[2].at;
            let mut lens = Vec::new();
            for _ in 0..2 {
                lens.push(read_varint(&stream, &mut pos, u64::MAX, "len").unwrap() as usize);
            }
            let body = stream.len() - pos;
            lens.push(body - lens[0] - lens[1]);
            let mut retired = Vec::new();
            retired.extend_from_slice(&(data.len() as u64).to_le_bytes());
            retired.extend_from_slice(&1000u64.to_le_bytes());
            retired.extend_from_slice(&3u32.to_le_bytes());
            for &len in &lens {
                retired.extend_from_slice(&(len as u64).to_le_bytes());
            }
            retired.extend_from_slice(&stream[pos..]);
            let got =
                assert_oracle_parity(c.as_ref(), key, &retired, data.len(), "the retired header");
            assert!(got.is_none(), "{key}: the retired header");
            lens
        };
        // A chunk length one off moves bytes between chunks.
        for (k, f) in fields
            .iter()
            .filter(|f| f.name == "chunk length")
            .enumerate()
        {
            for len in [lens[k] - 1, lens[k] + 1] {
                let mutant = splice(&stream, f.at, &varint(len as u64));
                let what = format!("chunk {k} of {len} bytes");
                let got = assert_oracle_parity(c.as_ref(), key, &mutant, data.len(), &what);
                assert!(got.is_none());
            }
        }
    }
}
