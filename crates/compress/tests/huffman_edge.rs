//! Edge cases of the Huffman/RLE entropy stage that the fast decode paths
//! must get exactly right: run lengths straddling the RLE threshold, codes
//! longer than the prefix-table width, degenerate single-symbol streams,
//! forged run-free blocks, code tables that list a symbol past the `u16`
//! alphabet, the payload writer at every codes-per-store boundary, symbols
//! spread across the whole alphabet, and SZ segments at the edges of the
//! fused decode's chunks.
//!
//! Every case runs as a 1-segment and a 4-segment block and is decoded by
//! both the fast decoder and the slow oracle in
//! `errflow_compress::reference`, which must agree symbol for symbol.

use errflow_compress::huffman::{
    decode_multi_into, encode_multi_into, DecodeScratch, MIN_RUN, PEEK,
};
use errflow_compress::reference::{huffman_decode_multi, sz_decompress};
use errflow_compress::traits::{read_varint, write_varint};
use errflow_compress::{scratch, CompressError, Compressor, ErrorBound, SzCompressor};
use errflow_tensor::rng::StdRng;

/// Encodes `symbols` as an `n_streams`-segment block.
fn encode(symbols: &[u16], n_streams: usize) -> Vec<u8> {
    let mut out = Vec::new();
    encode_multi_into(symbols, n_streams, &mut out);
    out
}

/// The fast decoder on fresh scratch: the symbols and the bytes consumed.
fn decode_multi(
    stream: &[u8],
    n: usize,
    n_streams: usize,
) -> Result<(Vec<u16>, usize), CompressError> {
    let mut out = Vec::new();
    let consumed = decode_multi_into(
        stream,
        n,
        n_streams,
        &mut out,
        &mut DecodeScratch::default(),
    )?;
    Ok((out, consumed))
}

/// Round-trips through the fast decoder AND the oracle, asserting both
/// agree with the input.
fn roundtrip_both(symbols: &[u16]) {
    let n = symbols.len();
    for n_streams in [1, 4] {
        let stream = encode(symbols, n_streams);
        let (fast, consumed) = decode_multi(&stream, n, n_streams).expect("fast decode");
        assert_eq!(fast, symbols, "fast decoder mismatch");
        assert_eq!(consumed, stream.len());
        let (slow, ref_consumed) =
            huffman_decode_multi(&stream, n, n_streams).expect("oracle decode");
        assert_eq!(slow, symbols, "oracle mismatch");
        assert_eq!(ref_consumed, consumed);
    }
}

/// Both decoders must reject `stream` as a block of `n` symbols in one
/// segment (never panic, never allocate per a forged count).
fn assert_both_reject(stream: &[u8], n: usize, what: &str) {
    assert!(decode_multi(stream, n, 1).is_err(), "fast decoder: {what}");
    assert!(
        huffman_decode_multi(stream, n, 1).is_err(),
        "oracle: {what}"
    );
}

/// A 1-segment Huffman block taken apart along the layout in
/// `errflow_compress::huffman::encode_multi_with`: where each field starts,
/// and the code table.
struct Fields {
    flag: u8,
    n_distinct_at: usize,
    /// The explicit symbols, ascending, and every code length.
    symbols: Vec<u32>,
    lengths: Vec<u8>,
    lengths_at: usize,
    payload_len_at: usize,
}

fn fields(stream: &[u8]) -> Fields {
    let varint = |pos: &mut usize| read_varint(stream, pos, u64::MAX, "field").unwrap();
    let flag = stream[0];
    let runs = flag & 3 == 1;
    let mut pos = 1;
    if runs {
        for _ in 0..varint(&mut pos) {
            varint(&mut pos);
        }
    }
    let n_distinct_at = pos;
    let n_distinct = varint(&mut pos) as usize;
    let mut symbols = Vec::new();
    let mut next = 0u64;
    for _ in 0..n_distinct - usize::from(runs) {
        let sym = next + varint(&mut pos);
        symbols.push(sym as u32);
        next = sym + 1;
    }
    let width = 4 + usize::from(flag >> 2);
    let lengths = (0..n_distinct)
        .map(|i| {
            let bit = i * width;
            let pair = u32::from(stream[pos + bit / 8]) | u32::from(stream[pos + bit / 8 + 1]) << 8;
            ((pair >> (bit % 8)) & ((1 << width) - 1)) as u8
        })
        .collect();
    Fields {
        flag,
        n_distinct_at,
        symbols,
        lengths,
        lengths_at: pos,
        payload_len_at: pos + (n_distinct * width).div_ceil(8),
    }
}

/// `stream` with the varint at `at` replaced by `v`.
fn with_varint(stream: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut end = at;
    read_varint(stream, &mut end, u64::MAX, "field").unwrap();
    let mut forged = stream[..at].to_vec();
    write_varint(&mut forged, v);
    forged.extend_from_slice(&stream[end..]);
    forged
}

#[test]
fn runs_at_and_adjacent_to_min_run() {
    // Runs of length MIN_RUN−1 stay literal; MIN_RUN and MIN_RUN+1 collapse.
    for run_len in [MIN_RUN - 1, MIN_RUN, MIN_RUN + 1] {
        let mut symbols = vec![1u16, 2, 3];
        symbols.extend(std::iter::repeat(7u16).take(run_len));
        symbols.extend_from_slice(&[4, 5, 6]);
        roundtrip_both(&symbols);
    }
}

#[test]
fn run_at_stream_start_and_end() {
    let mut head_run = vec![9u16; MIN_RUN + 5];
    head_run.extend_from_slice(&[1, 2, 3]);
    roundtrip_both(&head_run);

    let mut tail_run = vec![1u16, 2, 3];
    tail_run.extend(std::iter::repeat(9u16).take(MIN_RUN + 5));
    roundtrip_both(&tail_run);

    // Entire stream is one run.
    roundtrip_both(&vec![3u16; MIN_RUN * 4]);
}

#[test]
fn back_to_back_runs_of_different_symbols() {
    let mut symbols = Vec::new();
    for s in 0..6u16 {
        symbols.extend(std::iter::repeat(s).take(MIN_RUN + s as usize));
    }
    roundtrip_both(&symbols);
}

/// The longest code length in a 1-segment block's code table.
fn longest_code(stream: &[u8]) -> u8 {
    assert_eq!(stream[0] & 3, 0, "expected a run-free block");
    fields(stream).lengths.into_iter().max().unwrap()
}

/// `copies[i]` copies of symbol `100 + i`, shuffled so that no run forms.
fn shuffled(copies: &[usize], seed: u64) -> Vec<u16> {
    let mut symbols: Vec<u16> = copies
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat(100 + i as u16).take(c))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..symbols.len()).rev() {
        let j = rng.gen_range(0..(i + 1) as u64) as usize;
        symbols.swap(i, j);
    }
    symbols
}

#[test]
fn codes_longer_than_peek_table_width() {
    // A steeply skewed distribution over many symbols forces code lengths
    // past the PEEK-bit first-level table, so long codes decode through
    // the second level inside the fast word-batched decoder; a block
    // whose longest code is past the second level too (28 bits, the
    // Fibonacci case below) takes the canonical walk.
    let mut symbols = Vec::new();
    for s in 0..200u16 {
        // Geometric-ish frequencies: symbol s appears ~2^(s/8)-fold less.
        let copies = (1usize << (12 - (s as usize / 16).min(12))).max(1);
        symbols.extend(std::iter::repeat(s).take(copies));
    }
    // Deterministic shuffle so long-code symbols interleave with short.
    let mut rng = StdRng::seed_from_u64(99);
    for i in (1..symbols.len()).rev() {
        let j = rng.gen_range(0..(i + 1) as u64) as usize;
        symbols.swap(i, j);
    }
    let stream = encode(&symbols, 1);
    // Sanity: the code table really does exceed the PEEK width.  The
    // shuffle leaves no collapsible runs.
    let table = fields(&stream);
    assert_eq!(
        table.flag & 3,
        0,
        "skewed input must take the run-free mode"
    );
    let n_codes = table.lengths.len();
    assert!(n_codes >= 200, "expected a wide alphabet, got {n_codes}");
    let max_len = table.lengths.into_iter().max().unwrap();
    assert!(
        u32::from(max_len) > PEEK,
        "distribution failed to force a code past {PEEK} bits (max {max_len})"
    );
    roundtrip_both(&symbols);
}

#[test]
fn payload_writer_at_every_codes_per_store_boundary() {
    // Fibonacci frequencies over `L + 1` symbols give a longest code of
    // exactly `L` bits.  The writer packs ⌊56 / L⌋ codes (one to four) per
    // 64-bit store, so these lengths sit on both sides of each change
    // (4 → 3 past 14 bits, 3 → 2 past 18, 2 → 1 past 28: 2.2 Mi symbols).
    for longest in [14usize, 15, 18, 19, 20, 28, 29] {
        let mut copies = vec![1usize, 1];
        while copies.len() < longest + 1 {
            let next = copies[copies.len() - 1] + copies[copies.len() - 2];
            copies.push(next);
        }
        let symbols = shuffled(&copies, longest as u64);
        assert_eq!(
            usize::from(longest_code(&encode(&symbols, 1))),
            longest,
            "Fibonacci frequencies must give a {longest}-bit code"
        );
        roundtrip_both(&symbols);
    }
}

#[test]
fn symbols_across_the_whole_alphabet() {
    // SZ's shape: the escape 0, a cluster near 32 768 and an outlier near
    // 65 535, with and without runs (whose marker takes the slot past the
    // alphabet), and then the alphabet's last symbol, alone and in a run.
    let mut rng = StdRng::seed_from_u64(0x5A);
    let mut sparse: Vec<u16> = (0..5000)
        .map(|_| 32_768 + rng.gen_range(0u16..40) - 20)
        .collect();
    sparse[0] = 0;
    sparse[2500] = 65_530;
    sparse[4999] = 0;
    roundtrip_both(&sparse);
    let mut with_runs = sparse.clone();
    with_runs.splice(1000..1000, std::iter::repeat(32_768).take(3 * MIN_RUN));
    roundtrip_both(&with_runs);
    let mut last = sparse.clone();
    last[3] = u16::MAX;
    roundtrip_both(&last);
    last.splice(2000..2000, std::iter::repeat_n(u16::MAX, 3 * MIN_RUN));
    roundtrip_both(&last);
}

/// `stream`, a 1-segment Huffman block of a few distinct symbols, with
/// the last symbol its code table lists explicitly moved to `to`.
fn with_last_symbol(stream: &[u8], to: u64) -> Vec<u8> {
    let table = fields(stream);
    let mut forged = stream[..table.n_distinct_at + 1].to_vec();
    let last = table.symbols.len() - 1;
    for (k, &sym) in table.symbols.iter().enumerate() {
        let prev = if k == 0 { 0 } else { table.symbols[k - 1] + 1 };
        let sym = if k == last { to } else { u64::from(sym) };
        write_varint(&mut forged, sym - u64::from(prev));
    }
    forged.extend_from_slice(&stream[table.lengths_at..]);
    forged
}

#[test]
fn code_tables_past_the_alphabet_are_refused_by_both_decoders() {
    // A run-free block (kind 0) and one with runs (kind 1), whose implied
    // run marker follows the explicit symbols.
    let run_free = [1u16, 2, 3, 2, 1, 2, 3].repeat(10);
    let mut with_runs = vec![7u16; MIN_RUN * 2];
    with_runs.extend([1, 2, 3].repeat(20));
    for (symbols, kind) in [(run_free, 0), (with_runs, 1)] {
        let n = symbols.len();
        let valid = encode(&symbols, 1);
        assert_eq!(valid[0] & 3, kind, "block kind");
        // The alphabet's last symbol is a symbol like any other...
        let last = with_last_symbol(&valid, u64::from(u16::MAX));
        let fast = decode_multi(&last, n, 1).unwrap();
        assert_eq!(fast, huffman_decode_multi(&last, n, 1).unwrap());
        assert!(fast.0.contains(&u16::MAX), "kind {kind}");
        // ...and one past it is refused, for the same reason, by both.
        for past in [1u64 << 16, (1 << 16) + 1, u64::from(u32::MAX), 1 << 40] {
            let forged = with_last_symbol(&valid, past);
            let verdicts = [
                decode_multi(&forged, n, 1).map(|_| ()),
                huffman_decode_multi(&forged, n, 1).map(|_| ()),
            ];
            for verdict in verdicts {
                match verdict {
                    Err(CompressError::CorruptStream(why)) => {
                        assert_eq!(why, "code table: symbol past the alphabet", "kind {kind}")
                    }
                    other => panic!("kind {kind}, symbol {past}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn forged_run_free_blocks_are_rejected_by_both_decoders() {
    // A run-free block holds no run section: flagged as a block of runs,
    // its table is read as run counts, and both decoders must refuse it;
    // so must a block of runs whose every count is zero.
    let symbols = [1u16, 2, 3, 2, 1, 2, 3].repeat(10);
    let n = symbols.len();
    let valid = encode(&symbols, 1);
    assert_eq!(valid[0] & 3, 0, "expected a run-free Huffman block");
    roundtrip_both(&symbols);
    let mut forged = valid.clone();
    forged[0] |= 1;
    assert_both_reject(&forged, n, "a run-free block flagged as one of runs");
    let mut forged = vec![valid[0] | 1, 0];
    forged.extend_from_slice(&valid[1..]);
    assert_both_reject(&forged, n, "a block of runs that declares none");

    // Every truncation of a 4-segment run-free block.
    let valid = encode(&symbols, 4);
    for cut in 0..valid.len() {
        assert!(decode_multi(&valid[..cut], n, 4).is_err());
        assert!(huffman_decode_multi(&valid[..cut], n, 4).is_err());
    }
}

#[test]
fn sz_segments_at_the_fused_decode_chunk_edges() {
    // The fused decode hands SZ's reconstruction 1 Ki symbols per segment
    // at a time.  Segments of 1, 1 Ki − 1, 1 Ki and 1 Ki + 1 values (and
    // 2 Ki + 1: two whole chunks and one symbol), with an escape as the
    // first and the last symbol of a chunk, must decode through it exactly
    // as the oracle does.
    const CHUNK: usize = 1024;
    let sz = SzCompressor;
    let bound = ErrorBound::abs_linf(1e-4);
    let mut rng = StdRng::seed_from_u64(0xD3);
    for seg in [1usize, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
        for extra in [0usize, 3] {
            let n = 4 * seg + extra;
            // Noise ten times the bound keeps the symbols from repeating,
            // so the block is run-free and takes the fused decode.
            let mut data: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.01).sin() + rng.gen_range(-1e-3f32..1e-3))
                .collect();
            for at in [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, n - 1] {
                if at < n {
                    data[at] = 1e30;
                }
            }
            let stream = sz.compress(&data, &bound).unwrap();
            // The symbol block follows the preamble, n, eb, the order byte
            // and four outlier counts; its flag says it holds no runs
            // (a Huffman or a raw block).
            let mut pos = 10;
            read_varint(&stream, &mut pos, u64::MAX, "n").unwrap();
            pos += 9;
            for _ in 0..4 {
                read_varint(&stream, &mut pos, u64::MAX, "outliers").unwrap();
            }
            assert_ne!(stream[pos] & 3, 1, "runs, n = {n}");
            let oracle = sz_decompress(&stream).unwrap();
            let pooled = sz.decompress(&stream, n).unwrap();
            let mut fused = vec![0.0f32; n];
            sz.decompress_into(&stream, &mut fused, &mut scratch::acquire())
                .unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pooled), bits(&oracle), "decompress, n = {n}");
            assert_eq!(bits(&fused), bits(&oracle), "fused, n = {n}");
            assert!(bound.verify(&data, &fused), "bound, n = {n}");
        }
    }
}

#[test]
fn single_symbol_streams() {
    // One distinct symbol: the canonical code is a single 1-bit code.
    roundtrip_both(&[42u16]);
    roundtrip_both(&vec![42u16; 5]);
    roundtrip_both(&vec![42u16; MIN_RUN]); // also collapses to one run
    roundtrip_both(&[u16::MAX]); // the alphabet's last symbol alone
}

#[test]
fn empty_stream() {
    roundtrip_both(&[]);
}

#[test]
fn complete_kraft_table_at_the_longest_code_does_not_panic() {
    // A crafted table with lengths 1..=63 plus a second 63-bit code (the
    // longest a 6-bit length field holds): the Kraft sum is exactly 2^63,
    // so the final canonical code is the all-ones 63-bit value.  Accepting
    // or rejecting the stream are both fine; panicking is not, and neither
    // is the two decoders disagreeing.
    let block = |payload: &[u8]| {
        let mut s = vec![2 << 2]; // flag: run-free, 6-bit lengths
        write_varint(&mut s, 64); // n_distinct
        s.extend([0; 64]); // symbols 0, 1, …, 63: gaps of zero
        let lengths: Vec<u64> = (1..=63).chain([63]).collect();
        let mut acc = 0u128;
        for (i, &len) in lengths.iter().enumerate() {
            acc |= u128::from(len) << (6 * (i % 16));
            if i % 16 == 15 {
                s.extend_from_slice(&acc.to_le_bytes()[..12]);
                acc = 0;
            }
        }
        write_varint(&mut s, payload.len() as u64);
        s.extend_from_slice(payload);
        s
    };
    // One 0 bit decodes symbol 0; 63 one-bits walk all the way down to the
    // all-ones code.
    for payload in [&[0x00u8][..], &[0xff; 8]] {
        let s = block(payload);
        assert_eq!(
            decode_multi(&s, 1, 1).ok(),
            huffman_decode_multi(&s, 1, 1).ok(),
            "decoders disagree on the crafted table"
        );
    }
    assert!(decode_multi(&block(&[0]), 1, 1).is_ok());
}

#[test]
fn forged_header_lengths_are_rejected_not_trusted() {
    // Build one valid 1-segment Huffman block, then corrupt each header
    // length field to a value the stream cannot hold; every variant must
    // return an error (never panic, never allocate per the forged count).
    // Long enough that the encoder does not fall back to raw 16-bit
    // symbols, and without a run long enough to collapse.
    let symbols = [1u16, 2, 3, 2, 1, 2, 3].repeat(10);
    let n = symbols.len();
    let valid = encode(&symbols, 1);
    assert_eq!(valid[0] & 3, 0, "expected a run-free Huffman block");
    let table = fields(&valid);

    // n_distinct forged huge: past what the rest of the stream can list.
    for huge in [u64::from(u32::MAX), u64::MAX] {
        let forged = with_varint(&valid, table.n_distinct_at, huge);
        assert_both_reject(&forged, n, "forged n_distinct must be rejected");
    }
    // payload_len forged past the end of the stream.
    let forged = with_varint(&valid, table.payload_len_at, u64::MAX);
    assert_both_reject(&forged, n, "forged payload_len must be rejected");
    // A symbol count the payload cannot hold.
    assert_both_reject(
        &valid,
        8 * valid.len() + 1,
        "a count past the payload's bits",
    );

    // n_runs forged huge, and a run length forged to u32::MAX, which must
    // fail the length accounting before anything is materialised for it.
    let mut runs = vec![7u16; MIN_RUN * 2];
    runs.extend([1, 2, 3].repeat(20));
    let with_runs = encode(&runs, 1);
    assert_eq!(with_runs[0] & 3, 1, "expected runs");
    assert_eq!(with_runs[1], 1, "expected one run");
    let forged = with_varint(&with_runs, 1, u64::from(u32::MAX));
    assert_both_reject(&forged, runs.len(), "forged n_runs must be rejected");
    let forged = with_varint(&with_runs, 2, u64::from(u32::MAX));
    assert_both_reject(&forged, runs.len(), "forged run length must be rejected");
    let forged = with_varint(&with_runs, 2, u64::from(u32::MAX) + 1);
    assert_both_reject(&forged, runs.len(), "a run length past u32");

    // Unknown payload kinds, length widths and flag bits.
    for bad in [3u8, 0x0c, 0x0d, 0x10, 0x80, 0x06] {
        let mut forged = valid.clone();
        forged[0] = bad;
        assert_both_reject(&forged, n, "forged flag byte must be rejected");
    }
    // A segment count outside 1..=16.
    for n_streams in [0, 17] {
        assert!(decode_multi(&valid, n, n_streams).is_err());
        assert!(huffman_decode_multi(&valid, n, n_streams).is_err());
    }
}

#[test]
fn truncated_streams_error_cleanly() {
    // The short input is stored as raw 16-bit symbols, the long one as a
    // Huffman block.
    for symbols in [
        vec![9u16, 9, 9, 9, 8, 7, 6, 5],
        [9u16, 9, 9, 9, 8, 7, 6, 5].repeat(12),
    ] {
        for n_streams in [1, 4] {
            let valid = encode(&symbols, n_streams);
            for cut in 0..valid.len() {
                // Every prefix must produce Err, not a panic or a bogus Ok.
                let (n, cut) = (symbols.len(), &valid[..cut]);
                assert!(
                    decode_multi(cut, n, n_streams).is_err(),
                    "fast: {n_streams}"
                );
                assert!(huffman_decode_multi(cut, n, n_streams).is_err(), "oracle");
            }
        }
    }
}
