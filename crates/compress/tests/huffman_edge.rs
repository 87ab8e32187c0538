//! Edge cases of the Huffman/RLE entropy stage that the fast decode paths
//! must get exactly right: run lengths straddling the RLE threshold,
//! payloads that *contain* the run-marker sentinel as data, codes longer
//! than the prefix-table width, degenerate single-symbol streams, forged
//! run-free blocks, the payload writer at every codes-per-store boundary,
//! symbol windows as wide as the dense histogram takes, and SZ segments at
//! the edges of the fused decode's chunks.
//!
//! Every case runs as a 1-segment and a 4-segment block and is decoded by
//! both the fast decoder and the slow oracle in
//! `errflow_compress::reference`, which must agree symbol for symbol.

use errflow_compress::format::split_slices;
use errflow_compress::huffman::{decode_multi, encode_multi, MIN_RUN, PEEK, RUN_MARKER};
use errflow_compress::reference::{huffman_decode_multi, sz_decompress};
use errflow_compress::{scratch, Compressor, ErrorBound, SzCompressor};
use errflow_tensor::rng::StdRng;

/// Encodes `symbols` as an `n_streams`-segment block.
fn encode(symbols: &[u32], n_streams: usize) -> Vec<u8> {
    encode_multi(&split_slices(symbols, n_streams))
}

/// Round-trips through the fast decoder AND the oracle, asserting both
/// agree with the input.
fn roundtrip_both(symbols: &[u32]) {
    for n_streams in [1, 4] {
        let stream = encode(symbols, n_streams);
        let (fast, consumed) = decode_multi(&stream).expect("fast decode");
        assert_eq!(fast, symbols, "fast decoder mismatch");
        assert_eq!(consumed, stream.len());
        let (slow, ref_consumed) = huffman_decode_multi(&stream).expect("oracle decode");
        assert_eq!(slow, symbols, "oracle mismatch");
        assert_eq!(ref_consumed, consumed);
    }
}

/// Both decoders must reject `stream` (never panic, never allocate per a
/// forged count).
fn assert_both_reject(stream: &[u8], what: &str) {
    assert!(decode_multi(stream).is_err(), "fast decoder: {what}");
    assert!(huffman_decode_multi(stream).is_err(), "oracle: {what}");
}

#[test]
fn runs_at_and_adjacent_to_min_run() {
    // Runs of length MIN_RUN−1 stay literal; MIN_RUN and MIN_RUN+1 collapse.
    for run_len in [MIN_RUN - 1, MIN_RUN, MIN_RUN + 1] {
        let mut symbols = vec![1u32, 2, 3];
        symbols.extend(std::iter::repeat(7u32).take(run_len));
        symbols.extend_from_slice(&[4, 5, 6]);
        roundtrip_both(&symbols);
    }
}

#[test]
fn run_at_stream_start_and_end() {
    let mut head_run = vec![9u32; MIN_RUN + 5];
    head_run.extend_from_slice(&[1, 2, 3]);
    roundtrip_both(&head_run);

    let mut tail_run = vec![1u32, 2, 3];
    tail_run.extend(std::iter::repeat(9u32).take(MIN_RUN + 5));
    roundtrip_both(&tail_run);

    // Entire stream is one run.
    roundtrip_both(&vec![3u32; MIN_RUN * 4]);
}

#[test]
fn back_to_back_runs_of_different_symbols() {
    let mut symbols = Vec::new();
    for s in 0..6u32 {
        symbols.extend(std::iter::repeat(s).take(MIN_RUN + s as usize));
    }
    roundtrip_both(&symbols);
}

#[test]
fn inputs_containing_run_marker_disable_rle() {
    // RUN_MARKER (u32::MAX) appearing as *data* must force the literal
    // (non-RLE) encoding and still round-trip exactly.
    let symbols = vec![RUN_MARKER, 1, 2, RUN_MARKER, RUN_MARKER, 3];
    roundtrip_both(&symbols);

    // Even a long run of the marker itself cannot use RLE.
    let mut marker_run = vec![5u32; 10];
    marker_run.extend(std::iter::repeat(RUN_MARKER).take(MIN_RUN * 2));
    marker_run.extend_from_slice(&[5; 10]);
    roundtrip_both(&marker_run);
}

/// The longest code length in a 1-segment block's code table.
fn longest_code(stream: &[u8]) -> u8 {
    // n:u64, n_streams:u8, flag:u8, then n:u64, runs:u32 (+varints),
    // transformed:u64, then n_codes:u32 and 5-byte entries.
    let n_runs = u32::from_le_bytes(stream[18..22].try_into().unwrap());
    assert_eq!(n_runs, 0, "expected a run-free block");
    let n_codes = u32::from_le_bytes(stream[30..34].try_into().unwrap()) as usize;
    (0..n_codes).map(|i| stream[34 + 5 * i + 4]).max().unwrap()
}

/// `copies[i]` copies of symbol `100 + i`, shuffled so that no run forms.
fn shuffled(copies: &[usize], seed: u64) -> Vec<u32> {
    let mut symbols: Vec<u32> = copies
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat(100 + i as u32).take(c))
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
    for s in 0..200u32 {
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
    // Sanity: the code table really does exceed the PEEK width.  A
    // 1-segment block is n:u64, n_streams:u8, flag:u8, then per stream
    // n:u64, runs:u32 (+varints), transformed:u64, then n_codes:u32; the
    // shuffle leaves no collapsible runs, so offsets are fixed.
    assert_eq!(
        stream[9], 1,
        "skewed input must take the Huffman + RLE mode"
    );
    let n_runs = u32::from_le_bytes(stream[18..22].try_into().unwrap());
    assert_eq!(n_runs, 0, "shuffle should leave no RLE runs");
    let n_codes = u32::from_le_bytes(stream[30..34].try_into().unwrap());
    assert!(n_codes >= 200, "expected a wide alphabet, got {n_codes}");
    let max_len = (0..n_codes as usize)
        .map(|i| stream[34 + 5 * i + 4])
        .max()
        .unwrap();
    assert!(
        u32::from(max_len) > PEEK,
        "distribution failed to force a code past {PEEK} bits (max {max_len})"
    );
    roundtrip_both(&symbols);
}

#[test]
fn payload_writer_at_every_codes_per_store_boundary() {
    // Fibonacci frequencies over `L + 1` symbols give a longest code of
    // exactly `L` bits.  The writer packs ⌊56 / L⌋ codes (two to four) per
    // 64-bit store, so these lengths sit on both sides of each change
    // (4 → 3 past 14 bits, 3 → 2 past 18) and at the packed writer's limit.
    for longest in [14usize, 15, 18, 19, 20, 28] {
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
fn symbol_windows_as_wide_as_the_dense_histogram_takes() {
    // SZ's shape: the escape 0, a cluster near 32 768 and an outlier near
    // 65 535, with and without runs (whose marker counts past the window).
    let mut rng = StdRng::seed_from_u64(0x5A);
    let mut sparse: Vec<u32> = (0..5000)
        .map(|_| 32_768 + rng.gen_range(0u32..40) - 20)
        .collect();
    sparse[0] = 0;
    sparse[2500] = 65_530;
    sparse[4999] = 0;
    roundtrip_both(&sparse);
    let mut with_runs = sparse.clone();
    with_runs.splice(1000..1000, std::iter::repeat(32_768).take(3 * MIN_RUN));
    roundtrip_both(&with_runs);
    // The widest dense window, 2^17 symbols from 7 to 7 + 2^17 − 1, and one
    // symbol wider, which counts through the map instead.
    for span in [(1u32 << 17) - 1, 1 << 17] {
        let mut wide = sparse.clone();
        wide[1] = 7;
        wide[3] = 7 + span;
        roundtrip_both(&wide);
    }
}

#[test]
fn forged_run_free_blocks_are_rejected_by_both_decoders() {
    // A run-free block the writer flags 1 ("runs allowed") decodes straight
    // into the output only while expansion could not change it; these
    // forgeries break that and both decoders must say so.
    let symbols = [1u32, 2, 3, 2, 1, 2, 3].repeat(10);
    let valid = encode(&symbols, 1);
    assert_eq!(valid[9], 1, "expected a Huffman block that allows runs");
    assert_eq!(valid[18..22], [0; 4], "expected no runs");
    roundtrip_both(&symbols);

    // The run marker in the code table, standing for a symbol the payload
    // uses: it would expand without a run length.
    let mut forged = valid.clone();
    forged[34..38].copy_from_slice(&RUN_MARKER.to_le_bytes());
    assert_both_reject(&forged, "marker in a run-free code table");

    // Fewer payload symbols than output symbols, with no run to make up
    // the difference.
    let mut forged = valid.clone();
    let n_symbols = u64::from_le_bytes(forged[22..30].try_into().unwrap());
    forged[22..30].copy_from_slice(&(n_symbols - 1).to_le_bytes());
    assert_both_reject(&forged, "n_symbols below n_original without runs");

    // Every truncation of a 4-segment run-free block.
    let valid = encode(&symbols, 4);
    for cut in 0..valid.len() {
        assert_both_reject(&valid[..cut], "truncated run-free block");
    }
}

#[test]
fn sz_segments_at_the_fused_decode_chunk_edges() {
    // The fused decode hands SZ's reconstruction 1 Ki symbols per segment
    // at a time.  Segments of 1, 1 Ki − 1, 1 Ki and 1 Ki + 1 values (and
    // 2 Ki + 1: two whole chunks and one symbol), with an escape as the
    // first and the last symbol of a chunk, must decode through it exactly
    // as the staged path and the oracle do.
    const CHUNK: usize = 1024;
    let sz = SzCompressor::new();
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
            // The symbol block follows the 43-byte container header; each
            // of its four sub-stream headers declares a run count.
            for k in 0..4 {
                let at = 43 + 10 + 20 * k + 8;
                assert_eq!(stream[at..at + 4], [0; 4], "runs in segment {k}, n = {n}");
            }
            let oracle = sz_decompress(&stream).unwrap();
            let staged = sz.decompress(&stream).unwrap();
            let mut fused = vec![0.0f32; n];
            sz.decompress_into(&stream, &mut fused, &mut scratch::acquire())
                .unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&staged), bits(&oracle), "staged, n = {n}");
            assert_eq!(bits(&fused), bits(&oracle), "fused, n = {n}");
            assert!(bound.verify(&data, &fused), "bound, n = {n}");
        }
    }
}

#[test]
fn single_symbol_streams() {
    // One distinct symbol: the canonical code is a single 1-bit code.
    roundtrip_both(&[42u32]);
    roundtrip_both(&vec![42u32; 5]);
    roundtrip_both(&vec![42u32; MIN_RUN]); // also collapses to one run
    roundtrip_both(&[RUN_MARKER]); // the marker alone, as data
}

#[test]
fn empty_stream() {
    roundtrip_both(&[]);
}

#[test]
fn large_alphabet_spills_dense_tables() {
    // Symbols above the dense-LUT range exercise the HashMap fallback on
    // encode and the canonical arrays (no prefix table hit) on decode.
    let mut rng = StdRng::seed_from_u64(7);
    let mut symbols: Vec<u32> = (0..4000)
        .map(|_| rng.gen_range(0..(1u64 << 22)) as u32)
        .collect();
    symbols.extend(std::iter::repeat(1u32 << 21).take(MIN_RUN * 2));
    roundtrip_both(&symbols);
}

#[test]
fn complete_64bit_kraft_table_does_not_panic() {
    // A crafted canonical table with lengths 1..=64 plus a second 64-bit
    // code: the Kraft sum is exactly 2^64, so the final canonical code is
    // the all-ones 64-bit value and the post-assignment increment wraps.
    // Accepting or rejecting the stream are both fine; panicking is not,
    // and neither is the two decoders disagreeing.
    let block = |payload: &[u8]| {
        let mut s = Vec::new();
        s.extend_from_slice(&1u64.to_le_bytes()); // n_original
        s.push(1); // n_streams
        s.push(0); // flag: Huffman, no RLE
        s.extend_from_slice(&1u64.to_le_bytes()); // sub-stream n_original
        s.extend_from_slice(&0u32.to_le_bytes()); // n_runs
        s.extend_from_slice(&1u64.to_le_bytes()); // n_symbols
        s.extend_from_slice(&65u32.to_le_bytes()); // n_distinct
        for i in 0u32..64 {
            s.extend_from_slice(&i.to_le_bytes());
            s.push((i + 1) as u8); // lengths 1..=64
        }
        s.extend_from_slice(&64u32.to_le_bytes());
        s.push(64); // second length-64 code -> Kraft sum exactly 2^64
        s.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        s.extend_from_slice(payload);
        s
    };
    // One 0 bit decodes symbol 0; 64 one-bits walk all the way down to the
    // all-ones code, where `first_code + count` would overflow.
    for payload in [&[0x00u8][..], &[0xff; 8]] {
        let s = block(payload);
        assert_eq!(
            decode_multi(&s).ok(),
            huffman_decode_multi(&s).ok(),
            "decoders disagree on the crafted table"
        );
    }
}

#[test]
fn forged_header_lengths_are_rejected_not_trusted() {
    // Build one valid 1-segment Huffman block, then corrupt each header
    // length field to a value the stream cannot hold; every variant must
    // return an error (never panic, never allocate per the forged count).
    // Long enough that the encoder does not fall back to raw 16-bit
    // symbols, and without a run long enough to collapse.
    let valid = encode(&[1u32, 2, 3, 2, 1, 2, 3].repeat(10), 1);
    assert_eq!(valid[9], 1, "expected a Huffman block");
    assert_eq!(valid[18..22], [0; 4], "expected no runs");

    // n_distinct forged to u32::MAX: the 5-bytes-per-entry bound trips.
    let mut forged = valid.clone();
    forged[30..34].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_both_reject(&forged, "forged n_distinct must be rejected");

    // n_symbols forged far past the declared output length.
    let mut forged = valid.clone();
    forged[22..30].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_both_reject(&forged, "forged n_symbols must be rejected");

    // payload_len forged past the end of the stream.  Its offset: the
    // 34-byte header above + 5 bytes per table entry.
    let mut forged = valid.clone();
    let n_distinct = u32::from_le_bytes(valid[30..34].try_into().unwrap()) as usize;
    let off = 34 + 5 * n_distinct;
    forged[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_both_reject(&forged, "forged payload_len must be rejected");

    // n_runs forged huge.
    let mut forged = valid.clone();
    forged[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_both_reject(&forged, "forged n_runs must be rejected");

    // A run length forged to u32::MAX must fail the length accounting
    // before anything is materialised for it.
    let mut runs = vec![7u32; MIN_RUN * 2];
    runs.extend([1, 2, 3].repeat(20));
    let mut forged = encode(&runs, 1);
    assert_eq!(forged[18..22], 1u32.to_le_bytes(), "expected one run");
    let varint_len = forged[22..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    forged.splice(22..22 + varint_len, [0xff, 0xff, 0xff, 0xff, 0x0f]);
    assert_both_reject(&forged, "forged run length must be rejected");

    // Sub-stream count outside 1..=16, and an unknown payload flag.
    for (at, bad) in [(8, 0u8), (8, 17), (9, 3)] {
        let mut forged = valid.clone();
        forged[at] = bad;
        assert_both_reject(&forged, "forged block header byte must be rejected");
    }
}

#[test]
fn truncated_streams_error_cleanly() {
    // The short input is stored as raw 16-bit symbols, the long one as a
    // Huffman block.
    for symbols in [
        vec![9u32, 9, 9, 9, 8, 7, 6, 5],
        [9u32, 9, 9, 9, 8, 7, 6, 5].repeat(12),
    ] {
        for n_streams in [1, 4] {
            let valid = encode(&symbols, n_streams);
            for cut in 0..valid.len() {
                // Every prefix must produce Err, not a panic or a bogus Ok.
                assert_both_reject(&valid[..cut], "truncated block decoded successfully");
            }
        }
    }
}
