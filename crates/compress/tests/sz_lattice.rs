//! The SZ lattice layout (container tag 6, a predictor order per segment):
//! a property sweep over bounds, lengths and awkward values, streams coded
//! at each predictor order with escapes where the history restarts, and
//! hand-forged hostile streams.
//!
//! Every stream, honest or forged, goes to the fast decoder through
//! `decompress`, `decompress_into` and `ChunkedCompressor::decode_unit_into`
//! under the caller's value count, and to the oracle in
//! `errflow_compress::reference`; the fast decoder must accept exactly when
//! the oracle accepts with that many values, and then agree bit for bit.

use errflow_compress::format::{self, BackendTag};
use errflow_compress::traits::{read_varint, write_varint};
use errflow_compress::{
    huffman, reference, scratch, ChunkedCompressor, CompressError, Compressor, ErrorBound,
    SzCompressor,
};
use errflow_tensor::rng::StdRng;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The oracle's verdict for a caller that expects `n` values: values of
/// another count are a refusal.
fn of_length(oracle: Result<Vec<f32>, CompressError>, n: usize) -> Result<Vec<f32>, CompressError> {
    oracle.and_then(|v| {
        if v.len() == n {
            Ok(v)
        } else {
            Err(CompressError::CorruptStream(format!(
                "{} values where the caller expects {n}",
                v.len()
            )))
        }
    })
}

/// Decodes `stream` to the caller's `n` values every way there is and
/// checks the ways agree with the oracle.  Returns the decoded values when
/// the stream is accepted.
fn decode_everywhere(stream: &[u8], n: usize, what: &str) -> Option<Vec<f32>> {
    let sz = SzCompressor::new();
    let oracle = of_length(reference::sz_decompress(stream), n);
    let fast = sz.decompress(stream, n);
    let (fast, oracle) = match (fast, oracle) {
        (Ok(fast), Ok(oracle)) => (fast, oracle),
        (Err(_), Err(_)) => return None,
        (fast, oracle) => panic!(
            "{what}: fast decoder {} but the oracle {}",
            fast.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
            oracle.map_or_else(|e| format!("rejects ({e})"), |_| "accepts".into()),
        ),
    };
    assert_eq!(bits(&fast), bits(&oracle), "{what}: decompress vs oracle");
    let mut sc = scratch::acquire();
    let mut into = vec![f32::NAN; n];
    sz.decompress_into(stream, &mut into, &mut sc)
        .unwrap_or_else(|e| panic!("{what}: decompress_into: {e}"));
    assert_eq!(bits(&into), bits(&oracle), "{what}: decompress_into");
    // A destination of the wrong size is a typed error, not a partial write.
    let mut wrong = vec![0.0f32; n + 1];
    assert!(sz.decompress_into(stream, &mut wrong, &mut sc).is_err());
    assert!(sz.decompress(stream, n + 1).is_err());
    Some(fast)
}

/// Round-trips `data` through the plain and the chunked compressor and
/// holds every decode path to the oracle.
fn roundtrip(data: &[f32], bound: &ErrorBound, what: &str) -> Vec<f32> {
    let sz = SzCompressor::new();
    let stream = sz.compress(data, bound).unwrap();
    assert!(stream[..8] == format::MAGIC_V2 && stream[8] == BackendTag::Sz as u8);
    let recon = decode_everywhere(&stream, data.len(), what)
        .unwrap_or_else(|| panic!("{what}: own stream rejected"));
    assert_eq!(recon.len(), data.len());

    // Chunks of 1000 leave a ragged last chunk and ragged segments in it.
    let chunked = ChunkedCompressor::new(SzCompressor::new()).with_chunk_values(1000);
    let container = chunked.compress(data, bound).unwrap();
    let units = chunked.decode_units(&container, data.len()).unwrap();
    let mut sc = scratch::acquire();
    let mut by_unit = vec![f32::NAN; data.len()];
    for unit in &units {
        let dst = &mut by_unit[unit.offset..unit.offset + unit.len];
        chunked.decode_unit_into(unit, dst, &mut sc).unwrap();
        let oracle = reference::sz_decompress(unit.stream).unwrap();
        assert_eq!(bits(dst), bits(&oracle), "{what}: unit at {}", unit.offset);
    }
    let oracle = reference::chunked_decompress("sz", &container).unwrap();
    assert_eq!(
        bits(&by_unit),
        bits(&oracle),
        "{what}: decode_unit_into vs the chunked oracle"
    );
    assert_eq!(
        bits(&chunked.decompress(&container, data.len()).unwrap()),
        bits(&oracle),
        "{what}: chunked decompress vs the chunked oracle"
    );
    if data.iter().all(|v| v.is_finite()) {
        assert!(bound.verify(data, &by_unit), "{what}: chunked bound");
    }
    recon
}

fn fields(rng: &mut StdRng, n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut walk = 0.0f32;
    vec![
        (
            "smooth",
            (0..n)
                .map(|i| (i as f32 * 0.01).sin() * 2.0 + 0.3 * (i as f32 * 0.07).cos())
                .collect(),
        ),
        (
            "noise-floor",
            (0..n)
                .map(|i| (i as f32 * 0.02).sin() + rng.gen_range(-1e-4f32..1e-4))
                .collect(),
        ),
        (
            "white-noise",
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        ),
        ("constant", vec![1.5; n]),
        (
            "spiky",
            (0..n)
                .map(|i| {
                    walk += rng.gen_range(-0.005f32..0.005);
                    if i % 97 == 5 {
                        walk + rng.gen_range(-100.0f32..100.0)
                    } else {
                        walk
                    }
                })
                .collect(),
        ),
        (
            "subnormal",
            (0..n)
                .map(|i| {
                    f32::from_bits(1 + (i as u32 * 7919) % 0x007f_ffff)
                        * if i % 2 == 0 { 1.0 } else { -1.0 }
                })
                .collect(),
        ),
    ]
}

#[test]
fn every_bound_mode_tolerance_and_length_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x1A77);
    for n in [0usize, 1, 2, 3, 5, 7, 1027, 4099] {
        for (label, data) in fields(&mut rng, n) {
            for tol in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
                for bound in [
                    ErrorBound::abs_linf(tol),
                    ErrorBound::rel_linf(tol),
                    ErrorBound::abs_l2(tol),
                    ErrorBound::rel_l2(tol),
                ] {
                    let what = format!("{label} n={n} {bound:?}");
                    let recon = roundtrip(&data, &bound, &what);
                    assert!(bound.verify(&data, &recon), "{what}: bound violated");
                }
            }
        }
    }
}

#[test]
fn ties_guard_values_extremes_and_non_finite_values_round_trip() {
    // 2eb = 2^-9, so products with 1/(2eb) are exact: (k + ½)·2eb sits on a
    // half-lattice tie, and 2^21 on the index guard (2^30 bins).
    let eb = 1.0 / 1024.0;
    let bound = ErrorBound::abs_linf(eb);
    let guard = (1u32 << 21) as f32;
    let mut data: Vec<f32> = (-40..40).map(|k| (k as f32 + 0.5) / 512.0).collect();
    data.extend([
        guard,
        -guard,
        f32::from_bits(guard.to_bits() - 1),
        -f32::from_bits(guard.to_bits() - 1),
        f32::from_bits(guard.to_bits() + 1),
        1e30,
        -1e30,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        -0.0,
        0.0,
    ]);
    // The same values again after a smooth stretch, so they meet a
    // non-trivial history, and in every segment of the split.
    let smooth: Vec<f32> = (0..500).map(|i| (i as f32 * 0.01).sin()).collect();
    let awkward = data.clone();
    for _ in 0..4 {
        data.extend(&smooth);
        data.extend(&awkward);
    }
    let recon = roundtrip(&data, &bound, "finite awkward values");
    assert!(bound.verify(&data, &recon));
    for (i, (&x, &r)) in data.iter().zip(&recon).enumerate() {
        if x.abs() >= guard {
            assert_eq!(
                x.to_bits(),
                r.to_bits(),
                "value {i} at the guard is verbatim"
            );
        }
    }

    // NaN and the infinities come back bit for bit; everything finite
    // around them stays within the bound.
    let quiet = f32::from_bits(0x7fc1_2345);
    for (k, x) in [f32::NAN, quiet, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        data[3 + 211 * k] = x;
        data[600 + 197 * k] = x;
    }
    let recon = roundtrip(&data, &bound, "non-finite values");
    for (i, (&x, &r)) in data.iter().zip(&recon).enumerate() {
        if x.is_finite() {
            assert!(((x - r).abs() as f64) <= eb, "value {i}: {x} → {r}");
        } else {
            assert_eq!(x.to_bits(), r.to_bits(), "value {i} is verbatim");
        }
    }
    // Relative bounds resolve to an infinite budget on such data (which the
    // chunked wrapper refuses as a tolerance); whatever the plain stream
    // holds then, the decoders agree on it.
    for bound in [ErrorBound::rel_linf(1e-3), ErrorBound::rel_l2(1e-3)] {
        let stream = SzCompressor::new().compress(&data, &bound).unwrap();
        let recon =
            decode_everywhere(&stream, data.len(), "non-finite values, relative bound").unwrap();
        assert_eq!(recon.len(), data.len());
    }
}

/// A lattice container built by hand: `symbols` cut into `tables.len()`
/// even segments, one predictor order and one outlier table per segment.
fn forge(eb: f64, orders: &[u8], symbols: &[u16], tables: &[Vec<f32>]) -> Vec<u8> {
    assert_eq!(orders.len(), tables.len());
    let mut out = Vec::new();
    format::write_preamble(&mut out, BackendTag::Sz, tables.len());
    write_varint(&mut out, symbols.len() as u64);
    out.extend_from_slice(&eb.to_le_bytes());
    for group in orders.chunks(4) {
        let fields = group.iter().enumerate();
        out.push(fields.fold(0, |byte, (s, &k)| byte | k << (2 * s)));
    }
    for table in tables {
        write_varint(&mut out, table.len() as u64);
    }
    huffman::encode_multi_into(symbols, tables.len(), &mut out);
    for table in tables {
        format::write_f32_table(&mut out, table);
    }
    out
}

/// The lattice index of `x` under budget `eb`, restated from the module
/// docs of `errflow_compress::sz`.
fn lattice_index(x: f32, eb: f64) -> i32 {
    let scaled = x as f64 * (1.0 / (2.0 * eb));
    if scaled.abs() < (1u64 << 30) as f64 {
        scaled.round_ties_even() as i32
    } else {
        0
    }
}

/// An honest stream of `data` in four segments coded at `orders`, written
/// the slow way, with the values every decoder must return for it.
fn encode_at(data: &[f32], eb: f64, orders: [u8; 4]) -> (Vec<u8>, Vec<f32>) {
    let mut symbols = Vec::with_capacity(data.len());
    let mut tables = vec![Vec::new(); 4];
    let mut want = Vec::with_capacity(data.len());
    for ((off, len), (table, &k)) in format::split_even(data.len(), 4)
        .iter()
        .zip(tables.iter_mut().zip(&orders))
    {
        let xs = &data[*off..off + len];
        let q: Vec<i32> = xs.iter().map(|&x| lattice_index(x, eb)).collect();
        for (i, &x) in xs.iter().enumerate() {
            // The difference of order min(i, k): binomial weights on the
            // index and the ones before it.
            let weights: &[i32] = match i.min(usize::from(k)) {
                0 => &[1],
                1 => &[1, -1],
                2 => &[1, -2, 1],
                _ => &[1, -3, 3, -1],
            };
            let d = weights
                .iter()
                .enumerate()
                .fold(0i32, |d, (m, &w)| d.wrapping_add(w.wrapping_mul(q[i - m])));
            let r = (q[i] as f64 * (2.0 * eb)) as f32;
            if f64::from((x - r).abs()) <= eb && r.is_finite() && d.abs() <= 32_767 {
                symbols.push((d + 32_768) as u16);
                want.push(r);
            } else {
                symbols.push(0);
                table.push(x);
                want.push(x);
            }
        }
    }
    (forge(eb, &orders, &symbols, &tables), want)
}

#[test]
fn every_order_restarts_and_escapes_alike_in_every_decoder() {
    // Four segments of 2 Ki + 1 values: the fused decode hands each one
    // chunk of 1 Ki symbols, another, then one.  Escapes go where the
    // history restarts (positions 0, 1, 2 of every segment) and on the
    // chunk edges (1 Ki ± 1, 2 Ki), alone and together.
    const CHUNK: usize = 1024;
    let seg = 2 * CHUNK + 1;
    let eb = 1e-4;
    let mut rng = StdRng::seed_from_u64(0x0DE5);
    // Noise ten times the bound keeps the block run-free.
    let base: Vec<f32> = (0..4 * seg)
        .map(|i| (i as f32 * 0.002).sin() + rng.gen_range(-1e-3f32..1e-3))
        .collect();
    let patterns: [&[usize]; 7] = [
        &[],
        &[0],
        &[1],
        &[2],
        &[0, 1, 2],
        &[CHUNK - 1, CHUNK, CHUNK + 1],
        &[1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK],
    ];
    let sz = SzCompressor::new();
    for pattern in patterns {
        let mut data = base.clone();
        for s in 0..4 {
            for &p in pattern {
                data[s * seg + p] = if p % 2 == 0 { 1e30 } else { -7.5 };
            }
        }
        for orders in [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3], [3, 1, 2, 3]] {
            let what = format!("escapes at {pattern:?}, orders {orders:?}");
            let (stream, want) = encode_at(&data, eb, orders);
            let got = decode_everywhere(&stream, data.len(), &what)
                .unwrap_or_else(|| panic!("{what}: honest stream rejected"));
            assert_eq!(bits(&got), bits(&want), "{what}");
            assert!(ErrorBound::abs_linf(eb).verify(&data, &got), "{what}");
        }
        // The encoder writes what the slow coder writes at its own orders.
        let stream = sz.compress(&data, &ErrorBound::abs_linf(eb)).unwrap();
        // The order byte follows the preamble, n (a varint) and eb.
        let mut at = 10;
        read_varint(&stream, &mut at, u64::MAX, "n").unwrap();
        let orders = [0, 2, 4, 6].map(|shift| (stream[at + 8] >> shift) & 3);
        let (slow, _) = encode_at(&data, eb, orders);
        assert!(stream == slow, "escapes at {pattern:?}: orders {orders:?}");
    }
}

#[test]
fn forged_symbols_wrap_the_prefix_sum_alike_in_both_decoders() {
    let none = vec![Vec::new(); 4];
    // The largest honest difference, forever: at order 2 the index passes
    // 2^31 after ~360 values and keeps wrapping, at order 3 sooner, and at
    // order 1 after 65 538.
    let up = vec![u16::MAX; 8000];
    for (k, n) in [(1u8, 4 * 70_000), (2, 8000), (3, 8000)] {
        let up = vec![u16::MAX; n];
        let values = decode_everywhere(&forge(1e-3, &[k; 4], &up, &none), n, "all +MAX_CODE")
            .expect("a well-framed stream");
        assert!(
            values.iter().any(|&v| v < 0.0),
            "order {k}: the sum wrapped"
        );
    }
    // Symbols no field's encoding holds together: random differences, the
    // extreme ones of either sign and zero.  (A symbol past `u16` has no
    // code table to carry it: both decoders refuse such a table.)
    let mut rng = StdRng::seed_from_u64(0xF0F);
    let wild: Vec<u16> = (0..4001)
        .map(|i| match i % 5 {
            0 => rng.gen_range(1u16..u16::MAX),
            1 => 1 + rng.gen_range(0u16..3),
            2 => u16::MAX - rng.gen_range(0u16..3),
            3 => u16::MAX,
            _ => 32_768,
        })
        .collect();
    for n_streams in [1, 3, 4, 16] {
        let tables = vec![Vec::new(); n_streams];
        let orders: Vec<u8> = (0..n_streams).map(|s| 1 + (s % 3) as u8).collect();
        decode_everywhere(
            &forge(0.5, &orders, &wild, &tables),
            wild.len(),
            "wild symbols",
        )
        .expect("a well-framed stream");
    }
    // Header bounds no encoder writes.
    for eb in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
        let mut symbols = up[..400].to_vec();
        symbols[7] = 0;
        symbols[205] = 0;
        let tables = vec![vec![3.5f32], Vec::new(), vec![f32::NAN], Vec::new()];
        decode_everywhere(
            &forge(eb, &[3, 2, 1, 3], &symbols, &tables),
            symbols.len(),
            "hostile error bound",
        )
        .expect("a well-framed stream");
    }
}

#[test]
fn outlier_tables_off_by_one_entry_are_rejected_by_both_decoders() {
    // Segment 1 of 4 holds two escapes.
    let mut symbols = vec![32_768u16; 400];
    symbols[110] = 0;
    symbols[150] = 0;
    let table = |n: usize| vec![Vec::new(), vec![1.25f32; n], Vec::new(), Vec::new()];
    let sz = SzCompressor::new();
    for (entries, accepted) in [(2, true), (1, false), (3, false), (0, false)] {
        let stream = forge(1e-3, &[2; 4], &symbols, &table(entries));
        let decoded = decode_everywhere(&stream, symbols.len(), "table length");
        assert_eq!(
            decoded.is_some(),
            accepted,
            "{entries} entries for 2 escapes"
        );
        if !accepted {
            let err = sz.decompress(&stream, symbols.len()).unwrap_err();
            assert!(err.to_string().contains("outlier table"), "{err}");
        }
    }
    // The right number of entries, one segment over.
    let moved = vec![vec![1.25f32; 2], Vec::new(), Vec::new(), Vec::new()];
    let stream = forge(1e-3, &[2; 4], &symbols, &moved);
    assert!(decode_everywhere(&stream, symbols.len(), "table in the wrong segment").is_none());
}

#[test]
fn any_tag_but_the_order_one_is_no_sz_stream() {
    let data: Vec<f32> = include_bytes!("fixtures/field.f32")
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let sz = SzCompressor::new();
    let mut stream = sz.compress(&data, &ErrorBound::rel_linf(1e-4)).unwrap();
    let mut sc = scratch::acquire();
    let mut out = vec![0.0f32; data.len()];
    // Tags 1, 4 and 5 are retired SZ layouts' (5 this one's orders behind
    // fixed-width counts, 4 the order-2-only lattice layout); the others
    // are other backends' or nobody's.
    for tag in (0..=u8::MAX).filter(|&t| t != BackendTag::Sz as u8) {
        stream[8] = tag;
        assert!(
            decode_everywhere(&stream, data.len(), "foreign tag").is_none(),
            "tag {tag}"
        );
        assert!(
            sz.decompress_into(&stream, &mut out, &mut sc).is_err(),
            "tag {tag}: decompress_into"
        );
    }
}
