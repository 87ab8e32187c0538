//! Slow, obvious decoders for the streams this crate writes.
//!
//! The codec hot-path work rewrote the Huffman/SZ/ZFP/MGARD decode loops
//! for throughput and then moved every backend onto the multi-stream
//! container ([`crate::format`]).  This module keeps the original seed
//! decode paths — per-symbol table-probe Huffman decode, per-block
//! `BitReader` ZFP decode, per-level `Vec` MGARD reconstruction — and
//! wraps them in a plain container parse, for two purposes:
//!
//! 1. **Differential oracle**: tests assert the fast decoders produce
//!    bit-identical outputs on the streams the tree writes today, and
//!    accept and reject the same bytes.
//! 2. **Benchmark baseline**: `compress-bench` reports fast-path throughput
//!    as a speedup over these functions on the same stream, the same way
//!    `gemm-bench` gates the blocked kernel against `matmul_naive`.
//!
//! Like the fast decoders, these read the container only: bytes without
//! the magic, or tagged for another backend, are a
//! [`CompressError::CorruptStream`].
//!
//! Nothing here shares code with the fast paths (the magic, the segment
//! split and the varint reader are restated on purpose), and nothing here
//! should be made faster — its value is staying fixed.  It does take
//! untrusted bytes, so every length is checked before it is used.

use crate::traits::{safe_capacity, CompressError};
use std::collections::HashMap;

const PEEK: u32 = 13;
const RUN_MARKER: u32 = u32::MAX;
const MAX_CODE: i64 = 32_767;
const ESCAPE: u16 = 0;
const PRECISION: i32 = 38;
const MAGIC_V2: [u8; 8] = *b"EFv2\x9e\xad\xf5\xbf";
const MAX_STREAMS: usize = 16;
const FLAG_RAW16: u8 = 2;
const TAG_ZFP: u8 = 2;
const TAG_SZ: u8 = 6;
const TAG_MGARD: u8 = 7;
const CHUNKED_TAG: u8 = 0xC5;

/// Seed bit reader: byte-copy `peek_word`, per-call bounds checks.
struct RefBitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RefBitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        RefBitReader { buf, pos: 0 }
    }

    #[inline]
    fn bit_capacity(&self) -> usize {
        self.buf.len() * 8
    }

    #[inline]
    fn peek_word(&self) -> u64 {
        let byte = self.pos / 8;
        let shift = (self.pos % 8) as u32;
        let mut word = [0u8; 8];
        let end = (byte + 8).min(self.buf.len());
        if byte < self.buf.len() {
            word[..end - byte].copy_from_slice(&self.buf[byte..end]);
        }
        u64::from_le_bytes(word) >> shift
    }

    #[inline]
    fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bit_capacity() {
            return None;
        }
        let bit = (self.buf[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    #[inline]
    fn read_bits(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if self.pos + n as usize > self.bit_capacity() {
            return None;
        }
        let v = if n <= 57 {
            self.peek_word() & if n == 64 { u64::MAX } else { (1u64 << n) - 1 }
        } else {
            let lo = self.peek_word() & ((1u64 << 57) - 1);
            let mut tmp = RefBitReader {
                buf: self.buf,
                pos: self.pos + 57,
            };
            let hi = tmp.read_bits(n - 57)?;
            lo | (hi << 57)
        };
        self.pos += n as usize;
        Some(v)
    }

    #[inline]
    fn peek_bits_lossy(&self, n: u32) -> u64 {
        self.peek_word() & ((1u64 << n) - 1)
    }

    #[inline]
    fn skip_bits(&mut self, n: u32) {
        self.pos = (self.pos + n as usize).min(self.bit_capacity());
    }

    #[inline]
    fn remaining_bits(&self) -> usize {
        self.bit_capacity() - self.pos
    }
}

#[inline]
fn bitrev(v: u64, len: u8) -> u64 {
    v.reverse_bits() >> (64 - len as u32)
}

/// Checked fixed-width slice-to-array conversion: corrupt-stream error
/// instead of a panic when the slice is not exactly `N` bytes.
#[inline]
fn fixed<const N: usize>(bytes: &[u8], what: &str) -> Result<[u8; N], CompressError> {
    bytes
        .try_into()
        .map_err(|_| CompressError::CorruptStream(format!("truncated {what}")))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let bytes = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| CompressError::CorruptStream("truncated u64".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(fixed(bytes, "u64")?))
}

/// A LEB128 varint of at most `max`: seven bits a byte, low bits first.
/// Refused: a truncated one, a final zero byte after the first (no minimal
/// encoding ends so), more than 64 bits, and a value above `max`.
fn read_varint(buf: &[u8], pos: &mut usize, max: u64) -> Result<u64, CompressError> {
    let mut v: u128 = 0;
    let mut count = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| CompressError::CorruptStream("truncated varint".into()))?;
        *pos += 1;
        v |= u128::from(byte & 0x7f) << (7 * count);
        count += 1;
        if byte & 0x80 == 0 {
            if count > 1 && byte == 0 {
                return Err(CompressError::CorruptStream("overlong varint".into()));
            }
            return match u64::try_from(v) {
                Ok(v) if v <= max => Ok(v),
                _ => Err(CompressError::CorruptStream("varint out of range".into())),
            };
        }
        if count == 10 {
            return Err(CompressError::CorruptStream("varint past 64 bits".into()));
        }
    }
}

/// A varint count or length.
fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, CompressError> {
    let v = read_varint(buf, pos, u64::MAX)?;
    usize::try_from(v).map_err(|_| CompressError::CorruptStream("length past usize".into()))
}

fn canonical_codes(lengths: &[(u32, u8)]) -> HashMap<u32, (u64, u8)> {
    let mut codes = HashMap::with_capacity(lengths.len());
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(sym, len) in lengths {
        // Wrapping: a corrupt table may open with a 64-bit code or end on
        // the all-ones one; decode then yields garbage, never a panic.
        code = code.wrapping_shl((len - prev_len) as u32);
        codes.insert(sym, (code, len));
        code = code.wrapping_add(1);
        prev_len = len;
    }
    codes
}

fn rle_expand(
    transformed: &[u32],
    runs: &[u32],
    n_original: usize,
) -> Result<Vec<u32>, CompressError> {
    let mut out = Vec::with_capacity(safe_capacity(n_original, transformed.len() * 4));
    let mut run_it = runs.iter();
    for &s in transformed {
        if s == RUN_MARKER {
            let &count = run_it.next().ok_or_else(|| {
                CompressError::CorruptStream("run marker without a run length".into())
            })?;
            let &prev = out
                .last()
                .ok_or_else(|| CompressError::CorruptStream("run marker at stream start".into()))?;
            // Checked before extending: a forged run length must not drive
            // a giant allocation just to fail the length check below.
            if count as usize > n_original - out.len() {
                return Err(CompressError::CorruptStream(
                    "expanded stream longer than declared".into(),
                ));
            }
            out.extend(std::iter::repeat_n(prev, count as usize));
        } else {
            out.push(s);
        }
        if out.len() > n_original {
            return Err(CompressError::CorruptStream(
                "expanded stream longer than declared".into(),
            ));
        }
    }
    if out.len() != n_original {
        return Err(CompressError::CorruptStream(format!(
            "expanded to {} symbols, expected {n_original}",
            out.len()
        )));
    }
    if run_it.next().is_some() {
        return Err(CompressError::CorruptStream("unused run lengths".into()));
    }
    Ok(out)
}

/// Seed-path decode tables for one canonical code: the `2^PEEK` prefix
/// table plus the per-length arrays of the canonical walk, built fresh
/// (through a `HashMap`) for every block.
struct CodeTable {
    table: Vec<(u32, u8)>,
    first_code: Vec<u64>,
    count: Vec<u32>,
    offset: Vec<u32>,
    canonical_syms: Vec<u32>,
    max_len: u8,
}

/// Reads the code table of a Huffman block (layout in
/// [`crate::huffman::encode_multi_with`]): `n_distinct`, the ascending
/// symbols as a first value and gaps less one (the run marker implied last
/// when the block has `runs`), then `width`-bit lengths packed low bits
/// first — and builds the decode tables.
fn read_code_table(
    stream: &[u8],
    pos: &mut usize,
    width: u32,
    runs: bool,
) -> Result<CodeTable, CompressError> {
    let n_distinct = read_len(stream, pos)?;
    if n_distinct == 0 {
        return Err(CompressError::CorruptStream("empty code table".into()));
    }
    let explicit = n_distinct - usize::from(runs);
    // Every listed symbol is a `u16`; the run marker is implied.
    let mut symbols: Vec<u32> = Vec::with_capacity(safe_capacity(n_distinct, stream.len()));
    let mut next = 0u64;
    for _ in 0..explicit {
        let sym = next
            .checked_add(read_varint(stream, pos, u64::MAX)?)
            .filter(|&sym| sym <= u64::from(u16::MAX))
            .ok_or_else(|| {
                CompressError::CorruptStream("code table: symbol past the alphabet".into())
            })?;
        symbols.push(sym as u32);
        next = sym + 1;
    }
    if runs {
        symbols.push(RUN_MARKER);
    }
    let n_bits = n_distinct
        .checked_mul(width as usize)
        .ok_or_else(|| CompressError::CorruptStream("code table too large".into()))?;
    let packed = slice_at(stream, *pos, n_bits.div_ceil(8), "code lengths")?;
    *pos += packed.len();
    let bit = |i: usize| (packed[i / 8] >> (i % 8)) & 1;
    let mut lengths = Vec::with_capacity(symbols.len());
    for (k, &sym) in symbols.iter().enumerate() {
        let len = (0..width).fold(0u8, |acc, b| {
            acc | bit(k * width as usize + b as usize) << b
        });
        if len == 0 {
            return Err(CompressError::CorruptStream("zero code length".into()));
        }
        lengths.push((sym, len));
    }
    if (n_bits..8 * packed.len()).any(|i| bit(i) != 0) {
        return Err(CompressError::CorruptStream("code length padding".into()));
    }
    let max_len = lengths.iter().map(|&(_, len)| len).max().unwrap_or(1) as u32;
    let narrowest = match max_len {
        0..=15 => 4,
        16..=31 => 5,
        _ => 6,
    };
    if width != narrowest {
        return Err(CompressError::CorruptStream("code length width".into()));
    }
    {
        let mut kraft: u128 = 0;
        for &(_, len) in &lengths {
            kraft += 1u128 << (max_len - len as u32);
        }
        if kraft > (1u128 << max_len) {
            return Err(CompressError::CorruptStream(
                "code table violates the Kraft inequality".into(),
            ));
        }
    }
    lengths.sort_by_key(|&(sym, len)| (len, sym));
    let codes = canonical_codes(&lengths);

    let mut table = vec![(0u32, 0u8); 1 << PEEK];
    let mut max_len = 1u8;
    for &(_, len) in &lengths {
        max_len = max_len.max(len);
    }
    let mut first_code = vec![0u64; max_len as usize + 1];
    let mut count = vec![0u32; max_len as usize + 1];
    let mut offset = vec![0u32; max_len as usize + 1];
    {
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for (i, &(_, len)) in lengths.iter().enumerate() {
            code = code.wrapping_shl((len - prev_len) as u32);
            if count[len as usize] == 0 {
                first_code[len as usize] = code;
                offset[len as usize] = i as u32;
            }
            count[len as usize] += 1;
            code = code.wrapping_add(1);
            prev_len = len;
        }
    }
    let canonical_syms: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
    for (&sym, &(code, len)) in &codes {
        if (len as u32) <= PEEK {
            let base = bitrev(code, len) as usize;
            let step = 1usize << len;
            let mut idx = base;
            while idx < (1 << PEEK) {
                table[idx] = (sym, len);
                idx += step;
            }
        }
    }
    Ok(CodeTable {
        table,
        first_code,
        count,
        offset,
        canonical_syms,
        max_len,
    })
}

impl CodeTable {
    /// Decodes exactly `n_symbols` symbols from `payload`, one table probe
    /// (or one bit-by-bit canonical walk) per symbol.
    fn decode(&self, payload: &[u8], n_symbols: usize) -> Result<Vec<u32>, CompressError> {
        let mut r = RefBitReader::new(payload);
        let mut out = Vec::with_capacity(safe_capacity(n_symbols, payload.len()));
        while out.len() < n_symbols {
            let peek = r.peek_bits_lossy(PEEK) as usize;
            let (sym, len) = self.table[peek];
            if len > 0 && (len as usize) <= r.remaining_bits() {
                r.skip_bits(len as u32);
                out.push(sym);
                continue;
            }
            let mut code = 0u64;
            let mut clen = 0usize;
            let sym = loop {
                let bit = r
                    .read_bit()
                    .ok_or_else(|| CompressError::CorruptStream("payload ended early".into()))?;
                code = (code << 1) | bit as u64;
                clen += 1;
                if clen > self.max_len as usize {
                    return Err(CompressError::CorruptStream(
                        "no symbol matches the read prefix".into(),
                    ));
                }
                // `code - first < count`, not `code < first + count`: the
                // sum overflows on a corrupt table whose 64-bit codes end at
                // the all-ones one.
                let first = self.first_code[clen];
                if code >= first && code - first < self.count[clen] as u64 {
                    break self.canonical_syms
                        [(self.offset[clen] as u64 + (code - first)) as usize];
                }
            };
            out.push(sym);
        }
        Ok(out)
    }
}

/// `stream[pos..pos + len]`, or a typed error; never computes `pos + len`.
fn slice_at<'a>(
    stream: &'a [u8],
    pos: usize,
    len: usize,
    what: &str,
) -> Result<&'a [u8], CompressError> {
    stream
        .get(pos..)
        .and_then(|rest| rest.get(..len))
        .ok_or_else(|| CompressError::CorruptStream(format!("truncated {what}")))
}

/// Undoes the run-length collapse of one decoded payload if it was applied,
/// and checks the result against the declared length either way.
fn finish_symbols(
    symbols: Vec<u32>,
    rle_used: bool,
    runs: &[u32],
    n_original: usize,
) -> Result<Vec<u32>, CompressError> {
    if rle_used {
        return rle_expand(&symbols, runs, n_original);
    }
    if symbols.len() != n_original {
        return Err(CompressError::CorruptStream(format!(
            "decoded {} symbols, expected {n_original}",
            symbols.len()
        )));
    }
    Ok(symbols)
}

/// Oracle decode of the multi-stream Huffman block of `n` symbols in
/// `n_streams` segments ([`crate::huffman::encode_multi_with`] documents
/// the layout): the sub-streams are decoded one after another through the
/// seed-path probe and expanded segment by segment.  Every symbol is a
/// `u16`: a code table that lists one past it is refused.
pub fn huffman_decode_multi(
    stream: &[u8],
    n: usize,
    n_streams: usize,
) -> Result<(Vec<u16>, usize), CompressError> {
    if n_streams == 0 || n_streams > MAX_STREAMS {
        return Err(CompressError::CorruptStream("bad sub-stream count".into()));
    }
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let segments = split_even(n, n_streams);
    let flag = *stream
        .first()
        .ok_or_else(|| CompressError::CorruptStream("no block flag".into()))?;
    let mut pos = 1usize;
    let mut out: Vec<u16> = Vec::new();
    if flag == FLAG_RAW16 {
        for (_, len) in segments {
            let bytes = len
                .checked_mul(2)
                .ok_or_else(|| CompressError::CorruptStream("raw16 payload too large".into()))?;
            let payload = slice_at(stream, pos, bytes, "raw16 payload")?;
            pos += bytes;
            out.extend(
                payload
                    .chunks_exact(2)
                    .map(|pair| u16::from_le_bytes([pair[0], pair[1]])),
            );
        }
        return Ok((out, pos));
    }
    let (kind, width) = (flag & 3, 4 + u32::from(flag >> 2));
    if kind > 1 || width > 6 {
        return Err(CompressError::CorruptStream(format!(
            "bad block flag {flag}"
        )));
    }
    let runs_used = kind == 1;
    // Per sub-stream: (output length, run lengths, payload symbols).
    let mut subs: Vec<(usize, Vec<u32>, usize)> = Vec::with_capacity(n_streams);
    for (_, len) in segments {
        let mut runs = Vec::new();
        let mut n_sym = len;
        if runs_used {
            let n_runs = read_len(stream, &mut pos)?;
            runs.reserve(safe_capacity(n_runs, stream.len()));
            for _ in 0..n_runs {
                runs.push(read_varint(stream, &mut pos, u64::from(u32::MAX))? as u32);
            }
            // A run of r + 1 symbols is coded as the symbol and a marker.
            let total: u128 = runs.iter().map(|&r| u128::from(r)).sum();
            let coded = (len as u128 + runs.len() as u128).checked_sub(total);
            n_sym = coded
                .and_then(|c| usize::try_from(c).ok())
                .ok_or_else(|| CompressError::CorruptStream("runs past the segment".into()))?;
        }
        subs.push((len, runs, n_sym));
    }
    if runs_used && subs.iter().all(|sub| sub.1.is_empty()) {
        return Err(CompressError::CorruptStream(
            "runs block without runs".into(),
        ));
    }
    let codes = read_code_table(stream, &mut pos, width, runs_used)?;
    let mut payload_lens = Vec::with_capacity(n_streams);
    for _ in 0..n_streams {
        payload_lens.push(read_len(stream, &mut pos)?);
    }
    for ((n_orig_s, runs, n_sym), payload_len) in subs.into_iter().zip(payload_lens) {
        let payload = slice_at(stream, pos, payload_len, "sub-stream payload")?;
        pos += payload_len;
        let symbols = codes.decode(payload, n_sym)?;
        // Past the marker's expansion every symbol came from the table.
        let segment = finish_symbols(symbols, runs_used, &runs, n_orig_s)?;
        out.extend(segment.into_iter().map(|sym| sym as u16));
    }
    Ok((out, pos))
}

/// `n` items in `s` contiguous segments whose lengths differ by at most one
/// (the first `n % s` get the extra item), as `(offset, len)` pairs — how
/// every container splits values, blocks or symbols into sub-streams.
fn split_even(n: usize, s: usize) -> Vec<(usize, usize)> {
    let mut off = 0usize;
    (0..s)
        .map(|i| {
            let len = n / s + usize::from(i < n % s);
            off += len;
            (off - len, len)
        })
        .collect()
}

/// Reads the container preamble (magic, `tag`, sub-stream count) and
/// returns the sub-stream count; the body starts at byte 10.
fn read_preamble(stream: &[u8], tag: u8) -> Result<usize, CompressError> {
    if stream.len() < 8 || stream[..8] != MAGIC_V2 {
        return Err(CompressError::CorruptStream("no container magic".into()));
    }
    let head = slice_at(stream, 8, 2, "container preamble")?;
    let n_streams = head[1] as usize;
    if head[0] != tag || n_streams == 0 || n_streams > MAX_STREAMS {
        return Err(CompressError::CorruptStream(format!(
            "bad container preamble: tag {} (expected {tag}), {n_streams} sub-streams",
            head[0]
        )));
    }
    Ok(n_streams)
}

/// The lattice index of `x` under bound `eb`, the slow way: scale by the
/// reciprocal of the bin width, round to nearest (ties to even), and give
/// anything at or past `2^30` bins — or not a number — the index 0.
fn lattice_index(x: f32, eb: f64) -> i32 {
    let scaled = x as f64 * (1.0 / (2.0 * eb));
    if scaled.abs() < 1_073_741_824.0 {
        scaled.round_ties_even() as i32
    } else {
        0
    }
}

/// Reconstruction of one segment of the lattice layout
/// ([`crate::sz`] documents it) at predictor order `order` (1, 2 or 3): a
/// symbol is the difference of the value's lattice index from its
/// prediction off the `j = min(i, order)` indices before it — `0`, the last
/// index, the line through the last two, or the parabola through the last
/// three — all sums wrapping in `i32`; an escaped value is read verbatim
/// and contributes the index recomputed from it.  Appends one value per
/// symbol to `recon` and returns the table bytes consumed.
fn sz_lattice_reconstruct(
    symbols: &[u16],
    order: usize,
    eb: f64,
    table: &[u8],
    recon: &mut Vec<f32>,
) -> Result<usize, CompressError> {
    let mut pos = 0usize;
    let mut indices: Vec<i32> = Vec::with_capacity(symbols.len());
    for (i, &sym) in symbols.iter().enumerate() {
        let back = |m: usize| indices[i - m];
        let prediction = match i.min(order) {
            0 => 0,
            1 => back(1),
            2 => back(1).wrapping_mul(2).wrapping_sub(back(2)),
            _ => back(1)
                .wrapping_mul(3)
                .wrapping_sub(back(2).wrapping_mul(3))
                .wrapping_add(back(3)),
        };
        if sym == ESCAPE {
            let bytes = table
                .get(pos..pos + 4)
                .ok_or_else(|| CompressError::CorruptStream("truncated outlier table".into()))?;
            pos += 4;
            let x = f32::from_le_bytes(fixed(bytes, "outlier")?);
            indices.push(lattice_index(x, eb));
            recon.push(x);
        } else {
            let difference = i32::from(sym).wrapping_sub(MAX_CODE as i32 + 1);
            let index = prediction.wrapping_add(difference);
            indices.push(index);
            recon.push((index as f64 * (2.0 * eb)) as f32);
        }
    }
    Ok(pos)
}

/// SZ decompression: read each segment's predictor order, Huffman-decode
/// every symbol, then run [`sz_lattice_reconstruct`] once per segment.  The
/// container declares each segment's outlier table, which the segment must
/// consume exactly.
pub fn sz_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    let n_streams = read_preamble(stream, TAG_SZ)?;
    let mut pos = 10;
    let n = read_len(stream, &mut pos)?;
    let eb = f64::from_bits(read_u64(stream, &mut pos)?);
    // Two bits per segment, four segments a byte; a segment's field names
    // its order, and a field past the last segment is zero.
    let order_bytes = slice_at(stream, pos, n_streams.div_ceil(4), "predictor orders")?;
    pos += order_bytes.len();
    let mut orders = Vec::new();
    for field in 0..4 * order_bytes.len() {
        let order = (order_bytes[field / 4] >> (2 * (field % 4))) & 3;
        if field < n_streams && order != 0 {
            orders.push(order as usize);
        } else if field < n_streams || order != 0 {
            return Err(CompressError::CorruptStream(format!(
                "segment {field} has predictor order field {order}"
            )));
        }
    }
    let mut table_lens = Vec::new();
    for _ in 0..n_streams {
        let bytes = read_len(stream, &mut pos)?.checked_mul(4);
        table_lens.push(
            bytes.ok_or_else(|| CompressError::CorruptStream("outlier table past usize".into()))?,
        );
    }
    let (symbols, consumed) = huffman_decode_multi(&stream[pos..], n, n_streams)?;
    pos += consumed;
    let mut recon: Vec<f32> = Vec::with_capacity(safe_capacity(n, stream.len()));
    let segments = split_even(n, n_streams);
    for (((off, len), table_len), order) in segments.into_iter().zip(table_lens).zip(orders) {
        let table = slice_at(stream, pos, table_len, "outlier table")?;
        pos += table_len;
        let segment = &symbols[off..off + len];
        let used = sz_lattice_reconstruct(segment, order, eb, table, &mut recon)?;
        if used != table_len {
            return Err(CompressError::CorruptStream(
                "segment outlier table has unread bytes".into(),
            ));
        }
    }
    if pos != stream.len() {
        return Err(CompressError::CorruptStream(
            "bytes after the last outlier table".into(),
        ));
    }
    Ok(recon)
}

fn haar_inv(l: i64, h: i64) -> (i64, i64) {
    let a = l.wrapping_add(h.wrapping_add(1) >> 1);
    (a, a.wrapping_sub(h))
}

fn inv_transform(p: &mut [i64; 4]) {
    let [ll, lh, h0, h1] = *p;
    let (l0, l1) = haar_inv(ll, lh);
    let (a, b) = haar_inv(l0, h0);
    let (c, d) = haar_inv(l1, h1);
    *p = [a, b, c, d];
}

fn decode_block(r: &mut RefBitReader<'_>) -> Result<[f32; 4], CompressError> {
    let flag = r
        .read_bit()
        .ok_or_else(|| CompressError::CorruptStream("missing block flag".into()))?;
    if flag {
        let verbatim = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("missing escape flag".into()))?;
        if !verbatim {
            return Ok([0.0; 4]);
        }
        let mut out = [0.0f32; 4];
        for o in &mut out {
            let bits = r
                .read_bits(32)
                .ok_or_else(|| CompressError::CorruptStream("truncated verbatim block".into()))?;
            *o = f32::from_bits(bits as u32);
        }
        return Ok(out);
    }
    let emax =
        r.read_bits(10)
            .ok_or_else(|| CompressError::CorruptStream("truncated emax".into()))? as i32
            - 256;
    let cut = r
        .read_bits(6)
        .ok_or_else(|| CompressError::CorruptStream("truncated cut".into()))? as u32;
    let width =
        r.read_bits(6)
            .ok_or_else(|| CompressError::CorruptStream("truncated width".into()))? as u32;
    let mut ints = [0i64; 4];
    for v in &mut ints {
        let neg = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("truncated sign".into()))?;
        let mag = r
            .read_bits(width)
            .ok_or_else(|| CompressError::CorruptStream("truncated magnitude".into()))?
            as i64;
        let mut val = mag.wrapping_shl(cut);
        if cut > 0 && mag != 0 {
            val = val.wrapping_add(1i64.wrapping_shl(cut - 1));
        }
        *v = if neg { val.wrapping_neg() } else { val };
    }
    inv_transform(&mut ints);
    let scale = 2f64.powi(emax - (PRECISION - 2));
    Ok(std::array::from_fn(|i| (ints[i] as f64 * scale) as f32))
}

/// ZFP decompression: per-block checked reads through the byte-copy
/// reader, `extend_from_slice` into the output.  The container deals the
/// blocks contiguously and evenly to its sub-streams and declares their
/// lengths.
pub fn zfp_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    let n_streams = read_preamble(stream, TAG_ZFP)?;
    let mut pos = 10;
    let n = read_u64(stream, &mut pos)? as usize;
    let mut payload_lens = Vec::new();
    for _ in 0..n_streams {
        payload_lens.push(read_u64(stream, &mut pos)? as usize);
    }
    let mut out = Vec::with_capacity(safe_capacity(n, stream.len()));
    let parts = split_even(n.div_ceil(4), payload_lens.len());
    for ((block_off, blocks), payload_len) in parts.into_iter().zip(payload_lens) {
        let mut r = RefBitReader::new(slice_at(stream, pos, payload_len, "sub-stream")?);
        pos += payload_len;
        // Saturating: a forged count just decodes blocks until the
        // sub-stream runs dry and `decode_block` errors.
        let end = block_off.saturating_add(blocks).saturating_mul(4).min(n);
        while out.len() < end {
            let take = (end - out.len()).min(4);
            let block = decode_block(&mut r)?;
            out.extend_from_slice(&block[..take]);
        }
    }
    if pos != stream.len() {
        return Err(CompressError::CorruptStream(
            "bytes after the last sub-stream".into(),
        ));
    }
    Ok(out)
}

const COARSEST_LEN: usize = 3;
const MAX_LEVELS: usize = 24;

fn level_lengths(n: usize) -> Vec<usize> {
    let mut lens = vec![n];
    let mut cur = n;
    while cur > COARSEST_LEN && lens.len() < MAX_LEVELS {
        cur = cur.div_ceil(2);
        lens.push(cur);
    }
    lens
}

#[inline]
fn interpolate(recon: &[f32], i: usize, len: usize) -> f32 {
    if i + 1 < len {
        0.5 * (recon[i - 1] + recon[i + 1])
    } else {
        recon[i - 1]
    }
}

/// Seed-path MGARD decompression: fresh per-level reconstruction `Vec`s.
pub fn mgard_decompress(stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    let n_streams = read_preamble(stream, TAG_MGARD)?;
    let mut pos = 10;
    let n = read_len(stream, &mut pos)?;
    let eb = f64::from_bits(read_u64(stream, &mut pos)?);
    // The coarsest level and the coefficient count follow from `n`.
    let lens = level_lengths(n);
    let coarse_len = lens[lens.len() - 1];
    let mut coarse = Vec::with_capacity(safe_capacity(coarse_len, stream.len()));
    for _ in 0..coarse_len {
        let bytes = stream
            .get(pos..pos + 4)
            .ok_or_else(|| CompressError::CorruptStream("truncated coarse level".into()))?;
        pos += 4;
        coarse.push(f32::from_le_bytes(fixed(bytes, "coarse level")?));
    }
    let n_symbols = lens[..lens.len() - 1].iter().map(|&len| len / 2).sum();
    let (symbols, consumed) = huffman_decode_multi(&stream[pos..], n_symbols, n_streams)?;
    pos += consumed;

    let mut sym_iter = symbols.into_iter();
    let mut recon_coarse = coarse;
    for k in (0..lens.len().saturating_sub(1)).rev() {
        let len = lens[k];
        let mut recon = vec![0.0f32; len];
        for (j, &v) in recon_coarse.iter().enumerate() {
            recon[2 * j] = v;
        }
        for i in (1..len).step_by(2) {
            let sym = sym_iter.next().ok_or_else(|| {
                CompressError::CorruptStream("coefficient stream exhausted".into())
            })?;
            if sym == ESCAPE {
                let bytes = stream.get(pos..pos + 4).ok_or_else(|| {
                    CompressError::CorruptStream("truncated outlier table".into())
                })?;
                pos += 4;
                recon[i] = f32::from_le_bytes(fixed(bytes, "outlier")?);
            } else {
                let code = i64::from(sym) - MAX_CODE - 1;
                let pred = interpolate(&recon, i, len);
                recon[i] = (pred as f64 + 2.0 * eb * code as f64) as f32;
            }
        }
        recon_coarse = recon;
    }
    Ok(recon_coarse)
}

// audit:allow(dead-pub) the oracle `fuzz_robustness.rs`, `v2_format.rs` and
// `sz_lattice.rs` hold the chunked container's decoder to.
/// Oracle decode of a [`crate::ChunkedCompressor`] container over
/// `backend`: the tag byte, the element count and the chunk size as
/// varints, a varint byte length for every chunk but the last (which runs
/// to the end), then each chunk decoded by [`decompress`] and held to its
/// share of the values — the chunk size, the last chunk the remainder.
pub fn chunked_decompress(backend: &str, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    if stream.first() != Some(&CHUNKED_TAG) {
        return Err(CompressError::CorruptStream(
            "no chunked container tag".into(),
        ));
    }
    let mut pos = 1;
    let n = read_len(stream, &mut pos)?;
    let chunk_values = read_len(stream, &mut pos)?;
    if chunk_values == 0 {
        return Err(CompressError::CorruptStream("chunk size 0".into()));
    }
    let n_chunks = n.div_ceil(chunk_values);
    let mut chunk_bytes = Vec::new();
    for _ in 1..n_chunks {
        chunk_bytes.push(read_len(stream, &mut pos)?);
    }
    let mut out = Vec::with_capacity(safe_capacity(n, stream.len()));
    for k in 0..n_chunks {
        let len = chunk_bytes.get(k).copied().unwrap_or(stream.len() - pos);
        let chunk = slice_at(stream, pos, len, "chunk")?;
        pos += len;
        let values = decompress(backend, chunk)?;
        if values.len() != chunk_values.min(n - k * chunk_values) {
            return Err(CompressError::CorruptStream(
                "chunk of the wrong length".into(),
            ));
        }
        out.extend(values);
    }
    if pos != stream.len() {
        return Err(CompressError::CorruptStream(
            "bytes after the last chunk".into(),
        ));
    }
    Ok(out)
}

/// Dispatches to the decoder for a backend by [`Compressor::name`]
/// (`"sz"`, `"zfp"`, `"mgard"`).
///
/// [`Compressor::name`]: crate::traits::Compressor::name
pub fn decompress(backend: &str, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
    match backend {
        "sz" => sz_decompress(stream),
        "zfp" => zfp_decompress(stream),
        "mgard" => mgard_decompress(stream),
        other => Err(CompressError::CorruptStream(format!(
            "no reference decoder for backend {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_bound::ErrorBound;
    use crate::traits::Compressor;
    use crate::{huffman, MgardCompressor, SzCompressor, ZfpCompressor};
    use errflow_tensor::rng::StdRng;

    fn smooth_field(n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (t * 11.0).sin() * 2.0 + 0.3 * (t * 47.0).cos() + 0.01 * rng.gen_range(-1.0f32..1.0)
            })
            .collect()
    }

    #[test]
    fn huffman_parity_with_optimized_decoder() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for round in 0..32 {
            let n = rng.gen_range(0usize..4000);
            let alphabet = rng.gen_range(1u16..300);
            let mut symbols: Vec<u16> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            // Splice in some runs so the RLE path is exercised.
            if n > 200 {
                let v = rng.gen_range(0..alphabet);
                symbols[10..150].fill(v);
            }
            let n_streams = 1 + round % 5;
            let enc = huffman::encode_multi(&symbols, n_streams);
            let seed = huffman_decode_multi(&enc, n, n_streams).expect("seed decode");
            let fast = huffman::decode_multi(&enc, n, n_streams).expect("optimized decode");
            assert_eq!(seed, fast);
            assert_eq!(seed.0, symbols);
        }
    }

    #[test]
    fn backend_parity_with_optimized_decoders() {
        let data = smooth_field(10_000);
        let bound = ErrorBound::rel_linf(1e-4);
        for c in [
            &SzCompressor as &dyn Compressor,
            &ZfpCompressor,
            &MgardCompressor,
        ] {
            let stream = c.compress(&data, &bound).expect("compress");
            let seed = decompress(c.name(), &stream).expect("seed decode");
            let fast = c.decompress(&stream, data.len()).expect("optimized decode");
            assert_eq!(
                seed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "backend {} outputs must be bit-identical",
                c.name()
            );
        }
    }

    #[test]
    fn unknown_backend_rejected() {
        assert!(decompress("nope", &[0u8; 32]).is_err());
    }
}
