//! Bit-level stream I/O used by the ZFP-class coder and the Huffman coder.
//!
//! [`BitWriter`] packs bits LSB-first into bytes (the encoders write their
//! own packed words; the reference encoders in their tests write through
//! this); [`BitReader`] reads them back.  Both buffer through a 64-bit
//! accumulator so multi-bit operations cost a few ALU ops instead of
//! per-bit byte arithmetic — decompression throughput of the compressors
//! is dominated by these paths.

/// Append-only bit sink.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= (bit as u64) << self.nbits;
        self.nbits += 1;
        if self.nbits == 64 {
            self.flush_words();
        }
    }

    /// Writes the low `n` bits of `value`, LSB first (`n ≤ 64`).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let room = 64 - self.nbits;
        if n <= room {
            self.acc |= value << self.nbits;
            self.nbits += n;
            if self.nbits == 64 {
                self.flush_words();
            }
        } else {
            self.acc |= value << self.nbits;
            let used = room;
            self.nbits = 64;
            self.flush_words();
            self.acc = value >> used;
            self.nbits = n - used;
        }
    }

    #[inline]
    fn flush_words(&mut self) {
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        self.acc = 0;
        self.nbits = 0;
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Finishes the stream, returning the packed bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail_bytes = self.nbits.div_ceil(8) as usize;
        let bytes = self.acc.to_le_bytes();
        self.buf.extend_from_slice(&bytes[..tail_bytes]);
        self.buf
    }

    /// Clears the writer for reuse without releasing its buffer — lets a
    /// scratch-held writer encode repeatedly with zero steady-state
    /// allocations.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.acc = 0;
        self.nbits = 0;
    }

    /// Appends the packed bytes (including the partial tail byte, if any)
    /// to `out` without consuming the writer.  Byte-for-byte identical to
    /// what [`BitWriter::into_bytes`] would return.
    pub fn append_bytes_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf);
        let tail_bytes = self.nbits.div_ceil(8) as usize;
        out.extend_from_slice(&self.acc.to_le_bytes()[..tail_bytes]);
    }
}

/// Sequential bit source with 64-bit buffered reads.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Total readable bits.
    #[inline]
    fn bit_capacity(&self) -> usize {
        self.buf.len() * 8
    }

    /// Loads up to 57 bits starting at the current position (unchecked
    /// beyond stream end — missing bytes read as zero).
    ///
    /// The in-bounds case compiles to a single unaligned 8-byte load plus a
    /// shift; only the last ≤ 7 bytes of a stream take the zero-padded copy.
    #[inline]
    pub(crate) fn peek_word(&self) -> u64 {
        load_word(self.buf, self.pos)
    }

    /// Advances the cursor by `n` bits with no end-of-stream clamp.  Pairs
    /// with [`BitReader::peek_word`] to pull several fields out of one
    /// 57-bit window; the caller must have verified (e.g. once per block)
    /// that `n` more bits exist.
    #[inline]
    pub(crate) fn advance_unchecked(&mut self, n: usize) {
        debug_assert!(self.pos + n <= self.bit_capacity());
        self.pos += n;
    }

    /// Reads one bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bit_capacity() {
            return None;
        }
        let bit = (self.buf[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits LSB-first; `None` if the stream ends early.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if self.pos + n as usize > self.bit_capacity() {
            return None;
        }
        let v = if n <= 57 {
            let w = self.peek_word();
            if n == 64 {
                w
            } else {
                w & ((1u64 << n) - 1)
            }
        } else {
            // Split read for 58..=64 bits.
            let lo = self.peek_word() & ((1u64 << 57) - 1);
            let mut tmp = BitReader {
                buf: self.buf,
                pos: self.pos + 57,
            };
            let hi = tmp.read_bits(n - 57)?;
            lo | (hi << 57)
        };
        self.pos += n as usize;
        Some(v)
    }

    /// Peeks up to 16 bits without consuming; bits past the stream end
    /// read as zero.  Used by the table-driven Huffman decoder.
    #[inline]
    pub fn peek_bits_lossy(&self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        self.peek_word() & ((1u64 << n) - 1)
    }

    /// Reads `n ≤ 57` bits without an end-of-stream check: bits past the
    /// stream end read as zero.  This is the ZFP bit-plane inner-loop fast
    /// path — the caller must have verified (once per block, not per read)
    /// that the stream still holds every bit the block can consume, so the
    /// zero-padding case is unreachable on that path.
    #[inline]
    pub fn read_bits_unchecked(&mut self, n: u32) -> u64 {
        debug_assert!(n >= 1 && n <= 57);
        debug_assert!(self.pos + n as usize <= self.bit_capacity());
        let v = self.peek_word() & ((1u64 << n) - 1);
        self.pos += n as usize;
        v
    }

    /// Advances the cursor by `n` bits (clamped to the stream end).
    #[inline]
    pub fn skip_bits(&mut self, n: u32) {
        self.pos = (self.pos + n as usize).min(self.bit_capacity());
    }

    /// Remaining readable bits.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        self.bit_capacity() - self.pos
    }

    /// Current bit offset.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// Loads up to 57 valid bits of `buf` starting at absolute bit `pos`,
/// LSB-first; bits past the end of `buf` read as zero.
///
/// Shared by [`BitReader`] and the Huffman decoder's register-refill loop.
/// The common (fully in-bounds) case is one unaligned little-endian load
/// and a shift.
#[inline]
pub(crate) fn load_word(buf: &[u8], pos: usize) -> u64 {
    let byte = pos >> 3;
    let shift = (pos & 7) as u32;
    if let Some(&w) = buf
        .get(byte..byte + 8)
        .and_then(|s| <&[u8; 8]>::try_from(s).ok())
    {
        u64::from_le_bytes(w) >> shift
    } else {
        let mut word = [0u8; 8];
        if byte < buf.len() {
            word[..buf.len() - byte].copy_from_slice(&buf[byte..]);
        }
        u64::from_le_bytes(word) >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xdead_beef, 32);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn random_mixed_widths_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let ops: Vec<(u64, u32)> = (0..5000)
            .map(|_| {
                let n = rng.gen_range(1..=64u32);
                let v = rng.gen::<u64>() & if n == 64 { u64::MAX } else { (1 << n) - 1 };
                (v, n)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &ops {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &ops {
            assert_eq!(r.read_bits(n), Some(v), "width {n}");
        }
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // One byte was emitted, so 8 bits are readable, not 9.
        assert!(r.read_bits(8).is_some());
        assert!(r.read_bit().is_none());
    }

    #[test]
    fn empty_stream() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().is_none());
    }

    #[test]
    fn bit_pos_tracks() {
        let mut w = BitWriter::new();
        w.write_bits(0xff, 8);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(5);
        assert_eq!(r.bit_pos(), 5);
    }

    #[test]
    fn peek_and_skip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1100_1010, 8);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits_lossy(4), 0b1010);
        assert_eq!(r.bit_pos(), 0);
        r.skip_bits(4);
        assert_eq!(r.read_bits(4), Some(0b1100));
        // Peeking past the end pads with zeros.
        assert_eq!(r.peek_bits_lossy(8), 0);
    }

    #[test]
    fn unchecked_reads_match_checked() {
        let mut rng = StdRng::seed_from_u64(11);
        let ops: Vec<(u64, u32)> = (0..2000)
            .map(|_| {
                let n = rng.gen_range(1..=57u32);
                (rng.gen::<u64>() & ((1 << n) - 1), n)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &ops {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut checked = BitReader::new(&bytes);
        let mut unchecked = BitReader::new(&bytes);
        for &(v, n) in &ops {
            assert_eq!(checked.read_bits(n), Some(v));
            assert_eq!(unchecked.read_bits_unchecked(n), v, "width {n}");
            assert_eq!(checked.bit_pos(), unchecked.bit_pos());
        }
    }

    #[test]
    fn load_word_handles_tails() {
        let buf = [0xAB, 0xCD, 0xEF];
        // Full in-bounds load is impossible (3 bytes); tail path pads zeros.
        assert_eq!(load_word(&buf, 0), 0x00EFCDAB);
        assert_eq!(load_word(&buf, 8), 0x00EFCD);
        assert_eq!(load_word(&buf, 20), 0x0E);
        assert_eq!(load_word(&buf, 24), 0);
        assert_eq!(load_word(&[], 0), 0);
        // In-bounds path: 9 bytes, read at bit 4.
        let long = [0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, 0x0F];
        assert_eq!(load_word(&long, 4), 0x0FEDCBA987654321);
    }

    #[test]
    fn writer_flushes_across_word_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write_bits(i, 7);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for i in 0..100u64 {
            assert_eq!(r.read_bits(7), Some(i));
        }
    }
}
