//! The stream container every backend writes, and helpers its writers and
//! readers share.
//!
//! A stream opens with [`MAGIC_V2`], a backend tag byte and a sub-stream
//! count, then splits its payload into that many independently-decodable
//! sub-streams ([`V2_STREAMS`] when written by this tree), so a decoder can
//! run several dependency chains at once instead of one serial
//! symbol-to-symbol (or block-to-block) chain: interleaved scalar chains
//! for the Huffman block and the SZ predictor, one ZFP block per AVX2 lane
//! where available (see `zfp_simd`).  Which part of the payload is split
//! is the backend's business and is documented on its module.
//!
//! Every count and length a header holds past the preamble is a strict
//! LEB128 varint ([`crate::traits::write_varint`]), and no header holds a
//! field its decoder can derive: segment lengths follow from the element
//! count and [`split_even`], so neither the SZ/MGARD headers nor the
//! Huffman block they share repeat them.
//!
//! The container is the only layout any decoder reads: [`read_preamble`]
//! checks the magic and the tag byte, so bytes without the magic, or a
//! stream tagged for another backend (a ZFP stream handed to the SZ
//! decoder, say), are a typed [`CompressError::CorruptStream`] rather
//! than a misread.  [`crate::reference`] holds slow decoders for the same
//! bytes, the differential oracle for the fast paths.

use crate::traits::CompressError;

/// Container magic: `b"EFv2"` plus four discriminator bytes.
pub const MAGIC_V2: [u8; 8] = *b"EFv2\x9e\xad\xf5\xbf";

/// Sub-streams per payload.  Four matches both the AVX2 ZFP kernel's lane
/// width (4 × 64-bit bit-windows per ymm register) and the ILP sweet spot
/// of the interleaved scalar loops; it is recorded per stream, so the
/// constant can change without invalidating old streams.
pub const V2_STREAMS: usize = 4;

/// Upper bound on the per-stream sub-stream count a decoder will accept.
/// Caps scratch fan-out on forged headers.
pub const MAX_STREAMS: usize = 16;

/// Backend tag byte following the magic.  Tags 1, 3, 4 and 5 belonged to
/// retired layouts and are not reused: a stream carrying one is refused
/// everywhere.  1, 4 and 5 were SZ's (4 coded the second difference of the
/// lattice indices in every segment, 5 a per-segment order behind
/// fixed-width counts and a 5-byte-per-entry code table), 3 was MGARD's
/// with the same fixed-width framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendTag {
    /// ZFP-class block stream.
    Zfp = 2,
    /// SZ-class stream over the error-bound lattice: each segment's symbols
    /// are the order-k differences of its lattice indices, k ∈ {1, 2, 3}
    /// chosen per segment and recorded in the header; counts are varints
    /// (see [`crate::sz`]).
    Sz = 6,
    /// MGARD-class multilevel coefficient stream with varint framing (see
    /// [`crate::mgard`]).
    Mgard = 7,
}

/// Parses the fixed preamble (magic, backend tag, sub-stream count),
/// advancing `pos` past it.  A stream without the magic, tagged for another
/// backend, or declaring a sub-stream count outside `1..=MAX_STREAMS` is a
/// [`CompressError::CorruptStream`].
pub fn read_preamble(
    stream: &[u8],
    pos: &mut usize,
    expect: BackendTag,
) -> Result<usize, CompressError> {
    if stream.get(*pos..).and_then(|rest| rest.get(..8)) != Some(&MAGIC_V2[..]) {
        return Err(CompressError::CorruptStream(
            "stream does not open with the container magic".into(),
        ));
    }
    *pos += 8;
    let tag = crate::traits::read_u8(stream, pos, "v2 backend tag")?;
    if tag != expect as u8 {
        return Err(CompressError::CorruptStream(format!(
            "v2 stream tagged for backend {tag}, expected {}",
            expect as u8
        )));
    }
    let s = crate::traits::read_u8(stream, pos, "v2 stream count")? as usize;
    if s == 0 || s > MAX_STREAMS {
        return Err(CompressError::CorruptStream(format!(
            "v2 sub-stream count {s} outside 1..={MAX_STREAMS}"
        )));
    }
    Ok(s)
}

/// Writes the fixed preamble.
pub fn write_preamble(out: &mut Vec<u8>, tag: BackendTag, n_streams: usize) {
    debug_assert!(n_streams >= 1 && n_streams <= MAX_STREAMS);
    out.extend_from_slice(&MAGIC_V2);
    out.push(tag as u8);
    out.push(n_streams as u8);
}

/// Appends `vals` as little-endian `f32` bytes in bulk.  Per-value
/// `extend_from_slice(&v.to_le_bytes())` pays Vec bookkeeping on every
/// element; staging through a fixed stack buffer amortizes that to one
/// append per 64 values, which matters for the outlier-storm streams
/// tight error bounds produce (nearly every value verbatim).
pub fn write_f32_table(out: &mut Vec<u8>, vals: &[f32]) {
    out.reserve(4 * vals.len());
    let mut buf = [0u8; 4 * 64];
    for chunk in vals.chunks(64) {
        for (dst, v) in buf.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&buf[..4 * chunk.len()]);
    }
}

/// Bulk little-endian `f32` read, the inverse of [`write_f32_table`]:
/// fills `out` from exactly `4 * out.len()` bytes.  The per-element
/// `from_le_bytes` loop vectorizes to a straight copy on LE hosts.
pub fn read_f32_table(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), 4 * out.len());
    for (slot, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *slot = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// The `(offset, len)` segments of one [`split_even`] call: at most
/// [`MAX_STREAMS`] of them, held inline so that neither side of a codec
/// allocates to learn its own segmentation.  Dereferences to the slice of
/// segments.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    segs: [(usize, usize); MAX_STREAMS],
    len: usize,
}

impl std::ops::Deref for Parts {
    type Target = [(usize, usize)];

    fn deref(&self) -> &[(usize, usize)] {
        &self.segs[..self.len]
    }
}

impl<'a> IntoIterator for &'a Parts {
    type Item = &'a (usize, usize);
    type IntoIter = std::slice::Iter<'a, (usize, usize)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Splits `n` items into `s ≤ MAX_STREAMS` contiguous segments whose
/// lengths differ by at most one (the first `n % s` segments get the extra
/// item).  Returns `(offset, len)` per segment; segments may be empty when
/// `n < s`.
///
/// Both encoder and decoder derive the segmentation from `(n, s)` alone, so
/// the split is never serialized: no header declares a segment's length.
///
/// # Panics
/// If `s` is 0 or exceeds [`MAX_STREAMS`] ([`read_preamble`] bounds every
/// count that comes off a stream).
pub fn split_even(n: usize, s: usize) -> Parts {
    assert!(
        (1..=MAX_STREAMS).contains(&s),
        "segment count {s} outside 1..={MAX_STREAMS}"
    );
    let base = n / s;
    let extra = n % s;
    let mut segs = [(0usize, 0usize); MAX_STREAMS];
    let mut off = 0usize;
    for (i, seg) in segs[..s].iter_mut().enumerate() {
        let len = base + usize::from(i < extra);
        *seg = (off, len);
        off += len;
    }
    Parts { segs, len: s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_exactly() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 65_536, 1_000_003] {
            for s in [1usize, 2, 3, 4, 8] {
                let parts = split_even(n, s);
                assert_eq!(parts.len(), s);
                let mut off = 0;
                for &(o, l) in &parts {
                    assert_eq!(o, off);
                    off += l;
                }
                assert_eq!(off, n);
                let lens: Vec<usize> = parts.iter().map(|&(_, l)| l).collect();
                let max = lens.iter().max().copied().unwrap_or(0);
                let min = lens.iter().min().copied().unwrap_or(0);
                assert!(max - min <= 1, "n={n} s={s} lens={lens:?}");
            }
        }
    }

    #[test]
    fn preamble_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        write_preamble(&mut buf, BackendTag::Sz, V2_STREAMS);
        let mut pos = 0;
        assert_eq!(
            read_preamble(&buf, &mut pos, BackendTag::Sz).unwrap(),
            V2_STREAMS
        );
        assert_eq!(pos, 10);
        // Wrong backend tag, and the retired SZ and MGARD tags.
        let mut pos = 0;
        assert!(read_preamble(&buf, &mut pos, BackendTag::Zfp).is_err());
        for tag in [1, 3, 4, 5] {
            let mut retired = buf.clone();
            retired[8] = tag;
            for expect in [BackendTag::Sz, BackendTag::Mgard] {
                let mut pos = 0;
                assert!(read_preamble(&retired, &mut pos, expect).is_err());
            }
        }
        // Zero / oversized stream counts.
        for bad in [0usize, MAX_STREAMS + 1] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC_V2);
            buf.push(BackendTag::Sz as u8);
            buf.push(bad as u8);
            let mut pos = 0;
            assert!(read_preamble(&buf, &mut pos, BackendTag::Sz).is_err());
        }
    }

    #[test]
    fn streams_without_the_magic_are_refused() {
        let mut valid = Vec::new();
        write_preamble(&mut valid, BackendTag::Sz, V2_STREAMS);
        // Every prefix short of the count, a headerless stream (it opened
        // with its element count), and every one-bit miss of the magic.
        let mut refused: Vec<Vec<u8>> = (0..10).map(|len| valid[..len].to_vec()).collect();
        refused.push([&1027u64.to_le_bytes()[..], &[4, 4]].concat());
        for bit in 0..64 {
            let mut near = valid.clone();
            near[bit / 8] ^= 1 << (bit % 8);
            refused.push(near);
        }
        for stream in refused {
            let mut pos = 0;
            let got = read_preamble(&stream, &mut pos, BackendTag::Sz);
            assert!(
                matches!(got, Err(CompressError::CorruptStream(_))),
                "{stream:?}"
            );
        }
    }
}
