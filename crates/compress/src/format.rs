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
//! The headerless single-stream layout that predates the container ("v1")
//! is no longer written by anything, and neither is the first SZ container
//! layout ([`BackendTag::Sz`], superseded by [`BackendTag::SzLattice`]).
//! Both stay **readable**: any stream that does not open with the magic,
//! and any container with the retired tag, is handed to the slow decoders
//! in [`crate::reference`], which also decode every layout still written
//! and so serve as the differential oracle for the fast paths.  The
//! magic's top byte is `0xBF`, so reinterpreted as the little-endian `u64`
//! element count that opens every v1 header it exceeds `2^63` — no
//! decodable v1 stream can collide (v1 counts are bounded by payload size
//! long before that).  The tag byte makes a ZFP stream handed to the SZ
//! decoder fail with a typed error instead of being misread.

use crate::traits::CompressError;

/// Container magic: `b"EFv2"` plus three discriminator bytes and a high
/// byte ≥ `0x80` (see module docs for why the high byte matters).
pub const MAGIC_V2: [u8; 8] = *b"EFv2\x9e\xad\xf5\xbf";

/// Sub-streams per payload.  Four matches both the AVX2 ZFP kernel's lane
/// width (4 × 64-bit bit-windows per ymm register) and the ILP sweet spot
/// of the interleaved scalar loops; it is recorded per stream, so the
/// constant can change without invalidating old streams.
pub const V2_STREAMS: usize = 4;

/// Upper bound on the per-stream sub-stream count a decoder will accept.
/// Caps scratch fan-out on forged headers.
pub const MAX_STREAMS: usize = 16;

/// Backend tag byte following the magic.  Tags 2–4 are written by this
/// tree; tag 1 is read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendTag {
    /// Retired SZ layout whose symbols are residuals against a prediction
    /// from *reconstructed* values.  Nothing writes it any more; like the
    /// headerless layout it is decoded only by
    /// [`crate::reference::sz_decompress`].
    Sz = 1,
    /// ZFP-class block stream.
    Zfp = 2,
    /// MGARD-class multilevel coefficient stream.
    Mgard = 3,
    /// SZ-class stream over the error-bound lattice: same container fields
    /// as [`BackendTag::Sz`], symbols are second differences of lattice
    /// indices (see [`crate::sz`]).
    SzLattice = 4,
}

/// `true` when `stream` opens with the container magic.
pub fn is_v2(stream: &[u8]) -> bool {
    stream.len() >= 8 && stream[..8] == MAGIC_V2
}

/// `true` when `stream` is a container carrying `tag` — how a backend whose
/// tag has changed tells the layout it decodes from the one it retired.
pub fn is_tagged(stream: &[u8], tag: BackendTag) -> bool {
    is_v2(stream) && stream.get(8) == Some(&(tag as u8))
}

/// Parses the fixed preamble (magic, backend tag, sub-stream count),
/// advancing `pos` past it.  The caller has already checked [`is_v2`];
/// this validates the tag and bounds the stream count.
pub fn read_preamble(
    stream: &[u8],
    pos: &mut usize,
    expect: BackendTag,
) -> Result<usize, CompressError> {
    *pos += 8; // magic, checked by `is_v2`
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
/// the split never needs to be serialized — headers still declare the
/// per-segment counts and the decoder cross-checks them against this
/// function, making a forged header a typed error rather than a skew.
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

/// `items` cut into the `s` contiguous sub-slices of [`split_even`] — the
/// segments a symbol stream is handed to the Huffman block writer in.
pub fn split_slices<T>(items: &[T], s: usize) -> Vec<&[T]> {
    split_even(items.len(), s)
        .iter()
        .map(|&(off, len)| &items[off..off + len])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_exceeds_any_plausible_v1_count() {
        let as_count = u64::from_le_bytes(MAGIC_V2);
        assert!(as_count > 1 << 63);
    }

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
        assert!(is_v2(&buf));
        let mut pos = 0;
        assert_eq!(
            read_preamble(&buf, &mut pos, BackendTag::Sz).unwrap(),
            V2_STREAMS
        );
        assert_eq!(pos, 10);
        // Wrong backend tag.
        let mut pos = 0;
        assert!(read_preamble(&buf, &mut pos, BackendTag::Zfp).is_err());
        // Zero / oversized stream counts.
        for bad in [0usize, MAX_STREAMS + 1] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC_V2);
            buf.push(BackendTag::Sz as u8);
            buf.push(bad as u8);
            let mut pos = 0;
            assert!(read_preamble(&buf, &mut pos, BackendTag::Sz).is_err());
        }
        assert!(!is_v2(&[1, 2, 3]));
        assert!(!is_v2(b"EFv1\x9e\xad\xf5\xbf"));
        assert!(is_tagged(&buf, BackendTag::Sz));
        assert!(!is_tagged(&buf, BackendTag::SzLattice));
        assert!(!is_tagged(&MAGIC_V2, BackendTag::Sz));
    }
}
