//! The compressor interface shared by all backends.

use crate::error_bound::ErrorBound;
use crate::metrics::CompressionStats;
use std::fmt;
use std::time::Instant;

/// Errors raised by compression backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The backend does not support the requested bound mode (e.g. ZFP with
    /// an L2 tolerance — the restriction the paper notes for Figs. 8/12/14).
    UnsupportedBound {
        /// Backend name.
        backend: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The tolerance was non-positive or non-finite.
    InvalidTolerance(String),
    /// The compressed byte stream was malformed.
    CorruptStream(String),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::UnsupportedBound { backend, reason } => {
                write!(f, "{backend}: unsupported error bound: {reason}")
            }
            CompressError::InvalidTolerance(msg) => write!(f, "invalid tolerance: {msg}"),
            CompressError::CorruptStream(msg) => write!(f, "corrupt compressed stream: {msg}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// One independently-decodable span of a compressed stream, produced by
/// [`Compressor::decode_units`]: `stream` decodes to the value range
/// `[offset, offset + len)` of the full payload.
///
/// Units let a caller holding many streams flatten *all* their decode work
/// into one parallel fan-out (the serving batcher's payload × chunk joint
/// scheduling) instead of decoding stream-by-stream.
#[derive(Clone, Copy)]
pub struct DecodeUnit<'a> {
    /// The unit's bytes (a sub-slice of the original stream).
    pub stream: &'a [u8],
    /// Start of this unit's values within the decoded payload.
    pub offset: usize,
    /// Number of values this unit decodes to.
    pub len: usize,
}

/// An error-bounded lossy compressor over `f32` buffers.
///
/// Implementations guarantee: for any input and any supported
/// [`ErrorBound`], `decompress(compress(x, b), x.len())` reconstructs `x̃` with
/// `b.verify(x, x̃) == true`.
pub trait Compressor: Send + Sync {
    /// Short backend name (`"sz"`, `"zfp"`, `"mgard"`).
    fn name(&self) -> &'static str;

    /// `true` when the backend can honour the given bound mode.
    fn supports(&self, bound: &ErrorBound) -> bool;

    /// Compresses `data` under `bound`.
    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError>;

    /// Decodes a stream produced by [`Compressor::compress`] into
    /// `out`, reusing `scratch` for all transient state.  The backend's one
    /// decoder: it checks the count the stream declares against
    /// `out.len()` before it does any work sized by that count, and errors
    /// if the stream does not decode to exactly `out.len()` values.
    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut crate::scratch::CodecScratch,
    ) -> Result<(), CompressError>;

    /// [`Compressor::decompress_into`] into a new buffer of the caller's
    /// `n` values, with pooled scratch.
    fn decompress(&self, stream: &[u8], n: usize) -> Result<Vec<f32>, CompressError> {
        let mut out = vec![0.0f32; n];
        self.decompress_into(stream, &mut out, &mut crate::scratch::acquire())?;
        Ok(out)
    }

    /// Splits `stream` into independently-decodable [`DecodeUnit`]s.
    ///
    /// Contract: the returned units are ordered, contiguous, and tile
    /// exactly `[0, expected_len)`; each decodes via
    /// [`Compressor::decode_unit_into`].  Errors if the stream does not
    /// declare exactly `expected_len` values.  The default treats the whole
    /// stream as one unit, so monolithic backends parallelise at payload
    /// granularity; chunked containers override this to expose per-chunk
    /// parallelism.
    fn decode_units<'a>(
        &self,
        stream: &'a [u8],
        expected_len: usize,
    ) -> Result<Vec<DecodeUnit<'a>>, CompressError> {
        Ok(vec![DecodeUnit {
            stream,
            offset: 0,
            len: expected_len,
        }])
    }

    /// Decodes one unit from [`Compressor::decode_units`] into `out`
    /// (which must be exactly `unit.len` values).
    fn decode_unit_into(
        &self,
        unit: &DecodeUnit<'_>,
        out: &mut [f32],
        scratch: &mut crate::scratch::CodecScratch,
    ) -> Result<(), CompressError> {
        debug_assert_eq!(unit.len, out.len(), "unit/output length mismatch");
        self.decompress_into(unit.stream, out, scratch)
    }

    /// Convenience: compress + decompress + collect timing/ratio stats.
    fn roundtrip(
        &self,
        data: &[f32],
        bound: &ErrorBound,
    ) -> Result<(Vec<f32>, CompressionStats), CompressError> {
        let t0 = Instant::now();
        let stream = self.compress(data, bound)?;
        let compress_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let recon = self.decompress(&stream, data.len())?;
        let decompress_secs = t1.elapsed().as_secs_f64();
        Ok((
            recon,
            CompressionStats {
                original_bytes: data.len() * 4,
                compressed_bytes: stream.len(),
                compress_secs,
                decompress_secs,
            },
        ))
    }
}

/// The check every decoder makes before any work sized by the count a
/// stream declares: that count must be the caller's.
pub(crate) fn check_count(declared: usize, expected: usize) -> Result<(), CompressError> {
    if declared != expected {
        return Err(CompressError::CorruptStream(format!(
            "stream declares {declared} values, expected {expected}"
        )));
    }
    Ok(())
}

/// Caps a header-declared count for the oracle's preallocation
/// ([`crate::reference`] decodes without the caller's length): reserve at
/// most one element per remaining *bit*, bounded by a 16 Mi ceiling.
/// Vectors still grow on demand.  The fast decoders do not use it; they
/// check the declared count against the caller's with [`check_count`].
pub(crate) fn safe_capacity(declared: usize, remaining_bytes: usize) -> usize {
    declared.min(remaining_bytes.saturating_mul(8)).min(1 << 24)
}

/// Checked header readers: every untrusted header field in a codec decoder
/// flows through one of these before it is used for indexing or allocation
/// (enforced by the `unchecked-header-cast` audit rule).  Each reader
/// advances `pos` past the field and fails with [`CompressError`] on
/// truncation or a count that does not fit `usize`.
mod header {
    use super::CompressError;

    fn truncated(what: &'static str) -> CompressError {
        CompressError::CorruptStream(format!("truncated header: {what}"))
    }

    fn take<'a, const N: usize>(
        stream: &'a [u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<[u8; N], CompressError> {
        let bytes = stream
            .get(*pos..)
            .and_then(|rest| rest.get(..N))
            .ok_or_else(|| truncated(what))?;
        *pos += N;
        let mut arr = [0u8; N];
        arr.copy_from_slice(bytes);
        Ok(arr)
    }

    /// Reads a little-endian `u64` count/length field as a checked `usize`.
    pub fn read_len_u64(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<usize, CompressError> {
        let v = u64::from_le_bytes(take::<8>(stream, pos, what)?);
        usize::try_from(v).map_err(|_| {
            CompressError::CorruptStream(format!("header field {what} ({v}) overflows usize"))
        })
    }

    /// Reads a little-endian `u64` *value* field (ids, timings).  Unlike
    /// [`read_len_u64`] the value is not a length, so it is returned
    /// full-range instead of being checked against `usize` — a model id
    /// above `u32::MAX` must still decode on 32-bit targets.
    pub fn read_u64(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<u64, CompressError> {
        Ok(u64::from_le_bytes(take::<8>(stream, pos, what)?))
    }

    /// Reads a little-endian `u32` count/length field as a `usize`.
    pub fn read_len_u32(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<usize, CompressError> {
        Ok(u32::from_le_bytes(take::<4>(stream, pos, what)?) as usize)
    }

    /// Reads a little-endian `f64` header field (tolerances, scales).
    pub fn read_f64(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<f64, CompressError> {
        Ok(f64::from_le_bytes(take::<8>(stream, pos, what)?))
    }

    /// Reads a little-endian `f32` value (outlier / coarse payloads).
    pub fn read_f32(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<f32, CompressError> {
        Ok(f32::from_le_bytes(take::<4>(stream, pos, what)?))
    }

    /// Reads one raw byte (flags).
    pub fn read_u8(
        stream: &[u8],
        pos: &mut usize,
        what: &'static str,
    ) -> Result<u8, CompressError> {
        let b = *stream.get(*pos).ok_or_else(|| truncated(what))?;
        *pos += 1;
        Ok(b)
    }
}

pub use header::{read_f32, read_f64, read_len_u32, read_len_u64, read_u64, read_u8};

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.  Values below 128
/// take one byte, a full `u64` ten.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a [`write_varint`] field of at most `max`, advancing `pos` past
/// it.  Strict: exactly one byte string stands for each value, so a
/// truncated field, an overlong one (a final byte of zero after the first,
/// which a minimal encoding never writes), one past 64 bits, or a value
/// above `max` is a [`CompressError::CorruptStream`] naming `what`.
#[inline]
pub fn read_varint(
    stream: &[u8],
    pos: &mut usize,
    max: u64,
    what: &'static str,
) -> Result<u64, CompressError> {
    // One byte, the common case, without the loop.
    if let Some(&byte) = stream.get(*pos) {
        if byte < 0x80 && u64::from(byte) <= max {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    read_varint_slow(stream, pos, max, what)
}

/// [`read_varint`] past its one-byte case.
#[cold]
fn read_varint_slow(
    stream: &[u8],
    pos: &mut usize,
    max: u64,
    what: &'static str,
) -> Result<u64, CompressError> {
    let corrupt = |why: &str| CompressError::CorruptStream(format!("varint {what}: {why}"));
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *stream.get(*pos).ok_or_else(|| corrupt("truncated"))?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(corrupt("past 64 bits"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(corrupt("overlong encoding"));
            }
            if v > max {
                return Err(corrupt(&format!("{v} exceeds {max}")));
            }
            return Ok(v);
        }
    }
    Err(corrupt("past 64 bits"))
}

/// [`read_varint`] for a count or length: any value that fits `usize`.
#[inline]
pub fn read_varint_len(
    stream: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<usize, CompressError> {
    let v = read_varint(stream, pos, usize::MAX as u64, what)?;
    usize::try_from(v)
        .map_err(|_| CompressError::CorruptStream(format!("varint {what} overflows usize")))
}

/// Validates a tolerance (shared by all backends).
pub fn check_tolerance(tol: f64) -> Result<(), CompressError> {
    if !tol.is_finite() || tol <= 0.0 {
        return Err(CompressError::InvalidTolerance(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_validation() {
        assert!(check_tolerance(1e-3).is_ok());
        assert!(check_tolerance(0.0).is_err());
        assert!(check_tolerance(-1.0).is_err());
        assert!(check_tolerance(f64::NAN).is_err());
        assert!(check_tolerance(f64::INFINITY).is_err());
    }

    #[test]
    fn safe_capacity_caps() {
        assert_eq!(safe_capacity(10, 1000), 10);
        assert_eq!(safe_capacity(usize::MAX, 2), 16);
        assert_eq!(safe_capacity(usize::MAX, usize::MAX), 1 << 24);
    }

    #[test]
    fn header_readers_advance_and_check_bounds() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        buf.push(0xAB);
        let mut pos = 0;
        assert_eq!(read_len_u64(&buf, &mut pos, "n").unwrap(), 7);
        assert_eq!(read_len_u32(&buf, &mut pos, "m").unwrap(), 3);
        assert_eq!(read_f64(&buf, &mut pos, "tol").unwrap(), 1.5);
        assert_eq!(read_u8(&buf, &mut pos, "flag").unwrap(), 0xAB);
        assert_eq!(pos, buf.len());
        assert!(read_u8(&buf, &mut pos, "flag").is_err());
        assert!(read_len_u64(&buf, &mut pos, "n").is_err());
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0u64, 1, 127, 128, 255, 300, 16_383, 16_384, u64::MAX];
        values.extend((1..64).flat_map(|b| [(1u64 << b) - 1, 1u64 << b]));
        for v in values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let width = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(buf.len(), width, "{v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos, u64::MAX, "v").unwrap(), v);
            assert_eq!(pos, buf.len());
            // Every proper prefix is truncated.
            for cut in 0..buf.len() {
                assert!(read_varint(&buf[..cut], &mut 0, u64::MAX, "v").is_err());
            }
        }
    }

    #[test]
    fn varints_are_strict() {
        let corrupt = |bytes: &[u8], max: u64| {
            matches!(
                read_varint(bytes, &mut 0, max, "v"),
                Err(CompressError::CorruptStream(_))
            )
        };
        // Overlong: a zero final byte after the first, at every width.
        assert!(corrupt(&[0x80, 0x00], u64::MAX));
        assert!(corrupt(&[0x81, 0x80, 0x00], u64::MAX));
        assert!(corrupt(&[0xff, 0xff, 0xff, 0xff, 0x8f, 0x00], u64::MAX));
        // Past 64 bits: a tenth byte above 1, or an eleventh byte.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(read_varint(&max, &mut 0, u64::MAX, "v").unwrap(), u64::MAX);
        let mut past = max.clone();
        past[9] = 0x02;
        assert!(corrupt(&past, u64::MAX));
        past[9] = 0x81;
        past.push(0x01);
        assert!(corrupt(&past, u64::MAX));
        // Past the field's range, and exactly at it.
        assert_eq!(
            read_varint(
                &[0xff, 0xff, 0xff, 0xff, 0x0f],
                &mut 0,
                u32::MAX.into(),
                "v"
            )
            .unwrap(),
            u64::from(u32::MAX)
        );
        assert!(corrupt(&[0x80, 0x80, 0x80, 0x80, 0x10], u32::MAX.into()));
        assert!(corrupt(&[0x02], 1));
        // A single zero byte is zero, not overlong.
        assert_eq!(read_varint(&[0x00], &mut 0, 0, "v").unwrap(), 0);
        assert_eq!(read_varint_len(&[0x05], &mut 0, "n").unwrap(), 5);
    }

    #[test]
    fn header_readers_tolerate_huge_positions() {
        let buf = [0u8; 16];
        // A position beyond the stream must error, not wrap or panic.
        let mut pos = usize::MAX - 3;
        assert!(read_len_u32(&buf, &mut pos, "n").is_err());
        assert!(read_f32(&buf, &mut pos, "v").is_err());
    }

    #[test]
    fn error_display() {
        let e = CompressError::UnsupportedBound {
            backend: "zfp",
            reason: "L2 tolerance".into(),
        };
        assert!(e.to_string().contains("zfp"));
        assert!(CompressError::InvalidTolerance("x".into())
            .to_string()
            .contains("invalid"));
        assert!(CompressError::CorruptStream("y".into())
            .to_string()
            .contains("corrupt"));
    }
}
