//! Chunked-parallel compression: the multi-core decompression real HPC
//! deployments use.
//!
//! The paper's I/O numbers assume decompression keeps up with a parallel
//! filesystem, which production compressors achieve by splitting data into
//! independently-coded chunks and decoding them on all cores.
//! [`ChunkedCompressor`] wraps any [`Compressor`] backend: the payload is
//! split into fixed-size chunks, each compressed independently (error
//! bounds are resolved to a *pointwise* budget over the whole payload
//! first, so per-chunk compression still honours the global bound), and
//! decompression fans the chunks out on the shared workspace thread pool
//! ([`errflow_tensor::pool`]) — no threads are spawned per call, and the
//! configured `threads` limit caps this job's concurrency without
//! starving other pool users.

//! Decompression is allocation-free per chunk in the steady state: the
//! caller's output buffer is split into disjoint per-chunk slices, and
//! each worker decodes straight into its slice through a pooled
//! [`CodecScratch`](crate::CodecScratch) — no per-chunk `Vec`s and no
//! reassembly copies.
//!
//! ## Container layout
//!
//! ```text
//! [CONTAINER_TAG u8][n varint][chunk_values varint]
//! [chunk byte length varint × (n_chunks − 1)]
//! [chunk streams, concatenated]
//! ```
//!
//! The chunk count is `⌈n / chunk_values⌉` and every chunk but the last
//! holds `chunk_values` values, so neither is written, and the last chunk
//! is the rest of the stream.  Varints are strict
//! ([`crate::traits::read_varint`]); a container that does not open with
//! [`CONTAINER_TAG`] — the retired layout opened with `n` as a `u64` — or
//! whose fields do not frame its chunks exactly, or a chunk that does not
//! decode to its share of the values, is a typed
//! [`CompressError::CorruptStream`].

use crate::error_bound::{BoundMode, ErrorBound};
use crate::scratch::{self, CodecScratch};
use crate::traits::{
    check_count, read_varint_len, write_varint, CompressError, Compressor, DecodeUnit,
};
use std::sync::Mutex;

/// First byte of every chunked container.
pub const CONTAINER_TAG: u8 = 0xC5;

/// Default chunk size in values (256 KiB of f32).
pub const DEFAULT_CHUNK: usize = 65_536;

/// A parallel, chunked wrapper around any compression backend.
pub struct ChunkedCompressor<C> {
    inner: C,
    chunk_values: usize,
    threads: usize,
}

impl<C: Compressor> ChunkedCompressor<C> {
    /// Wraps `inner` with the default chunk size and a thread count sized
    /// for throughput: [`errflow_tensor::pool::hardware_threads`], which
    /// honours the `ERRFLOW_THREADS` override (one env knob governs every
    /// parallel path) and, unlike the shared pool, has no 4-thread floor —
    /// fanning a decode out 4-wide on a 1-core box measures pure
    /// oversubscription (the flat 1.09× chunked scaling recorded in
    /// `BENCH_compress.json`).
    pub fn new(inner: C) -> Self {
        ChunkedCompressor {
            inner,
            chunk_values: DEFAULT_CHUNK,
            threads: errflow_tensor::pool::hardware_threads(),
        }
    }

    /// Overrides the chunk size (in values).
    pub fn with_chunk_values(mut self, chunk_values: usize) -> Self {
        assert!(chunk_values > 0, "chunk size must be nonzero");
        self.chunk_values = chunk_values;
        self
    }

    /// Overrides the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Resolves a (possibly relative / L2) bound on the whole payload to a
    /// pointwise absolute bound that each chunk can enforce independently.
    fn chunk_bound(&self, data: &[f32], bound: &ErrorBound) -> ErrorBound {
        match bound.mode {
            BoundMode::AbsLInf => *bound,
            _ => ErrorBound::abs_linf(bound.pointwise_budget(data)),
        }
    }

    /// Decodes every chunk into its disjoint slice of `out`: in turn
    /// through `scratch`, or fanned out on the shared pool with pooled
    /// scratch per task.  The first failing chunk's error is returned.
    fn decode_chunks(
        &self,
        chunks: &Chunks<'_>,
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let mut parts = Vec::with_capacity(chunks.slices.len());
        let mut rest = out;
        for (&s, &len) in chunks.slices.iter().zip(&chunks.lens) {
            let (head, tail) = rest.split_at_mut(len);
            rest = tail;
            parts.push((s, head));
        }
        if self.threads <= 1 || parts.len() <= 1 {
            return parts
                .into_iter()
                .try_for_each(|(s, dst)| self.inner.decompress_into(s, dst, scratch));
        }
        let cells: Vec<Mutex<Option<(&[u8], &mut [f32])>>> =
            parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        run_parallel(self.threads, &cells, |cell| {
            let taken = errflow_tensor::sync::lock_recover(cell).take();
            match taken {
                Some((s, dst)) => self.inner.decompress_into(s, dst, &mut scratch::acquire()),
                None => Ok(()),
            }
        })?;
        Ok(())
    }
}

impl<C: Compressor> Compressor for ChunkedCompressor<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports(&self, bound: &ErrorBound) -> bool {
        // The pointwise resolution handles every mode, but only if the
        // inner backend takes pointwise bounds (all of ours do).
        self.inner.supports(&ErrorBound::abs_linf(bound.tolerance)) || self.inner.supports(bound)
    }

    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
        let _span = errflow_obs::trace::span("codec.chunked.compress");
        crate::traits::check_tolerance(bound.tolerance)?;
        let per_chunk = self.chunk_bound(data, bound);
        let chunks: Vec<&[f32]> = data.chunks(self.chunk_values.max(1)).collect();
        let streams = run_parallel(self.threads, &chunks, |chunk| {
            self.inner.compress(chunk, &per_chunk)
        })?;

        // Exact container size is known up front — one allocation, no
        // doubling reallocs while concatenating multi-MB chunk streams.
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(21 + 10 * streams.len() + total);
        out.push(CONTAINER_TAG);
        write_varint(&mut out, data.len() as u64);
        write_varint(&mut out, self.chunk_values as u64);
        // The last chunk runs to the end: its length is not written.
        for s in &streams[..streams.len().saturating_sub(1)] {
            write_varint(&mut out, s.len() as u64);
        }
        for s in &streams {
            out.extend_from_slice(s);
        }
        Ok(out)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let _span = errflow_obs::trace::span("codec.chunked.decompress");
        let chunks = Chunks::parse(stream, out.len())?;
        self.decode_chunks(&chunks, out, scratch)
    }

    /// Exposes the container's chunks as units so callers can fan a batch
    /// of payloads out jointly.
    fn decode_units<'a>(
        &self,
        stream: &'a [u8],
        expected_len: usize,
    ) -> Result<Vec<DecodeUnit<'a>>, CompressError> {
        let chunks = Chunks::parse(stream, expected_len)?;
        let mut offset = 0usize;
        Ok(chunks
            .slices
            .iter()
            .zip(&chunks.lens)
            .map(|(&s, &len)| {
                let unit = DecodeUnit {
                    stream: s,
                    offset,
                    len,
                };
                offset += len;
                unit
            })
            .collect())
    }

    fn decode_unit_into(
        &self,
        unit: &DecodeUnit<'_>,
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        debug_assert_eq!(unit.len, out.len(), "unit/output length mismatch");
        self.inner.decompress_into(unit.stream, out, scratch)
    }
}

/// A parsed container: each chunk's bytes and value count.
struct Chunks<'a> {
    slices: Vec<&'a [u8]>,
    lens: Vec<usize>,
}

impl<'a> Chunks<'a> {
    /// Parses the container of the module docs, which must declare the
    /// caller's `expected` values.
    fn parse(stream: &'a [u8], expected: usize) -> Result<Self, CompressError> {
        if stream.first() != Some(&CONTAINER_TAG) {
            return Err(CompressError::CorruptStream(
                "stream does not open with the chunked container tag".into(),
            ));
        }
        let mut pos = 1usize;
        let n = read_varint_len(stream, &mut pos, "element count")?;
        check_count(n, expected)?;
        let chunk_values = read_varint_len(stream, &mut pos, "chunk size")?;
        if chunk_values == 0 {
            return Err(CompressError::CorruptStream("chunk size 0".into()));
        }
        let n_chunks = n.div_ceil(chunk_values);
        // Every chunk but the last costs a length byte or more: reject
        // forged counts before reserving anything.
        if n_chunks.saturating_sub(1) > stream.len() - pos {
            return Err(CompressError::CorruptStream(
                "declared chunk table exceeds stream length".into(),
            ));
        }
        // Each chunk's byte length first, then its value count in place.
        let mut lens = Vec::with_capacity(n_chunks);
        for _ in 1..n_chunks {
            lens.push(read_varint_len(stream, &mut pos, "chunk length")?);
        }
        let mut slices = Vec::with_capacity(n_chunks);
        for len in &mut lens {
            let s = stream
                .get(pos..)
                .and_then(|rest| rest.get(..*len))
                .ok_or_else(|| CompressError::CorruptStream("truncated chunk".into()))?;
            pos += *len;
            slices.push(s);
            *len = chunk_values;
        }
        if n_chunks > 0 {
            slices.push(&stream[pos..]);
            lens.push(n - (n_chunks - 1) * chunk_values);
        } else if pos != stream.len() {
            return Err(CompressError::CorruptStream(
                "bytes after an empty container".into(),
            ));
        }
        Ok(Chunks { slices, lens })
    }
}

/// Maps `f` over `items` with at most `threads` concurrent workers,
/// preserving order.
///
/// Runs on the shared workspace pool ([`errflow_tensor::pool::global`])
/// rather than spawning threads per call; the submitting thread
/// participates, so `threads` is the total concurrency cap for this job
/// (enforced by the pool even when other jobs are queued).
fn run_parallel<I: Sync, O: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(&I) -> Result<O, CompressError> + Sync,
) -> Result<Vec<O>, CompressError> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let mut results: Vec<Option<Result<O, CompressError>>> =
        (0..items.len()).map(|_| None).collect();
    let results_mutex = std::sync::Mutex::new(&mut results);
    errflow_tensor::pool::global().parallel_for(items.len(), threads, |i| {
        let r = f(&items[i]);
        errflow_tensor::sync::lock_recover(&results_mutex)[i] = Some(r);
    });
    results
        .into_iter()
        .map(|r| {
            // `parallel_for` returns only after every index ran; a missing
            // slot means a task died, which surfaces as a decode error
            // rather than a panic.
            r.unwrap_or_else(|| {
                Err(CompressError::CorruptStream(
                    "internal: parallel chunk task did not complete".into(),
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MgardCompressor, SzCompressor, ZfpCompressor};

    fn smooth(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.003).sin() * 3.0 + 0.2 * ((i as f32) * 0.041).cos())
            .collect()
    }

    #[test]
    fn roundtrip_matches_bound_for_all_backends() {
        let data = smooth(300_000);
        let bound = ErrorBound::abs_linf(1e-4);
        let backends: Vec<Box<dyn Compressor>> = vec![
            Box::new(ChunkedCompressor::new(SzCompressor::default())),
            Box::new(ChunkedCompressor::new(ZfpCompressor::default())),
            Box::new(ChunkedCompressor::new(MgardCompressor::default())),
        ];
        for be in &backends {
            let recon = be
                .decompress(&be.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "{}", be.name());
        }
    }

    #[test]
    fn relative_and_l2_bounds_resolved_globally() {
        let data = smooth(100_000);
        let c = ChunkedCompressor::new(SzCompressor::default());
        for bound in [ErrorBound::rel_linf(1e-4), ErrorBound::abs_l2(1e-2)] {
            let recon = c
                .decompress(&c.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "{bound:?}");
        }
    }

    #[test]
    fn parallel_matches_serial_output_values() {
        let data = smooth(200_000);
        let bound = ErrorBound::abs_linf(1e-5);
        let serial = ChunkedCompressor::new(SzCompressor::default()).with_threads(1);
        let parallel = ChunkedCompressor::new(SzCompressor::default()).with_threads(4);
        let s1 = serial.compress(&data, &bound).unwrap();
        let s2 = parallel.compress(&data, &bound).unwrap();
        assert_eq!(s1, s2, "chunked streams must be deterministic");
        assert_eq!(
            serial.decompress(&s1, data.len()).unwrap(),
            parallel.decompress(&s2, data.len()).unwrap()
        );
    }

    #[test]
    fn small_inputs_and_odd_sizes() {
        let c = ChunkedCompressor::new(ZfpCompressor::default()).with_chunk_values(7);
        let bound = ErrorBound::abs_linf(1e-3);
        for n in [0usize, 1, 6, 7, 8, 20] {
            let data = smooth(n);
            let recon = c
                .decompress(&c.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert_eq!(recon.len(), n);
            assert!(bound.verify(&data, &recon), "n={n}");
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let c = ChunkedCompressor::new(SzCompressor::default());
        assert!(c.decompress(&[0; 5], 1).is_err());
        let data = smooth(10_000);
        let stream = c.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
        assert!(c
            .decompress(&stream[..stream.len() - 4], data.len())
            .is_err());
        assert!(c.decompress(&stream, data.len() + 1).is_err());
    }

    #[test]
    fn ratio_overhead_is_modest() {
        // Chunking costs headers; on a large payload the ratio should stay
        // within ~20% of the unchunked backend.
        let data = smooth(500_000);
        let bound = ErrorBound::abs_linf(1e-3);
        let flat = SzCompressor::default().compress(&data, &bound).unwrap();
        let chunked = ChunkedCompressor::new(SzCompressor::default())
            .compress(&data, &bound)
            .unwrap();
        let overhead = chunked.len() as f64 / flat.len() as f64;
        assert!(overhead < 1.25, "chunking overhead {overhead:.2}x");
    }

    /// Backend that records the peak number of simultaneously-running
    /// compress/decompress calls, so the thread cap can be asserted.
    struct ConcurrencyProbe {
        inner: SzCompressor,
        active: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
    }

    impl ConcurrencyProbe {
        fn new() -> Self {
            ConcurrencyProbe {
                inner: SzCompressor::default(),
                active: std::sync::atomic::AtomicUsize::new(0),
                peak: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn enter(&self) {
            use std::sync::atomic::Ordering;
            let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            // Hold the slot long enough that overlapping calls would be
            // observed if the cap were violated.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        fn exit(&self) {
            self.active
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Compressor for &ConcurrencyProbe {
        fn name(&self) -> &'static str {
            "concurrency-probe"
        }

        fn supports(&self, bound: &ErrorBound) -> bool {
            self.inner.supports(bound)
        }

        fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
            self.enter();
            let r = self.inner.compress(data, bound);
            self.exit();
            r
        }

        fn decompress_into(
            &self,
            stream: &[u8],
            out: &mut [f32],
            scratch: &mut CodecScratch,
        ) -> Result<(), CompressError> {
            self.enter();
            let r = self.inner.decompress_into(stream, out, scratch);
            self.exit();
            r
        }
    }

    #[test]
    fn worker_count_never_exceeds_configured_limit() {
        let probe = ConcurrencyProbe::new();
        let c = ChunkedCompressor::new(&probe)
            .with_chunk_values(4_096)
            .with_threads(2);
        let data = smooth(120_000); // ~30 chunks
        let bound = ErrorBound::abs_linf(1e-4);
        let stream = c.compress(&data, &bound).unwrap();
        let recon = c.decompress(&stream, data.len()).unwrap();
        assert!(bound.verify(&data, &recon));
        let peak = probe.peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak >= 1, "probe never ran");
        assert!(
            peak <= 2,
            "observed {peak} concurrent backend calls with threads=2"
        );
    }

    #[test]
    fn default_threads_follow_shared_pool_clamped_to_hardware() {
        // `new()` derives its worker count from the shared workspace pool
        // (ERRFLOW_THREADS-aware) but clamps to the machine's real
        // parallelism: the pool's 4-thread exercise floor must not make a
        // 1-core host fan decodes out 4-wide (that oversubscription was
        // the flat 1.09× chunked scaling in BENCH_compress.json).
        let c = ChunkedCompressor::new(SzCompressor::default());
        let pool_cap = errflow_tensor::pool::global().max_concurrency();
        let hw = errflow_tensor::pool::hardware_threads();
        assert_eq!(c.threads, pool_cap.min(hw).max(1));
        assert!(c.threads <= pool_cap);
    }

    #[test]
    fn decompress_into_matches_the_oracle() {
        let data = smooth(150_000);
        let bound = ErrorBound::abs_linf(1e-4);
        let c = ChunkedCompressor::new(MgardCompressor::default());
        let stream = c.compress(&data, &bound).unwrap();
        let oracle = crate::reference::chunked_decompress("mgard", &stream).unwrap();
        let mut via_into = vec![0.0f32; data.len()];
        let mut scratch = CodecScratch::new();
        c.decompress_into(&stream, &mut via_into, &mut scratch)
            .unwrap();
        assert_eq!(oracle, via_into);
        // Wrong-length output buffers are rejected.
        let mut short = vec![0.0f32; data.len() - 1];
        assert!(c
            .decompress_into(&stream, &mut short, &mut scratch)
            .is_err());
    }

    #[test]
    fn decode_units_tile_payload_and_match_the_oracle() {
        let data = smooth(150_000); // 3 chunks: 64Ki + 64Ki + tail
        let bound = ErrorBound::abs_linf(1e-4);
        let c = ChunkedCompressor::new(SzCompressor::default());
        let stream = c.compress(&data, &bound).unwrap();
        let units = c.decode_units(&stream, data.len()).unwrap();
        assert_eq!(units.len(), 3);
        assert_eq!(units[0].offset, 0);
        let mut expected_off = 0usize;
        let mut out = vec![0.0f32; data.len()];
        let mut scratch = CodecScratch::new();
        for u in &units {
            assert_eq!(u.offset, expected_off, "units must be contiguous");
            expected_off += u.len;
            c.decode_unit_into(u, &mut out[u.offset..u.offset + u.len], &mut scratch)
                .unwrap();
        }
        assert_eq!(expected_off, data.len(), "units must tile the payload");
        assert_eq!(
            out,
            crate::reference::chunked_decompress("sz", &stream).unwrap()
        );
        // Length mismatch is rejected up front.
        assert!(c.decode_units(&stream, data.len() + 1).is_err());
    }

    /// Containers whose fields do not frame their chunks: the chunk
    /// size declares another chunk count than the chunks present, a chunk
    /// decodes to another share of the values, bytes trail an empty
    /// container, and the retired layout (`n` and the chunk size as
    /// `u64`, a `u32` chunk count, `u64` chunk lengths).
    #[test]
    fn containers_that_misframe_their_chunks_are_refused() {
        let data = smooth(10_000);
        let bound = ErrorBound::abs_linf(1e-4);
        let sz = SzCompressor::default();
        let a = sz.compress(&data[..7_000], &bound).unwrap();
        let b = sz.compress(&data[7_000..], &bound).unwrap();
        let container = |n: usize, chunk_values: usize, lens: &[usize], body: &[&[u8]]| {
            let mut out = vec![CONTAINER_TAG];
            write_varint(&mut out, n as u64);
            write_varint(&mut out, chunk_values as u64);
            for &len in lens {
                write_varint(&mut out, len as u64);
            }
            out.extend(body.concat());
            out
        };
        let c = ChunkedCompressor::new(SzCompressor::default());
        let honest = container(10_000, 7_000, &[a.len()], &[&a, &b]);
        assert!(bound.verify(&data, &c.decompress(&honest, data.len()).unwrap()));
        let mut retired = Vec::new();
        retired.extend_from_slice(&10_000u64.to_le_bytes());
        retired.extend_from_slice(&7_000u64.to_le_bytes());
        retired.extend_from_slice(&2u32.to_le_bytes());
        retired.extend_from_slice(&(a.len() as u64).to_le_bytes());
        retired.extend_from_slice(&(b.len() as u64).to_le_bytes());
        retired.extend([&a[..], &b].concat());
        let mut sc = CodecScratch::new();
        let mut out = vec![0.0f32; data.len()];
        for (what, stream) in [
            (
                "three chunks' size",
                container(10_000, 4_000, &[a.len()], &[&a, &b]),
            ),
            (
                "one chunk's size",
                container(10_000, 10_000, &[a.len()], &[&a, &b]),
            ),
            (
                "other shares",
                container(10_000, 6_000, &[a.len()], &[&a, &b]),
            ),
            ("a trailing byte", container(0, 7_000, &[], &[&[0]])),
            ("chunk size 0", container(10_000, 0, &[a.len()], &[&a, &b])),
            ("the retired layout", retired.clone()),
        ] {
            let corrupt =
                |r: Result<(), CompressError>| matches!(r, Err(CompressError::CorruptStream(_)));
            assert!(
                corrupt(c.decompress(&stream, data.len()).map(drop)),
                "{what}"
            );
            assert!(
                corrupt(c.decompress_into(&stream, &mut out, &mut sc)),
                "{what}: decompress_into"
            );
            let units = c.decode_units(&stream, data.len());
            let by_unit = units.and_then(|units| {
                units.iter().try_for_each(|u| {
                    c.decode_unit_into(u, &mut out[u.offset..u.offset + u.len], &mut sc)
                })
            });
            assert!(corrupt(by_unit), "{what}: decode units");
        }
    }

    #[test]
    fn parallel_decode_not_slower() {
        // On a multi-core box the parallel decode should be at least as
        // fast as serial within noise; assert a very loose factor so the
        // test is robust on loaded CI machines.
        let data = smooth(2_000_000);
        let bound = ErrorBound::abs_linf(1e-4);
        let c = ChunkedCompressor::new(SzCompressor::default());
        let stream = c.compress(&data, &bound).unwrap();
        let t0 = std::time::Instant::now();
        let serial = ChunkedCompressor::new(SzCompressor::default())
            .with_threads(1)
            .decompress(&stream, data.len())
            .unwrap();
        let t_serial = t0.elapsed();
        let t1 = std::time::Instant::now();
        let parallel = c.decompress(&stream, data.len()).unwrap();
        let t_parallel = t1.elapsed();
        assert_eq!(serial, parallel);
        assert!(
            t_parallel.as_secs_f64() < t_serial.as_secs_f64() * 2.0,
            "parallel {t_parallel:?} vs serial {t_serial:?}"
        );
    }
}
