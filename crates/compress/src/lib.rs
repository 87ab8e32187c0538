//! # errflow-compress
//!
//! Error-bounded lossy compressors built from scratch, one per algorithm
//! class the paper evaluates (§IV-A):
//!
//! * [`SzCompressor`] — SZ-class: error-bounded quantization onto the
//!   lattice `2·eb·ℤ`, linear-extrapolation prediction on the lattice
//!   indices + Huffman coding.  High ratios on smooth HPC fields;
//!   decompression pays the entropy-decode cost (the Fig. 7 dip at tight
//!   tolerances).
//! * [`ZfpCompressor`] — ZFP-class: fixed 4-sample blocks, a reversible
//!   decorrelating lifting transform, and embedded bit-plane coding with a
//!   fixed-accuracy cutoff.  Fast and flat across tolerances; **does not
//!   support an L2 tolerance** (same restriction the paper notes for
//!   Figs. 8, 12, 14).
//! * [`MgardCompressor`] — MGARD-class: multilevel (multigrid) hierarchical
//!   decomposition with per-level error budgeting and entropy coding.
//!
//! All compressors implement [`Compressor`] and honour the same contract:
//! given an [`ErrorBound`], the reconstruction error never exceeds the
//! requested tolerance (property-tested in each module and in the
//! workspace-level integration suite).
//!
//! There is one stream format: every backend writes the multi-stream
//! container described in [`format`] (SZ and MGARD entropy-code through
//! the one Huffman block in [`huffman`]), and each backend has one fast
//! decoder for it, which refuses any other bytes with a typed
//! [`CompressError::CorruptStream`].  [`reference`] holds the slow
//! decoders for the same bytes — the oracle the tests and `compress-bench`
//! compare against.

pub mod bitstream;
pub mod chunked;
pub mod error_bound;
pub mod format;
pub mod huffman;
pub mod metrics;
pub mod mgard;
pub mod reference;
pub mod scratch;
pub mod sz;
pub mod traits;
pub mod zfp;
mod zfp_simd;

pub use chunked::ChunkedCompressor;
pub use error_bound::{BoundMode, ErrorBound};
pub use metrics::CompressionStats;
pub use mgard::MgardCompressor;
pub use scratch::CodecScratch;
pub use sz::SzCompressor;
pub use traits::{CompressError, Compressor, DecodeUnit};
pub use zfp::ZfpCompressor;

/// All three compressor backends, boxed, for sweep experiments.
pub fn all_backends() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(ZfpCompressor),
        Box::new(SzCompressor),
        Box::new(MgardCompressor),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_lists_three() {
        let b = all_backends();
        assert_eq!(b.len(), 3);
        let names: Vec<&str> = b.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["zfp", "sz", "mgard"]);
    }
}
