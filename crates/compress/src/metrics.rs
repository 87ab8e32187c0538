//! Compression statistics: ratio, footprint, timing, derived throughputs.

/// Outcome statistics of one compress/decompress round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Wall-clock compression time in seconds.
    pub compress_secs: f64,
    /// Wall-clock decompression time in seconds.
    pub decompress_secs: f64,
}

impl CompressionStats {
    /// Compression ratio `original / compressed` (∞-safe: returns
    /// `f64::INFINITY` only if the stream is empty, which backends never
    /// produce for nonempty input).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            f64::INFINITY
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Decompression throughput in GB/s of *original* data produced.
    pub fn decompress_gbps(&self) -> f64 {
        if self.decompress_secs <= 0.0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / self.decompress_secs / 1e9
    }

    /// Compression throughput in GB/s of original data consumed.
    pub fn compress_gbps(&self) -> f64 {
        if self.compress_secs <= 0.0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / self.compress_secs / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CompressionStats {
        CompressionStats {
            original_bytes: 4000,
            compressed_bytes: 400,
            compress_secs: 0.001,
            decompress_secs: 0.002,
        }
    }

    #[test]
    fn ratio() {
        let s = stats();
        assert_eq!(s.ratio(), 10.0);
    }

    #[test]
    fn throughputs() {
        let s = stats();
        assert!((s.decompress_gbps() - 4000.0 / 0.002 / 1e9).abs() < 1e-12);
        assert!((s.compress_gbps() - 4000.0 / 0.001 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let z = CompressionStats {
            original_bytes: 0,
            compressed_bytes: 0,
            compress_secs: 0.0,
            decompress_secs: 0.0,
        };
        assert!(z.ratio().is_infinite());
        assert!(z.decompress_gbps().is_infinite());
    }
}
