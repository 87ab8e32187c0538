//! Tour of the error-bounded compression substrate on a real scientific
//! field: the three paper backends (SZ / ZFP / MGARD) and the
//! chunked-parallel wrapper — with ratios, speeds, and verified error
//! bounds.
//!
//! ```sh
//! cargo run --release --example compression_tour
//! ```

use errflow::compress::chunked::ChunkedCompressor;
use errflow::prelude::*;
use errflow::scidata::h2;

fn main() {
    // A 128×128 H2 mass-fraction field: smooth, vortex-centred — the kind
    // of data these compressors were built for.
    let workload = h2::generate(128, 10, 77);
    let field = &workload.species_fields[0];
    println!(
        "field: {}x{} H2 mass fractions ({} KB)\n",
        field.nx,
        field.ny,
        field.data.len() * 4 / 1024
    );

    println!(
        "{:>12} {:>10} {:>9} {:>12} {:>12}",
        "backend", "tolerance", "ratio", "comp MB/s", "decomp MB/s"
    );
    for tol in [1e-2, 1e-4, 1e-6] {
        let bound = ErrorBound::rel_linf(tol);
        for backend in errflow::compress::all_backends() {
            let (recon, stats) = backend.roundtrip(&field.data, &bound).unwrap();
            assert!(bound.verify(&field.data, &recon), "bound violated!");
            println!(
                "{:>12} {:>10.0e} {:>8.1}x {:>12.1} {:>12.1}",
                backend.name(),
                tol,
                stats.ratio(),
                stats.compress_gbps() * 1000.0,
                stats.decompress_gbps() * 1000.0,
            );
        }
        println!();
    }

    // Chunked-parallel wrapper: same bound contract, multi-core decode.
    let chunked = ChunkedCompressor::new(SzCompressor::default());
    let bound = ErrorBound::rel_linf(1e-4);
    let (recon, stats) = chunked.roundtrip(&field.data, &bound).unwrap();
    assert!(bound.verify(&field.data, &recon));
    println!(
        "chunked-parallel sz @1e-4: {:.1}x ratio across {} cores",
        stats.ratio(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}
