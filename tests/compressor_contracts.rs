//! Integration tests of the compressor contracts on *realistic* scientific
//! payloads (the synthetic workload fields), not just synthetic sinusoids:
//! error bounds hold, ratios behave, and the paper's backend orderings
//! emerge.

use errflow::prelude::*;
use errflow::scidata::TaskKind;

fn payload(kind: TaskKind) -> Vec<f32> {
    SyntheticTask::of_kind_small(kind, 5)
        .compression_payload()
        .to_vec()
}

#[test]
fn all_backends_honour_linf_bounds_on_all_workloads() {
    for kind in TaskKind::ALL {
        let data = payload(kind);
        for backend in errflow::compress::all_backends() {
            for tol in [1e-2, 1e-4, 1e-6] {
                let bound = ErrorBound::rel_linf(tol);
                let stream = backend.compress(&data, &bound).unwrap();
                let recon = backend.decompress(&stream, data.len()).unwrap();
                assert!(
                    bound.verify(&data, &recon),
                    "{}/{kind:?} tol={tol}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn sz_and_mgard_honour_l2_bounds_zfp_rejects() {
    let data = payload(TaskKind::H2Combustion);
    let bound = ErrorBound::rel_l2(1e-4);
    for backend in errflow::compress::all_backends() {
        if backend.name() == "zfp" {
            assert!(!backend.supports(&bound));
            assert!(backend.compress(&data, &bound).is_err());
        } else {
            let recon = backend
                .decompress(&backend.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "{}", backend.name());
        }
    }
}

#[test]
fn smooth_h2_field_compresses_better_than_rough_borghesi_gradients() {
    // The paper: the vortex-concentrated H2 data "is easier to compress and
    // it achieves a high compression ratio even for small tolerance levels".
    let h2 = payload(TaskKind::H2Combustion);
    let bo = payload(TaskKind::BorghesiFlame);
    let sz = SzCompressor::default();
    let bound = ErrorBound::rel_linf(1e-4);
    let r_h2 = (h2.len() * 4) as f64 / sz.compress(&h2, &bound).unwrap().len() as f64;
    let r_bo = (bo.len() * 4) as f64 / sz.compress(&bo, &bound).unwrap().len() as f64;
    assert!(
        r_h2 > r_bo,
        "H2 ratio {r_h2:.1} should beat Borghesi ratio {r_bo:.1}"
    );
}

#[test]
fn ratios_monotone_in_tolerance_for_all_backends() {
    let data = payload(TaskKind::H2Combustion);
    for backend in errflow::compress::all_backends() {
        let mut last = usize::MAX;
        for tol in [1e-2, 1e-3, 1e-4, 1e-5] {
            let n = backend
                .compress(&data, &ErrorBound::rel_linf(tol))
                .unwrap()
                .len();
            assert!(
                n >= last.min(n),
                "{}: stream grew smaller at tighter tol",
                backend.name()
            );
            // Allow equality (header-dominated regimes) but no shrinking.
            assert!(n + 64 >= last.min(n + 64));
            last = n;
        }
    }
}

#[test]
fn roundtrip_stats_are_consistent() {
    let data = payload(TaskKind::EuroSat);
    for backend in errflow::compress::all_backends() {
        let (recon, stats) = backend
            .roundtrip(&data, &ErrorBound::rel_linf(1e-3))
            .unwrap();
        assert_eq!(recon.len(), data.len());
        assert_eq!(stats.original_bytes, data.len() * 4);
        assert!(stats.compressed_bytes > 0);
        assert!(stats.ratio() > 1.0, "{}", backend.name());
    }
}
