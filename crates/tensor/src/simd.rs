//! Runtime CPU-feature dispatch shared by every SIMD kernel in the
//! workspace.
//!
//! Every SIMD kernel has a portable scalar body that autovectorizes, plus
//! arms selected at runtime: AVX2-instantiated copies of that body (the
//! codec kernels, `tanh`, the 4×16 GEMM tile, the Lanczos steps) and
//! AVX-512 arms (the GEMM tiles of [`crate::gemm`], `tanh`, the ZFP block
//! encoder), all behind the one [`Level::Avx512`] predicate.  This module
//! centralises the detection so every kernel asks one cached question
//! instead of repeating `is_x86_feature_detected!` probes, and so tests can
//! reason about which arm a host will take.

/// Instruction-set tier a kernel body can target, from weakest to
/// strongest.  Detection is monotone: a host reporting [`Level::Avx2`]
/// supports everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable scalar / autovectorized code only.
    Scalar,
    /// 256-bit integer + FP SIMD with gathers (x86-64 `avx2`).
    Avx2,
    /// AVX2 plus fused multiply-add (x86-64 `avx2,fma`).
    Avx2Fma,
    /// [`Level::Avx2Fma`] plus the x86-64-v4 AVX-512 set: `avx512f`,
    /// `avx512cd` (`vplzcnt`), `avx512vl` (masked 128/256-bit forms),
    /// `avx512bw` and `avx512dq`.  A host with `avx512f` alone (Knights
    /// Landing) reports [`Level::Avx2Fma`].
    Avx512,
}

/// The strongest [`Level`] this host supports, detected once per process.
pub fn level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("fma") {
                    if avx512_v4() {
                        Level::Avx512
                    } else {
                        Level::Avx2Fma
                    }
                } else {
                    Level::Avx2
                }
            } else {
                Level::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Scalar
    }
}

/// The x86-64-v4 AVX-512 subset every [`Level::Avx512`] kernel may use.
#[cfg(target_arch = "x86_64")]
fn avx512_v4() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512cd")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// `true` when 256-bit AVX2 integer/FP kernels (gathers, variable shifts)
/// may be selected.  Used by the codec decode kernels, which carry no FMA.
pub fn has_avx2() -> bool {
    level() >= Level::Avx2
}

/// `true` when 256-bit FMA kernels (the AVX2 GEMM tile, the Lanczos
/// steps) may be selected.
pub fn has_avx2_fma() -> bool {
    level() >= Level::Avx2Fma
}

/// `true` when the AVX-512 kernels (GEMM tiles, `tanh`, ZFP block encode)
/// may be selected.
pub fn has_avx512() -> bool {
    level() >= Level::Avx512
}

/// Environment override for kernel-parity testing: setting
/// `ERRFLOW_NO_SIMD=1` forces every dispatcher that consults
/// [`force_scalar`] onto its portable arm, so portable-vs-SIMD parity can
/// be exercised from the test harness on any host.  Read once per process.
pub fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("ERRFLOW_NO_SIMD")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_monotone() {
        let l = level();
        assert_eq!(l, level(), "detection must be cached");
        if has_avx512() {
            assert_eq!(l, Level::Avx512);
            assert!(has_avx2_fma());
            #[cfg(target_arch = "x86_64")]
            {
                assert!(std::arch::is_x86_feature_detected!("avx512f"));
                assert!(std::arch::is_x86_feature_detected!("avx512cd"));
                assert!(std::arch::is_x86_feature_detected!("avx512vl"));
                assert!(std::arch::is_x86_feature_detected!("avx512bw"));
                assert!(std::arch::is_x86_feature_detected!("avx512dq"));
            }
        }
        if has_avx2_fma() {
            assert!(has_avx2());
        }
        if !has_avx2() {
            assert_eq!(l, Level::Scalar);
        }
    }

    #[test]
    fn ordering_matches_capability() {
        assert!(Level::Scalar < Level::Avx2);
        assert!(Level::Avx2 < Level::Avx2Fma);
        assert!(Level::Avx2Fma < Level::Avx512);
    }
}
