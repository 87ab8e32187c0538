//! Vector norms and the L2/L∞ relationship the paper relies on.
//!
//! The paper derives bounds in the L2 norm and extends them to L∞ via
//! `(1/√n)‖·‖₂ ≤ ‖·‖∞ ≤ ‖·‖₂`.  [`Norm`] names the two QoI norms used in
//! every experiment; the free functions compute them (with `f64`
//! accumulation so the measurement does not add rounding error of its own).

/// Which norm a tolerance / error is expressed in.
///
/// Matches the paper's figures: every experiment is reported in both L∞
/// (Figs. 3, 5, 7, 11, 13, 15) and L2 (Figs. 4, 6, 8, 12, 14), except ZFP
/// pipelines which only support L∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Norm {
    /// Euclidean norm ‖·‖₂.
    L2,
    /// Max norm ‖·‖∞.
    LInf,
}

impl Norm {
    /// Evaluates this norm on a slice.
    pub fn eval(&self, v: &[f32]) -> f64 {
        match self {
            Norm::L2 => l2(v),
            Norm::LInf => linf(v),
        }
    }

    /// Short lowercase label used by the figure binaries (`"l2"` / `"linf"`).
    pub fn label(&self) -> &'static str {
        match self {
            Norm::L2 => "l2",
            Norm::LInf => "linf",
        }
    }
}

impl std::fmt::Display for Norm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Norm::L2 => write!(f, "L2"),
            Norm::LInf => write!(f, "L-infinity"),
        }
    }
}

/// Euclidean norm with `f64` accumulation.
pub fn l2(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

/// Max (L∞) norm.
pub fn linf(v: &[f32]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()))
}

/// L1 norm.
pub fn l1(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64).abs()).sum()
}

/// Norm of the element-wise difference `a - b`.
pub fn diff_norm(a: &[f32], b: &[f32], norm: Norm) -> f64 {
    assert_eq!(a.len(), b.len(), "diff_norm: length mismatch");
    let d: Vec<f32> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
    norm.eval(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_known() {
        assert!((l2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn linf_known() {
        assert_eq!(linf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn l1_known() {
        assert_eq!(l1(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn norm_eval_dispatch() {
        let v = [3.0, 4.0];
        assert!((Norm::L2.eval(&v) - 5.0).abs() < 1e-12);
        assert_eq!(Norm::LInf.eval(&v), 4.0);
    }

    #[test]
    fn sandwich_inequality_holds() {
        // (1/√n)‖v‖₂ ≤ ‖v‖∞ ≤ ‖v‖₂ — the identity the paper quotes.
        let v = [0.3f32, -1.2, 0.7, 2.5, -0.1];
        let n = v.len() as f64;
        let l2n = l2(&v);
        let linfn = linf(&v);
        assert!(l2n / n.sqrt() <= linfn + 1e-12);
        assert!(linfn <= l2n + 1e-12);
    }

    #[test]
    fn diff_norm_zero_for_equal() {
        let v = [1.0f32, 2.0, 3.0];
        assert_eq!(diff_norm(&v, &v, Norm::L2), 0.0);
        assert_eq!(diff_norm(&v, &v, Norm::LInf), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(Norm::L2.label(), "l2");
        assert_eq!(Norm::LInf.label(), "linf");
        assert_eq!(Norm::LInf.to_string(), "L-infinity");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn diff_norm_length_mismatch_panics() {
        diff_norm(&[1.0], &[1.0, 2.0], Norm::L2);
    }
}
