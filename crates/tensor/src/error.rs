//! Error type shared by all tensor operations.

use std::fmt;

/// Errors raised by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A dimension argument was zero or otherwise invalid.
    InvalidDimension {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Explanation of which dimension was invalid and why.
        detail: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: shape mismatch between {}x{} and {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { op, detail } => {
                write!(f, "{op}: invalid dimension: {detail}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "matmul: shape mismatch between 2x3 and 4x5");
    }

    #[test]
    fn display_invalid_dimension() {
        let e = TensorError::InvalidDimension {
            op: "zeros",
            detail: "rows must be nonzero".into(),
        };
        assert!(e.to_string().contains("rows must be nonzero"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<TensorError>();
    }
}
