//! Row-major dense `f32` matrix.
//!
//! The layouts and operations here are deliberately minimal: the neural
//! networks in the paper (compact MLPs and ResNet blocks) only need GEMM,
//! GEMV, transpose, and element-wise maps.  All matrix products route
//! through the blocked, packed, multi-threaded kernel in [`crate::gemm`];
//! the textbook `i-k-j` loop survives as [`Matrix::matmul_naive`] as the
//! reference implementation for parity tests and the `gemm-bench`
//! baseline.

use crate::error::TensorError;
use crate::gemm;
use crate::Result;

/// A dense row-major matrix of `f32` values.
///
/// Weight matrices `W^(l)` in the paper map activations of layer `l-1`
/// (length `cols`) to pre-activations of layer `l` (length `rows`), i.e.
/// `z = W h` with `W` of shape `(n_l, n_{l-1})`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.  Fails if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimension {
                op: "from_vec",
                detail: format!(
                    "buffer of length {} cannot be viewed as {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from rows of equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(TensorError::InvalidDimension {
                op: "from_rows",
                detail: "rows have unequal lengths".into(),
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access; panics when out of range (debug-friendly hot path).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment; panics when out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of the contiguous row slab `[r0, r0 + n_rows)` — the
    /// zero-copy decode target for batch assembly: each payload's decoder
    /// writes its samples straight into its row range of the batch matrix.
    pub fn rows_mut(&mut self, r0: usize, n_rows: usize) -> Result<&mut [f32]> {
        let end = r0.checked_add(n_rows).filter(|&e| e <= self.rows);
        match end {
            Some(e) => Ok(&mut self.data[r0 * self.cols..e * self.cols]),
            None => Err(TensorError::InvalidDimension {
                op: "rows_mut",
                detail: format!(
                    "row slab [{r0}, {r0}+{n_rows}) out of range for {} rows",
                    self.rows
                ),
            }),
        }
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        crate::transpose::transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// GEMM: `self · rhs`, shape-checked.
    ///
    /// Routes through the blocked, panel-packed, multi-threaded kernel in
    /// [`crate::gemm`] (thread budget chosen from the product size); see
    /// [`Matrix::matmul_naive`] for the reference loop.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let threads = gemm::auto_threads(self.rows * self.cols * rhs.cols);
        gemm::gemm(
            self.rows,
            rhs.cols,
            self.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
            threads,
        );
        Ok(out)
    }

    /// GEMM against a stored transpose: `self · rhsᵀ` where `rhs` has shape
    /// `(n, self.cols)`.
    ///
    /// Batched layer application is `H·Wᵀ`; this entry point feeds `W`
    /// directly to the kernel's transposed packing, avoiding the
    /// materialised transpose per layer.
    pub fn matmul_transb(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transb",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let threads = gemm::auto_threads(self.rows * self.cols * rhs.rows);
        gemm::gemm_transb(
            self.rows,
            rhs.rows,
            self.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
            threads,
        );
        Ok(out)
    }

    /// [`Matrix::matmul_transb`] against weight panels packed once with
    /// [`gemm::PackedB::pack_transb`] — bitwise identical, but the per-call
    /// `B` packing pass is already paid (the serving layer packs each plan's
    /// weights at cache-insert time).
    pub fn matmul_transb_prepacked(&self, packed: &gemm::PackedB) -> Result<Matrix> {
        let (k, n) = packed.shape();
        if self.cols != k {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transb_prepacked",
                lhs: self.shape(),
                rhs: (n, k),
            });
        }
        let mut out = Matrix::zeros(self.rows, n);
        let threads = gemm::auto_threads(self.rows * k * n);
        gemm::gemm_prepacked(self.rows, &self.data, packed, &mut out.data, threads);
        Ok(out)
    }

    /// Reference GEMM: the textbook single-threaded `i-k-j` loop.
    ///
    /// Kept as the parity baseline for the blocked kernel (tests assert
    /// agreement within 1e-5 relative error) and as the `gemm-bench`
    /// speedup denominator.  Branch-free on purpose: the old
    /// `if a == 0.0 { continue; }` early-out defeated autovectorization of
    /// the inner AXPY and mispredicted on dense weights.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// GEMV: `self · x` for a vector `x` of length `cols`.
    ///
    /// Routed through [`crate::gemm::gemv`]: lane-split dot products that
    /// autovectorize, with row bands fanned out over the shared pool for
    /// large matrices.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0f32; self.rows];
        let threads = gemm::auto_threads(self.rows * self.cols);
        gemm::gemv(self.rows, self.cols, &self.data, x, &mut out, threads);
        Ok(out)
    }

    /// Transposed GEMV: `selfᵀ · x` for a vector `x` of length `rows`.
    ///
    /// Used by backpropagation (`Wᵀ δ`) without materialising the
    /// transpose.  Branch-free AXPY per row (see [`crate::gemm::gemv_t`]).
    pub fn matvec_t(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_t",
                lhs: (self.cols, self.rows),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0f32; self.cols];
        gemm::gemv_t(self.rows, self.cols, &self.data, x, &mut out);
        Ok(out)
    }

    /// Element-wise sum: `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with("add", rhs, |a, b| a + b)
    }

    /// Element-wise difference: `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with("sub", rhs, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with("hadamard", rhs, |a, b| a * b)
    }

    fn zip_with(
        &self,
        op: &'static str,
        rhs: &Matrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place AXPY: `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Frobenius norm `√Σ w_ij²`.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Minimum element value (`+inf` for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element value (`-inf` for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_builds_and_rejects_ragged() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = m23();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = m23();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m23();
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = m23();
        assert!(a.matmul(&m23()).is_err());
    }

    #[test]
    fn matmul_naive_matches_blocked_kernel() {
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (33, 65, 40),
            (70, 50, 90),
        ] {
            let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f32..1.0));
            let fast = a.matmul(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            for (f, w) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!(
                    (f - w).abs() <= 1e-5 * w.abs().max(1.0),
                    "({m}x{n}x{k}): {f} vs {w}"
                );
            }
        }
    }

    #[test]
    fn matmul_naive_exact_zero_rows_and_columns() {
        // The zero-skip branch is gone; exact-result parity on sparse
        // inputs must hold regardless.
        let mut a = Matrix::zeros(3, 3);
        a.set(1, 1, 2.0);
        let b = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        let fast = a.matmul(&b).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive.as_slice(), &[0.0, 0.0, 6.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::from_fn(13, 29, |_, _| rng.gen_range(-1.0f32..1.0));
        let w = Matrix::from_fn(17, 29, |_, _| rng.gen_range(-1.0f32..1.0));
        let via_transpose = a.matmul(&w.transpose()).unwrap();
        let fused = a.matmul_transb(&w).unwrap();
        assert_eq!(fused.shape(), (13, 17));
        for (f, t) in fused.as_slice().iter().zip(via_transpose.as_slice()) {
            assert!((f - t).abs() <= 1e-5 * t.abs().max(1.0), "{f} vs {t}");
        }
        assert!(a.matmul_transb(&Matrix::zeros(4, 5)).is_err());
    }

    #[test]
    fn matmul_transb_prepacked_bitwise_matches() {
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(29);
        for &(m, n, k) in &[(3usize, 5usize, 4usize), (64, 128, 256)] {
            let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0));
            let w = Matrix::from_fn(n, k, |_, _| rng.gen_range(-1.0f32..1.0));
            let want = a.matmul_transb(&w).unwrap();
            let packed = gemm::PackedB::pack_transb(w.as_slice(), k, n);
            let got = a.matmul_transb_prepacked(&packed).unwrap();
            assert_eq!(got, want, "({m}x{n}x{k})");
        }
        let packed = gemm::PackedB::pack_transb(&[0.0; 20], 5, 4);
        assert!(m23().matmul_transb_prepacked(&packed).is_err());
    }

    #[test]
    fn rows_mut_slab_views_and_bounds() {
        let mut m = Matrix::zeros(4, 3);
        m.rows_mut(1, 2).unwrap().fill(7.0);
        assert!(m.row(0).iter().all(|&v| v == 0.0));
        assert!(m.row(1).iter().chain(m.row(2)).all(|&v| v == 7.0));
        assert!(m.row(3).iter().all(|&v| v == 0.0));
        assert_eq!(m.rows_mut(4, 0).unwrap().len(), 0);
        assert!(m.rows_mut(3, 2).is_err());
        assert!(m.rows_mut(usize::MAX, 2).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m23();
        let x = vec![1.0, -1.0, 2.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![5.0, 11.0]);
    }

    #[test]
    fn matvec_t_is_transpose_product() {
        let a = m23();
        let x = vec![1.0, 2.0];
        let direct = a.transpose().matvec(&x).unwrap();
        let fused = a.matvec_t(&x).unwrap();
        assert_eq!(direct, fused);
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        assert!(m23().matvec(&[1.0, 2.0]).is_err());
        assert!(m23().matvec_t(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = m23();
        let sum = a.add(&a).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = a.sub(&a).unwrap();
        assert!(diff.as_slice().iter().all(|&v| v == 0.0));
        let prod = a.hadamard(&a).unwrap();
        assert_eq!(prod.get(0, 1), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn extrema() {
        let m = Matrix::from_vec(1, 3, vec![-5.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.max_abs(), 5.0);
        assert_eq!(m.min(), -5.0);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    fn map_and_scale() {
        let m = m23();
        assert_eq!(m.scale(2.0).get(0, 0), 2.0);
        assert_eq!(m.map(|v| v - 1.0).get(0, 0), 0.0);
    }
}
