//! 2-D convolution via im2col.
//!
//! The EuroSAT workload in the paper uses ResNet models, whose building
//! blocks are 3×3 convolutions.  We lower convolution to GEMM through the
//! standard im2col transformation so the rest of the stack (spectral norms,
//! quantization, error bounds) can treat a convolution layer as a single
//! weight matrix of shape `(out_channels, in_channels·kh·kw)` acting on
//! unrolled patches — the same lowering PyTorch's `unfold` performs and the
//! approximation commonly used when spectrally normalising conv layers.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// Shape of a 2-D feature map: channels × height × width, stored CHW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapShape {
    /// Number of channels.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl MapShape {
    /// Creates a shape; all dimensions must be nonzero.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        MapShape {
            channels,
            height,
            width,
        }
    }

    /// Total number of scalar elements.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// `true` when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Static description of a convolution: kernel size, stride, padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero-padding in both dimensions.
    pub padding: usize,
}

impl ConvSpec {
    /// A `k`×`k` kernel with the given stride and padding.
    pub fn square(k: usize, stride: usize, padding: usize) -> Self {
        ConvSpec {
            kh: k,
            kw: k,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let ho = (h + 2 * self.padding).checked_sub(self.kh);
        let wo = (w + 2 * self.padding).checked_sub(self.kw);
        match (ho, wo) {
            (Some(ho), Some(wo)) => Ok((ho / self.stride + 1, wo / self.stride + 1)),
            _ => Err(TensorError::InvalidDimension {
                op: "output_hw",
                detail: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    self.kh,
                    self.kw,
                    h + 2 * self.padding,
                    w + 2 * self.padding
                ),
            }),
        }
    }
}

/// Unrolls a CHW feature map into the im2col matrix.
///
/// The result has shape `(channels·kh·kw, out_h·out_w)`: each column is one
/// receptive-field patch, so a convolution with weight matrix
/// `(out_channels, channels·kh·kw)` becomes a plain GEMM.
pub fn im2col(input: &[f32], shape: MapShape, spec: ConvSpec) -> Result<Matrix> {
    if input.len() != shape.len() {
        return Err(TensorError::InvalidDimension {
            op: "im2col",
            detail: format!(
                "input buffer length {} does not match shape {:?}",
                input.len(),
                shape
            ),
        });
    }
    let (oh, ow) = spec.output_hw(shape.height, shape.width)?;
    let patch_len = shape.channels * spec.kh * spec.kw;
    let mut out = Matrix::zeros(patch_len, oh * ow);
    let h = shape.height as isize;
    let w = shape.width as isize;
    let pad = spec.padding as isize;

    for c in 0..shape.channels {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let prow = (c * spec.kh + ky) * spec.kw + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        let v = if iy >= 0 && iy < h && ix >= 0 && ix < w {
                            input[(c * shape.height + iy as usize) * shape.width + ix as usize]
                        } else {
                            0.0
                        };
                        out.set(prow, oy * ow + ox, v);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Adjoint of [`im2col`]: scatters a patch matrix back into a CHW buffer,
/// accumulating overlapping contributions.
///
/// This is exactly the operation backpropagation needs to push a gradient
/// through a convolution: if `Y = W · im2col(X)` then
/// `∂L/∂X = col2im(Wᵀ · ∂L/∂Y)`.
pub fn col2im(cols: &Matrix, shape: MapShape, spec: ConvSpec) -> Result<Vec<f32>> {
    let (oh, ow) = spec.output_hw(shape.height, shape.width)?;
    let patch_len = shape.channels * spec.kh * spec.kw;
    if cols.shape() != (patch_len, oh * ow) {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape(),
            rhs: (patch_len, oh * ow),
        });
    }
    let mut out = vec![0.0f32; shape.len()];
    let h = shape.height as isize;
    let w = shape.width as isize;
    let pad = spec.padding as isize;
    for c in 0..shape.channels {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let prow = (c * spec.kh + ky) * spec.kw + kx;
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + ky as isize - pad;
                    if iy < 0 || iy >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + kx as isize - pad;
                        if ix < 0 || ix >= w {
                            continue;
                        }
                        out[(c * shape.height + iy as usize) * shape.width + ix as usize] +=
                            cols.get(prow, oy * ow + ox);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Global average pooling: collapses each channel to its mean.
pub fn global_avg_pool(input: &[f32], shape: MapShape) -> Vec<f32> {
    let hw = (shape.height * shape.width) as f32;
    (0..shape.channels)
        .map(|c| {
            input[c * shape.height * shape.width..(c + 1) * shape.height * shape.width]
                .iter()
                .sum::<f32>()
                / hw
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convolution forward pass: `weights · im2col(input)`.
    ///
    /// `weights` must have shape `(out_channels, in_channels·kh·kw)`.  Returns
    /// the CHW output buffer and its shape.
    fn conv2d(
        input: &[f32],
        shape: MapShape,
        weights: &Matrix,
        spec: ConvSpec,
    ) -> Result<(Vec<f32>, MapShape)> {
        let patches = im2col(input, shape, spec)?;
        if weights.cols() != patches.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: weights.shape(),
                rhs: patches.shape(),
            });
        }
        let (oh, ow) = spec.output_hw(shape.height, shape.width)?;
        let out = weights.matmul(&patches)?;
        let out_shape = MapShape::new(weights.rows(), oh, ow);
        Ok((out.into_vec(), out_shape))
    }

    #[test]
    fn output_hw_same_padding() {
        let spec = ConvSpec::square(3, 1, 1);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (8, 8));
    }

    #[test]
    fn output_hw_stride_two() {
        let spec = ConvSpec::square(3, 2, 1);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn output_hw_kernel_too_large() {
        let spec = ConvSpec::square(5, 1, 0);
        assert!(spec.output_hw(3, 3).is_err());
    }

    #[test]
    fn im2col_identity_kernel_shape() {
        let shape = MapShape::new(1, 3, 3);
        let input: Vec<f32> = (0..9).map(|v| v as f32).collect();
        let cols = im2col(&input, shape, ConvSpec::square(1, 1, 0)).unwrap();
        assert_eq!(cols.shape(), (1, 9));
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_rejects_bad_buffer() {
        let shape = MapShape::new(1, 3, 3);
        assert!(im2col(&[0.0; 4], shape, ConvSpec::square(1, 1, 0)).is_err());
    }

    #[test]
    fn conv2d_identity_kernel_is_noop() {
        let shape = MapShape::new(2, 4, 4);
        let input: Vec<f32> = (0..32).map(|v| v as f32 * 0.1).collect();
        // 1x1 conv whose weight matrix is the 2x2 identity over channels.
        let w = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let (out, out_shape) = conv2d(&input, shape, &w, ConvSpec::square(1, 1, 0)).unwrap();
        assert_eq!(out_shape, shape);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_averaging_kernel() {
        // 3x3 mean filter over a constant image stays constant (interior).
        let shape = MapShape::new(1, 5, 5);
        let input = vec![2.0f32; 25];
        let w = Matrix::from_fn(1, 9, |_, _| 1.0 / 9.0);
        let (out, os) = conv2d(&input, shape, &w, ConvSpec::square(3, 1, 0)).unwrap();
        assert_eq!(os, MapShape::new(1, 3, 3));
        assert!(out.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_padding_zeros_at_border() {
        let shape = MapShape::new(1, 3, 3);
        let input = vec![1.0f32; 9];
        let w = Matrix::from_fn(1, 9, |_, _| 1.0); // 3x3 sum filter
        let (out, os) = conv2d(&input, shape, &w, ConvSpec::square(3, 1, 1)).unwrap();
        assert_eq!(os, MapShape::new(1, 3, 3));
        // centre sees all 9 ones; corner sees 4.
        assert_eq!(out[4], 9.0);
        assert_eq!(out[0], 4.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), Y⟩ = ⟨x, col2im(Y)⟩ — the defining adjoint property.
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(17);
        let shape = MapShape::new(2, 5, 5);
        let spec = ConvSpec::square(3, 1, 1);
        let x: Vec<f32> = (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cols = im2col(&x, shape, spec).unwrap();
        let y = Matrix::from_fn(cols.rows(), cols.cols(), |_, _| rng.gen_range(-1.0..1.0));
        let lhs: f64 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        let back = col2im(&y, shape, spec).unwrap();
        let rhs: f64 = x
            .iter()
            .zip(&back)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn col2im_rejects_bad_shape() {
        let shape = MapShape::new(1, 3, 3);
        let bad = Matrix::zeros(2, 2);
        assert!(col2im(&bad, shape, ConvSpec::square(1, 1, 0)).is_err());
    }

    #[test]
    fn col2im_counts_patch_multiplicity() {
        // All-ones patch matrix: each input position accumulates once per
        // patch that covers it.  Centre of a 3x3 image under 3x3/pad1 conv
        // is covered by all 9 patches.
        let shape = MapShape::new(1, 3, 3);
        let spec = ConvSpec::square(3, 1, 1);
        let cols = Matrix::from_fn(9, 9, |_, _| 1.0);
        let out = col2im(&cols, shape, spec).unwrap();
        assert_eq!(out[4], 9.0);
        assert_eq!(out[0], 4.0); // corner covered by 4 patches
    }

    #[test]
    fn global_avg_pool_per_channel_mean() {
        let shape = MapShape::new(2, 2, 2);
        let input = vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        let out = global_avg_pool(&input, shape);
        assert_eq!(out, vec![1.0, 2.0]);
    }
}
