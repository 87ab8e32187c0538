//! Tiled out-of-place transpose — the one kernel behind
//! [`crate::Matrix::transpose`] and the feature-major payload layout
//! (`pipeline::planner::{flatten, unflatten}`, `serve::batch`).
//!
//! An element-strided loop (`dst[c * rows + r] = src[r * cols + c]`) writes
//! one value per cache line, and with a power-of-two `rows` those lines
//! land in a handful of L1 sets: at 256 × 256 the destination column being
//! written is 256 lines that map to 4 sets of an 8-way cache.  The kernel
//! walks 16 × 16 tiles instead: a tile is gathered from 16 source rows into
//! a 1 KiB stack buffer, already transposed, and leaves as 16 contiguous
//! 64-byte row copies, so every destination line is written once, whole.

/// Tile edge: 16 `f32` are one 64-byte cache line.
const TILE: usize = 16;

/// Writes the transpose of a `rows` × `cols` matrix whose rows are
/// `row(0), …, row(rows − 1)` — which need not be contiguous with one
/// another — into the row-major `cols` × `rows` buffer `dst`:
/// `dst[c * rows + r] = row(r)[c]`.
///
/// # Panics
/// If `dst` does not hold exactly `rows * cols` values or a source row is
/// shorter than `cols`.
pub fn transpose_rows_into<'a>(
    rows: usize,
    cols: usize,
    row: impl Fn(usize) -> &'a [f32],
    dst: &mut [f32],
) {
    assert_eq!(dst.len(), rows * cols, "transpose destination size");
    let mut tile = [[0.0f32; TILE]; TILE];
    for r0 in (0..rows).step_by(TILE) {
        let h = TILE.min(rows - r0);
        for c0 in (0..cols).step_by(TILE) {
            let w = TILE.min(cols - c0);
            for (i, r) in (r0..r0 + h).enumerate() {
                for (line, &v) in tile.iter_mut().zip(&row(r)[c0..c0 + w]) {
                    line[i] = v;
                }
            }
            for (c, line) in (c0..c0 + w).zip(&tile) {
                dst[c * rows + r0..][..h].copy_from_slice(&line[..h]);
            }
        }
    }
}

/// [`transpose_rows_into`] for a contiguous row-major source:
/// `dst[c * rows + r] = src[r * cols + c]`.
///
/// # Panics
/// If either buffer does not hold exactly `rows * cols` values.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source size");
    transpose_rows_into(rows, cols, |r| &src[r * cols..(r + 1) * cols], dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element-strided loop the kernel replaces.
    fn naive(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut dst = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
        dst
    }

    #[test]
    fn tiled_transpose_equals_the_naive_loop() {
        const EDGES: [usize; 9] = [0, 1, 3, 15, 16, 17, 255, 256, 257];
        for rows in EDGES {
            for cols in EDGES {
                let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
                let want = naive(&src, rows, cols);
                let mut got = vec![-1.0f32; rows * cols];
                transpose_into(&src, rows, cols, &mut got);
                assert_eq!(got, want, "{rows}x{cols} contiguous");
                // The same matrix as separately-allocated rows.
                let split: Vec<Vec<f32>> = src.chunks(cols.max(1)).map(<[f32]>::to_vec).collect();
                if split.len() == rows {
                    got.fill(-1.0);
                    transpose_rows_into(rows, cols, |r| &split[r], &mut got);
                    assert_eq!(got, want, "{rows}x{cols} by rows");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "transpose destination size")]
    fn wrong_destination_size_panics() {
        transpose_into(&[0.0; 6], 2, 3, &mut [0.0; 5]);
    }
}
