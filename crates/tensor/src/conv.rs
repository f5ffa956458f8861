//! Convolution lowering: `im2col` / `col2im` and output-geometry math.
//!
//! `simpadv-nn`'s `Conv2d` layer computes convolutions as a single matrix
//! multiplication over patch columns, the standard CPU strategy. The adjoint
//! (`col2im`) scatters column gradients back into image gradients, which is
//! exactly what the backward pass of the convolution needs.

use crate::tensor::Tensor;
use simpadv_runtime::Runtime;

/// Output elements below which the lowering loops stay serial.
const PAR_ELEM_THRESHOLD: usize = 1 << 18;

/// Fixed fan-out of the batched lowering loops; chunk boundaries depend
/// only on the batch size, per the simpadv-runtime determinism contract.
const BATCH_CHUNKS: usize = 16;

/// The runtime and image-chunk size for an `n`-image lowering producing
/// `elems` output floats, or `None` to run serially.
fn parallel_plan(n: usize, elems: usize) -> Option<(Runtime, usize)> {
    let rt = Runtime::global();
    if rt.threads() > 1 && n > 1 && elems >= PAR_ELEM_THRESHOLD {
        Some((rt, n.div_ceil(BATCH_CHUNKS).max(1)))
    } else {
        None
    }
}

/// Geometry of a 2-D convolution: input/kernel sizes, stride and padding.
///
/// # Example
///
/// ```
/// use simpadv_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(28, 28, 3, 3, 1, 1);
/// assert_eq!((g.out_h(), g.out_w()), (28, 28)); // "same" padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    in_h: usize,
    in_w: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (after padding) does not fit in the input or the
    /// stride is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * padding >= k_h && in_w + 2 * padding >= k_w,
            "kernel {k_h}x{k_w} larger than padded input {}x{}",
            in_h + 2 * padding,
            in_w + 2 * padding
        );
        Conv2dGeometry { in_h, in_w, k_h, k_w, stride, padding }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.k_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.k_w) / self.stride + 1
    }

    /// Shape `[rows, cols]` of the patch-column matrix [`im2col`]
    /// produces for an `n`-image, `channels`-channel batch. Shape
    /// introspection for the kernel microbenchmark lab.
    pub fn lowered_shape(&self, n: usize, channels: usize) -> (usize, usize) {
        (n * self.out_h() * self.out_w(), channels * self.k_h * self.k_w)
    }

    /// Logical bytes one [`im2col`] lowering moves for an `n`-image,
    /// `channels`-channel batch: the input read once, the patch-column
    /// matrix written once, at 4 bytes per `f32`. The lowering is pure
    /// data movement, so this — not a flop count — is the scoreboard's
    /// throughput basis.
    pub fn im2col_bytes(&self, n: usize, channels: usize) -> u64 {
        let input = (n * channels * self.in_h * self.in_w) as u64;
        let (rows, cols) = self.lowered_shape(n, channels);
        4 * (input + (rows as u64) * (cols as u64))
    }
}

/// Lowers a batched image tensor `[n, c, h, w]` into patch columns.
///
/// The result has shape `[n * out_h * out_w, c * k_h * k_w]`: one row per
/// output pixel, one column per kernel tap. A convolution with weight
/// `[c_out, c*k_h*k_w]` is then `cols.matmul_nt(weight)`.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its spatial dims disagree with `geom`.
pub fn im2col(input: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col expects [n, c, h, w], got {:?}", input.shape());
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    assert_eq!(c, channels, "im2col channel mismatch");
    assert_eq!((h, w), (geom.in_h, geom.in_w), "im2col spatial-dim mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (kh, kw) = (geom.k_h, geom.k_w);
    let cols_per_row = c * kh * kw;
    let data = input.as_slice();

    // Patch columns for images `images`: one contiguous row block per
    // image, so per-image blocks concatenate into the full lowering.
    let image_block = |images: std::ops::Range<usize>| -> Vec<f32> {
        let mut out = vec![0.0f32; images.len() * oh * ow * cols_per_row];
        let pad = geom.padding as isize;
        for (block_b, b) in images.enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((block_b * oh + oy) * ow + ox) * cols_per_row;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * geom.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue; // stays zero (zero padding)
                            }
                            for kx in 0..kw {
                                let ix = (ox * geom.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let src = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                                let dst = row + (ch * kh + ky) * kw + kx;
                                out[dst] = data[src];
                            }
                        }
                    }
                }
            }
        }
        out
    };

    let total = n * oh * ow * cols_per_row;
    let out = match parallel_plan(n, total) {
        Some((rt, chunk)) => {
            let blocks = rt.par_chunks(n, chunk, image_block);
            let mut out = Vec::with_capacity(total);
            for block in blocks {
                out.extend_from_slice(&block);
            }
            out
        }
        None => image_block(0..n),
    };
    Tensor::from_vec(out, &[n * oh * ow, cols_per_row])
}

/// Adjoint of [`im2col`]: scatters patch-column gradients back into an image
/// gradient of shape `[n, c, h, w]`, summing overlapping contributions.
///
/// # Panics
///
/// Panics if `cols` does not have the shape [`im2col`] would produce for
/// `(n, channels, geom)`.
pub fn col2im(cols: &Tensor, n: usize, channels: usize, geom: &Conv2dGeometry) -> Tensor {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (kh, kw) = (geom.k_h, geom.k_w);
    let (h, w) = (geom.in_h, geom.in_w);
    let cols_per_row = channels * kh * kw;
    assert_eq!(
        cols.shape(),
        &[n * oh * ow, cols_per_row],
        "col2im shape mismatch: expected [{}, {}], got {:?}",
        n * oh * ow,
        cols_per_row,
        cols.shape()
    );
    let data = cols.as_slice();

    // Image gradients for images `images`: overlap sums only ever cross
    // pixels of the *same* image, so per-image blocks are independent and
    // concatenate into the full scatter with the serial summation order.
    let image_block = |images: std::ops::Range<usize>| -> Vec<f32> {
        let mut out = vec![0.0f32; images.len() * channels * h * w];
        let pad = geom.padding as isize;
        for (block_b, b) in images.enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * cols_per_row;
                    for ch in 0..channels {
                        for ky in 0..kh {
                            let iy = (oy * geom.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * geom.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let dst =
                                    ((block_b * channels + ch) * h + iy as usize) * w + ix as usize;
                                let src = row + (ch * kh + ky) * kw + kx;
                                out[dst] += data[src];
                            }
                        }
                    }
                }
            }
        }
        out
    };

    let total = n * channels * h * w;
    let out = match parallel_plan(n, total.max(n * oh * ow * cols_per_row)) {
        Some((rt, chunk)) => {
            let blocks = rt.par_chunks(n, chunk, image_block);
            let mut out = Vec::with_capacity(total);
            for block in blocks {
                out.extend_from_slice(&block);
            }
            out
        }
        None => image_block(0..n),
    };
    Tensor::from_vec(out, &[n, channels, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(28, 28, 3, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
    }

    #[test]
    fn geometry_valid_padding_and_stride() {
        let g = Conv2dGeometry::new(28, 28, 5, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g2 = Conv2dGeometry::new(28, 28, 2, 2, 2, 0);
        assert_eq!((g2.out_h(), g2.out_w()), (14, 14));
    }

    #[test]
    fn lowered_shape_matches_im2col_output() {
        let g = Conv2dGeometry::new(6, 6, 3, 3, 1, 1);
        let input = Tensor::ones(&[2, 3, 6, 6]);
        let cols = im2col(&input, 3, &g);
        let (rows, width) = g.lowered_shape(2, 3);
        assert_eq!(cols.shape(), &[rows, width]);
        // bytes: the input read once + the lowering written once
        let expected = 4 * (input.len() as u64 + (rows * width) as u64);
        assert_eq!(g.im2col_bytes(2, 3), expected);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn geometry_rejects_zero_stride() {
        Conv2dGeometry::new(8, 8, 3, 3, 0, 0);
    }

    #[test]
    #[should_panic(expected = "larger than")]
    fn geometry_rejects_oversized_kernel() {
        Conv2dGeometry::new(2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: columns are just pixels.
        let x = Tensor::arange(8).reshape(&[1, 2, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 1, 1, 1, 0);
        let cols = im2col(&x, 2, &g);
        assert_eq!(cols.shape(), &[4, 2]);
        // row p holds (channel0 pixel p, channel1 pixel p)
        assert_eq!(cols.row(0).as_slice(), &[0.0, 4.0]);
        assert_eq!(cols.row(3).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn im2col_extracts_patches() {
        // single channel 3x3 image, 2x2 kernel, stride 1, no padding
        let x = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        let cols = im2col(&x, 1, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        assert_eq!(cols.row(0).as_slice(), &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(cols.row(3).as_slice(), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_zero_padding_borders() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 3, 3, 1, 1);
        let cols = im2col(&x, 1, &g);
        assert_eq!(cols.shape(), &[4, 9]);
        // top-left output pixel: only bottom-right 2x2 of kernel hits image
        let r0 = cols.row(0);
        assert_eq!(r0.sum(), 4.0);
        assert_eq!(r0.as_slice()[0], 0.0); // padded corner
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y
        let x = Tensor::arange(18).reshape(&[1, 2, 3, 3]).map(|v| (v * 0.37).sin());
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 1);
        let cols = im2col(&x, 2, &g);
        let y = cols.map(|v| (v + 1.0) * 0.5 + 0.1);
        let back = col2im(&y, 1, 2, &g);
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_counts_overlaps() {
        // all-ones columns scattered back count how many patches cover a pixel
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let img = col2im(&cols, 1, 1, &g);
        // centre pixel is covered by all 4 patches
        assert_eq!(img.at(&[0, 0, 1, 1]), 4.0);
        // corners by exactly 1
        assert_eq!(img.at(&[0, 0, 0, 0]), 1.0);
    }
}
