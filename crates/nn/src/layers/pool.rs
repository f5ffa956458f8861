//! Spatial pooling layers.

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Max pooling over non-overlapping (or strided) square windows of a
/// `[n, c, h, w]` tensor.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// Flat source index per output element and the input shape, consumed
    /// by the backward pass.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with `kernel`×`kernel` windows moved by
    /// `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool kernel and stride must be positive");
        MaxPool2d { kernel, stride, cached: None }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(h >= self.kernel && w >= self.kernel, "pool window larger than input");
        ((h - self.kernel) / self.stride + 1, (w - self.kernel) / self.stride + 1)
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 4, "maxpool expects [n, c, h, w], got {:?}", input.shape());
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
        let mut arg = vec![0usize; n * c * oh * ow];
        let data = input.as_slice();
        for b in 0..n {
            for ch in 0..c {
                let plane = (b * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let dst = ((b * c + ch) * oh + oy) * ow + ox;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let src =
                                    plane + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if data[src] > out[dst] {
                                    out[dst] = data[src];
                                    arg[dst] = src;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cached = Some((arg, input.shape().to_vec()));
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (arg, in_shape) = self.cached.take().expect("maxpool backward before forward");
        assert_eq!(grad_output.len(), arg.len(), "maxpool backward shape mismatch");
        let mut gin = Tensor::zeros(&in_shape);
        let gslice = gin.as_mut_slice();
        for (dst, &src) in arg.iter().enumerate() {
            gslice[src] += grad_output.as_slice()[dst];
        }
        gin
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Average pooling over square windows of a `[n, c, h, w]` tensor.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_in_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool kernel and stride must be positive");
        AvgPool2d { kernel, stride, cached_in_shape: Vec::new() }
    }
}

impl Layer for AvgPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 4, "avgpool expects [n, c, h, w], got {:?}", input.shape());
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert!(h >= self.kernel && w >= self.kernel, "pool window larger than input");
        let (oh, ow) = ((h - self.kernel) / self.stride + 1, (w - self.kernel) / self.stride + 1);
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let data = input.as_slice();
        for b in 0..n {
            for ch in 0..c {
                let plane = (b * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                acc += data
                                    [plane + (oy * self.stride + ky) * w + ox * self.stride + kx];
                            }
                        }
                        out[((b * c + ch) * oh + oy) * ow + ox] = acc * norm;
                    }
                }
            }
        }
        self.cached_in_shape = input.shape().to_vec();
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let in_shape = std::mem::take(&mut self.cached_in_shape);
        assert!(!in_shape.is_empty(), "avgpool backward before forward");
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = ((h - self.kernel) / self.stride + 1, (w - self.kernel) / self.stride + 1);
        assert_eq!(grad_output.shape(), &[n, c, oh, ow], "avgpool backward shape mismatch");
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        let mut gin = Tensor::zeros(&in_shape);
        let gslice = gin.as_mut_slice();
        let g = grad_output.as_slice();
        for b in 0..n {
            for ch in 0..c {
                let plane = (b * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = g[((b * c + ch) * oh + oy) * ow + ox] * norm;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                gslice[plane
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx] += gv;
                            }
                        }
                    }
                }
            }
        }
        gin
    }

    fn name(&self) -> &'static str {
        "avgpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_layer_gradients;

    #[test]
    fn maxpool_forward_values() {
        let mut l = MaxPool2d::new(2, 2);
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool2d::new(2, 2);
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let _ = l.forward(&x, Mode::Eval);
        let g = l.backward(&Tensor::ones(&[1, 1, 2, 2]));
        // gradient lands only on the 4 max positions
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0); // value 5 was a window max
        assert_eq!(g.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn maxpool_gradcheck() {
        // well-separated values keep finite differences away from argmax
        // switches
        let x = well_separated(&[2, 2, 4, 4], 0x51EE7);
        crate::testutil::check_layer_gradients_with_input(
            &mut MaxPool2d::new(2, 2),
            &x,
            1e-2,
            7,
            Mode::Train,
        );
    }

    /// A tensor whose entries are a shuffled arithmetic progression with
    /// gap 0.1 — far larger than the finite-difference step.
    fn well_separated(shape: &[usize], seed: u64) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let len: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let order = simpadv_tensor::shuffled_indices(&mut rng, len);
        let data: Vec<f32> = order.iter().map(|&i| i as f32 * 0.1 - (len as f32) * 0.05).collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn avgpool_forward_values() {
        let mut l = AvgPool2d::new(2, 2);
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avgpool_gradcheck() {
        check_layer_gradients(&mut AvgPool2d::new(2, 2), &[2, 1, 4, 4], 1e-2, 8);
    }

    #[test]
    fn overlapping_windows_supported() {
        let mut l = MaxPool2d::new(2, 1);
        let y = l.forward(&Tensor::arange(9).reshape(&[1, 1, 3, 3]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 5.0, 7.0, 8.0]);
        let x = well_separated(&[1, 1, 4, 4], 0xABCD);
        crate::testutil::check_layer_gradients_with_input(
            &mut MaxPool2d::new(2, 1),
            &x,
            1e-2,
            9,
            Mode::Train,
        );
    }

    #[test]
    #[should_panic(expected = "kernel and stride")]
    fn zero_kernel_rejected() {
        MaxPool2d::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn oversized_window_rejected() {
        MaxPool2d::new(5, 1).forward(&Tensor::zeros(&[1, 1, 3, 3]), Mode::Eval);
    }
}
