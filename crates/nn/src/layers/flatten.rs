//! Flattening between convolutional and dense stages.

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Flattens `[n, d1, d2, ...]` to `[n, d1*d2*...]`, preserving the batch
/// axis. Backward restores the original shape.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: Vec::new() }
    }
}

impl Layer for Flatten {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert!(input.rank() >= 2, "flatten expects a batched input, got {:?}", input.shape());
        self.cached_shape = input.shape().to_vec();
        let n = input.shape()[0];
        let d: usize = input.shape()[1..].iter().product();
        input.reshape(&[n, d])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = std::mem::take(&mut self.cached_shape);
        assert!(!shape.is_empty(), "flatten backward before forward");
        grad_output.reshape(&shape)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let mut l = Flatten::new();
        let x = Tensor::arange(24).reshape(&[2, 3, 4]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 12]);
        let g = l.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4]);
        assert_eq!(g, x);
    }

    #[test]
    fn rank4_to_rank2() {
        let mut l = Flatten::new();
        let y = l.forward(&Tensor::zeros(&[5, 1, 28, 28]), Mode::Eval);
        assert_eq!(y.shape(), &[5, 784]);
    }

    #[test]
    #[should_panic(expected = "batched")]
    fn rejects_rank1() {
        Flatten::new().forward(&Tensor::zeros(&[5]), Mode::Eval);
    }
}
