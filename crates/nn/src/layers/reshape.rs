//! Per-example reshaping (e.g. flattened pixels → image planes).

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Reshapes `[n, d...]` to `[n, target...]`, preserving the batch axis —
/// the inverse of [`crate::Flatten`]. Typically the first layer of a
/// convolutional network fed from flattened datasets.
#[derive(Debug, Clone)]
pub struct Reshape {
    target: Vec<usize>,
    cached_shape: Vec<usize>,
}

impl Reshape {
    /// Creates a reshape to the given per-example shape.
    ///
    /// # Panics
    ///
    /// Panics if `target` is empty or has zero elements.
    pub fn new(target: &[usize]) -> Self {
        assert!(!target.is_empty(), "reshape target must be non-empty");
        assert!(target.iter().product::<usize>() > 0, "reshape target has zero elements");
        Reshape { target: target.to_vec(), cached_shape: Vec::new() }
    }

    /// The per-example target shape.
    pub fn target(&self) -> &[usize] {
        &self.target
    }
}

impl Layer for Reshape {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert!(input.rank() >= 2, "reshape expects a batched input, got {:?}", input.shape());
        let n = input.shape()[0];
        let d: usize = input.shape()[1..].iter().product();
        let want: usize = self.target.iter().product();
        assert_eq!(d, want, "cannot reshape {d} per-example elements into {:?}", self.target);
        self.cached_shape = input.shape().to_vec();
        let mut shape = vec![n];
        shape.extend_from_slice(&self.target);
        input.reshape(&shape)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = std::mem::take(&mut self.cached_shape);
        assert!(!shape.is_empty(), "reshape backward before forward");
        grad_output.reshape(&shape)
    }

    fn name(&self) -> &'static str {
        "reshape"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let mut l = Reshape::new(&[1, 4, 4]);
        let x = Tensor::arange(32).reshape(&[2, 16]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 1, 4, 4]);
        let g = l.backward(&y);
        assert_eq!(g.shape(), &[2, 16]);
        assert_eq!(g, x);
        assert_eq!(l.target(), &[1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn element_count_mismatch_rejected() {
        Reshape::new(&[1, 3, 3]).forward(&Tensor::zeros(&[2, 16]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_target_rejected() {
        Reshape::new(&[]);
    }
}
