//! Global and per-axis reductions.

use crate::error::TensorError;
use crate::shape::row_major_strides;
use crate::tensor::Tensor;

impl Tensor {
    // ------------------------------------------------------------------
    // Global reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (0 for an empty tensor).
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean over an empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn max(&self) -> f32 {
        self.try_max().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::max`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyReduction`] on an empty tensor.
    pub fn try_max(&self) -> Result<f32, TensorError> {
        self.as_slice()
            .iter()
            .copied()
            .reduce(f32::max)
            .ok_or(TensorError::EmptyReduction { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn min(&self) -> f32 {
        self.try_min().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::min`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyReduction`] on an empty tensor.
    pub fn try_min(&self) -> Result<f32, TensorError> {
        self.as_slice()
            .iter()
            .copied()
            .reduce(f32::min)
            .ok_or(TensorError::EmptyReduction { op: "min" })
    }

    // ------------------------------------------------------------------
    // Axis reductions
    // ------------------------------------------------------------------

    /// Sums along `axis`, removing that axis from the shape.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        self.reduce_axis(axis, 0.0, |acc, v| acc + v)
    }

    /// Means along `axis`, removing that axis from the shape.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has size 0.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "axis {axis} out of range for rank {}", self.rank());
        let n = self.shape()[axis];
        assert!(n > 0, "mean over an empty axis");
        self.sum_axis(axis).mul_scalar(1.0 / n as f32)
    }

    /// Per-row argmax of a 2-D tensor: for shape `[n, c]` returns the `n`
    /// column indices of each row's maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows expects rank 2, got {:?}", self.shape());
        let (n, c) = (self.shape()[0], self.shape()[1]);
        assert!(c > 0, "argmax_rows with zero columns");
        let s = self.as_slice();
        (0..n)
            .map(|i| {
                let row = &s[i * c..(i + 1) * c];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    fn reduce_axis<F: Fn(f32, f32) -> f32>(&self, axis: usize, init: f32, f: F) -> Tensor {
        assert!(axis < self.rank(), "axis {axis} out of range for rank {}", self.rank());
        let shape = self.shape();
        let strides = row_major_strides(shape);
        let out_shape: Vec<usize> =
            shape.iter().enumerate().filter(|&(i, _)| i != axis).map(|(_, &d)| d).collect();
        let out_len: usize = out_shape.iter().product::<usize>().max(1);
        let mut out = vec![init; out_len];
        // outer = product of dims before axis, inner = product after
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let n = shape[axis];
        let s = self.as_slice();
        let axis_stride = strides[axis];
        for o in 0..outer {
            for i in 0..inner {
                let base = o * n * inner + i;
                let mut acc = init;
                for k in 0..n {
                    acc = f(acc, s[base + k * axis_stride]);
                }
                out[o * inner + i] = acc;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tensor {
        Tensor::arange(6).reshape(&[2, 3]) // [[0,1,2],[3,4,5]]
    }

    #[test]
    fn global_reductions() {
        assert_eq!(t().sum(), 15.0);
        assert_eq!(t().mean(), 2.5);
        assert_eq!(t().max(), 5.0);
        assert_eq!(t().min(), 0.0);
        assert_eq!(Tensor::default().sum(), 0.0);
    }

    #[test]
    fn try_max_on_empty() {
        assert!(Tensor::default().try_max().is_err());
    }

    #[test]
    fn sum_axis_both_axes() {
        assert_eq!(t().sum_axis(0).as_slice(), &[3.0, 5.0, 7.0]);
        assert_eq!(t().sum_axis(1).as_slice(), &[3.0, 12.0]);
    }

    #[test]
    fn mean_axis_values() {
        assert_eq!(t().mean_axis(0).as_slice(), &[1.5, 2.5, 3.5]);
        assert_eq!(t().mean_axis(1).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn axis_reduction_rank3() {
        let u = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s0 = u.sum_axis(0);
        assert_eq!(s0.shape(), &[3, 4]);
        assert_eq!(s0.at(&[0, 0]), 0.0 + 12.0);
        let s1 = u.sum_axis(1);
        assert_eq!(s1.shape(), &[2, 4]);
        assert_eq!(s1.at(&[0, 0]), 0.0 + 4.0 + 8.0);
        let s2 = u.sum_axis(2);
        assert_eq!(s2.shape(), &[2, 3]);
        assert_eq!(s2.at(&[1, 2]), 20.0 + 21.0 + 22.0 + 23.0);
    }

    #[test]
    fn argmax_rows_per_row() {
        let logits = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(logits.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_ties_take_first() {
        let logits = Tensor::from_vec(vec![0.5, 0.5], &[1, 2]);
        assert_eq!(logits.argmax_rows(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "axis")]
    fn sum_axis_out_of_range() {
        t().sum_axis(2);
    }
}
