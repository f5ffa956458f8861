//! Element-wise arithmetic and broadcasting binary operations for
//! [`Tensor`].

use crate::error::TensorError;
use crate::shape::{broadcast_shapes, broadcast_strides};
use crate::tensor::Tensor;

impl Tensor {
    // ------------------------------------------------------------------
    // Unary maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.as_slice().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.shape())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise sign: -1, 0 or +1.
    ///
    /// Unlike [`f32::signum`], the sign of `0.0` is `0.0` — this matches the
    /// `sign(∇)` convention used by FGSM/BIM, where a zero gradient must not
    /// perturb the pixel.
    pub fn sign(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Element-wise integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|v| v.powi(n))
    }

    /// Element-wise clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
        self.map(|v| v.clamp(lo, hi))
    }

    /// In-place clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
        self.map_in_place(|v| v.clamp(lo, hi));
    }

    // ------------------------------------------------------------------
    // Scalar arithmetic
    // ------------------------------------------------------------------

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place `self += s * other` (the optimizer/attack hot path).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += s * b;
        }
    }

    /// In-place element-wise scale: `self *= s`.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    // ------------------------------------------------------------------
    // Binary element-wise ops with broadcasting
    // ------------------------------------------------------------------

    /// Applies `f` element-wise over the broadcast of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        self.try_zip_map(other, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::zip_map`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes cannot be
    /// broadcast together.
    pub fn try_zip_map<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        f: F,
    ) -> Result<Tensor, TensorError> {
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            let data =
                self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect();
            return Ok(Tensor::from_vec(data, self.shape()));
        }
        let out_shape = broadcast_shapes(self.shape(), other.shape())?;
        let sa = broadcast_strides(self.shape(), &out_shape);
        let sb = broadcast_strides(other.shape(), &out_shape);
        let len: usize = out_shape.iter().product();
        let mut data = Vec::with_capacity(len);
        let mut index = vec![0usize; out_shape.len()];
        let (da, db) = (self.as_slice(), other.as_slice());
        for _ in 0..len {
            let mut ia = 0;
            let mut ib = 0;
            for (axis, &i) in index.iter().enumerate() {
                ia += i * sa[axis];
                ib += i * sb[axis];
            }
            data.push(f(da[ia], db[ib]));
            for axis in (0..out_shape.len()).rev() {
                index[axis] += 1;
                if index[axis] < out_shape[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Ok(Tensor::from_vec(data, &out_shape))
    }

    /// Element-wise addition with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise maximum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, f32::max)
    }

    /// Element-wise minimum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, f32::min)
    }

    /// In-place element-wise addition (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.map_in_place(|_| value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::arange(6).reshape(&[2, 3])
    }

    #[test]
    fn map_and_map_in_place() {
        let t = t2x3().map(|v| v * 2.0);
        assert_eq!(t.as_slice(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        let mut u = t2x3();
        u.map_in_place(|v| v + 1.0);
        assert_eq!(u.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn sign_semantics() {
        let t = Tensor::from_slice(&[-3.0, 0.0, 5.0]);
        assert_eq!(t.sign().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]).clamp(0.0, 1.0);
        assert_eq!(t.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "clamp")]
    fn clamp_validates_interval() {
        Tensor::zeros(&[1]).clamp(1.0, 0.0);
    }

    #[test]
    fn same_shape_binary_ops() {
        let a = t2x3();
        let b = Tensor::ones(&[2, 3]);
        assert_eq!(a.add(&b).sum(), a.sum() + 6.0);
        assert_eq!(a.sub(&a).sum(), 0.0);
        assert_eq!(a.mul(&b), a);
    }

    #[test]
    fn broadcasting_row_vector() {
        let a = t2x3();
        let row = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let c = a.add(&row);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcasting_column_vector() {
        let a = t2x3();
        let col = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        let c = a.add(&col);
        assert_eq!(c.as_slice(), &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]);
    }

    #[test]
    fn broadcasting_scalar_tensor() {
        let a = t2x3();
        let s = Tensor::from_vec(vec![1.0], &[]);
        assert_eq!(a.add(&s).sum(), a.sum() + 6.0);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn incompatible_broadcast_panics() {
        let _ = t2x3().add(&Tensor::zeros(&[4]));
    }

    #[test]
    fn maximum_minimum() {
        let a = Tensor::from_slice(&[1.0, 5.0]);
        let b = Tensor::from_slice(&[3.0, 2.0]);
        assert_eq!(a.maximum(&b).as_slice(), &[3.0, 5.0]);
        assert_eq!(a.minimum(&b).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_hot_path() {
        let mut a = Tensor::ones(&[3]);
        a.add_scaled(&Tensor::from_slice(&[1.0, 2.0, 3.0]), 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn in_place_assign_ops() {
        let mut a = Tensor::ones(&[2]);
        a.add_assign(&Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.fill(9.0);
        assert_eq!(a.as_slice(), &[9.0, 9.0]);
    }

    #[test]
    fn unary_math() {
        let t = Tensor::from_slice(&[1.0, 4.0]);
        assert_eq!(t.powi(2).as_slice(), &[1.0, 16.0]);
        assert_eq!(Tensor::from_slice(&[-2.0]).abs().as_slice(), &[2.0]);
    }
}
