//! The [`Tensor`] type: storage, constructors, shape manipulation, slicing.

use crate::error::TensorError;
use crate::rng::NormalSampler;
use crate::shape::row_major_strides;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, contiguous tensor of `f32` values.
///
/// `Tensor` is the single data type flowing through the whole `simpadv`
/// stack: images, activations, gradients, weights and adversarial
/// perturbations are all `Tensor`s.
///
/// # Example
///
/// ```
/// use simpadv_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape(), &[2, 3]);
/// assert_eq!(x.len(), 6);
/// let y = x.map(|v| v + 1.0);
/// assert_eq!(y.sum(), 6.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor { data: vec![value; len], shape: shape.to_vec() }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of `shape`.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] when the buffer length
    /// disagrees with the shape.
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let want: usize = shape.iter().product();
        if data.len() != want {
            return Err(TensorError::DataLengthMismatch { data_len: data.len(), shape_len: want });
        }
        Ok(Tensor { data, shape: shape.to_vec() })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// Identity matrix of size `n`×`n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// 1-D tensor `[0, 1, ..., n-1]` as `f32`.
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: vec![n] }
    }

    /// `n` evenly spaced values from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n > 0, "linspace needs at least one point");
        if n == 1 {
            return Tensor::from_slice(&[start]);
        }
        let step = (end - start) / (n - 1) as f32;
        Tensor { data: (0..n).map(|i| start + step * i as f32).collect(), shape: vec![n] }
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.random_range(lo..hi)).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    /// Tensor of i.i.d. normal samples with the given mean and standard
    /// deviation (Box–Muller).
    pub fn rand_normal<R: Rng + ?Sized>(
        rng: &mut R,
        shape: &[usize],
        mean: f32,
        std_dev: f32,
    ) -> Self {
        let len: usize = shape.iter().product();
        let mut sampler = NormalSampler::new(mean, std_dev);
        let data = (0..len).map(|_| sampler.sample(rng)).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimension list.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        let flat = crate::shape::Shape::new(&self.shape).flat_index(index);
        self.data[flat]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = crate::shape::Shape::new(&self.shape).flat_index(index);
        self.data[flat] = value;
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a one-element tensor, got {:?}", self.shape);
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        self.try_reshape(shape).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] when counts differ.
    pub fn try_reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let want: usize = shape.iter().product();
        if want != self.len() {
            return Err(TensorError::ElementCountMismatch { have: self.len(), want });
        }
        Ok(Tensor { data: self.data.clone(), shape: shape.to_vec() })
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose expects rank 2, got {:?}", self.shape);
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; self.len()];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor { data: out, shape: vec![c, r] }
    }

    /// Generalized axis permutation.
    ///
    /// `perm` must be a permutation of `0..rank`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation of the axes.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            assert!(p < self.rank() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let old_strides = row_major_strides(&self.shape);
        let new_strides: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        let mut out = vec![0.0f32; self.len()];
        let mut index = vec![0usize; self.rank()];
        for slot in out.iter_mut() {
            let mut src = 0;
            for (axis, &i) in index.iter().enumerate() {
                src += i * new_strides[axis];
            }
            *slot = self.data[src];
            // increment odometer over new_shape
            for axis in (0..self.rank()).rev() {
                index[axis] += 1;
                if index[axis] < new_shape[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Tensor { data: out, shape: new_shape }
    }

    // ------------------------------------------------------------------
    // Row / batch slicing (axis 0)
    // ------------------------------------------------------------------

    /// Copies the `i`-th slice along axis 0 (keeping the remaining axes).
    ///
    /// For a `[n, d...]` tensor this returns a `[d...]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert!(self.rank() >= 1, "row() needs rank >= 1");
        let n = self.shape[0];
        assert!(i < n, "row index {i} out of bounds for axis of size {n}");
        let stride: usize = self.shape[1..].iter().product();
        let data = self.data[i * stride..(i + 1) * stride].to_vec();
        Tensor { data, shape: self.shape[1..].to_vec() }
    }

    /// Copies rows `range.start..range.end` along axis 0.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn rows(&self, range: std::ops::Range<usize>) -> Tensor {
        assert!(self.rank() >= 1, "rows() needs rank >= 1");
        let n = self.shape[0];
        assert!(
            range.start <= range.end && range.end <= n,
            "row range {range:?} out of bounds for axis of size {n}"
        );
        let stride: usize = self.shape[1..].iter().product();
        let data = self.data[range.start * stride..range.end * stride].to_vec();
        let mut shape = self.shape.clone();
        shape[0] = range.end - range.start;
        Tensor { data, shape }
    }

    /// Gathers rows along axis 0 by index, producing a new tensor with
    /// `indices.len()` rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "gather_rows() needs rank >= 1");
        let n = self.shape[0];
        let stride: usize = self.shape[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * stride);
        for &i in indices {
            assert!(i < n, "gather index {i} out of bounds for axis of size {n}");
            data.extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor { data, shape }
    }

    /// Overwrites the `i`-th slice along axis 0 with `value`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or `i` is out of bounds.
    pub fn set_row(&mut self, i: usize, value: &Tensor) {
        assert!(self.rank() >= 1, "set_row() needs rank >= 1");
        let n = self.shape[0];
        assert!(i < n, "row index {i} out of bounds for axis of size {n}");
        assert_eq!(value.shape(), &self.shape[1..], "set_row shape mismatch");
        let stride: usize = self.shape[1..].iter().product();
        self.data[i * stride..(i + 1) * stride].copy_from_slice(&value.data);
    }

    /// Concatenates tensors along axis 0. All inputs must agree on the
    /// remaining axes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes disagree.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows needs at least one tensor");
        let tail = &parts[0].shape[1..];
        let mut total = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "concat_rows trailing-shape mismatch");
            total += p.shape[0];
        }
        let mut data = Vec::with_capacity(total * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let mut shape = parts[0].shape.clone();
        shape[0] = total;
        Tensor { data, shape }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor { data: Vec::new(), shape: vec![0] }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        const MAX: usize = 16;
        if self.len() <= MAX {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}..; {} elems]", &self.data[..MAX.min(self.len())], self.len())
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rank() == 2 {
            let (r, c) = (self.shape[0], self.shape[1]);
            for i in 0..r.min(8) {
                for j in 0..c.min(12) {
                    write!(f, "{:9.4}", self.data[i * c + j])?;
                }
                if c > 12 {
                    write!(f, " ...")?;
                }
                writeln!(f)?;
            }
            if r > 8 {
                writeln!(f, "... ({r} rows)")?;
            }
            Ok(())
        } else {
            write!(f, "{self:?}")
        }
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator of values into a 1-D tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Tensor { data, shape: vec![n] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_basic() {
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
        assert_eq!(Tensor::from_vec(vec![3.0], &[]).item(), 3.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(2.0, 9.0, 1).as_slice(), &[2.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        let back = t.reshape(&[12]);
        assert_eq!(back.as_slice(), Tensor::arange(12).as_slice());
        assert!(t.try_reshape(&[5]).is_err());
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn permute_matches_transpose() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.permute(&[1, 0]), t.transpose());
        let u = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = u.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), u.at(&[1, 2, 3]));
    }

    #[test]
    fn row_ops() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(t.row(1).as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.rows(1..3).shape(), &[2, 4]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.row(0).as_slice(), t.row(2).as_slice());
        assert_eq!(g.row(1).as_slice(), t.row(0).as_slice());
    }

    #[test]
    fn set_row_overwrites() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set_row(1, &Tensor::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(t.row(1).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0).as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_rows_appends() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[1, 2]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.sum(), 4.0);
    }

    #[test]
    fn rand_constructors_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&mut r1, &[16], 0.0, 1.0);
        let b = Tensor::rand_uniform(&mut r2, &[16], 0.0, 1.0);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::rand_normal(&mut rng, &[20_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn debug_display_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!format!("{t:?}").is_empty());
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("100 elems"));
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tensor = (0..5).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[5]);
        assert_eq!(t.sum(), 10.0);
    }
}
