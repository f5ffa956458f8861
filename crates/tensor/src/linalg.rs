//! Dense linear algebra: matrix multiplication variants, dot and outer
//! products.
//!
//! The matmul kernels use the cache-friendly `i-k-j` loop order; that is
//! within a small factor of a tuned BLAS for the matrix sizes that occur
//! (hundreds by hundreds). Products above [`PAR_WORK_THRESHOLD`] are
//! row-blocked across the global [`Runtime`]: every output row is
//! computed by the same per-row loop as the serial kernel and the blocks
//! are concatenated in row order, so parallel results are bitwise equal
//! to serial ones for any thread count.

use crate::error::TensorError;
use crate::tensor::Tensor;
use simpadv_runtime::Runtime;

/// Work size (`m * k * n` multiply-accumulates) below which the matmul
/// kernels stay serial: thread spawn overhead beats the parallel win for
/// small products.
const PAR_WORK_THRESHOLD: usize = 1 << 21;

/// Fixed fan-out of the row-blocked kernels. Chunk boundaries depend only
/// on the row count — never on the thread count — per the simpadv-runtime
/// determinism contract.
const KERNEL_CHUNKS: usize = 16;

/// Logical multiply-accumulate count of an `[m, k] x [k, n]` product —
/// the exact amount every matmul variant ticks into the trace clock.
/// Shape introspection for the kernel microbenchmark lab: the scoreboard
/// derives GFLOP/s from this, never from a measured counter.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    (m as u64) * (k as u64) * (n as u64)
}

/// Logical bytes an `[m, k] x [k, n]` product moves: both operands read
/// once, the output written once, at 4 bytes per `f32`. A lower bound
/// (cache re-reads are not modeled), used for the scoreboard's bytes/s.
pub fn matmul_bytes(m: usize, k: usize, n: usize) -> u64 {
    4 * ((m as u64) * (k as u64) + (k as u64) * (n as u64) + (m as u64) * (n as u64))
}

/// The runtime and row-chunk size to use for an `m`-row product with
/// `work = m * k * n`, or `None` to run serially.
fn parallel_plan(m: usize, k: usize, n: usize) -> Option<(Runtime, usize)> {
    let rt = Runtime::global();
    if rt.threads() > 1 && m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_WORK_THRESHOLD {
        Some((rt, m.div_ceil(KERNEL_CHUNKS).max(1)))
    } else {
        None
    }
}

/// Concatenates per-chunk output row blocks (already in row order).
fn concat_blocks(blocks: Vec<Vec<f32>>, m: usize, n: usize) -> Tensor {
    let mut out = Vec::with_capacity(m * n);
    for block in blocks {
        out.extend_from_slice(&block);
    }
    Tensor::from_vec(out, &[m, n])
}

/// Rows `rows` of `a @ b` (`a: [m, k]`, `b: [k, n]`), `i-k-j` order.
fn matmul_rows(a: &[f32], b: &[f32], rows: std::ops::Range<usize>, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    for (row_idx, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[row_idx * n..(row_idx + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Rows `rows` of `aᵀ @ b` (`a: [k, m]`, `b: [k, n]`): for each output
/// row `i`, accumulates over `p` in increasing order with the same
/// zero-skip as the serial `p`-outer kernel, so per-element flop order —
/// and therefore the f32 result — is identical.
fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    rows: std::ops::Range<usize>,
    k: usize,
    m: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    for (row_idx, i) in rows.enumerate() {
        let orow = &mut out[row_idx * n..(row_idx + 1) * n];
        for p in 0..k {
            let av = a[p * m + i];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Rows `rows` of `a @ bᵀ` (`a: [m, k]`, `b: [n, k]`), dot per cell.
fn matmul_nt_rows(
    a: &[f32],
    b: &[f32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    for (row_idx, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[row_idx * n..(row_idx + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    out
}

impl Tensor {
    /// Matrix product `self @ rhs` of two rank-2 tensors.
    ///
    /// Shapes: `[m, k] @ [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul")?;
        check_rank2(rhs, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul",
            });
        }
        simpadv_trace::clock::add_flops(matmul_flops(m, k, n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        if let Some((rt, chunk)) = parallel_plan(m, k, n) {
            let blocks = rt.par_chunks(m, chunk, |rows| matmul_rows(a, b, rows, k, n));
            return Ok(concat_blocks(blocks, m, n));
        }
        Ok(Tensor::from_vec(matmul_rows(a, b, 0..m, k, n), &[m, n]))
    }

    /// `selfᵀ @ rhs` without materializing the transpose.
    ///
    /// Shapes: `[k, m]ᵀ @ [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension
    /// disagrees.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul_tn(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul_tn`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when the shared dimension disagrees.
    pub fn try_matmul_tn(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul_tn")?;
        check_rank2(rhs, "matmul_tn")?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul_tn",
            });
        }
        simpadv_trace::clock::add_flops(matmul_flops(m, k, n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        // out[i][j] = sum_p a[p][i] * b[p][j]
        if let Some((rt, chunk)) = parallel_plan(m, k, n) {
            let blocks = rt.par_chunks(m, chunk, |rows| matmul_tn_rows(a, b, rows, k, m, n));
            return Ok(concat_blocks(blocks, m, n));
        }
        Ok(Tensor::from_vec(matmul_tn_rows(a, b, 0..m, k, m, n), &[m, n]))
    }

    /// `self @ rhsᵀ` without materializing the transpose.
    ///
    /// Shapes: `[m, k] @ [n, k]ᵀ -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension
    /// disagrees.
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul_nt(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul_nt`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when the shared dimension disagrees.
    pub fn try_matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul_nt")?;
        check_rank2(rhs, "matmul_nt")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul_nt",
            });
        }
        simpadv_trace::clock::add_flops(matmul_flops(m, k, n));
        let a = self.as_slice();
        let b = rhs.as_slice();
        if let Some((rt, chunk)) = parallel_plan(m, k, n) {
            let blocks = rt.par_chunks(m, chunk, |rows| matmul_nt_rows(a, b, rows, k, n));
            return Ok(concat_blocks(blocks, m, n));
        }
        Ok(Tensor::from_vec(matmul_nt_rows(a, b, 0..m, k, n), &[m, n]))
    }

    /// Inner (dot) product of two 1-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 1 or lengths differ.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot expects rank-1 tensors");
        assert_eq!(rhs.rank(), 1, "dot expects rank-1 tensors");
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        self.as_slice().iter().zip(rhs.as_slice()).map(|(&a, &b)| a * b).sum()
    }

    /// Outer product of two 1-D tensors: `[m] ⊗ [n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 1.
    pub fn outer(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer expects rank-1 tensors");
        assert_eq!(rhs.rank(), 1, "outer expects rank-1 tensors");
        let (m, n) = (self.len(), rhs.len());
        let mut out = Vec::with_capacity(m * n);
        for &a in self.as_slice() {
            for &b in rhs.as_slice() {
                out.push(a * b);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// The Frobenius (l2) norm of the tensor.
    pub fn norm_l2(&self) -> f32 {
        self.as_slice().iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// The l∞ (maximum absolute value) norm of the tensor; 0 when empty.
    pub fn norm_linf(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, got: t.rank(), op });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 5]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 5]);
        assert!(c.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn try_matmul_errors() {
        let a = Tensor::ones(&[2, 3]);
        assert!(a.try_matmul(&Tensor::ones(&[4, 2])).is_err());
        assert!(a.try_matmul(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape(&[3, 2]);
        let b = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::arange(12).reshape(&[4, 3]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn parallel_kernels_match_serial_bitwise() {
        use rand::{rngs::StdRng, SeedableRng};
        // Large enough to cross PAR_WORK_THRESHOLD (96*180*150 ≈ 2.6M).
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&mut rng, &[96, 180], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[180, 150], -1.0, 1.0);
        let products = |aa: &Tensor, bb: &Tensor| {
            (aa.matmul(bb), aa.transpose().matmul_tn(bb), aa.matmul_nt(&bb.transpose()))
        };
        simpadv_runtime::set_global_threads(1);
        let serial = products(&a, &b);
        for threads in [2, 4] {
            simpadv_runtime::set_global_threads(threads);
            let par = products(&a, &b);
            assert_eq!(par.0, serial.0, "matmul, threads={threads}");
            assert_eq!(par.1, serial.1, "matmul_tn, threads={threads}");
            assert_eq!(par.2, serial.2, "matmul_nt, threads={threads}");
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn dot_and_outer() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[3, 3]);
        assert_eq!(o.at(&[2, 0]), 12.0);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_slice(&[3.0, -4.0]);
        assert_eq!(t.norm_l2(), 5.0);
        assert_eq!(t.norm_linf(), 4.0);
        assert_eq!(Tensor::default().norm_linf(), 0.0);
    }

    #[test]
    fn flop_formula_matches_the_clock_tick() {
        use simpadv_trace::clock;
        let a = Tensor::ones(&[3, 5]);
        let b = Tensor::ones(&[5, 7]);
        let before = clock::snapshot();
        let _ = a.matmul(&b);
        let delta = clock::snapshot().delta_since(&before);
        assert_eq!(delta.flops, matmul_flops(3, 5, 7));
        assert_eq!(matmul_flops(3, 5, 7), 105);
    }

    #[test]
    fn byte_formula_counts_operands_and_output_once() {
        // [2, 3] x [3, 4]: 6 + 12 + 8 floats at 4 bytes each
        assert_eq!(matmul_bytes(2, 3, 4), 4 * 26);
        assert_eq!(matmul_bytes(0, 3, 4), 4 * 12);
    }
}
