//! Dense linear algebra: the matrix product and its transposed forms.
//!
//! There is one kernel, [`matmul_rows`], in the cache-friendly `i-k-j`
//! loop order; that is within a small factor of a tuned BLAS for the
//! matrix sizes that occur (hundreds by hundreds). `matmul_tn` and
//! `matmul_nt` pack by transposing their transposed operand into a
//! row-major copy and then run the same kernel, so every output element
//! accumulates `a[i][p] * b[p][j]` from `+0.0` with `p` ascending in all
//! three products. Products above [`PAR_WORK_THRESHOLD`] are row-blocked
//! across the global [`Runtime`]: every output row is computed by the
//! same per-row loop as the serial kernel and the blocks are concatenated
//! in row order, so parallel results are bitwise equal to serial ones for
//! any thread count.

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
/// derives GMAC/s from this, never from a measured counter.
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

/// Rows `rows` of `a @ b` (`a: [m, k]`, `b: [k, n]`), `i-k-j` order:
/// each output element accumulates from `+0.0` with `p` ascending. A zero
/// `a[i][p]` is skipped; for finite `b` that only drops `±0.0` terms from
/// an accumulator that is never `-0.0`, so the skip is bitwise neutral.
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

/// `a @ b` (`a: [m, k]`, `b: [k, n]`) through [`matmul_rows`]: serial
/// below [`PAR_WORK_THRESHOLD`], row-blocked across the runtime above it
/// with the blocks concatenated in row order.
fn matmul_dispatch(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let out = match parallel_plan(m, k, n) {
        Some((rt, chunk)) => rt.par_chunks(m, chunk, |rows| matmul_rows(a, b, rows, k, n)).concat(),
        None => matmul_rows(a, b, 0..m, k, n),
    };
    Tensor::from_vec(out, &[m, n])
}

impl Tensor {
    /// Matrix product `self @ rhs` of two rank-2 tensors.
    ///
    /// Shapes: `[m, k] @ [k, n] -> [m, n]`.
    ///
    /// A zero entry of `self` is skipped, so it contributes nothing even
    /// where it meets a NaN or infinity in `rhs` (`0 × NaN` adds no NaN).
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
        Ok(matmul_dispatch(self.as_slice(), rhs.as_slice(), m, k, n))
    }

    /// `selfᵀ @ rhs`, computed as `self.transpose()` fed to the
    /// [`Tensor::matmul`] kernel, so it is bitwise equal to
    /// `self.transpose().matmul(rhs)`.
    ///
    /// Shapes: `[k, m]ᵀ @ [k, n] -> [m, n]`.
    ///
    /// A zero entry of `self` is skipped, so it contributes nothing even
    /// where it meets a NaN or infinity in `rhs` (`0 × NaN` adds no NaN).
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
        Ok(matmul_dispatch(self.transpose().as_slice(), rhs.as_slice(), m, k, n))
    }

    /// `self @ rhsᵀ`, computed as `rhs.transpose()` fed to the
    /// [`Tensor::matmul`] kernel, so it is bitwise equal to
    /// `self.matmul(&rhs.transpose())`.
    ///
    /// Shapes: `[m, k] @ [n, k]ᵀ -> [m, n]`.
    ///
    /// A zero entry of `self` is skipped, so it contributes nothing even
    /// where it meets a NaN or infinity in `rhs` (`0 × NaN` adds no NaN).
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
        Ok(matmul_dispatch(self.as_slice(), rhs.transpose().as_slice(), m, k, n))
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    // Dedicated `aᵀ @ b` and `a @ bᵀ` kernels that read the transposed
    // operand in place: reference implementations that the packed
    // `matmul_tn`/`matmul_nt` must match bit for bit.

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

    /// A `shape` tensor of uniform values in which about a third of the
    /// entries are `0.0` or `-0.0`, so the kernel's zero-skip is exercised.
    fn sparse(rng: &mut StdRng, shape: &[usize]) -> Tensor {
        let vals = Tensor::rand_uniform(rng, shape, -1.0, 1.0);
        let pick = Tensor::rand_uniform(rng, shape, 0.0, 3.0);
        let data = vals
            .as_slice()
            .iter()
            .zip(pick.as_slice())
            .map(|(&v, &p)| {
                if p < 0.5 {
                    0.0
                } else if p < 1.0 {
                    -0.0
                } else {
                    v
                }
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `(packed, oracle)` bit patterns of `matmul_tn` and `matmul_nt` for
    /// an `[m, k] x [k, n]` product on fresh sparse operands.
    fn packed_and_oracle(
        rng: &mut StdRng,
        m: usize,
        k: usize,
        n: usize,
    ) -> [(Vec<u32>, Vec<u32>); 2] {
        let (at, b) = (sparse(rng, &[k, m]), sparse(rng, &[k, n]));
        let (a, bt) = (sparse(rng, &[m, k]), sparse(rng, &[n, k]));
        [
            (
                bits(at.matmul_tn(&b).as_slice()),
                bits(&matmul_tn_rows(at.as_slice(), b.as_slice(), 0..m, k, m, n)),
            ),
            (
                bits(a.matmul_nt(&bt).as_slice()),
                bits(&matmul_nt_rows(a.as_slice(), bt.as_slice(), 0..m, k, n)),
            ),
        ]
    }

    proptest! {
        #[test]
        fn packed_products_match_the_scalar_oracles_bitwise(
            m in 1usize..=40,
            k in 1usize..=40,
            n in 1usize..=40,
            seed in 0u64..1000,
        ) {
            let [tn, nt] = packed_and_oracle(&mut StdRng::seed_from_u64(seed), m, k, n);
            prop_assert_eq!(tn.0, tn.1, "matmul_tn");
            prop_assert_eq!(nt.0, nt.1, "matmul_nt");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn packed_products_match_the_oracles_at_experiment_shapes() {
        // `[m, k, n]`: the MLP's input-gradient and weight-gradient
        // products, an odd batch, one row, two small odd shapes, then the
        // small CNN's conv forward (`[n*oh*ow, c*k*k, c_out]`) and weight
        // gradient (`[c_out, n*oh*ow, c*k*k]`) at batch 64. The large
        // ones cross PAR_WORK_THRESHOLD, so with a multi-threaded global
        // pool the row-blocked path is compared too.
        let shapes = [
            [64, 128, 784],
            [784, 64, 128],
            [100, 128, 784],
            [1, 784, 128],
            [3, 5, 7],
            [37, 19, 23],
            [64 * 28 * 28, 9, 8],
            [8, 64 * 28 * 28, 9],
            [64 * 14 * 14, 72, 16],
            [16, 64 * 14 * 14, 72],
        ];
        let mut rng = StdRng::seed_from_u64(2019);
        for [m, k, n] in shapes {
            let [tn, nt] = packed_and_oracle(&mut rng, m, k, n);
            assert!(tn.0 == tn.1, "matmul_tn at {m}x{k}x{n}");
            assert!(nt.0 == nt.1, "matmul_nt at {m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_times_non_finite_is_skipped_by_all_three_products() {
        // Column 0 of `a` is `0.0` and `-0.0`, so it meets the NaN and the
        // infinity in row 0 of `b`.
        let a = Tensor::from_vec(vec![0.0, 1.0, -0.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 2.0, 3.0], &[2, 2]);
        let want = [2.0, 3.0, 4.0, 6.0];
        assert_eq!(a.matmul(&b).as_slice(), &want);
        assert_eq!(a.transpose().matmul_tn(&b).as_slice(), &want);
        assert_eq!(a.matmul_nt(&b.transpose()).as_slice(), &want);
    }

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
    fn norms() {
        let t = Tensor::from_slice(&[3.0, -4.0]);
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
