//! 1-D batch normalization.

use crate::layer::{expect_state, Layer, Mode, ParamRef};
use simpadv_tensor::Tensor;

/// Batch normalization over the feature axis of `[n, d]` inputs.
///
/// In [`Mode::Train`] the layer normalizes with batch statistics and updates
/// exponential running statistics; in [`Mode::Eval`] it uses the running
/// statistics, making inference deterministic.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    // backward cache
    cached: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    rstd: Tensor, // 1/sqrt(var+eps), per feature
    train: bool,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `features`-wide inputs with the given
    /// running-statistics momentum (conventionally 0.1).
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `momentum` is outside `[0, 1]`.
    pub fn new(features: usize, momentum: f32) -> Self {
        assert!(features > 0, "batchnorm needs at least one feature");
        assert!((0.0..=1.0).contains(&momentum), "momentum {momentum} not in [0, 1]");
        BatchNorm1d {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            grad_gamma: Tensor::zeros(&[features]),
            grad_beta: Tensor::zeros(&[features]),
            running_mean: Tensor::zeros(&[features]),
            running_var: Tensor::ones(&[features]),
            momentum,
            eps: 1e-5,
            cached: None,
        }
    }

    /// The running mean estimate.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running variance estimate.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm1d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 2, "batchnorm expects [n, d], got {:?}", input.shape());
        assert_eq!(input.shape()[1], self.gamma.len(), "batchnorm feature mismatch");
        let n = input.shape()[0];
        match mode {
            Mode::Train => {
                assert!(n > 1, "batchnorm training needs batch size > 1");
                let mu = input.mean_axis(0); // [d]
                let centered = input.sub(&mu);
                let var = centered.powi(2).mean_axis(0); // population var, [d]
                let rstd = var.add_scalar(self.eps).sqrt().map(|v| 1.0 / v);
                let xhat = centered.mul(&rstd);
                let y = xhat.mul(&self.gamma).add(&self.beta);
                // running <- (1-m)*running + m*batch
                let m = self.momentum;
                self.running_mean = self.running_mean.mul_scalar(1.0 - m).add(&mu.mul_scalar(m));
                self.running_var = self.running_var.mul_scalar(1.0 - m).add(&var.mul_scalar(m));
                self.cached = Some(BnCache { xhat, rstd, train: true });
                y
            }
            Mode::Eval => {
                let rstd = self.running_var.add_scalar(self.eps).sqrt().map(|v| 1.0 / v);
                let xhat = input.sub(&self.running_mean).mul(&rstd);
                let y = xhat.mul(&self.gamma).add(&self.beta);
                self.cached = Some(BnCache { xhat, rstd, train: false });
                y
            }
        }
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cached.as_ref().expect("batchnorm backward before forward");
        let n = grad_output.shape()[0] as f32;
        // dgamma / dbeta are the same in both modes
        self.grad_gamma.add_assign(&grad_output.mul(&cache.xhat).sum_axis(0));
        self.grad_beta.add_assign(&grad_output.sum_axis(0));
        let dxhat = grad_output.mul(&self.gamma);
        if cache.train {
            // dx = rstd/n * (n*dxhat - Σdxhat - xhat * Σ(dxhat ⊙ xhat))
            let sum_dxhat = dxhat.sum_axis(0);
            let sum_dxhat_xhat = dxhat.mul(&cache.xhat).sum_axis(0);
            dxhat
                .mul_scalar(n)
                .sub(&sum_dxhat)
                .sub(&cache.xhat.mul(&sum_dxhat_xhat))
                .mul(&cache.rstd)
                .mul_scalar(1.0 / n)
        } else {
            // eval statistics are constants: dx = dxhat * rstd
            dxhat.mul(&cache.rstd)
        }
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef { value: &mut self.gamma, grad: &mut self.grad_gamma },
            ParamRef { value: &mut self.beta, grad: &mut self.grad_beta },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_gamma.fill(0.0);
        self.grad_beta.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "batchnorm1d"
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        vec![
            ("gamma".into(), self.gamma.clone()),
            ("beta".into(), self.beta.clone()),
            ("running_mean".into(), self.running_mean.clone()),
            ("running_var".into(), self.running_var.clone()),
        ]
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        self.gamma = expect_state(state, "gamma");
        self.beta = expect_state(state, "beta");
        self.running_mean = expect_state(state, "running_mean");
        self.running_var = expect_state(state, "running_var");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_layer_gradients, check_layer_gradients_mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalized() {
        let mut l = BatchNorm1d::new(3, 0.1);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_uniform(&mut rng, &[64, 3], -5.0, 5.0);
        let y = l.forward(&x, Mode::Train);
        let mu = y.mean_axis(0);
        let var = y.sub(&mu).powi(2).mean_axis(0);
        assert!(mu.abs().max() < 1e-4, "per-feature mean {mu:?}");
        assert!((var.max() - 1.0).abs() < 1e-2, "per-feature var {var:?}");
    }

    #[test]
    fn running_stats_track_batches() {
        let mut l = BatchNorm1d::new(2, 0.5);
        let x = Tensor::from_vec(vec![0.0, 10.0, 2.0, 10.0, 4.0, 10.0, 6.0, 10.0], &[4, 2]);
        let _ = l.forward(&x, Mode::Train);
        // feature 0 batch mean = 3, feature 1 = 10; running = 0.5*0 + 0.5*batch
        assert!((l.running_mean().as_slice()[0] - 1.5).abs() < 1e-6);
        assert!((l.running_mean().as_slice()[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut l = BatchNorm1d::new(1, 1.0); // momentum 1: running = last batch
        let x = Tensor::from_vec(vec![1.0, 3.0], &[2, 1]);
        let _ = l.forward(&x, Mode::Train);
        // running mean = 2, running var = 1
        let y = l.forward(&Tensor::from_vec(vec![2.0], &[1, 1]), Mode::Eval);
        assert!(y.item().abs() < 1e-3);
    }

    #[test]
    fn gradcheck_train_mode() {
        check_layer_gradients(&mut BatchNorm1d::new(4, 0.1), &[8, 4], 2e-2, 21);
    }

    #[test]
    fn gradcheck_eval_mode() {
        let mut l = BatchNorm1d::new(4, 0.5);
        // establish non-trivial running stats first
        let mut rng = StdRng::seed_from_u64(5);
        let warm = Tensor::rand_uniform(&mut rng, &[32, 4], -2.0, 2.0);
        let _ = l.forward(&warm, Mode::Train);
        check_layer_gradients_mode(&mut l, &[6, 4], 1e-2, 22, Mode::Eval);
    }

    #[test]
    fn state_roundtrip() {
        let mut a = BatchNorm1d::new(3, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&mut rng, &[16, 3], -1.0, 1.0);
        let _ = a.forward(&x, Mode::Train);
        let mut b = BatchNorm1d::new(3, 0.2);
        b.load_state(&a.state());
        let probe = Tensor::rand_uniform(&mut rng, &[4, 3], -1.0, 1.0);
        assert_eq!(a.forward(&probe, Mode::Eval), b.forward(&probe, Mode::Eval));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn train_rejects_singleton_batch() {
        BatchNorm1d::new(2, 0.1).forward(&Tensor::zeros(&[1, 2]), Mode::Train);
    }
}
