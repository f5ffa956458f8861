//! The optimizer interface and momentum SGD.
//!
//! An optimizer keeps per-parameter state (SGD's momentum buffers) keyed by
//! the parameter's *position* in the stable ordering that
//! [`crate::Layer::params`] exposes. State buffers are allocated lazily on
//! the first step, so one optimizer instance serves any network.

use crate::layer::ParamRef;
use serde::{Deserialize, Serialize};
use simpadv_tensor::Tensor;

/// A serializable snapshot of an optimizer's per-parameter buffers,
/// captured by [`Optimizer::snapshot_state`] for checkpoint/resume.
///
/// `groups` holds the state tensor groups in the optimizer's own order,
/// each group keyed by parameter position: [`Sgd`] writes one group, its
/// velocity. `step` is a scalar progress counter that [`Sgd`] always
/// writes as 0; both fields stay so the checkpoint format does not change.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OptimState {
    /// Per-parameter state tensors, grouped by the optimizer's buffers.
    pub groups: Vec<Vec<Tensor>>,
    /// Scalar step counter (always 0 for [`Sgd`]).
    pub step: u64,
}

/// A first-order parameter-update rule.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update to every parameter given its accumulated
    /// gradient. Gradients are *not* cleared; call
    /// [`crate::Layer::zero_grad`] before the next accumulation.
    fn step(&mut self, params: &mut [ParamRef<'_>]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by the per-epoch decay).
    fn set_learning_rate(&mut self, lr: f32);

    /// Captures the per-parameter state buffers for checkpointing.
    fn snapshot_state(&self) -> OptimState;

    /// Restores buffers captured by [`Optimizer::snapshot_state`]. The
    /// lazy-allocation path tolerates an empty snapshot (fresh start);
    /// implementations adopt whatever groups match their layout.
    fn restore_state(&mut self, state: OptimState);
}

fn lazy_state(state: &mut Vec<Tensor>, params: &[ParamRef<'_>]) {
    let stale = state.len() != params.len()
        || state.iter().zip(params.iter()).any(|(s, p)| s.shape() != p.value.shape());
    if stale {
        *state = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
    }
}

/// Stochastic gradient descent with optional classical momentum.
///
/// # Example
///
/// ```
/// use simpadv_nn::{Optimizer, Sgd};
///
/// let opt = Sgd::new(0.1).with_momentum(0.9);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Enables classical momentum.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum {momentum} not in [0, 1)");
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [ParamRef<'_>]) {
        lazy_state(&mut self.velocity, params);
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            if self.momentum > 0.0 {
                // v <- m v + g
                v.scale_in_place(self.momentum);
                v.add_assign(p.grad);
                p.value.add_scaled(v, -self.lr);
            } else {
                p.value.add_scaled(p.grad, -self.lr);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    fn snapshot_state(&self) -> OptimState {
        OptimState { groups: vec![self.velocity.clone()], step: 0 }
    }

    fn restore_state(&mut self, state: OptimState) {
        if let Some(velocity) = state.groups.into_iter().next() {
            self.velocity = velocity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = ||w - target||² with the given optimizer and checks
    /// convergence — the canonical smoke test for update rules.
    fn converges(opt: &mut dyn Optimizer, steps: usize, tol: f32) {
        let target = [3.0f32, -2.0, 0.5];
        let mut w = Tensor::zeros(&[3]);
        let mut g = Tensor::zeros(&[3]);
        for _ in 0..steps {
            for (i, t) in target.iter().enumerate() {
                g.as_mut_slice()[i] = 2.0 * (w.as_slice()[i] - t);
            }
            let mut params = vec![ParamRef { value: &mut w, grad: &mut g }];
            opt.step(&mut params);
        }
        for (i, t) in target.iter().enumerate() {
            assert!(
                (w.as_slice()[i] - t).abs() < tol,
                "w[{i}] = {} did not converge to {t}",
                w.as_slice()[i],
            );
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        converges(&mut Sgd::new(0.1), 200, 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        converges(&mut Sgd::new(0.05).with_momentum(0.9), 300, 1e-2);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn momentum_of_one_rejected() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }

    /// Runs `steps` quadratic-descent updates, returning the weights.
    fn drive(opt: &mut dyn Optimizer, w: &mut Tensor, steps: usize) {
        let target = [3.0f32, -2.0, 0.5];
        let mut g = Tensor::zeros(&[3]);
        for _ in 0..steps {
            for (i, t) in target.iter().enumerate() {
                g.as_mut_slice()[i] = 2.0 * (w.as_slice()[i] - t);
            }
            let mut params = vec![ParamRef { value: w, grad: &mut g }];
            opt.step(&mut params);
        }
    }

    #[test]
    fn snapshot_restore_is_bitwise_transparent() {
        // 10 steps straight must equal 5 steps + snapshot/restore + 5 steps.
        // This is the optimizer half of the checkpoint/resume bitwise
        // contract.
        let build = || Sgd::new(0.05).with_momentum(0.9);
        let mut straight = build();
        let mut w_straight = Tensor::zeros(&[3]);
        drive(&mut straight, &mut w_straight, 10);

        let mut first = build();
        let mut w_resumed = Tensor::zeros(&[3]);
        drive(&mut first, &mut w_resumed, 5);
        let snapshot = first.snapshot_state();
        drop(first);
        let mut second = build();
        second.restore_state(snapshot);
        drive(&mut second, &mut w_resumed, 5);

        let a: Vec<u32> = w_straight.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = w_resumed.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "resume diverged");
    }

    #[test]
    fn stateless_snapshot_is_empty_and_restore_tolerated() {
        let opt = Sgd::new(0.1); // no momentum -> velocity only lazily filled
        let state = opt.snapshot_state();
        assert_eq!(state.step, 0);
        let mut opt2 = Sgd::new(0.1);
        opt2.restore_state(state);
        opt2.restore_state(OptimState::default()); // empty snapshot is a no-op
    }

    #[test]
    fn state_reallocates_for_new_network() {
        // Using one optimizer across two different parameter sets must not
        // panic — state is keyed by position and reallocated on mismatch.
        let mut opt = Sgd::new(0.01).with_momentum(0.9);
        let mut w1 = Tensor::ones(&[3]);
        let mut g1 = Tensor::ones(&[3]);
        opt.step(&mut [ParamRef { value: &mut w1, grad: &mut g1 }]);
        let mut w2 = Tensor::ones(&[5]);
        let mut g2 = Tensor::ones(&[5]);
        let mut w3 = Tensor::ones(&[2]);
        let mut g3 = Tensor::ones(&[2]);
        opt.step(&mut [
            ParamRef { value: &mut w2, grad: &mut g2 },
            ParamRef { value: &mut w3, grad: &mut g3 },
        ]);
    }
}
