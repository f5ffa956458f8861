//! Shared test helpers: finite-difference gradient checking.
//!
//! Every layer's analytic backward pass is validated against central finite
//! differences of its forward pass. The scalar objective is a fixed random
//! linear functional of the output, `L(x) = Σ w ⊙ f(x)`, whose gradient with
//! respect to the output is exactly `w`.

use crate::layer::{Layer, Mode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simpadv_tensor::Tensor;

/// Samples inputs away from the origin so kinked activations (ReLU, pooling
/// ties) do not sit on their non-differentiable set.
fn sample_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let mag = Tensor::rand_uniform(rng, shape, 0.2, 1.0);
    let sign = Tensor::rand_uniform(rng, shape, -1.0, 1.0).sign();
    mag.mul(&sign)
}

/// Checks ∂L/∂input and ∂L/∂params of `layer` after a train-mode forward
/// against finite differences.
///
/// # Panics
///
/// Panics (failing the test) when any analytic gradient component deviates
/// from the numeric estimate by more than `tol` (relative, with an absolute
/// floor of `tol`).
pub fn check_layer_gradients(layer: &mut dyn Layer, input_shape: &[usize], tol: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = sample_input(&mut rng, input_shape);
    check_layer_gradients_with_input(layer, &x, tol, seed);
}

/// Like [`check_layer_gradients`] but with a caller-chosen input —
/// needed for layers whose gradient is only piecewise smooth (max pooling),
/// where random inputs can land two window entries within the
/// finite-difference step of each other.
///
/// # Panics
///
/// Panics when an analytic gradient disagrees with its finite-difference
/// estimate beyond `tol` — this is the assertion the gradient-check tests
/// rely on.
pub fn check_layer_gradients_with_input(layer: &mut dyn Layer, x: &Tensor, tol: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let x = x.clone();
    let y = layer.forward(&x, Mode::Train);
    let w = Tensor::rand_uniform(&mut rng, y.shape(), -1.0, 1.0);

    layer.zero_grad();
    let gx = layer.backward(&w);
    assert_eq!(gx.shape(), x.shape(), "input-gradient shape mismatch");

    let h = 5e-3f32;
    let loss = |layer: &mut dyn Layer, x: &Tensor| -> f32 {
        let y = layer.forward(x, Mode::Train);
        y.as_slice().iter().zip(w.as_slice()).map(|(&a, &b)| a * b).sum()
    };

    // --- input gradient ---
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += h;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= h;
        let num = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * h);
        let ana = gx.as_slice()[i];
        let denom = 1.0f32.max(num.abs()).max(ana.abs());
        assert!(
            (num - ana).abs() / denom < tol,
            "input grad[{i}]: numeric {num} vs analytic {ana}"
        );
    }

    // --- parameter gradients ---
    // Collect analytic grads first (params() borrows mutably).
    let analytic: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();
    let n_params = analytic.len();
    for pi in 0..n_params {
        let plen = analytic[pi].len();
        for i in 0..plen {
            let orig = {
                let mut ps = layer.params();
                let v = ps[pi].value.as_mut_slice()[i];
                ps[pi].value.as_mut_slice()[i] = v + h;
                v
            };
            let lp = loss(layer, &x);
            {
                let mut ps = layer.params();
                ps[pi].value.as_mut_slice()[i] = orig - h;
            }
            let lm = loss(layer, &x);
            {
                let mut ps = layer.params();
                ps[pi].value.as_mut_slice()[i] = orig;
            }
            let num = (lp - lm) / (2.0 * h);
            let ana = analytic[pi].as_slice()[i];
            let denom = 1.0f32.max(num.abs()).max(ana.abs());
            assert!(
                (num - ana).abs() / denom < tol,
                "param {pi} grad[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }
    // Restore a consistent forward cache for any follow-up assertions.
    let _ = layer.forward(&x, Mode::Train);
}
