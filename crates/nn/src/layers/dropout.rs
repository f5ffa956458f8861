//! Inverted dropout.

use crate::layer::{Layer, Mode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simpadv_tensor::Tensor;

/// Inverted dropout: during training, zeroes each activation independently
/// with probability `p` and scales survivors by `1/(1-p)` so the expected
/// activation is unchanged; during evaluation it is the identity.
///
/// The layer owns a seeded RNG, so a training run using dropout is exactly
/// reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    /// The last forward's mask (`None` inside after an eval forward, whose
    /// backward is the identity), consumed by the backward pass.
    cached_mask: Option<Option<Tensor>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a private RNG
    /// seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} not in [0, 1)");
        Dropout { p, rng: StdRng::seed_from_u64(seed), cached_mask: None }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval => {
                self.cached_mask = Some(None);
                input.clone()
            }
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask_data: Vec<f32> = (0..input.len())
                    .map(|_| if self.rng.random::<f32>() < keep { scale } else { 0.0 })
                    .collect();
                let mask = Tensor::from_vec(mask_data, input.shape());
                let out = input.mul(&mask);
                self.cached_mask = Some(Some(mask));
                out
            }
        }
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self.cached_mask.take().expect("dropout backward before forward") {
            Some(mask) => grad_output.mul(&mask),
            None => grad_output.clone(), // eval-mode identity
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut l = Dropout::new(0.5, 0);
        let x = Tensor::arange(10);
        assert_eq!(l.forward(&x, Mode::Eval), x);
        assert_eq!(l.backward(&x), x);
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut l = Dropout::new(0.3, 1);
        let x = Tensor::ones(&[10_000]);
        let y = l.forward(&x, Mode::Train);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "dropped fraction {frac}");
        // survivors are scaled by 1/(1-p)
        let survivor = y.as_slice().iter().find(|&&v| v != 0.0).unwrap();
        assert!((survivor - 1.0 / 0.7).abs() < 1e-6);
    }

    #[test]
    fn expected_value_preserved() {
        let mut l = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[50_000]);
        let y = l.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.02);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut l = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = l.forward(&x, Mode::Train);
        let g = l.backward(&Tensor::ones(&[100]));
        // gradient zero exactly where output zero
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = Dropout::new(0.5, 42);
        let mut b = Dropout::new(0.5, 42);
        let x = Tensor::ones(&[64]);
        assert_eq!(a.forward(&x, Mode::Train), b.forward(&x, Mode::Train));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_of_one() {
        Dropout::new(1.0, 0);
    }
}
