//! The [`Sequential`] container.

use crate::layer::{Layer, Mode, ParamRef};
use simpadv_tensor::Tensor;

/// A feed-forward chain of layers.
///
/// `forward` threads the input through every layer in order; `backward`
/// threads the loss gradient through every layer in reverse, accumulating
/// parameter gradients and returning ∂loss/∂input — the quantity
/// adversarial attacks consume. `backward_params` does the same for a
/// train step that discards ∂loss/∂input: the first layer gets
/// [`Layer::backward_params`], every other layer [`Layer::backward`], so
/// each layer is still entered exactly once per pass.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simpadv_nn::{Dense, Layer, Mode, Relu, Sequential};
/// use simpadv_tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(16, 2, &mut rng)),
/// ]);
/// let y = net.forward(&Tensor::zeros(&[3, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    /// Deep-copies every layer via [`Layer::clone_box`].
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Sequential {
    /// Creates a container from an ordered layer list.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty container; add layers with [`Sequential::push`].
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer names, in order (useful for debugging and reports).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for (k, t) in layer.state() {
                out.push((format!("{i}.{k}"), t));
            }
        }
        out
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let prefix = format!("{i}.");
            let sub: Vec<(String, Tensor)> = state
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, t)| (k[prefix.len()..].to_string(), t.clone()))
                .collect();
            if !sub.is_empty() {
                layer.load_state(&sub);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::testutil::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = mlp(0);
        let y = net.forward(&Tensor::zeros(&[2, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(net.layer_names(), vec!["dense", "relu", "dense"]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn gradcheck_full_network() {
        check_layer_gradients(&mut mlp(1), &[3, 4], 2e-2, 31);
    }

    #[test]
    fn params_flattened_in_order() {
        let mut net = mlp(0);
        let p = net.params();
        assert_eq!(p.len(), 4); // two dense layers × (weight, bias)
        assert_eq!(p[0].value.shape(), &[4, 8]);
        assert_eq!(p[3].value.shape(), &[3]);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = mlp(0);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x, Mode::Train);
        let _ = net.backward(&Tensor::ones(y.shape()));
        assert!(net.params().iter().any(|p| p.grad.norm_linf() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm_linf() == 0.0));
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut a = mlp(0);
        let mut b = mlp(99);
        b.load_state(&a.state());
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&mut rng, &[2, 4], -1.0, 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn push_builds_incrementally() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::empty();
        assert!(net.is_empty());
        net.push(Box::new(Dense::new(2, 2, &mut rng)));
        net.push(Box::new(Relu::new()));
        assert_eq!(net.len(), 2);
        let y = net.forward(&Tensor::zeros(&[1, 2]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::empty();
        let x = Tensor::arange(4).reshape(&[2, 2]);
        assert_eq!(net.forward(&x, Mode::Eval), x);
        assert_eq!(net.backward(&x), x);
    }
}
