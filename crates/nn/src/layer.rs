//! The [`Layer`] trait: the contract every network building block fulfils.

use simpadv_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Every layer computes the same outputs in both modes. The mode decides
/// what the backward pass computes: after an eval-mode forward, `Dense`
/// and `Conv2d` skip their parameter gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: the backward pass accumulates parameter gradients.
    Train,
    /// Inference and attacks: the backward pass returns only the input
    /// gradient.
    Eval,
}

/// A mutable view of one trainable parameter and its gradient accumulator.
///
/// Layers hand these out in a *stable order* so optimizers can maintain
/// per-parameter state (SGD's momentum) keyed by position.
#[derive(Debug)]
pub struct ParamRef<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut Tensor,
    /// The accumulated gradient for this parameter.
    pub grad: &'a mut Tensor,
}

/// A differentiable network building block.
///
/// The contract:
///
/// 1. `forward` consumes an input batch, caches whatever the backward pass
///    needs, and returns the output batch.
/// 2. `backward` must be called after a matching `forward`, at most once
///    per `forward`: it **consumes** the cache, so a second `backward`
///    without a new `forward` panics with "before forward". It receives
///    ∂loss/∂output and returns ∂loss/∂input. After a
///    `forward(Mode::Train)` it also **accumulates** ∂loss/∂parameters
///    into the layer's gradient buffers. After a `forward(Mode::Eval)` it
///    returns the gradient of the *evaluation* function (attacks
///    differentiate the deterministic inference network), and no layer
///    accumulates parameter gradients after an eval-mode forward. Callers
///    that read parameter gradients zero them first and run a train-mode
///    forward.
/// 3. `backward_params` is `backward` for a caller that discards
///    ∂loss/∂input (the first layer of a train step): it consumes the cache
///    and accumulates exactly the parameter gradients `backward` would,
///    and a layer may skip the input-gradient product.
/// 4. `params` exposes parameters and gradients in a stable order.
///
/// Layers are `Send + Sync` (they hold plain tensors and scalars) so model
/// replicas can cross `simpadv-runtime` worker boundaries,
/// and [`Layer::clone_box`] produces those replicas from behind the trait
/// object. Because `backward` consumes the cache, a replica cloned after
/// a completed backward pass carries no stale activations.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Runs the layer on `input`, caching state for `backward`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `grad_output` (∂loss/∂output), consuming the forward
    /// cache and returning ∂loss/∂input; after a train-mode forward it also
    /// accumulates parameter gradients (see the trait contract for eval
    /// mode).
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `forward`
    /// (including a second call after one `forward`) or with a gradient
    /// whose shape does not match the last forward output.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Backpropagates `grad_output` for its parameter gradients only: the
    /// same accumulation as [`Layer::backward`], but the caller discards
    /// ∂loss/∂input, so a layer may skip computing it.
    ///
    /// Defaults to running `backward` and dropping its result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) {
        let _ = self.backward(grad_output);
    }

    /// Trainable parameters in a stable order. Defaults to none.
    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Clears accumulated parameter gradients. Defaults to a no-op.
    fn zero_grad(&mut self) {
        // layers without parameters have nothing to clear
    }

    /// A short human-readable layer name (e.g. `"dense"`).
    fn name(&self) -> &'static str;

    /// An independent deep copy of this layer behind a fresh box.
    ///
    /// Replicas carry the full layer state (parameters and gradient
    /// buffers) and share nothing with the original; data-parallel code
    /// clones a model per worker and discards the replicas afterwards.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Number of trainable scalars in this layer.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Serializable state: named parameter tensors. Defaults to none.
    fn state(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores state saved by [`Layer::state`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when a required entry is missing or has a
    /// mismatched shape.
    fn load_state(&mut self, state: &[(String, Tensor)]) {
        let _ = state;
    }
}

/// Looks up a named tensor in a state list, cloning it.
///
/// # Panics
///
/// Panics when the entry is missing — state dictionaries are produced by
/// [`Layer::state`] and must be complete.
#[expect(clippy::panic, reason = "R1: documented `# Panics` contract")]
pub(crate) fn expect_state(state: &[(String, Tensor)], key: &str) -> Tensor {
    state
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| panic!("state entry '{key}' missing"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            grad_output.clone()
        }
        fn name(&self) -> &'static str {
            "identity"
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_impls_are_empty() {
        let mut l = Identity;
        assert!(l.params().is_empty());
        assert_eq!(l.param_count(), 0);
        assert!(l.state().is_empty());
        l.zero_grad(); // no-op
        l.load_state(&[]); // no-op
    }

    #[test]
    fn mode_is_copy_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn expect_state_panics_on_missing() {
        expect_state(&[], "w");
    }
}
