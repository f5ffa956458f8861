//! Element-wise activation layers and the softmax layer.

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(input.clone());
        input.map(|v| v.max(0.0))
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("relu backward before forward");
        assert_eq!(grad_output.shape(), input.shape(), "relu backward shape mismatch");
        grad_output.zip_map(input, |g, x| if x > 0.0 { g } else { 0.0 })
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Leaky rectified linear unit: `x` for `x > 0`, `alpha * x` otherwise.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    alpha: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-slope `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid leaky-relu alpha {alpha}");
        LeakyRelu { alpha, cached_input: None }
    }

    /// The negative slope.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Default for LeakyRelu {
    /// Slope 0.01, the conventional default.
    fn default() -> Self {
        LeakyRelu::new(0.01)
    }
}

impl Layer for LeakyRelu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(input.clone());
        let a = self.alpha;
        input.map(|v| if v > 0.0 { v } else { a * v })
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("leaky-relu backward before forward");
        let a = self.alpha;
        grad_output.zip_map(input, |g, x| if x > 0.0 { g } else { a * g })
    }

    fn name(&self) -> &'static str {
        "leaky_relu"
    }
}

/// Logistic sigmoid: `1 / (1 + e^{-x})`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { cached_output: None }
    }
}

impl Layer for Sigmoid {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_output = Some(out.clone());
        out
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.cached_output.as_ref().expect("sigmoid backward before forward");
        grad_output.zip_map(out, |g, s| g * s * (1.0 - s))
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { cached_output: None }
    }
}

impl Layer for Tanh {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = input.map(f32::tanh);
        self.cached_output = Some(out.clone());
        out
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.cached_output.as_ref().expect("tanh backward before forward");
        grad_output.zip_map(out, |g, t| g * (1.0 - t * t))
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

/// Softplus: `ln(1 + eˣ)` — a smooth ReLU.
#[derive(Debug, Clone, Default)]
pub struct Softplus {
    cached_input: Option<Tensor>,
}

impl Softplus {
    /// Creates a softplus layer.
    pub fn new() -> Self {
        Softplus { cached_input: None }
    }
}

impl Layer for Softplus {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(input.clone());
        // numerically stable: max(x, 0) + ln(1 + e^{-|x|})
        input.map(|v| v.max(0.0) + (1.0 + (-v.abs()).exp()).ln())
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("softplus backward before forward");
        // d/dx softplus = sigmoid(x)
        grad_output.zip_map(input, |g, x| g / (1.0 + (-x).exp()))
    }

    fn name(&self) -> &'static str {
        "softplus"
    }
}

/// GELU (tanh approximation), the transformer-era smooth activation.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cached_input: Option<Tensor>,
}

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Self {
        Gelu { cached_input: None }
    }

    fn phi(x: f32) -> f32 {
        // tanh approximation of the Gaussian CDF scaling
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
    }
}

impl Layer for Gelu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(input.clone());
        input.map(|v| v * Self::phi(v))
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("gelu backward before forward");
        grad_output.zip_map(input, |g, x| {
            const C: f32 = 0.797_884_6;
            let inner = C * (x + 0.044_715 * x * x * x);
            let t = inner.tanh();
            let dinner = C * (1.0 + 3.0 * 0.044_715 * x * x);
            let dphi = 0.5 * (1.0 - t * t) * dinner;
            g * (0.5 * (1.0 + t) + x * dphi)
        })
    }

    fn name(&self) -> &'static str {
        "gelu"
    }
}

/// Row-wise softmax over a `[n, c]` tensor.
///
/// Normally classifiers train with the fused
/// [`crate::SoftmaxCrossEntropy`] loss and never materialize probabilities;
/// this layer exists for inference pipelines and calibration analysis.
#[derive(Debug, Clone, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Softmax { cached_output: None }
    }
}

impl Layer for Softmax {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = crate::loss::softmax(input);
        self.cached_output = Some(out.clone());
        out
    }

    #[expect(clippy::expect_used, reason = "R1: documented forward-before-backward contract")]
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let s = self.cached_output.as_ref().expect("softmax backward before forward");
        assert_eq!(grad_output.shape(), s.shape(), "softmax backward shape mismatch");
        // For each row: dx = s ⊙ (g - <g, s>)
        let (n, c) = (s.shape()[0], s.shape()[1]);
        let mut out = vec![0.0f32; n * c];
        let sv = s.as_slice();
        let gv = grad_output.as_slice();
        for i in 0..n {
            let srow = &sv[i * c..(i + 1) * c];
            let grow = &gv[i * c..(i + 1) * c];
            let dot: f32 = srow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
            for j in 0..c {
                out[i * c + j] = srow[j] * (grow[j] - dot);
            }
        }
        Tensor::from_vec(out, &[n, c])
    }

    fn name(&self) -> &'static str {
        "softmax"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_layer_gradients;

    #[test]
    fn relu_forward_values() {
        let mut l = Relu::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradcheck() {
        check_layer_gradients(&mut Relu::new(), &[3, 5], 1e-2, 1);
    }

    #[test]
    fn leaky_relu_forward_and_gradcheck() {
        let mut l = LeakyRelu::new(0.1);
        let y = l.forward(&Tensor::from_slice(&[-2.0, 3.0]), Mode::Eval);
        assert_eq!(y.as_slice(), &[-0.2, 3.0]);
        check_layer_gradients(&mut LeakyRelu::new(0.1), &[3, 5], 1e-2, 2);
        assert_eq!(LeakyRelu::default().alpha(), 0.01);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn leaky_relu_rejects_negative_alpha() {
        LeakyRelu::new(-0.5);
    }

    #[test]
    fn sigmoid_range_and_gradcheck() {
        let mut l = Sigmoid::new();
        let y = l.forward(&Tensor::from_slice(&[-10.0, 0.0, 10.0]), Mode::Eval);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        check_layer_gradients(&mut Sigmoid::new(), &[2, 4], 1e-2, 3);
    }

    #[test]
    fn tanh_odd_and_gradcheck() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 1.0]), Mode::Eval);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[0] + y.as_slice()[2]).abs() < 1e-6);
        check_layer_gradients(&mut Tanh::new(), &[2, 4], 1e-2, 4);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut l = Softmax::new();
        let y =
            l.forward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]), Mode::Eval);
        for i in 0..2 {
            assert!((y.row(i).sum() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_gradcheck() {
        check_layer_gradients(&mut Softmax::new(), &[3, 4], 1e-2, 5);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Softmax::new().param_count(), 0);
        assert_eq!(Gelu::new().param_count(), 0);
    }

    #[test]
    fn softplus_positive_and_smooth() {
        let mut l = Softplus::new();
        let y = l.forward(&Tensor::from_slice(&[-20.0, 0.0, 20.0]), Mode::Eval);
        assert!(y.as_slice()[0] >= 0.0 && y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 2.0f32.ln()).abs() < 1e-6);
        assert!((y.as_slice()[2] - 20.0).abs() < 1e-4);
        check_layer_gradients(&mut Softplus::new(), &[3, 4], 1e-2, 11);
    }

    #[test]
    fn gelu_matches_known_values_and_gradcheck() {
        let mut l = Gelu::new();
        let y = l.forward(&Tensor::from_slice(&[0.0, 10.0, -10.0]), Mode::Eval);
        assert_eq!(y.as_slice()[0], 0.0);
        assert!((y.as_slice()[1] - 10.0).abs() < 1e-3);
        assert!(y.as_slice()[2].abs() < 1e-3);
        check_layer_gradients(&mut Gelu::new(), &[3, 4], 1e-2, 12);
    }
}
