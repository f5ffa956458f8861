//! The [`Classifier`] wrapper and the [`GradientModel`] trait consumed by
//! adversarial attacks.

use crate::layer::{Layer, Mode};
use crate::layers::Sequential;
use crate::loss::{Loss, SoftmaxCrossEntropy};
use crate::optim::Optimizer;
use simpadv_tensor::Tensor;

/// A white-box view of a differentiable classifier: everything a
/// gradient-based attack needs.
///
/// `simpadv-attacks` is written against this trait, so attacks are agnostic
/// to the network architecture (and testable against tiny closed-form
/// models).
pub trait GradientModel {
    /// Deterministic (evaluation-mode) logits for a batch.
    fn logits(&mut self, x: &Tensor) -> Tensor;

    /// Mean cross-entropy loss of the batch and its gradient with respect
    /// to the **input pixels** — the `∇ₓ L(C(x), y)` of the FGSM/BIM
    /// definitions.
    fn loss_and_input_grad(&mut self, x: &Tensor, y: &[usize]) -> (f32, Tensor);

    /// Input gradient of an arbitrary differentiable function of the
    /// logits: runs an evaluation-mode forward, calls `grad_of_logits`
    /// with the logits to obtain ∂loss/∂logits, and backpropagates that
    /// to the input.
    ///
    /// This is the hook for attacks with custom objectives (e.g. the
    /// Carlini–Wagner margin loss), which cross-entropy-only interfaces
    /// cannot express.
    fn custom_input_grad(
        &mut self,
        x: &Tensor,
        grad_of_logits: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Tensor;

    /// Number of classes the model discriminates.
    fn num_classes(&self) -> usize;
}

/// A trainable classifier: a [`Sequential`] backbone plus the fused
/// softmax–cross-entropy criterion.
///
/// All the adversarial-training methods in `simpadv` operate on this type;
/// it exposes the three primitives they need — `train_batch`, eval-mode
/// `logits`, and `loss_and_input_grad` for attack generation — plus
/// gradient-pass counters used for the cost accounting in the paper's
/// Table I.
#[derive(Debug, Clone)]
pub struct Classifier {
    net: Sequential,
    loss: SoftmaxCrossEntropy,
    num_classes: usize,
    forward_passes: u64,
    backward_passes: u64,
}

impl Classifier {
    /// Wraps a backbone network whose final layer emits `num_classes`
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(net: Sequential, num_classes: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        Classifier {
            net,
            loss: SoftmaxCrossEntropy::new(),
            num_classes,
            forward_passes: 0,
            backward_passes: 0,
        }
    }

    /// Immutable access to the backbone.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the backbone (for optimizers and serialization).
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Total trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Forward passes performed so far (training + evaluation + attacks).
    ///
    /// Together with [`Classifier::backward_passes`] this gives an
    /// architecture-independent cost measure: the paper's "training time
    /// per epoch" ratios are proportional to gradient-pass counts.
    pub fn forward_passes(&self) -> u64 {
        self.forward_passes
    }

    /// Backward passes performed so far.
    pub fn backward_passes(&self) -> u64 {
        self.backward_passes
    }

    /// Resets the pass counters (e.g. at an epoch boundary).
    pub fn reset_pass_counters(&mut self) {
        self.forward_passes = 0;
        self.backward_passes = 0;
    }

    /// Credits passes performed on behalf of this classifier by replicas
    /// (e.g. data-parallel attack crafting on clones).
    ///
    /// Counted in batch-row equivalents: a batch processed as several
    /// parallel chunks costs the same row count as one serial pass, so
    /// callers credit one forward/backward per logical batch regardless
    /// of chunking. This keeps the Table I cost accounting independent
    /// of the thread count.
    ///
    /// Deliberately does **not** tick the global trace clock: the
    /// replicas already ticked it once per actual pass, and crediting
    /// again here would double-count.
    pub fn credit_external_passes(&mut self, forward: u64, backward: u64) {
        self.forward_passes += forward;
        self.backward_passes += backward;
    }

    /// Counts one real forward pass on both the per-model counter and
    /// the global trace clock.
    fn note_forward(&mut self) {
        self.forward_passes += 1;
        simpadv_trace::clock::tick_forward(1);
    }

    /// Counts one real backward pass on both the per-model counter and
    /// the global trace clock.
    fn note_backward(&mut self) {
        self.backward_passes += 1;
        simpadv_trace::clock::tick_backward(1);
    }

    /// Training-mode forward pass (dropout active, batch-norm batch stats).
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        self.note_forward();
        self.net.forward(x, Mode::Train)
    }

    /// One optimizer step on a batch: forward, loss, backward, update.
    /// Returns the batch's mean loss.
    ///
    /// The backward pass computes parameter gradients only
    /// ([`Layer::backward_params`]): nothing reads the gradient with respect
    /// to the input, so the first layer skips it.
    pub fn train_batch(&mut self, x: &Tensor, y: &[usize], opt: &mut dyn Optimizer) -> f32 {
        let logits = self.forward_train(x);
        let (loss, grad) = self.loss.forward(&logits, y);
        self.net.zero_grad();
        self.note_backward();
        self.net.backward_params(&grad);
        opt.step(&mut self.net.params());
        loss
    }

    /// Like [`Classifier::train_batch`], but also returns the gradient of
    /// the batch loss with respect to the **input** — computed by the same
    /// backward pass that produced the parameter gradients, i.e. at zero
    /// extra cost.
    ///
    /// This enables "free"-style adversarial training, where the attack
    /// direction is recycled from the training backward pass.
    pub fn train_batch_with_input_grad(
        &mut self,
        x: &Tensor,
        y: &[usize],
        opt: &mut dyn Optimizer,
    ) -> (f32, Tensor) {
        let logits = self.forward_train(x);
        let (loss, grad) = self.loss.forward(&logits, y);
        self.net.zero_grad();
        self.note_backward();
        let grad_x = self.net.backward(&grad);
        opt.step(&mut self.net.params());
        (loss, grad_x)
    }

    /// One optimizer step from an externally computed logit gradient:
    /// backpropagates `grad_logits` through the network cached by the last
    /// [`Classifier::forward_train`] call and applies `opt`.
    ///
    /// This is the hook for methods with composite losses (e.g. ATDA's
    /// domain-adaptation terms) that cannot be expressed as a per-example
    /// criterion. Like [`Classifier::train_batch`], it skips the input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run or the gradient shape does
    /// not match the last forward output.
    pub fn step_from_logit_grad(&mut self, grad_logits: &Tensor, opt: &mut dyn Optimizer) {
        self.net.zero_grad();
        self.note_backward();
        self.net.backward_params(grad_logits);
        opt.step(&mut self.net.params());
    }

    /// Mean loss of a batch without updating parameters (evaluation mode).
    pub fn eval_loss(&mut self, x: &Tensor, y: &[usize]) -> f32 {
        let logits = self.logits(x);
        self.loss.forward(&logits, y).0
    }

    /// Predicted class per row (evaluation mode).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }
}

impl GradientModel for Classifier {
    fn logits(&mut self, x: &Tensor) -> Tensor {
        self.note_forward();
        self.net.forward(x, Mode::Eval)
    }

    fn loss_and_input_grad(&mut self, x: &Tensor, y: &[usize]) -> (f32, Tensor) {
        self.note_forward();
        let logits = self.net.forward(x, Mode::Eval);
        let (loss, grad_logits) = self.loss.forward(&logits, y);
        // Attack gradients cannot pollute the training gradients: an
        // eval-mode backward leaves the weight gradients untouched (batch
        // norm's may accumulate), and every train step zeroes them before
        // its own backward.
        self.note_backward();
        (loss, self.net.backward(&grad_logits))
    }

    fn custom_input_grad(
        &mut self,
        x: &Tensor,
        grad_of_logits: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Tensor {
        self.note_forward();
        let logits = self.net.forward(x, Mode::Eval);
        let grad_logits = grad_of_logits(&logits);
        assert_eq!(grad_logits.shape(), logits.shape(), "custom logit gradient shape mismatch");
        self.note_backward();
        self.net.backward(&grad_logits)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm1d, Dense, Relu};
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_classifier(seed: u64) -> Classifier {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        Classifier::new(net, 3)
    }

    /// `tiny_classifier` with batch norm, whose eval-mode backward still
    /// accumulates its parameter gradients.
    fn tiny_bn_classifier(seed: u64) -> Classifier {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(BatchNorm1d::new(16, 0.1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        Classifier::new(net, 3)
    }

    fn toy_batch(seed: u64) -> (Tensor, Vec<usize>) {
        // three linearly separable clusters on coordinate axes
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            let mut row = vec![0.0f32; 4];
            row[class] = 1.0;
            for v in row.iter_mut() {
                *v += 0.1 * (Tensor::rand_uniform(&mut rng, &[1], -1.0, 1.0).item());
            }
            xs.extend_from_slice(&row);
            ys.push(class);
        }
        (Tensor::from_vec(xs, &[30, 4]), ys)
    }

    #[test]
    fn training_learns_separable_data() {
        let mut clf = tiny_classifier(0);
        let (x, y) = toy_batch(1);
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            clf.train_batch(&x, &y, &mut opt);
        }
        let acc = crate::metrics::accuracy(&clf.logits(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut clf = tiny_classifier(2);
        let (x, y) = toy_batch(3);
        let x = x.rows(0..4);
        let y = &y[..4];
        let (_, grad) = clf.loss_and_input_grad(&x, y);
        let h = 1e-2;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let num = (clf.eval_loss(&xp, y) - clf.eval_loss(&xm, y)) / (2.0 * h);
            let ana = grad.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * 1.0f32.max(num.abs()),
                "input grad[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn attack_gradients_do_not_leak_into_training() {
        for make in [tiny_classifier, tiny_bn_classifier] {
            let mut a = make(7);
            let mut b = make(7);
            let (x, y) = toy_batch(4);
            let mut opt_a = Sgd::new(0.1);
            let mut opt_b = Sgd::new(0.1);
            // model a computes input gradients before each step; b does not
            for _ in 0..2 {
                let _ = a.loss_and_input_grad(&x, &y);
                let _ = a.custom_input_grad(&x, &mut |logits| logits.clone());
                let la = a.train_batch(&x, &y, &mut opt_a);
                let lb = b.train_batch(&x, &y, &mut opt_b);
                assert_eq!(la.to_bits(), lb.to_bits());
                let _ = a.loss_and_input_grad(&x, &y);
                let (la, _) = a.train_batch_with_input_grad(&x, &y, &mut opt_a);
                let (lb, _) = b.train_batch_with_input_grad(&x, &y, &mut opt_b);
                assert_eq!(la.to_bits(), lb.to_bits());
            }
            assert_eq!(a.logits(&x), b.logits(&x));
        }
    }

    #[test]
    fn pass_counters_track_work() {
        let mut clf = tiny_classifier(0);
        let (x, y) = toy_batch(1);
        assert_eq!(clf.forward_passes(), 0);
        let _ = clf.logits(&x);
        assert_eq!((clf.forward_passes(), clf.backward_passes()), (1, 0));
        let _ = clf.loss_and_input_grad(&x, &y);
        assert_eq!((clf.forward_passes(), clf.backward_passes()), (2, 1));
        let mut opt = Sgd::new(0.1);
        let _ = clf.train_batch(&x, &y, &mut opt);
        assert_eq!((clf.forward_passes(), clf.backward_passes()), (3, 2));
        clf.reset_pass_counters();
        assert_eq!((clf.forward_passes(), clf.backward_passes()), (0, 0));
    }

    #[test]
    fn predict_returns_argmax() {
        let mut clf = tiny_classifier(0);
        let (x, _) = toy_batch(1);
        let preds = clf.predict(&x);
        assert_eq!(preds.len(), 30);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn num_classes_exposed() {
        assert_eq!(tiny_classifier(0).num_classes(), 3);
    }
}
