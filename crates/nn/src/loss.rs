//! The softmax cross-entropy loss and softmax helpers.

use simpadv_tensor::Tensor;

/// Row-wise numerically stable softmax of a `[n, c]` logit tensor.
///
/// # Panics
///
/// Panics if `logits` is not rank 2.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax expects [n, c], got {:?}", logits.shape());
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    let mut out = vec![0.0f32; n * c];
    let s = logits.as_slice();
    for i in 0..n {
        let row = &s[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for j in 0..c {
            let e = (row[j] - m).exp();
            out[i * c + j] = e;
            z += e;
        }
        for j in 0..c {
            out[i * c + j] /= z;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Row-wise numerically stable log-softmax of a `[n, c]` logit tensor.
///
/// # Panics
///
/// Panics if `logits` is not rank 2.
pub fn log_softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "log_softmax expects [n, c], got {:?}", logits.shape());
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    let mut out = vec![0.0f32; n * c];
    let s = logits.as_slice();
    for i in 0..n {
        let row = &s[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        for j in 0..c {
            out[i * c + j] = row[j] - lse;
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Fused softmax + cross-entropy over integer class labels: the training
/// criterion of every classifier in this project.
///
/// [`SoftmaxCrossEntropy::forward`] returns the mean loss over the batch
/// **and** its gradient with respect to the logits, so trainers never pay
/// a second pass. The fused gradient is the numerically exact
/// `softmax(logits) - onehot`, scaled by `1/n` for the batch mean.
///
/// # Example
///
/// ```
/// use simpadv_nn::SoftmaxCrossEntropy;
/// use simpadv_tensor::Tensor;
///
/// let loss = SoftmaxCrossEntropy::new();
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2]);
/// let (l, grad) = loss.forward(&logits, &[0]);
/// assert!(l < 1e-3); // confident and correct
/// assert_eq!(grad.shape(), &[1, 2]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy
    }

    /// Computes `(mean_loss, dloss/dpredictions)`.
    ///
    /// # Panics
    ///
    /// Panics if `predictions` is not `[n, c]`, `targets.len() != n`, or
    /// any label is out of range.
    pub fn forward(&self, predictions: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        assert_eq!(predictions.rank(), 2, "cross-entropy expects [n, c] logits");
        let (n, c) = (predictions.shape()[0], predictions.shape()[1]);
        assert_eq!(targets.len(), n, "label count {} != batch size {n}", targets.len());
        let logp = log_softmax(predictions);
        let mut grad = softmax(predictions);
        let mut loss = 0.0;
        let scale = 1.0 / n as f32;
        let g = grad.as_mut_slice();
        let lp = logp.as_slice();
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < c, "label {t} out of range for {c} classes");
            loss -= lp[i * c + t];
            g[i * c + t] -= 1.0;
        }
        grad.scale_in_place(scale);
        (loss * scale, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_matches_log_softmax() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.as_slice().iter().zip(lp.as_slice()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], &[1, 2]);
        let p = softmax(&logits);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!((p.row(0).sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[4, 10]);
        let (l, _) = loss.forward(&logits, &[0, 3, 5, 9]);
        assert!((l - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_is_softmax_minus_onehot() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5], &[1, 3]);
        let (_, grad) = loss.forward(&logits, &[1]);
        let p = softmax(&logits);
        assert!((grad.as_slice()[0] - p.as_slice()[0]).abs() < 1e-6);
        assert!((grad.as_slice()[1] - (p.as_slice()[1] - 1.0)).abs() < 1e-6);
        // batch-mean gradient sums to ~0 over the correct coordinate system
        assert!(grad.sum().abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_differences() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2], &[2, 3]);
        let targets = [2usize, 0];
        let (_, grad) = loss.forward(&logits, &targets);
        let h = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= h;
            let num = (loss.forward(&lp, &targets).0 - loss.forward(&lm, &targets).0) / (2.0 * h);
            assert!(
                (num - grad.as_slice()[i]).abs() < 1e-3,
                "grad[{i}] numeric {num} vs analytic {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn perfect_prediction_has_small_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0], &[1, 3]);
        let (l, _) = loss.forward(&logits, &[0]);
        assert!(l < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ce_validates_labels() {
        SoftmaxCrossEntropy::new().forward(&Tensor::zeros(&[1, 3]), &[3]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn ce_validates_label_count() {
        SoftmaxCrossEntropy::new().forward(&Tensor::zeros(&[2, 3]), &[0]);
    }
}
