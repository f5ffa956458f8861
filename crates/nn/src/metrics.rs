//! Classification metrics.

use simpadv_tensor::Tensor;

/// Fraction of rows whose argmax prediction equals the label.
///
/// # Panics
///
/// Panics if `logits` is not `[n, c]` or `labels.len() != n`.
///
/// # Example
///
/// ```
/// use simpadv_nn::accuracy;
/// use simpadv_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]);
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.rank(), 2, "accuracy expects [n, c] logits");
    assert_eq!(logits.shape()[0], labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

/// A `c × c` confusion matrix: `counts[true][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        ConfusionMatrix { classes, counts: vec![0; classes * classes] }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.classes && predicted < self.classes, "class index out of range");
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// The count at `(truth, predicted)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        assert!(truth < self.classes && predicted < self.classes, "class index out of range");
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass / total); 0 when empty.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.counts[i * self.classes + i]).sum();
        diag as f32 / total as f32
    }

    /// Per-class recall: diagonal / row sum (`None` for unseen classes).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range for the matrix.
    pub fn recall(&self, class: usize) -> Option<f32> {
        assert!(class < self.classes, "class index out of range");
        let row: u64 = (0..self.classes).map(|j| self.counts[class * self.classes + j]).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / row as f32)
        }
    }

    /// Per-class precision: diagonal / column sum (`None` when never
    /// predicted).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range for the matrix.
    pub fn precision(&self, class: usize) -> Option<f32> {
        assert!(class < self.classes, "class index out of range");
        let col: u64 = (0..self.classes).map(|i| self.counts[i * self.classes + class]).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / col as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }

    #[test]
    fn confusion_matrix_diagonal() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 0);
        m.record(1, 1);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(1, 1), 1);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn recall_and_precision() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 0);
        m.record(0, 1);
        m.record(1, 1);
        assert_eq!(m.recall(0), Some(0.5));
        assert_eq!(m.recall(1), Some(1.0));
        assert_eq!(m.precision(1), Some(0.5));
        assert_eq!(m.precision(0), Some(1.0));
    }

    #[test]
    fn unseen_class_has_no_recall() {
        let m = ConfusionMatrix::new(3);
        assert_eq!(m.recall(2), None);
        assert_eq!(m.precision(2), None);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_validates_indices() {
        ConfusionMatrix::new(2).record(2, 0);
    }
}
