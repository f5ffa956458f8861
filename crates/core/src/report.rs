//! Training reports: per-epoch losses, span-clock timings and
//! gradient-pass counts.

use serde::{Deserialize, Serialize};
use simpadv_trace::SpanTiming;

/// What a [`crate::train::Trainer`] hands back.
///
/// Three cost measures are recorded:
///
/// * **wall-clock seconds per epoch** — the quantity Table I of the paper
///   reports, measured by the epoch's trace span;
/// * **span-clock work per epoch** — the logical forward+backward pass
///   count the same span measured on the global trace clock. Unlike wall
///   time this is bitwise identical across `--threads`, so Table I's
///   time-per-epoch *ratios* can be cross-checked against a quantity the
///   thread count cannot skew;
/// * **gradient passes per epoch** (forward + backward, batch-row
///   equivalents) — an architecture- and machine-independent measure that
///   makes the cost ratios between methods exactly verifiable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Identifier of the trainer that produced this report.
    pub trainer_id: String,
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock duration of each epoch in seconds (from the epoch
    /// span's monotonic clock).
    pub epoch_seconds: Vec<f64>,
    /// Logical span-clock work (forward + backward passes, replicas
    /// included) of each epoch — thread-count invariant.
    pub epoch_work: Vec<u64>,
    /// Forward passes per epoch.
    pub forward_passes: Vec<u64>,
    /// Backward passes per epoch.
    pub backward_passes: Vec<u64>,
}

impl TrainReport {
    /// Creates an empty report for the given trainer.
    pub fn new(trainer_id: impl Into<String>) -> Self {
        TrainReport {
            trainer_id: trainer_id.into(),
            epoch_losses: Vec::new(),
            epoch_seconds: Vec::new(),
            epoch_work: Vec::new(),
            forward_passes: Vec::new(),
            backward_passes: Vec::new(),
        }
    }

    /// Records one epoch from the timing its trace span measured.
    pub fn push_epoch(&mut self, loss: f32, timing: &SpanTiming, forward: u64, backward: u64) {
        self.epoch_losses.push(loss);
        self.epoch_seconds.push(timing.seconds);
        self.epoch_work.push(timing.work());
        self.forward_passes.push(forward);
        self.backward_passes.push(backward);
    }

    /// Number of recorded epochs.
    pub fn epochs(&self) -> usize {
        self.epoch_losses.len()
    }

    /// Mean wall-clock seconds per epoch (0 when empty).
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epoch_seconds.is_empty() {
            0.0
        } else {
            self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
        }
    }

    /// Mean logical span-clock work per epoch (0 when empty). Thread-count
    /// invariant, unlike [`TrainReport::mean_epoch_seconds`].
    pub fn mean_epoch_work(&self) -> f64 {
        if self.epoch_work.is_empty() {
            0.0
        } else {
            self.epoch_work.iter().sum::<u64>() as f64 / self.epoch_work.len() as f64
        }
    }

    /// Mean gradient passes (forward + backward) per epoch.
    pub fn mean_gradient_passes(&self) -> f64 {
        if self.forward_passes.is_empty() {
            return 0.0;
        }
        let total: u64 =
            self.forward_passes.iter().zip(&self.backward_passes).map(|(f, b)| f + b).sum();
        total as f64 / self.forward_passes.len() as f64
    }

    /// The final epoch's training loss.
    ///
    /// # Panics
    ///
    /// Panics on an empty report.
    #[expect(clippy::panic, reason = "R1: documented `# Panics` contract")]
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or_else(|| panic!("final_loss on an empty report"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_epochs() {
        let mut r = TrainReport::new("test");
        r.push_epoch(1.0, &SpanTiming::new(0.5, 12, 10), 10, 10);
        r.push_epoch(0.5, &SpanTiming::new(0.7, 14, 12), 10, 10);
        assert_eq!(r.epochs(), 2);
        assert_eq!(r.final_loss(), 0.5);
        assert!((r.mean_epoch_seconds() - 0.6).abs() < 1e-9);
        assert_eq!(r.epoch_work, vec![22, 26]);
        assert_eq!(r.mean_epoch_work(), 24.0);
        assert_eq!(r.mean_gradient_passes(), 20.0);
    }

    #[test]
    fn empty_report_means_are_zero() {
        let r = TrainReport::new("x");
        assert_eq!(r.mean_epoch_seconds(), 0.0);
        assert_eq!(r.mean_epoch_work(), 0.0);
        assert_eq!(r.mean_gradient_passes(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = TrainReport::new("t");
        r.push_epoch(0.3, &SpanTiming::new(1.25, 3, 3), 5, 4);
        let json = serde_json::to_string(&r).unwrap();
        let back: TrainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
