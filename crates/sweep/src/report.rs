//! The per-cell result contract between orchestrator and child.
//!
//! A supervised child (the `simpadv` CLI's `train` verb with `--report`)
//! writes exactly one [`CellReport`] — sealed, CRC-checked, atomic — as
//! its last act before exiting 0. The orchestrator treats the report as
//! the *only* evidence a cell completed: an exit status of 0 without a
//! readable report is still a failed attempt (the child may have been
//! killed between its final checkpoint and the rename). Because training
//! is bitwise deterministic and checkpoints carry the accumulated report
//! state, a retried or resumed cell reproduces this file bit for bit.

use crate::error::SweepError;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version stamp for the report payload; bump on layout change.
pub const CELL_REPORT_VERSION: u32 = 1;

/// Everything the campaign aggregate needs from one finished cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Layout version ([`CELL_REPORT_VERSION`]).
    pub schema_version: u32,
    /// Dataset the cell trained on.
    pub dataset: String,
    /// Trainer name.
    pub method_id: String,
    /// Perturbation budget used for training and evaluation.
    pub eps: f32,
    /// Epochs actually run.
    pub epochs: u64,
    /// Training samples.
    pub samples: u64,
    /// Held-out evaluation size.
    pub test_samples: u64,
    /// Training seed.
    pub seed: u64,
    /// Final training loss (logical: bitwise thread-invariant).
    pub final_loss: f32,
    /// Evaluation column names (clean + per-attack), from `EvalSuite`.
    pub columns: Vec<String>,
    /// Accuracies aligned with `columns`.
    pub accuracies: Vec<f32>,
}

impl CellReport {
    /// Writes the report sealed and atomically.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures as [`SweepError::Persist`].
    pub fn save(&self, path: &Path) -> Result<(), SweepError> {
        simpadv_resilience::write_sealed_json(path, self)?;
        Ok(())
    }

    /// Loads and validates a report written by [`CellReport::save`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Persist`] when the file is missing, damaged, or not
    /// a report; [`SweepError::Config`] on a schema-version mismatch.
    pub fn load(path: &Path) -> Result<Self, SweepError> {
        let report: CellReport = simpadv_resilience::read_sealed_json(path)?;
        if report.schema_version != CELL_REPORT_VERSION {
            return Err(SweepError::Config(format!(
                "cell report {} has schema version {} (expected {CELL_REPORT_VERSION})",
                path.display(),
                report.schema_version
            )));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("simpadv-sweep-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn report() -> CellReport {
        CellReport {
            schema_version: CELL_REPORT_VERSION,
            dataset: "mnist".into(),
            method_id: "proposed".into(),
            eps: 0.3,
            epochs: 2,
            samples: 32,
            test_samples: 40,
            seed: 2019,
            final_loss: 1.25,
            columns: vec!["clean".into(), "fgsm".into()],
            accuracies: vec![0.9, 0.7],
        }
    }

    #[test]
    fn round_trips_sealed() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("report.json");
        report().save(&path).unwrap();
        assert_eq!(CellReport::load(&path).unwrap(), report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn damage_is_detected_not_resumed_from() {
        let dir = tmpdir("damage");
        let path = dir.join("report.json");
        report().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(CellReport::load(&path), Err(SweepError::Persist(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_a_config_error() {
        let dir = tmpdir("skew");
        let path = dir.join("report.json");
        let mut r = report();
        r.schema_version = 99;
        r.save(&path).unwrap();
        let err = CellReport::load(&path).unwrap_err();
        assert!(matches!(&err, SweepError::Config(m) if m.contains("99")), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
