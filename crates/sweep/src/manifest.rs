//! The generation-numbered, CRC-sealed campaign manifest.
//!
//! The manifest is the orchestrator's only durable state: grid config,
//! retry policy, and one [`CellState`] per cell. It is saved through a
//! [`simpadv_resilience::CheckpointStore`] after **every** cell
//! transition (about to spawn, finished, quarantined), so a SIGKILL at
//! any instant leaves either the previous or the next generation intact
//! — never a torn file. `sweep --resume` loads the newest generation
//! that validates and continues from exactly that transition.
//!
//! A cell found in [`CellStatus::Running`] on load is the crash
//! signature: the orchestrator died while a child was in flight. The
//! attempt was already charged when the cell went `Running`, so resume
//! treats it as a failed attempt and re-enters the retry path.

use crate::error::SweepError;
use crate::grid::{CellSpec, GridSpec};
use serde::{Deserialize, Serialize};
use simpadv_resilience::CheckpointStore;
use std::path::Path;

/// Version stamp for the manifest payload; bump on layout change.
pub const MANIFEST_VERSION: u32 = 1;

/// Manifest generations retained on disk (current + fallback history).
pub const MANIFEST_KEEP: usize = 4;

/// Retry/backoff policy persisted with the campaign so a resumed
/// orchestrator replays the identical schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// First-retry delay in microseconds.
    pub base_us: u64,
    /// Per-retry delay ceiling in microseconds.
    pub cap_us: u64,
    /// Attempts allowed per cell (first try + retries) before quarantine.
    pub max_attempts: u32,
    /// Campaign-wide retry budget shared by all cells.
    pub budget: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { base_us: 50_000, cap_us: 5_000_000, max_attempts: 4, budget: 16 }
    }
}

impl RetryConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_us == 0 {
            return Err("retry base must be positive".into());
        }
        if self.cap_us < self.base_us {
            return Err("retry cap must be >= base".into());
        }
        if self.max_attempts == 0 {
            return Err("max-attempts must be positive".into());
        }
        Ok(())
    }
}

/// Everything a campaign is parameterized by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Layout version ([`MANIFEST_VERSION`]).
    pub schema_version: u32,
    /// The declarative grid.
    pub grid: GridSpec,
    /// Retry/backoff policy.
    pub retry: RetryConfig,
    /// Per-cell wall deadline in microseconds (child killed past it).
    pub cell_deadline_us: u64,
}

/// Lifecycle of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Not yet attempted (or awaiting its next retry).
    Pending,
    /// A child is (or was, if the orchestrator died) in flight.
    Running,
    /// Completed with a valid report.
    Done,
    /// Retry budget or attempt cap exhausted; excluded from the
    /// aggregate's result rows but listed with its failure cause.
    Quarantined,
}

/// Durable per-cell progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellState {
    /// The grid point this cell realizes.
    pub spec: CellSpec,
    /// Current lifecycle stage.
    pub status: CellStatus,
    /// Attempts charged so far (incremented when a child is spawned).
    pub attempts: u32,
    /// Failure cause of the most recent unsuccessful attempt.
    pub last_error: Option<String>,
}

/// The whole durable campaign state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Immutable campaign parameters.
    pub config: CampaignConfig,
    /// Per-cell progress, in expansion order.
    pub cells: Vec<CellState>,
    /// Retries drawn from the campaign-wide budget so far.
    pub retries_spent: u32,
}

impl CampaignManifest {
    /// Builds the generation-0 manifest for a validated config.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] when the grid or retry policy is invalid.
    pub fn new(config: CampaignConfig) -> Result<Self, SweepError> {
        config.grid.validate().map_err(SweepError::Config)?;
        config.retry.validate().map_err(SweepError::Config)?;
        if config.cell_deadline_us == 0 {
            return Err(SweepError::Config("cell deadline must be positive".into()));
        }
        let cells = config
            .grid
            .expand()
            .into_iter()
            .map(|spec| CellState {
                spec,
                status: CellStatus::Pending,
                attempts: 0,
                last_error: None,
            })
            .collect();
        Ok(CampaignManifest { config, cells, retries_spent: 0 })
    }

    /// Counts cells in the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// True when every cell reached a terminal status.
    pub fn is_finished(&self) -> bool {
        self.cells.iter().all(|c| matches!(c.status, CellStatus::Done | CellStatus::Quarantined))
    }
}

/// The manifest's durable home: a checkpoint store under
/// `<campaign dir>/manifest`.
pub struct ManifestStore {
    store: CheckpointStore,
}

impl ManifestStore {
    /// Opens (creating if needed) the manifest store for a campaign dir.
    ///
    /// # Errors
    ///
    /// Propagates store-creation failures.
    pub fn open(campaign_dir: &Path) -> Result<Self, SweepError> {
        let store = CheckpointStore::open(campaign_dir.join("manifest"))?.with_keep(MANIFEST_KEEP);
        Ok(ManifestStore { store })
    }

    /// Seals and saves the manifest as the next generation.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures.
    pub fn save(&self, manifest: &CampaignManifest) -> Result<u64, SweepError> {
        let json = serde_json::to_string(manifest)
            .map_err(|e| SweepError::Config(format!("manifest encode: {e}")))?;
        let generation = self.store.save(json.as_bytes())?;
        Ok(generation)
    }

    /// Loads the newest manifest generation that validates, skipping
    /// damaged ones; `None` when no valid generation exists.
    ///
    /// # Errors
    ///
    /// IO failures while scanning; a manifest that unseals but does not
    /// parse (or has the wrong schema version) is a config error, not a
    /// silently skipped generation.
    pub fn load_latest(&self) -> Result<Option<(u64, CampaignManifest)>, SweepError> {
        let Some((generation, payload)) = self.store.load_latest_valid()? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| SweepError::Config("manifest payload is not UTF-8".into()))?;
        let manifest: CampaignManifest = serde_json::from_str(text)
            .map_err(|e| SweepError::Config(format!("manifest decode: {e}")))?;
        if manifest.config.schema_version != MANIFEST_VERSION {
            return Err(SweepError::Config(format!(
                "manifest schema version {} (expected {MANIFEST_VERSION})",
                manifest.config.schema_version
            )));
        }
        Ok(Some((generation, manifest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("simpadv-sweep-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            schema_version: MANIFEST_VERSION,
            grid: GridSpec {
                dataset: "mnist".into(),
                epochs: 1,
                seed: 2019,
                test_samples: 20,
                methods: vec!["vanilla".into()],
                epsilons: vec![0.3],
                samples: vec![16, 32],
                threads: vec![1],
            },
            retry: RetryConfig::default(),
            cell_deadline_us: 60_000_000,
        }
    }

    #[test]
    fn new_manifest_has_all_cells_pending() {
        let m = CampaignManifest::new(config()).unwrap();
        assert_eq!(m.cells.len(), 2);
        assert_eq!(m.count(CellStatus::Pending), 2);
        assert!(!m.is_finished());
        assert_eq!(m.retries_spent, 0);
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let mut c = config();
        c.grid.methods.clear();
        assert!(matches!(CampaignManifest::new(c), Err(SweepError::Config(_))));
        let mut c = config();
        c.retry.cap_us = 1;
        assert!(matches!(CampaignManifest::new(c), Err(SweepError::Config(_))));
        let mut c = config();
        c.cell_deadline_us = 0;
        assert!(matches!(CampaignManifest::new(c), Err(SweepError::Config(_))));
    }

    #[test]
    fn store_round_trips_generations() {
        let dir = tmpdir("gens");
        let store = ManifestStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());

        let mut m = CampaignManifest::new(config()).unwrap();
        assert_eq!(store.save(&m).unwrap(), 1);
        m.cells[0].status = CellStatus::Running;
        m.cells[0].attempts = 1;
        assert_eq!(store.save(&m).unwrap(), 2);

        let (generation, back) = store.load_latest().unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn damaged_newest_generation_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        let store = ManifestStore::open(&dir).unwrap();
        let mut m = CampaignManifest::new(config()).unwrap();
        store.save(&m).unwrap();
        let good = m.clone();
        m.cells[1].status = CellStatus::Done;
        store.save(&m).unwrap();

        // Corrupt generation 2 in place; the store must fall back to 1.
        let manifest_dir = dir.join("manifest");
        let newest =
            std::fs::read_dir(&manifest_dir).unwrap().map(|e| e.unwrap().path()).max().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();

        let (generation, back) = store.load_latest().unwrap().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(back, good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn running_state_survives_the_round_trip() {
        // The resume path keys off Running-on-load; make sure the enum
        // variant serializes distinguishably.
        let dir = tmpdir("running");
        let store = ManifestStore::open(&dir).unwrap();
        let mut m = CampaignManifest::new(config()).unwrap();
        m.cells[0].status = CellStatus::Running;
        m.cells[0].attempts = 2;
        m.cells[0].last_error = Some("killed by signal".into());
        m.retries_spent = 1;
        store.save(&m).unwrap();
        let (_, back) = store.load_latest().unwrap().unwrap();
        assert_eq!(back.cells[0].status, CellStatus::Running);
        assert_eq!(back.cells[0].attempts, 2);
        assert_eq!(back.retries_spent, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
