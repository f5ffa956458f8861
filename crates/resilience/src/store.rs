//! Generation-numbered checkpoint directory with retention and fallback.
//!
//! A [`CheckpointStore`] owns one directory of files named
//! `ckpt-XXXXXXXX.ckpt` (zero-padded generation number). Saving always
//! creates a *new* generation via the sealed-envelope atomic write, then
//! prunes old generations down to the retention budget. Loading scans
//! generations newest-first and returns the first one whose envelope
//! validates, so a crash during (or damage after) the latest save falls
//! back to the previous good snapshot instead of failing the run.

use crate::atomic::atomic_write;
use crate::envelope::{seal, unseal};
use crate::error::PersistError;
use std::fs;
use std::path::{Path, PathBuf};

/// Default number of newest generations kept on disk.
pub const DEFAULT_KEEP: usize = 3;

/// A directory of checksummed, generation-numbered checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if absent) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| PersistError::io("create-dir", e))?;
        Ok(CheckpointStore { dir, keep: DEFAULT_KEEP })
    }

    /// Overrides the retention budget (minimum 1).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.ckpt"))
    }

    fn parse_generation(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
        digits.parse().ok()
    }

    /// All generation numbers present on disk (valid or not), ascending.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be listed.
    pub fn generations(&self) -> Result<Vec<u64>, PersistError> {
        let mut gens = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| PersistError::io("list", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::io("list", e))?;
            if let Some(g) = Self::parse_generation(&entry.path()) {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Seals `payload` and writes it as a new generation, then applies
    /// retention. Returns the new generation number.
    ///
    /// Retention runs only after the save fully succeeded, so an injected
    /// fault can never reduce the set of valid generations.
    ///
    /// # Errors
    ///
    /// Propagates write-path errors; the previous generations remain
    /// untouched in that case.
    pub fn save(&self, payload: &[u8]) -> Result<u64, PersistError> {
        let generation = self.generations()?.last().copied().map_or(1, |g| g + 1);
        let _span = simpadv_trace::span!("checkpoint/save", generation = generation);
        atomic_write(&self.file_for(generation), &seal(payload))?;
        simpadv_trace::counter("resilience/checkpoint_saved", 1);
        self.prune()?;
        Ok(generation)
    }

    /// Deletes the oldest generations beyond the retention budget.
    fn prune(&self) -> Result<(), PersistError> {
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for &g in &gens[..gens.len() - self.keep] {
                fs::remove_file(self.file_for(g)).map_err(|e| PersistError::io("prune", e))?;
                simpadv_trace::counter("resilience/checkpoint_pruned", 1);
            }
        }
        Ok(())
    }

    /// Loads and validates one specific generation.
    ///
    /// # Errors
    ///
    /// IO errors reading the file, or detected-damage errors from the
    /// envelope check.
    pub fn load(&self, generation: u64) -> Result<Vec<u8>, PersistError> {
        let bytes = fs::read(self.file_for(generation)).map_err(|e| PersistError::io("read", e))?;
        Ok(unseal(&bytes)?.to_vec())
    }

    /// Loads the newest generation that passes validation, skipping (but
    /// not deleting) damaged ones. Returns `Ok(None)` for an empty store.
    ///
    /// # Errors
    ///
    /// [`PersistError::NoValidGeneration`] when generations exist but
    /// none validates; [`PersistError::Io`] on directory-listing failure.
    pub fn load_latest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, PersistError> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        for &g in gens.iter().rev() {
            match self.load(g) {
                Ok(payload) => {
                    simpadv_trace::counter("resilience/checkpoint_loaded", 1);
                    return Ok(Some((g, payload)));
                }
                Err(e) => {
                    simpadv_trace::counter_with(
                        "resilience/checkpoint_skipped",
                        1,
                        &[("reason", simpadv_trace::FieldValue::from(e.to_string()))],
                    );
                }
            }
        }
        Err(PersistError::NoValidGeneration { dir: self.dir.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpstore(tag: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("simpadv-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap().with_keep(keep)
    }

    #[test]
    fn save_load_round_trip_and_generation_order() {
        let store = tmpstore("roundtrip", 3);
        assert_eq!(store.load_latest_valid().unwrap(), None, "empty store");
        assert_eq!(store.save(b"one").unwrap(), 1);
        assert_eq!(store.save(b"two").unwrap(), 2);
        let (generation, payload) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!((generation, payload.as_slice()), (2, b"two".as_slice()));
        assert_eq!(store.load(1).unwrap(), b"one");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retention_keeps_newest() {
        let store = tmpstore("retention", 2);
        for i in 0..5u8 {
            store.save(&[i]).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn damaged_latest_falls_back() {
        let store = tmpstore("fallback", 3);
        store.save(b"good").unwrap();
        store.save(b"newer").unwrap();
        // Corrupt generation 2 in place (flip one payload byte).
        let path = store.dir().join("ckpt-00000002.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (generation, payload) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!((generation, payload.as_slice()), (1, b"good".as_slice()));
        // A truncated gen-3 on top of that is skipped too.
        fs::write(store.dir().join("ckpt-00000003.ckpt"), b"{\"magic\"").unwrap();
        let (generation, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(generation, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn all_damaged_is_an_explicit_error() {
        let store = tmpstore("alldamaged", 3);
        store.save(b"x").unwrap();
        fs::write(store.dir().join("ckpt-00000001.ckpt"), b"garbage").unwrap();
        let err = store.load_latest_valid().unwrap_err();
        assert!(matches!(err, PersistError::NoValidGeneration { .. }));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn next_generation_counts_past_damaged_files() {
        let store = tmpstore("numbering", 3);
        store.save(b"a").unwrap();
        fs::write(store.dir().join("ckpt-00000009.ckpt"), b"garbage").unwrap();
        assert_eq!(store.save(b"b").unwrap(), 10, "numbering never reuses a name");
        let _ = fs::remove_dir_all(store.dir());
    }
}
