//! Property tests for the corruption-handling contract: *any* single-byte
//! flip or truncation of a sealed checkpoint is detected, and the store
//! falls back to the previous generation.

use proptest::collection::vec;
use proptest::prelude::*;
use simpadv_resilience::{seal, unseal, CheckpointStore};

fn unique_dir(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("simpadv-prop-{tag}-{}-{case}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sealed_round_trip(payload in vec(0u8..=255, 0..256)) {
        let sealed = seal(&payload);
        prop_assert_eq!(unseal(&sealed).unwrap(), payload.as_slice());
    }

    #[test]
    fn any_single_byte_flip_is_detected(
        payload in vec(0u8..=255, 1..200),
        pos_seed in 0u64..u64::MAX,
        bit in 0u32..8,
    ) {
        let sealed = seal(&payload);
        let pos = (pos_seed % sealed.len() as u64) as usize;
        let mut damaged = sealed.clone();
        damaged[pos] ^= 1u8 << bit;
        prop_assert!(
            unseal(&damaged).is_err(),
            "flip of bit {} at byte {} undetected", bit, pos
        );
    }

    #[test]
    fn any_truncation_is_detected(
        payload in vec(0u8..=255, 1..200),
        cut_seed in 0u64..u64::MAX,
    ) {
        let sealed = seal(&payload);
        let cut = (cut_seed % sealed.len() as u64) as usize; // strictly shorter
        prop_assert!(unseal(&sealed[..cut]).is_err(), "truncation to {} undetected", cut);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
    fn store_falls_back_to_previous_generation(
        old_payload in vec(0u8..=255, 1..64),
        new_payload in vec(0u8..=255, 1..64),
        pos_seed in 0u64..u64::MAX,
        case in 0u64..u64::MAX,
    ) {
        let dir = unique_dir("fallback", case);
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let old_generation = store.save(&old_payload).unwrap();
        let new_generation = store.save(&new_payload).unwrap();

        // Damage the newest generation at an arbitrary byte.
        let path = dir.join(format!("ckpt-{new_generation:08}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1;
        std::fs::write(&path, &bytes).unwrap();

        let (generation, payload) = store.load_latest_valid().unwrap().unwrap();
        prop_assert_eq!(generation, old_generation);
        prop_assert_eq!(payload, old_payload);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
