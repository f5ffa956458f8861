//! The checkpoint envelope: a self-describing, checksummed container.
//!
//! Layout on disk:
//!
//! ```text
//! {"magic":"simpadv-ckpt","version":1,"len":<payload bytes>,"crc32":<u32>}\n
//! <payload bytes>
//! ```
//!
//! The header is a single JSON line so torn or corrupted files are
//! diagnosable with `head -1`; the CRC32 covers the payload only. Any
//! single-byte flip anywhere (header or payload) and any truncation is
//! detected by [`unseal`].

use crate::checksum::crc32;
use crate::error::PersistError;
use serde::{Deserialize, Serialize};

/// Magic string identifying a sealed file.
pub const MAGIC: &str = "simpadv-ckpt";
/// Highest envelope format version this build reads and writes.
pub const VERSION: u32 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    len: u64,
    crc32: u32,
}

/// Wraps `payload` in a sealed envelope ready for [`crate::atomic_write`].
///
/// # Panics
///
/// Panics if the header fails to serialize, which the fixed
/// string/integer header layout rules out.
#[expect(clippy::panic, reason = "R1: documented `# Panics` contract")]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let header = Header {
        magic: MAGIC.to_string(),
        version: VERSION,
        len: payload.len() as u64,
        crc32: crc32(payload),
    };
    // The header struct contains only strings and integers; the shim
    // serializer cannot fail on it.
    let line = serde_json::to_string(&header)
        .unwrap_or_else(|e| panic!("envelope header serialization failed: {e}"));
    let mut out = Vec::with_capacity(line.len() + 1 + payload.len());
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(payload);
    out
}

/// Validates a sealed envelope and returns its payload slice.
///
/// # Errors
///
/// * [`PersistError::BadHeader`] — no newline, non-UTF-8 or unparsable
///   header line, or wrong magic
/// * [`PersistError::Version`] — header version newer than [`VERSION`]
/// * [`PersistError::Truncated`] — payload shorter than `len`
/// * [`PersistError::Corrupt`] — CRC32 mismatch (also raised when the
///   payload is *longer* than `len`, which a checksum over the declared
///   prefix cannot otherwise distinguish from damage)
pub fn unseal(bytes: &[u8]) -> Result<&[u8], PersistError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| PersistError::BadHeader { detail: "missing header line".to_string() })?;
    let line = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| PersistError::BadHeader { detail: "header is not UTF-8".to_string() })?;
    let header: Header = serde_json::from_str(line)
        .map_err(|e| PersistError::BadHeader { detail: format!("unparsable header: {e}") })?;
    if header.magic != MAGIC {
        return Err(PersistError::BadHeader {
            detail: format!("magic {:?} is not {MAGIC:?}", header.magic),
        });
    }
    if header.version == 0 || header.version > VERSION {
        return Err(PersistError::Version { found: header.version, supported: VERSION });
    }
    let payload = &bytes[newline + 1..];
    let expected = header.len as usize;
    if payload.len() < expected {
        return Err(PersistError::Truncated { expected, found: payload.len() });
    }
    let payload = &payload[..expected];
    let found = crc32(payload);
    if found != header.crc32 || bytes.len() != newline + 1 + expected {
        return Err(PersistError::Corrupt { expected: header.crc32, found });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let payload = b"{\"epoch\":3}";
        let sealed = seal(payload);
        assert!(sealed.starts_with(b"{\"magic\":\"simpadv-ckpt\""), "header leads");
        assert_eq!(unseal(&sealed).unwrap(), payload);
        assert_eq!(unseal(&seal(b"")).unwrap(), b"");
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal(b"0123456789");
        for cut in 0..sealed.len() {
            let err = unseal(&sealed[..cut]).unwrap_err();
            assert!(err.is_detected_damage(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let sealed = seal(b"persistent adversarial state");
        for i in 0..sealed.len() {
            let mut damaged = sealed.clone();
            damaged[i] ^= 1;
            assert!(unseal(&damaged).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn newer_version_is_rejected() {
        let sealed = seal(b"x");
        let text = String::from_utf8(sealed).unwrap();
        let bumped = text.replacen("\"version\":1", "\"version\":99", 1);
        let err = unseal(bumped.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Version { found: 99, supported: VERSION }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut sealed = seal(b"x");
        sealed.extend_from_slice(b"junk");
        assert!(unseal(&sealed).is_err());
    }
}
