//! The [`PersistError`] type shared by every durable-IO path in the
//! workspace.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong while persisting or recovering state.
///
/// The variants are deliberately fine-grained: recovery code needs to
/// distinguish *detected corruption* (fall back to an older generation)
/// from *environmental IO failure* (retry or surface) from *logical
/// mismatch* (refuse to resume).
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system IO error at a named site (`"create-temp"`,
    /// `"write"`, `"fsync"`, `"rename"`, `"list"`, ...).
    Io {
        /// The IO site that failed.
        site: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A failpoint forced an error at the named site (test-only paths).
    Injected {
        /// The failpoint site that fired.
        site: String,
    },
    /// The envelope header line is missing or unparsable.
    BadHeader {
        /// Human-readable description of what was wrong.
        detail: String,
    },
    /// The envelope advertises a format version this build cannot read.
    Version {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// Payload checksum does not match the sealed header.
    Corrupt {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 computed over the payload actually on disk.
        found: u32,
    },
    /// Payload is shorter than the sealed header promised.
    Truncated {
        /// Byte length recorded in the header.
        expected: usize,
        /// Byte length actually present.
        found: usize,
    },
    /// Serialization to JSON failed.
    Encode(String),
    /// Deserialization from JSON failed.
    Decode(String),
    /// A checkpoint directory holds no generation that passes validation.
    NoValidGeneration {
        /// The directory that was scanned.
        dir: PathBuf,
    },
    /// A tensor about to be persisted (or just restored) holds NaN/Inf.
    NonFinite {
        /// Name of the offending entry (layer parameter, aux batch, ...).
        name: String,
    },
    /// A state dictionary does not fit the model it is restored into: an
    /// entry is missing, extra, or has the wrong shape.
    StateMismatch {
        /// Name of the first offending entry (e.g. `"0.weight"`).
        name: String,
        /// What is wrong with it.
        detail: String,
    },
    /// A resumed snapshot does not match the live run configuration.
    Mismatch {
        /// Which field disagreed (`"trainer"`, `"config"`, `"data"`...).
        what: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { site, source } => write!(f, "io error at {site}: {source}"),
            PersistError::Injected { site } => write!(f, "injected fault at failpoint {site}"),
            PersistError::BadHeader { detail } => write!(f, "bad envelope header: {detail}"),
            PersistError::Version { found, supported } => {
                write!(f, "unsupported envelope version {found} (supported <= {supported})")
            }
            PersistError::Corrupt { expected, found } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload is {found:#010x}"
            ),
            PersistError::Truncated { expected, found } => {
                write!(f, "truncated payload: header says {expected} bytes, found {found}")
            }
            PersistError::Encode(msg) => write!(f, "encode error: {msg}"),
            PersistError::Decode(msg) => write!(f, "decode error: {msg}"),
            PersistError::NoValidGeneration { dir } => {
                write!(f, "no valid checkpoint generation in {}", dir.display())
            }
            PersistError::NonFinite { name } => {
                write!(f, "non-finite value in tensor {name:?}")
            }
            PersistError::StateMismatch { name, detail } => {
                write!(f, "state entry {name:?} {detail}")
            }
            PersistError::Mismatch { what, detail } => {
                write!(f, "resume mismatch on {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PersistError {
    /// Wraps an OS error with the IO site where it happened.
    pub fn io(site: &str, source: std::io::Error) -> Self {
        PersistError::Io { site: site.to_string(), source }
    }

    /// True when the error means *the bytes on disk are wrong* (checksum,
    /// truncation, header or version damage) rather than an environmental
    /// failure. Detected damage triggers generation fallback; IO errors
    /// propagate.
    pub fn is_detected_damage(&self) -> bool {
        matches!(
            self,
            PersistError::BadHeader { .. }
                | PersistError::Version { .. }
                | PersistError::Corrupt { .. }
                | PersistError::Truncated { .. }
                | PersistError::Decode(_)
        )
    }
}

impl From<PersistError> for std::io::Error {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io { source, .. } => source,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PersistError::Corrupt { expected: 0xdead_beef, found: 0x1234_5678 };
        let s = e.to_string();
        assert!(s.contains("0xdeadbeef"), "{s}");
        assert!(s.contains("0x12345678"), "{s}");
        assert!(e.is_detected_damage());
        assert!(!PersistError::io("write", std::io::Error::other("x")).is_detected_damage());
    }

    #[test]
    fn io_conversion_preserves_message() {
        let e = PersistError::Truncated { expected: 10, found: 3 };
        let io: std::io::Error = e.into();
        assert!(io.to_string().contains("truncated"));
    }
}
