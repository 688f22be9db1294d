//! The sealed container: one integrity header around a UTF-8 text
//! payload, shared by every published artifact that travels as a file.
//!
//! Snapshots (`CLRSNAP1`, `CLRSNAP2`) and learner checkpoints
//! (`CLRLRN1`) all wrap their text payload — for snapshots, the
//! [`crate::DesignPointDb`] text codec — in the same 32-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (names the format)
//! 8       4     format version, u32 LE
//! 12      4     flags, u32 LE (reserved, must be 0)
//! 16      8     payload length in bytes, u64 LE
//! 24      8     FNV-1a 64 checksum of the payload, u64 LE
//! 32      n     payload (UTF-8 text)
//! ```
//!
//! [`seal`] is the only writer of that header and [`open`] its only
//! reader, so the integrity checks (magic, version, flags, declared
//! length, checksum, UTF-8) are made in one place for every format.
//!
//! # Examples
//!
//! ```
//! use clr_dse::sealed::{open, seal, SealError};
//! let bytes = seal(b"EXAMPLE1", 1, "hello\n");
//! assert_eq!(open(&bytes, b"EXAMPLE1", 1), Ok("hello\n"));
//! assert_eq!(open(&bytes, b"EXAMPLE2", 1), Err(SealError::BadMagic));
//! ```

use std::fmt;
use std::str::Utf8Error;

use clr_par::fnv1a64;

/// Size of the fixed header preceding the payload.
const HEADER_LEN: usize = 32;

/// Why a sealed container failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The first 8 bytes are not the expected magic.
    BadMagic,
    /// The header declares a version this build does not read.
    UnsupportedVersion {
        /// Declared version.
        version: u32,
        /// The version this build reads for the expected magic.
        expected: u32,
    },
    /// Reserved flag bits are set.
    BadFlags {
        /// Declared flags word.
        flags: u32,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum of the bytes present.
        actual: u64,
    },
    /// The checksummed payload is not UTF-8 text.
    NotUtf8(Utf8Error),
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort { len } => write!(
                f,
                "{len} bytes is shorter than the {HEADER_LEN}-byte header"
            ),
            Self::BadMagic => write!(f, "bad magic (not this kind of container)"),
            Self::UnsupportedVersion { version, expected } => write!(
                f,
                "unsupported format version {version} (this build reads {expected})"
            ),
            Self::BadFlags { flags } => write!(f, "reserved flag bits set: {flags:#x}"),
            Self::LengthMismatch { declared, actual } => write!(
                f,
                "declared payload length {declared} but {actual} bytes present"
            ),
            Self::ChecksumMismatch { declared, actual } => write!(
                f,
                "checksum mismatch: header {declared:#018x}, payload {actual:#018x}"
            ),
            Self::NotUtf8(e) => write!(f, "payload is not UTF-8: {e}"),
        }
    }
}

impl std::error::Error for SealError {}

/// Wraps `payload` in the 32-byte header for `magic` at `version`.
pub fn seal(magic: &[u8; 8], version: u32, payload: &str) -> Vec<u8> {
    let payload = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Integrity-checks a container against the expected `magic` and
/// `version`, returning its text payload.
///
/// # Errors
///
/// The first failed check, in header order: length, magic, version,
/// flags, declared length, checksum, then UTF-8.
pub fn open<'b>(bytes: &'b [u8], magic: &[u8; 8], version: u32) -> Result<&'b str, SealError> {
    let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(SealError::TooShort { len: bytes.len() });
    };
    if header[..8] != magic[..] {
        return Err(SealError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| header[at + i]));
    let quad = |at: usize| u64::from_le_bytes(std::array::from_fn(|i| header[at + i]));
    let declared_version = word(8);
    if declared_version != version {
        return Err(SealError::UnsupportedVersion {
            version: declared_version,
            expected: version,
        });
    }
    let flags = word(12);
    if flags != 0 {
        return Err(SealError::BadFlags { flags });
    }
    let declared = quad(16);
    let actual = payload.len() as u64;
    if declared != actual {
        return Err(SealError::LengthMismatch { declared, actual });
    }
    let declared = quad(24);
    let actual = fnv1a64(payload);
    if declared != actual {
        return Err(SealError::ChecksumMismatch { declared, actual });
    }
    std::str::from_utf8(payload).map_err(SealError::NotUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTSEAL";

    #[test]
    fn round_trip_and_header_layout() {
        let bytes = seal(&MAGIC, 3, "alpha\n");
        assert_eq!(open(&bytes, &MAGIC, 3), Ok("alpha\n"));
        assert_eq!(bytes[..8], MAGIC);
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(bytes[12..16], [0; 4]);
        assert_eq!(bytes[16..24], 6u64.to_le_bytes());
        assert_eq!(bytes[24..32], fnv1a64(b"alpha\n").to_le_bytes());
        assert_eq!(&bytes[HEADER_LEN..], b"alpha\n");
        assert_eq!(open(&seal(&MAGIC, 3, ""), &MAGIC, 3), Ok(""));
    }

    #[test]
    fn each_failed_check_has_its_own_error() {
        let bytes = seal(&MAGIC, 3, "alpha\n");
        let damaged = |at: usize, value: u8| {
            let mut b = bytes.clone();
            b[at] = value;
            open(&b, &MAGIC, 3).unwrap_err()
        };
        let short = open(&bytes[..HEADER_LEN - 1], &MAGIC, 3);
        assert_eq!(
            short,
            Err(SealError::TooShort {
                len: HEADER_LEN - 1
            })
        );
        assert_eq!(open(&bytes, b"OTHERONE", 3), Err(SealError::BadMagic));
        let version = damaged(8, 9);
        assert_eq!(
            version,
            SealError::UnsupportedVersion {
                version: 9,
                expected: 3
            }
        );
        assert!(version
            .to_string()
            .ends_with("version 9 (this build reads 3)"));
        assert_eq!(damaged(12, 1), SealError::BadFlags { flags: 1 });
        assert_eq!(
            open(&bytes[..bytes.len() - 1], &MAGIC, 3),
            Err(SealError::LengthMismatch {
                declared: 6,
                actual: 5
            })
        );
        assert!(matches!(
            damaged(HEADER_LEN, b'A'),
            SealError::ChecksumMismatch { .. }
        ));
        let mut not_text = seal(&MAGIC, 3, "ab");
        not_text[HEADER_LEN] = 0xff;
        let sum = fnv1a64(&not_text[HEADER_LEN..]);
        not_text[24..32].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            open(&not_text, &MAGIC, 3),
            Err(SealError::NotUtf8(_))
        ));
    }
}
