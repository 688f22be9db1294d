//! Pluggable persistence for the snapshot store.
//!
//! A backend is a flat `generation → container bytes` map; all lineage
//! semantics (tiebreaking, changesets, GC policy) live above it in
//! [`crate::Store`]. Two implementations ship:
//!
//! - [`MemoryBackend`]: a `BTreeMap`, for tests and ephemeral replicas.
//! - [`FileLogBackend`]: an append-only record log. Every `put`/`remove`
//!   appends a checksummed record; opening a log replays it
//!   last-record-wins. Removal writes a *tombstone* rather than
//!   rewriting the file — the log only ever grows, which is what makes
//!   concurrent node-local GC safe without coordination (no reader ever
//!   observes a half-rewritten store).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use clr_par::fnv1a64;

use crate::StoreError;

/// Magic bytes opening every append-only store log.
pub const LOG_MAGIC: [u8; 8] = *b"CLRSTLG1";

/// Record tag: a snapshot was stored for a generation.
const REC_PUT: u8 = 1;
/// Record tag: a generation was garbage-collected (tombstone).
const REC_REMOVE: u8 = 2;

/// Flat persistence for sealed snapshot containers, keyed by generation.
pub trait StorageBackend {
    /// Stores (or replaces) the container bytes for a generation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing medium rejects the write.
    fn put(&mut self, generation: u64, bytes: Vec<u8>) -> Result<(), StoreError>;

    /// The stored container for a generation, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing medium cannot be read.
    fn get(&self, generation: u64) -> Result<Option<Vec<u8>>, StoreError>;

    /// Removes a generation (a no-op when absent).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing medium rejects the write.
    fn remove(&mut self, generation: u64) -> Result<(), StoreError>;

    /// All stored generations, ascending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the backing medium cannot be read.
    fn generations(&self) -> Result<Vec<u64>, StoreError>;
}

/// In-memory backend: a `BTreeMap`, so iteration order is the
/// generation order and never an artifact of hashing.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    slots: BTreeMap<u64, Vec<u8>>,
}

impl MemoryBackend {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&mut self, generation: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.slots.insert(generation, bytes);
        Ok(())
    }

    fn get(&self, generation: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.slots.get(&generation).cloned())
    }

    fn remove(&mut self, generation: u64) -> Result<(), StoreError> {
        self.slots.remove(&generation);
        Ok(())
    }

    fn generations(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.slots.keys().copied().collect())
    }
}

/// Append-only file-log backend.
///
/// On-disk layout: the 8-byte [`LOG_MAGIC`], then records of
///
/// ```text
/// offset  size  field
/// 0       1     tag (1 = put, 2 = remove)
/// 1       8     generation, u64 LE
/// 9       8     payload length, u64 LE (0 for tombstones)
/// 17      8     FNV-1a 64 checksum of the payload, u64 LE
/// 25      n     payload (the sealed snapshot container)
/// ```
///
/// Opening replays the whole log, last record per generation winning. A
/// torn or corrupt trailing record fails the open loudly — a store that
/// cannot prove its own integrity must not serve databases.
#[derive(Debug)]
pub struct FileLogBackend {
    path: PathBuf,
    view: BTreeMap<u64, Vec<u8>>,
}

impl FileLogBackend {
    /// Opens (or creates) the log at `path` and replays it into memory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for filesystem failures, [`StoreError::Log`]
    /// for a corrupt log (bad magic, torn record, checksum mismatch).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            std::fs::write(&path, LOG_MAGIC)
                .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", path.display())))?;
            return Ok(Self {
                path,
                view: BTreeMap::new(),
            });
        }
        let bytes = std::fs::read(&path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        let view = Self::replay(&bytes)
            .map_err(|e| StoreError::Log(format!("{}: {e}", path.display())))?;
        Ok(Self { path, view })
    }

    /// The log file this backend persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn replay(bytes: &[u8]) -> Result<BTreeMap<u64, Vec<u8>>, String> {
        if bytes.len() < LOG_MAGIC.len() || bytes[..8] != LOG_MAGIC {
            return Err("bad log magic (not a clr-store log)".to_string());
        }
        let mut view = BTreeMap::new();
        let mut at = LOG_MAGIC.len();
        let mut record = 0usize;
        while at < bytes.len() {
            record += 1;
            if bytes.len() - at < 25 {
                return Err(format!("record {record}: torn header at byte {at}"));
            }
            let tag = bytes[at];
            let quad = |off: usize| {
                u64::from_le_bytes(bytes[at + off..at + off + 8].try_into().expect("8 bytes"))
            };
            let generation = quad(1);
            let len = usize::try_from(quad(9))
                .map_err(|_| format!("record {record}: declared length overflows this platform"))?;
            let declared_sum = quad(17);
            at += 25;
            if bytes.len() - at < len {
                return Err(format!("record {record}: torn payload at byte {at}"));
            }
            let payload = &bytes[at..at + len];
            let actual_sum = fnv1a64(payload);
            if actual_sum != declared_sum {
                return Err(format!(
                    "record {record}: checksum mismatch (header {declared_sum:#018x}, payload {actual_sum:#018x})"
                ));
            }
            at += len;
            match tag {
                REC_PUT => {
                    view.insert(generation, payload.to_vec());
                }
                REC_REMOVE => {
                    view.remove(&generation);
                }
                other => return Err(format!("record {record}: unknown tag {other}")),
            }
        }
        Ok(view)
    }

    fn append(&self, tag: u8, generation: u64, payload: &[u8]) -> Result<(), StoreError> {
        let mut record = Vec::with_capacity(25 + payload.len());
        record.push(tag);
        record.extend_from_slice(&generation.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        record.extend_from_slice(payload);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::Io(format!("cannot open {}: {e}", self.path.display())))?;
        file.write_all(&record)
            .map_err(|e| StoreError::Io(format!("cannot append to {}: {e}", self.path.display())))
    }
}

impl StorageBackend for FileLogBackend {
    fn put(&mut self, generation: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.append(REC_PUT, generation, &bytes)?;
        self.view.insert(generation, bytes);
        Ok(())
    }

    fn get(&self, generation: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.view.get(&generation).cloned())
    }

    fn remove(&mut self, generation: u64) -> Result<(), StoreError> {
        if self.view.remove(&generation).is_some() {
            self.append(REC_REMOVE, generation, &[])?;
        }
        Ok(())
    }

    fn generations(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.view.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("clr-store-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn memory_backend_round_trips() {
        let mut b = MemoryBackend::new();
        b.put(2, vec![2]).unwrap();
        b.put(0, vec![0]).unwrap();
        assert_eq!(b.get(2).unwrap(), Some(vec![2]));
        assert_eq!(b.get(1).unwrap(), None);
        assert_eq!(b.generations().unwrap(), vec![0, 2]);
        b.remove(2).unwrap();
        assert_eq!(b.generations().unwrap(), vec![0]);
    }

    #[test]
    fn file_log_survives_reopen_with_tombstones() {
        let path = temp_log("reopen.log");
        {
            let mut b = FileLogBackend::open(&path).unwrap();
            b.put(0, b"gen0".to_vec()).unwrap();
            b.put(1, b"gen1".to_vec()).unwrap();
            b.put(1, b"gen1-replaced".to_vec()).unwrap();
            b.remove(0).unwrap();
        }
        let b = FileLogBackend::open(&path).unwrap();
        assert_eq!(b.generations().unwrap(), vec![1]);
        assert_eq!(b.get(1).unwrap(), Some(b"gen1-replaced".to_vec()));
        assert_eq!(b.get(0).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_logs_fail_the_open() {
        let path = temp_log("corrupt.log");
        {
            let mut b = FileLogBackend::open(&path).unwrap();
            b.put(0, b"payload".to_vec()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileLogBackend::open(&path),
            Err(StoreError::Log(_))
        ));
        // A torn record (truncated mid-payload) is equally fatal.
        bytes[last] ^= 0xFF;
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileLogBackend::open(&path),
            Err(StoreError::Log(_))
        ));
        std::fs::write(&path, b"WRONGMAG").unwrap();
        assert!(matches!(
            FileLogBackend::open(&path),
            Err(StoreError::Log(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
