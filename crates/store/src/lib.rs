//! clr-store: a replicated snapshot store with generation lineage.
//!
//! Design-time exploration publishes design-point databases; fleets of
//! serve nodes consume them. This crate is the replication layer in
//! between: every published database becomes a **generation** in a
//! lineage (CLRSNAP2, [`LineageSnapshot`]), replicas exchange
//! **changesets** — positional diffs costing `O(changed points)` bytes
//! instead of full snapshots — and each node garbage-collects superseded
//! generations *locally*, with no coordination, because the merge rule
//! is a join-semilattice:
//!
//! - a generation number never carries two *surviving* payloads: on a
//!   concurrent publish of the same generation, the lexicographically
//!   smaller publisher id wins, and between equal publishers the
//!   lexicographically smaller container bytes win — a total order, so
//!   [`Store::merge`] is idempotent, commutative and associative, and
//!   every replica converges to the same head no matter the gossip
//!   order;
//! - removal is node-local policy (keep the head plus `keep_depth`
//!   ancestors), not shared state — a node that GC'd early simply falls
//!   back to full-snapshot sync instead of delta sync.
//!
//! Storage is pluggable via [`StorageBackend`]: [`MemoryBackend`] for
//! tests/ephemeral replicas, [`FileLogBackend`] as a crash-safe
//! append-only record log. The `clr-store` binary fronts the store
//! (`publish`, `pull`, `gc`, `log`, `verify`); the serve daemon consumes
//! published generations live through the CLRWIRE1 `SwapDb` frame.

use std::collections::BTreeSet;
use std::fmt;

use clr_dse::point_text;
use clr_par::fnv1a64;
use clr_serve::{Lineage, LineageSnapshot, PointStamp, Snapshot, SnapshotError};

mod backend;
mod changeset;

pub use backend::{FileLogBackend, MemoryBackend, StorageBackend, LOG_MAGIC};
pub use changeset::{ChangeOp, Changeset};

/// Anything that can go wrong in the replication layer.
#[derive(Debug)]
pub enum StoreError {
    /// The backing medium failed (filesystem error and the like).
    Io(String),
    /// An append-only log failed its integrity replay.
    Log(String),
    /// A stored container is damaged or its lineage block is invalid.
    Snapshot(SnapshotError),
    /// The requested generation is not in this replica's store.
    MissingGeneration(u64),
    /// A changeset is malformed or does not fit its source.
    Changeset(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) => write!(f, "io error: {m}"),
            Self::Log(m) => write!(f, "corrupt store log: {m}"),
            Self::Snapshot(e) => write!(f, "bad snapshot: {e}"),
            Self::MissingGeneration(g) => write!(f, "generation {g} is not in the store"),
            Self::Changeset(m) => write!(f, "bad changeset: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// What [`Store::merge`] did with an incoming generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The generation was new to this replica and was stored.
    Inserted,
    /// The replica already held byte-identical content.
    Unchanged,
    /// A concurrent publish existed and the incumbent won the tiebreak.
    KeptExisting,
    /// A concurrent publish existed and the incoming snapshot won.
    Replaced,
}

impl fmt::Display for MergeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Inserted => "inserted",
            Self::Unchanged => "unchanged",
            Self::KeptExisting => "kept-existing",
            Self::Replaced => "replaced",
        };
        f.write_str(s)
    }
}

/// One generation's row in [`Store::log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Generation number.
    pub generation: u64,
    /// Parent generation (`None` for a lineage root).
    pub parent: Option<u64>,
    /// Who published it.
    pub publisher: String,
    /// Total design points in the generation.
    pub points: usize,
    /// Points whose version stamp was minted *at* this generation —
    /// i.e. content that actually changed relative to the parent.
    pub changed: usize,
    /// Sealed container size in bytes.
    pub bytes: usize,
}

/// A replica of the snapshot store over some persistence backend.
///
/// All lineage semantics live here; the backend is a dumb
/// `generation → bytes` map.
#[derive(Debug)]
pub struct Store<B: StorageBackend> {
    backend: B,
}

impl Store<MemoryBackend> {
    /// An empty in-memory replica.
    pub fn in_memory() -> Self {
        Self::new(MemoryBackend::new())
    }
}

impl Store<FileLogBackend> {
    /// Opens (or creates) a file-log replica at `path`.
    ///
    /// # Errors
    ///
    /// Propagates [`FileLogBackend::open`] failures.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        Ok(Self::new(FileLogBackend::open(path)?))
    }
}

impl<B: StorageBackend> Store<B> {
    /// Wraps an existing backend.
    pub fn new(backend: B) -> Self {
        Self { backend }
    }

    /// All generations this replica holds, ascending.
    ///
    /// # Errors
    ///
    /// Propagates backend read failures.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        self.backend.generations()
    }

    /// Decodes the stored snapshot for one generation.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingGeneration`] when absent,
    /// [`StoreError::Snapshot`] when the stored bytes are damaged.
    pub fn get(&self, generation: u64) -> Result<LineageSnapshot, StoreError> {
        let bytes = self
            .backend
            .get(generation)?
            .ok_or(StoreError::MissingGeneration(generation))?;
        Ok(LineageSnapshot::from_bytes(&bytes)?)
    }

    /// The newest generation this replica holds, if any.
    ///
    /// # Errors
    ///
    /// Propagates backend and decode failures.
    pub fn head(&self) -> Result<Option<LineageSnapshot>, StoreError> {
        match self.generations()?.last() {
            Some(&g) => Ok(Some(self.get(g)?)),
            None => Ok(None),
        }
    }

    /// Publishes a database as the next generation after the local head
    /// (generation 0 / lineage root on an empty replica).
    ///
    /// Version stamps are inherited positionally: a point whose
    /// canonical text block is unchanged keeps the stamp of the parent
    /// generation, so `changed` in [`Store::log`] — and the size of
    /// every downstream changeset — reflects real content churn only.
    ///
    /// # Errors
    ///
    /// Propagates backend failures; [`StoreError::Snapshot`] when the
    /// assembled lineage fails its own verification (e.g. an invalid
    /// publisher id).
    pub fn publish(
        &mut self,
        snapshot: Snapshot,
        publisher: &str,
    ) -> Result<LineageSnapshot, StoreError> {
        let next = match self.head()? {
            None => LineageSnapshot::genesis(snapshot, publisher),
            Some(head) => {
                let generation = head.lineage().generation + 1;
                let parent_stamps = &head.lineage().stamps;
                let stamps: Vec<PointStamp> = snapshot
                    .db()
                    .points()
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let hash = fnv1a64(point_text(p).as_bytes());
                        match parent_stamps.get(i) {
                            Some(old) if old.hash == hash => *old,
                            _ => PointStamp { hash, generation },
                        }
                    })
                    .collect();
                LineageSnapshot::from_parts(
                    Lineage {
                        generation,
                        parent: Some(head.lineage().generation),
                        publisher: publisher.to_string(),
                        stamps,
                    },
                    snapshot,
                )
            }
        };
        next.verify()?;
        self.backend
            .put(next.lineage().generation, next.to_bytes())?;
        Ok(next)
    }

    /// Merges a generation received from another replica.
    ///
    /// The incoming snapshot is verified first; then the symmetric
    /// tiebreak applies (see the crate docs). Merge is idempotent and
    /// commutative: any set of generations merged in any order, any
    /// number of times, leaves every replica with identical bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Snapshot`] when the incoming lineage fails
    /// verification; backend failures propagate.
    pub fn merge(&mut self, incoming: &LineageSnapshot) -> Result<MergeOutcome, StoreError> {
        incoming.verify()?;
        let generation = incoming.lineage().generation;
        let incoming_bytes = incoming.to_bytes();
        let Some(existing_bytes) = self.backend.get(generation)? else {
            self.backend.put(generation, incoming_bytes)?;
            return Ok(MergeOutcome::Inserted);
        };
        if existing_bytes == incoming_bytes {
            return Ok(MergeOutcome::Unchanged);
        }
        let existing = LineageSnapshot::from_bytes(&existing_bytes)?;
        let incoming_key = (&incoming.lineage().publisher, &incoming_bytes);
        let existing_key = (&existing.lineage().publisher, &existing_bytes);
        if incoming_key < existing_key {
            self.backend.put(generation, incoming_bytes)?;
            Ok(MergeOutcome::Replaced)
        } else {
            Ok(MergeOutcome::KeptExisting)
        }
    }

    /// The positional diff carrying a replica from generation `from` to
    /// generation `to`.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingGeneration`] when either endpoint is not
    /// held locally (a GC'd source means: fall back to full-snapshot
    /// sync).
    pub fn changeset(&self, from: u64, to: u64) -> Result<Changeset, StoreError> {
        Ok(Changeset::compute(&self.get(from)?, &self.get(to)?))
    }

    /// Applies a changeset against the locally-held source generation
    /// and merges the rebuilt target.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingGeneration`] when the source generation is
    /// absent; [`StoreError::Changeset`] when the diff does not fit the
    /// source or fails its target-hash pin.
    pub fn merge_changeset(&mut self, cs: &Changeset) -> Result<MergeOutcome, StoreError> {
        let from = self.get(cs.from_generation)?;
        let rebuilt = cs.apply(&from)?;
        self.merge(&rebuilt)
    }

    /// Node-local garbage collection: keeps the head plus up to
    /// `keep_depth` ancestors along the parent chain, removes everything
    /// else, and returns the removed generations (ascending).
    ///
    /// Needs no coordination with other replicas — see the crate docs.
    ///
    /// # Errors
    ///
    /// Propagates backend and decode failures.
    pub fn gc(&mut self, keep_depth: usize) -> Result<Vec<u64>, StoreError> {
        let Some(head) = self.head()? else {
            return Ok(Vec::new());
        };
        let mut retained = BTreeSet::new();
        retained.insert(head.lineage().generation);
        let mut cursor = head;
        for _ in 0..keep_depth {
            let Some(parent) = cursor.lineage().parent else {
                break;
            };
            // A parent this node already collected ends the chain: GC
            // never resurrects, it only keeps what is still reachable.
            let Some(bytes) = self.backend.get(parent)? else {
                break;
            };
            cursor = LineageSnapshot::from_bytes(&bytes)?;
            retained.insert(parent);
        }
        let mut removed = Vec::new();
        for g in self.generations()? {
            if !retained.contains(&g) {
                self.backend.remove(g)?;
                removed.push(g);
            }
        }
        Ok(removed)
    }

    /// One row per held generation, ascending.
    ///
    /// # Errors
    ///
    /// Propagates backend and decode failures.
    pub fn log(&self) -> Result<Vec<LogEntry>, StoreError> {
        let mut entries = Vec::new();
        for g in self.generations()? {
            let bytes = self
                .backend
                .get(g)?
                .ok_or(StoreError::MissingGeneration(g))?;
            let snap = LineageSnapshot::from_bytes(&bytes)?;
            let lineage = snap.lineage();
            entries.push(LogEntry {
                generation: lineage.generation,
                parent: lineage.parent,
                publisher: lineage.publisher.clone(),
                points: lineage.stamps.len(),
                changed: lineage
                    .stamps
                    .iter()
                    .filter(|s| s.generation == lineage.generation)
                    .count(),
                bytes: bytes.len(),
            });
        }
        Ok(entries)
    }

    /// Full integrity sweep: every held generation must decode, pass
    /// lineage verification, and be stored under its own generation
    /// number.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`StoreError`].
    pub fn verify(&self) -> Result<(), StoreError> {
        for g in self.generations()? {
            let snap = self.get(g)?;
            snap.verify()?;
            if snap.lineage().generation != g {
                return Err(StoreError::Snapshot(SnapshotError::Lineage(format!(
                    "generation {} stored under slot {g}",
                    snap.lineage().generation
                ))));
            }
        }
        Ok(())
    }
}

/// Builds a deterministic synthetic database for tests and benches:
/// `n` points whose content is a pure function of `(index, salt)`, so
/// churn is simulated by changing the salt of selected indices.
pub fn synth_db(name: &str, n: usize, salt_for: impl Fn(usize) -> u64) -> clr_dse::DesignPointDb {
    use std::fmt::Write as _;
    let mut text = format!("clr-design-point-db v1\nname {name}\npoints {n}\n");
    for i in 0..n {
        let salt = salt_for(i);
        let v = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt) % 997;
        let _ = writeln!(text, "point Pareto");
        let _ = writeln!(
            text,
            "metrics {:?} {:?} {:?} {:?} {:?}",
            100.0 + v as f64 / 8.0,
            0.9 + (v % 90) as f64 / 1000.0,
            1000.0 + v as f64,
            50.0 + (v % 40) as f64,
            1.0e6 + v as f64 * 100.0,
        );
        let _ = writeln!(
            text,
            "gene {} {} none retry:{} checksum {}",
            i % 4,
            v % 3,
            1 + v % 4,
            1 + v % 7
        );
    }
    // clr-audit: allow(CLR105) deterministic test fixture; the text is well-formed by construction
    clr_dse::DesignPointDb::from_text(&text).expect("synthetic db is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(n: usize, salt: u64) -> Snapshot {
        Snapshot::new("jpeg", "dac19", synth_db("based", n, |_| salt))
    }

    /// `churned` indices get a different salt — simulated content churn.
    fn snap_churned(n: usize, salt: u64, churned: &[usize]) -> Snapshot {
        let set: BTreeSet<usize> = churned.iter().copied().collect();
        let db = synth_db("based", n, move |i| {
            if set.contains(&i) {
                salt + 1000
            } else {
                salt
            }
        });
        Snapshot::new("jpeg", "dac19", db)
    }

    #[test]
    fn publish_chains_generations_and_inherits_stamps() {
        let mut store = Store::in_memory();
        let g0 = store.publish(snap(16, 1), "node-a").unwrap();
        assert_eq!(g0.lineage().generation, 0);
        assert_eq!(g0.lineage().parent, None);

        let g1 = store
            .publish(snap_churned(16, 1, &[3, 7]), "node-a")
            .unwrap();
        assert_eq!(g1.lineage().generation, 1);
        assert_eq!(g1.lineage().parent, Some(0));
        for (i, stamp) in g1.lineage().stamps.iter().enumerate() {
            let expect = u64::from(i == 3 || i == 7);
            assert_eq!(stamp.generation, expect, "stamp {i}");
        }

        let log = store.log().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].changed, 2);
        assert_eq!(log[1].points, 16);
        store.verify().unwrap();
    }

    #[test]
    fn merge_tiebreak_is_symmetric_and_deterministic() {
        // Two replicas publish generation 1 concurrently.
        let mut a = Store::in_memory();
        let mut b = Store::in_memory();
        let g0 = a.publish(snap(8, 1), "root").unwrap();
        b.merge(&g0).unwrap();
        let ga = a.publish(snap_churned(8, 1, &[0]), "node-a").unwrap();
        let gb = b.publish(snap_churned(8, 1, &[5]), "node-b").unwrap();

        // Cross-merge in opposite orders: both converge on node-a's
        // publish (lexicographically smaller publisher id).
        assert_eq!(a.merge(&gb).unwrap(), MergeOutcome::KeptExisting);
        assert_eq!(b.merge(&ga).unwrap(), MergeOutcome::Replaced);
        assert_eq!(
            a.head().unwrap().unwrap().to_bytes(),
            b.head().unwrap().unwrap().to_bytes()
        );

        // Idempotence: replaying either side changes nothing.
        assert_eq!(a.merge(&ga).unwrap(), MergeOutcome::Unchanged);
        assert_eq!(a.merge(&gb).unwrap(), MergeOutcome::KeptExisting);
        assert_eq!(b.merge(&gb).unwrap(), MergeOutcome::KeptExisting);
    }

    #[test]
    fn changeset_reproduces_the_target_byte_for_byte() {
        let mut publisher = Store::in_memory();
        publisher.publish(snap(64, 3), "pub").unwrap();
        publisher
            .publish(snap_churned(64, 3, &[1, 2, 40]), "pub")
            .unwrap();

        let cs = publisher.changeset(0, 1).unwrap();
        assert_eq!(cs.ops.len(), 3);
        let round = Changeset::from_text(&cs.to_text()).unwrap();
        assert_eq!(round, cs);

        let mut replica = Store::in_memory();
        replica.merge(&publisher.get(0).unwrap()).unwrap();
        assert_eq!(
            replica.merge_changeset(&cs).unwrap(),
            MergeOutcome::Inserted
        );
        assert_eq!(
            replica.head().unwrap().unwrap().to_bytes(),
            publisher.head().unwrap().unwrap().to_bytes()
        );
    }

    #[test]
    fn changeset_covers_append_and_truncate() {
        let mut store = Store::in_memory();
        store.publish(snap(10, 2), "pub").unwrap();
        store.publish(snap(14, 2), "pub").unwrap(); // grow
        store.publish(snap(6, 2), "pub").unwrap(); // shrink
        let grow = store.changeset(0, 1).unwrap();
        assert!(grow
            .ops
            .iter()
            .all(|op| matches!(op, ChangeOp::Append { .. })));
        let shrink = store.changeset(1, 2).unwrap();
        assert!(matches!(shrink.ops[..], [ChangeOp::Truncate { len: 6 }]));
        let mut replica = Store::in_memory();
        replica.merge(&store.get(0).unwrap()).unwrap();
        replica.merge_changeset(&grow).unwrap();
        replica.merge_changeset(&shrink).unwrap();
        assert_eq!(
            replica.head().unwrap().unwrap().to_bytes(),
            store.get(2).unwrap().to_bytes()
        );
    }

    #[test]
    fn changeset_rejects_a_mismatched_source() {
        let mut store = Store::in_memory();
        store.publish(snap(8, 4), "pub").unwrap();
        store.publish(snap_churned(8, 4, &[2]), "pub").unwrap();
        let cs = store.changeset(0, 1).unwrap();
        let stranger = LineageSnapshot::genesis(snap(8, 99), "pub");
        assert!(matches!(cs.apply(&stranger), Err(StoreError::Changeset(_))));
    }

    #[test]
    fn gc_keeps_the_head_chain_only() {
        let mut store = Store::in_memory();
        for churn in 0..5u64 {
            let s = snap_churned(12, 7, &[churn as usize]);
            store.publish(s, "pub").unwrap();
        }
        let removed = store.gc(1).unwrap();
        assert_eq!(removed, vec![0, 1, 2]);
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
        store.verify().unwrap();
        // Depth 0 keeps the head alone; an empty store is a no-op.
        assert_eq!(store.gc(0).unwrap(), vec![3]);
        assert_eq!(store.generations().unwrap(), vec![4]);
    }

    #[test]
    fn file_log_store_round_trips_across_reopen() {
        let dir = std::env::temp_dir().join("clr-store-lib-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replica.log");
        let _ = std::fs::remove_file(&path);
        let head_bytes;
        {
            let mut store = Store::open(&path).unwrap();
            store.publish(snap(20, 9), "pub").unwrap();
            store.publish(snap_churned(20, 9, &[11]), "pub").unwrap();
            store.gc(0).unwrap();
            head_bytes = store.head().unwrap().unwrap().to_bytes();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.generations().unwrap(), vec![1]);
        assert_eq!(store.head().unwrap().unwrap().to_bytes(), head_bytes);
        store.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delta_sync_is_a_small_fraction_of_full_sync_at_low_churn() {
        let n = 4096;
        let churned: Vec<usize> = (0..n / 100).map(|k| k * 100).collect(); // 1% churn
        let mut store = Store::in_memory();
        store.publish(snap(n, 5), "pub").unwrap();
        store.publish(snap_churned(n, 5, &churned), "pub").unwrap();
        let full = store.get(1).unwrap().to_bytes().len();
        let delta = store.changeset(0, 1).unwrap().byte_len();
        assert!(
            delta * 20 <= full,
            "delta {delta}B should be ≤5% of full {full}B"
        );
    }

    #[test]
    fn missing_generations_are_reported_not_invented() {
        let store = Store::in_memory();
        assert!(matches!(
            store.get(3),
            Err(StoreError::MissingGeneration(3))
        ));
        assert!(store.head().unwrap().is_none());
        assert!(matches!(
            store.changeset(0, 1),
            Err(StoreError::MissingGeneration(0))
        ));
    }
}
