//! Format pins for the sealed artifacts.
//!
//! The byte-compares in `ci.sh` compare two runs of the same build, so
//! they cannot see a change that alters a format on every run alike.
//! The first test encodes one fixed `CLRSNAP1` snapshot, one genesis
//! `CLRSNAP2` snapshot and one `CLRLRN1` learner checkpoint and compares
//! the length and FNV-1a 64 of each encoding with values recorded before
//! the three formats moved onto the shared `clr_dse::sealed` codec.
//!
//! The other tests check that each format opens through the shared
//! codec with its own magic and version, so header damage surfaces as
//! that format's `Container` error.

use clr_dse::sealed::SealError;
use clr_dse::{DesignPoint, DesignPointDb, PointOrigin};
use clr_learn::{CheckpointError, LearnConfig, LearnerState, LEARN_FORMAT_VERSION};
use clr_par::fnv1a64;
use clr_platform::Platform;
use clr_runtime::{Feedback, RuntimeContext, RuntimePolicy};
use clr_sched::{Mapping, SystemMetrics};
use clr_serve::{LineageSnapshot, Snapshot, SnapshotError, FORMAT_VERSION, FORMAT_VERSION2};
use clr_taskgraph::{jpeg_encoder, TaskGraph};

fn fixture() -> (TaskGraph, Platform, DesignPointDb) {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let mapping = Mapping::first_fit(&graph, &platform).unwrap();
    let mut db = DesignPointDb::new("golden");
    for i in 0..4 {
        let f = f64::from(i) / 4.0;
        db.push(DesignPoint::new(
            mapping.clone(),
            SystemMetrics {
                makespan: 50.0 + 100.0 * f,
                reliability: 0.6 + 0.35 * f,
                energy: 1.0 + f,
                peak_power: 2.5,
                mean_mttf: 1.0e6,
            },
            if i % 2 == 0 {
                PointOrigin::Pareto
            } else {
                PointOrigin::ReconfigAware
            },
        ));
    }
    (graph, platform, db)
}

fn snapshot() -> Snapshot {
    Snapshot::new("jpeg", "dac19", fixture().2)
}

fn lineaged() -> LineageSnapshot {
    LineageSnapshot::genesis(snapshot(), "golden-node")
}

fn learner() -> LearnerState {
    let (graph, platform, db) = fixture();
    let ctx = RuntimeContext::new(&graph, &platform, &db);
    let cfg = LearnConfig::new(0.5, 0.6, 0.2, 0.1, 7).unwrap();
    let mut l = LearnerState::new("cam0", db.len(), 3, cfg).unwrap();
    for (from, to) in [(0, 1), (1, 2), (2, 1), (1, 3), (3, 0)] {
        l.observe(&Feedback {
            ctx: &ctx,
            from,
            to,
        });
    }
    l
}

#[test]
fn encodings_match_the_bytes_recorded_before_the_shared_codec() {
    let pins = [
        (snapshot().to_bytes(), 1497, 0x0ae7_83a6_c2f4_3aec),
        (lineaged().to_bytes(), 1629, 0x879e_1fbd_9c36_fd94),
        (learner().to_bytes(), 588, 0xfa5d_23ef_68a8_05dc),
    ];
    for (bytes, len, hash) in pins {
        let magic = String::from_utf8_lossy(&bytes[..8]);
        let got = (bytes.len(), fnv1a64(&bytes));
        assert_eq!(got, (len, hash), "{magic} encoding changed");
    }
}

#[test]
fn containers_of_another_format_are_bad_magic() {
    assert_eq!(
        LineageSnapshot::from_bytes(&learner().to_bytes()),
        Err(SnapshotError::Container(SealError::BadMagic))
    );
    assert_eq!(
        LearnerState::from_bytes(&lineaged().to_bytes()),
        Err(CheckpointError::Container(SealError::BadMagic))
    );
}

#[test]
fn header_damage_is_a_container_error_in_every_format() {
    fn snap_err(r: Result<impl Sized, SnapshotError>) -> Option<SealError> {
        match r {
            Err(SnapshotError::Container(e)) => Some(e),
            _ => None,
        }
    }
    type Decode = fn(&[u8]) -> Option<SealError>;
    let formats: [(Vec<u8>, u32, Decode); 3] = [
        (snapshot().to_bytes(), FORMAT_VERSION, |b| {
            snap_err(Snapshot::from_bytes(b))
        }),
        (lineaged().to_bytes(), FORMAT_VERSION2, |b| {
            snap_err(LineageSnapshot::from_bytes(b))
        }),
        (
            learner().to_bytes(),
            LEARN_FORMAT_VERSION,
            |b| match LearnerState::from_bytes(b) {
                Err(CheckpointError::Container(e)) => Some(e),
                _ => None,
            },
        ),
    ];
    for (bytes, version, decode) in formats {
        let damaged = |at: usize, mask: u8| {
            let mut b = bytes.clone();
            b[at] ^= mask;
            decode(&b)
        };
        assert_eq!(decode(&bytes[..16]), Some(SealError::TooShort { len: 16 }));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]),
            Some(SealError::LengthMismatch { .. })
        ));
        assert_eq!(damaged(0, 0xff), Some(SealError::BadMagic));
        let version_err = damaged(8, 0x40).unwrap();
        assert_eq!(
            version_err,
            SealError::UnsupportedVersion {
                version: version ^ 0x40,
                expected: version
            }
        );
        assert!(version_err
            .to_string()
            .ends_with(&format!("(this build reads {version})")));
        assert_eq!(damaged(12, 1), Some(SealError::BadFlags { flags: 1 }));
        assert!(matches!(
            damaged(bytes.len() - 1, 1),
            Some(SealError::ChecksumMismatch { .. })
        ));
    }
}
