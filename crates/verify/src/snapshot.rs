//! Snapshot-container lints (`CLR06x`): structural decoding, integrity
//! checksums, byte-stable re-encoding, model-descriptor resolution, and
//! the indexed-feasibility equivalence law.
//!
//! A snapshot is the deployable artifact the serving layer loads at
//! fleet scale, so the audit is adversarial: a snapshot is checked the
//! way `clr-serve` would consume it, including rebuilding the
//! [`clr_dse::FeasibilityIndex`] over the embedded database and proving
//! it returns exactly the linear scan's feasible set over a sampled
//! grid of QoS requirements.

use clr_dse::sealed::SealError;
use clr_dse::{FeasibilityIndex, QosSpec};
use clr_serve::{LineageSnapshot, Snapshot, SnapshotError, MAGIC2};

use crate::{Diagnostic, LintCode, Report};

/// Audits one snapshot artifact from its raw bytes — either container
/// generation: a plain `CLRSNAP1` export or a lineaged `CLRSNAP2`
/// store/rollout artifact.
///
/// Findings: [`LintCode::SnapshotContainerInvalid`] (CLR060) for any
/// structural decode failure (a `CLRSNAP2` lineage block that fails its
/// own verification included — the serve path would refuse to hot-swap
/// it), [`LintCode::SnapshotChecksumMismatch`]
/// (CLR061) for payload corruption, [`LintCode::SnapshotIndexDivergence`]
/// (CLR062) when the feasibility index disagrees with a linear scan,
/// [`LintCode::SnapshotRoundTripMismatch`] (CLR063) when re-encoding is
/// not byte-identical, and [`LintCode::SnapshotUnknownModel`] (CLR064,
/// warn) when a model descriptor names no bundled graph/platform.
pub fn check_snapshot(bytes: &[u8], artifact: &str) -> Report {
    let mut report = Report::new();
    let lineaged = match LineageSnapshot::from_bytes(bytes) {
        Ok(s) => s,
        Err(e) => {
            let code = match e {
                SnapshotError::Container(SealError::ChecksumMismatch { .. }) => {
                    LintCode::SnapshotChecksumMismatch
                }
                _ => LintCode::SnapshotContainerInvalid,
            };
            report.push(Diagnostic::new(code, artifact, "container", e.to_string()));
            return report;
        }
    };

    // Re-encode through the codec the container actually used: a v1
    // artifact must reproduce its v1 bytes (promotion is a read-side
    // view, not a rewrite), a v2 artifact its lineaged bytes.
    let is_v2 = bytes.len() >= 8 && bytes[0..8] == MAGIC2;
    let reencoded = if is_v2 {
        lineaged.to_bytes()
    } else {
        lineaged.snapshot().to_bytes()
    };
    if reencoded != bytes {
        report.push(Diagnostic::new(
            LintCode::SnapshotRoundTripMismatch,
            artifact,
            "container",
            "decode/re-encode is not byte-identical",
        ));
    }

    if is_v2 {
        if let Err(e) = lineaged.verify() {
            report.push(Diagnostic::new(
                LintCode::SnapshotContainerInvalid,
                artifact,
                "lineage",
                e.to_string(),
            ));
        }
    }

    let snapshot = lineaged.snapshot();
    if let Err(e) = snapshot.resolve() {
        report.push(Diagnostic::new(
            LintCode::SnapshotUnknownModel,
            artifact,
            "meta",
            e.to_string(),
        ));
    }

    report.merge(check_index_equivalence(snapshot, artifact));
    report
}

/// Proves the feasibility index ≡ linear scan over a sampled spec grid:
/// metric quantiles of the embedded database crossed with boundary
/// values, so every `partition_point` edge the index navigates is
/// exercised against the exact stored keys.
fn check_index_equivalence(snapshot: &Snapshot, artifact: &str) -> Report {
    let mut report = Report::new();
    let db = snapshot.db();
    let index = FeasibilityIndex::new(db);

    let quantiles = |mut values: Vec<f64>| -> Vec<f64> {
        values.retain(|v| v.is_finite());
        values.sort_unstable_by(f64::total_cmp);
        match values.len() {
            0 => Vec::new(),
            n => [0, n / 4, n / 2, 3 * n / 4, n - 1]
                .into_iter()
                .map(|i| values[i])
                .collect(),
        }
    };
    let mut makespans = quantiles(db.points().iter().map(|p| p.metrics.makespan).collect());
    makespans.extend([0.0, f64::MAX]);
    let mut reliabilities = quantiles(db.points().iter().map(|p| p.metrics.reliability).collect());
    reliabilities.extend([0.0, 1.0]);

    for &s_max in &makespans {
        for &f_min in &reliabilities {
            let spec = QosSpec::new(s_max, f_min);
            let indexed = index.query(&spec);
            let scanned = db.feasible_indices(&spec);
            if indexed != scanned {
                report.push(Diagnostic::new(
                    LintCode::SnapshotIndexDivergence,
                    artifact,
                    format!("spec s_max={s_max} f_min={f_min}"),
                    format!(
                        "index returned {} feasible points, linear scan {}",
                        indexed.len(),
                        scanned.len()
                    ),
                ));
                return report; // one divergence proves the artifact bad
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::sealed::{open, seal};
    use clr_dse::{DesignPoint, DesignPointDb, PointOrigin};
    use clr_sched::{Mapping, SystemMetrics};
    use clr_serve::FORMAT_VERSION2;

    fn db(points: &[(f64, f64)]) -> DesignPointDb {
        let mut db = DesignPointDb::new("t");
        for &(makespan, reliability) in points {
            db.push(DesignPoint::new(
                Mapping::new(vec![]),
                SystemMetrics {
                    makespan,
                    reliability,
                    energy: 1.0,
                    peak_power: 1.0,
                    mean_mttf: 1.0,
                },
                PointOrigin::Pareto,
            ));
        }
        db
    }

    fn snapshot_bytes() -> Vec<u8> {
        Snapshot::new(
            "jpeg",
            "dac19",
            db(&[(10.0, 0.9), (20.0, 0.95), (5.0, 0.8)]),
        )
        .to_bytes()
    }

    #[test]
    fn clean_snapshot_audits_clean() {
        assert!(check_snapshot(&snapshot_bytes(), "t").is_empty());
    }

    #[test]
    fn lineaged_v2_containers_audit_clean_too() {
        let v1 = Snapshot::new(
            "jpeg",
            "dac19",
            db(&[(10.0, 0.9), (20.0, 0.95), (5.0, 0.8)]),
        );
        let bytes = LineageSnapshot::genesis(v1, "export").to_bytes();
        let report = check_snapshot(&bytes, "t");
        assert!(report.is_empty(), "{report:?}");
        // A corrupted lineage block is a container finding, not a panic.
        // "publisher !xport" is not a plain name; re-sealing keeps the
        // checksum valid so only the lineage invariant is at fault.
        let payload = open(&bytes, &MAGIC2, FORMAT_VERSION2)
            .unwrap()
            .replace("publisher export", "publisher !xport");
        let broken = seal(&MAGIC2, FORMAT_VERSION2, &payload);
        let report = check_snapshot(&broken, "t");
        assert!(
            report.has_code(LintCode::SnapshotContainerInvalid),
            "{report:?}"
        );
    }

    #[test]
    fn oversized_stamp_count_is_clr060() {
        let payload = "generation 0\nparent none\npublisher n\nstamps 1099511627776\n";
        let report = check_snapshot(&seal(&MAGIC2, FORMAT_VERSION2, payload), "t");
        assert!(
            report.has_code(LintCode::SnapshotContainerInvalid),
            "{report:?}"
        );
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn truncated_container_is_clr060() {
        let bytes = snapshot_bytes();
        let report = check_snapshot(&bytes[..bytes.len() - 3], "t");
        assert!(report.has_code(LintCode::SnapshotContainerInvalid));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn bad_magic_is_clr060() {
        let mut bytes = snapshot_bytes();
        bytes[0] ^= 0xff;
        assert!(check_snapshot(&bytes, "t").has_code(LintCode::SnapshotContainerInvalid));
    }

    #[test]
    fn payload_corruption_is_clr061() {
        let mut bytes = snapshot_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let report = check_snapshot(&bytes, "t");
        assert!(report.has_code(LintCode::SnapshotChecksumMismatch));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn unknown_descriptors_warn_clr064() {
        let bytes = Snapshot::new("mystery", "dac19", db(&[(1.0, 0.5)])).to_bytes();
        let report = check_snapshot(&bytes, "t");
        assert!(report.has_code(LintCode::SnapshotUnknownModel));
        // Warn-level only: the audit still passes.
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn tied_and_boundary_metrics_stay_equivalent() {
        // Heavy ties at the partition boundary stress the index walk.
        let bytes = Snapshot::new(
            "jpeg",
            "dac19",
            db(&[
                (10.0, 0.9),
                (10.0, 0.9),
                (10.0, 0.1),
                (0.0, 1.0),
                (30.0, 0.0),
            ]),
        )
        .to_bytes();
        assert!(!check_snapshot(&bytes, "t").has_code(LintCode::SnapshotIndexDivergence));
    }
}
