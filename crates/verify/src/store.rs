//! Replicated-store lints (`CLR080`–`CLR085`): generation lineage,
//! changeset containment and the merge laws of `clr-store`.
//!
//! A store replica is trusted to hot-swap databases into a serving
//! fleet, so its replication invariants get a static gate: the lineage
//! must be acyclic with parents strictly below children (CLR080), every
//! point stamp must content-address its point at or before the carrying
//! snapshot's generation (CLR081), a shipped changeset must stay within
//! the bounds of the source generation it claims (CLR082), merge must
//! be a join — idempotent (CLR083) and order-independent (CLR084) — and
//! garbage collection must keep whole parent chains (CLR085). `ci.sh`
//! runs `clr-verify store` over the log it publishes in step 12.

use std::collections::BTreeSet;

use clr_par::fnv1a64;
use clr_serve::LineageSnapshot;
use clr_store::{ChangeOp, Changeset, MergeOutcome, Store};

use crate::{Diagnostic, LintCode, Report};

/// Lints a replica's held generations (CLR080, CLR081, CLR085) and
/// replays them through a scratch in-memory replica to check the merge
/// laws (CLR083, CLR084).
///
/// `snapshots` is every generation the replica holds, in log order;
/// `label` names the store in findings.
pub fn check_store(snapshots: &[LineageSnapshot], label: &str) -> Report {
    let mut report = Report::new();
    let origin = format!("store:{label}");
    let held: BTreeSet<u64> = snapshots.iter().map(|s| s.lineage().generation).collect();
    let floor = held.first().copied().unwrap_or(0);
    for snap in snapshots {
        let l = snap.lineage();
        let location = format!("generation {}", l.generation);
        match l.parent {
            Some(parent) if parent >= l.generation => {
                report.push(Diagnostic::new(
                    LintCode::StoreLineageCycle,
                    origin.clone(),
                    location.clone(),
                    format!(
                        "parent generation {parent} is not strictly below {}",
                        l.generation
                    ),
                ));
            }
            None if l.generation != 0 => {
                report.push(Diagnostic::new(
                    LintCode::StoreLineageCycle,
                    origin.clone(),
                    location.clone(),
                    format!(
                        "generation {} claims to be a root (only generation 0 may)",
                        l.generation
                    ),
                ));
            }
            // A parent below the oldest held generation was collected by
            // GC (the floor); a missing parent at or above the floor is
            // a hole GC must never leave.
            Some(parent) if !held.contains(&parent) && parent >= floor => {
                report.push(Diagnostic::new(
                    LintCode::GcUnreachableGeneration,
                    origin.clone(),
                    location.clone(),
                    format!(
                        "parent generation {parent} is missing although the \
                         store still holds generation {floor} and above"
                    ),
                ));
            }
            _ => {}
        }
        check_stamps(&mut report, &origin, &location, snap);
    }
    check_merge_laws(&mut report, &origin, snapshots);
    report
}

/// CLR081: one stamp per stored point, each content-addressing its
/// point, none minted after the snapshot's own generation.
fn check_stamps(report: &mut Report, origin: &str, location: &str, snap: &LineageSnapshot) {
    let l = snap.lineage();
    let db = snap.snapshot().db();
    if l.stamps.len() != db.len() {
        report.push(Diagnostic::new(
            LintCode::StoreStampNotMonotone,
            origin.to_string(),
            location.to_string(),
            format!("{} stamps for {} stored points", l.stamps.len(), db.len()),
        ));
        return;
    }
    for (i, (stamp, point)) in l.stamps.iter().zip(db.iter()).enumerate() {
        let actual = fnv1a64(clr_dse::point_text(point).as_bytes());
        if stamp.hash != actual {
            report.push(Diagnostic::new(
                LintCode::StoreStampNotMonotone,
                origin.to_string(),
                location.to_string(),
                format!(
                    "point {i}: stamp hash {:#018x} does not address the stored \
                     content {actual:#018x}",
                    stamp.hash
                ),
            ));
        }
        if stamp.generation > l.generation {
            report.push(Diagnostic::new(
                LintCode::StoreStampNotMonotone,
                origin.to_string(),
                location.to_string(),
                format!(
                    "point {i}: stamp generation {} is ahead of snapshot generation {}",
                    stamp.generation, l.generation
                ),
            ));
        }
    }
}

/// CLR083/CLR084: replays the held generations through two scratch
/// in-memory replicas — forward and reversed — then re-merges everything
/// into the forward replica. A second merge that mutates state breaks
/// idempotence; replicas that absorbed the same generations in different
/// orders but disagree break commutativity.
fn check_merge_laws(report: &mut Report, origin: &str, snapshots: &[LineageSnapshot]) {
    let lawful: Vec<&LineageSnapshot> = snapshots.iter().filter(|s| s.verify().is_ok()).collect();
    let mut forward = Store::in_memory();
    for snap in &lawful {
        let _ = forward.merge(snap);
    }
    for snap in &lawful {
        match forward.merge(snap) {
            Ok(MergeOutcome::Unchanged | MergeOutcome::KeptExisting) | Err(_) => {}
            Ok(outcome) => {
                report.push(Diagnostic::new(
                    LintCode::MergeNotIdempotent,
                    origin.to_string(),
                    format!("generation {}", snap.lineage().generation),
                    format!("re-merging an already-held generation reported {outcome}"),
                ));
            }
        }
    }
    let mut reversed = Store::in_memory();
    for snap in lawful.iter().rev() {
        let _ = reversed.merge(snap);
    }
    let (Ok(a), Ok(b)) = (forward.generations(), reversed.generations()) else {
        return;
    };
    if a != b {
        report.push(Diagnostic::new(
            LintCode::MergeNotCommutative,
            origin.to_string(),
            "replica".to_string(),
            format!("forward replay holds generations {a:?}, reversed replay {b:?}"),
        ));
        return;
    }
    for generation in a {
        let (Ok(fwd), Ok(rev)) = (forward.get(generation), reversed.get(generation)) else {
            continue;
        };
        if fwd.to_bytes() != rev.to_bytes() {
            report.push(Diagnostic::new(
                LintCode::MergeNotCommutative,
                origin.to_string(),
                format!("generation {generation}"),
                "forward and reversed replay disagree on the sealed bytes".to_string(),
            ));
        }
    }
}

/// CLR082: lints one shipped changeset — it must parse, claim the
/// source generation the replica actually holds (by number *and* sealed
/// bytes), and keep every positional edit within the source's bounds.
///
/// `source` is the replica's copy of the changeset's `from` generation,
/// `None` when the replica does not hold it.
pub fn check_changeset(text: &str, source: Option<&LineageSnapshot>, label: &str) -> Report {
    let mut report = Report::new();
    let origin = format!("changeset:{label}");
    let cs = match Changeset::from_text(text) {
        Ok(cs) => cs,
        Err(e) => {
            report.push(Diagnostic::new(
                LintCode::ChangesetOutsideSource,
                origin,
                "changeset".to_string(),
                format!("changeset does not parse: {e}"),
            ));
            return report;
        }
    };
    let Some(source) = source else {
        report.push(Diagnostic::new(
            LintCode::ChangesetOutsideSource,
            origin,
            "changeset".to_string(),
            format!(
                "source generation {} is not in the store",
                cs.from_generation
            ),
        ));
        return report;
    };
    let source_bytes = source.to_bytes();
    if cs.from_hash != fnv1a64(&source_bytes) {
        report.push(Diagnostic::new(
            LintCode::ChangesetOutsideSource,
            origin.clone(),
            "changeset".to_string(),
            format!(
                "source hash {:#018x} does not match the held generation {}",
                cs.from_hash, cs.from_generation
            ),
        ));
    }
    // Simulate the edits against the source length only — content is the
    // codec's job; containment is this lint's.
    let mut len = source.snapshot().db().len();
    for (i, op) in cs.ops.iter().enumerate() {
        match op {
            ChangeOp::Set { index, .. } if *index >= len => {
                report.push(Diagnostic::new(
                    LintCode::ChangesetOutsideSource,
                    origin.clone(),
                    format!("op {i}"),
                    format!("set at index {index} outside the current {len} points"),
                ));
            }
            ChangeOp::Truncate { len: keep } if *keep > len => {
                report.push(Diagnostic::new(
                    LintCode::ChangesetOutsideSource,
                    origin.clone(),
                    format!("op {i}"),
                    format!("truncate to {keep} exceeds the current {len} points"),
                ));
            }
            ChangeOp::Set { .. } | ChangeOp::Truncate { .. } => {}
            ChangeOp::Append { .. } => len += 1,
        }
        if let ChangeOp::Truncate { len: keep } = op {
            len = (*keep).min(len);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_serve::{compute_stamps, Lineage, Snapshot};
    use clr_store::synth_db;

    /// A two-generation store built through the real publish path.
    fn published() -> Vec<LineageSnapshot> {
        let mut store = Store::in_memory();
        store
            .publish(
                Snapshot::new("jpeg", "dac19", synth_db("based", 6, |_| 0)),
                "alpha",
            )
            .unwrap();
        store
            .publish(
                Snapshot::new("jpeg", "dac19", synth_db("based", 6, |i| u64::from(i == 2))),
                "alpha",
            )
            .unwrap();
        store
            .generations()
            .unwrap()
            .into_iter()
            .map(|g| store.get(g).unwrap())
            .collect()
    }

    #[test]
    fn a_published_store_is_clean() {
        let report = check_store(&published(), "t");
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn a_cyclic_parent_denies_clr080() {
        let mut snaps = published();
        let snapshot = snaps[1].snapshot().clone();
        let mut lineage = snaps[1].lineage().clone();
        lineage.parent = Some(lineage.generation);
        snaps[1] = LineageSnapshot::from_parts(lineage, snapshot);
        let report = check_store(&snaps, "t");
        assert!(report.has_code(LintCode::StoreLineageCycle), "{report:?}");
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn a_forward_dated_stamp_denies_clr081() {
        let mut snaps = published();
        let snapshot = snaps[0].snapshot().clone();
        let mut lineage = snaps[0].lineage().clone();
        lineage.stamps[0].generation = 99;
        snaps[0] = LineageSnapshot::from_parts(lineage, snapshot);
        let report = check_store(&snaps, "t");
        assert!(
            report.has_code(LintCode::StoreStampNotMonotone),
            "{report:?}"
        );
    }

    #[test]
    fn a_gc_hole_in_the_parent_chain_denies_clr085() {
        let mut store = Store::in_memory();
        for round in 0..4u64 {
            store
                .publish(
                    Snapshot::new(
                        "jpeg",
                        "dac19",
                        synth_db("based", 4, |i| round * 10 + i as u64),
                    ),
                    "a",
                )
                .unwrap();
        }
        let snaps: Vec<LineageSnapshot> = [0u64, 1, 3] // generation 2 vanished mid-chain
            .iter()
            .map(|&g| store.get(g).unwrap())
            .collect();
        let report = check_store(&snaps, "t");
        assert!(
            report.has_code(LintCode::GcUnreachableGeneration),
            "{report:?}"
        );
        // An honest GC that dropped the *oldest* generations is clean.
        let kept: Vec<LineageSnapshot> = [2u64, 3].iter().map(|&g| store.get(g).unwrap()).collect();
        assert!(check_store(&kept, "t").is_empty());
    }

    #[test]
    fn changesets_outside_their_source_deny_clr082() {
        let snaps = published();
        let cs = Changeset::compute(&snaps[0], &snaps[1]);
        let clean = check_changeset(&cs.to_text(), Some(&snaps[0]), "t");
        assert!(clean.is_empty(), "{clean:?}");
        // Unknown source generation.
        let report = check_changeset(&cs.to_text(), None, "t");
        assert!(report.has_code(LintCode::ChangesetOutsideSource));
        // Garbage text.
        let report = check_changeset("nope", Some(&snaps[0]), "t");
        assert!(report.has_code(LintCode::ChangesetOutsideSource));
        // An edit past the source bounds.
        let mut oob = cs.clone();
        if let Some(ChangeOp::Set { index, .. }) = oob.ops.first_mut() {
            *index = 999;
        }
        let report = check_changeset(&oob.to_text(), Some(&snaps[0]), "t");
        assert!(
            report.has_code(LintCode::ChangesetOutsideSource),
            "{report:?}"
        );
    }

    #[test]
    fn hand_forged_lineage_without_a_root_denies_clr080() {
        let db = synth_db("based", 3, |_| 0);
        let snapshot = Snapshot::new("jpeg", "dac19", db);
        let lineage = Lineage {
            generation: 4,
            parent: None,
            publisher: "forge".into(),
            stamps: compute_stamps(snapshot.db(), 4),
        };
        let report = check_store(&[LineageSnapshot::from_parts(lineage, snapshot)], "t");
        assert!(report.has_code(LintCode::StoreLineageCycle), "{report:?}");
    }
}
