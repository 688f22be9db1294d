//! `clr-audit` — source-level determinism & reliability static
//! analyzer for the CLR workspace.
//!
//! The pipeline's contract is *bit-identical artifacts from identical
//! seeds*, and `clr-verify` (the `CLR0xx` family) audits the artifacts
//! after the fact. This crate closes the other half of the loop: it
//! audits the **source** that produces them, catching the constructs
//! that break determinism or reliability before they ever reach an
//! artifact — wall-clock reads, randomized-order containers,
//! `partial_cmp` float sorts, unseeded RNGs, raw thread spawns,
//! panicking decision paths, lossy codec casts and deprecated-API
//! callers. Each check is a stable `CLR1xx` code with a fixed severity
//! and a fix hint (see [`AuditCode`]).
//!
//! The analyzer is a hand-rolled lexer plus token-sequence rules — no
//! syn, no rustc plumbing, no external dependencies — which keeps it
//! fast (the whole workspace scans in milliseconds), fully
//! deterministic, and runnable as a bare CI gate before anything else
//! compiles.
//!
//! Suppression is explicit and itself audited: a
//! `// clr-audit: allow(CLR1xx) <reason>` comment suppresses exactly
//! one code on its line (or the next code-bearing line), and the tool
//! validates its own escape hatch — a reasonless allow is CLR109, a
//! dangling one CLR108, an unbalanced `nondet(begin)`/`nondet(end)`
//! wall-clock section CLR110. Warn-level findings can be grandfathered
//! through a checked-in [`Baseline`]; deny findings never can.

pub mod annot;
pub mod codes;
pub mod lexer;
pub mod report;
pub mod scan;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use annot::{parse_comment, Annotation, AnnotationError};
pub use codes::{AuditCode, Severity};
pub use report::{AuditReport, Baseline, Finding};
pub use scan::{audit_source, normalize_path};
use scan::{audit_source_with, deprecated_fns};

/// Workspace subtrees that contain first-party Rust sources.
const SOURCE_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Directory names that are never scanned: build output, vendored
/// third-party stubs, and the seeded-violation lint fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Lists every auditable `.rs` file under `root`, as sorted
/// workspace-relative paths with `/` separators.
///
/// # Errors
///
/// Propagates filesystem errors from reading directories; a missing
/// source root is skipped silently (not every checkout has `src/`).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sub in SOURCE_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .map(|f| f.strip_prefix(root).map_or(f.clone(), Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits every first-party `.rs` file under `root` and returns the
/// finished (sorted) report. No baseline is applied — callers decide.
///
/// # Errors
///
/// Propagates filesystem errors from walking or reading sources.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    for rel in workspace_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((normalize_path(&rel.to_string_lossy()), source));
    }
    Ok(audit_sources(&files))
}

/// Audits `(path, source)` pairs as one program and returns the
/// finished (sorted) report: CLR107 flags calls, in any file, to a
/// function any of them declares `#[deprecated]`.
pub fn audit_sources(files: &[(String, String)]) -> AuditReport {
    let deprecated: BTreeSet<String> = files
        .iter()
        .flat_map(|(_, source)| deprecated_fns(source))
        .collect();
    let mut report = AuditReport::new();
    for (path, source) in files {
        report.absorb_file(audit_source_with(path, source, &deprecated));
    }
    report.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_vendor_target_and_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).unwrap();
        assert!(!files.is_empty());
        for f in &files {
            let text = f.to_string_lossy();
            assert!(text.ends_with(".rs"));
            for skip in ["vendor/", "target/", "fixtures/"] {
                assert!(!text.contains(skip), "{text} should be skipped");
            }
        }
        // Sorted and duplicate-free.
        let mut sorted = files.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(files, sorted);
    }

    #[test]
    fn deprecations_reach_across_files() {
        let files = [
            (
                "crates/a/src/lib.rs".to_string(),
                "#[deprecated]\npub fn old() {}".to_string(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "fn f() { a::old(); }".to_string(),
            ),
        ];
        let report = audit_sources(&files);
        assert_eq!(report.findings().len(), 1);
        assert_eq!(report.findings()[0].code, AuditCode::DeprecatedApi);
        assert_eq!(report.findings()[0].path, "crates/b/src/lib.rs");
    }

    #[test]
    fn this_crate_is_part_of_the_walk() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).unwrap();
        assert!(files
            .iter()
            .any(|f| f.to_string_lossy().replace('\\', "/") == "crates/audit/src/lib.rs"));
    }
}
