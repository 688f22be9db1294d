//! Structured diagnostics: severities, findings and renderable reports.

use std::fmt;

use clr_obs::json_escape;

use crate::LintCode;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; does not fail an audit.
    Warn,
    /// A broken invariant; the audited artifact must not be deployed.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One finding: a lint code anchored to an artifact and a location inside
/// it, with a free-form detail string.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated lint.
    pub code: LintCode,
    /// The audited artifact, e.g. `graph:jpeg-encoder` or `db:based`.
    pub artifact: String,
    /// Where inside the artifact, e.g. `task 3` or `point 7`.
    pub location: String,
    /// What exactly was observed.
    pub detail: String,
}

impl Diagnostic {
    /// Creates a finding.
    pub fn new(
        code: LintCode,
        artifact: impl Into<String>,
        location: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            code,
            artifact: artifact.into(),
            location: location.into(),
            detail: detail.into(),
        }
    }

    /// The severity inherited from the lint code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The one-line fix hint inherited from the lint code.
    pub fn fix_hint(&self) -> &'static str {
        self.code.fix_hint()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} ({}): {}\n  hint: {}",
            self.code.code(),
            self.severity(),
            self.artifact,
            self.location,
            self.detail,
            self.fix_hint()
        )
    }
}

/// An accumulated set of findings over one or more artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs all findings of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` if no lint fired.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warn)
            .count()
    }

    /// `true` if some finding carries the given code.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The process exit code an audit should end with: `0` when clean or
    /// warn-only, `1` when any deny-level finding exists.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.deny_count() > 0)
    }

    /// Renders the report for humans: one block per finding plus a
    /// summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} finding(s): {} deny, {} warn",
            self.len(),
            self.deny_count(),
            self.warn_count()
        );
        out
    }

    /// Renders the report as a JSON document:
    /// `{"findings": [...], "deny": n, "warn": n}`.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"severity\":{},\"artifact\":{},\"location\":{},\"detail\":{},\"hint\":{}}}",
                json_escape(d.code.code()),
                json_escape(&d.severity().to_string()),
                json_escape(&d.artifact),
                json_escape(&d.location),
                json_escape(&d.detail),
                json_escape(d.fix_hint()),
            );
        }
        let _ = write!(
            out,
            "],\"deny\":{},\"warn\":{}}}",
            self.deny_count(),
            self.warn_count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::GraphCycle,
            "graph:t",
            "tasks 0->1->0",
            "cycle detected",
        ));
        r.push(Diagnostic::new(
            LintCode::DuplicatePoints,
            "db:based",
            "points 1, 2",
            "metrics coincide",
        ));
        r
    }

    #[test]
    fn counts_split_by_severity() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.exit_code(), 1);
        assert!(r.has_code(LintCode::GraphCycle));
        assert!(!r.has_code(LintCode::EmptyDatabase));
    }

    #[test]
    fn warn_only_report_exits_zero() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::DuplicatePoints,
            "db:based",
            "points 1, 2",
            "metrics coincide",
        ));
        assert_eq!(r.exit_code(), 0);
        assert!(!r.is_empty());
    }

    #[test]
    fn human_rendering_names_code_and_hint() {
        let text = sample().render_human();
        assert!(text.contains("CLR001"));
        assert!(text.contains("hint:"));
        assert!(text.contains("2 finding(s): 1 deny, 1 warn"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"findings\":["));
        assert!(json.ends_with("\"deny\":1,\"warn\":1}"));
        assert!(json.contains("\"code\":\"CLR001\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
