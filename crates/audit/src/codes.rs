//! The source-lint registry: every check `clr-audit` performs has a
//! stable `CLR1xx` code, a fixed severity and a one-line fix hint.
//!
//! The family complements `clr-verify`'s `CLR0xx` *artifact* lints:
//! CLR0xx codes audit what the pipeline *produced*, CLR1xx codes audit
//! the *source code* that produced it. The two registries live in
//! separate crates but are printed side by side by `clr-verify list`,
//! and a cross-crate test keeps the code ranges disjoint forever.
//! Codes are append-only — a retired lint's number is never reused.

use std::fmt;

/// How severe a source finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but grandfatherable via the baseline file; does not
    /// fail an audit.
    Warn,
    /// A broken determinism/reliability invariant; the tree must not
    /// merge with this finding outstanding.
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

/// A registered source lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum AuditCode {
    /// CLR100: a wall-clock read (`Instant::now`, `SystemTime`) outside
    /// an annotated nondet section. Wall time is inherently
    /// nondeterministic; it may only feed the journal's nondeterministic
    /// section, and every such site must be marked.
    WallClock,
    /// CLR101: `HashMap`/`HashSet` in non-test code. Their iteration
    /// order is randomized per process, so a single leak into a journal,
    /// CSV or codec path silently breaks the bit-identical-at-any-
    /// `CLR_THREADS` invariant. Deterministic code uses `BTreeMap`/
    /// `BTreeSet` or index-keyed `Vec`s.
    UnorderedContainer,
    /// CLR102: a float comparison via `partial_cmp`. `partial_cmp`
    /// returns `None` on NaN, forcing an `unwrap`/fallback that either
    /// panics or silently reorders; `f64::total_cmp` is total and
    /// deterministic.
    PartialCmpOnFloats,
    /// CLR103: an unseeded or thread-local RNG (`thread_rng`,
    /// `from_entropy`, `OsRng`). Every random stream in this workspace
    /// must be derived from an explicit seed via `splitmix64`.
    UnseededRng,
    /// CLR104: raw `std::thread` spawning outside `crates/par`. All
    /// fan-out goes through the deterministic `clr-par` worker pool so
    /// results cannot depend on scheduling.
    RawThreadSpawn,
    /// CLR105: `unwrap()`/`expect()`/`panic!` in a serve/chaos decision
    /// path. Those paths absorb faults via `clr_core::Error` and the
    /// degradation ladder; a panic there turns one bad event into a
    /// crashed replay.
    PanicInDecisionPath,
    /// CLR106: a potentially lossy `as` cast inside codec code. Codecs
    /// must round-trip byte-for-byte; a silent truncation corrupts the
    /// artifact without an error.
    LossyCastInCodec,
    /// CLR107: a call to a function the audited sources declare
    /// `#[deprecated]`.
    DeprecatedApi,
    /// CLR108: a `clr-audit: allow(...)` annotation that suppresses
    /// nothing. Dangling allows rot into false confidence; delete them
    /// when the hazard is gone.
    DanglingAllow,
    /// CLR109: a malformed or reasonless `clr-audit:` annotation
    /// (missing justification, unknown or non-suppressible code).
    MalformedAnnotation,
    /// CLR110: an unbalanced `nondet(begin)`/`nondet(end)` section.
    UnbalancedNondetSection,
}

impl AuditCode {
    /// Every registered source lint, in code order.
    pub const ALL: [AuditCode; 11] = [
        AuditCode::WallClock,
        AuditCode::UnorderedContainer,
        AuditCode::PartialCmpOnFloats,
        AuditCode::UnseededRng,
        AuditCode::RawThreadSpawn,
        AuditCode::PanicInDecisionPath,
        AuditCode::LossyCastInCodec,
        AuditCode::DeprecatedApi,
        AuditCode::DanglingAllow,
        AuditCode::MalformedAnnotation,
        AuditCode::UnbalancedNondetSection,
    ];

    /// The stable `CLRnnn` code string.
    pub fn code(&self) -> &'static str {
        match self {
            AuditCode::WallClock => "CLR100",
            AuditCode::UnorderedContainer => "CLR101",
            AuditCode::PartialCmpOnFloats => "CLR102",
            AuditCode::UnseededRng => "CLR103",
            AuditCode::RawThreadSpawn => "CLR104",
            AuditCode::PanicInDecisionPath => "CLR105",
            AuditCode::LossyCastInCodec => "CLR106",
            AuditCode::DeprecatedApi => "CLR107",
            AuditCode::DanglingAllow => "CLR108",
            AuditCode::MalformedAnnotation => "CLR109",
            AuditCode::UnbalancedNondetSection => "CLR110",
        }
    }

    /// Looks a lint up by its `CLRnnn` code string.
    pub fn from_code(code: &str) -> Option<AuditCode> {
        AuditCode::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The fixed severity of this lint.
    pub fn severity(&self) -> Severity {
        match self {
            AuditCode::LossyCastInCodec => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// `true` for the annotation-hygiene meta lints, which can never be
    /// suppressed by an `allow` (an allow naming them is itself
    /// malformed).
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            AuditCode::DanglingAllow
                | AuditCode::MalformedAnnotation
                | AuditCode::UnbalancedNondetSection
        )
    }

    /// A one-line description of what the lint checks.
    pub fn description(&self) -> &'static str {
        match self {
            AuditCode::WallClock => "wall-clock reads must sit inside a nondet section",
            AuditCode::UnorderedContainer => {
                "non-test code must not use randomized-order containers"
            }
            AuditCode::PartialCmpOnFloats => "float comparisons must use total_cmp",
            AuditCode::UnseededRng => "randomness must come from an explicitly seeded RNG",
            AuditCode::RawThreadSpawn => "thread fan-out must go through the clr-par pool",
            AuditCode::PanicInDecisionPath => "serve/chaos decision paths must not panic",
            AuditCode::LossyCastInCodec => "codec code must not truncate through as-casts",
            AuditCode::DeprecatedApi => "deprecated workspace APIs must not gain new callers",
            AuditCode::DanglingAllow => "allow annotations must suppress a live finding",
            AuditCode::MalformedAnnotation => "clr-audit annotations must parse and carry a reason",
            AuditCode::UnbalancedNondetSection => "nondet sections must open and close in pairs",
        }
    }

    /// A one-line suggestion for fixing a finding.
    pub fn fix_hint(&self) -> &'static str {
        match self {
            AuditCode::WallClock => {
                "wrap the site in `// clr-audit: nondet(begin) <why>` .. `nondet(end)`"
            }
            AuditCode::UnorderedContainer => "switch to BTreeMap/BTreeSet or an index-keyed Vec",
            AuditCode::PartialCmpOnFloats => "compare with f64::total_cmp (drops the unwrap too)",
            AuditCode::UnseededRng => "derive a seed with clr_par::derive_seed / splitmix64",
            AuditCode::RawThreadSpawn => "use clr_par::par_map; it is bit-identical at any width",
            AuditCode::PanicInDecisionPath => {
                "return clr_core::Error and let the degradation ladder absorb it"
            }
            AuditCode::LossyCastInCodec => "use try_from / from and surface a codec error",
            AuditCode::DeprecatedApi => "call the replacement named in the API's deprecation note",
            AuditCode::DanglingAllow => "delete the stale allow (or fix the code it named)",
            AuditCode::MalformedAnnotation => {
                "write `// clr-audit: allow(CLR1xx) <reason>` with a real reason"
            }
            AuditCode::UnbalancedNondetSection => {
                "close every nondet(begin) with a nondet(end) in the same file"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_stable_and_in_family() {
        let mut seen = std::collections::BTreeSet::new();
        for lint in AuditCode::ALL {
            let c = lint.code();
            assert!(c.starts_with("CLR1") && c.len() == 6, "bad code {c}");
            assert!(c[3..].chars().all(|ch| ch.is_ascii_digit()));
            assert!(seen.insert(c), "duplicate code {c}");
            assert_eq!(AuditCode::from_code(c), Some(lint));
        }
        assert_eq!(AuditCode::from_code("CLR999"), None);
    }

    #[test]
    fn all_is_sorted_by_code_with_nonempty_metadata() {
        let codes: Vec<&str> = AuditCode::ALL.iter().map(AuditCode::code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
        for lint in AuditCode::ALL {
            assert!(!lint.description().is_empty());
            assert!(!lint.fix_hint().is_empty());
        }
    }

    #[test]
    fn only_the_codec_cast_lint_is_grandfatherable() {
        for lint in AuditCode::ALL {
            let expect = matches!(lint, AuditCode::LossyCastInCodec);
            assert_eq!(lint.severity() == Severity::Warn, expect, "{}", lint.code());
        }
    }

    #[test]
    fn meta_lints_are_exactly_the_annotation_family() {
        let metas: Vec<&str> = AuditCode::ALL
            .iter()
            .filter(|c| c.is_meta())
            .map(AuditCode::code)
            .collect();
        assert_eq!(metas, ["CLR108", "CLR109", "CLR110"]);
    }
}
