//! The rule engine: runs every CLR1xx check over one lexed file,
//! applies suppressions, and validates the annotations themselves.

use std::collections::BTreeSet;

use crate::annot::{parse_comment, Annotation};
use crate::codes::AuditCode;
use crate::lexer::{lex, Token};
use crate::report::Finding;

/// Paths allowed to spawn threads directly: the deterministic pool
/// itself.
const PAR_PATHS: &[&str] = &["crates/par/"];

/// Decision paths: code that must absorb faults via `clr_core::Error`
/// and the degradation ladder rather than panic (CLR105).
const DECISION_PATHS: &[&str] = &[
    "crates/serve/src/engine.rs",
    "crates/serve/src/tenant.rs",
    "crates/serve/src/session.rs",
    "crates/serve/src/daemon.rs",
    "crates/serve/src/health.rs",
    "crates/store/src/lib.rs",
    "crates/chaos/src/",
    "crates/learn/src/learner.rs",
];

/// Codec code: byte-stable encoders/decoders where a lossy `as` cast
/// silently corrupts artifacts (CLR106).
const CODEC_PATHS: &[&str] = &[
    "crates/serve/src/snapshot.rs",
    "crates/serve/src/trace.rs",
    "crates/serve/src/wire.rs",
    "crates/obs/src/json.rs",
    "crates/obs/src/event.rs",
    "crates/obs/src/telemetry.rs",
    "crates/dse/src/codec.rs",
    "crates/store/src/changeset.rs",
    "crates/store/src/backend.rs",
    "crates/chaos/src/plan.rs",
    "crates/learn/src/checkpoint.rs",
    "crates/dse/src/sealed.rs",
];

/// Cast targets that can silently drop information (CLR106). Widening
/// targets (`u64`, `i64`, `f64`, `u128`, `i128`) are not listed: every
/// workspace source value fits them.
const LOSSY_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32", "usize"];

/// Normalizes a path for scope matching and reporting: `/` separators,
/// no leading `./`.
pub fn normalize_path(path: &str) -> String {
    let unified = path.replace('\\', "/");
    unified.strip_prefix("./").unwrap_or(&unified).to_string()
}

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The names of the functions `source` declares `#[deprecated]` — the
/// calls CLR107 flags. Each is the identifier after the first `fn` that
/// follows the attribute (stacked attributes, visibility and qualifiers
/// may sit between them); a deprecated non-function item adds nothing.
pub(crate) fn deprecated_fns(source: &str) -> BTreeSet<String> {
    let tokens = lex(source).tokens;
    let mut names = BTreeSet::new();
    for (i, w) in tokens.windows(3).enumerate() {
        if [w[0].text, w[1].text, w[2].text] != ["#", "[", "deprecated"] {
            continue;
        }
        // The lexer drops the attribute's string arguments, so the scan
        // meets no `{`, `;` or item keyword before the item itself.
        for item in tokens[i + 3..].windows(2) {
            match item[0].text {
                "fn" => {
                    names.insert(item[1].text.to_string());
                    break;
                }
                "struct" | "enum" | "union" | "trait" | "type" | "mod" | "static" | "{" | ";" => {
                    break
                }
                _ => {}
            }
        }
    }
    names
}

/// Audits one source file on its own, returning its findings sorted by
/// `(line, code)`: CLR107 sees only the deprecations the file declares
/// itself. `path` should be workspace-relative; it selects the
/// path-scoped rules (decision paths, codec code, the `crates/par`
/// spawn exemption).
pub fn audit_source(path: &str, source: &str) -> Vec<Finding> {
    audit_source_with(path, source, &deprecated_fns(source))
}

/// [`audit_source`] with the set of deprecated function names CLR107
/// checks calls against — for a multi-file audit, the union of
/// [`deprecated_fns`] over every file.
pub(crate) fn audit_source_with(
    path: &str,
    source: &str,
    deprecated: &BTreeSet<String>,
) -> Vec<Finding> {
    let path = normalize_path(path);
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let in_test = test_region_mask(tokens);
    let token_lines: BTreeSet<usize> = tokens.iter().map(|t| t.line).collect();

    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<(usize, AuditCode, bool)> = Vec::new(); // (line, code, used)
    let mut nondet: Vec<(usize, usize)> = Vec::new(); // inclusive line ranges
    let mut open_nondet: Option<usize> = None;

    let push = |findings: &mut Vec<Finding>, code: AuditCode, line: usize, detail: String| {
        findings.push(Finding {
            code,
            path: path.clone(),
            line,
            detail,
        });
    };

    // ---- annotations: parse, validate, and build the exempt regions ----
    for comment in &lexed.comments {
        match parse_comment(comment.text) {
            None => {}
            Some(Err(e)) => push(
                &mut findings,
                AuditCode::MalformedAnnotation,
                comment.line,
                e.detail,
            ),
            Some(Ok(Annotation::Allow { code, .. })) => {
                allows.push((comment.line, code, false));
            }
            Some(Ok(Annotation::NondetBegin { .. })) => {
                if open_nondet.is_some() {
                    push(
                        &mut findings,
                        AuditCode::UnbalancedNondetSection,
                        comment.line,
                        "nondet(begin) while a section is already open (no nesting)".to_string(),
                    );
                } else {
                    open_nondet = Some(comment.line);
                }
            }
            Some(Ok(Annotation::NondetEnd)) => match open_nondet.take() {
                Some(begin) => nondet.push((begin, comment.line)),
                None => push(
                    &mut findings,
                    AuditCode::UnbalancedNondetSection,
                    comment.line,
                    "nondet(end) without an open nondet(begin)".to_string(),
                ),
            },
        }
    }
    if let Some(begin) = open_nondet {
        push(
            &mut findings,
            AuditCode::UnbalancedNondetSection,
            begin,
            "nondet(begin) never closed before end of file".to_string(),
        );
    }
    let in_nondet = |line: usize| nondet.iter().any(|&(b, e)| line >= b && line <= e);

    // ---- token rules ---------------------------------------------------
    let scope_par = in_scope(&path, PAR_PATHS);
    let scope_decision = in_scope(&path, DECISION_PATHS);
    let scope_codec = in_scope(&path, CODEC_PATHS);
    let txt = |k: usize| tokens.get(k).map_or("", |t: &Token<'_>| t.text);
    let prev = |k: usize| if k == 0 { "" } else { txt(k - 1) };

    for (i, tok) in tokens.iter().enumerate() {
        let line = tok.line;
        match tok.text {
            "Instant"
                if txt(i + 1) == ":"
                    && txt(i + 2) == ":"
                    && txt(i + 3) == "now"
                    && !in_nondet(line) =>
            {
                push(
                    &mut findings,
                    AuditCode::WallClock,
                    line,
                    "Instant::now() outside a nondet section".to_string(),
                );
            }
            "SystemTime" if !in_nondet(line) => {
                push(
                    &mut findings,
                    AuditCode::WallClock,
                    line,
                    "SystemTime outside a nondet section".to_string(),
                );
            }
            "HashMap" | "HashSet" if !in_test[i] => {
                push(
                    &mut findings,
                    AuditCode::UnorderedContainer,
                    line,
                    format!("{} in non-test code (randomized iteration order)", tok.text),
                );
            }
            "partial_cmp" => {
                push(
                    &mut findings,
                    AuditCode::PartialCmpOnFloats,
                    line,
                    "float comparison via partial_cmp".to_string(),
                );
            }
            "thread_rng" | "from_entropy" | "OsRng" => {
                push(
                    &mut findings,
                    AuditCode::UnseededRng,
                    line,
                    format!("{} draws entropy outside the seed discipline", tok.text),
                );
            }
            "thread"
                if txt(i + 1) == ":"
                    && txt(i + 2) == ":"
                    && matches!(txt(i + 3), "spawn" | "scope")
                    && !scope_par
                    && !in_test[i] =>
            {
                push(
                    &mut findings,
                    AuditCode::RawThreadSpawn,
                    line,
                    format!("thread::{} outside crates/par", txt(i + 3)),
                );
            }
            "unwrap" | "expect"
                if scope_decision
                    && !in_test[i]
                    && txt(i + 1) == "("
                    && i > 0
                    && txt(i - 1) == "." =>
            {
                push(
                    &mut findings,
                    AuditCode::PanicInDecisionPath,
                    line,
                    format!(".{}() in a serve/chaos decision path", tok.text),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if scope_decision && !in_test[i] && txt(i + 1) == "!" =>
            {
                push(
                    &mut findings,
                    AuditCode::PanicInDecisionPath,
                    line,
                    format!("{}! in a serve/chaos decision path", tok.text),
                );
            }
            "as" if scope_codec && !in_test[i] && LOSSY_CAST_TARGETS.contains(&txt(i + 1)) => {
                push(
                    &mut findings,
                    AuditCode::LossyCastInCodec,
                    line,
                    format!("potentially lossy `as {}` in codec code", txt(i + 1)),
                );
            }
            name if txt(i + 1) == "(" && prev(i) != "fn" && deprecated.contains(name) => {
                push(
                    &mut findings,
                    AuditCode::DeprecatedApi,
                    line,
                    format!("call to `{name}`, which is #[deprecated]"),
                );
            }
            _ => {}
        }
    }

    // ---- suppression ---------------------------------------------------
    // An allow covers its own line (trailing comment) or, when it sits
    // alone, the next code-bearing line. Meta lints are unsuppressible.
    findings.retain(|finding| {
        if finding.code.is_meta() {
            return true;
        }
        let suppressed = allows.iter_mut().any(|(line, code, used)| {
            let target = finding.line == *line
                || token_lines.range(*line + 1..).next() == Some(&finding.line);
            if target && *code == finding.code {
                *used = true;
                true
            } else {
                false
            }
        });
        !suppressed
    });
    for (line, code, used) in &allows {
        if !used {
            push(
                &mut findings,
                AuditCode::DanglingAllow,
                *line,
                format!(
                    "allow({}) suppresses nothing on its target line",
                    code.code()
                ),
            );
        }
    }

    findings.sort_by_key(|f| (f.line, f.code));
    findings
}

/// Marks every token inside a `#[cfg(test)]` or `#[test]` item. The
/// attribute's item extends to its matching close brace (or to the
/// terminating semicolon for brace-less items).
fn test_region_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].text == "#" && tokens[i + 1].text == "[") {
            i += 1;
            continue;
        }
        // Collect the attribute's identifier tokens up to the matching ']'.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() {
            match tokens[j].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t if crate::lexer::TokenKind::Ident == tokens[j].kind => idents.push(t),
                _ => {}
            }
            j += 1;
        }
        let close = j;
        let testy = idents.as_slice() == ["test"]
            || (idents.first() == Some(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not"));
        if testy {
            // Skip any further attributes stacked on the same item.
            let mut k = close + 1;
            while k + 1 < tokens.len() && tokens[k].text == "#" && tokens[k + 1].text == "[" {
                let mut d = 0usize;
                while k < tokens.len() {
                    match tokens[k].text {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
            }
            // The item body: to the matching '}' of its first brace, or
            // to ';' for brace-less items (`#[cfg(test)] use ...;`).
            let mut end = tokens.len().saturating_sub(1);
            let mut m = k;
            while m < tokens.len() {
                match tokens[m].text {
                    ";" => {
                        end = m;
                        break;
                    }
                    "{" => {
                        let mut d = 0usize;
                        while m < tokens.len() {
                            match tokens[m].text {
                                "{" => d += 1,
                                "}" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        end = m.min(tokens.len() - 1);
                        break;
                    }
                    _ => m += 1,
                }
            }
            for slot in &mut mask[i..=end.min(tokens.len() - 1)] {
                *slot = true;
            }
        }
        i = close + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        audit_source(path, src)
            .iter()
            .map(|f| f.code.code())
            .collect()
    }

    #[test]
    fn wall_clock_fires_outside_but_not_inside_nondet() {
        let hot = "fn f() { let t = Instant::now(); }";
        assert_eq!(codes("a.rs", hot), ["CLR100"]);
        let marked = "\
fn f() {
    // clr-audit: nondet(begin) throughput reporting only
    let t = Instant::now();
    // clr-audit: nondet(end)
}";
        assert!(codes("a.rs", marked).is_empty());
    }

    #[test]
    fn hash_containers_are_exempt_in_tests() {
        let src = "\
use std::collections::BTreeMap;
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let s: std::collections::HashSet<u8> = Default::default(); let _ = s; }
}";
        assert!(codes("a.rs", src).is_empty());
        assert_eq!(codes("a.rs", "use std::collections::HashMap;"), ["CLR101"]);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))]\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        assert_eq!(codes("a.rs", src), ["CLR101", "CLR101"]);
    }

    #[test]
    fn decision_path_rules_are_path_scoped() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(codes("crates/moea/src/lib.rs", src).is_empty());
        assert_eq!(codes("crates/serve/src/engine.rs", src), ["CLR105"]);
        let in_test = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }";
        assert!(codes("crates/serve/src/engine.rs", in_test).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }";
        assert!(codes("crates/serve/src/engine.rs", src).is_empty());
    }

    #[test]
    fn codec_casts_are_warns_and_path_scoped() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert!(codes("crates/serve/src/engine.rs", src).is_empty());
        let findings = audit_source("crates/obs/src/json.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, AuditCode::LossyCastInCodec);
        assert_eq!(findings[0].severity(), crate::codes::Severity::Warn);
        // Widening casts are fine even in codecs.
        assert!(codes("crates/obs/src/json.rs", "fn f(x: u32) -> u64 { x as u64 }").is_empty());
    }

    #[test]
    fn spawn_is_allowed_only_in_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(codes("crates/obs/src/lib.rs", src), ["CLR104"]);
        assert!(codes("crates/par/src/lib.rs", src).is_empty());
    }

    #[test]
    fn deprecated_fn_calls_fire_in_every_call_form() {
        let src = "\
#[deprecated(since = \"0.2.0\", note = \"use fresh\")]
pub fn old(x: u8) -> u8 { x }
fn f(s: S) { let _ = old(1); let _ = m::old(2); let _ = s.old(3); }";
        // The declaration itself does not fire; each call does.
        assert_eq!(codes("a.rs", src), ["CLR107", "CLR107", "CLR107"]);
        // Stacked attributes and qualifiers between the attribute and `fn`.
        let method = "\
impl S {
    #[deprecated]
    #[inline]
    pub(crate) const fn legacy(&self) {}
}
fn g(s: S) { s.legacy(); }";
        assert_eq!(codes("a.rs", method), ["CLR107"]);
        assert_eq!(
            deprecated_fns(method),
            BTreeSet::from(["legacy".to_string()])
        );
    }

    #[test]
    fn undeclared_names_never_fire() {
        // A method name fires only where a `#[deprecated]` fn declares it.
        assert!(codes("a.rs", "fn f() { let _ = db.point(3); }").is_empty());
        let src = "#[deprecated]\nfn old() {}\nfn f() { let _ = db.point(3); let _ = t.initial_point(); }";
        assert!(codes("a.rs", src).is_empty());
        // A deprecated non-function item registers no name.
        assert!(deprecated_fns("#[deprecated] pub struct Old; fn Old() {}").is_empty());
    }

    #[test]
    fn trailing_and_leading_allows_suppress_and_get_consumed() {
        let trailing = "fn f(v: &mut Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // clr-audit: allow(CLR102) exercising the API
}";
        assert!(codes("a.rs", trailing).is_empty());
        let leading = "fn f(v: &mut Vec<f64>) {
    // clr-audit: allow(CLR102) exercising the API
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}";
        assert!(codes("a.rs", leading).is_empty());
    }

    #[test]
    fn allows_never_suppress_a_different_code() {
        let src = "fn f(v: &mut Vec<f64>) {
    // clr-audit: allow(CLR103) wrong code named
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}";
        // The partial_cmp still fires, and the allow dangles.
        assert_eq!(codes("a.rs", src), ["CLR108", "CLR102"]);
    }

    #[test]
    fn dangling_reasonless_and_unbalanced_annotations_fire() {
        assert_eq!(
            codes(
                "a.rs",
                "// clr-audit: allow(CLR102) nothing here\nfn f() {}"
            ),
            ["CLR108"]
        );
        assert_eq!(
            codes("a.rs", "// clr-audit: allow(CLR102)\nfn f() {}"),
            ["CLR109"]
        );
        assert_eq!(
            codes(
                "a.rs",
                "// clr-audit: nondet(begin) forever open\nfn f() {}"
            ),
            ["CLR110"]
        );
        assert_eq!(
            codes("a.rs", "// clr-audit: nondet(end)\nfn f() {}"),
            ["CLR110"]
        );
    }

    #[test]
    fn hazards_inside_literals_and_docs_never_fire() {
        let src = r#"
/// Uses `partial_cmp` and `Instant::now()` — documentation only.
fn f() { let s = "HashMap::new() thread_rng()"; let _ = s; }
"#;
        assert!(codes("a.rs", src).is_empty());
    }
}
