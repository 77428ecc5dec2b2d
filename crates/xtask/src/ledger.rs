//! R9 — the suppression ledger.
//!
//! Every audit exemption must be *visible and counted*: an
//! `audit:allow(<rule>)` marker with a mandatory justification. Two
//! spellings are accepted:
//!
//! ```text
//! // audit:allow(nan-safety): both operands are checked finite above
//! // audit: allow(R6, "iteration feeds a BTreeMap two statements later")
//! ```
//!
//! This module parses the markers, collects the well-formed ones into the
//! reported [`Suppression`] ledger, and emits R9 findings for the rest: a
//! marker with no reason, an empty reason, or an unknown rule name is
//! itself a violation — a typo in a rule name would otherwise silently
//! suppress nothing while looking like it suppressed something.
//!
//! R9 findings are not themselves suppressible: a justification-free
//! exemption cannot excuse its own lack of justification.

use crate::{Finding, RuleId};
use std::path::Path;

/// Comment syntax of the file being scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommentStyle {
    /// `//` comments (Rust sources).
    Rust,
    /// `#` comments (TOML manifests).
    Toml,
}

impl CommentStyle {
    fn starts_before(self, line: &str, pos: usize) -> bool {
        let prefix = &line[..pos];
        match self {
            CommentStyle::Rust => prefix.contains("//"),
            CommentStyle::Toml => prefix.contains('#'),
        }
    }
}

/// One parsed `audit:allow` marker, before validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowMarker {
    /// The rule argument as written (`R6`, `determinism`, …).
    pub rule_text: String,
    /// The resolved rule, when `rule_text` names one.
    pub rule: Option<RuleId>,
    /// The justification, trimmed; `None` when absent or empty.
    pub reason: Option<String>,
}

/// One validated ledger entry: a well-formed exemption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The suppressed rule.
    pub rule: RuleId,
    /// File carrying the marker, relative to the workspace root.
    pub file: std::path::PathBuf,
    /// 1-based line of the marker.
    pub line: usize,
    /// The mandatory justification.
    pub reason: String,
}

/// Parses every `audit:allow` marker on one line. Markers must appear in
/// comment position (after `//` or `#`, per `style`).
pub fn parse_markers(line: &str, style: CommentStyle) -> Vec<AllowMarker> {
    let mut markers = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = line[search_from..].find("audit:") {
        let at = search_from + rel;
        search_from = at + "audit:".len();
        if !style.starts_before(line, at) {
            continue;
        }
        let rest = line[at + "audit:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some((inside, after)) = split_at_closing_paren(args) else {
            continue;
        };
        // Inline form: `allow(R6, "reason")`.
        let (rule_text, mut reason) = match split_top_level_comma(inside) {
            Some((rule, arg)) => (rule.trim(), Some(unquote(arg.trim()).to_owned())),
            None => (inside.trim(), None),
        };
        // Trailing form: `allow(R6): reason`.
        if reason.is_none() {
            if let Some(tail) = after.trim_start().strip_prefix(':') {
                reason = Some(tail.trim().to_owned());
            }
        }
        let reason = reason
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty());
        markers.push(AllowMarker {
            rule_text: rule_text.to_owned(),
            rule: RuleId::parse(rule_text),
            reason,
        });
    }
    markers
}

/// Whether any marker on `line` suppresses `rule` (reason quality is
/// enforced separately, by R9).
pub fn line_allows(line: &str, style: CommentStyle, rule: RuleId) -> bool {
    parse_markers(line, style)
        .iter()
        .any(|m| m.rule == Some(rule))
}

/// Scans one file's lines for markers, returning the R9 findings for
/// malformed ones and the ledger entries for well-formed ones.
pub fn scan_file(
    rel_path: &Path,
    lines: &[&str],
    style: CommentStyle,
) -> (Vec<Finding>, Vec<Suppression>) {
    let mut findings = Vec::new();
    let mut ledger = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for marker in parse_markers(line, style) {
            let lineno = idx + 1;
            match (marker.rule, marker.reason) {
                (Some(rule), Some(reason)) => ledger.push(Suppression {
                    rule,
                    file: rel_path.to_path_buf(),
                    line: lineno,
                    reason,
                }),
                (None, _) => findings.push(Finding {
                    rule: RuleId::SuppressionLedger,
                    file: rel_path.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "`audit:allow({})` names no known rule: the marker suppresses nothing",
                        marker.rule_text
                    ),
                }),
                (Some(rule), None) => findings.push(Finding {
                    rule: RuleId::SuppressionLedger,
                    file: rel_path.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "`audit:allow({})` carries no justification: every exemption needs a \
                         reason in the ledger",
                        rule.id()
                    ),
                }),
            }
        }
    }
    (findings, ledger)
}

/// Splits `args` (the text after `allow(`) at the matching `)`,
/// respecting a double-quoted segment with backslash escapes. Returns
/// `(inside, after)`.
fn split_at_closing_paren(args: &str) -> Option<(&str, &str)> {
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0u32;
    for (i, c) in args.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '(' if !in_string => depth += 1,
            ')' if !in_string => {
                if depth == 0 {
                    return Some((&args[..i], &args[i + 1..]));
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    None
}

/// Splits at the first top-level (outside quotes) comma.
fn split_top_level_comma(inside: &str) -> Option<(&str, &str)> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in inside.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => return Some((&inside[..i], &inside[i + 1..])),
            _ => {}
        }
    }
    None
}

/// Strips one layer of double quotes, if present.
fn unquote(text: &str) -> &str {
    text.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn rust_markers(line: &str) -> Vec<AllowMarker> {
        parse_markers(line, CommentStyle::Rust)
    }

    #[test]
    fn legacy_syntax_with_trailing_reason() {
        let m =
            rust_markers("let o = a.partial_cmp(&b).unwrap(); // audit:allow(nan-safety): finite");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].rule, Some(RuleId::NanSafety));
        assert_eq!(m[0].reason.as_deref(), Some("finite"));
    }

    #[test]
    fn inline_syntax_with_quoted_reason() {
        let m = rust_markers("// audit: allow(R6, \"result feeds a BTreeMap (sorted) merge\")");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].rule, Some(RuleId::Determinism));
        assert_eq!(
            m[0].reason.as_deref(),
            Some("result feeds a BTreeMap (sorted) merge")
        );
    }

    #[test]
    fn missing_and_empty_reasons_are_detected() {
        for line in [
            "// audit:allow(R6)",
            "// audit:allow(determinism):   ",
            "// audit: allow(R8, \"\")",
        ] {
            let m = rust_markers(line);
            assert_eq!(m.len(), 1, "{line}");
            assert!(m[0].rule.is_some(), "{line}");
            assert_eq!(m[0].reason, None, "{line}");
        }
    }

    #[test]
    fn unknown_rules_are_preserved_verbatim() {
        let m = rust_markers("// audit:allow(R42): no such rule");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].rule, None);
        assert_eq!(m[0].rule_text, "R42");
    }

    #[test]
    fn markers_require_comment_position() {
        assert!(rust_markers("let s = \"audit:allow(R6): nope\";").is_empty());
        assert_eq!(
            parse_markers("# audit:allow(layering): fixture", CommentStyle::Toml).len(),
            1
        );
        assert!(parse_markers("audit:allow(layering): x", CommentStyle::Toml).is_empty());
    }

    #[test]
    fn scan_file_splits_findings_from_ledger() {
        let lines = [
            "// audit:allow(R2): inputs checked finite",
            "// audit:allow(R6)",
            "// audit:allow(nonsense): reason present",
            "let ok = 1;",
        ];
        let (findings, ledger) = scan_file(
            &PathBuf::from("crates/x/src/lib.rs"),
            &lines,
            CommentStyle::Rust,
        );
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].rule, RuleId::NanSafety);
        assert_eq!(ledger[0].line, 1);
        assert_eq!(ledger[0].reason, "inputs checked finite");
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == RuleId::SuppressionLedger));
        assert!(findings[0].message.contains("no justification"));
        assert!(findings[1].message.contains("no known rule"));
    }

    #[test]
    fn line_allows_accepts_both_syntaxes() {
        assert!(line_allows(
            "// audit:allow(nan-safety): why",
            CommentStyle::Rust,
            RuleId::NanSafety
        ));
        assert!(line_allows(
            "// audit: allow(R2, \"why\")",
            CommentStyle::Rust,
            RuleId::NanSafety
        ));
        // Reasonless markers still suppress; R9 reports them separately,
        // so the diagnostic points at the real problem (the missing
        // reason), not a phantom unsuppressed finding.
        assert!(line_allows(
            "// audit:allow(R2)",
            CommentStyle::Rust,
            RuleId::NanSafety
        ));
        assert!(!line_allows(
            "// audit:allow(R2): why",
            CommentStyle::Rust,
            RuleId::Determinism
        ));
    }
}
