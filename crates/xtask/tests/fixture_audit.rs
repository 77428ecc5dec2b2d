//! End-to-end audit over the committed fixture workspace in
//! `tests/fixtures/ws/`, which seeds one R2 and one R4 violation, each
//! with a suppressed twin. Asserts rule ids, `file:line` coordinates, and
//! process exit codes of the `xtask` binary.

// Test code: panics are acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::{run_audit_report, Finding, RuleId};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn findings() -> Vec<Finding> {
    run_audit_report(&fixture_root())
        .expect("fixture workspace is readable")
        .findings
}

/// Whether a finding of `rule` at `line` exists in a file whose
/// normalized path ends with `suffix`.
fn has(findings: &[Finding], rule: RuleId, suffix: &str, line: usize) -> bool {
    findings.iter().any(|f| {
        f.rule == rule
            && f.line == line
            && f.file
                .to_string_lossy()
                .replace('\\', "/")
                .ends_with(suffix)
    })
}

#[test]
fn every_rule_fires_at_its_seeded_location() {
    let f = findings();
    assert!(
        has(&f, RuleId::NanSafety, "queueing/src/lib.rs", 5),
        "R2 missing: {f:?}"
    );
    assert!(
        has(&f, RuleId::Layering, "queueing/Cargo.toml", 5),
        "R4 missing: {f:?}"
    );
}

#[test]
fn seeded_violations_are_exactly_the_expected_set() {
    // One R2 and one R4 finding and nothing else: the suppressed twins,
    // the `#[cfg(test)]` region and the clean `core` fixture stay silent,
    // and R6–R9 have no seeds in this tree — theirs live in
    // `tests/fixtures/semantic/`.
    let f = findings();
    assert_eq!(f.len(), 2, "unexpected findings: {f:?}");
    for rule in RuleId::ALL {
        let seeded = matches!(rule, RuleId::NanSafety | RuleId::Layering);
        assert_eq!(
            f.iter().filter(|x| x.rule == rule).count(),
            usize::from(seeded),
            "finding count for {rule}: {f:?}"
        );
    }
}

#[test]
fn allow_marker_suppresses_exactly_one_line_finding() {
    // `nan_unsafe` (line 5) and `suppressed` (line 11) contain the same
    // comparison; only the unsuppressed one may be reported.
    let f = findings();
    let r2: Vec<_> = f.iter().filter(|x| x.rule == RuleId::NanSafety).collect();
    assert_eq!(r2.len(), 1, "{r2:?}");
    assert_eq!(r2[0].line, 5);
}

#[test]
fn toml_allow_and_dev_dependencies_are_exempt() {
    // core/Cargo.toml carries an upward edge under an allow marker and the
    // same edge again under [dev-dependencies]: neither may be reported.
    let f = findings();
    assert!(
        !f.iter().any(|x| {
            x.rule == RuleId::Layering
                && x.file
                    .to_string_lossy()
                    .replace('\\', "/")
                    .ends_with("core/Cargo.toml")
        }),
        "{f:?}"
    );
}

#[test]
fn test_region_is_exempt() {
    // The fixture's #[cfg(test)] module (lines 14+) compares NaN-unsafely;
    // none of it may be reported.
    let f = findings();
    assert!(
        !f.iter().any(|x| x.line >= 14),
        "test-region finding leaked: {f:?}"
    );
}

#[test]
fn binary_exits_nonzero_on_fixture_tree_and_reports_coordinates() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture_root())
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("queueing/src/lib.rs:5: [R2 nan-safety]"),
        "{stdout}"
    );
    assert!(stdout.contains("2 violation(s)"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    // `fixtures/clean` holds a single violation-free crate.
    let clean_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(&clean_root)
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("audit: clean"),
        "{out:?}"
    );
}

#[test]
fn binary_exits_two_on_unusable_root() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root", "/nonexistent/definitely-not-a-workspace"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
