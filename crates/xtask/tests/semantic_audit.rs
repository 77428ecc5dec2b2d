//! End-to-end audit over the committed fixture workspace in
//! `tests/fixtures/semantic/`, which seeds violating *and* conforming
//! cases for the semantic rule families (R6 determinism, R7 float-order,
//! R8 concurrency, R9 suppression ledger), plus the JSON report's
//! byte-stability and the baseline-diff CI workflow.

// Test code: panics are acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::{run_audit_report, AuditReport, RuleId};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

fn report() -> AuditReport {
    run_audit_report(&fixture_root()).expect("fixture workspace is readable")
}

fn normalized(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

#[test]
fn semantic_findings_are_exactly_the_seeded_set() {
    let rep = report();
    let got: Vec<(RuleId, String, usize)> = rep
        .findings
        .iter()
        .map(|f| (f.rule, normalized(&f.file), f.line))
        .collect();
    let expected: Vec<(RuleId, &str, usize)> = vec![
        (RuleId::FloatOrder, "crates/bench/src/experiment.rs", 9),
        (RuleId::FloatOrder, "crates/bench/src/experiment.rs", 14),
        (RuleId::FloatOrder, "crates/bench/src/experiment.rs", 20),
        (RuleId::Determinism, "crates/core/src/determinism.rs", 8),
        (RuleId::Determinism, "crates/core/src/determinism.rs", 14),
        (RuleId::Determinism, "crates/core/src/determinism.rs", 22),
        (RuleId::Determinism, "crates/core/src/determinism.rs", 28),
        (RuleId::Determinism, "crates/core/src/determinism.rs", 33),
        (RuleId::SuppressionLedger, "crates/core/src/markers.rs", 7),
        (RuleId::SuppressionLedger, "crates/core/src/markers.rs", 13),
        (RuleId::SuppressionLedger, "crates/core/src/markers.rs", 18),
        (RuleId::Concurrency, "crates/core/src/sync_discipline.rs", 4),
        (
            RuleId::Concurrency,
            "crates/core/src/sync_discipline.rs",
            12,
        ),
        (
            RuleId::Concurrency,
            "crates/core/src/sync_discipline.rs",
            18,
        ),
        (
            RuleId::Concurrency,
            "crates/core/src/sync_discipline.rs",
            24,
        ),
    ];
    let expected: Vec<(RuleId, String, usize)> = expected
        .into_iter()
        .map(|(r, f, l)| (r, f.to_owned(), l))
        .collect();
    assert_eq!(got, expected, "finding set drifted: {:#?}", rep.findings);
}

#[test]
fn conforming_cases_and_whitelist_stay_silent() {
    let rep = report();
    // The whitelisted pool copy uses Mutex/atomics/thread::scope freely.
    assert!(
        !rep.findings
            .iter()
            .any(|f| normalized(&f.file).ends_with("bench/src/pool.rs")),
        "whitelist leak: {:#?}",
        rep.findings
    );
    // Conforming determinism cases: nothing after the seeded block
    // (normalized collects, count reduction, collect-then-sort,
    // suppressed twin) may fire.
    assert!(
        !rep.findings
            .iter()
            .any(|f| normalized(&f.file).ends_with("determinism.rs") && f.line > 33),
        "conforming determinism case flagged: {:#?}",
        rep.findings
    );
    // R7 subsumption: the hash-ordered `.sum`/`.fold` statements yield
    // float-order findings only, not a duplicate R6 each.
    assert!(
        !rep.findings.iter().any(
            |f| normalized(&f.file).ends_with("experiment.rs") && f.rule == RuleId::Determinism
        ),
        "R7 should subsume R6 on reduction statements: {:#?}",
        rep.findings
    );
    // The reasonless marker still suppresses its R2 target; R9 reports
    // the marker itself instead.
    assert!(
        !rep.findings
            .iter()
            .any(|f| normalized(&f.file).ends_with("markers.rs") && f.rule == RuleId::NanSafety),
        "reasonless marker must still suppress: {:#?}",
        rep.findings
    );
}

#[test]
fn ledger_collects_every_wellformed_marker() {
    let rep = report();
    let got: Vec<(RuleId, String, usize, &str)> = rep
        .ledger
        .iter()
        .map(|s| (s.rule, normalized(&s.file), s.line, s.reason.as_str()))
        .collect();
    let expected = vec![
        (
            RuleId::FloatOrder,
            "crates/bench/src/experiment.rs".to_owned(),
            42,
            "fixture pins suppression; the bound is order-insensitive",
        ),
        (
            RuleId::Layering,
            "crates/core/Cargo.toml".to_owned(),
            4,
            "fixture pins TOML markers landing in the ledger",
        ),
        (
            RuleId::Determinism,
            "crates/core/src/determinism.rs".to_owned(),
            55,
            "fixture pins suppression; caller sorts before use",
        ),
        (
            RuleId::NanSafety,
            "crates/core/src/markers.rs".to_owned(),
            23,
            "fixture pins the legacy marker syntax",
        ),
        (
            RuleId::Determinism,
            "crates/core/src/markers.rs".to_owned(),
            29,
            "fixture pins the inline marker syntax",
        ),
        (
            RuleId::Concurrency,
            "crates/core/src/sync_discipline.rs".to_owned(),
            7,
            "fixture pins suppression of a sync import",
        ),
        (
            RuleId::Concurrency,
            "crates/core/src/sync_discipline.rs".to_owned(),
            34,
            "fixture exercises body-side use of a flagged import",
        ),
    ];
    assert_eq!(got, expected, "ledger drifted: {:#?}", rep.ledger);
}

fn run_audit_binary(args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
    cmd.arg("audit").args(["--root"]).arg(fixture_root());
    cmd.args(args);
    cmd.output().expect("xtask binary runs")
}

#[test]
fn json_output_is_byte_stable_across_runs() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("semantic-json");
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let mut reports = Vec::new();
    for name in ["first.json", "second.json"] {
        let path = tmp.join(name);
        let out = run_audit_binary(&["--out", path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        reports.push(std::fs::read(&path).expect("report written"));
    }
    assert!(!reports[0].is_empty());
    assert_eq!(reports[0], reports[1], "JSON output must be byte-stable");
    let text = String::from_utf8(reports.swap_remove(0)).expect("valid UTF-8");
    assert!(text.contains("\"schema\": \"chamulteon-audit/v1\""));
    // The report parses as its own baseline with the full finding set.
    let keys = xtask::jsonio::parse_baseline(&text).expect("self-parse");
    assert_eq!(keys.len(), 15);
}

#[test]
fn baseline_gate_tolerates_known_findings_and_fails_on_new() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("semantic-baseline");
    std::fs::create_dir_all(&tmp).expect("tmp dir");

    // Capture the current report as the baseline: the gate passes.
    let current = tmp.join("audit.json");
    let out = run_audit_binary(&["--out", current.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let gated = run_audit_binary(&["--baseline", current.to_str().expect("utf-8 path")]);
    assert_eq!(
        gated.status.code(),
        Some(0),
        "no new findings vs own baseline: {gated:?}"
    );
    let stdout = String::from_utf8_lossy(&gated.stdout);
    assert!(stdout.contains("15 finding(s), 0 new"), "{stdout}");

    // An empty baseline makes every finding new: the gate fails.
    let empty = tmp.join("empty.json");
    std::fs::write(
        &empty,
        "{\"schema\": \"chamulteon-audit/v1\", \"findings\": []}\n",
    )
    .expect("write empty baseline");
    let out = run_audit_binary(&["--baseline", empty.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("15 new"),
        "{out:?}"
    );

    // A malformed baseline is an audit error, not a pass.
    let bad = tmp.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"other/v9\"}").expect("write bad baseline");
    let out = run_audit_binary(&["--baseline", bad.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn write_baseline_then_gate_round_trips_on_a_clean_tree() {
    // Use a scratch copy of the clean fixture so `--write-baseline` never
    // touches a committed tree.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("write-baseline-ws");
    let src_dir = tmp.join("crates/solo/src");
    std::fs::create_dir_all(&src_dir).expect("scratch workspace");
    std::fs::write(
        tmp.join("crates/solo/Cargo.toml"),
        "[package]\nname = \"solo\"\n",
    )
    .expect("manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "//! Scratch crate.\n\n/// Doubles, panic-free.\npub fn double(x: u32) -> u32 {\n    x.saturating_mul(2)\n}\n",
    )
    .expect("source");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(&tmp)
        .arg("--write-baseline")
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let baseline = tmp.join("audit-baseline.json");
    assert!(baseline.is_file(), "baseline written");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(&tmp)
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
