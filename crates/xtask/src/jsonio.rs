//! The JSON report `xtask audit --out` writes and baseline diffing for
//! the CI gate.
//!
//! The document is written and read by the workspace's
//! [`chamulteon_obs::json`] codec and is deliberately boring: fixed key
//! order, sorted records, no timestamps, `\n` line endings — two
//! consecutive runs over the same tree produce byte-identical output,
//! which is what lets CI compare `audit.json` against the committed
//! baseline with a plain equality check on the diff keys.
//!
//! The baseline comparison keys findings on `(rule, file, message)` as a
//! *multiset*, not on line numbers: editing a file renumbers every
//! finding below the edit, and a gate that cried wolf on pure line drift
//! would be deleted within a week. A finding is "new" only when its key
//! occurs more often in the current run than in the baseline.

use crate::{AuditReport, Finding};
use chamulteon_obs::json::{self, Writer};

/// Schema identifier embedded in the output; bump on breaking changes.
pub const SCHEMA: &str = "chamulteon-audit/v1";

/// Serializes a report to the stable JSON schema.
pub fn report_to_json(report: &AuditReport) -> String {
    let mut out = String::with_capacity(1024);
    let mut w = Writer::indented(&mut out);
    w.str("schema", SCHEMA)
        .begin_object("counts")
        .usize("findings", report.findings.len())
        .usize("ledger", report.ledger.len())
        .end_object()
        .begin_array("findings");
    for f in &report.findings {
        w.push_object()
            .str("rule", f.rule.id())
            .str("name", f.rule.name())
            .str("file", &f.file.display().to_string())
            .usize("line", f.line)
            .str("message", &f.message)
            .end_object();
    }
    w.end_array().begin_array("ledger");
    for s in &report.ledger {
        w.push_object()
            .str("rule", s.rule.id())
            .str("file", &s.file.display().to_string())
            .usize("line", s.line)
            .str("reason", &s.reason)
            .end_object();
    }
    w.end_array();
    w.finish();
    out.push('\n');
    out
}

/// A finding's identity for baseline comparison: `(rule id, file,
/// message)`. Line numbers are deliberately absent — see the module docs.
pub type BaselineKey = (String, String, String);

/// The baseline key of one finding.
pub fn finding_key(f: &Finding) -> BaselineKey {
    (
        f.rule.id().to_owned(),
        f.file.display().to_string(),
        f.message.clone(),
    )
}

/// Parses a baseline file (itself produced by `--write-baseline`) into
/// its finding keys.
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem; CI treats
/// that as an audit error (exit 2), not a regression.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineKey>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let root = doc.as_object().ok_or("baseline root is not an object")?;
    let schema = root.str("schema").map_err(|e| e.to_string())?;
    if schema != SCHEMA {
        return Err(format!("baseline schema `{schema}` is not `{SCHEMA}`"));
    }
    let findings = root.array("findings").map_err(|e| e.to_string())?;
    let mut keys = Vec::with_capacity(findings.len());
    for entry in findings {
        let fields = entry
            .as_object()
            .ok_or("baseline finding is not an object")?;
        let get = |name: &str| {
            fields
                .str(name)
                .map(str::to_owned)
                .map_err(|e| e.to_string())
        };
        keys.push((get("rule")?, get("file")?, get("message")?));
    }
    Ok(keys)
}

/// The findings not covered by the baseline: each `(rule, file, message)`
/// key may appear in the result only as many times as it *exceeds* its
/// baseline count.
pub fn new_findings<'a>(findings: &'a [Finding], baseline: &[BaselineKey]) -> Vec<&'a Finding> {
    use std::collections::BTreeMap;
    let mut budget: BTreeMap<&BaselineKey, usize> = BTreeMap::new();
    for key in baseline {
        *budget.entry(key).or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    for finding in findings {
        let key = finding_key(finding);
        match budget.get_mut(&key) {
            Some(count) if *count > 0 => *count -= 1,
            _ => fresh.push(finding),
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Suppression;
    use crate::RuleId;
    use std::path::PathBuf;

    fn finding(rule: RuleId, file: &str, line: usize, message: &str) -> Finding {
        Finding {
            rule,
            file: PathBuf::from(file),
            line,
            message: message.to_owned(),
        }
    }

    fn sample_report() -> AuditReport {
        AuditReport {
            findings: vec![
                finding(RuleId::NanSafety, "crates/a/src/lib.rs", 3, "no \"unwrap\""),
                finding(RuleId::Determinism, "crates/b/src/lib.rs", 9, "hash order"),
            ],
            ledger: vec![Suppression {
                rule: RuleId::Concurrency,
                file: PathBuf::from("crates/c/src/lib.rs"),
                line: 4,
                reason: "pool-internal".to_owned(),
            }],
        }
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        let json = report_to_json(&sample_report());
        let keys = parse_baseline(&json).expect("parse");
        assert_eq!(
            keys,
            vec![
                (
                    "R2".to_owned(),
                    "crates/a/src/lib.rs".to_owned(),
                    "no \"unwrap\"".to_owned()
                ),
                (
                    "R6".to_owned(),
                    "crates/b/src/lib.rs".to_owned(),
                    "hash order".to_owned()
                ),
            ]
        );
    }

    #[test]
    fn report_fields_read_back_through_the_shared_codec() {
        let report = sample_report();
        let text = report_to_json(&report);
        let doc = json::parse(&text).expect("report parses");
        let root = doc.as_object().expect("object root");
        assert_eq!(root.str("schema"), Ok(SCHEMA));
        let counts = root.object("counts").expect("counts");
        assert_eq!(counts.usize("findings"), Ok(2));
        assert_eq!(counts.usize("ledger"), Ok(1));
        let findings = root.array("findings").expect("findings");
        for (value, f) in findings.iter().zip(&report.findings) {
            let fields = value.as_object().expect("finding object");
            assert_eq!(fields.str("rule"), Ok(f.rule.id()));
            assert_eq!(fields.str("name"), Ok(f.rule.name()));
            assert_eq!(fields.str("file"), Ok(f.file.to_str().expect("utf-8")));
            assert_eq!(fields.usize("line"), Ok(f.line));
            assert_eq!(fields.str("message"), Ok(f.message.as_str()));
        }
        let ledger = root.array("ledger").expect("ledger");
        let entry = ledger[0].as_object().expect("ledger object");
        assert_eq!(entry.str("rule"), Ok("R8"));
        assert_eq!(entry.str("file"), Ok("crates/c/src/lib.rs"));
        assert_eq!(entry.usize("line"), Ok(4));
        assert_eq!(entry.str("reason"), Ok("pool-internal"));
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(
            report_to_json(&sample_report()),
            report_to_json(&sample_report())
        );
        let empty = report_to_json(&AuditReport::default());
        assert!(empty.contains("\"findings\": []"), "{empty}");
        assert!(empty.contains("\"schema\": \"chamulteon-audit/v1\""));
    }

    #[test]
    fn baseline_diff_is_a_multiset() {
        let report = sample_report();
        let baseline: Vec<BaselineKey> = report.findings.iter().map(finding_key).collect();
        assert!(new_findings(&report.findings, &baseline).is_empty());

        // A second occurrence of an already-baselined key is new.
        let mut doubled = report.findings.clone();
        doubled.push(finding(
            RuleId::NanSafety,
            "crates/a/src/lib.rs",
            30,
            "no \"unwrap\"",
        ));
        let fresh = new_findings(&doubled, &baseline);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 30);

        // Line drift alone is not new.
        let mut drifted = report.findings.clone();
        drifted[0].line = 300;
        assert!(new_findings(&drifted, &baseline).is_empty());
    }

    #[test]
    fn baseline_schema_mismatch_is_an_error() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"other/v2\", \"findings\": []}").is_err());
        let minimal = format!("{{\"schema\": {:?}, \"findings\": []}}", SCHEMA);
        assert_eq!(parse_baseline(&minimal).expect("ok"), vec![]);
    }
}
