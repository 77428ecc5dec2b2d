//! Machine-readable verdicts for the conformance oracles.

use chamulteon_obs::json::Writer;

/// The outcome of one oracle's differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Stable oracle identifier (`"algorithm1"`, `"fox-ledger"`,
    /// `"mmn-microsim"`).
    pub oracle: String,
    /// Number of differential cases executed.
    pub cases: u64,
    /// One human-readable line per disagreement; empty means conformance.
    pub mismatches: Vec<String>,
}

impl OracleReport {
    /// Creates an empty report for `oracle`.
    pub fn new(oracle: &str) -> Self {
        OracleReport {
            oracle: oracle.to_string(),
            cases: 0,
            mismatches: Vec::new(),
        }
    }

    /// Whether the oracle found no disagreement.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Records one executed case.
    pub fn count_case(&mut self) {
        self.cases = self.cases.saturating_add(1);
    }

    /// Records a disagreement.
    pub fn mismatch(&mut self, description: String) {
        self.mismatches.push(description);
    }
}

/// The combined verdict of all oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// Per-oracle outcomes, in execution order.
    pub oracles: Vec<OracleReport>,
}

impl ConformanceReport {
    /// Whether every oracle agreed with the implementation everywhere.
    pub fn passed(&self) -> bool {
        self.oracles.iter().all(OracleReport::passed)
    }

    /// Total cases across all oracles.
    pub fn total_cases(&self) -> u64 {
        self.oracles.iter().map(|o| o.cases).sum()
    }

    /// Total disagreements across all oracles.
    pub fn total_mismatches(&self) -> usize {
        self.oracles.iter().map(|o| o.mismatches.len()).sum()
    }

    /// Serializes the verdict as an indented JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::indented(&mut out);
        w.bool("passed", self.passed())
            .u64("total_cases", self.total_cases())
            .usize("total_mismatches", self.total_mismatches())
            .begin_array("oracles");
        for oracle in &self.oracles {
            w.push_object()
                .str("oracle", &oracle.oracle)
                .u64("cases", oracle.cases)
                .bool("passed", oracle.passed())
                .begin_array("mismatches");
            for m in &oracle.mismatches {
                w.push_str(m);
            }
            w.end_array().end_object();
        }
        w.end_array();
        w.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reports_pass() {
        let report = ConformanceReport {
            oracles: vec![OracleReport::new("a"), OracleReport::new("b")],
        };
        assert!(report.passed());
        assert_eq!(report.total_cases(), 0);
        assert_eq!(report.total_mismatches(), 0);
    }

    #[test]
    fn mismatches_fail_the_run_and_serialize() {
        let mut oracle = OracleReport::new("algorithm1");
        oracle.count_case();
        oracle.mismatch("case 7: expected [2], got [3] \"quoted\"".to_string());
        let report = ConformanceReport {
            oracles: vec![oracle],
        };
        assert!(!report.passed());
        let json = report.to_json();
        assert!(json.contains("\"passed\": false"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"total_cases\": 1"), "{json}");
    }

    #[test]
    fn report_fields_read_back_through_the_shared_codec() {
        let mut oracle = OracleReport::new("fox-ledger");
        oracle.count_case();
        oracle.count_case();
        oracle.mismatch("case 1: \"billed\" 3600 vs\t3660\n".to_string());
        let report = ConformanceReport {
            oracles: vec![oracle, OracleReport::new("algorithm1")],
        };
        let text = report.to_json();
        let doc = chamulteon_obs::json::parse(&text).expect("report parses");
        let root = doc.as_object().expect("object root");
        assert_eq!(root.bool("passed"), Ok(false));
        assert_eq!(root.u64("total_cases"), Ok(2));
        assert_eq!(root.usize("total_mismatches"), Ok(1));
        let oracles = root.array("oracles").expect("oracles");
        assert_eq!(oracles.len(), 2);
        for (value, oracle) in oracles.iter().zip(&report.oracles) {
            let fields = value.as_object().expect("oracle object");
            assert_eq!(fields.str("oracle"), Ok(oracle.oracle.as_str()));
            assert_eq!(fields.u64("cases"), Ok(oracle.cases));
            assert_eq!(fields.bool("passed"), Ok(oracle.passed()));
            let mismatches: Vec<&str> = fields
                .array("mismatches")
                .expect("mismatches")
                .iter()
                .map(|m| m.as_str().expect("string"))
                .collect();
            assert_eq!(mismatches, oracle.mismatches);
        }
    }
}
