//! Reporting for runs under injected faults: how much worse a scaler got,
//! and how often it ran degraded.
//!
//! This module is plain data + rendering only — the fault classes and the
//! degradation machinery live upstream (in the simulator and the core
//! controller); the experiment harness fills in the numbers. Keeping the
//! report free of those types preserves the layering (metrics depends on
//! neither the simulator nor the controller).

/// One scaler's behaviour under one fault class, next to its clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Auto-scaler name (table row).
    pub scaler: String,
    /// Human-readable fault class name ("drop-samples", …).
    pub fault_class: String,
    /// SLO violations in percent on the fault-free run.
    pub clean_slo_violations: f64,
    /// SLO violations in percent with faults injected.
    pub faulted_slo_violations: f64,
    /// Instance-hours consumed on the fault-free run.
    pub clean_instance_hours: f64,
    /// Instance-hours consumed with faults injected.
    pub faulted_instance_hours: f64,
    /// Number of faults the simulator actually injected.
    pub faults_injected: usize,
    /// Number of degraded decisions the scaler logged (ladder rungs taken).
    pub degraded_decisions: usize,
}

impl RobustnessReport {
    /// How many percentage points of SLO violations the faults cost
    /// (negative when the faulted run happened to do better).
    pub fn slo_delta(&self) -> f64 {
        self.faulted_slo_violations - self.clean_slo_violations
    }
}

/// Renders a robustness table: one row per scaler, columns for the clean
/// and faulted SLO violations, the delta, injected fault count and the
/// degraded-decision count.
pub fn render_robustness_table(title: &str, reports: &[RobustnessReport]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>7} {:>7} {:>9}\n",
        "Scaler", "clean-SLO", "fault-SLO", "delta", "faults", "degraded"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<14} {:>9} {:>9} {:>7} {:>7} {:>9}\n",
            r.scaler,
            format!("{:.1}%", r.clean_slo_violations),
            format!("{:.1}%", r.faulted_slo_violations),
            format!("{:+.1}", r.slo_delta()),
            r.faults_injected,
            r.degraded_decisions,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RobustnessReport {
        RobustnessReport {
            scaler: "chamulteon".into(),
            fault_class: "drop-samples".into(),
            clean_slo_violations: 5.0,
            faulted_slo_violations: 8.5,
            clean_instance_hours: 10.0,
            faulted_instance_hours: 11.0,
            faults_injected: 12,
            degraded_decisions: 9,
        }
    }

    #[test]
    fn deltas_are_faulted_minus_clean() {
        let r = report();
        assert!((r.slo_delta() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn table_contains_all_columns() {
        let table = render_robustness_table("Faults: drop-samples", &[report()]);
        for needle in [
            "Faults: drop-samples",
            "chamulteon",
            "clean-SLO",
            "fault-SLO",
            "5.0%",
            "8.5%",
            "+3.5",
            "12",
            "9",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }
}
