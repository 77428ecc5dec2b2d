//! The paper's published numbers (Tables II–V), for side-by-side
//! comparison in bench output and EXPERIMENTS.md.
//!
//! Only the *shape* is expected to match our measurements (who wins, by
//! roughly what factor): the substrate here is a simulator, not the
//! authors' CloudStack/Kubernetes testbed.

use crate::drivers::ScalerKind;
use crate::experiment::{run_experiment, ExperimentSpec};
use chamulteon_metrics::ScalerReport;

/// One row set of a published table: scaler name and the seven reported
/// values (θ_U, θ_O, τ_U, τ_O, ς, SLO, Apdex), all in percent.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Scaler column name.
    pub scaler: &'static str,
    /// θ_U, θ_O, τ_U, τ_O, ς, SLO violations, Apdex.
    pub values: [f64; 7],
}

/// Paper Table II — Wikipedia trace, Docker.
pub const TABLE2: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [3.7, 29.3, 14.9, 84.4, 52.9, 6.2, 77.7],
    },
    PaperRow {
        scaler: "adapt",
        values: [12.6, 10.2, 34.7, 54.9, 50.6, 24.2, 51.6],
    },
    PaperRow {
        scaler: "hist",
        values: [7.0, 32.1, 25.6, 69.4, 58.1, 12.5, 67.8],
    },
    PaperRow {
        scaler: "reg",
        values: [15.3, 8.8, 52.2, 41.2, 52.9, 37.3, 31.1],
    },
    PaperRow {
        scaler: "react",
        values: [5.3, 13.1, 23.6, 69.7, 50.3, 11.2, 72.8],
    },
];

/// Paper Table III — Wikipedia trace, VM.
pub const TABLE3: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [0.9, 15.6, 3.0, 60.6, 37.0, 2.0, 83.2],
    },
    PaperRow {
        scaler: "adapt",
        values: [9.7, 6.0, 31.0, 15.7, 34.9, 19.1, 30.7],
    },
    PaperRow {
        scaler: "hist",
        values: [4.5, 23.9, 15.7, 38.7, 37.1, 5.1, 69.8],
    },
    PaperRow {
        scaler: "reg",
        values: [7.3, 10.2, 24.0, 24.0, 34.8, 12.6, 50.3],
    },
    PaperRow {
        scaler: "react",
        values: [0.2, 47.5, 0.8, 94.1, 57.8, 1.0, 92.0],
    },
];

/// Paper Table IV — BibSonomy trace, small setup.
pub const TABLE4: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [2.0, 19.1, 7.4, 78.8, 47.4, 7.3, 90.5],
    },
    PaperRow {
        scaler: "adapt",
        values: [9.7, 9.3, 40.6, 40.7, 50.1, 17.8, 79.8],
    },
    PaperRow {
        scaler: "hist",
        values: [5.43, 18.9, 23.8, 61.2, 48.7, 11.9, 84.6],
    },
    PaperRow {
        scaler: "reg",
        values: [11.0, 4.9, 42.7, 32.3, 48.7, 23.4, 71.2],
    },
    PaperRow {
        scaler: "react",
        values: [3.5, 14.9, 14.5, 68.5, 56.1, 10.5, 87.5],
    },
];

/// Paper Table V — BibSonomy trace, large setup.
pub const TABLE5: [PaperRow; 5] = [
    PaperRow {
        scaler: "chamulteon",
        values: [2.4, 19.5, 6.9, 89.7, 51.4, 9.6, 77.1],
    },
    PaperRow {
        scaler: "adapt",
        values: [17.5, 7.7, 50.8, 38.9, 55.8, 33.2, 42.8],
    },
    PaperRow {
        scaler: "hist",
        values: [5.9, 24.6, 28.3, 65.7, 56.1, 12.9, 75.4],
    },
    PaperRow {
        scaler: "reg",
        values: [15.4, 4.6, 55.4, 36.0, 59.1, 36.3, 35.2],
    },
    PaperRow {
        scaler: "react",
        values: [5.6, 9.4, 32.6, 55.1, 53.3, 15.3, 74.1],
    },
];

/// Renders a published table in the same layout as
/// [`chamulteon_metrics::render_table`].
pub fn render_paper_table(title: &str, rows: &[PaperRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = rows
        .iter()
        .map(|r| r.scaler.len())
        .max()
        .unwrap_or(8)
        .max(10);
    out.push_str(&format!("{:<8}", "Metric"));
    for r in rows {
        out.push_str(&format!(" {:>width$}", r.scaler));
    }
    out.push('\n');
    let names = [
        "theta_U", "theta_O", "tau_U", "tau_O", "sigma", "SLO", "Apdex",
    ];
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!("{name:<8}"));
        for r in rows {
            out.push_str(&format!(" {:>width$}", format!("{:.1}%", r.values[i])));
        }
        out.push('\n');
    }
    out
}

/// Runs the paper's five-scaler lineup through one experiment, one cell
/// per worker thread (up to the available cores). Every cell is
/// deterministic in the spec's seed and the pool returns results in
/// input order, so the reports are identical to [`run_lineup_seq`].
pub fn run_lineup(spec: &ExperimentSpec) -> Vec<ScalerReport> {
    run_lineup_with_threads(spec, crate::pool::default_threads())
}

/// [`run_lineup`] with an explicit worker-thread count.
pub fn run_lineup_with_threads(spec: &ExperimentSpec, threads: usize) -> Vec<ScalerReport> {
    let kinds = ScalerKind::paper_lineup();
    crate::pool::parallel_map(&kinds, threads, |_, &k| run_experiment(spec, k).report)
}

/// The sequential reference for [`run_lineup`]: one scaler at a time on
/// the calling thread. Kept as the equivalence oracle for the parallel
/// path.
pub fn run_lineup_seq(spec: &ExperimentSpec) -> Vec<ScalerReport> {
    ScalerKind::paper_lineup()
        .iter()
        .map(|&k| run_experiment(spec, k).report)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_lineup_matches_sequential() {
        let spec = crate::setups::smoke_test();
        assert_eq!(run_lineup_with_threads(&spec, 3), run_lineup_seq(&spec));
    }

    #[test]
    fn paper_tables_have_five_scalers_each() {
        for table in [&TABLE2, &TABLE3, &TABLE4, &TABLE5] {
            assert_eq!(table.len(), 5);
            assert_eq!(table[0].scaler, "chamulteon");
        }
    }

    #[test]
    fn rendered_paper_table_contains_values() {
        let text = render_paper_table("Paper Table II", &TABLE2);
        assert!(text.contains("chamulteon"));
        assert!(text.contains("3.7%"));
        assert!(text.contains("77.7%"));
        assert!(text.contains("sigma"));
    }

    #[test]
    fn paper_findings_encoded_correctly() {
        // §V-D finding 1: Chamulteon has the best (lowest) SLO violations
        // in 3 of 4 experiments (all but Table III where React wins).
        for table in [&TABLE2, &TABLE4, &TABLE5] {
            let chamulteon_slo = table[0].values[5];
            for row in &table[1..] {
                assert!(chamulteon_slo <= row.values[5], "{}", row.scaler);
            }
        }
        // §V-D finding 4: Reg and Adapt have the worst user metrics.
        for table in [&TABLE2, &TABLE3, &TABLE4, &TABLE5] {
            let worst_apdex = table
                .iter()
                .min_by(|a, b| a.values[6].partial_cmp(&b.values[6]).unwrap())
                .unwrap();
            assert!(
                worst_apdex.scaler == "reg" || worst_apdex.scaler == "adapt",
                "worst is {}",
                worst_apdex.scaler
            );
        }
    }
}
