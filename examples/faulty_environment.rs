//! The fault-injection harness and degradation ladder end-to-end: every
//! scaler of the paper's lineup runs the smoke scenario once fault-free
//! and once under each fault class — dropped samples, corrupted samples,
//! failing actuations, crashing instances — and the robustness tables
//! show how much each one degraded and how often the ladder engaged.
//!
//! Run with: `cargo run --release --example faulty_environment`

use chamulteon_repro::bench::robustness::{robustness_lineup, FaultClass};
use chamulteon_repro::bench::setups::smoke_test;
use chamulteon_repro::bench::{default_threads, run_experiment_with_faults, ScalerKind};
use chamulteon_repro::core::{DegradationReason, RetryPolicy};
use chamulteon_repro::metrics::render_robustness_table;
use chamulteon_repro::sim::{CorruptionMode, FaultPlan};

fn main() {
    let spec = smoke_test();
    let retry = RetryPolicy::default();

    // One table per fault class: clean vs faulted SLO violations, the
    // number of injected faults and of degraded decisions.
    for class in FaultClass::ALL {
        let reports = robustness_lineup(&spec, class, &retry, default_threads());
        let title = format!("Faults: {} ({})", class.name(), spec.name);
        println!("{}", render_robustness_table(&title, &reports));
    }

    // A hand-built plan, mixing fault kinds and scoping some to a single
    // service, to show the underlying primitives.
    let duration = spec.trace.duration();
    let plan = FaultPlan::new(spec.seed)
        .drop_samples(Some(0), 0.2 * duration, 0.8 * duration, 0.3)
        .corrupt_samples(
            None,
            0.4 * duration,
            0.6 * duration,
            0.2,
            CorruptionMode::Nan,
        )
        .fail_actuations(Some(1), 0.3 * duration, 0.7 * duration, 0.5)
        .crash_instances(Some(2), 0.5 * duration, 0.9 * duration, 0.2, 1);
    let run = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, Some(plan), &retry);

    println!("custom plan on chamulteon:");
    println!(
        "  injected {} faults, took {} ladder rungs, SLO violations {:.1}%",
        run.outcome.result.fault_log.len(),
        run.degradation.len(),
        run.outcome.report.slo_violations
    );
    let held = run
        .degradation
        .count_matching(|r| matches!(r, DegradationReason::SampleHeld { .. }));
    let quarantined = run
        .degradation
        .count_matching(|r| matches!(r, DegradationReason::SampleQuarantined { .. }));
    let retried = run
        .degradation
        .count_matching(|r| matches!(r, DegradationReason::ActuationRetried { .. }));
    println!("  held samples: {held}, quarantined: {quarantined}, actuation retries: {retried}");
}
