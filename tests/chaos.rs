//! Chaos tests: the scaling loop under injected faults.
//!
//! Each test drives the Wikipedia Docker scenario with one of the five
//! fault classes enabled and checks the contract of the degradation
//! ladder: zero panics, every degraded decision logged, the SLO penalty
//! bounded relative to the fault-free run, and Chamulteon degrading no
//! worse than the competing auto-scalers fed the same faulted inputs —
//! including when the controller process itself is crashed mid-run.

use chamulteon::RetryPolicy;
use chamulteon_bench::robustness::{
    robustness_lineup, robustness_report, robustness_report_recovered, FaultClass,
};
use chamulteon_bench::setups::wikipedia_docker;
use chamulteon_bench::{default_threads, run_experiment, run_experiment_with_faults, ScalerKind};
use chamulteon_sim::RecoveryPolicy;

/// Slack on competitor comparisons, in percentage points of SLO
/// violations: simulator noise can move either side by a little.
const COMPARISON_SLACK: f64 = 5.0;

#[test]
fn chamulteon_survives_every_fault_class() {
    let spec = wikipedia_docker();
    let retry = RetryPolicy::default();
    for class in FaultClass::ALL {
        // Completing at all is the headline claim: no panic on dropped,
        // corrupt or failed inputs anywhere in the loop.
        let r = robustness_report(&spec, ScalerKind::Chamulteon, class, &retry);
        assert!(r.faults_injected > 0, "{class:?}: no faults injected");
        assert!(
            r.faulted_slo_violations.is_finite() && r.faulted_slo_violations >= 0.0,
            "{class:?}: SLO violations not a percentage: {}",
            r.faulted_slo_violations
        );
        // Monitoring and actuation faults must engage the ladder.
        // Instance crashes act on the plant, not the controller, and a
        // controller crash kills the process outright rather than feeding
        // it bad inputs, so no rung is required for either.
        if class != FaultClass::InstanceCrashes && class != FaultClass::ControllerCrashes {
            assert!(
                r.degraded_decisions > 0,
                "{class:?}: faults injected but no degraded decision logged"
            );
        }
        // Pinned degradation bound: faults may hurt, but the ladder keeps
        // the penalty bounded instead of letting the run collapse.
        assert!(
            r.slo_delta() <= 20.0,
            "{class:?}: SLO violations {:.1}% -> {:.1}% (delta {:+.1} exceeds pin)",
            r.clean_slo_violations,
            r.faulted_slo_violations,
            r.slo_delta()
        );
    }
}

#[test]
fn chamulteon_degrades_no_worse_than_competitors() {
    let spec = wikipedia_docker();
    let retry = RetryPolicy::default();
    for class in FaultClass::ALL {
        let reports = robustness_lineup(&spec, class, &retry, default_threads());
        let cham = reports
            .iter()
            .find(|r| r.scaler == "chamulteon")
            .expect("lineup contains chamulteon");
        for other in reports.iter().filter(|r| r.scaler != "chamulteon") {
            assert!(
                cham.slo_delta() <= other.slo_delta() + COMPARISON_SLACK,
                "{class:?}: chamulteon degraded by {:+.1} SLO points, {} only by {:+.1}",
                cham.slo_delta(),
                other.scaler,
                other.slo_delta()
            );
        }
    }
}

#[test]
fn identical_fault_seeds_reproduce_identical_schedules() {
    let spec = wikipedia_docker();
    let retry = RetryPolicy::default();
    let plan =
        FaultClass::DropSamples.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let a = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, Some(plan.clone()), &retry);
    let b = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, Some(plan), &retry);
    assert!(
        !a.outcome.result.fault_log.is_empty(),
        "plan injected nothing"
    );
    assert_eq!(
        a.outcome.result.fault_log, b.outcome.result.fault_log,
        "same plan, different fault schedule"
    );
    assert_eq!(a.outcome.result, b.outcome.result);
    assert_eq!(a.outcome.report, b.outcome.report);
    assert_eq!(a.degradation.events(), b.degradation.events());
}

#[test]
fn absent_fault_plan_matches_clean_run() {
    // The fault-aware entry point with no plan and no retries is the
    // clean experiment, bit for bit.
    let spec = wikipedia_docker();
    let clean = run_experiment(&spec, ScalerKind::Chamulteon);
    let faulted = run_experiment_with_faults(
        &spec,
        ScalerKind::Chamulteon,
        None,
        &RetryPolicy::no_retries(),
    );
    assert_eq!(clean.result, faulted.outcome.result);
    assert_eq!(clean.report, faulted.outcome.report);
    assert!(faulted.outcome.result.fault_log.is_empty());
    assert!(faulted.degradation.is_empty());
}

#[test]
fn crash_faults_are_recorded_and_absorbed() {
    let spec = wikipedia_docker();
    let retry = RetryPolicy::default();
    let r = robustness_report(
        &spec,
        ScalerKind::Chamulteon,
        FaultClass::InstanceCrashes,
        &retry,
    );
    assert!(r.faults_injected > 0, "no crashes injected");
    // Crashed capacity costs something — either more SLO violations or
    // replacement instance-hours — but the run completes and stays sane.
    assert!(r.faulted_instance_hours > 0.0);
    assert!(r.faulted_slo_violations <= 100.0);
}

#[test]
fn checkpointed_chamulteon_survives_controller_crashes_no_worse_than_baselines() {
    // The crash-safety claim of the checkpoint/restore subsystem: under an
    // identical controller-crash plan, Chamulteon restoring from its
    // latest snapshot degrades no worse than the stateless baselines —
    // which lose nothing in a crash because they carry no learned state —
    // and the whole comparison is reproducible from the seed alone.
    let spec = wikipedia_docker();
    let retry = RetryPolicy::default();
    let recovery = RecoveryPolicy::Checkpoint { cadence: 5 };
    let cham = robustness_report_recovered(
        &spec,
        ScalerKind::Chamulteon,
        FaultClass::ControllerCrashes,
        &retry,
        recovery,
    );
    assert!(cham.faults_injected > 0, "no controller crashes injected");
    for kind in [
        ScalerKind::React,
        ScalerKind::Adapt,
        ScalerKind::Hist,
        ScalerKind::Reg,
    ] {
        let other = robustness_report(&spec, kind, FaultClass::ControllerCrashes, &retry);
        assert!(
            cham.slo_delta() <= other.slo_delta() + COMPARISON_SLACK,
            "chamulteon degraded by {:+.1} SLO points under crashes, {} only by {:+.1}",
            cham.slo_delta(),
            other.scaler,
            other.slo_delta()
        );
    }
    let again = robustness_report_recovered(
        &spec,
        ScalerKind::Chamulteon,
        FaultClass::ControllerCrashes,
        &retry,
        recovery,
    );
    assert_eq!(cham, again, "crash recovery run not seed-reproducible");
}
