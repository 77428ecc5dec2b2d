//! Instrumentation must never change a decision: a run with the tracing
//! recorder and metrics registry attached is bit-identical to the plain
//! run — same simulation result, same scored report, same degradation
//! record — for clean and faulted seeds alike.

use chamulteon::RetryPolicy;
use chamulteon_bench::robustness::FaultClass;
use chamulteon_bench::setups::smoke_test;
use chamulteon_bench::{run_experiment_observed, run_experiment_with_faults, ScalerKind};
use chamulteon_obs::{ActuationOutcome, EventKind, Obs};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `class_idx` 0 is the clean run; 1..=4 index [`FaultClass::ALL`].
    #[test]
    fn instrumented_runs_are_bit_identical(seed in 1u64..1000, class_idx in 0usize..5) {
        let mut spec = smoke_test();
        spec.seed = seed;
        let retry = RetryPolicy::default();
        let plan = class_idx
            .checked_sub(1)
            .map(|c| FaultClass::ALL[c].plan(spec.seed, spec.trace.duration(), spec.scaling_interval));

        let plain = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, plan.clone(), &retry);
        let (obs, ring) = Obs::recording(1 << 18);
        let traced = run_experiment_observed(&spec, ScalerKind::Chamulteon, plan, &retry, &obs);

        prop_assert_eq!(&plain.outcome.result, &traced.outcome.result);
        prop_assert_eq!(&plain.outcome.report, &traced.outcome.report);
        prop_assert_eq!(&plain.outcome.demand, &traced.outcome.demand);
        prop_assert_eq!(
            plain.outcome.billed_instance_seconds,
            traced.outcome.billed_instance_seconds
        );
        prop_assert_eq!(&plain.degradation, &traced.degradation);

        // The instrumented run actually traced: every cycle is visible and
        // every scaling decision carries a provenance record.
        let events = ring.take();
        prop_assert_eq!(ring.dropped(), 0);
        let cycles = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CycleStart { .. }))
            .count();
        prop_assert!(cycles > 0);
        let decisions = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decision(_)))
            .count();
        prop_assert_eq!(decisions, cycles * spec.model.service_count());
        // Degradation events mirror the degradation log entry for entry.
        let degradations = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Degradation { .. }))
            .count();
        prop_assert_eq!(degradations, traced.degradation.len());
        // Fault events mirror the injected-fault record.
        let faults = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
            .count();
        prop_assert_eq!(faults, traced.outcome.result.fault_log.len());
    }
}

/// The independent baselines run the same validated-observation boundary;
/// attaching a sink must not change them either.
#[test]
fn instrumented_baseline_is_bit_identical() {
    let spec = smoke_test();
    let retry = RetryPolicy::default();
    let plan =
        FaultClass::DropSamples.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let plain = run_experiment_with_faults(&spec, ScalerKind::Adapt, Some(plan.clone()), &retry);
    let (obs, ring) = Obs::recording(1 << 18);
    let traced = run_experiment_observed(&spec, ScalerKind::Adapt, Some(plan), &retry, &obs);
    assert_eq!(plain.outcome.result, traced.outcome.result);
    assert_eq!(plain.outcome.report, traced.outcome.report);
    assert_eq!(plain.degradation, traced.degradation);
    // Baselines trace their boundary degradations and actuations, not
    // per-service decision provenance (that is the controller's).
    let events = ring.take();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Degradation { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Actuation { .. })));
}

/// The actuation counters count what the harness's retry loop did: one
/// attempt per traced `actuation` event, one retry per `retried` event
/// and one abandon per `abandoned` event.
#[test]
fn actuation_counters_match_the_traced_actuation_events() {
    let spec = smoke_test();
    let plan =
        FaultClass::ActuationFailures.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let (obs, ring) = Obs::recording(1 << 18);
    run_experiment_observed(
        &spec,
        ScalerKind::Chamulteon,
        Some(plan),
        &RetryPolicy::default(),
        &obs,
    );
    let events = ring.take();
    assert_eq!(ring.dropped(), 0);
    let outcomes: Vec<ActuationOutcome> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Actuation { outcome, .. } => Some(outcome),
            _ => None,
        })
        .collect();
    let traced = |outcome| outcomes.iter().filter(|&&o| o == outcome).count() as u64;
    let counted = |name| obs.metrics().counter_value(name).unwrap_or(0);
    assert_eq!(counted("actuation.attempts"), outcomes.len() as u64);
    assert_eq!(
        counted("actuation.retries"),
        traced(ActuationOutcome::Retried)
    );
    assert_eq!(
        counted("actuation.abandoned"),
        traced(ActuationOutcome::Abandoned)
    );
    // The fault class exercises both failure branches of the loop.
    assert!(traced(ActuationOutcome::Retried) > 0);
    assert!(traced(ActuationOutcome::Abandoned) > 0);
}
