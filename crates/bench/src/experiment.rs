//! The measurement loop and scoring.

use crate::drivers::{Driver, ScalerKind};
use chamulteon::{DegradationLog, DegradationReason, RetryPolicy};
use chamulteon_metrics::{
    adaptation_rate_per_hour, demand_curves_with_cache, elasticity_metrics, instance_seconds,
    ScalerReport, StepFn,
};
use chamulteon_obs::{ActuationOutcome, Event, EventKind, Obs};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::min_instances_for_utilization;
use chamulteon_queueing::CapacityCache;
use chamulteon_sim::{
    DeploymentProfile, FaultPlan, RecoveryPolicy, Simulation, SimulationConfig, SimulationResult,
    SloPolicy, SupplyChange,
};
use chamulteon_workload::LoadTrace;

/// One measurement scenario — everything Table II–V vary: the trace, the
/// deployment (Docker vs. VM provisioning delays), the scaling interval
/// and the experiment duration.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Scenario name for table titles.
    pub name: String,
    /// The load-intensity profile driving the experiment.
    pub trace: LoadTrace,
    /// The application under test.
    pub model: ApplicationModel,
    /// Provisioning delays (Docker vs. VM).
    pub profile: DeploymentProfile,
    /// SLO policy for request accounting.
    pub slo: SloPolicy,
    /// Scaling (and monitoring) interval in seconds — 60 s for Docker,
    /// 120 s for VMs in the paper.
    pub scaling_interval: f64,
    /// Simulation seed (experiments are deterministic in it).
    pub seed: u64,
    /// Number of warmup "days" of history preloaded into proactive
    /// scalers (the paper's two days of historical data).
    pub warmup_days: usize,
    /// Hist's schedule bucket length in seconds.
    pub hist_bucket: f64,
}

/// The outcome of driving one scaler through one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Raw simulation result (supply timelines, request accounting).
    pub result: SimulationResult,
    /// Scored report (elasticity metrics, ς, SLO, Apdex).
    pub report: ScalerReport,
    /// Ground-truth demand curves used for scoring, one per service.
    pub demand: Vec<StepFn>,
    /// FOX-billed instance seconds, when the driver had FOX attached.
    pub billed_instance_seconds: Option<f64>,
}

/// An [`ExperimentOutcome`] plus the record of every degraded decision —
/// the return type of [`run_experiment_with_faults`].
#[derive(Debug, Clone)]
pub struct FaultedOutcome {
    /// The scored experiment, exactly as for a clean run.
    pub outcome: ExperimentOutcome,
    /// Every rung of the degradation ladder the scaler (and the actuation
    /// retry loop) took during the run.
    pub degradation: DegradationLog,
}

/// Runs one auto-scaler through one experiment and scores it.
///
/// The loop follows the paper's setup: the application starts sized for
/// the initial load, then every `scaling_interval` the scaler receives the
/// monitoring tuple of the last interval and its decisions are applied
/// with the deployment profile's provisioning delays.
pub fn run_experiment(spec: &ExperimentSpec, kind: ScalerKind) -> ExperimentOutcome {
    run_experiment_with_faults(spec, kind, None, &RetryPolicy::no_retries()).outcome
}

/// Like [`run_experiment`], but with an optional [`FaultPlan`] injecting
/// monitoring, actuation and instance faults, and a [`RetryPolicy`]
/// governing how failed scaling commands are retried (with backoff time
/// advancing the simulation clock, capped so retries never cross into the
/// next scaling interval).
///
/// With `fault_plan = None` and [`RetryPolicy::no_retries`] this is
/// numerically identical to the clean run: the scaler sees the same
/// observations (faithful copies of the interval truth) and no actuation
/// ever fails. The injected-fault record is available on
/// `outcome.result.fault_log`; the scaler's degraded decisions are in
/// `degradation`.
pub fn run_experiment_with_faults(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    fault_plan: Option<FaultPlan>,
    retry: &RetryPolicy,
) -> FaultedOutcome {
    run_experiment_recovered(spec, kind, fault_plan, retry, RecoveryPolicy::ColdRestart)
}

/// Like [`run_experiment_with_faults`], but with a [`RecoveryPolicy`]
/// governing how the scaler comes back from injected controller crashes
/// (`FaultKind::ControllerCrash` windows in the plan): under
/// [`RecoveryPolicy::Checkpoint`] the harness snapshots the controller
/// every `cadence` cycles and a crashed controller restores from the
/// latest checkpoint; under [`RecoveryPolicy::ColdRestart`] the
/// replacement starts from scratch. Independent baselines have no
/// checkpoint format and always restart cold. With no controller-crash
/// windows the outcome is bit-identical to
/// [`run_experiment_with_faults`]: snapshots are pure reads and no
/// restart ever happens.
pub fn run_experiment_recovered(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    fault_plan: Option<FaultPlan>,
    retry: &RetryPolicy,
    recovery: RecoveryPolicy,
) -> FaultedOutcome {
    let state = init_run(spec, kind, fault_plan, recovery, &Obs::disabled());
    finalize_run(state, spec, retry)
}

/// [`run_experiment_with_faults`] with a trace/metrics sink attached:
/// every control-loop event (cycle starts, forecasts, conflict
/// resolutions, per-service decision provenance, actuation outcomes,
/// injected faults) flows into `obs`. With a disabled sink this is the
/// plain runner; with any sink the outcome is bit-identical to the
/// uninstrumented run (pinned by the `obs_identity` proptest).
pub fn run_experiment_observed(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    fault_plan: Option<FaultPlan>,
    retry: &RetryPolicy,
    obs: &Obs,
) -> FaultedOutcome {
    let state = init_run(spec, kind, fault_plan, RecoveryPolicy::ColdRestart, obs);
    finalize_run(state, spec, retry)
}

/// A measurement run paused between scaling intervals: the simulation,
/// the scaler driver, the harness's degradation record and the next
/// interval index. Every interval runs in two halves: [`decide`] advances
/// the simulation, observes it and asks the scaler for targets;
/// [`actuate`] applies them and takes the cadence checkpoint. Between the
/// halves a coordinator may trim the targets — the multi-tenant loop runs
/// one `RunState` per tenant in lockstep and fits each tenant's targets
/// to the arbiter's grant there. [`finalize_run`] drives the remaining
/// halves and scores the run.
pub(crate) struct RunState {
    sim: Simulation,
    driver: Driver,
    kind: ScalerKind,
    harness_log: DegradationLog,
    /// Trace/metrics sink shared with the driver; disabled on plain runs.
    obs: Obs,
    /// 1-based index of the next scaling interval to process; past the
    /// trace's last interval (or `usize::MAX` after a degraded break) the
    /// measurement loop is done.
    next_k: usize,
    /// How a controller crash injected by the fault plan is recovered
    /// from; [`RecoveryPolicy::ColdRestart`] also means no checkpoints
    /// are ever taken, keeping crash-free runs bit-identical to the
    /// plain runner.
    recovery: RecoveryPolicy,
    /// The latest checkpoint: the cycle it was taken after and the
    /// encoded controller snapshot.
    checkpoint: Option<(u64, String)>,
}

/// One scaling interval between its decide and actuate halves.
pub(crate) struct Cycle {
    /// 1-based interval index.
    pub(crate) k: usize,
    /// Decision time: the interval's end, capped at the trace's.
    pub(crate) t: f64,
    /// Instances provisioned per service when the scaler decided.
    pub(crate) provisioned: Vec<u32>,
    /// Per-service targets, applied by [`actuate`].
    pub(crate) targets: Vec<u32>,
    /// Whether an injected crash restarted the controller this cycle.
    pub(crate) restarted: bool,
}

/// Builds the simulation, initial placement, driver and warmup history —
/// everything up to the first scaling interval. The trace/metrics sink
/// goes to the driver and stays on the run state for the harness's own
/// actuation, checkpoint and fault events.
pub(crate) fn init_run(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    fault_plan: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    obs: &Obs,
) -> RunState {
    let nominal: Vec<f64> = spec
        .model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();

    let mut config = SimulationConfig::new(spec.profile.clone(), spec.slo, spec.seed)
        .with_monitoring_interval(spec.scaling_interval);
    if let Some(plan) = fault_plan {
        config = config.with_fault_plan(plan);
    }
    let mut sim = Simulation::new(&spec.model, &spec.trace, config);

    // Fair initial placement: size every tier for the trace's initial rate
    // at a moderate utilization (every competitor starts identically).
    let rate0 = spec.trace.rate_at(0.0);
    let visit_ratios0 = spec.model.visit_ratios();
    for (s, (&demand, &visits)) in nominal.iter().zip(&visit_ratios0).enumerate() {
        let n0 = min_instances_for_utilization(rate0 * visits, demand, 0.6);
        let _ = sim.set_supply(s, n0); // s < service_count by construction
    }

    let mut driver = Driver::new_observed(kind, &spec.model, spec.hist_bucket, obs.clone());

    // Warmup history for the proactive cycle: the same compressed day
    // repeated, at scaling-interval resolution.
    if spec.warmup_days > 0 {
        if let Ok(day) = spec.trace.resample(spec.scaling_interval) {
            let mut rates = Vec::with_capacity(day.len() * spec.warmup_days);
            for _ in 0..spec.warmup_days {
                rates.extend_from_slice(day.rates());
            }
            driver.preload_history(spec.scaling_interval, &rates);
        }
    }

    RunState {
        sim,
        driver,
        kind,
        harness_log: DegradationLog::new(),
        obs: obs.clone(),
        next_k: 1,
        recovery,
        checkpoint: None,
    }
}

/// The decide half of the next scaling interval: runs the simulation to
/// the interval's end, reads what monitoring reported, restarts the
/// controller if the fault plan crashes it here, and asks the scaler for
/// its targets. Returns `None` once the run is done — past the last
/// interval, or after a degraded break (clock error or the trace ending
/// mid-interval), which also marks the run done.
pub(crate) fn decide(state: &mut RunState, spec: &ExperimentSpec) -> Option<Cycle> {
    let k = state.next_k;
    if k > (spec.trace.duration() / spec.scaling_interval).ceil() as usize {
        return None;
    }
    let t = (k as f64 * spec.scaling_interval).min(spec.trace.duration());
    if state.sim.run_until(t).is_err() {
        state.next_k = usize::MAX; // unreachable with a monotone schedule; degrade, don't panic
        return None;
    }
    let Some(observed) = state.sim.observe_interval(k - 1) else {
        state.next_k = usize::MAX; // trace ended mid-interval
        return None;
    };
    // An injected controller crash lands at the start of this cycle: the
    // scaler process dies and its replacement takes over the decision —
    // restored from the latest checkpoint when one exists, cold
    // otherwise. The deployment itself keeps running.
    let restarted = state.sim.controller_crash_at(k, t);
    if restarted {
        let (driver, warm) = Driver::restart(
            state.kind,
            &spec.model,
            spec.hist_bucket,
            state.obs.clone(),
            state.checkpoint.as_ref().map(|(_, text)| text.as_str()),
        );
        state.driver = driver;
        let checkpoint_cycle = if warm {
            state.checkpoint.as_ref().map(|&(cycle, _)| cycle)
        } else {
            state.checkpoint = None; // unusable (or absent) checkpoint
            None
        };
        state.obs.metrics().increment("controller.crashes");
        state.obs.metrics().increment(if warm {
            "controller.restores.warm"
        } else {
            "controller.restores.cold"
        });
        state.obs.record_with(|| {
            Event::cycle(
                t,
                EventKind::Restore {
                    cycle: u64::try_from(k).unwrap_or(u64::MAX),
                    cold: !warm,
                    checkpoint_cycle,
                },
            )
        });
    }
    let provisioned: Vec<u32> = (0..spec.model.service_count())
        .map(|s| state.sim.provisioned(s))
        .collect();
    let targets = state.driver.decide_observed(
        t,
        spec.scaling_interval,
        &observed,
        &provisioned,
        spec.model.entry(),
    );
    state.next_k = k + 1;
    Some(Cycle {
        k,
        t,
        provisioned,
        targets,
        restarted,
    })
}

/// The actuate half of `cycle`: applies each target, retrying failed
/// commands under `retry` with backoff advancing the simulated clock (no
/// retry crosses into the next scaling interval), then takes the cadence
/// checkpoint. Services are scaled in the invocation graph's stored
/// order, not index order: simultaneous simulator events fire in
/// scheduling order, so this keeps a run independent of how the model
/// numbers its services.
pub(crate) fn actuate(
    state: &mut RunState,
    spec: &ExperimentSpec,
    retry: &RetryPolicy,
    cycle: &Cycle,
) {
    let (k, t) = (cycle.k, cycle.t);
    // Retries may not cross into the next scaling interval.
    let deadline = ((k + 1) as f64 * spec.scaling_interval - 1e-6)
        .min(spec.trace.duration())
        .max(t);
    let mut clock = t;
    for &s in spec.model.graph().topological_order() {
        let Some(&target) = cycle.targets.get(s) else {
            continue;
        };
        let mut attempt = 0u32;
        loop {
            state.obs.metrics().increment("actuation.attempts");
            let outcome = match state.sim.scale_to(s, target) {
                Ok(()) => ActuationOutcome::Applied,
                Err(_) if attempt + 1 < retry.max_attempts && clock < deadline => {
                    ActuationOutcome::Retried
                }
                Err(_) => ActuationOutcome::Abandoned,
            };
            state.obs.record_with(|| {
                Event::service(
                    clock,
                    s,
                    EventKind::Actuation {
                        target,
                        outcome,
                        attempt,
                    },
                )
            });
            let reason = match outcome {
                ActuationOutcome::Applied => break,
                ActuationOutcome::Retried => {
                    state.obs.metrics().increment("actuation.retries");
                    DegradationReason::ActuationRetried {
                        service: s,
                        attempt,
                    }
                }
                ActuationOutcome::Abandoned => {
                    state.obs.metrics().increment("actuation.abandoned");
                    DegradationReason::ActuationAbandoned { service: s }
                }
            };
            state.obs.metrics().increment("degradation.events");
            state.obs.record_with(|| {
                Event::service(
                    clock,
                    s,
                    EventKind::Degradation {
                        code: reason.as_code().to_owned(),
                        attempt: reason.attempt(),
                    },
                )
            });
            state.harness_log.record(clock, reason);
            if outcome == ActuationOutcome::Abandoned {
                break;
            }
            clock = (clock + retry.backoff(attempt).max(0.0)).min(deadline);
            if state.sim.run_until(clock).is_err() {
                break;
            }
            attempt += 1;
        }
    }
    // Checkpoint cadence: after every `cadence`-th cycle the driver's
    // controller state is snapshotted (a pure read — pinned by the core
    // snapshot tests), so the next crash restores from here.
    let every = state.recovery.checkpoint_every();
    if every > 0 && k.is_multiple_of(every) {
        if let Some(text) = state.driver.snapshot_encoded() {
            let bytes = u64::try_from(text.len()).unwrap_or(u64::MAX);
            let cycle = u64::try_from(k).unwrap_or(u64::MAX);
            state.obs.metrics().increment("controller.checkpoints");
            state
                .obs
                .record_with(|| Event::cycle(t, EventKind::Checkpoint { cycle, bytes }));
            state.checkpoint = Some((cycle, text));
        }
    }
}

/// Runs any remaining intervals, drains the simulation to the end of the
/// trace and scores the outcome. Demand curves are derived through a
/// fresh capacity cache per run.
pub(crate) fn finalize_run(
    mut state: RunState,
    spec: &ExperimentSpec,
    retry: &RetryPolicy,
) -> FaultedOutcome {
    while let Some(cycle) = decide(&mut state, spec) {
        actuate(&mut state, spec, retry, &cycle);
    }
    let RunState {
        mut sim,
        mut driver,
        kind,
        harness_log,
        obs,
        ..
    } = state;
    let _ = sim.run_until(spec.trace.duration()); // monotone: t_final >= every loop t
    let billed = driver.billed_instance_seconds(spec.trace.duration());
    let mut degradation = driver.take_degradation();
    degradation.merge(harness_log);
    let result = sim.finish();
    if obs.tracing() {
        for record in &result.fault_log {
            obs.record_with(|| {
                Event::service(
                    record.time,
                    record.service,
                    EventKind::Fault {
                        code: record.kind.as_code().to_owned(),
                    },
                )
            });
        }
    }
    obs.metrics().count(
        "faults.injected",
        u64::try_from(result.fault_log.len()).unwrap_or(u64::MAX),
    );

    // Scoring.
    let service_count = spec.model.service_count();
    let nominal: Vec<f64> = spec
        .model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let visit_ratios = spec.model.visit_ratios();
    let max_instances = spec
        .model
        .services()
        .iter()
        .map(|s| s.max_instances())
        .max()
        .unwrap_or(200);
    let demand = demand_curves_with_cache(
        &CapacityCache::new(),
        &spec.trace,
        &nominal,
        &visit_ratios,
        spec.slo.response_time_target,
        max_instances,
    );
    let supplies: Vec<StepFn> = (0..service_count)
        .map(|s| supply_step_fn(&result.supply[s]))
        .collect();
    let per_service = supplies
        .iter()
        .enumerate()
        .map(|(s, supply)| elasticity_metrics(&demand[s], supply, spec.trace.duration()))
        .collect();
    let horizon = spec.trace.duration();
    let instance_hours: f64 = supplies
        .iter()
        .map(|s| instance_seconds(s, horizon))
        .sum::<f64>()
        / 3600.0;
    let adaptations_per_hour: f64 = supplies
        .iter()
        .map(|s| adaptation_rate_per_hour(s, horizon))
        .sum();
    let report = ScalerReport {
        scaler: kind.name().to_owned(),
        per_service,
        slo_violations: result.slo_violation_percent(),
        apdex: result.apdex_percent(),
        instance_hours,
        adaptations_per_hour,
    };
    FaultedOutcome {
        outcome: ExperimentOutcome {
            result,
            report,
            demand,
            billed_instance_seconds: billed,
        },
        degradation,
    }
}

/// Converts a simulator supply timeline into a metrics step function.
pub fn supply_step_fn(timeline: &[SupplyChange]) -> StepFn {
    StepFn::new(timeline.iter().map(|c| (c.time, c.running)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups::smoke_test;

    #[test]
    fn split_run_matches_single_pass() {
        // Driving the first intervals' halves by hand, then finalizing, is
        // identical to the one-shot runner.
        let spec = smoke_test();
        let retry = chamulteon::RetryPolicy::default();
        let mut state = init_run(
            &spec,
            ScalerKind::Adapt,
            None,
            RecoveryPolicy::ColdRestart,
            &Obs::disabled(),
        );
        for k in 1..=11 {
            let cycle = decide(&mut state, &spec).expect("interval within the trace");
            assert_eq!(cycle.k, k);
            actuate(&mut state, &spec, &retry, &cycle);
        }
        let split = finalize_run(state, &spec, &retry);
        let single = run_experiment_with_faults(&spec, ScalerKind::Adapt, None, &retry);
        assert_eq!(split.outcome.result, single.outcome.result);
        assert_eq!(split.outcome.report, single.outcome.report);
        assert_eq!(split.degradation, single.degradation);
    }

    #[test]
    fn smoke_experiment_runs_all_scalers() {
        let spec = smoke_test();
        for kind in ScalerKind::paper_lineup() {
            let outcome = run_experiment(&spec, kind);
            assert!(outcome.result.total_requests() > 0, "{kind:?}");
            assert_eq!(outcome.report.per_service.len(), 3, "{kind:?}");
            assert!(outcome.report.apdex >= 0.0 && outcome.report.apdex <= 100.0);
            assert!(outcome.report.slo_violations >= 0.0);
            assert_eq!(outcome.demand.len(), 3);
        }
    }

    #[test]
    fn relabelling_the_model_leaves_a_run_unchanged() {
        // The paper chain declared as `data, ui, validation`, so that index
        // order is not the call order `ui → validation → data`.
        let relabelled = ExperimentSpec {
            model: chamulteon_perfmodel::ApplicationModelBuilder::new()
                .service("data", 0.04, 1, 200, 1)
                .service("ui", 0.059, 1, 200, 1)
                .service("validation", 0.1, 1, 200, 1)
                .call("ui", "validation", 1.0)
                .call("validation", "data", 1.0)
                .entry("ui")
                .build()
                .unwrap(),
            ..smoke_test()
        };
        let paper = run_experiment(&smoke_test(), ScalerKind::Chamulteon);
        let other = run_experiment(&relabelled, ScalerKind::Chamulteon);
        let bits = |o: &ExperimentOutcome| {
            let r = &o.report;
            [r.slo_violations, r.apdex, r.instance_hours].map(f64::to_bits)
        };
        assert_eq!(bits(&paper), bits(&other));
        let timeline = |o: &ExperimentOutcome, s: usize| -> Vec<(u64, u32)> {
            o.result.supply[s]
                .iter()
                .map(|c| (c.time.to_bits(), c.running))
                .collect()
        };
        // Where each `paper_benchmark()` service (ui, validation, data)
        // sits in the relabelled model.
        for (s, relabelled_s) in [1, 2, 0].into_iter().enumerate() {
            assert_eq!(timeline(&paper, s), timeline(&other, relabelled_s), "{s}");
        }
    }

    #[test]
    fn experiments_are_deterministic() {
        let spec = smoke_test();
        let a = run_experiment(&spec, ScalerKind::Chamulteon);
        let b = run_experiment(&spec, ScalerKind::Chamulteon);
        assert_eq!(a.result, b.result);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn chamulteon_beats_static_underprovisioning() {
        // Sanity: on the smoke test, chamulteon keeps SLO violations modest.
        let outcome = run_experiment(&smoke_test(), ScalerKind::Chamulteon);
        assert!(
            outcome.report.slo_violations < 35.0,
            "violations {}%",
            outcome.report.slo_violations
        );
    }

    #[test]
    fn recovered_run_without_crashes_matches_the_plain_runner() {
        // Checkpointing is a pure read: with no controller-crash windows
        // the recovered runner is bit-identical to the plain one.
        let spec = smoke_test();
        let retry = chamulteon::RetryPolicy::default();
        let recovered = run_experiment_recovered(
            &spec,
            ScalerKind::Chamulteon,
            None,
            &retry,
            chamulteon_sim::RecoveryPolicy::Checkpoint { cadence: 2 },
        );
        let plain = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, None, &retry);
        assert_eq!(recovered.outcome.result, plain.outcome.result);
        assert_eq!(recovered.outcome.report, plain.outcome.report);
        assert_eq!(recovered.degradation, plain.degradation);
    }

    #[test]
    fn controller_crashes_are_injected_and_recovered() {
        let spec = smoke_test();
        let retry = chamulteon::RetryPolicy::default();
        let plan = crate::robustness::FaultClass::ControllerCrashes.plan(
            spec.seed,
            spec.trace.duration(),
            spec.scaling_interval,
        );
        for recovery in [
            RecoveryPolicy::ColdRestart,
            RecoveryPolicy::Checkpoint { cadence: 1 },
        ] {
            let faulted = run_experiment_recovered(
                &spec,
                ScalerKind::Chamulteon,
                Some(plan.clone()),
                &retry,
                recovery,
            );
            let crashes = faulted
                .outcome
                .result
                .fault_log
                .iter()
                .filter(|r| r.kind.as_code() == "controller_crash")
                .count();
            assert_eq!(crashes, 2, "{recovery:?}");
            // Deterministic in the seed.
            let again = run_experiment_recovered(
                &spec,
                ScalerKind::Chamulteon,
                Some(plan.clone()),
                &retry,
                recovery,
            );
            assert_eq!(faulted.outcome.result, again.outcome.result);
        }
    }

    #[test]
    fn fox_variant_reports_cost() {
        let outcome = run_experiment(&smoke_test(), ScalerKind::ChamulteonFoxGcp);
        assert!(outcome.billed_instance_seconds.unwrap_or(0.0) > 0.0);
        let plain = run_experiment(&smoke_test(), ScalerKind::Chamulteon);
        assert!(plain.billed_instance_seconds.is_none());
    }
}
