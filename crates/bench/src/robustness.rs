//! Fault-class presets and the clean-vs-faulted comparison runner.
//!
//! The chaos experiments group the simulator's fault primitives into five
//! classes matching how real monitoring, actuation and control-plane
//! pipelines fail: samples that never arrive (or arrive late), samples
//! that arrive wrong, scaling commands that fail or complete late,
//! instances that die mid-interval, and the controller process itself
//! crashing and restarting. Each class maps to a deterministic [`FaultPlan`] preset
//! covering the middle half of the run, so warm-up and cool-down stay
//! clean and the faulted window is long enough to matter.

use crate::drivers::ScalerKind;
use crate::experiment::{
    run_experiment, run_experiment_recovered, run_experiment_with_faults, ExperimentOutcome,
    ExperimentSpec, FaultedOutcome,
};
use crate::pool::parallel_map;
use chamulteon::RetryPolicy;
use chamulteon_metrics::RobustnessReport;
use chamulteon_sim::{CorruptionMode, FaultPlan, RecoveryPolicy};

/// One class of failure a scaler must degrade gracefully under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Monitoring samples dropped or delivered one interval late.
    DropSamples,
    /// Monitoring samples corrupted: NaN, negative, or spiked rates.
    CorruptSamples,
    /// Scaling commands that transiently fail or complete late.
    ActuationFailures,
    /// Running instances crashing mid-interval.
    InstanceCrashes,
    /// The controller process crashing mid-run and restarting (cold, or
    /// from a checkpoint under a [`chamulteon_sim::RecoveryPolicy`]).
    ControllerCrashes,
}

impl FaultClass {
    /// Every fault class, for exhaustive chaos sweeps.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::DropSamples,
        FaultClass::CorruptSamples,
        FaultClass::ActuationFailures,
        FaultClass::InstanceCrashes,
        FaultClass::ControllerCrashes,
    ];

    /// Stable name used in report rows and table titles.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::DropSamples => "drop-samples",
            FaultClass::CorruptSamples => "corrupt-samples",
            FaultClass::ActuationFailures => "actuation-failures",
            FaultClass::InstanceCrashes => "instance-crashes",
            FaultClass::ControllerCrashes => "controller-crashes",
        }
    }

    /// The deterministic fault plan for this class over a run of the given
    /// duration and scaling interval: faults cover the middle half
    /// `[0.25·D, 0.75·D]`. The interval fixes which decision cycles the
    /// controller-crash class lands on (cycle `k` runs at `k·Δ`); the
    /// other classes ignore it.
    pub fn plan(&self, seed: u64, duration: f64, interval: f64) -> FaultPlan {
        let start = 0.25 * duration;
        let end = 0.75 * duration;
        let plan = FaultPlan::new(seed);
        match self {
            FaultClass::DropSamples => plan
                .drop_samples(None, start, end, 0.4)
                .delay_samples(None, start, end, 0.2, 1),
            FaultClass::CorruptSamples => plan
                .corrupt_samples(None, start, end, 0.15, CorruptionMode::Nan)
                .corrupt_samples(None, start, end, 0.15, CorruptionMode::Negative)
                .corrupt_samples(
                    None,
                    start,
                    end,
                    0.15,
                    CorruptionMode::Spike { factor: 10.0 },
                ),
            FaultClass::ActuationFailures => plan
                .fail_actuations(None, start, end, 0.5)
                .delay_actuations(None, start, end, 0.3, 30.0),
            FaultClass::InstanceCrashes => plan.crash_instances(None, start, end, 0.15, 2),
            FaultClass::ControllerCrashes => {
                // Two certain crashes: one 40 % into the run (soon after
                // the fault windows open, typically mid-billing-interval)
                // and one at 60 % (after degraded cycles have piled up).
                let interval = if interval > 0.0 { interval } else { 60.0 };
                let cycle_at = |frac: f64| ((frac * duration / interval).round() as usize).max(1);
                plan.crash_controller(cycle_at(0.4), start, end, 1.0)
                    .crash_controller(cycle_at(0.6), start, end, 1.0)
            }
        }
    }
}

/// Runs one scaler twice — fault-free and under the class's fault plan —
/// and packages the comparison. Both runs use the spec's seed, so the
/// underlying workload is identical; only the injected faults differ.
pub fn robustness_report(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    class: FaultClass,
    retry: &RetryPolicy,
) -> RobustnessReport {
    let clean = run_experiment(spec, kind);
    let plan = class.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let faulted = run_experiment_with_faults(spec, kind, Some(plan), retry);
    package_report(kind, class, &clean, &faulted)
}

/// [`robustness_report`] with an explicit crash-[`RecoveryPolicy`]: under
/// [`RecoveryPolicy::Checkpoint`] a Chamulteon scaler hit by the
/// controller-crash class restores from its latest snapshot instead of
/// restarting cold. For classes without controller crashes the policy
/// changes nothing but the checkpoint cadence (snapshots are pure reads).
pub fn robustness_report_recovered(
    spec: &ExperimentSpec,
    kind: ScalerKind,
    class: FaultClass,
    retry: &RetryPolicy,
    recovery: RecoveryPolicy,
) -> RobustnessReport {
    let clean = run_experiment(spec, kind);
    let plan = class.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let faulted = run_experiment_recovered(spec, kind, Some(plan), retry, recovery);
    package_report(kind, class, &clean, &faulted)
}

/// Packages a clean/faulted outcome pair into the comparison row.
fn package_report(
    kind: ScalerKind,
    class: FaultClass,
    clean: &ExperimentOutcome,
    faulted: &FaultedOutcome,
) -> RobustnessReport {
    RobustnessReport {
        scaler: kind.name().to_owned(),
        fault_class: class.name().to_owned(),
        clean_slo_violations: clean.report.slo_violations,
        faulted_slo_violations: faulted.outcome.report.slo_violations,
        clean_instance_hours: clean.report.instance_hours,
        faulted_instance_hours: faulted.outcome.report.instance_hours,
        faults_injected: faulted.outcome.result.fault_log.len(),
        degraded_decisions: faulted.degradation.len(),
    }
}

/// [`robustness_report`] for the paper's five-scaler lineup under one
/// fault class — the rows of a chaos table — on up to `threads` worker
/// threads (1 runs it on the calling thread). Every cell is deterministic
/// in the spec's seed and the pool returns results in input order, so the
/// rows do not depend on `threads`.
pub fn robustness_lineup(
    spec: &ExperimentSpec,
    class: FaultClass,
    retry: &RetryPolicy,
    threads: usize,
) -> Vec<RobustnessReport> {
    parallel_map(&ScalerKind::paper_lineup(), threads, |_, &kind| {
        robustness_report(spec, kind, class, retry)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_are_stable() {
        let names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "drop-samples",
                "corrupt-samples",
                "actuation-failures",
                "instance-crashes",
                "controller-crashes"
            ]
        );
    }

    #[test]
    fn plans_cover_the_middle_half() {
        for class in FaultClass::ALL {
            let plan = class.plan(7, 1000.0, 60.0);
            assert!(!plan.windows().is_empty(), "{class:?}");
            for w in plan.windows() {
                assert_eq!(w.start, 250.0, "{class:?}");
                assert_eq!(w.end, 750.0, "{class:?}");
                assert!(w.probability > 0.0 && w.probability <= 1.0, "{class:?}");
            }
        }
    }

    #[test]
    fn plans_are_deterministic_in_seed() {
        let a = FaultClass::DropSamples.plan(42, 600.0, 60.0);
        let b = FaultClass::DropSamples.plan(42, 600.0, 60.0);
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.windows(), b.windows());
    }

    #[test]
    fn robustness_lineup_does_not_depend_on_the_thread_count() {
        let spec = crate::setups::smoke_test();
        let retry = RetryPolicy::default();
        let class = FaultClass::ActuationFailures;
        assert_eq!(
            robustness_lineup(&spec, class, &retry, 3),
            robustness_lineup(&spec, class, &retry, 1)
        );
    }
}
