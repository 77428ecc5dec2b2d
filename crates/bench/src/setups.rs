//! The paper's four experiment setups (§IV-A/B, §V-B/C), ready to run.
//!
//! All sizes follow the paper:
//!
//! * **Wikipedia / Docker** — one compressed day lasting 1 h, 60 s scaling
//!   interval, peak demand sized to ≈120 containers in total;
//! * **Wikipedia / VM** — the same day stretched over 6 h, 120 s interval,
//!   VM provisioning delays, peak ≈20 VMs;
//! * **BibSonomy small / large** — the burstier trace at peaks of ≈60 and
//!   ≈120 containers.

use crate::experiment::ExperimentSpec;
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_sim::{DeploymentProfile, SloPolicy};
use chamulteon_workload::generators::{
    bibsonomy_like, peak_rate_for_total_instances, wikipedia_like,
};
use chamulteon_workload::LoadTrace;

/// Seconds in the synthetic source day before compression.
const SOURCE_DAY: f64 = 86_400.0;
/// Source sampling step of the generators.
const SOURCE_STEP: f64 = 60.0;
/// The paper's per-service demands (UI, validation, data).
const DEMANDS: [f64; 3] = [0.059, 0.1, 0.04];
/// Target utilization used to translate "peak instances" into a peak rate.
const SIZING_RHO: f64 = 0.8;

fn paper_model() -> ApplicationModel {
    ApplicationModel::paper_benchmark()
}

/// Builds a compressed, rescaled trace: one synthetic day squeezed into
/// `experiment_duration` seconds, peak-sized so the whole application needs
/// about `peak_instances` instances at the top.
pub(crate) fn build_trace(
    generator: fn(u64, f64, f64) -> LoadTrace,
    seed: u64,
    experiment_duration: f64,
    peak_instances: u32,
) -> LoadTrace {
    let day = generator(seed, SOURCE_STEP, SOURCE_DAY);
    let compressed = day.compress_to(experiment_duration);
    let peak_rate = peak_rate_for_total_instances(peak_instances, &DEMANDS, SIZING_RHO);
    compressed.scale_to_peak(peak_rate)
}

/// Table II scenario: Wikipedia-like trace, Docker deployment, 1 h, 60 s
/// interval, peak ≈120 containers.
pub fn wikipedia_docker() -> ExperimentSpec {
    ExperimentSpec {
        name: "Wikipedia trace (Docker)".into(),
        trace: build_trace(wikipedia_like, 20131201, 3_600.0, 120),
        model: paper_model(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed: 1,
        warmup_days: 2,
        hist_bucket: 300.0, // "hour of day" scaled into the compressed hour
    }
}

/// Table III scenario: Wikipedia-like trace, VM deployment, 6 h, 120 s
/// interval, peak ≈20 VMs.
pub fn wikipedia_vm() -> ExperimentSpec {
    ExperimentSpec {
        name: "Wikipedia trace (VM)".into(),
        trace: build_trace(wikipedia_like, 20131201, 6.0 * 3_600.0, 20),
        model: paper_model(),
        profile: DeploymentProfile::vm(),
        slo: SloPolicy::default(),
        scaling_interval: 120.0,
        seed: 2,
        warmup_days: 2,
        hist_bucket: 1_800.0,
    }
}

/// Table IV scenario: BibSonomy-like trace, Docker, small setup
/// (peak ≈60 containers).
pub fn bibsonomy_small() -> ExperimentSpec {
    ExperimentSpec {
        name: "BibSonomy trace (small setup)".into(),
        trace: build_trace(bibsonomy_like, 20170401, 3_600.0, 60),
        model: paper_model(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed: 3,
        warmup_days: 2,
        hist_bucket: 300.0,
    }
}

/// Table V scenario: BibSonomy-like trace, Docker, large setup
/// (peak ≈120 containers).
pub fn bibsonomy_large() -> ExperimentSpec {
    ExperimentSpec {
        name: "BibSonomy trace (large setup)".into(),
        trace: build_trace(bibsonomy_like, 20170401, 3_600.0, 120),
        model: paper_model(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed: 4,
        warmup_days: 2,
        hist_bucket: 300.0,
    }
}

/// A fast, small scenario for tests and examples: 10 simulated minutes of
/// a Wikipedia-like morning at modest scale.
pub fn smoke_test() -> ExperimentSpec {
    ExperimentSpec {
        name: "Smoke test".into(),
        trace: build_trace(wikipedia_like, 7, 600.0, 30),
        model: paper_model(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 30.0,
        seed: 5,
        warmup_days: 2,
        hist_bucket: 120.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_have_expected_durations() {
        assert!((wikipedia_docker().trace.duration() - 3_600.0).abs() < 1.0);
        assert!((wikipedia_vm().trace.duration() - 21_600.0).abs() < 1.0);
        assert!((bibsonomy_small().trace.duration() - 3_600.0).abs() < 1.0);
        assert!((smoke_test().trace.duration() - 600.0).abs() < 1.0);
    }

    #[test]
    fn peaks_sized_for_instance_budgets() {
        // Peak rate should translate back to the instance budget at ρ=0.8.
        let spec = wikipedia_docker();
        let peak = spec.trace.peak_rate();
        let total: f64 = DEMANDS.iter().map(|d| (peak * d / SIZING_RHO).ceil()).sum();
        assert!(
            (total - 120.0).abs() <= 3.0,
            "peak translates to {total} instances"
        );
        let small = bibsonomy_small();
        let peak = small.trace.peak_rate();
        let total: f64 = DEMANDS.iter().map(|d| (peak * d / SIZING_RHO).ceil()).sum();
        assert!((total - 60.0).abs() <= 3.0);
    }

    #[test]
    fn scenarios_differ_where_the_paper_differs() {
        let docker = wikipedia_docker();
        let vm = wikipedia_vm();
        assert!(vm.profile.provisioning_delay > docker.profile.provisioning_delay);
        assert!(vm.scaling_interval > docker.scaling_interval);
        assert!(vm.trace.duration() > docker.trace.duration());
        // Same underlying day shape: identical number of samples.
        assert_eq!(docker.trace.len(), vm.trace.len());
    }

    #[test]
    fn bibsonomy_setups_share_shape() {
        let small = bibsonomy_small();
        let large = bibsonomy_large();
        assert_eq!(small.trace.len(), large.trace.len());
        // Large is the same trace scaled up ≈2×.
        let ratio = large.trace.peak_rate() / small.trace.peak_rate();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
