//! des-scale runners: the simulation engine on a Wikipedia-day diurnal
//! trace at production load, pure DES or hybrid.
//!
//! A [`DesScaleCase`] scales the synthetic Wikipedia day to a peak rate,
//! optionally compresses it, and runs it either with every request an
//! entity (pure DES) or with the hybrid fluid switch armed.
//! [`headline_case`] is the *full* 86 400 s day at 1M req/s peak in
//! hybrid mode, the configuration a pure request-level simulation cannot
//! touch (≈10¹¹ request events); the benchmark's hybrid-day workload runs
//! it.
//!
//! Both modes use the paper's 3-tier chain (demands 0.059 / 0.1 /
//! 0.04 s) provisioned statically for the peak at ρ = 0.7, and both
//! report the integer conservation identity `sent = completed +
//! in-flight` — the hybrid run is only comparable because it conserves
//! requests exactly.
//!
//! This module is decision-path code (xtask `DECISION_PATH_MODULES`): it
//! is panic-free and clock-free — timing a case is the caller's job.

use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_queueing::capacity::min_instances_for_utilization;
use chamulteon_sim::{DeploymentProfile, HybridConfig, Simulation, SimulationConfig, SloPolicy};
use chamulteon_workload::{generators, LoadTrace};

/// Instance ceiling for the scale models — far above what 1M req/s
/// needs (~143k instances on the 0.1 s tier at ρ = 0.7).
const MAX_INSTANCES: u32 = 10_000_000;

/// Target utilization of the static peak provisioning.
const PROVISION_RHO: f64 = 0.7;

/// One des-scale configuration: a diurnal trace at `peak` req/s,
/// optionally with the hybrid switch armed.
#[derive(Debug, Clone)]
pub struct DesScaleCase {
    /// Case label (`"1M-day"` for the headline case).
    pub label: String,
    /// Peak arrival rate of the scaled Wikipedia-like day, req/s.
    pub peak: f64,
    /// Duration the day is compressed to, seconds (86 400 = uncompressed).
    pub duration: f64,
    /// Hybrid switch configuration; `None` runs pure DES.
    pub hybrid: Option<HybridConfig>,
    /// Simulation/trace seed.
    pub seed: u64,
}

/// What one des-scale run measured (wall-clock is the caller's job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesScaleMeasures {
    /// Requests admitted (sum of the per-second sent accounting).
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests still in flight at the end of the run.
    pub in_flight: u64,
    /// Events the core processed (heap pops, including monitoring).
    pub events: u64,
    /// Station regime switches (0 in pure-DES mode).
    pub regime_switches: u64,
    /// Mean end-to-end response time of completed requests, seconds.
    pub mean_response: f64,
    /// SLO violation percentage over completed requests.
    pub slo_violation_percent: f64,
    /// Whether `sent = completed + in-flight` held exactly.
    pub conserved: bool,
}

/// The paper's 3-tier chain with bounds wide enough for 1M req/s.
fn scale_model() -> Option<ApplicationModel> {
    ApplicationModelBuilder::new()
        .service("ui", 0.059, 1, MAX_INSTANCES, 1)
        .service("validation", 0.1, 1, MAX_INSTANCES, 1)
        .service("data", 0.04, 1, MAX_INSTANCES, 1)
        .call("ui", "validation", 1.0)
        .call("validation", "data", 1.0)
        .entry("ui")
        .build()
        .ok()
}

/// The synthetic Wikipedia day scaled to `peak` req/s and compressed to
/// `duration` seconds (86 400 leaves it uncompressed).
fn day_trace(seed: u64, peak: f64, duration: f64) -> LoadTrace {
    let day = generators::wikipedia_like(seed, 60.0, 86_400.0).scale_to_peak(peak);
    if duration < 86_400.0 {
        day.compress_to(duration)
    } else {
        day
    }
}

/// The headline case: the full 86 400 s day at 1M req/s peak, hybrid,
/// with the default switch threshold (32 Erlangs). Even the day's trough
/// offers every station thousands of Erlangs, and `Simulation::new`
/// evaluates the regimes at t = 0, so the run is aggregate from the
/// start: its only events are the 1,440 monitoring ticks, and no request
/// is ever an entity.
pub fn headline_case(seed: u64) -> DesScaleCase {
    DesScaleCase {
        label: "1M-day".to_owned(),
        peak: 1_000_000.0,
        duration: 86_400.0,
        hybrid: Some(HybridConfig::default()),
        seed,
    }
}

/// Runs one des-scale case and returns what it
/// measured; `None` when the model cannot be built (statically
/// impossible with the constants above — kept fallible so this module
/// stays panic-free).
pub fn run_des_scale_case(case: &DesScaleCase) -> Option<DesScaleMeasures> {
    let model = scale_model()?;
    let trace = day_trace(case.seed, case.peak, case.duration);
    let mut config =
        SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), case.seed);
    if let Some(hybrid) = case.hybrid {
        config = config.with_hybrid(hybrid);
    }
    let mut sim = Simulation::new(&model, &trace, config);

    // Static peak provisioning at ρ = 0.7 — the bench measures the core,
    // not a scaler, so capacity never binds.
    let visits = model.visit_ratios();
    for (s, spec) in model.services().iter().enumerate() {
        let rate = case.peak * visits.get(s).copied().unwrap_or(1.0);
        let n = min_instances_for_utilization(rate, spec.nominal_demand(), PROVISION_RHO);
        sim.set_supply(s, n).ok()?;
    }

    sim.run_until(trace.duration()).ok()?;
    let events = sim.events_processed();
    let regime_switches = sim.regime_switches();
    let result = sim.finish();

    let sent: u64 = result.sent_per_second.iter().sum();
    Some(DesScaleMeasures {
        sent,
        completed: result.completed,
        in_flight: result.in_flight_at_end,
        events,
        regime_switches,
        mean_response: result.mean_response_time(),
        slo_violation_percent: result.slo_violation_percent(),
        conserved: sent == result.completed + result.in_flight_at_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_case_conserves_and_counts_events() {
        // A miniature pure-vs-hybrid case, cheap enough for debug CI.
        let case = DesScaleCase {
            label: "mini".to_owned(),
            peak: 500.0,
            duration: 60.0,
            hybrid: None,
            seed: 3,
        };
        let m = run_des_scale_case(&case).expect("measures");
        assert!(m.conserved, "{m:?}");
        assert!(m.sent > 0);
        assert!(m.events > m.sent, "each request needs several events");
        assert_eq!(m.regime_switches, 0);

        // At 500 req/s peak the stations offer at most ~50 Erlangs, and
        // less at the diurnal trough the compressed day starts in — arm a
        // 1-Erlang threshold so the switch engages at t = 0 regardless of
        // diurnal phase (the headline day at 1M req/s already offers
        // thousands of Erlangs at t = 0).
        let hybrid = DesScaleCase {
            hybrid: Some(HybridConfig::new(1.0, 0.5, 64)),
            ..case
        };
        let h = run_des_scale_case(&hybrid).expect("measures");
        assert!(h.conserved, "{h:?}");
        assert!(h.regime_switches > 0);
        assert!(
            h.events < m.events / 10,
            "hybrid {} vs pure {}",
            h.events,
            m.events
        );
    }
}
