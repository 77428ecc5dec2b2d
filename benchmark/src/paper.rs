//! The paper workloads: Chamulteon driven through the simulator interval
//! by interval, then scored — the same loop as
//! `chamulteon_bench::run_experiment` with `ScalerKind::Chamulteon`, but
//! written against the public API so each layer call can be timed.

use crate::spans::Tracer;
use chamulteon::{Chamulteon, ChamulteonConfig, Observation};
use chamulteon_bench::experiment::supply_step_fn;
use chamulteon_bench::ExperimentSpec;
use chamulteon_metrics::{
    adaptation_rate_per_hour, demand_curves_with_cache, elasticity_metrics, instance_seconds,
    ScalerReport, StepFn,
};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::min_instances_for_utilization;
use chamulteon_queueing::CapacityCache;
use chamulteon_sim::{
    DeploymentProfile, ObservedSample, Simulation, SimulationConfig, SimulationResult, SloPolicy,
};
use chamulteon_workload::generators::{
    bibsonomy_like, peak_rate_for_total_instances, wikipedia_like,
};
use chamulteon_workload::LoadTrace;
use std::time::Instant;

/// The paper's four setups (Tables II–V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Table II: Wikipedia trace, Docker.
    WikipediaDocker,
    /// Table III: Wikipedia trace, VMs.
    WikipediaVm,
    /// Table IV: BibSonomy trace, small setup.
    BibsonomySmall,
    /// Table V: BibSonomy trace, large setup.
    BibsonomyLarge,
}

/// Per-service demands behind the peak sizing of `setups` (UI,
/// validation, data).
const DEMANDS: [f64; 3] = [0.059, 0.1, 0.04];

/// A seeded trace generator: `(seed, step, duration)`.
type Generator = fn(u64, f64, f64) -> LoadTrace;

impl Table {
    /// Span-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            Table::WikipediaDocker => "wikipedia_docker",
            Table::WikipediaVm => "wikipedia_vm",
            Table::BibsonomySmall => "bibsonomy_small",
            Table::BibsonomyLarge => "bibsonomy_large",
        }
    }

    /// `(generator, trace seed, duration, peak instances)` of the
    /// matching `chamulteon_bench::setups` function at seed offset 0.
    fn trace_params(self) -> (Generator, u64, f64, u32) {
        match self {
            Table::WikipediaDocker => (wikipedia_like, 20_131_201, 3_600.0, 120),
            Table::WikipediaVm => (wikipedia_like, 20_131_201, 21_600.0, 20),
            Table::BibsonomySmall => (bibsonomy_like, 20_170_401, 3_600.0, 60),
            Table::BibsonomyLarge => (bibsonomy_like, 20_170_401, 3_600.0, 120),
        }
    }

    /// This table's trace with its seed offset by `seed`: one synthetic
    /// day at 60 s resolution, compressed to the experiment duration and
    /// scaled to the peak-instance budget at ρ = 0.8.
    pub fn trace(self, seed: u64) -> LoadTrace {
        let (generator, trace_seed, duration, peak_instances) = self.trace_params();
        let day = generator(trace_seed.wrapping_add(seed), 60.0, 86_400.0);
        day.compress_to(duration)
            .scale_to_peak(peak_rate_for_total_instances(peak_instances, &DEMANDS, 0.8))
    }

    /// The experiment spec around `trace` and `model`, with the simulator
    /// seed offset by `seed`. At offset 0 it equals the `setups` function.
    pub fn spec(self, seed: u64, trace: LoadTrace, model: ApplicationModel) -> ExperimentSpec {
        let docker = DeploymentProfile::docker;
        let (name, profile, scaling_interval, hist_bucket, sim_seed) = match self {
            Table::WikipediaDocker => ("Wikipedia trace (Docker)", docker(), 60.0, 300.0, 1_u64),
            Table::WikipediaVm => (
                "Wikipedia trace (VM)",
                DeploymentProfile::vm(),
                120.0,
                1_800.0,
                2,
            ),
            Table::BibsonomySmall => ("BibSonomy trace (small setup)", docker(), 60.0, 300.0, 3),
            Table::BibsonomyLarge => ("BibSonomy trace (large setup)", docker(), 60.0, 300.0, 4),
        };
        ExperimentSpec {
            name: name.into(),
            trace,
            model,
            profile,
            slo: SloPolicy::default(),
            scaling_interval,
            seed: sim_seed.wrapping_add(seed),
            warmup_days: 2,
            hist_bucket,
        }
    }
}

/// A workload's inputs and what building them cost.
pub struct Setup {
    /// The specs, `replications` consecutive ones per table.
    pub specs: Vec<(Table, ExperimentSpec)>,
    /// Seconds spent generating traces.
    pub trace_s: f64,
    /// Seconds spent building application models.
    pub model_s: f64,
}

/// Builds `replications` specs per table at seed offset `seed`.
///
/// Every spec replays its table's trace at trace-seed offset 0, the trace
/// the `setups` function builds; only the simulator seed moves, to
/// `seed * replications + r` for replication `r`. A BibSonomy day's
/// request volume swings by ±25 % from trace seed to trace seed, so
/// seeding the traces would make host time measure the seed, not the
/// code.
pub fn setup(tables: &[Table], seed: u64, replications: u64) -> Setup {
    let mut trace_s = 0.0;
    let mut model_s = 0.0;
    let mut specs = Vec::new();
    for &table in tables {
        let start = Instant::now();
        let trace = table.trace(0);
        trace_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let model = ApplicationModel::paper_benchmark();
        model_s += start.elapsed().as_secs_f64();
        for r in 0..replications {
            let offset = seed.wrapping_mul(replications).wrapping_add(r);
            specs.push((table, table.spec(offset, trace.clone(), model.clone())));
        }
    }
    Setup {
        specs,
        trace_s,
        model_s,
    }
}

/// Everything one run of the loop produced, plus its counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The simulator's result.
    pub result: SimulationResult,
    /// The scored report.
    pub report: ScalerReport,
    /// `scale_to` calls made.
    pub actuations: u64,
    /// `scale_to` calls (and initial placements) that failed.
    pub actuation_failures: u64,
    /// Per tick, whether the controller produced a new forecast.
    pub forecasted: Vec<bool>,
    /// Degraded decisions the controller logged.
    pub degradations: u64,
}

/// The utilization a sample reports, rescaled from the running instances
/// that produced it to the provisioned count the controller is told.
fn observed_utilization(observed: &ObservedSample, provisioned: u32) -> f64 {
    if observed.utilization.is_finite() && observed.utilization >= 0.0 {
        let running = observed.instances_end.max(1);
        let provisioned = provisioned.max(1);
        (observed.utilization * f64::from(running) / f64::from(provisioned)).clamp(0.0, 1.0)
    } else {
        observed.utilization
    }
}

fn observation(observed: Option<&ObservedSample>, provisioned: u32) -> Observation {
    match observed {
        None => Observation::Missing,
        Some(o) => Observation::Raw {
            duration: o.duration,
            arrivals: o.arrivals,
            completions: o.completions,
            utilization: observed_utilization(o, provisioned),
            instances: provisioned.max(1),
            mean_response_time: o
                .mean_response_time
                .filter(|rt| !(rt.is_finite() && *rt <= 0.0)),
        },
    }
}

/// Runs Chamulteon through `spec` and scores it, recording a span around
/// every simulator, controller and metrics call.
pub fn run(spec: &ExperimentSpec, tracer: &mut Tracer) -> Outcome {
    let duration = spec.trace.duration();
    let nominal: Vec<f64> = spec
        .model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let mut actuations = 0;
    let mut actuation_failures = 0;

    tracer.enter("sim.init");
    let config = SimulationConfig::new(spec.profile.clone(), spec.slo, spec.seed)
        .with_monitoring_interval(spec.scaling_interval);
    let mut sim = Simulation::new(&spec.model, &spec.trace, config);
    let rate0 = spec.trace.rate_at(0.0);
    for (s, (&demand, &visits)) in nominal.iter().zip(&spec.model.visit_ratios()).enumerate() {
        let n0 = min_instances_for_utilization(rate0 * visits, demand, 0.6);
        if sim.set_supply(s, n0).is_err() {
            actuation_failures += 1;
        }
    }
    tracer.exit();

    tracer.enter("controller.preload");
    let mut controller = Chamulteon::new(spec.model.clone(), ChamulteonConfig::default());
    if spec.warmup_days > 0 {
        if let Ok(day) = spec.trace.resample(spec.scaling_interval) {
            let mut rates = Vec::with_capacity(day.len() * spec.warmup_days);
            for _ in 0..spec.warmup_days {
                rates.extend_from_slice(day.rates());
            }
            controller.preload_history(spec.scaling_interval, &rates);
        }
    }
    tracer.exit();

    let intervals = (duration / spec.scaling_interval).ceil() as usize;
    let mut forecasted = Vec::with_capacity(intervals);
    for k in 1..=intervals {
        tracer.begin_cycle();
        let t = (k as f64 * spec.scaling_interval).min(duration);
        tracer.enter("sim.advance");
        let advanced = sim.run_until(t);
        tracer.exit();
        if advanced.is_err() {
            tracer.end_cycle();
            break;
        }
        tracer.enter("sim.observe");
        let observed = sim.observe_interval(k - 1);
        let observations: Option<Vec<Observation>> = observed.map(|observed| {
            observed
                .iter()
                .enumerate()
                .map(|(s, o)| observation(o.as_ref(), sim.provisioned(s)))
                .collect()
        });
        tracer.exit();
        let Some(observations) = observations else {
            tracer.end_cycle();
            break;
        };
        tracer.enter("controller.tick");
        let before = controller.forecasts_made();
        let targets = controller.tick_observed(t, &observations);
        forecasted.push(controller.forecasts_made() > before);
        tracer.exit();
        tracer.enter("sim.actuate");
        for (s, &target) in targets.iter().enumerate() {
            actuations += 1;
            if sim.scale_to(s, target).is_err() {
                actuation_failures += 1;
            }
        }
        tracer.exit();
        tracer.end_cycle();
    }

    tracer.enter("sim.finish");
    let _ = sim.run_until(duration);
    let result = sim.finish();
    tracer.exit();

    tracer.enter("metrics.demand_curves");
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
        &spec.model.visit_ratios(),
        spec.slo.response_time_target,
        max_instances,
    );
    tracer.exit();

    tracer.enter("metrics.score");
    let supplies: Vec<StepFn> = result.supply.iter().map(|s| supply_step_fn(s)).collect();
    let per_service = supplies
        .iter()
        .zip(&demand)
        .map(|(supply, demand)| elasticity_metrics(demand, supply, duration))
        .collect();
    let instance_hours: f64 = supplies
        .iter()
        .map(|s| instance_seconds(s, duration))
        .sum::<f64>()
        / 3600.0;
    let adaptations_per_hour: f64 = supplies
        .iter()
        .map(|s| adaptation_rate_per_hour(s, duration))
        .sum();
    let report = ScalerReport {
        scaler: "chamulteon".to_owned(),
        per_service,
        slo_violations: result.slo_violation_percent(),
        apdex: result.apdex_percent(),
        instance_hours,
        adaptations_per_hour,
    };
    tracer.exit();

    Outcome {
        result,
        report,
        actuations,
        actuation_failures,
        forecasted,
        degradations: controller.degradation().events().len() as u64,
    }
}
