//! The Chamulteon controller: both cycles, wired together.

use crate::algorithm::{proactive_decisions, walk, SizingTrace};
use crate::config::ChamulteonConfig;
use crate::degradation::{DegradationLog, DegradationReason, Observation, SpikeGate};
use crate::fox::{ChargingModel, Fox};
use crate::snapshot::{
    ControllerSnapshot, EstimatorState, ForecastState, FoxState, HistoryState, SnapshotError,
};
use chamulteon_demand::{MonitoringSample, RollingDemandEstimator};
use chamulteon_forecast::{DriftDetector, Forecaster, TelescopeForecaster, TimeSeries};
use chamulteon_obs::{Event, EventKind, Obs, PhaseTimer, Provenance, Sizing, Winner};
use chamulteon_perfmodel::ApplicationModel;

/// The forecast currently driving the proactive cycle, with the plan the
/// proactive cycle derived from it.
///
/// Time resolution (§III-C) skips every proactive decision of an older
/// forecast for a period a newer one covers. Each forecast re-plans the
/// whole horizon from the tick it is made at, so the newest plan replaces
/// the previous one whole and is the only source of proactive candidates.
#[derive(Debug, Clone)]
struct ActiveForecast {
    /// Index into the entry history at which the forecast was made (its
    /// first predicted value corresponds to this history index).
    made_at: usize,
    /// Predicted entry arrival rates, one per future tick.
    values: Vec<f64>,
    /// Generation counter at which this forecast was produced.
    generation: u64,
    /// Whether the forecast passed the trust (MASE) threshold.
    trusted: bool,
    /// Decision time: the tick time the forecast was made at.
    start: f64,
    /// Length of each plan row's window: the sample duration at `start`.
    interval: f64,
    /// Algorithm 1's targets, one row of every service's target per
    /// forecast value, row-major.
    plan: Vec<u32>,
}

impl ActiveForecast {
    /// The plan row whose window covers `t`. Row `h`'s window starts at
    /// `start + h·interval` and ends one `interval` later (exclusive);
    /// where rounding lets two windows overlap, the later row wins, and a
    /// `t` no window covers has no row.
    fn row_at(&self, t: f64, services: usize) -> Option<&[u32]> {
        (0..self.values.len()).rev().find_map(|h| {
            let offset = f64::from(u32::try_from(h).unwrap_or(u32::MAX));
            let start = self.start + offset * self.interval;
            let end = start + self.interval;
            if start <= t && t < end {
                self.plan.get(h * services..(h + 1) * services)
            } else {
                None
            }
        })
    }
}

/// Scope resolution (§III-C): "If the proactive decision is trustable and
/// wants to scale up or down, the reactive decision is omitted.
/// Otherwise, the proactive decision is skipped."
///
/// `proactive` is a service's `(target, trusted)` from the active plan,
/// `reactive` its reactive target. The proactive target wins iff it is
/// trusted and differs from `current`; otherwise the reactive target
/// wins. Without a reactive target (the reactive cycle is disabled, as in
/// the proactive-only ablation) the proactive target applies regardless
/// of trust — there is nothing to fall back to and stale supply is
/// strictly worse. With neither, the service holds `current`. Returns
/// the chosen target and which side it came from.
pub fn resolve_scope(
    proactive: Option<(u32, bool)>,
    current: u32,
    reactive: Option<u32>,
) -> (u32, Winner) {
    match (proactive, reactive) {
        (Some((target, trusted)), Some(_)) if trusted && target != current => {
            (target, Winner::Proactive)
        }
        (_, Some(target)) => (target, Winner::Reactive),
        (Some((target, _)), None) => (target, Winner::Proactive),
        (None, None) => (current, Winner::Hold),
    }
}

/// The coordinated multi-service auto-scaler.
///
/// Drive it by calling [`tick`](Chamulteon::tick) once per scaling
/// interval with one [`MonitoringSample`] per service; it returns the
/// target instance count per service. See the crate docs for the overall
/// architecture.
#[derive(Debug, Clone)]
pub struct Chamulteon {
    model: ApplicationModel,
    config: ChamulteonConfig,
    demand_estimators: Vec<RollingDemandEstimator>,
    entry_history: Option<TimeSeries>,
    forecaster: TelescopeForecaster,
    drift: DriftDetector,
    forecast_generation: u64,
    active_forecast: Option<ActiveForecast>,
    fox: Option<Fox>,
    forecasts_made: u64,
    // Degradation-ladder state.
    degradation: DegradationLog,
    last_good_samples: Vec<Option<MonitoringSample>>,
    spike_gates: Vec<SpikeGate>,
    last_targets: Option<Vec<u32>>,
    /// Observability bundle: event recorder + metrics registry. Disabled
    /// by default, in which case every emission point is one branch.
    obs: Obs,
    /// 1-based control-cycle counter (ties trace events to cycles).
    ticks: u64,
}

/// Monitoring windows each service's demand estimator keeps.
const DEMAND_WINDOW: usize = 5;
/// EWMA smoothing factor of the demand estimates.
const DEMAND_SMOOTHING: f64 = 0.4;
/// MASE drift ratio that triggers an early re-forecast (§III-A1).
const DRIFT_THRESHOLD: f64 = 1.5;

impl Chamulteon {
    /// Creates a controller for `model`.
    pub fn new(model: ApplicationModel, config: ChamulteonConfig) -> Self {
        let config = config.sanitized();
        let demand_estimators = model
            .services()
            .iter()
            .map(|s| {
                RollingDemandEstimator::new(DEMAND_WINDOW, DEMAND_SMOOTHING, s.nominal_demand())
            })
            .collect();
        Chamulteon {
            drift: DriftDetector::new(DRIFT_THRESHOLD),
            demand_estimators,
            entry_history: None,
            forecaster: TelescopeForecaster::default(),
            forecast_generation: 0,
            active_forecast: None,
            fox: None,
            forecasts_made: 0,
            degradation: DegradationLog::new(),
            last_good_samples: vec![None; model.service_count()],
            spike_gates: vec![SpikeGate::new(); model.service_count()],
            last_targets: None,
            obs: Obs::disabled(),
            ticks: 0,
            model,
            config,
        }
    }

    /// Attaches an observability bundle (builder form): decision
    /// provenance and cycle events flow to its recorder, counters and
    /// phase timings to its metrics registry. Instrumentation never
    /// changes a decision (pinned by the bit-identity tests).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the observability bundle in place.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The observability bundle in use.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches the FOX cost-awareness component ("This component, if
    /// activated, reviews all decisions proposed by the Controller").
    pub fn with_fox(mut self, charging: ChargingModel) -> Self {
        self.fox = Some(Fox::new(charging, self.model.service_count()));
        self
    }

    /// The application model being scaled.
    pub fn model(&self) -> &ApplicationModel {
        &self.model
    }

    /// The active configuration (sanitized).
    pub fn config(&self) -> &ChamulteonConfig {
        &self.config
    }

    /// The current per-service demand estimates in seconds per request.
    pub fn estimated_demands(&self) -> Vec<f64> {
        self.demand_estimators
            .iter()
            .map(|e| e.current_demand())
            .collect()
    }

    /// How many forecasts have been produced so far (the drift logic makes
    /// this far smaller than the tick count).
    pub fn forecasts_made(&self) -> u64 {
        self.forecasts_made
    }

    /// Total billed instance seconds, when FOX is attached.
    pub fn billed_instance_seconds(&self, now: f64) -> Option<f64> {
        self.fox.as_ref().map(|f| f.billed_instance_seconds(now))
    }

    /// Seeds the arrival-rate history with pre-experiment observations —
    /// the paper's assumption (i): "To obtain good forecasts with a model
    /// of the seasonal pattern, the availability of two days of historical
    /// data is required" (§III-D). `interval` is the sampling step of the
    /// provided rates and must match the later tick interval.
    ///
    /// Non-finite rates are skipped. Calling this after ticking resets the
    /// history to the preloaded values.
    pub fn preload_history(&mut self, interval: f64, rates: &[f64]) {
        let Ok(mut history) = TimeSeries::from_values(interval.max(1e-9), vec![]) else {
            return;
        };
        for &r in rates {
            if r.is_finite() {
                let _ = history.push(r.max(0.0));
            }
        }
        self.entry_history = Some(history);
        self.active_forecast = None;
    }

    /// The controller's record of every degraded decision so far (see
    /// [`crate::degradation`]).
    pub fn degradation(&self) -> &DegradationLog {
        &self.degradation
    }

    /// Takes the degradation log, leaving an empty one — for merging into
    /// an experiment-level record.
    pub fn take_degradation(&mut self) -> DegradationLog {
        std::mem::take(&mut self.degradation)
    }

    /// Captures every piece of mutable state that can influence a future
    /// decision into a [`ControllerSnapshot`] (see [`crate::snapshot`]
    /// for what is and is not included). Pure read: taking a snapshot
    /// never changes subsequent behavior.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            services: self.model.service_count(),
            ticks: self.ticks,
            forecast_generation: self.forecast_generation,
            forecasts_made: self.forecasts_made,
            estimators: self
                .demand_estimators
                .iter()
                .map(|e| EstimatorState {
                    capacity: e.window_capacity(),
                    smoothing: e.smoothing(),
                    current: e.current_demand(),
                    initialized: e.is_initialized(),
                    window: e.window_samples(),
                })
                .collect(),
            entry_history: self.entry_history.as_ref().map(|h| HistoryState {
                step: h.step(),
                start: h.start(),
                values: h.values().to_vec(),
            }),
            active_forecast: self.active_forecast.as_ref().map(|f| ForecastState {
                made_at: f.made_at,
                generation: f.generation,
                trusted: f.trusted,
                start: f.start,
                interval: f.interval,
                values: f.values.clone(),
                plan: f.plan.clone(),
            }),
            fox: self.fox.as_ref().map(|f| FoxState {
                model: f.model().clone(),
                release_window: f.release_window(),
                billed_released: f.billed_released(),
                leases: f.lease_books().to_vec(),
            }),
            spike_gates: self.spike_gates.iter().map(SpikeGate::state).collect(),
            last_good_samples: self.last_good_samples.clone(),
            last_targets: self.last_targets.clone(),
            degradation: self.degradation.events().to_vec(),
        }
    }

    /// Rebuilds a controller from a snapshot: the recovery-equivalence
    /// contract is that the result makes bit-identical decisions (FOX
    /// ledger included) to the controller the snapshot was taken from.
    /// `model` and `config` must be the ones the crashed controller ran
    /// with — they are deliberately *not* part of the snapshot, so a
    /// deployment can keep them in configuration management rather than
    /// in every checkpoint. The obs bundle starts disabled
    /// ([`set_obs`](Chamulteon::set_obs) re-attaches a sink).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Inconsistent`] when the snapshot's service count
    /// disagrees with `model`, an estimator window capacity differs from
    /// the controller's demand window of 5 samples, its entry history
    /// fails validation, or its active forecast is one
    /// [`snapshot`](Chamulteon::snapshot) never writes: without an entry
    /// history, made past its end, of another
    /// generation than the snapshot's, with a value that is not a finite,
    /// non-negative rate, or with a plan that is not one row of every
    /// service's target per value.
    pub fn restore(
        model: ApplicationModel,
        config: ChamulteonConfig,
        snapshot: &ControllerSnapshot,
    ) -> Result<Self, SnapshotError> {
        let services = model.service_count();
        if snapshot.services != services {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "snapshot of {} services restored into a {services}-service model",
                    snapshot.services
                ),
            });
        }
        // The active forecast is the last one made: at a point of the
        // entry history, together with the generation bump, with the
        // finite, non-negative values of a `Forecast` and one plan row
        // per value.
        let generation = snapshot.forecast_generation;
        if let Some(f) = &snapshot.active_forecast {
            let problem = match &snapshot.entry_history {
                None => Some("an active forecast without an entry history".to_owned()),
                Some(h) if f.made_at > h.values.len() => Some(format!(
                    "active forecast made at {} of a {}-point entry history",
                    f.made_at,
                    h.values.len()
                )),
                Some(_) if f.generation != generation => Some(format!(
                    "active forecast of generation {} at forecast generation {generation}",
                    f.generation
                )),
                Some(_) if f.values.len().checked_mul(services) != Some(f.plan.len()) => {
                    Some(format!(
                        "active forecast plan of {} targets for {} values of {services} services",
                        f.plan.len(),
                        f.values.len()
                    ))
                }
                Some(_) => f
                    .values
                    .iter()
                    .find(|v| !(v.is_finite() && **v >= 0.0))
                    .map(|v| format!("active forecast value {v} is not an arrival rate")),
            };
            if let Some(message) = problem {
                return Err(SnapshotError::Inconsistent { message });
            }
        }
        // Every per-service section holds `snapshot.services` entries:
        // `decode` checks it, and `snapshot` builds it that way.
        let entry_history = match &snapshot.entry_history {
            None => None,
            Some(h) => Some(
                TimeSeries::with_start(h.step, h.start, h.values.clone()).map_err(|e| {
                    SnapshotError::Inconsistent {
                        message: format!("invalid entry history: {e}"),
                    }
                })?,
            ),
        };

        let mut controller = Chamulteon::new(model, config);
        // `new` sizes every window to `DEMAND_WINDOW`; a snapshot declaring
        // any other capacity was not taken by this controller.
        if let Some(e) = snapshot
            .estimators
            .iter()
            .find(|e| e.capacity != DEMAND_WINDOW)
        {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "estimator window capacity {} differs from the controller's {DEMAND_WINDOW}",
                    e.capacity
                ),
            });
        }
        controller.demand_estimators = snapshot
            .estimators
            .iter()
            .map(|e| {
                RollingDemandEstimator::restore(
                    e.capacity,
                    e.smoothing,
                    e.current,
                    e.initialized,
                    e.window.clone(),
                )
            })
            .collect();
        controller.entry_history = entry_history;
        controller.active_forecast = snapshot.active_forecast.as_ref().map(|f| ActiveForecast {
            made_at: f.made_at,
            values: f.values.clone(),
            generation: f.generation,
            trusted: f.trusted,
            start: f.start,
            interval: f.interval,
            plan: f.plan.clone(),
        });
        controller.forecast_generation = snapshot.forecast_generation;
        controller.forecasts_made = snapshot.forecasts_made;
        controller.fox = snapshot.fox.as_ref().map(|f| {
            Fox::restore(
                f.model.clone(),
                f.release_window,
                f.leases.clone(),
                f.billed_released,
            )
        });
        controller.spike_gates = snapshot
            .spike_gates
            .iter()
            .map(|&(last_rate, streak)| SpikeGate::restore(last_rate, streak))
            .collect();
        controller.last_good_samples = snapshot.last_good_samples.clone();
        controller.last_targets = snapshot.last_targets.clone();
        let mut degradation = DegradationLog::new();
        for event in &snapshot.degradation {
            degradation.record(event.time, event.reason);
        }
        controller.degradation = degradation;
        controller.ticks = snapshot.ticks;
        Ok(controller)
    }

    /// Records one degradation rung in the log AND on the obs channel
    /// (a `degradation` trace event plus the `degradation.events`
    /// counter).
    fn degrade(&mut self, time: f64, reason: DegradationReason) {
        self.obs.record_with(|| {
            let kind = EventKind::Degradation {
                code: reason.as_code().to_owned(),
                attempt: reason.attempt(),
            };
            match reason.service() {
                Some(service) => Event::service(time, service, kind),
                None => Event::cycle(time, kind),
            }
        });
        self.obs.metrics().increment("degradation.events");
        self.degradation.record(time, reason);
    }

    /// The active forecast's `(rate, generation, trusted)` for the
    /// upcoming interval, when one is in play. Past the horizon the last
    /// predicted value is reported (no plan row covers the tick by then,
    /// but provenance should still name what the controller last
    /// believed).
    fn active_forecast_now(&self) -> Option<(f64, u64, bool)> {
        let forecast = self.active_forecast.as_ref()?;
        let history_len = self
            .entry_history
            .as_ref()
            .map(TimeSeries::len)
            .unwrap_or(forecast.made_at);
        let elapsed = history_len.saturating_sub(forecast.made_at);
        let rate = forecast
            .values
            .get(elapsed)
            .or_else(|| forecast.values.last())
            .copied()?;
        Some((rate, forecast.generation, forecast.trusted))
    }

    /// One scaling round at time `time` with one monitoring sample per
    /// service (the paper's external monitoring component provides these).
    /// Returns the absolute target instance count per service.
    ///
    /// # Panics
    ///
    /// Panics if `samples` does not contain one entry per service.
    pub fn tick(&mut self, time: f64, samples: &[MonitoringSample]) -> Vec<u32> {
        assert_eq!(
            samples.len(),
            self.model.service_count(),
            "one monitoring sample per service required"
        );
        for (held, sample) in self.last_good_samples.iter_mut().zip(samples) {
            *held = Some(*sample);
        }
        for (gate, sample) in self.spike_gates.iter_mut().zip(samples) {
            gate.reset_to(sample.arrival_rate());
        }
        let fresh = vec![true; samples.len()];
        let targets = self.decide(time, samples, &fresh, true);
        self.last_targets = Some(targets.clone());
        targets
    }

    /// One scaling round under *possibly degraded* monitoring: each
    /// service's input is an [`Observation`] that may be missing, already
    /// validated, or raw untrusted readings. This is the panic-free entry
    /// point of the degradation ladder (see [`crate::degradation`] for the
    /// rungs); every degraded step is recorded in
    /// [`degradation`](Chamulteon::degradation).
    ///
    /// With all-valid observations this behaves exactly like
    /// [`tick`](Chamulteon::tick).
    ///
    /// # Panics
    ///
    /// Panics if `observations` does not contain one entry per service.
    pub fn tick_observed(&mut self, time: f64, observations: &[Observation]) -> Vec<u32> {
        assert_eq!(
            observations.len(),
            self.model.service_count(),
            "one observation per service required"
        );
        let mut samples = Vec::with_capacity(observations.len());
        let mut fresh = Vec::with_capacity(observations.len());
        for (service, observation) in observations.iter().enumerate() {
            // Rung 1: validate at the boundary.
            let validated = match *observation {
                Observation::Sample(sample) => Some(sample),
                Observation::Missing => None,
                Observation::Raw {
                    duration,
                    arrivals,
                    completions,
                    utilization,
                    instances,
                    mean_response_time,
                } => match MonitoringSample::from_observed(
                    duration,
                    arrivals,
                    completions,
                    utilization,
                    instances,
                    mean_response_time,
                ) {
                    // Rung 1b: a field-valid reading whose arrival rate is
                    // an implausible spike would poison the demand
                    // estimator; the gate holds it out unless it persists.
                    Ok(sample) if !self.spike_gates[service].admit(sample.arrival_rate()) => {
                        self.degrade(time, DegradationReason::SampleImplausible { service });
                        None
                    }
                    Ok(sample) => Some(sample),
                    Err(_) => {
                        self.degrade(time, DegradationReason::SampleQuarantined { service });
                        None
                    }
                },
            };
            match validated {
                Some(sample) => {
                    self.last_good_samples[service] = Some(sample);
                    samples.push(sample);
                    fresh.push(true);
                }
                // Rungs 2 and 3: hold the last good sample, else
                // synthesize a quiet one.
                None => {
                    let fallback = match self.last_good_samples[service] {
                        Some(held) => {
                            self.degrade(time, DegradationReason::SampleHeld { service });
                            held
                        }
                        None => {
                            self.degrade(time, DegradationReason::SampleSynthesized { service });
                            MonitoringSample::zero(
                                60.0,
                                self.model.service(service).min_instances(),
                            )
                        }
                    };
                    samples.push(fallback);
                    fresh.push(false);
                }
            }
        }

        // Rung 5: with nothing fresh at all, re-issue the previous targets
        // rather than scaling on held or synthetic data.
        if fresh.iter().all(|&f| !f) {
            if let Some(last) = self.last_targets.clone() {
                return self.hold_cycle(time, last);
            }
        }

        // Rung 4: a stale entry rate stays out of the forecast history.
        let entry_fresh = fresh[self.model.entry()];
        if !entry_fresh {
            self.degrade(time, DegradationReason::EntryRateUnusable);
        }
        let targets = self.decide(time, &samples, &fresh, entry_fresh);
        self.last_targets = Some(targets.clone());
        targets
    }

    /// Ladder rung 5 as a full (instrumented) cycle: re-issues `last`
    /// unchanged, with a `cycle_start`, the `held_last_decision` rung and
    /// one hold-provenance record per service on the trace.
    fn hold_cycle(&mut self, time: f64, last: Vec<u32>) -> Vec<u32> {
        self.ticks += 1;
        let tick = self.ticks;
        self.obs.record_with(|| {
            Event::cycle(
                time,
                EventKind::CycleStart {
                    tick,
                    measured_rate: f64::NAN,
                    entry_fresh: false,
                },
            )
        });
        self.degrade(time, DegradationReason::HeldLastDecision);
        if self.obs.tracing() {
            let demands = self.estimated_demands();
            let forecast_now = self.active_forecast_now();
            for (service, &target) in last.iter().enumerate() {
                let demand = demands.get(service).copied().unwrap_or(f64::NAN);
                self.obs.record_with(|| {
                    Event::service(
                        time,
                        service,
                        EventKind::Decision(Provenance {
                            tick,
                            measured_rate: f64::NAN,
                            offered_rate: None,
                            demand,
                            forecast_rate: forecast_now.map(|(rate, _, _)| rate),
                            forecast_generation: forecast_now.map(|(_, generation, _)| generation),
                            forecast_trusted: forecast_now.map(|(_, _, trusted)| trusted),
                            winner: Winner::Hold,
                            sizing: None,
                            fox_suppressed: None,
                            proposed: target,
                            target,
                        }),
                    )
                });
            }
        }
        self.obs.metrics().count(
            "decisions.hold",
            u64::try_from(last.len()).unwrap_or(u64::MAX),
        );
        last
    }

    /// The shared decision core of [`tick`](Chamulteon::tick) and
    /// [`tick_observed`](Chamulteon::tick_observed). `fresh[s]` marks
    /// samples measured this tick (stale/synthetic ones are excluded from
    /// the demand estimators); `entry_fresh` gates the forecast history.
    fn decide(
        &mut self,
        time: f64,
        samples: &[MonitoringSample],
        fresh: &[bool],
        entry_fresh: bool,
    ) -> Vec<u32> {
        self.ticks += 1;
        let tick = self.ticks;
        let tracing = self.obs.tracing();
        let mut timer = PhaseTimer::start(self.obs.metrics().enabled());

        // 1. Feed the demand estimators (fresh measurements only).
        for ((estimator, sample), &is_fresh) in
            self.demand_estimators.iter_mut().zip(samples).zip(fresh)
        {
            if is_fresh {
                estimator.observe(*sample);
            }
        }
        let demands = self.estimated_demands();
        let instances: Vec<u32> = samples.iter().map(|s| s.instances()).collect();

        // 2. Record the entry arrival rate.
        let entry = self.model.entry();
        let interval = samples[entry].duration();
        let entry_rate = samples[entry].arrival_rate();
        if self.entry_history.is_none() {
            // Monitoring may report a degenerate sample duration; fall back
            // to a 1 s step rather than rejecting the observation.
            let step = if interval.is_finite() && interval > 0.0 {
                interval
            } else {
                1.0
            };
            self.entry_history = TimeSeries::from_values(step, vec![]).ok();
        }
        if entry_fresh {
            if let Some(history) = self.entry_history.as_mut() {
                let _ = history.push(entry_rate);
            }
        }

        self.obs.record_with(|| {
            Event::cycle(
                time,
                EventKind::CycleStart {
                    tick,
                    measured_rate: entry_rate,
                    entry_fresh,
                },
            )
        });
        if tracing {
            for (service, (&demand, &is_fresh)) in demands.iter().zip(fresh).enumerate() {
                self.obs.record_with(|| {
                    Event::service(
                        time,
                        service,
                        EventKind::DemandEstimate {
                            demand,
                            fresh: is_fresh,
                        },
                    )
                });
            }
        }
        timer.lap(self.obs.metrics(), "cycle.demand_us");

        // 3. Proactive cycle.
        if self.config.proactive_enabled {
            self.run_proactive_cycle(time, interval, &demands, &instances);
        }
        timer.lap(self.obs.metrics(), "cycle.proactive_us");

        // 4. Reactive cycle. Traced and untraced runs execute the same
        // walk; tracing only records each service's offered rate and
        // hold-band verdict (pinned by the bit-identity tests).
        let mut reactive_trace =
            (tracing && self.config.reactive_enabled).then(SizingTrace::default);
        let reactive = self.config.reactive_enabled.then(|| {
            walk(
                &self.model,
                entry_rate,
                &demands,
                &instances,
                &self.config,
                reactive_trace.as_mut(),
            )
        });
        timer.lap(self.obs.metrics(), "cycle.reactive_us");

        if let Some(trace) = &reactive_trace {
            let solved = trace
                .sizing
                .iter()
                .filter(|&&s| s == Sizing::Solved)
                .count();
            let held = trace.sizing.len() - solved;
            self.obs.record_with(|| {
                Event::cycle(
                    time,
                    EventKind::CapacitySolve {
                        solved: u64::try_from(solved).unwrap_or(u64::MAX),
                        held: u64::try_from(held).unwrap_or(u64::MAX),
                    },
                )
            });
        }

        // 5. Conflict resolution + 6. FOX review.
        let forecast_now = self.active_forecast_now();
        let service_count = self.model.service_count();
        let plan = self
            .active_forecast
            .as_ref()
            .and_then(|f| f.row_at(time, service_count).map(|row| (row, f.trusted)));
        let mut targets = Vec::with_capacity(service_count);
        for service in 0..service_count {
            let current = instances[service];
            let proactive =
                plan.and_then(|(row, trusted)| row.get(service).map(|&target| (target, trusted)));
            let reactive = reactive.as_ref().map(|walked| walked[service]);
            let (chosen, winner) = resolve_scope(proactive, current, reactive);
            if tracing {
                self.obs.record_with(|| {
                    Event::service(
                        time,
                        service,
                        EventKind::ConflictResolution {
                            proactive: proactive.map(|(target, _)| target),
                            proactive_trusted: proactive.map(|(_, trusted)| trusted),
                            reactive,
                            winner,
                            chosen,
                        },
                    )
                });
            }
            let (reviewed, fox_suppressed) = match &mut self.fox {
                Some(fox) => {
                    let reviewed = fox.review(service, time, current, chosen);
                    if tracing {
                        let paid_remaining = fox.min_paid_fraction(service, time);
                        self.obs.record_with(|| {
                            Event::service(
                                time,
                                service,
                                EventKind::FoxVerdict {
                                    proposed: chosen,
                                    reviewed,
                                    suppressed: reviewed != chosen,
                                    paid_remaining,
                                },
                            )
                        });
                    }
                    (reviewed, Some(reviewed != chosen))
                }
                None => (chosen, None),
            };
            let target = reviewed.clamp(
                self.model.service(service).min_instances(),
                self.model.service(service).max_instances(),
            );
            self.obs.metrics().increment(match winner {
                Winner::Proactive => "decisions.proactive",
                Winner::Reactive => "decisions.reactive",
                Winner::Hold => "decisions.hold",
            });
            if fox_suppressed == Some(true) {
                self.obs.metrics().increment("fox.suppressed");
            }
            if tracing {
                let (offered_rate, sizing) = reactive_trace
                    .as_ref()
                    .map(|trace| {
                        (
                            trace.offered.get(service).copied(),
                            trace.sizing.get(service).copied(),
                        )
                    })
                    .unwrap_or((None, None));
                let demand = demands.get(service).copied().unwrap_or(f64::NAN);
                self.obs.record_with(|| {
                    Event::service(
                        time,
                        service,
                        EventKind::Decision(Provenance {
                            tick,
                            measured_rate: entry_rate,
                            offered_rate,
                            demand,
                            forecast_rate: forecast_now.map(|(rate, _, _)| rate),
                            forecast_generation: forecast_now.map(|(_, generation, _)| generation),
                            forecast_trusted: forecast_now.map(|(_, _, trusted)| trusted),
                            winner,
                            sizing,
                            fox_suppressed,
                            proposed: chosen,
                            target,
                        }),
                    )
                });
            }
            targets.push(target);
        }
        timer.lap(self.obs.metrics(), "cycle.resolve_us");
        targets
    }

    /// Runs the proactive cycle: re-forecasts when needed (forecast
    /// exhausted or drifted) and plans the next `FORECAST_HORIZON`
    /// intervals from the new forecast.
    fn run_proactive_cycle(
        &mut self,
        time: f64,
        interval: f64,
        demands: &[f64],
        instances: &[u32],
    ) {
        /// Future scaling intervals each forecast plans for.
        const FORECAST_HORIZON: usize = 8;
        /// Entry-history points before the proactive cycle forecasts at
        /// all (the paper requires seasonal history; with too little,
        /// "forecasts contain only trend and noise components", §III-D).
        const MIN_HISTORY: usize = 12;
        let Some(history) = &self.entry_history else {
            return;
        };
        if history.len() < MIN_HISTORY {
            return;
        }

        let needs_forecast = match &self.active_forecast {
            None => true,
            Some(f) => {
                let elapsed = history.len().saturating_sub(f.made_at);
                if elapsed >= f.values.len() {
                    true // exhausted
                } else if elapsed == 0 {
                    false
                } else {
                    // Drift check against the rates observed since.
                    let observed = &history.values()[f.made_at..];
                    let predicted = &f.values[..elapsed.min(f.values.len())];
                    self.drift
                        .has_drifted(&history.values()[..f.made_at], observed, predicted)
                }
            }
        };
        if !needs_forecast {
            return;
        }

        let Ok(forecast) = self.forecaster.forecast(history, FORECAST_HORIZON) else {
            // Ladder: the proactive cycle sits this round out; the
            // reactive cycle (or the held decision) still covers it.
            self.degrade(time, DegradationReason::ForecastFailed);
            return;
        };
        self.forecasts_made += 1;
        self.forecast_generation += 1;
        let made_at = history.len();
        let trusted = forecast
            .in_sample_mase()
            .map(|m| m <= self.config.trust_threshold)
            .unwrap_or(false);
        let generation = self.forecast_generation;
        let mase = forecast.in_sample_mase();
        self.obs.record_with(|| {
            Event::cycle(
                time,
                EventKind::Forecast {
                    generation,
                    horizon: u64::try_from(FORECAST_HORIZON).unwrap_or(u64::MAX),
                    trusted,
                    mase,
                },
            )
        });
        self.obs.metrics().increment("forecasts.made");

        // Chain decisions across the horizon: each row starts from the
        // previous row's targets.
        let mut current = instances.to_vec();
        let mut plan = Vec::with_capacity(forecast.values().len() * current.len());
        for &rate in forecast.values() {
            current = proactive_decisions(&self.model, rate, demands, &current, &self.config);
            plan.extend_from_slice(&current);
        }
        self.active_forecast = Some(ActiveForecast {
            made_at,
            values: forecast.values().to_vec(),
            generation,
            trusted,
            start: time,
            interval,
            plan,
        });
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test fixtures cast freely"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(interval: f64, rate: f64, demand: f64, n: u32) -> MonitoringSample {
        let arrivals = (rate * interval).round() as u64;
        let util = (rate * demand / f64::from(n)).min(1.0);
        // A saturated service completes at most its capacity.
        let capacity = f64::from(n) / demand;
        let completions = (rate.min(capacity) * interval).round() as u64;
        MonitoringSample::new(interval, arrivals, util, n, None)
            .unwrap()
            .with_completions(completions)
    }

    fn samples_for(rate: f64, instances: &[u32]) -> Vec<MonitoringSample> {
        let demands = [0.059, 0.1, 0.04];
        (0..3)
            .map(|i| sample(60.0, rate, demands[i], instances[i]))
            .collect()
    }

    fn controller(config: ChamulteonConfig) -> Chamulteon {
        Chamulteon::new(ApplicationModel::paper_benchmark(), config)
    }

    #[test]
    fn reactive_scales_all_tiers_in_one_round() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        let targets = c.tick(60.0, &samples_for(100.0, &[1, 1, 1]));
        // Sized for 100 req/s with ρ_target 0.6.
        assert_eq!(targets, vec![10, 17, 7]);
    }

    #[test]
    fn holds_steady_inside_band() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        // 100 req/s on [10, 17, 7]: utilizations 0.59, 0.59, 0.57 —
        // inside [0.45, 0.75).
        let targets = c.tick(60.0, &samples_for(100.0, &[10, 17, 7]));
        assert_eq!(targets, vec![10, 17, 7]);
    }

    #[test]
    fn scales_down_when_idle() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        let targets = c.tick(60.0, &samples_for(1.0, &[10, 17, 7]));
        assert_eq!(targets, vec![1, 1, 1]);
    }

    #[test]
    fn demand_estimates_follow_observations() {
        let mut c = controller(ChamulteonConfig::default());
        // Nominal demand of service 1 is 0.1; observe a consistent 0.2.
        for k in 0..10 {
            let mut s = samples_for(50.0, &[10, 17, 7]);
            s[1] = MonitoringSample::new(60.0, 3000, (50.0 * 0.2 / 17.0_f64).min(1.0), 17, None)
                .unwrap();
            let _ = c.tick(60.0 * (k as f64 + 1.0), &s);
        }
        let demands = c.estimated_demands();
        assert!(
            (demands[1] - 0.2).abs() < 0.02,
            "estimated {} instead of 0.2",
            demands[1]
        );
    }

    #[test]
    fn proactive_cycle_needs_history() {
        let mut c = controller(ChamulteonConfig::proactive_only());
        // Fewer ticks than MIN_HISTORY: no forecast, no decisions — the
        // controller keeps the current supply.
        let targets = c.tick(60.0, &samples_for(100.0, &[2, 2, 2]));
        assert_eq!(targets, vec![2, 2, 2]);
        assert_eq!(c.forecasts_made(), 0);
    }

    #[test]
    fn proactive_cycle_forecasts_after_history_builds() {
        let mut c = controller(ChamulteonConfig::proactive_only());
        for k in 0..14 {
            let _ = c.tick(60.0 * (k as f64 + 1.0), &samples_for(50.0, &[5, 9, 4]));
        }
        assert!(c.forecasts_made() >= 1);
    }

    #[test]
    fn stable_load_does_not_reforecast_every_tick() {
        let mut c = controller(ChamulteonConfig::default());
        for k in 0..40 {
            let _ = c.tick(60.0 * (k as f64 + 1.0), &samples_for(50.0, &[5, 9, 4]));
        }
        let made = c.forecasts_made();
        // 40 ticks, horizon 8: roughly every 8 ticks once history exists.
        assert!(made >= 2, "made {made}");
        assert!(made <= 8, "made {made} — drift logic not damping");
    }

    #[test]
    fn load_jump_triggers_drift_reforecast() {
        let mut c = controller(ChamulteonConfig::default());
        for k in 0..20 {
            let _ = c.tick(60.0 * (k as f64 + 1.0), &samples_for(50.0, &[5, 9, 4]));
        }
        let before = c.forecasts_made();
        // Massive sustained jump: the active forecast drifts.
        for k in 20..24 {
            let _ = c.tick(60.0 * (k as f64 + 1.0), &samples_for(400.0, &[5, 9, 4]));
        }
        assert!(c.forecasts_made() > before);
    }

    #[test]
    fn trusted_proactive_overrides_reactive() {
        // Build a perfectly predictable sawtooth so the forecast is
        // trusted, then check that the stored proactive decision is used.
        let mut c = controller(ChamulteonConfig::default());
        let mut n = [3u32, 5, 2];
        for k in 0..60 {
            let rate = 40.0 + 20.0 * ((k % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
            let targets = c.tick(60.0 * (k as f64 + 1.0), &samples_for(rate, &n));
            n = [targets[0], targets[1], targets[2]];
        }
        assert!(c.forecasts_made() >= 1);
        // Whatever path was taken, the supply tracks the demand band.
        let rate = 40.0;
        let expected_validation = (rate * 0.1 / 0.6_f64).ceil() as u32;
        assert!(
            (i64::from(n[1]) - i64::from(expected_validation)).abs() <= 3,
            "validation at {} vs expected ~{}",
            n[1],
            expected_validation
        );
    }

    #[test]
    fn trusted_proactive_that_scales_overrides_reactive() {
        assert_eq!(
            resolve_scope(Some((5, true)), 2, Some(3)),
            (5, Winner::Proactive)
        );
    }

    #[test]
    fn untrusted_proactive_is_skipped() {
        assert_eq!(
            resolve_scope(Some((5, false)), 2, Some(3)),
            (3, Winner::Reactive)
        );
    }

    #[test]
    fn proactive_noop_defers_to_reactive() {
        // Trusted but target == current: it does not "want to scale".
        assert_eq!(
            resolve_scope(Some((2, true)), 2, Some(4)),
            (4, Winner::Reactive)
        );
    }

    #[test]
    fn resolve_without_reactive_uses_proactive_regardless_of_trust() {
        assert_eq!(
            resolve_scope(Some((5, true)), 2, None),
            (5, Winner::Proactive)
        );
        // Untrusted but no alternative: still applied.
        assert_eq!(
            resolve_scope(Some((5, false)), 2, None),
            (5, Winner::Proactive)
        );
        // Nothing at all: the service holds its count.
        assert_eq!(resolve_scope(None, 2, None), (2, Winner::Hold));
    }

    /// One proactive decision as the multi-generation store kept it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct StoredDecision {
        service: usize,
        target: u32,
        start: f64,
        end: f64,
        generation: u64,
        trusted: bool,
    }

    /// Time resolution one decision at a time, as the store applied it:
    /// a new decision evicts every stored decision of its service whose
    /// window overlaps its own and whose generation is strictly older,
    /// then is pushed.
    fn oracle_add(store: &mut Vec<StoredDecision>, batch: &[StoredDecision]) {
        for new in batch {
            store.retain(|old| {
                let overlaps =
                    old.service == new.service && old.start < new.end && new.start < old.end;
                !(overlaps && old.generation < new.generation)
            });
            store.push(*new);
        }
    }

    /// The store's candidate for `service` at `t`: the covering decision
    /// of the newest generation, the last one on a tie.
    fn oracle_at(store: &[StoredDecision], service: usize, t: f64) -> Option<StoredDecision> {
        store
            .iter()
            .filter(|d| d.service == service && d.start <= t && t < d.end)
            .max_by_key(|d| d.generation)
            .copied()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The plan row against the multi-generation store it replaced,
        /// fed the controller's forecasts: one generation per forecast, H
        /// rows of S targets from the forecast tick, a constant interval
        /// of n + 0.1 s (no binary fraction, so neighbouring windows
        /// overlap or part by rounding), and re-forecasts mid-horizon, at
        /// exhaustion (gap 0) or past it (a failed forecast). At every
        /// tick time k·Δ, after expired decisions are dropped, each
        /// service's store candidate is the plan row's target.
        #[test]
        fn plan_rows_match_the_multi_generation_store(
            services in 1usize..4,
            rows in 1usize..10,
            whole_seconds in 0u32..600,
            forecasts in prop::collection::vec((0usize..12, any::<bool>()), 1..8),
        ) {
            let interval = f64::from(whole_seconds) + 0.1;
            let mut store = Vec::new();
            let mut tick = 0u32;
            for (generation, (gap, trusted)) in (1u64..).zip(forecasts) {
                let gap = if gap == 0 { rows } else { gap };
                let start = f64::from(tick) * interval;
                let mut batch = Vec::new();
                let mut plan = Vec::new();
                for h in 0..rows {
                    let offset = f64::from(u32::try_from(h).unwrap_or(u32::MAX));
                    let row_start = start + offset * interval;
                    for service in 0..services {
                        let target = (generation as u32 * 100 + h as u32) * 10 + service as u32;
                        plan.push(target);
                        batch.push(StoredDecision {
                            service,
                            target,
                            start: row_start,
                            end: row_start + interval,
                            generation,
                            trusted,
                        });
                    }
                }
                oracle_add(&mut store, &batch);
                let forecast = ActiveForecast {
                    made_at: 0,
                    values: vec![0.0; rows],
                    generation,
                    trusted,
                    start,
                    interval,
                    plan,
                };
                for _ in 0..gap {
                    let t = f64::from(tick) * interval;
                    store.retain(|d| d.end > t);
                    let row = forecast.row_at(t, services);
                    for service in 0..services {
                        let want = oracle_at(&store, service, t);
                        prop_assert_eq!(
                            want.map(|d| (d.target, d.generation, d.trusted)),
                            row.map(|row| (row[service], generation, trusted)),
                            "tick {} (t = {}), service {}", tick, t, service
                        );
                    }
                    tick += 1;
                }
            }
        }
    }

    #[test]
    fn a_shorter_reforecast_leaves_no_candidate_past_its_horizon() {
        let season =
            |k: usize| 50.0 + 20.0 * ((k % 12) as f64 / 12.0 * std::f64::consts::TAU).sin();
        let samples = |interval: f64, rate: f64| -> Vec<MonitoringSample> {
            let demands = [0.059, 0.1, 0.04];
            let instances = [5, 9, 4];
            (0..3)
                .map(|i| sample(interval, rate, demands[i], instances[i]))
                .collect()
        };
        let (obs, ring) = chamulteon_obs::Obs::recording(1 << 12);
        let mut c = controller(ChamulteonConfig::default()).with_obs(obs);
        c.preload_history(120.0, &(0..24).map(season).collect::<Vec<_>>());
        // 120 s samples: eight 120 s rows from t = 120 cover [120, 1080).
        let _ = c.tick(120.0, &samples(120.0, season(24)));
        let older = c
            .active_forecast
            .clone()
            .expect("forecast on the first tick");
        // A spiked 60 s sample drifts: eight 60 s rows from t = 180 cover
        // [180, 660).
        let _ = c.tick(180.0, &samples(60.0, 400.0));
        assert_eq!(c.forecasts_made(), 2);
        // t = 750 is past the new plan and inside the old one, whose rows
        // from 720 on overlap none of the new plan's windows. The entry
        // sample is missing, so the history does not grow and nothing
        // re-forecasts.
        assert!(older.row_at(750.0, 3).is_some());
        let fresh = samples(60.0, 50.0);
        let _ = c.tick_observed(
            750.0,
            &[
                Observation::Missing,
                Observation::Sample(fresh[1]),
                Observation::Sample(fresh[2]),
            ],
        );
        assert_eq!(c.forecasts_made(), 2);
        let events = ring.take();
        let candidates: Vec<Option<u32>> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ConflictResolution { proactive, .. } => Some(proactive),
                _ => None,
            })
            .collect();
        assert_eq!(candidates.len(), 9, "three resolutions per tick");
        assert!(candidates[..6].iter().all(Option::is_some));
        assert_eq!(candidates[6..], [None; 3]);
    }

    #[test]
    fn fox_vetoes_early_release() {
        let mut c =
            controller(ChamulteonConfig::reactive_only()).with_fox(ChargingModel::ec2_hourly());
        // Scale up at t = 60.
        let t1 = c.tick(60.0, &samples_for(100.0, &[1, 1, 1]));
        assert_eq!(t1[1], 17);
        // Load collapses at t = 120: reactive wants 1, FOX keeps the paid
        // instances (their hour has just begun).
        let t2 = c.tick(120.0, &samples_for(1.0, &[10, 17, 7]));
        assert_eq!(t2[1], 17, "FOX must keep paid instances");
        assert!(c.billed_instance_seconds(120.0).unwrap() > 0.0);
    }

    #[test]
    fn without_fox_release_is_immediate() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        let _ = c.tick(60.0, &samples_for(100.0, &[1, 1, 1]));
        let t2 = c.tick(120.0, &samples_for(1.0, &[10, 17, 7]));
        assert_eq!(t2, vec![1, 1, 1]);
        assert_eq!(c.billed_instance_seconds(120.0), None);
    }

    #[test]
    fn targets_respect_model_bounds() {
        let model = chamulteon_perfmodel::ApplicationModelBuilder::new()
            .service("a", 0.1, 2, 5, 3)
            .build()
            .unwrap();
        let mut c = Chamulteon::new(model, ChamulteonConfig::reactive_only());
        let hot = c.tick(
            60.0,
            &[MonitoringSample::new(60.0, 60_000, 1.0, 3, None).unwrap()],
        );
        assert_eq!(hot, vec![5]);
        let cold = c.tick(
            120.0,
            &[MonitoringSample::new(60.0, 0, 0.0, 5, None).unwrap()],
        );
        assert_eq!(cold, vec![2]);
    }

    #[test]
    fn preloaded_history_enables_immediate_forecasting() {
        let mut c = controller(ChamulteonConfig::proactive_only());
        // Two "days" of a 12-tick season.
        let rates: Vec<f64> = (0..24)
            .map(|k| 50.0 + 20.0 * ((k % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        c.preload_history(60.0, &rates);
        let _ = c.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        assert_eq!(c.forecasts_made(), 1, "forecast on the very first tick");
    }

    #[test]
    fn preload_spike_yields_untrusted_forecast_then_drift_reforecast() {
        // In-sample MASE of the hybrid forecaster on this noisy seasonal
        // signal sits near 1.2; a threshold of 2 separates "normal signal"
        // (trusted) from "history ends on garbage" (MASE ≈ 80) with a wide
        // margin on both sides.
        let config = || ChamulteonConfig {
            trust_threshold: 2.0,
            ..ChamulteonConfig::proactive_only()
        };
        // Four seasons of sine plus deterministic noise (noise keeps the
        // seasonal-naive MASE denominator away from zero).
        let season = |k: usize| {
            50.0 + 20.0 * ((k % 12) as f64 / 12.0 * std::f64::consts::TAU).sin()
                + 3.0 * (((k * 7919) % 13) as f64 / 13.0 - 0.5)
        };
        let rates: Vec<f64> = (0..48).map(season).collect();

        // Baseline: a clean preload produces a *trusted* first forecast.
        let mut clean = controller(config());
        clean.preload_history(60.0, &rates);
        let _ = clean.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        assert_eq!(clean.forecasts_made(), 1);
        assert!(
            clean.active_forecast.as_ref().is_some_and(|f| f.trusted),
            "clean preload must yield a trusted forecast"
        );

        // Same preload but the history *ends on an implausible sample*: a
        // finite positive spike that per-value validation rightly keeps
        // (preload only drops NaN and clamps negatives). The forecast made
        // from it must carry an untrusted verdict — not just survive.
        let mut bad = rates.clone();
        if let Some(last) = bad.last_mut() {
            *last = 5000.0;
        }
        let mut spiked = controller(config());
        spiked.preload_history(60.0, &bad);
        let _ = spiked.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        assert_eq!(
            spiked.forecasts_made(),
            1,
            "spike must not block forecasting"
        );
        assert!(
            spiked.active_forecast.as_ref().is_some_and(|f| !f.trusted),
            "forecast from spike-ending history must be untrusted"
        );

        // As normal load keeps arriving, drift detection notices the
        // spiked forecast mispredicts and re-forecasts *before* the
        // 8-tick horizon exhausts (elapsed stays ≤ 7 here, so a second
        // forecast can only come from the drift path).
        for k in 1..=7u32 {
            let _ = spiked.tick(60.0 * f64::from(k + 1), &samples_for(50.0, &[5, 9, 4]));
        }
        assert!(
            spiked.forecasts_made() >= 2,
            "drift must trigger a re-forecast within the horizon, made {}",
            spiked.forecasts_made()
        );
    }

    #[test]
    fn preload_skips_bad_rates() {
        let mut c = controller(ChamulteonConfig::default());
        c.preload_history(60.0, &[1.0, f64::NAN, -3.0, 2.0]);
        // NaN dropped, negative clamped: effective history [1, 0, 2].
        let _ = c.tick(60.0, &samples_for(10.0, &[1, 1, 1]));
        // No panic is the main assertion; demand path unaffected.
        assert_eq!(c.estimated_demands().len(), 3);
    }

    #[test]
    #[should_panic(expected = "one monitoring sample per service")]
    fn wrong_sample_count_panics() {
        let mut c = controller(ChamulteonConfig::default());
        let _ = c.tick(60.0, &samples_for(10.0, &[1, 1, 1])[..2]);
    }

    fn raw_from(s: &MonitoringSample) -> crate::degradation::Observation {
        crate::degradation::Observation::Raw {
            duration: s.duration(),
            arrivals: s.arrivals() as f64,
            completions: s.completions() as f64,
            utilization: s.utilization(),
            instances: s.instances(),
            mean_response_time: s.mean_response_time(),
        }
    }

    #[test]
    fn tick_observed_with_clean_inputs_matches_tick() {
        let mut a = controller(ChamulteonConfig::default());
        let mut b = controller(ChamulteonConfig::default());
        for k in 0..20 {
            let t = 60.0 * (k as f64 + 1.0);
            let samples = samples_for(50.0 + k as f64, &[5, 9, 4]);
            let observations: Vec<_> = samples.iter().map(raw_from).collect();
            assert_eq!(a.tick(t, &samples), b.tick_observed(t, &observations));
        }
        assert!(b.degradation().is_empty(), "clean inputs never degrade");
    }

    #[test]
    fn corrupt_samples_are_quarantined_and_held() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        let baseline = c.tick(60.0, &samples_for(100.0, &[10, 17, 7]));
        // Next tick: service 1 reports NaN arrivals, service 2 negative.
        let clean = samples_for(100.0, &[10, 17, 7]);
        let observations = vec![
            raw_from(&clean[0]),
            crate::degradation::Observation::Raw {
                duration: 60.0,
                arrivals: f64::NAN,
                completions: f64::NAN,
                utilization: f64::NAN,
                instances: 17,
                mean_response_time: None,
            },
            crate::degradation::Observation::Raw {
                duration: 60.0,
                arrivals: -6001.0,
                completions: -1.0,
                utilization: -0.7,
                instances: 7,
                mean_response_time: None,
            },
        ];
        let targets = c.tick_observed(120.0, &observations);
        // Held samples carry the same load: the decision stays put.
        assert_eq!(targets, baseline);
        let log = c.degradation();
        assert_eq!(
            log.count_matching(|r| matches!(r, DegradationReason::SampleQuarantined { .. })),
            2
        );
        assert_eq!(
            log.count_matching(|r| matches!(r, DegradationReason::SampleHeld { .. })),
            2
        );
    }

    #[test]
    fn all_samples_missing_holds_the_last_decision() {
        let mut c = controller(ChamulteonConfig::reactive_only());
        let first = c.tick(60.0, &samples_for(100.0, &[1, 1, 1]));
        let blind = vec![crate::degradation::Observation::Missing; 3];
        let held = c.tick_observed(120.0, &blind);
        assert_eq!(held, first, "previous targets re-issued");
        assert_eq!(
            c.degradation()
                .count_matching(|r| matches!(r, DegradationReason::HeldLastDecision)),
            1
        );
    }

    #[test]
    fn blind_first_tick_synthesizes_and_survives() {
        let mut c = controller(ChamulteonConfig::default());
        let blind = vec![crate::degradation::Observation::Missing; 3];
        // No history, no last decision: synthesized quiet samples, no panic.
        let targets = c.tick_observed(60.0, &blind);
        assert_eq!(targets.len(), 3);
        assert_eq!(
            c.degradation()
                .count_matching(|r| matches!(r, DegradationReason::SampleSynthesized { .. })),
            3
        );
    }

    #[test]
    fn stale_entry_rate_is_excluded_from_forecast_history() {
        let mut c = controller(ChamulteonConfig::default());
        let clean = samples_for(50.0, &[5, 9, 4]);
        let _ = c.tick(60.0, &clean);
        // Entry sample missing, others fresh.
        let observations = vec![
            crate::degradation::Observation::Missing,
            raw_from(&clean[1]),
            raw_from(&clean[2]),
        ];
        let _ = c.tick_observed(120.0, &observations);
        assert_eq!(
            c.degradation()
                .count_matching(|r| matches!(r, DegradationReason::EntryRateUnusable)),
            1
        );
    }

    #[test]
    fn take_degradation_drains_the_log() {
        let mut c = controller(ChamulteonConfig::default());
        let _ = c.tick_observed(60.0, &[crate::degradation::Observation::Missing; 3]);
        assert!(!c.degradation().is_empty());
        let taken = c.take_degradation();
        assert!(!taken.is_empty());
        assert!(c.degradation().is_empty());
    }

    #[test]
    fn preload_history_empty_slice_is_harmless() {
        let mut c = controller(ChamulteonConfig::proactive_only());
        c.preload_history(60.0, &[]);
        let targets = c.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        assert_eq!(targets.len(), 3);
        assert_eq!(c.forecasts_made(), 0, "no history, no forecast");
    }

    #[test]
    fn preload_history_single_sample_is_harmless() {
        let mut c = controller(ChamulteonConfig::proactive_only());
        c.preload_history(60.0, &[42.0]);
        let targets = c.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn preload_history_degenerate_interval_is_harmless() {
        let rates: Vec<f64> = (0..24).map(|k| 50.0 + (k % 12) as f64).collect();
        for interval in [0.0, -60.0, f64::NAN] {
            let mut c = controller(ChamulteonConfig::proactive_only());
            c.preload_history(interval, &rates);
            // Not panicking is the assertion; the clamped step keeps
            // the preloaded history usable.
            let targets = c.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
            assert_eq!(targets.len(), 3);
        }
    }

    #[test]
    fn traced_controller_is_bit_identical_to_untraced() {
        use chamulteon_obs::EventKind;

        let mut plain = controller(ChamulteonConfig::default());
        let (obs, ring) = chamulteon_obs::Obs::recording(1 << 16);
        let mut traced = controller(ChamulteonConfig::default()).with_obs(obs);

        let ticks = 30usize;
        let mut n = [5u32, 9, 4];
        for k in 0..ticks {
            // Sawtooth load so forecasts, drift checks and both decision
            // origins all fire over the run.
            let rate = 40.0 + 20.0 * ((k % 12) as f64);
            let time = 60.0 * (k as f64 + 1.0);
            let samples = samples_for(rate, &n);
            let a = plain.tick(time, &samples);
            let b = traced.tick(time, &samples);
            assert_eq!(a, b, "tick {k}: tracing changed the decision");
            n = [b[0], b[1], b[2]];
        }
        assert_eq!(plain.forecasts_made(), traced.forecasts_made());

        let events = ring.take();
        assert_eq!(ring.dropped(), 0, "ring too small for the run");
        let cycle_starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CycleStart { .. }))
            .count();
        assert_eq!(cycle_starts, ticks);
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Decision(p) => Some((e.service, p)),
                _ => None,
            })
            .collect();
        assert_eq!(
            decisions.len(),
            ticks * 3,
            "one provenance per service per tick"
        );
        for (service, provenance) in &decisions {
            assert!(service.is_some(), "decision events are per-service");
            assert!(provenance.tick >= 1 && provenance.tick <= ticks as u64);
            assert!(provenance.measured_rate.is_finite());
            assert!(provenance.demand.is_finite());
            assert!(provenance.target >= 1);
        }
        // The reactive sizing pass records offered rates and a hold-band
        // verdict for every service, and counts the verdicts per cycle.
        assert!(
            decisions
                .iter()
                .all(|(_, p)| p.offered_rate.is_some() && p.sizing.is_some()),
            "a decision lacks reactive sizing context"
        );
        let verdict_counts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CapacitySolve { solved, held } => Some(solved + held),
                _ => None,
            })
            .collect();
        assert_eq!(verdict_counts, vec![3; ticks]);
        // Forecast events carry the active generation into provenance.
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Forecast { .. })),
            "no forecast event despite {} forecasts",
            traced.forecasts_made()
        );
        assert!(
            decisions
                .iter()
                .any(|(_, p)| p.forecast_generation.is_some()),
            "no decision linked to a forecast generation"
        );

        let metrics = traced.obs().metrics();
        let total = metrics.counter_value("decisions.proactive").unwrap_or(0)
            + metrics.counter_value("decisions.reactive").unwrap_or(0)
            + metrics.counter_value("decisions.hold").unwrap_or(0);
        assert_eq!(total, (ticks * 3) as u64);
        assert!(metrics.counter_value("forecasts.made").unwrap_or(0) >= 1);
    }

    #[test]
    fn blind_ticks_trace_hold_provenance() {
        let (obs, ring) = chamulteon_obs::Obs::recording(1 << 12);
        let mut c = controller(ChamulteonConfig::default()).with_obs(obs);
        let last = c.tick(60.0, &samples_for(50.0, &[5, 9, 4]));
        // Fully blind tick after a good one: rung 5 re-issues `last`.
        let held = c.tick_observed(120.0, &[crate::degradation::Observation::Missing; 3]);
        assert_eq!(held, last);

        let events = ring.take();
        use chamulteon_obs::{EventKind, Winner};
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Degradation { code, .. } if code == "held_last_decision"
        )));
        let holds = events
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::Decision(p)
                    if p.winner == Winner::Hold && p.tick == 2)
            })
            .count();
        assert_eq!(holds, 3, "one hold provenance per service");
    }
}
