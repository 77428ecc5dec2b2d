//! Uniform driving of the five auto-scalers (plus ablation variants).

use chamulteon::{
    ChamulteonConfig, ChargingModel, ControllerSnapshot, DegradationLog, DegradationReason,
    Observation, SpikeGate,
};
use chamulteon_demand::{MonitoringSample, RollingDemandEstimator};
use chamulteon_obs::{Event, EventKind, Obs};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_scalers::{Adapt, AutoScaler, Hist, IndependentScalers, React, Reg};
use chamulteon_sim::ObservedSample;
#[cfg(test)]
use chamulteon_sim::ServiceIntervalStats;

/// Which auto-scaler to run in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerKind {
    /// The paper's contribution, both cycles enabled.
    Chamulteon,
    /// Ablation: reactive cycle only.
    ChamulteonReactiveOnly,
    /// Ablation: proactive cycle only.
    ChamulteonProactiveOnly,
    /// Chamulteon with the FOX cost reviewer under EC2 hourly billing.
    ChamulteonFoxEc2,
    /// Chamulteon with FOX under GCP per-minute billing.
    ChamulteonFoxGcp,
    /// React (Chieu et al. 2009), one instance per service.
    React,
    /// Adapt (Ali-Eldin et al. 2012), one instance per service.
    Adapt,
    /// Hist (Urgaonkar et al. 2008), one instance per service.
    Hist,
    /// Reg (Iqbal et al. 2011), one instance per service.
    Reg,
}

impl ScalerKind {
    /// The display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            ScalerKind::Chamulteon => "chamulteon",
            ScalerKind::ChamulteonReactiveOnly => "cham-reactive",
            ScalerKind::ChamulteonProactiveOnly => "cham-proactive",
            ScalerKind::ChamulteonFoxEc2 => "cham-fox-ec2",
            ScalerKind::ChamulteonFoxGcp => "cham-fox-gcp",
            ScalerKind::React => "react",
            ScalerKind::Adapt => "adapt",
            ScalerKind::Hist => "hist",
            ScalerKind::Reg => "reg",
        }
    }

    /// The five columns of the paper's tables.
    pub fn paper_lineup() -> [ScalerKind; 5] {
        [
            ScalerKind::Chamulteon,
            ScalerKind::Adapt,
            ScalerKind::Hist,
            ScalerKind::Reg,
            ScalerKind::React,
        ]
    }
}

/// The controller configuration a Chamulteon-family kind runs with;
/// `None` for the independent baselines (they have no controller whose
/// snapshot could be restored).
fn chamulteon_config(kind: ScalerKind) -> Option<ChamulteonConfig> {
    match kind {
        ScalerKind::Chamulteon | ScalerKind::ChamulteonFoxEc2 | ScalerKind::ChamulteonFoxGcp => {
            Some(ChamulteonConfig::default())
        }
        ScalerKind::ChamulteonReactiveOnly => Some(ChamulteonConfig::reactive_only()),
        ScalerKind::ChamulteonProactiveOnly => Some(ChamulteonConfig::proactive_only()),
        ScalerKind::React | ScalerKind::Adapt | ScalerKind::Hist | ScalerKind::Reg => None,
    }
}

/// Rescales a reported utilization from the instances that produced it
/// (`instances_end`, the running count) to the instance count the sample
/// will report (`provisioned`, running + booting): the busy time
/// `U·n·T` must stay the measured one, otherwise instances that are still
/// booting would be counted as having worked and the demand estimate
/// would inflate exactly during scale-ups. NaN or negative readings pass
/// through untouched so the validation boundary sees — and quarantines —
/// the corruption instead of a laundered value.
fn observed_utilization(observed: &ObservedSample, provisioned: u32) -> f64 {
    if observed.utilization.is_finite() && observed.utilization >= 0.0 {
        let running = observed.instances_end.max(1);
        let provisioned = provisioned.max(1);
        (observed.utilization * f64::from(running) / f64::from(provisioned)).clamp(0.0, 1.0)
    } else {
        observed.utilization
    }
}

/// Maps an observed report (or its absence) to the controller's
/// [`Observation`] input, applying the utilization rescale.
fn observation_from(observed: Option<&ObservedSample>, provisioned: u32) -> Observation {
    match observed {
        None => Observation::Missing,
        Some(o) => Observation::Raw {
            duration: o.duration,
            arrivals: o.arrivals,
            completions: o.completions,
            utilization: observed_utilization(o, provisioned),
            instances: provisioned.max(1),
            // Harmless zero response times are dropped like the truth
            // path does; NaN passes through for the boundary to reject.
            mean_response_time: o
                .mean_response_time
                .filter(|rt| !(rt.is_finite() && *rt <= 0.0)),
        },
    }
}

/// A running scaler instance bound to an experiment.
pub(crate) enum Driver {
    Chamulteon(Box<chamulteon::Chamulteon>),
    Independent {
        multi: IndependentScalers,
        /// Shared demand estimation, "determined by LibReDE as used in
        /// Chamulteon" (§IV-C).
        estimators: Vec<RollingDemandEstimator>,
        /// Last validated entry arrival rate, held through monitoring
        /// dropouts so the competitors get the same degradation ladder
        /// rung Chamulteon gets.
        last_entry_rate: f64,
        /// Degraded-decision record for the independent deployment (the
        /// Chamulteon variant keeps its own inside the controller).
        degradation: DegradationLog,
        /// Per-service spike gates, same plausibility rung the controller
        /// applies.
        spike_gates: Vec<SpikeGate>,
        /// Trace/metrics sink, mirroring the events the Chamulteon
        /// controller emits for its own degradation rungs.
        obs: Obs,
    },
}

impl Driver {
    /// Test convenience; the experiment loop constructs drivers through
    /// [`new_observed`](Driver::new_observed) with the run's sink.
    #[cfg(test)]
    pub(crate) fn new(kind: ScalerKind, model: &ApplicationModel, hist_bucket: f64) -> Driver {
        Self::new_observed(kind, model, hist_bucket, Obs::disabled())
    }

    /// [`Driver::new`] with a trace/metrics sink attached: Chamulteon
    /// variants route it into the controller; independent baselines emit
    /// the same boundary-degradation events the controller would.
    pub(crate) fn new_observed(
        kind: ScalerKind,
        model: &ApplicationModel,
        hist_bucket: f64,
        obs: Obs,
    ) -> Driver {
        let demands: Vec<f64> = model
            .services()
            .iter()
            .map(|s| s.nominal_demand())
            .collect();
        let make_estimators = || {
            demands
                .iter()
                .map(|&d| RollingDemandEstimator::new(5, 0.4, d))
                .collect::<Vec<_>>()
        };
        let chamulteon_with = |config: ChamulteonConfig| {
            Driver::Chamulteon(Box::new(
                chamulteon::Chamulteon::new(model.clone(), config).with_obs(obs.clone()),
            ))
        };
        match kind {
            ScalerKind::Chamulteon => chamulteon_with(ChamulteonConfig::default()),
            ScalerKind::ChamulteonReactiveOnly => {
                chamulteon_with(ChamulteonConfig::reactive_only())
            }
            ScalerKind::ChamulteonProactiveOnly => {
                chamulteon_with(ChamulteonConfig::proactive_only())
            }
            ScalerKind::ChamulteonFoxEc2 => Driver::Chamulteon(Box::new(
                chamulteon::Chamulteon::new(model.clone(), ChamulteonConfig::default())
                    .with_fox(ChargingModel::ec2_hourly())
                    .with_obs(obs),
            )),
            ScalerKind::ChamulteonFoxGcp => Driver::Chamulteon(Box::new(
                chamulteon::Chamulteon::new(model.clone(), ChamulteonConfig::default())
                    .with_fox(ChargingModel::gcp_per_minute())
                    .with_obs(obs),
            )),
            ScalerKind::React => Driver::Independent {
                estimators: make_estimators(),
                last_entry_rate: 0.0,
                degradation: DegradationLog::new(),
                spike_gates: vec![SpikeGate::new(); model.service_count()],
                multi: IndependentScalers::homogeneous(demands, || Box::new(React::default())),
                obs,
            },
            ScalerKind::Adapt => Driver::Independent {
                estimators: make_estimators(),
                last_entry_rate: 0.0,
                degradation: DegradationLog::new(),
                spike_gates: vec![SpikeGate::new(); model.service_count()],
                multi: IndependentScalers::homogeneous(demands, || Box::new(Adapt::default())),
                obs,
            },
            ScalerKind::Hist => Driver::Independent {
                estimators: make_estimators(),
                last_entry_rate: 0.0,
                degradation: DegradationLog::new(),
                spike_gates: vec![SpikeGate::new(); model.service_count()],
                multi: IndependentScalers::homogeneous(demands, move || {
                    Box::new(Hist::with_bucket_length(hist_bucket)) as Box<dyn AutoScaler + Send>
                }),
                obs,
            },
            ScalerKind::Reg => Driver::Independent {
                estimators: make_estimators(),
                last_entry_rate: 0.0,
                degradation: DegradationLog::new(),
                spike_gates: vec![SpikeGate::new(); model.service_count()],
                multi: IndependentScalers::homogeneous(demands, || Box::new(Reg::default())),
                obs,
            },
        }
    }

    /// Optionally preload arrival-rate history (only meaningful for
    /// Chamulteon's proactive cycle).
    pub(crate) fn preload_history(&mut self, interval: f64, rates: &[f64]) {
        if let Driver::Chamulteon(c) = self {
            c.preload_history(interval, rates);
        }
    }

    /// One scaling round from ground-truth interval stats — a test
    /// convenience; the experiment loop drives [`decide_observed`]
    /// directly.
    ///
    /// [`decide_observed`]: Driver::decide_observed
    #[cfg(test)]
    pub(crate) fn decide(
        &mut self,
        time: f64,
        interval: f64,
        stats: &[ServiceIntervalStats],
        provisioned: &[u32],
        entry: usize,
    ) -> Vec<u32> {
        // Route ground truth through the same validated-observation path
        // the fault experiments use: on clean inputs the two are
        // numerically identical (counts below 2^53 round-trip exactly).
        let observed: Vec<Option<ObservedSample>> = stats
            .iter()
            .map(|s| Some(ObservedSample::from_stats(s)))
            .collect();
        self.decide_observed(time, interval, &observed, provisioned, entry)
    }

    /// One scaling round from what monitoring *reported* — possibly
    /// dropped (`None`), stale or corrupt samples. Panic-free: invalid
    /// readings are quarantined at the validation boundary and the
    /// degradation ladder supplies the fallbacks.
    pub(crate) fn decide_observed(
        &mut self,
        time: f64,
        interval: f64,
        observed: &[Option<ObservedSample>],
        provisioned: &[u32],
        entry: usize,
    ) -> Vec<u32> {
        match self {
            Driver::Chamulteon(controller) => {
                let observations: Vec<Observation> = observed
                    .iter()
                    .zip(provisioned)
                    .map(|(o, &n)| observation_from(o.as_ref(), n))
                    .collect();
                controller.tick_observed(time, &observations)
            }
            Driver::Independent {
                multi,
                estimators,
                last_entry_rate,
                degradation,
                spike_gates,
                obs,
            } => {
                let mut degrade = |time: f64, reason: DegradationReason| {
                    obs.record_with(|| {
                        let kind = EventKind::Degradation {
                            code: reason.as_code().to_owned(),
                            attempt: reason.attempt(),
                        };
                        match reason.service() {
                            Some(service) => Event::service(time, service, kind),
                            None => Event::cycle(time, kind),
                        }
                    });
                    obs.metrics().increment("degradation.events");
                    degradation.record(time, reason);
                };
                // Validate every report at the boundary; feed estimators
                // from fresh valid samples only.
                let mut entry_sample: Option<MonitoringSample> = None;
                for (service, ((estimator, o), &n)) in estimators
                    .iter_mut()
                    .zip(observed)
                    .zip(provisioned)
                    .enumerate()
                {
                    let mut validated = None;
                    if let Some(o) = o.as_ref() {
                        match MonitoringSample::from_observed(
                            o.duration,
                            o.arrivals,
                            o.completions,
                            observed_utilization(o, n),
                            n.max(1),
                            o.mean_response_time
                                .filter(|rt| !(rt.is_finite() && *rt <= 0.0)),
                        ) {
                            Ok(sample) if !spike_gates[service].admit(sample.arrival_rate()) => {
                                degrade(time, DegradationReason::SampleImplausible { service });
                            }
                            Ok(sample) => validated = Some(sample),
                            Err(_) => {
                                degrade(time, DegradationReason::SampleQuarantined { service });
                            }
                        }
                    }
                    match validated {
                        Some(sample) => {
                            estimator.observe(sample);
                            if service == entry {
                                entry_sample = Some(sample);
                            }
                        }
                        None if o.is_none() => {
                            degrade(time, DegradationReason::SampleHeld { service });
                        }
                        None => {}
                    }
                }
                // Entry rate: fresh when valid, held otherwise.
                let entry_rate = match entry_sample {
                    Some(s) => {
                        *last_entry_rate = s.arrival_rate();
                        s.arrival_rate()
                    }
                    None => {
                        degrade(time, DegradationReason::EntryRateUnusable);
                        *last_entry_rate
                    }
                };
                let demands: Vec<f64> = estimators.iter().map(|e| e.current_demand()).collect();
                let deltas = multi.decide_rate(time, interval, entry_rate, provisioned, &demands);
                provisioned
                    .iter()
                    .zip(&deltas)
                    .map(|(&n, &d)| u32::try_from((i64::from(n) + d).max(1)).unwrap_or(1))
                    .collect()
            }
        }
    }

    /// The encoded snapshot of the controller's complete state —
    /// Chamulteon variants only; the independent baselines have no
    /// checkpoint format and always restart cold.
    pub(crate) fn snapshot_encoded(&self) -> Option<String> {
        match self {
            Driver::Chamulteon(c) => Some(c.snapshot().encode()),
            Driver::Independent { .. } => None,
        }
    }

    /// Rebuilds a crashed driver. When `checkpoint` holds a decodable
    /// snapshot and `kind` is a Chamulteon variant, the controller is
    /// restored from it (warm restart — FOX ledger, demand windows and
    /// forecast state survive); otherwise the replacement starts from
    /// scratch, with no warmup history (a crash loses the in-memory
    /// state a live run had accumulated). Returns the new driver and
    /// whether the restart was warm.
    pub(crate) fn restart(
        kind: ScalerKind,
        model: &ApplicationModel,
        hist_bucket: f64,
        obs: Obs,
        checkpoint: Option<&str>,
    ) -> (Driver, bool) {
        if let (Some(config), Some(text)) = (chamulteon_config(kind), checkpoint) {
            if let Ok(snapshot) = ControllerSnapshot::decode(text) {
                if let Ok(mut c) = chamulteon::Chamulteon::restore(model.clone(), config, &snapshot)
                {
                    c.set_obs(obs);
                    return (Driver::Chamulteon(Box::new(c)), true);
                }
            }
        }
        (Self::new_observed(kind, model, hist_bucket, obs), false)
    }

    /// Drains the degraded-decision record accumulated so far.
    pub(crate) fn take_degradation(&mut self) -> DegradationLog {
        match self {
            Driver::Chamulteon(c) => c.take_degradation(),
            Driver::Independent { degradation, .. } => std::mem::take(degradation),
        }
    }

    /// FOX-billed instance seconds, when applicable.
    pub(crate) fn billed_instance_seconds(&self, now: f64) -> Option<f64> {
        match self {
            Driver::Chamulteon(c) => c.billed_instance_seconds(now),
            Driver::Independent { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ScalerKind::Chamulteon.name(), "chamulteon");
        assert_eq!(ScalerKind::React.name(), "react");
        let lineup = ScalerKind::paper_lineup();
        assert_eq!(lineup.len(), 5);
        assert_eq!(lineup[0], ScalerKind::Chamulteon);
    }

    #[test]
    fn drivers_construct_for_all_kinds() {
        let model = ApplicationModel::paper_benchmark();
        for kind in [
            ScalerKind::Chamulteon,
            ScalerKind::ChamulteonReactiveOnly,
            ScalerKind::ChamulteonProactiveOnly,
            ScalerKind::ChamulteonFoxEc2,
            ScalerKind::ChamulteonFoxGcp,
            ScalerKind::React,
            ScalerKind::Adapt,
            ScalerKind::Hist,
            ScalerKind::Reg,
        ] {
            let mut d = Driver::new(kind, &model, 600.0);
            let stats: Vec<ServiceIntervalStats> = (0..3)
                .map(|_| ServiceIntervalStats {
                    start: 0.0,
                    duration: 60.0,
                    arrivals: 600,
                    completions: 600,
                    utilization: 0.5,
                    mean_response_time: Some(0.1),
                    instances_end: 2,
                    queue_length_end: 0,
                })
                .collect();
            let targets = d.decide(60.0, 60.0, &stats, &[2, 2, 2], 0);
            assert_eq!(targets.len(), 3, "{kind:?}");
            assert!(targets.iter().all(|&t| t >= 1), "{kind:?}");
        }
    }

    #[test]
    fn restart_restores_chamulteon_state_and_is_cold_without_a_checkpoint() {
        let model = ApplicationModel::paper_benchmark();
        let stats: Vec<ServiceIntervalStats> = (0..3)
            .map(|_| ServiceIntervalStats {
                start: 0.0,
                duration: 60.0,
                arrivals: 900,
                completions: 900,
                utilization: 0.6,
                mean_response_time: Some(0.1),
                instances_end: 2,
                queue_length_end: 0,
            })
            .collect();
        let mut survivor = Driver::new(ScalerKind::ChamulteonFoxEc2, &model, 600.0);
        for k in 1..=8 {
            let _ = survivor.decide(60.0 * f64::from(k), 60.0, &stats, &[2, 2, 2], 0);
        }
        let checkpoint = survivor.snapshot_encoded().expect("chamulteon snapshots");
        // Warm restart: the restored driver carries the FOX ledger and
        // keeps deciding exactly like the survivor.
        let (mut warm, was_warm) = Driver::restart(
            ScalerKind::ChamulteonFoxEc2,
            &model,
            600.0,
            Obs::disabled(),
            Some(&checkpoint),
        );
        assert!(was_warm);
        assert_eq!(
            warm.billed_instance_seconds(480.0).map(f64::to_bits),
            survivor.billed_instance_seconds(480.0).map(f64::to_bits)
        );
        for k in 9..=14 {
            let t = 60.0 * f64::from(k);
            assert_eq!(
                warm.decide(t, 60.0, &stats, &[2, 2, 2], 0),
                survivor.decide(t, 60.0, &stats, &[2, 2, 2], 0),
                "cycle {k}"
            );
        }
        // Cold restart paths: no checkpoint, garbage, or a baseline kind.
        let (_, warm) =
            Driver::restart(ScalerKind::Chamulteon, &model, 600.0, Obs::disabled(), None);
        assert!(!warm);
        let (_, warm) = Driver::restart(
            ScalerKind::Chamulteon,
            &model,
            600.0,
            Obs::disabled(),
            Some("not a snapshot"),
        );
        assert!(!warm);
        let (react, warm) = Driver::restart(
            ScalerKind::React,
            &model,
            600.0,
            Obs::disabled(),
            Some(&checkpoint),
        );
        assert!(!warm, "baselines have no checkpoint format");
        assert!(react.snapshot_encoded().is_none());
    }

    #[test]
    fn fox_driver_reports_billing() {
        let model = ApplicationModel::paper_benchmark();
        let mut d = Driver::new(ScalerKind::ChamulteonFoxEc2, &model, 600.0);
        let stats: Vec<ServiceIntervalStats> = (0..3)
            .map(|_| ServiceIntervalStats {
                start: 0.0,
                duration: 60.0,
                arrivals: 600,
                completions: 600,
                utilization: 0.5,
                mean_response_time: None,
                instances_end: 2,
                queue_length_end: 0,
            })
            .collect();
        let _ = d.decide(60.0, 60.0, &stats, &[2, 2, 2], 0);
        assert!(d.billed_instance_seconds(60.0).is_some());
        let plain = Driver::new(ScalerKind::React, &model, 600.0);
        assert!(plain.billed_instance_seconds(60.0).is_none());
    }
}
