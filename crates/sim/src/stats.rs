//! Monitoring statistics and simulation results.

use crate::fault::{CorruptionMode, FaultRecord};

/// Second-granularity bucket index for a simulation time, saturating at
/// the bounds: NaN and non-positive times map to bucket 0, times at or
/// beyond `usize::MAX` seconds map to `usize::MAX`.
///
/// Both simulation cores (`engine` and `des`) index their per-second
/// request accounting through this one helper so the bucketing rules can
/// never drift apart.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "NaN, non-positive and out-of-range times saturate before the cast"
)]
pub fn second_index(time: f64) -> usize {
    if time.is_nan() || time <= 0.0 {
        0
    } else if time >= usize::MAX as f64 {
        usize::MAX
    } else {
        time as usize
    }
}

/// Per-service statistics aggregated over one monitoring interval — exactly
/// the inputs the paper feeds every auto-scaler (§IV-C): "the accumulated
/// number of requests during the last interval, … and the number of
/// currently running instances", plus the utilization and response times
/// that the demand estimator consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceIntervalStats {
    /// Interval start time in seconds.
    pub start: f64,
    /// Interval length in seconds.
    pub duration: f64,
    /// Requests that arrived at this service during the interval.
    pub arrivals: u64,
    /// Requests this service completed during the interval.
    pub completions: u64,
    /// Time-averaged utilization (busy-server time / running-server time),
    /// in `[0, 1]`.
    pub utilization: f64,
    /// Mean per-service response time (wait + service) of requests
    /// completed in the interval, seconds; `None` when none completed.
    pub mean_response_time: Option<f64>,
    /// Running (booted) instances at the end of the interval.
    pub instances_end: u32,
    /// Requests waiting in this service's queue at the end of the interval.
    pub queue_length_end: usize,
}

/// What the monitoring pipeline *reported* for one service and interval —
/// as opposed to [`ServiceIntervalStats`], which is the ground truth.
///
/// Under an active [`crate::fault::FaultPlan`] the reported values may be
/// stale or corrupt: arrivals and completions are `f64` here precisely so
/// NaN and negative counts are representable, and consumers must validate
/// them at their boundary (`MonitoringSample::from_observed` in
/// `chamulteon-demand` does this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedSample {
    /// Reported interval start time in seconds.
    pub start: f64,
    /// Reported interval length in seconds.
    pub duration: f64,
    /// Reported request arrivals (may be NaN/negative when corrupted).
    pub arrivals: f64,
    /// Reported request completions (may be NaN/negative when corrupted).
    pub completions: f64,
    /// Reported utilization (may be NaN/negative when corrupted).
    pub utilization: f64,
    /// Reported mean response time, when measured.
    pub mean_response_time: Option<f64>,
    /// Reported running instances at the end of the interval.
    pub instances_end: u32,
    /// Reported queue length at the end of the interval.
    pub queue_length_end: usize,
}

impl ObservedSample {
    /// A faithful report of the ground-truth stats.
    pub fn from_stats(stats: &ServiceIntervalStats) -> Self {
        ObservedSample {
            start: stats.start,
            duration: stats.duration,
            arrivals: stats.arrivals as f64,
            completions: stats.completions as f64,
            utilization: stats.utilization,
            mean_response_time: stats.mean_response_time,
            instances_end: stats.instances_end,
            queue_length_end: stats.queue_length_end,
        }
    }

    /// This report mangled by a corruption fault.
    pub fn corrupted(mut self, mode: CorruptionMode) -> Self {
        match mode {
            CorruptionMode::Nan => {
                self.arrivals = f64::NAN;
                self.completions = f64::NAN;
                self.utilization = f64::NAN;
                self.mean_response_time = self.mean_response_time.map(|_| f64::NAN);
            }
            CorruptionMode::Negative => {
                self.arrivals = -(self.arrivals + 1.0);
                self.completions = -(self.completions + 1.0);
                self.utilization = -(self.utilization + 0.1);
            }
            CorruptionMode::Spike { factor } => {
                let factor = if factor.is_finite() {
                    factor.max(1.0)
                } else {
                    1.0
                };
                self.arrivals *= factor;
                self.completions *= factor;
                self.utilization = (self.utilization * factor).clamp(0.0, 1.0);
            }
        }
        self
    }
}

/// One step of a service's supply timeline: from `time` onward, `running`
/// instances were serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyChange {
    /// Time of the change in seconds.
    pub time: f64,
    /// Number of running instances from this time on.
    pub running: u32,
}

/// Everything a finished simulation hands to the metrics and plotting
/// layers.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Total simulated duration in seconds.
    pub duration: f64,
    /// Per-service supply timelines (step functions, first entry at t = 0).
    pub supply: Vec<Vec<SupplyChange>>,
    /// Requests sent per second of simulated time (indexed by send second).
    pub sent_per_second: Vec<u64>,
    /// Of those, requests whose end-to-end response met the SLO.
    pub conformant_per_second: Vec<u64>,
    /// Total requests completed.
    pub completed: u64,
    /// Completed requests that satisfied the SLO.
    pub satisfied: u64,
    /// Completed requests in the Apdex toleration band.
    pub tolerating: u64,
    /// Requests still in flight when the simulation ended.
    pub in_flight_at_end: u64,
    /// Sum of all end-to-end response times (seconds) of completed requests.
    pub response_time_sum: f64,
    /// Per-service monitoring history (all intervals, in order).
    pub interval_history: Vec<Vec<ServiceIntervalStats>>,
    /// Every fault the engine injected, in time order (empty without a
    /// fault plan).
    pub fault_log: Vec<FaultRecord>,
}

impl SimulationResult {
    /// Total requests injected (completed + still in flight).
    pub fn total_requests(&self) -> u64 {
        self.completed + self.in_flight_at_end
    }

    /// Fraction of completed requests that violated the SLO, in percent.
    /// Requests still in flight at the end count as violations — they were
    /// not served within the SLO during the experiment.
    pub fn slo_violation_percent(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 0.0;
        }
        let violated = total - self.satisfied;
        100.0 * violated as f64 / total as f64
    }

    /// The Apdex score in percent: `(satisfied + tolerating/2) / total`.
    /// In-flight requests count as frustrated.
    pub fn apdex_percent(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 100.0;
        }
        100.0 * (self.satisfied as f64 + 0.5 * self.tolerating as f64) / total as f64
    }

    /// Mean end-to-end response time of completed requests, seconds.
    pub fn mean_response_time(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.response_time_sum / self.completed as f64
    }

    /// The supply (running instances) of `service` at time `t`, from the
    /// recorded step function.
    pub fn supply_at(&self, service: usize, t: f64) -> u32 {
        let timeline = &self.supply[service];
        let mut current = timeline.first().map(|c| c.running).unwrap_or(0);
        for change in timeline {
            if change.time <= t {
                current = change.running;
            } else {
                break;
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SimulationResult {
        SimulationResult {
            duration: 10.0,
            supply: vec![vec![
                SupplyChange {
                    time: 0.0,
                    running: 1,
                },
                SupplyChange {
                    time: 5.0,
                    running: 3,
                },
            ]],
            sent_per_second: vec![10; 10],
            conformant_per_second: vec![8; 10],
            completed: 90,
            satisfied: 70,
            tolerating: 10,
            in_flight_at_end: 10,
            response_time_sum: 45.0,
            interval_history: vec![vec![]],
            fault_log: Vec::new(),
        }
    }

    #[test]
    fn totals_and_percentages() {
        let r = result();
        assert_eq!(r.total_requests(), 100);
        assert!((r.slo_violation_percent() - 30.0).abs() < 1e-9);
        assert!((r.apdex_percent() - 75.0).abs() < 1e-9);
        assert!((r.mean_response_time() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_result_degenerate_values() {
        let r = SimulationResult {
            duration: 0.0,
            supply: vec![vec![]],
            sent_per_second: vec![],
            conformant_per_second: vec![],
            completed: 0,
            satisfied: 0,
            tolerating: 0,
            in_flight_at_end: 0,
            response_time_sum: 0.0,
            interval_history: vec![vec![]],
            fault_log: Vec::new(),
        };
        assert_eq!(r.slo_violation_percent(), 0.0);
        assert_eq!(r.apdex_percent(), 100.0);
        assert_eq!(r.mean_response_time(), 0.0);
    }

    #[test]
    fn observed_sample_roundtrip_and_corruption() {
        let truth = ServiceIntervalStats {
            start: 0.0,
            duration: 60.0,
            arrivals: 600,
            completions: 590,
            utilization: 0.5,
            mean_response_time: Some(0.2),
            instances_end: 4,
            queue_length_end: 2,
        };
        let clean = ObservedSample::from_stats(&truth);
        assert_eq!(clean.arrivals, 600.0);
        assert_eq!(clean.completions, 590.0);
        assert_eq!(clean.instances_end, 4);

        let nan = clean.corrupted(CorruptionMode::Nan);
        assert!(nan.arrivals.is_nan());
        assert!(nan.utilization.is_nan());
        assert!(nan.mean_response_time.unwrap().is_nan());

        let neg = clean.corrupted(CorruptionMode::Negative);
        assert!(neg.arrivals < 0.0);
        assert!(neg.utilization < 0.0);

        let spike = clean.corrupted(CorruptionMode::Spike { factor: 100.0 });
        assert_eq!(spike.arrivals, 60_000.0);
        assert_eq!(spike.utilization, 1.0);

        // Degenerate spike factors are neutralized.
        let flat = clean.corrupted(CorruptionMode::Spike { factor: f64::NAN });
        assert_eq!(flat.arrivals, 600.0);
    }

    #[test]
    fn second_index_saturates_at_the_bounds() {
        // NaN and non-positive times land in bucket 0.
        assert_eq!(second_index(f64::NAN), 0);
        assert_eq!(second_index(f64::NEG_INFINITY), 0);
        assert_eq!(second_index(-1.0), 0);
        assert_eq!(second_index(-0.0), 0);
        assert_eq!(second_index(0.0), 0);
        // Ordinary times truncate toward zero.
        assert_eq!(second_index(0.999), 0);
        assert_eq!(second_index(1.0), 1);
        assert_eq!(second_index(86_399.5), 86_399);
        // Huge and infinite times saturate instead of wrapping.
        assert_eq!(second_index(f64::INFINITY), usize::MAX);
        assert_eq!(second_index(1e300), usize::MAX);
        let max = usize::MAX as f64;
        assert_eq!(second_index(max), usize::MAX);
        assert_eq!(second_index(max * 2.0), usize::MAX);
    }

    #[test]
    fn supply_step_function_lookup() {
        let r = result();
        assert_eq!(r.supply_at(0, 0.0), 1);
        assert_eq!(r.supply_at(0, 4.9), 1);
        assert_eq!(r.supply_at(0, 5.0), 3);
        assert_eq!(r.supply_at(0, 100.0), 3);
    }
}
