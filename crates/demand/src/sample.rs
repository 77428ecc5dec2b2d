//! The monitoring sample the demand estimation consumes.

use crate::error::DemandError;

/// One monitoring window worth of observations for a single service.
///
/// The paper's estimation input (§III-A2): "the request arrivals per
/// resource and the average monitored utilization are required", plus the
/// optional mean response time, which the controller's state snapshot
/// carries along.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitoringSample {
    duration: f64,
    arrivals: u64,
    completions: Option<u64>,
    utilization: f64,
    instances: u32,
    mean_response_time: Option<f64>,
}

impl MonitoringSample {
    /// Creates a validated sample.
    ///
    /// * `duration` — window length in seconds (> 0),
    /// * `arrivals` — requests that arrived during the window,
    /// * `utilization` — mean utilization across the service's instances,
    ///   in `[0, 1]` (values slightly above 1 from noisy monitors are
    ///   clamped to 1),
    /// * `instances` — number of running instances during the window (> 0),
    /// * `mean_response_time` — mean end-to-end response time at this
    ///   service in seconds, when measured.
    ///
    /// # Errors
    ///
    /// Returns [`DemandError::InvalidSample`] for a non-positive duration,
    /// a negative/NaN utilization, zero instances, or a non-positive
    /// response time.
    pub fn new(
        duration: f64,
        arrivals: u64,
        utilization: f64,
        instances: u32,
        mean_response_time: Option<f64>,
    ) -> Result<Self, DemandError> {
        if !(duration > 0.0) {
            return Err(DemandError::InvalidSample {
                field: "duration",
                value: duration,
            });
        }
        if !(utilization >= 0.0) {
            return Err(DemandError::InvalidSample {
                field: "utilization",
                value: utilization,
            });
        }
        if instances == 0 {
            return Err(DemandError::InvalidSample {
                field: "instances",
                value: 0.0,
            });
        }
        if let Some(rt) = mean_response_time {
            if !(rt > 0.0) {
                return Err(DemandError::InvalidSample {
                    field: "mean_response_time",
                    value: rt,
                });
            }
        }
        Ok(MonitoringSample {
            duration,
            arrivals,
            completions: None,
            utilization: utilization.min(1.0),
            instances,
            mean_response_time,
        })
    }

    /// Validates a sample whose counts come from an *untrusted* monitoring
    /// pipeline (raw `f64` readings that may be NaN, negative or
    /// non-finite — e.g. a faulted simulator report). This is the
    /// ingestion boundary: NaN/negative arrival or completion counts, a
    /// non-finite duration or utilization, and all the conditions of
    /// [`MonitoringSample::new`] are rejected here so nothing downstream
    /// ever sees them.
    ///
    /// # Errors
    ///
    /// Returns [`DemandError::InvalidSample`] naming the offending field.
    pub fn from_observed(
        duration: f64,
        arrivals: f64,
        completions: f64,
        utilization: f64,
        instances: u32,
        mean_response_time: Option<f64>,
    ) -> Result<Self, DemandError> {
        if !duration.is_finite() {
            return Err(DemandError::InvalidSample {
                field: "duration",
                value: duration,
            });
        }
        if !(arrivals >= 0.0) || !arrivals.is_finite() {
            return Err(DemandError::InvalidSample {
                field: "arrivals",
                value: arrivals,
            });
        }
        if !(completions >= 0.0) || !completions.is_finite() {
            return Err(DemandError::InvalidSample {
                field: "completions",
                value: completions,
            });
        }
        if !utilization.is_finite() {
            return Err(DemandError::InvalidSample {
                field: "utilization",
                value: utilization,
            });
        }
        if let Some(rt) = mean_response_time {
            if !rt.is_finite() {
                return Err(DemandError::InvalidSample {
                    field: "mean_response_time",
                    value: rt,
                });
            }
        }
        // Validated non-negative finite counts: the saturating float-to-int
        // cast is exact below 2^53 and cannot go negative.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sample = Self::new(
            duration,
            arrivals.round() as u64,
            utilization,
            instances,
            mean_response_time,
        )?
        .with_completions(completions.round() as u64);
        Ok(sample)
    }

    /// An empty window: a zero-arrival, zero-utilization sample used as a
    /// last-resort stand-in when monitoring reports nothing usable and no
    /// earlier sample is available. Infallible: the inputs are sanitized
    /// (`duration` to ≥ 1 s, `instances` to ≥ 1).
    pub fn zero(duration: f64, instances: u32) -> Self {
        let duration = if duration.is_finite() {
            duration.max(1.0)
        } else {
            60.0
        };
        MonitoringSample {
            duration,
            arrivals: 0,
            completions: Some(0),
            utilization: 0.0,
            instances: instances.max(1),
            mean_response_time: None,
        }
    }

    /// Sets the number of requests *completed* during the window, when it
    /// differs from the arrivals (an overloaded service completes fewer
    /// than arrive; a draining one completes more). The Service Demand Law
    /// divides by this count — the utilization law is `U = X·D/n` with `X`
    /// the throughput, so dividing busy time by arrivals would
    /// underestimate the demand exactly when the service is saturated.
    pub fn with_completions(mut self, completions: u64) -> Self {
        self.completions = Some(completions);
        self
    }

    /// Window length in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Requests that arrived during the window.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Requests completed during the window (defaults to the arrivals when
    /// not set explicitly).
    pub fn completions(&self) -> u64 {
        self.completions.unwrap_or(self.arrivals)
    }

    /// The completions count exactly as recorded: `Some` only when it was
    /// set explicitly via [`with_completions`](Self::with_completions).
    /// The controller's state snapshot uses this so a restored sample is
    /// field-for-field identical to the captured one.
    pub fn explicit_completions(&self) -> Option<u64> {
        self.completions
    }

    /// Mean utilization across instances, clamped to `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Number of running instances during the window.
    pub fn instances(&self) -> u32 {
        self.instances
    }

    /// Mean response time in seconds, when measured.
    pub fn mean_response_time(&self) -> Option<f64> {
        self.mean_response_time
    }

    /// Arrival rate `λ = arrivals / duration` in requests per second.
    pub fn arrival_rate(&self) -> f64 {
        self.arrivals as f64 / self.duration
    }

    /// Total busy time accumulated across all instances in this window,
    /// `U · n · T` in seconds.
    pub fn total_busy_time(&self) -> f64 {
        self.utilization * f64::from(self.instances) * self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_sample_accessors() {
        let s = MonitoringSample::new(60.0, 600, 0.5, 4, Some(0.2)).unwrap();
        assert_eq!(s.duration(), 60.0);
        assert_eq!(s.arrivals(), 600);
        assert_eq!(s.utilization(), 0.5);
        assert_eq!(s.instances(), 4);
        assert_eq!(s.mean_response_time(), Some(0.2));
        assert!((s.arrival_rate() - 10.0).abs() < 1e-12);
        assert!((s.total_busy_time() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_above_one_clamped() {
        let s = MonitoringSample::new(60.0, 100, 1.07, 2, None).unwrap();
        assert_eq!(s.utilization(), 1.0);
    }

    #[test]
    fn rejects_invalid_fields() {
        assert!(MonitoringSample::new(0.0, 1, 0.5, 1, None).is_err());
        assert!(MonitoringSample::new(-1.0, 1, 0.5, 1, None).is_err());
        assert!(MonitoringSample::new(60.0, 1, -0.1, 1, None).is_err());
        assert!(MonitoringSample::new(60.0, 1, f64::NAN, 1, None).is_err());
        assert!(MonitoringSample::new(60.0, 1, 0.5, 0, None).is_err());
        assert!(MonitoringSample::new(60.0, 1, 0.5, 1, Some(0.0)).is_err());
        assert!(MonitoringSample::new(60.0, 1, 0.5, 1, Some(-0.5)).is_err());
    }

    #[test]
    fn zero_arrivals_is_valid_but_zero_rate() {
        let s = MonitoringSample::new(30.0, 0, 0.0, 1, None).unwrap();
        assert_eq!(s.arrival_rate(), 0.0);
    }

    #[test]
    fn from_observed_accepts_clean_readings() {
        let s = MonitoringSample::from_observed(60.0, 600.4, 590.6, 0.5, 4, Some(0.2)).unwrap();
        assert_eq!(s.arrivals(), 600);
        assert_eq!(s.completions(), 591);
        assert_eq!(s.utilization(), 0.5);
        assert_eq!(s.instances(), 4);
    }

    #[test]
    fn from_observed_rejects_nan_and_negative_counts() {
        // NaN arrivals — the corrupt-sample fault class.
        assert!(MonitoringSample::from_observed(60.0, f64::NAN, 1.0, 0.5, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, f64::NAN, 0.5, 1, None).is_err());
        // Negative counts.
        assert!(MonitoringSample::from_observed(60.0, -601.0, 1.0, 0.5, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, -1.0, 0.5, 1, None).is_err());
        // Non-finite everything else.
        assert!(MonitoringSample::from_observed(f64::INFINITY, 1.0, 1.0, 0.5, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, f64::INFINITY, 1.0, 0.5, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, 1.0, f64::NAN, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, 1.0, -0.6, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, 1.0, 0.5, 1, Some(f64::NAN)).is_err());
        // The `new` conditions still apply.
        assert!(MonitoringSample::from_observed(0.0, 1.0, 1.0, 0.5, 1, None).is_err());
        assert!(MonitoringSample::from_observed(60.0, 1.0, 1.0, 0.5, 0, None).is_err());
    }

    #[test]
    fn zero_sample_is_sanitized_and_quiet() {
        let s = MonitoringSample::zero(60.0, 4);
        assert_eq!(s.arrivals(), 0);
        assert_eq!(s.completions(), 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.instances(), 4);
        let degenerate = MonitoringSample::zero(f64::NAN, 0);
        assert_eq!(degenerate.duration(), 60.0);
        assert_eq!(degenerate.instances(), 1);
        assert_eq!(MonitoringSample::zero(-5.0, 2).duration(), 1.0);
    }
}
