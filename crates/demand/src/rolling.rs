//! Rolling, smoothed demand estimation for online use by the controller.

use crate::error::DemandError;
use crate::sample::MonitoringSample;
use std::collections::VecDeque;

/// The Service Demand Law — the estimator the paper selects "to minimize
/// the estimation overhead".
///
/// From the utilization law `U = X·D/n` (with `X` the throughput) it
/// follows that `D = U·n/X = total busy time / total completions`. Windows
/// are aggregated by summing busy time and completions in iteration order,
/// which weights windows by the amount of work they observed. Using
/// completions rather than arrivals keeps the estimate correct under
/// saturation, when fewer requests complete than arrive.
///
/// # Errors
///
/// Returns [`DemandError::NoUsableSamples`] when the windows saw no
/// completions or no busy time.
///
/// # Examples
///
/// ```
/// use chamulteon_demand::{service_demand_law, MonitoringSample};
///
/// // One 60 s window: 600 requests, 5 instances at 20% utilization.
/// let sample = MonitoringSample::new(60.0, 600, 0.2, 5, Some(0.11))?;
/// let demand = service_demand_law(&[sample])?;
/// assert!((demand - 0.1).abs() < 1e-9); // U·n/λ = 0.2·5/10
/// # Ok::<(), chamulteon_demand::DemandError>(())
/// ```
pub fn service_demand_law<'a>(
    samples: impl IntoIterator<Item = &'a MonitoringSample>,
) -> Result<f64, DemandError> {
    let mut busy = 0.0;
    let mut completions = 0u64;
    for s in samples {
        busy += s.total_busy_time();
        completions += s.completions();
    }
    if completions == 0 || busy <= 0.0 {
        return Err(DemandError::NoUsableSamples);
    }
    Ok(busy / completions as f64)
}

/// Keeps a bounded window of recent monitoring samples, estimates the
/// demand over it with the [`service_demand_law`] and exponentially
/// smooths successive estimates, so one noisy monitoring interval cannot
/// flip a scaling decision.
///
/// # Examples
///
/// ```
/// use chamulteon_demand::{MonitoringSample, RollingDemandEstimator};
///
/// let mut est = RollingDemandEstimator::new(10, 0.5, 0.1);
/// let s = MonitoringSample::new(60.0, 1200, 0.5, 4, None)?; // true D = 0.1
/// est.observe(s);
/// assert!((est.current_demand() - 0.1).abs() < 1e-9);
/// # Ok::<(), chamulteon_demand::DemandError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RollingDemandEstimator {
    window: VecDeque<MonitoringSample>,
    capacity: usize,
    smoothing: f64,
    current: f64,
    initialized: bool,
}

impl RollingDemandEstimator {
    /// Creates an estimator using the Service Demand Law over a window of
    /// `capacity` samples, EWMA-smoothed with factor `smoothing ∈ (0, 1]`
    /// (1.0 disables smoothing), seeded with `initial_demand` until the
    /// first real estimate arrives.
    pub fn new(capacity: usize, smoothing: f64, initial_demand: f64) -> Self {
        let smoothing = if smoothing.is_finite() && smoothing > 0.0 && smoothing <= 1.0 {
            smoothing
        } else {
            0.5
        };
        let initial = if initial_demand.is_finite() && initial_demand > 0.0 {
            initial_demand
        } else {
            0.1
        };
        RollingDemandEstimator {
            window: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            smoothing,
            current: initial,
            initialized: false,
        }
    }

    /// Feeds one monitoring window and updates the smoothed estimate.
    ///
    /// Windows without usable signal (e.g. zero arrivals) leave the current
    /// estimate unchanged, which is the right behaviour for idle periods.
    pub fn observe(&mut self, sample: MonitoringSample) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(sample);
        match service_demand_law(&self.window) {
            Ok(estimate) if estimate.is_finite() && estimate > 0.0 => {
                if self.initialized {
                    self.current =
                        self.smoothing * estimate + (1.0 - self.smoothing) * self.current;
                } else {
                    self.current = estimate;
                    self.initialized = true;
                }
            }
            Ok(_) | Err(_) => {}
        }
    }

    /// The current smoothed demand estimate in seconds per request.
    pub fn current_demand(&self) -> f64 {
        self.current
    }

    /// Whether at least one real estimate has been incorporated (before
    /// that, [`current_demand`](Self::current_demand) returns the seed).
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The sample window capacity this estimator was built with.
    pub fn window_capacity(&self) -> usize {
        self.capacity
    }

    /// The EWMA smoothing factor this estimator was built with.
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// The samples currently in the rolling window, oldest first.
    pub fn window_samples(&self) -> Vec<MonitoringSample> {
        self.window.iter().copied().collect()
    }

    /// Reconstructs an estimator from externally captured state: the
    /// Service Demand Law over `capacity` samples smoothed with factor
    /// `smoothing`, with the window contents, the smoothed estimate and
    /// the initialization flag restored verbatim — the inverse of
    /// [`window_samples`](Self::window_samples) /
    /// [`current_demand`](Self::current_demand), used by the controller's
    /// crash-recovery snapshot.
    ///
    /// Invalid `capacity`/`smoothing` fall back exactly like
    /// [`RollingDemandEstimator::new`]; `current` is kept bit-for-bit
    /// when finite and positive (the only values
    /// [`observe`](Self::observe) can produce) and falls back to the
    /// `0.1` seed otherwise. Excess samples beyond the capacity are
    /// dropped from the front, mirroring the rolling eviction.
    pub fn restore(
        capacity: usize,
        smoothing: f64,
        current: f64,
        initialized: bool,
        samples: Vec<MonitoringSample>,
    ) -> Self {
        let mut est = Self::new(capacity, smoothing, current);
        let skip = samples.len().saturating_sub(est.capacity);
        for sample in samples.into_iter().skip(skip) {
            est.window.push_back(sample);
        }
        est.initialized = initialized;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(arrivals: u64, util: f64, n: u32) -> MonitoringSample {
        MonitoringSample::new(60.0, arrivals, util, n, None).unwrap()
    }

    #[test]
    fn first_estimate_unsmoothed() {
        let mut est = RollingDemandEstimator::new(5, 0.2, 0.5);
        assert_eq!(est.current_demand(), 0.5);
        assert!(!est.is_initialized());
        est.observe(s(1200, 0.5, 4)); // D = 0.1
        assert!(est.is_initialized());
        assert!((est.current_demand() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn smoothing_damps_changes() {
        let mut est = RollingDemandEstimator::new(1, 0.5, 0.1);
        est.observe(s(1200, 0.5, 4)); // D = 0.1
        est.observe(s(600, 0.5, 4)); // D = 0.2 in this window alone
        let d = est.current_demand();
        assert!(d > 0.1 && d < 0.2, "smoothed value between: {d}");
        assert!((d - 0.15).abs() < 1e-12);
    }

    #[test]
    fn idle_windows_keep_last_estimate() {
        let mut est = RollingDemandEstimator::new(1, 1.0, 0.1);
        est.observe(s(1200, 0.5, 4));
        let before = est.current_demand();
        est.observe(s(0, 0.0, 4));
        assert_eq!(est.current_demand(), before);
    }

    #[test]
    fn window_is_bounded() {
        let mut est = RollingDemandEstimator::new(3, 1.0, 0.1);
        for _ in 0..10 {
            est.observe(s(1200, 0.5, 4));
        }
        assert_eq!(est.window.len(), 3);
    }

    #[test]
    fn window_forgets_old_regime() {
        // Demand shifts from 0.1 to 0.2; after the window fills with new
        // samples the estimate follows (no smoothing).
        let mut est = RollingDemandEstimator::new(2, 1.0, 0.1);
        est.observe(s(1200, 0.5, 4)); // 0.1
        est.observe(s(1200, 0.5, 4));
        for _ in 0..3 {
            est.observe(s(600, 0.5, 4)); // 0.2
        }
        assert!((est.current_demand() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_fall_back_to_defaults() {
        let est = RollingDemandEstimator::new(0, -1.0, -0.5);
        assert_eq!(est.capacity, 1);
        assert_eq!(est.smoothing, 0.5);
        assert_eq!(est.current_demand(), 0.1);
    }

    #[test]
    fn restore_round_trips_state_bit_for_bit() {
        let mut est = RollingDemandEstimator::new(3, 0.4, 0.2);
        for arrivals in [1200, 900, 600, 1100, 700] {
            est.observe(s(arrivals, 0.5, 4));
        }
        let mut copy = RollingDemandEstimator::restore(
            est.window_capacity(),
            est.smoothing(),
            est.current_demand(),
            est.is_initialized(),
            est.window_samples(),
        );
        assert_eq!(
            copy.current_demand().to_bits(),
            est.current_demand().to_bits()
        );
        assert_eq!(copy.window_samples(), est.window_samples());
        assert_eq!(copy.is_initialized(), est.is_initialized());
        // The restored copy must continue identically.
        est.observe(s(800, 0.6, 3));
        copy.observe(s(800, 0.6, 3));
        assert_eq!(
            copy.current_demand().to_bits(),
            est.current_demand().to_bits()
        );
    }

    #[test]
    fn restore_drops_excess_samples_from_the_front() {
        let samples = vec![s(100, 0.5, 4), s(200, 0.5, 4), s(300, 0.5, 4)];
        let est = RollingDemandEstimator::restore(2, 0.5, 0.1, true, samples.clone());
        assert_eq!(est.window_samples(), samples[1..].to_vec());
    }

    #[test]
    fn sdl_recovers_planted_demand() {
        // Planted demand 0.1 s: λ = 20 req/s on 4 instances => U = 0.5.
        let d = service_demand_law(&[s(1200, 0.5, 4)]).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sdl_aggregates_windows_by_work() {
        // Two windows with different loads but same true demand.
        let d = service_demand_law(&[s(600, 0.25, 4), s(2400, 1.0, 4)]).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sdl_no_arrivals_is_error() {
        assert_eq!(
            service_demand_law(&[s(0, 0.0, 4)]),
            Err(DemandError::NoUsableSamples)
        );
        assert_eq!(service_demand_law(&[]), Err(DemandError::NoUsableSamples));
    }

    #[test]
    fn sdl_correct_under_saturation() {
        // 100 req/s arrive but a single instance (capacity 10 req/s at
        // D = 0.1) completes only 600 in 60 s at utilization 1.0.
        let saturated = s(6000, 1.0, 1).with_completions(600);
        let d = service_demand_law(&[saturated]).unwrap();
        assert!((d - 0.1).abs() < 1e-12, "got {d}");
    }
}
