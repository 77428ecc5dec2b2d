//! Adapt — the adaptive hybrid elasticity controller of Ali-Eldin et al.
//! (NOMS 2012).

use crate::input::{AutoScaler, ScalerInput};

/// The adaptive hybrid elasticity controller of Ali-Eldin, Tordsson and
/// Elmroth, "An adaptive hybrid elasticity controller for cloud
/// infrastructures" (NOMS 2012).
///
/// Adapt estimates the *rate of change* (slope) of the arrival stream and
/// provisions for the projected near-future load — it "aims at detecting
/// the envelope of the workload". Downward adjustments are deliberately
/// damped ("prevents premature release of resources"): the controller only
/// releases after the projected load has stayed below the provisioned
/// capacity for several consecutive intervals, and then only part of the
/// surplus at once.
///
/// Running at a high target utilization, Adapt provisions close to the raw
/// demand — the behaviour behind its under-provisioning tendency in the
/// paper's measurements (§V-D: "Reg and Adapt tend to under-provision").
#[derive(Debug, Clone, PartialEq)]
pub struct Adapt {
    /// Target utilization for sizing (default 0.95 — tight provisioning).
    pub target_utilization: f64,
    /// Consecutive low intervals required before any release (default 2).
    pub release_hysteresis: u32,
    /// Fraction of the surplus released per decision (default 0.5).
    pub release_fraction: f64,
    prev_rate: Option<f64>,
    low_intervals: u32,
}

impl Default for Adapt {
    fn default() -> Self {
        Adapt {
            target_utilization: 0.95,
            release_hysteresis: 2,
            release_fraction: 0.5,
            prev_rate: None,
            low_intervals: 0,
        }
    }
}

impl Adapt {
    /// Creates an Adapt controller with a custom target utilization
    /// (clamped into `(0, 1]`).
    pub fn new(target_utilization: f64) -> Self {
        Adapt {
            target_utilization: if target_utilization.is_finite() && target_utilization > 0.0 {
                target_utilization.min(1.0)
            } else {
                0.95
            },
            ..Adapt::default()
        }
    }
}

impl AutoScaler for Adapt {
    fn name(&self) -> &str {
        "adapt"
    }

    fn decide(&mut self, input: &ScalerInput) -> i64 {
        let rate = input.arrival_rate();
        // Slope of the workload over the last interval.
        let slope = match self.prev_rate {
            Some(prev) => (rate - prev) / input.interval,
            None => 0.0,
        };
        self.prev_rate = Some(rate);

        // Project one interval ahead; never below the current rate when the
        // workload is rising (envelope detection), never negative.
        let projected = (rate + slope * input.interval).max(0.0);
        let envelope = projected.max(rate);

        let needed_raw = envelope * input.service_demand / self.target_utilization;
        let needed = crate::convert::i64_from_f64(
            if (needed_raw - needed_raw.round()).abs() < 1e-9 {
                needed_raw.round()
            } else {
                needed_raw.ceil()
            }
            .max(1.0),
        );
        let current = i64::from(input.current_instances);

        if needed > current {
            self.low_intervals = 0;
            return needed - current;
        }
        if needed < current {
            self.low_intervals += 1;
            if self.low_intervals >= self.release_hysteresis {
                let surplus = current - needed;
                let release =
                    crate::convert::i64_from_f64((surplus as f64 * self.release_fraction).ceil())
                        .max(1);
                return -release.min(surplus);
            }
            return 0;
        }
        self.low_intervals = 0;
        0
    }

    fn reset(&mut self) {
        self.prev_rate = None;
        self.low_intervals = 0;
    }

    fn clone_box(&self) -> Box<dyn AutoScaler + Send> {
        Box::new(self.clone())
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

    fn input(t: f64, rate: f64, n: u32) -> ScalerInput {
        ScalerInput::new(t, 60.0, (rate * 60.0).round() as u64, 0.1, n)
    }

    #[test]
    fn first_decision_sizes_for_current_rate() {
        let mut a = Adapt::default();
        // 19 req/s · 0.1 / 0.95 = 2 instances.
        assert_eq!(a.decide(&input(0.0, 19.0, 1)), 1);
    }

    #[test]
    fn rising_load_provisions_ahead() {
        let mut a = Adapt::default();
        a.decide(&input(0.0, 10.0, 2));
        // Rate jumped to 20: slope projects 30 next interval.
        let delta = a.decide(&input(60.0, 20.0, 2));
        // needed = ceil(30·0.1/0.95) = 4 => +2.
        assert_eq!(delta, 2);
    }

    #[test]
    fn falling_load_released_with_hysteresis() {
        let mut a = Adapt::default();
        a.decide(&input(0.0, 50.0, 6));
        // Load drops to ~9.5 req/s => needed 1, surplus 5.
        assert_eq!(
            a.decide(&input(60.0, 9.5, 6)),
            0,
            "first low interval holds"
        );
        let delta = a.decide(&input(120.0, 9.5, 6));
        assert_eq!(delta, -3, "releases half the surplus of 5, rounded up");
    }

    #[test]
    fn upscale_resets_hysteresis() {
        let mut a = Adapt::default();
        a.decide(&input(0.0, 50.0, 6));
        a.decide(&input(60.0, 9.5, 6)); // low #1
        a.decide(&input(120.0, 100.0, 6)); // spike: scale up, reset
        assert_eq!(a.decide(&input(180.0, 9.5, 6)), 0, "hysteresis restarted");
    }

    #[test]
    fn envelope_never_projects_below_current_rate() {
        let mut a = Adapt::default();
        // First call: needed 11 < current 20 counts as the first low
        // interval (hold).
        assert_eq!(a.decide(&input(0.0, 100.0, 20)), 0);
        // Sharp drop: the raw projection (10 − 90 = −80) is clamped and the
        // envelope keeps the observed rate 10 => needed = ceil(1/0.95) = 2,
        // surplus 18, second low interval releases half.
        let delta = a.decide(&input(60.0, 10.0, 20));
        assert_eq!(delta, -9);
    }

    #[test]
    fn reset_clears_state() {
        let mut a = Adapt::default();
        a.decide(&input(0.0, 10.0, 1));
        a.reset();
        assert_eq!(a.prev_rate, None);
        assert_eq!(a.low_intervals, 0);
    }

    #[test]
    fn invalid_target_falls_back() {
        assert_eq!(Adapt::new(f64::NAN).target_utilization, 0.95);
        assert_eq!(Adapt::new(-0.5).target_utilization, 0.95);
        assert_eq!(Adapt::new(2.0).target_utilization, 1.0);
    }
}
