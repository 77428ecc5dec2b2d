//! React — the reactive threshold scaler of Chieu et al. (2009).

use crate::input::{AutoScaler, ScalerInput};

/// The reactive scaling algorithm of Chieu et al., "Dynamic scaling of web
/// applications in a virtualized cloud computing environment" (ICEBE 2009).
///
/// React monitors a per-instance load indicator (here: the utilization
/// implied by the arrival rate and service demand, the indicator the
/// paper's harness provides). When all instances are above the upper
/// threshold it provisions enough new instances to get back below it; when
/// there are instances below the lower threshold *and at least one
/// completely idle instance*, idle instances are released one batch at a
/// time — the cautious release that makes React over-provision in the
/// paper's VM scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct React {
    /// Scale up when utilization exceeds this (default 0.8).
    pub upper_threshold: f64,
    /// Consider scaling down when utilization falls below this
    /// (default 0.5).
    pub lower_threshold: f64,
}

impl Default for React {
    fn default() -> Self {
        React {
            upper_threshold: 0.8,
            lower_threshold: 0.5,
        }
    }
}

impl React {
    /// Creates a React scaler with custom thresholds; invalid or inverted
    /// thresholds fall back to the defaults.
    pub fn new(upper_threshold: f64, lower_threshold: f64) -> Self {
        let d = React::default();
        if upper_threshold.is_finite()
            && lower_threshold.is_finite()
            && 0.0 < lower_threshold
            && lower_threshold < upper_threshold
            && upper_threshold <= 1.0
        {
            React {
                upper_threshold,
                lower_threshold,
            }
        } else {
            d
        }
    }
}

impl AutoScaler for React {
    fn name(&self) -> &str {
        "react"
    }

    fn decide(&mut self, input: &ScalerInput) -> i64 {
        let current = i64::from(input.current_instances);
        let utilization = input.utilization();
        if utilization > self.upper_threshold {
            // Provision instances to return below the upper threshold.
            let needed = i64::from(input.instances_for_utilization(self.upper_threshold));
            return (needed - current).max(1);
        }
        if utilization < self.lower_threshold {
            // Number of instances that would still satisfy the upper
            // threshold if released; React only removes instances that are
            // entirely surplus ("with no active session") and keeps one
            // spare, releasing at most one instance per interval — the
            // slow, conservative drain of the original algorithm.
            let needed = i64::from(input.instances_for_utilization(self.upper_threshold));
            let surplus = current - needed - 1;
            if surplus > 0 {
                return -1;
            }
        }
        0
    }

    fn reset(&mut self) {}

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

    fn input(rate: f64, demand: f64, n: u32) -> ScalerInput {
        ScalerInput::new(0.0, 60.0, (rate * 60.0).round() as u64, demand, n)
    }

    #[test]
    fn scales_up_under_overload() {
        let mut r = React::default();
        // 20 req/s · 0.1 s on 1 instance: utilization 2.0.
        let delta = r.decide(&input(20.0, 0.1, 1));
        // needed = ceil(2.0 / 0.8) = 3 instances.
        assert_eq!(delta, 2);
    }

    #[test]
    fn holds_inside_band() {
        let mut r = React::default();
        // utilization = 0.6: between the thresholds.
        assert_eq!(r.decide(&input(24.0, 0.1, 4)), 0);
    }

    #[test]
    fn releases_slowly_when_idle() {
        let mut r = React::default();
        // 2 req/s · 0.1 s on 10 instances: utilization 0.02.
        let delta = r.decide(&input(2.0, 0.1, 10));
        assert_eq!(delta, -1, "one instance at a time");
    }

    #[test]
    fn keeps_a_spare_instance() {
        let mut r = React::default();
        // needed at 0.8 target = 1; current = 2 => surplus = 0, keep both.
        assert_eq!(r.decide(&input(4.0, 0.1, 2)), 0);
        // current = 3 => surplus 1, release one.
        assert_eq!(r.decide(&input(4.0, 0.1, 3)), -1);
    }

    #[test]
    fn idle_service_drains_to_floor() {
        let mut r = React::default();
        let mut n: u32 = 6;
        for _ in 0..10 {
            let delta = r.decide(&input(0.0, 0.1, n));
            n = (i64::from(n) + delta).max(1) as u32;
        }
        // needed = 1, spare = 1 => floor of 2.
        assert_eq!(n, 2);
    }

    #[test]
    fn always_scales_up_at_least_one_when_over_threshold() {
        let mut r = React::default();
        // utilization 0.81 with needed == current + 1.
        let i = input(8.1, 0.1, 1);
        assert!(r.decide(&i) >= 1);
    }

    #[test]
    fn invalid_thresholds_fall_back() {
        assert_eq!(React::new(0.5, 0.8), React::default());
        assert_eq!(React::new(f64::NAN, 0.2), React::default());
        assert_eq!(React::new(1.5, 0.2), React::default());
        let custom = React::new(0.9, 0.3);
        assert_eq!(custom.upper_threshold, 0.9);
    }
}
