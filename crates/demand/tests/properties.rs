//! Property-based tests for demand estimation.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: lossy casts are acceptable here"
)]
use chamulteon_demand::{service_demand_law, MonitoringSample, RollingDemandEstimator};
use proptest::prelude::*;

proptest! {
    /// The Service Demand Law recovers a planted demand exactly from any
    /// consistent single window.
    #[test]
    fn sdl_exact_on_consistent_window(
        demand in 0.001f64..1.0,
        lambda in 0.1f64..100.0,
        n in 1u32..50,
    ) {
        let duration = 60.0;
        let arrivals = (lambda * duration).round().max(1.0);
        let effective_lambda = arrivals / duration;
        let util = demand * effective_lambda / f64::from(n);
        prop_assume!(util <= 1.0);
        let s = MonitoringSample::new(duration, arrivals as u64, util, n, None).unwrap();
        let est = service_demand_law(&[s]).unwrap();
        prop_assert!((est - demand).abs() < 1e-9);
    }

    /// The estimate is always positive and finite when it succeeds.
    #[test]
    fn estimates_positive_finite(
        windows in prop::collection::vec(
            (1u64..100_000, 0.0f64..1.0, 1u32..100),
            1..10,
        ),
    ) {
        let samples: Vec<MonitoringSample> = windows
            .iter()
            .map(|&(a, u, n)| MonitoringSample::new(60.0, a, u, n, None).unwrap())
            .collect();
        if let Ok(d) = service_demand_law(&samples) {
            prop_assert!(d.is_finite());
            prop_assert!(d > 0.0);
        }
    }

    /// The rolling estimator never yields a non-positive or non-finite
    /// demand, whatever it observes.
    #[test]
    fn rolling_always_usable(
        windows in prop::collection::vec(
            (0u64..10_000, 0.0f64..1.2, 1u32..50),
            0..30,
        ),
        smoothing in 0.05f64..1.0,
    ) {
        let mut est = RollingDemandEstimator::new(8, smoothing, 0.1);
        for (a, u, n) in windows {
            est.observe(MonitoringSample::new(60.0, a, u, n, None).unwrap());
            let d = est.current_demand();
            prop_assert!(d.is_finite() && d > 0.0);
        }
    }

    /// EWMA smoothing keeps the estimate within the range of raw estimates
    /// seen so far (plus the seed).
    #[test]
    fn rolling_within_observed_range(
        demands in prop::collection::vec(0.01f64..1.0, 1..15),
    ) {
        // Window of 1 so each raw estimate equals the planted demand.
        let mut est = RollingDemandEstimator::new(1, 0.3, 0.1);
        let mut lo = 0.1f64;
        let mut hi = 0.1f64;
        for d in demands {
            // λ = 10 on n = 4 => util = d · 10 / 4, keep ≤ 1.
            let util = (d * 10.0 / 4.0).min(1.0);
            let eff_d = util * 4.0 / 10.0; // actual planted demand after clamp
            est.observe(MonitoringSample::new(60.0, 600, util, 4, None).unwrap());
            lo = lo.min(eff_d);
            hi = hi.max(eff_d);
            prop_assert!(est.current_demand() >= lo - 1e-9);
            prop_assert!(est.current_demand() <= hi + 1e-9);
        }
    }
}
