//! Property-based tests for the workload crate.

use chamulteon_workload::LoadTrace;
use proptest::prelude::*;

proptest! {
    /// Resampling conserves total load mass (`mean_rate × duration`) for
    /// any positive new step — including steps that do not divide the
    /// duration, where the partial final window must keep the tail.
    #[test]
    fn resample_conserves_mass(
        step in 0.5f64..120.0,
        rates in prop::collection::vec(0.0f64..5_000.0, 1..60),
        new_step in 0.5f64..400.0,
    ) {
        let t = LoadTrace::new(step, rates).unwrap();
        let r = t.resample(new_step).unwrap();
        let mass_before = t.mean_rate() * t.duration();
        let mass_after = r.mean_rate() * r.duration();
        let tolerance = 1e-9 * mass_before.max(1.0);
        prop_assert!(
            (mass_after - mass_before).abs() <= tolerance,
            "mass {mass_before} -> {mass_after} (step {step} -> {new_step})"
        );
        // The resampled grid always covers at least the original span.
        prop_assert!(r.duration() >= t.duration() - 1e-9 * t.duration());
        // And overshoots by less than one full window.
        prop_assert!(r.duration() < t.duration() + new_step + 1e-9 * t.duration());
    }

    /// Resampling onto the same step is the identity up to float noise.
    #[test]
    fn resample_identity_on_same_step(
        step in 0.5f64..120.0,
        rates in prop::collection::vec(0.0f64..5_000.0, 1..40),
    ) {
        let t = LoadTrace::new(step, rates).unwrap();
        let r = t.resample(step).unwrap();
        prop_assert_eq!(r.len(), t.len());
        for (a, b) in r.rates().iter().zip(t.rates()) {
            prop_assert!((a - b).abs() < 1e-6 * b.max(1.0));
        }
    }
}
