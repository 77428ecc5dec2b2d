//! Property-based tests for the metrics crate.

use chamulteon_metrics::StepFn;
use proptest::prelude::*;

/// The pre-optimization `value_at`: a linear scan from the front. Kept as
/// the reference semantics the binary search must reproduce exactly.
fn value_at_linear(points: &[(f64, u32)], t: f64) -> u32 {
    let mut value = points.first().map(|p| p.1).unwrap_or(0);
    for &(time, v) in points {
        if time <= t {
            value = v;
        } else {
            break;
        }
    }
    value
}

fn step_points() -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((-100.0f64..1000.0, 0u32..50), 0..40)
}

proptest! {
    /// The binary-search `value_at` agrees with the linear scan at every
    /// query time — before, between, exactly on, and after change points.
    #[test]
    fn binary_search_matches_linear_scan(
        raw in step_points(),
        queries in prop::collection::vec(-200.0f64..1200.0, 1..30),
    ) {
        let f = StepFn::new(raw);
        for &t in &queries {
            prop_assert_eq!(f.value_at(t), value_at_linear(f.points(), t));
        }
        // Probe exactly on every change point and just around it, where
        // an off-by-one in the partition would show.
        for &(time, _) in f.points() {
            for t in [time, time - 1e-9, time + 1e-9, time - 1.0, time + 1.0] {
                prop_assert_eq!(f.value_at(t), value_at_linear(f.points(), t));
            }
        }
        // NaN queries: no comparison holds, both take the first value.
        prop_assert_eq!(f.value_at(f64::NAN), value_at_linear(f.points(), f64::NAN));
    }

    /// `mean_over` is unchanged by the lookup rewrite: it still equals the
    /// explicit integral of the linear-scan reference.
    #[test]
    fn mean_over_matches_linear_reference(
        raw in step_points(),
        horizon in 1.0f64..500.0,
    ) {
        let f = StepFn::new(raw);
        let grid = f.merged_breakpoints(&StepFn::new(vec![]), horizon);
        let mut integral = 0.0;
        for w in grid.windows(2) {
            integral += f64::from(value_at_linear(f.points(), w[0])) * (w[1] - w[0]);
        }
        let expected = integral / horizon;
        prop_assert!((f.mean_over(horizon) - expected).abs() < 1e-9);
    }
}
