//! Cost-oriented accounting metrics.
//!
//! The paper's metric taxonomy (§II-C2) names "cost, system, and
//! user-oriented metrics"; §VI motivates the return-path extension with
//! "sav\[ing\] instance time". These two numbers make both measurable:
//!
//! * [`instance_seconds`] — the resource bill in its rawest form: the
//!   integral of the supply curve,
//! * [`adaptations`] — how many scaling operations the auto-scaler issued;
//!   a direct quantification of oscillation (Reg's pathology in Fig. 2 is
//!   a high adaptation count at equal supply).

use crate::step::StepFn;

/// The integral of the supply curve over `[0, horizon]`: total
/// instance-seconds used. Divide by 3600 for instance-hours.
pub fn instance_seconds(supply: &StepFn, horizon: f64) -> f64 {
    if !(horizon > 0.0) {
        return 0.0;
    }
    supply.mean_over(horizon) * horizon
}

/// The number of supply *changes* within `[0, horizon)` — scaling
/// adaptations actually executed. The initial placement at `t = 0` does
/// not count, and neither does a change point that re-asserts the value
/// already in effect (a hold cycle re-writing the same supply is not an
/// adaptation).
pub fn adaptations(supply: &StepFn, horizon: f64) -> usize {
    let points = supply.points();
    // Before the first change point the function already takes the first
    // value, so a first point at t > 0 is never a change either.
    let mut effective = points.first().map(|p| p.1);
    let mut count = 0;
    for &(t, v) in points {
        if t > 0.0 && t < horizon && effective != Some(v) {
            count += 1;
        }
        effective = Some(v);
    }
    count
}

/// Adaptations per simulated hour — comparable across experiment
/// durations.
pub fn adaptation_rate_per_hour(supply: &StepFn, horizon: f64) -> f64 {
    if !(horizon > 0.0) {
        return 0.0;
    }
    adaptations(supply, horizon) as f64 * 3600.0 / horizon
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_seconds_integrates_steps() {
        let supply = StepFn::new(vec![(0.0, 2), (50.0, 6)]);
        // 2 for 50 s + 6 for 50 s = 400 instance-seconds.
        assert!((instance_seconds(&supply, 100.0) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn constant_supply_costs_linearly() {
        let supply = StepFn::constant(3);
        assert!((instance_seconds(&supply, 3600.0) - 10_800.0).abs() < 1e-9);
        assert_eq!(adaptations(&supply, 3600.0), 0);
    }

    #[test]
    fn degenerate_horizon_is_zero() {
        let supply = StepFn::constant(5);
        assert_eq!(instance_seconds(&supply, 0.0), 0.0);
        assert_eq!(instance_seconds(&supply, -1.0), 0.0);
        assert_eq!(adaptation_rate_per_hour(&supply, 0.0), 0.0);
    }

    #[test]
    fn adaptations_count_changes_not_placement() {
        let supply = StepFn::new(vec![(0.0, 1), (10.0, 3), (20.0, 2), (99.0, 4)]);
        assert_eq!(adaptations(&supply, 100.0), 3);
        // Changes at or past the horizon are not counted.
        assert_eq!(adaptations(&supply, 50.0), 2);
    }

    #[test]
    fn adaptations_skip_value_preserving_points() {
        // The point at t = 10 re-asserts the value already in effect; only
        // the change at t = 20 is a real adaptation.
        let supply = StepFn::new(vec![(0.0, 1), (10.0, 1), (20.0, 2)]);
        assert_eq!(adaptations(&supply, 100.0), 1);
        // A first point at t > 0 takes the value already in effect before
        // it (right-continuous extension), so it is not a change either.
        let late_start = StepFn::new(vec![(30.0, 5), (60.0, 7)]);
        assert_eq!(adaptations(&late_start, 100.0), 1);
        // Alternating holds: 1,1,2,2,1 has two changes.
        let holds = StepFn::new(vec![(0.0, 1), (5.0, 1), (10.0, 2), (15.0, 2), (20.0, 1)]);
        assert_eq!(adaptations(&holds, 100.0), 2);
    }

    #[test]
    fn adaptation_rate_normalizes_by_duration() {
        let supply = StepFn::new(vec![(0.0, 1), (10.0, 2), (20.0, 3)]);
        // 2 adaptations in 1800 s => 4 per hour.
        assert!((adaptation_rate_per_hour(&supply, 1800.0) - 4.0).abs() < 1e-9);
    }
}
