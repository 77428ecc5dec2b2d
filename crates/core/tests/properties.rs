//! Property-based tests for the Chamulteon controller and its components.

// Example/test/bench code: panics and lossy casts are acceptable here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use chamulteon::{
    proactive_decisions, resolve_scope, Chamulteon, ChamulteonConfig, ChargingModel, Fox,
    RetryPolicy, VerticalPolicy,
};
use chamulteon_demand::MonitoringSample;
use chamulteon_obs::Winner;
use chamulteon_perfmodel::ApplicationModel;
use proptest::prelude::*;

fn sample_for(rate: f64, demand: f64, n: u32) -> MonitoringSample {
    let n = n.max(1);
    let util = (rate * demand / f64::from(n)).min(1.0);
    let capacity = f64::from(n) / demand;
    MonitoringSample::new(60.0, (rate * 60.0).round() as u64, util, n, None)
        .unwrap()
        .with_completions((rate.min(capacity) * 60.0).round() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Controller targets always respect the model bounds, under arbitrary
    /// load sequences.
    #[test]
    fn targets_always_within_bounds(loads in prop::collection::vec(0.0f64..2000.0, 1..25)) {
        let model = ApplicationModel::paper_benchmark();
        let mut c = Chamulteon::new(model.clone(), ChamulteonConfig::default());
        let mut n = [1u32, 1, 1];
        let demands = [0.059, 0.1, 0.04];
        for (k, &rate) in loads.iter().enumerate() {
            let samples: Vec<MonitoringSample> = (0..3)
                .map(|i| sample_for(rate, demands[i], n[i]))
                .collect();
            let targets = c.tick(60.0 * (k as f64 + 1.0), &samples);
            prop_assert_eq!(targets.len(), 3);
            for (i, &t) in targets.iter().enumerate() {
                prop_assert!(t >= model.service(i).min_instances());
                prop_assert!(t <= model.service(i).max_instances());
                n[i] = t;
            }
        }
    }

    /// At steady load the controller converges and then holds: after
    /// convergence the targets stop changing (no oscillation).
    #[test]
    fn no_oscillation_at_steady_load(rate in 5.0f64..400.0) {
        let model = ApplicationModel::paper_benchmark();
        let mut c = Chamulteon::new(model, ChamulteonConfig::reactive_only());
        let demands = [0.059, 0.1, 0.04];
        let mut n = [1u32, 1, 1];
        let mut history = Vec::new();
        for k in 0..25 {
            let samples: Vec<MonitoringSample> = (0..3)
                .map(|i| sample_for(rate, demands[i], n[i]))
                .collect();
            let targets = c.tick(60.0 * (k as f64 + 1.0), &samples);
            n = [targets[0], targets[1], targets[2]];
            history.push(n);
        }
        // The last 10 rounds must be identical.
        let last = history[history.len() - 1];
        for round in &history[history.len() - 10..] {
            prop_assert_eq!(*round, last);
        }
        // And the settled capacity serves the load at every tier.
        for i in 0..3 {
            prop_assert!(f64::from(last[i]) / demands[i] >= rate * 0.99);
        }
    }

    /// Algorithm 1 output capacity covers the offered (possibly throttled)
    /// rate at the target utilization, for every tier.
    #[test]
    fn algorithm1_capacity_sufficient(
        rate in 0.0f64..3000.0,
        n1 in 1u32..100, n2 in 1u32..100, n3 in 1u32..100,
    ) {
        let model = ApplicationModel::paper_benchmark();
        let config = ChamulteonConfig::default();
        let demands = [0.059, 0.1, 0.04];
        let targets = proactive_decisions(&model, rate, &demands, &[n1, n2, n3], &config);
        // Effective rates after the *new* sizing.
        let mut upstream = rate;
        for i in 0..3 {
            let capacity = f64::from(targets[i]) / demands[i];
            // Either the tier covers its offered rate at rho_upper, or it
            // is pinned at the model maximum.
            prop_assert!(
                capacity * config.rho_upper >= upstream - 1e-6 || targets[i] == 200,
                "tier {i}: capacity {capacity} for offered {upstream}"
            );
            upstream = upstream.min(capacity);
        }
    }

    /// Scope resolution never invents targets: the resolved target is
    /// always one of the inputs.
    #[test]
    fn resolution_picks_an_input(
        p_target in 1u32..50,
        r_target in 1u32..50,
        current in 1u32..50,
        trusted in any::<bool>(),
    ) {
        let (chosen, winner) = resolve_scope(Some((p_target, trusted)), current, Some(r_target));
        prop_assert!(chosen == p_target || chosen == r_target);
        // Trusted + wants-to-scale must pick proactive; otherwise reactive.
        if trusted && p_target != current {
            prop_assert_eq!((chosen, winner), (p_target, Winner::Proactive));
        } else {
            prop_assert_eq!((chosen, winner), (r_target, Winner::Reactive));
        }
    }

    /// FOX review never lowers a scale-up and never raises a target above
    /// the current count during a scale-down.
    #[test]
    fn fox_review_sandwiched(
        current in 1u32..50,
        proposed in 1u32..50,
        elapsed in 0.0f64..7200.0,
    ) {
        let mut fox = Fox::new(ChargingModel::ec2_hourly(), 1);
        fox.review(0, 0.0, current, current); // open leases at t = 0
        let reviewed = fox.review(0, elapsed, current, proposed);
        if proposed >= current {
            prop_assert_eq!(reviewed, proposed);
        } else {
            prop_assert!(reviewed >= proposed);
            prop_assert!(reviewed <= current);
        }
    }

    /// The hybrid vertical policy always returns a decision whose capacity
    /// covers the load when any feasible option exists.
    #[test]
    fn vertical_policy_feasible_when_possible(
        rate in 0.0f64..500.0,
        demand in 0.01f64..0.3,
        max_n in 1u32..200,
    ) {
        let policy = VerticalPolicy::ec2_like();
        let d = policy.decide(rate, demand, 0.8, 1, max_n);
        prop_assert!(d.instances >= 1 && d.instances <= max_n.max(1));
        let speed = policy.sizes()[d.size_index].speed;
        let needed_units = rate * demand / 0.8;
        let best_possible = f64::from(max_n) * 4.0; // biggest rung is 4x
        if needed_units <= best_possible {
            prop_assert!(
                f64::from(d.instances) * speed + 1e-6 >= needed_units,
                "infeasible pick: {d:?} for {needed_units} units"
            );
        }
        prop_assert!(d.cost_per_hour > 0.0);
    }

    /// The sanitized backoff sequence is finite, non-negative, capped at
    /// `max_backoff` and monotone non-decreasing — including attempt
    /// numbers far past the `2^1023` overflow point and an extreme
    /// `max_attempts` budget.
    #[test]
    fn backoff_sequence_is_monotone_capped_and_finite(
        max_attempts in 1u32..=u32::MAX,
        base in -1.0f64..1e305,
        cap in -1.0f64..1e305,
        attempt in 0u32..=u32::MAX,
        step in 1u32..2000,
    ) {
        let policy = RetryPolicy::new(max_attempts, base, cap);
        prop_assert!(policy.max_attempts >= 1);
        let here = policy.backoff(attempt);
        let later = policy.backoff(attempt.saturating_add(step));
        for b in [here, later] {
            prop_assert!(b.is_finite(), "non-finite backoff: {b}");
            prop_assert!(b >= 0.0, "negative backoff: {b}");
            prop_assert!(b <= policy.max_backoff, "{b} above cap {}", policy.max_backoff);
        }
        prop_assert!(later >= here, "backoff not monotone: {here} then {later}");
    }

    /// The backoff guarantees hold even when the public fields are set
    /// directly to degenerate values (NaN, infinities, negatives) without
    /// going through the sanitizing constructor.
    #[test]
    fn backoff_survives_degenerate_fields(
        base_pick in 0usize..6,
        cap_pick in 0usize..6,
        attempt in 0u32..=u32::MAX,
    ) {
        let degenerate = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 0.0, 1.0e308];
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: degenerate[base_pick],
            max_backoff: degenerate[cap_pick],
        };
        let b0 = policy.backoff(attempt);
        let b1 = policy.backoff(attempt.saturating_add(1));
        prop_assert!(b0.is_finite() && b0 >= 0.0, "degenerate fields leaked: {b0}");
        prop_assert!(b1.is_finite() && b1 >= 0.0, "degenerate fields leaked: {b1}");
        prop_assert!(b1 >= b0);
    }
}
