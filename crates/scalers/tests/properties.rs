//! Property-based tests for the baseline auto-scalers.

// Example/test/bench code: panics and lossy casts are acceptable here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use chamulteon_perfmodel::InvocationGraph;
use chamulteon_scalers::{
    chain_rates, Adapt, AutoScaler, Hist, IndependentScalers, React, Reg, ScalerInput,
};
use proptest::prelude::*;

fn all_scalers() -> Vec<Box<dyn AutoScaler + Send>> {
    vec![
        Box::new(React::default()),
        Box::new(Adapt::default()),
        Box::new(Hist::default()),
        Box::new(Reg::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No scaler ever drives the instance count below 1, whatever the
    /// input sequence.
    #[test]
    fn instance_count_never_below_one(
        loads in prop::collection::vec(0.0f64..500.0, 1..40),
        demand in 0.01f64..0.5,
    ) {
        for mut scaler in all_scalers() {
            let mut n: u32 = 1;
            for (k, &rate) in loads.iter().enumerate() {
                let input = ScalerInput::new(
                    k as f64 * 60.0,
                    60.0,
                    (rate * 60.0).round() as u64,
                    demand,
                    n,
                );
                let delta = scaler.decide(&input);
                let next = i64::from(n) + delta;
                prop_assert!(next >= 1, "{} dropped to {next}", scaler.name());
                n = next as u32;
            }
        }
    }

    /// After enough intervals of constant load, every scaler settles on a
    /// capacity that can serve the load (no persistent under-provisioning
    /// at steady state).
    #[test]
    fn steady_state_capacity_sufficient(rate in 5.0f64..300.0, demand in 0.02f64..0.2) {
        for mut scaler in all_scalers() {
            let mut n: u32 = 1;
            for k in 0..60 {
                let input = ScalerInput::new(
                    k as f64 * 60.0,
                    60.0,
                    (rate * 60.0).round() as u64,
                    demand,
                    n,
                );
                n = (i64::from(n) + scaler.decide(&input)).max(1) as u32;
            }
            let capacity = f64::from(n) / demand;
            prop_assert!(
                capacity >= rate * 0.99,
                "{}: settled at {n} instances ({capacity:.1} req/s) for {rate:.1} req/s",
                scaler.name()
            );
        }
    }

    /// Scalers never request an absurd over-provisioning at steady state
    /// (within 3x the minimal requirement after settling).
    #[test]
    fn steady_state_not_absurdly_overprovisioned(rate in 20.0f64..300.0) {
        let demand = 0.1;
        for mut scaler in all_scalers() {
            let mut n: u32 = 1;
            for k in 0..80 {
                let input = ScalerInput::new(
                    k as f64 * 60.0,
                    60.0,
                    (rate * 60.0).round() as u64,
                    demand,
                    n,
                );
                n = (i64::from(n) + scaler.decide(&input)).max(1) as u32;
            }
            let minimal = (rate * demand).ceil();
            prop_assert!(
                f64::from(n) <= minimal * 3.0 + 2.0,
                "{}: {n} instances for minimal {minimal}",
                scaler.name()
            );
        }
    }

    /// The chain-rate formula is monotone non-increasing along the chain
    /// and bounded by each prefix capacity.
    #[test]
    fn chain_rates_bounded(
        rate in 0.0f64..1000.0,
        instances in prop::collection::vec(1u32..50, 1..6),
        demands in prop::collection::vec(0.01f64..0.5, 1..6),
    ) {
        let len = instances.len().min(demands.len());
        let chain = InvocationGraph::from_edges(len, (1..len).map(|i| (i - 1, i, 1.0))).unwrap();
        let rates = chain_rates(&chain, 0, rate, &instances[..len], &demands[..len]);
        prop_assert_eq!(rates.len(), len);
        for w in rates.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
        for (i, &r) in rates.iter().enumerate().skip(1) {
            let upstream_cap = f64::from(instances[i - 1]) / demands[i - 1];
            prop_assert!(r <= upstream_cap + 1e-9);
        }
    }

    /// The multi-service wrapper produces one delta per service and all
    /// resulting counts stay at least 1.
    #[test]
    fn independent_scalers_shape(
        rate in 0.0f64..500.0,
        rounds in 1usize..20,
    ) {
        let mut multi = IndependentScalers::homogeneous(
            InvocationGraph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap(),
            0,
            vec![0.059, 0.1, 0.04],
            || Box::new(React::default()),
        );
        let mut counts = vec![1u32, 1, 1];
        for k in 0..rounds {
            let deltas = multi.decide(
                k as f64 * 60.0,
                60.0,
                (rate * 60.0).round() as u64,
                &counts,
                &[0.059, 0.1, 0.04],
            );
            prop_assert_eq!(deltas.len(), 3);
            for (c, d) in counts.iter_mut().zip(&deltas) {
                let next = i64::from(*c) + d;
                prop_assert!(next >= 1);
                *c = next as u32;
            }
        }
    }

    /// Reset restores initial behavior: a reset scaler decides the same as
    /// a fresh one.
    #[test]
    fn reset_equals_fresh(loads in prop::collection::vec(1.0f64..200.0, 1..10)) {
        for (mut used, mut fresh) in [
            (Box::new(Reg::default()) as Box<dyn AutoScaler + Send>,
             Box::new(Reg::default()) as Box<dyn AutoScaler + Send>),
            (Box::new(Adapt::default()), Box::new(Adapt::default())),
            (Box::new(Hist::default()), Box::new(Hist::default())),
        ] {
            for (k, &rate) in loads.iter().enumerate() {
                let input = ScalerInput::new(k as f64 * 60.0, 60.0, (rate * 60.0) as u64, 0.1, 5);
                let _ = used.decide(&input);
            }
            used.reset();
            let probe = ScalerInput::new(0.0, 60.0, 3000, 0.1, 5);
            prop_assert_eq!(used.decide(&probe), fresh.decide(&probe), "{}", used.name());
        }
    }
}
