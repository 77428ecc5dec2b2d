//! Property-based tests for the queueing primitives.

use chamulteon_queueing::capacity::{
    self, min_instances_for_response_time, min_instances_for_response_time_quantile,
    min_instances_for_utilization,
};
use chamulteon_queueing::erlang::{erlang_b, erlang_c, ErlangSweep};
use chamulteon_queueing::{CapacityCache, MmnQueue};
use proptest::prelude::*;

proptest! {
    /// Erlang-B is always a probability.
    #[test]
    fn erlang_b_in_unit_interval(n in 1u32..500, a in 0.0f64..400.0) {
        let b = erlang_b(n, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&b));
    }

    /// Erlang-B decreases as servers are added (more trunks, less blocking).
    #[test]
    fn erlang_b_monotone_in_servers(n in 1u32..200, a in 0.01f64..150.0) {
        let b1 = erlang_b(n, a).unwrap();
        let b2 = erlang_b(n + 1, a).unwrap();
        prop_assert!(b2 <= b1 + 1e-12);
    }

    /// Erlang-B increases with offered load.
    #[test]
    fn erlang_b_monotone_in_load(n in 1u32..100, a in 0.01f64..100.0, da in 0.01f64..10.0) {
        let b1 = erlang_b(n, a).unwrap();
        let b2 = erlang_b(n, a + da).unwrap();
        prop_assert!(b2 >= b1 - 1e-12);
    }

    /// Erlang-C is a probability and at least Erlang-B for stable systems.
    #[test]
    fn erlang_c_bounds(n in 1u32..300, frac in 0.01f64..0.99) {
        let a = f64::from(n) * frac;
        let b = erlang_b(n, a).unwrap();
        let c = erlang_c(n, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(c >= b - 1e-12);
    }

    /// Stable stations always have a finite positive response time no less
    /// than the bare service demand.
    #[test]
    fn response_time_at_least_demand(
        n in 1u32..200,
        s in 0.001f64..2.0,
        frac in 0.01f64..0.99,
    ) {
        let lambda = f64::from(n) * frac / s;
        let q = MmnQueue::new(lambda, s, n).unwrap();
        let r = q.mean_response_time().unwrap();
        prop_assert!(r.is_finite());
        prop_assert!(r >= s - 1e-12);
    }

    /// The utilization solver output always meets the target and is minimal.
    #[test]
    fn utilization_solver_sound_and_minimal(
        lambda in 0.01f64..5000.0,
        s in 0.001f64..2.0,
        rho in 0.05f64..1.0,
    ) {
        let n = min_instances_for_utilization(lambda, s, rho);
        prop_assert!(n >= 1);
        prop_assert!(lambda * s / f64::from(n) <= rho + 1e-6);
        if n > 1 {
            prop_assert!(lambda * s / f64::from(n - 1) > rho - 1e-6);
        }
    }

    /// The utilization solver inverts the largest rate `n` instances absorb
    /// at utilization ρ, λ = n·ρ/s.
    #[test]
    fn capacity_round_trip(n in 1u32..1000, s in 0.001f64..1.0, rho in 0.1f64..1.0) {
        let lambda = f64::from(n) * rho / s;
        let back = min_instances_for_utilization(lambda, s, rho);
        prop_assert_eq!(back, n.max(1));
    }

    /// The SLO solver result is stable and meets the target.
    #[test]
    fn slo_solver_sound(
        lambda in 0.1f64..500.0,
        s in 0.01f64..0.5,
        slack in 1.05f64..10.0,
    ) {
        let target = s * slack;
        let n = min_instances_for_response_time(lambda, s, target, 1_000_000).unwrap();
        let q = MmnQueue::new(lambda, s, n).unwrap();
        prop_assert!(q.is_stable());
        prop_assert!(q.mean_response_time().unwrap() <= target + 1e-9);
    }

    /// The incremental Erlang sweep is bit-identical to the from-scratch
    /// formulas at every server count it passes through.
    #[test]
    fn sweep_bit_equal_to_from_scratch(a in 0.0f64..400.0, upto in 1u32..300) {
        let mut sweep = ErlangSweep::new(a).unwrap();
        for n in 1..=upto {
            sweep.step();
            prop_assert_eq!(
                sweep.blocking().unwrap().to_bits(),
                erlang_b(n, a).unwrap().to_bits()
            );
            match (sweep.waiting(), erlang_c(n, a)) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                (Err(_), Err(_)) => {}
                (x, y) => prop_assert!(false, "divergent errors: {:?} vs {:?}", x, y),
            }
        }
    }

    /// The incremental mean-response-time solver is bit-equal to the naive
    /// O(n²) reference search across random inputs — results *and* errors.
    #[test]
    fn incremental_mean_solver_equals_naive(
        lambda in 0.0f64..2000.0,
        s in 0.0005f64..2.0,
        slack in 0.5f64..10.0,
        max in 1u32..400,
    ) {
        let target = s * slack;
        let fast = min_instances_for_response_time(lambda, s, target, max);
        let slow = capacity::naive::min_instances_for_response_time(lambda, s, target, max);
        prop_assert_eq!(fast, slow);
    }

    /// Same bit-equality for the quantile solver, across random quantiles.
    #[test]
    fn incremental_quantile_solver_equals_naive(
        lambda in 0.0f64..2000.0,
        s in 0.0005f64..2.0,
        slack in 0.5f64..10.0,
        p in 0.01f64..0.999,
        max in 1u32..400,
    ) {
        let target = s * slack;
        let fast = min_instances_for_response_time_quantile(lambda, s, target, p, max);
        let slow =
            capacity::naive::min_instances_for_response_time_quantile(lambda, s, target, p, max);
        prop_assert_eq!(fast, slow);
    }

    /// The memo cache never undersizes relative to the exact solver, and
    /// overshoots by at most one instance (quantization boundary cases).
    #[test]
    fn cache_is_conservative(
        lambda in 0.1f64..1000.0,
        s in 0.005f64..0.5,
        slack in 1.05f64..8.0,
        p in 0.5f64..0.99,
    ) {
        let target = s * slack;
        let cache = CapacityCache::new();
        let cached = cache
            .min_instances_for_response_time_quantile(lambda, s, target, p, 1_000_000)
            .unwrap();
        let exact =
            min_instances_for_response_time_quantile(lambda, s, target, p, 1_000_000).unwrap();
        prop_assert!(cached >= exact, "cached {} < exact {}", cached, exact);
        prop_assert!(cached <= exact + 1, "cached {} ≫ exact {}", cached, exact);
    }
}
