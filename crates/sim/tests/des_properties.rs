//! Property-based tests for the simulation engine's station law and
//! hybrid fluid regime.
//!
//! Three families:
//!
//! 1. **Station law** — pure-DES sojourns track the analytic M/M/n mean
//!    response time.
//! 2. **Hybrid accuracy** — with the switch threshold in play (including
//!    loads that ping-pong across it), the hybrid run's aggregate
//!    statistics stay inside generous statistical bands of the pure-DES
//!    run, and conservation holds exactly in both.
//! 3. **Determinism** — the same seed and the same `FaultPlan` produce a
//!    byte-identical `SimulationResult`, run after run, in every regime.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: panics and lossy casts are acceptable here"
)]
use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_queueing::MmnQueue;
use chamulteon_sim::{
    DeploymentProfile, FaultPlan, HybridConfig, Simulation, SimulationConfig, SimulationResult,
    SloPolicy,
};
use chamulteon_workload::LoadTrace;
use proptest::prelude::*;

fn config(seed: u64) -> SimulationConfig {
    SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), seed)
        .with_monitoring_interval(30.0)
}

/// Paper benchmark, generous static supply so every load in the test
/// ranges is stable.
fn provisioned_des(rates: &[f64], seed: u64, hybrid: Option<HybridConfig>) -> Simulation {
    let model = ApplicationModel::paper_benchmark();
    let trace = LoadTrace::new(30.0, rates.to_vec()).unwrap();
    let mut cfg = config(seed);
    if let Some(h) = hybrid {
        cfg = cfg.with_hybrid(h);
    }
    let mut sim = Simulation::new(&model, &trace, cfg);
    let peak = rates.iter().cloned().fold(1.0_f64, f64::max);
    for (s, demand) in [0.059, 0.1, 0.04].iter().enumerate() {
        let supply = (peak * demand * 1.6).ceil() as u32 + 2;
        sim.set_supply(s, supply).unwrap();
    }
    sim
}

fn conservation(result: &SimulationResult) -> (u64, u64) {
    let sent: u64 = result.sent_per_second.iter().sum();
    (sent, result.completed + result.in_flight_at_end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At paper-scale load the DES station statistics track the analytic
    /// M/M/n law (the independent referee the conformance suite also
    /// uses): the measured mean sojourn of a single-service application
    /// stays inside a generous confidence band of the Erlang-C mean
    /// response time.
    #[test]
    fn des_sojourns_track_the_analytic_station_law(
        rate in 40.0f64..120.0,
        seed in 0u64..1000,
    ) {
        let demand = 0.059;
        let servers = ((rate * demand / 0.7).ceil() as u32).max(2);
        let model = ApplicationModelBuilder::new()
            .service("station", demand, 1, 64, servers)
            .entry("station")
            .build()
            .unwrap();
        let trace = LoadTrace::new(400.0, vec![rate]).unwrap();
        let sim = Simulation::new(&model, &trace, config(seed));
        let result = sim.run_to_end();
        let (sent, accounted) = conservation(&result);
        prop_assert_eq!(sent, accounted);
        prop_assert!(result.completed > 0);
        let analytic = MmnQueue::new(rate, demand, servers)
            .unwrap()
            .mean_response_time()
            .unwrap();
        let measured = result.mean_response_time();
        let tolerance = 0.004 + 0.2 * analytic;
        prop_assert!(
            (measured - analytic).abs() <= tolerance,
            "λ={} n={}: measured {} vs analytic {} ± {}",
            rate, servers, measured, analytic, tolerance
        );
    }

    /// Hybrid runs agree with pure-DES runs within statistical bands when
    /// the load ping-pongs across the switch threshold, and the
    /// hysteresis actually produces regime switches without melting the
    /// run into one regime forever.
    #[test]
    fn hybrid_matches_pure_des_across_the_threshold(
        low in 20.0f64..60.0,
        ratio in 2.5f64..5.0,
        seed in 0u64..1000,
    ) {
        let high = low * ratio;
        // Two full low/high oscillations, 4 segments each.
        let mut rates = Vec::new();
        for _ in 0..2 {
            rates.extend_from_slice(&[low; 4]);
            rates.extend_from_slice(&[high; 4]);
        }
        // Threshold between the low and high offered loads of the
        // bottleneck service (demand 0.1, visit ratio 1), so the load
        // crosses it in both directions; the down-switch threshold is
        // placed just above the low phase's offered load (otherwise a
        // single up-switch would stick, by design of the hysteresis).
        let threshold = (low * 0.1 + high * 0.1) / 2.0;
        let hysteresis = (0.11 * low / threshold).min(0.95);
        let hybrid = HybridConfig::new(threshold, hysteresis, 128);

        let pure = provisioned_des(&rates, seed, None).run_to_end();
        let mut sim = provisioned_des(&rates, seed, Some(hybrid));
        let duration = sim.duration();
        sim.run_until(duration).unwrap();
        let switches = sim.regime_switches();
        let result = sim.finish();

        let (ps, pa) = conservation(&pure);
        prop_assert_eq!(ps, pa);
        let (hs, ha) = conservation(&result);
        prop_assert_eq!(hs, ha);

        // The load crosses the threshold 4 times; at least one service
        // must have switched regimes, and the hysteresis bounds the
        // ping-pong (≤ one flip per service per monitoring tick is the
        // hard ceiling; in practice far fewer).
        prop_assert!(switches >= 2, "no regime switches at threshold {}", threshold);
        let ticks = (duration / 30.0).ceil() as u64 + 2;
        prop_assert!(switches <= 4 * ticks, "{} switches in {} ticks", switches, ticks);

        // Aggregate statistics agree within generous stochastic bands.
        let total = ps.max(1) as f64;
        let diff = (ps as f64 - hs as f64).abs();
        prop_assert!(diff / total < 0.05, "sent: pure {} vs hybrid {}", ps, hs);
        let completed_diff = (pure.completed as f64 - result.completed as f64).abs();
        prop_assert!(
            completed_diff / (pure.completed.max(1) as f64) < 0.08,
            "completed: pure {} vs hybrid {}",
            pure.completed, result.completed
        );
        let rt_pure = pure.mean_response_time();
        let rt_hybrid = result.mean_response_time();
        prop_assert!(
            (rt_pure - rt_hybrid).abs() <= 0.01 + 0.35 * rt_pure.max(rt_hybrid),
            "response: pure {} vs hybrid {}",
            rt_pure, rt_hybrid
        );
    }

    /// The event heap is deterministic: the same seed and the same
    /// `FaultPlan` give a byte-identical result three runs in a row —
    /// with the hybrid switch active, so the fluid regime's extra RNG
    /// streams are covered too.
    #[test]
    fn same_seed_and_fault_plan_replay_identically(
        rates in prop::collection::vec(5.0f64..200.0, 2..6),
        seed in 0u64..1000,
        fault_seed in 0u64..1000,
        crash_start in 0.0f64..60.0,
    ) {
        let plan = FaultPlan::new(fault_seed)
            .crash_instances(None, crash_start, crash_start + 60.0, 0.5, 2)
            .drop_samples(Some(1), 0.0, 120.0, 0.3);
        let hybrid = HybridConfig::new(4.0, 0.5, 64);
        let run = || {
            let model = ApplicationModel::paper_benchmark();
            let trace = LoadTrace::new(30.0, rates.clone()).unwrap();
            let cfg = config(seed)
                .with_hybrid(hybrid)
                .with_fault_plan(plan.clone());
            let mut sim = Simulation::new(&model, &trace, cfg);
            for s in 0..3 {
                sim.set_supply(s, 8).unwrap();
            }
            sim.run_to_end()
        };
        let first = run();
        let second = run();
        let third = run();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&second, &third);
        let (sent, accounted) = conservation(&first);
        prop_assert_eq!(sent, accounted);
    }
}
