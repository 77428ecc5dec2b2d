//! Property-based tests for the discrete-event simulator.

#![allow(clippy::unwrap_used, reason = "test code: panics are acceptable here")]
use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
use chamulteon_workload::LoadTrace;
use proptest::prelude::*;

fn simulation(rates: &[f64], seed: u64) -> Simulation {
    simulate_model(&ApplicationModel::paper_benchmark(), rates, seed)
}

fn simulate_model(model: &ApplicationModel, rates: &[f64], seed: u64) -> Simulation {
    let trace = LoadTrace::new(30.0, rates.to_vec()).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), seed)
        .with_monitoring_interval(30.0);
    Simulation::new(model, &trace, config)
}

/// The paper chain declared as `data, ui, validation`, so that index order
/// is not the call order `ui → validation → data`.
fn reordered_paper_model() -> ApplicationModel {
    ApplicationModelBuilder::new()
        .service("data", 0.04, 1, 200, 1)
        .service("ui", 0.059, 1, 200, 1)
        .service("validation", 0.1, 1, 200, 1)
        .call("ui", "validation", 1.0)
        .call("validation", "data", 1.0)
        .entry("ui")
        .build()
        .unwrap()
}

/// The index of each `paper_benchmark()` service (ui, validation, data) in
/// [`reordered_paper_model`], which is also that model's topological order.
const REORDERED: [usize; 3] = [1, 2, 0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: injected = completed + in flight, under arbitrary
    /// load profiles and arbitrary interleaved scaling actions.
    #[test]
    fn conservation_under_random_scaling(
        rates in prop::collection::vec(0.0f64..150.0, 2..8),
        actions in prop::collection::vec((0usize..3, 1u32..40), 0..12),
        seed in 0u64..1000,
    ) {
        let mut sim = simulation(&rates, seed);
        let duration = sim.duration();
        // Spread the scaling actions over the run.
        let slots = actions.len().max(1) as f64;
        for (i, (service, target)) in actions.iter().enumerate() {
            sim.run_until(duration * (i as f64 + 1.0) / (slots + 1.0)).unwrap();
            sim.scale_to(*service, *target).unwrap();
        }
        let result = sim.run_to_end();
        let sent: u64 = result.sent_per_second.iter().sum();
        prop_assert_eq!(sent, result.completed + result.in_flight_at_end);
        prop_assert_eq!(result.completed, result.satisfied + result.tolerating
            + (result.completed - result.satisfied - result.tolerating));
        prop_assert!(result.satisfied + result.tolerating <= result.completed);
    }

    /// Supply timelines never violate the model bounds and never change
    /// retroactively (times strictly increase... weakly, with distinct
    /// values).
    #[test]
    fn supply_timeline_well_formed(
        rates in prop::collection::vec(0.0f64..100.0, 2..6),
        actions in prop::collection::vec((0usize..3, 0u32..250), 1..10),
        seed in 0u64..500,
    ) {
        let mut sim = simulation(&rates, seed);
        let duration = sim.duration();
        for (i, (service, target)) in actions.iter().enumerate() {
            sim.run_until(duration * (i as f64 + 1.0) / (actions.len() as f64 + 1.0)).unwrap();
            sim.scale_to(*service, *target).unwrap();
        }
        let result = sim.run_to_end();
        for timeline in &result.supply {
            for w in timeline.windows(2) {
                prop_assert!(w[0].time <= w[1].time);
                prop_assert!(w[0].running != w[1].running || w[0].time < w[1].time);
            }
            for c in timeline {
                prop_assert!(c.running >= 1);
                prop_assert!(c.running <= 200);
            }
        }
    }

    /// Monitoring statistics are internally consistent: utilization in
    /// [0, 1], per-interval completions consistent with totals.
    #[test]
    fn interval_stats_consistent(
        rates in prop::collection::vec(0.0f64..120.0, 2..6),
        supply in 1u32..30,
        seed in 0u64..500,
    ) {
        let mut sim = simulation(&rates, seed);
        for s in 0..3 {
            sim.set_supply(s, supply).unwrap();
        }
        sim.run_until(sim.duration()).unwrap();
        let intervals = sim.intervals_completed();
        let mut total_completions = 0u64;
        for k in 0..intervals {
            let stats = sim.interval(k).unwrap();
            for s in &stats {
                prop_assert!((0.0..=1.0).contains(&s.utilization));
                if let Some(rt) = s.mean_response_time {
                    prop_assert!(rt > 0.0);
                }
            }
            total_completions += stats[2].completions; // last tier
        }
        let result = sim.finish();
        // The last tier's completions are exactly the finished requests
        // (within the monitored horizon).
        prop_assert!(total_completions <= result.completed + result.in_flight_at_end);
    }

    /// Determinism: identical seeds and action sequences give identical
    /// results.
    #[test]
    fn determinism_under_actions(
        rates in prop::collection::vec(0.0f64..100.0, 2..5),
        actions in prop::collection::vec((0usize..3, 1u32..40), 0..6),
        seed in 0u64..200,
    ) {
        let run = |seed| {
            let mut sim = simulation(&rates, seed);
            let duration = sim.duration();
            for (i, (service, target)) in actions.iter().enumerate() {
                sim.run_until(duration * (i as f64 + 1.0) / (actions.len() as f64 + 1.0)).unwrap();
                sim.scale_to(*service, *target).unwrap();
            }
            sim.run_to_end()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The request path follows the graph's topological order, not the
    /// service indices: the paper chain declared in another index order
    /// simulates the same run under the same supply, with its per-service
    /// results permuted. Both sides issue the same scaling commands in the
    /// same order, since simultaneous events fire in scheduling order and
    /// draw from one random stream.
    #[test]
    fn request_path_follows_the_topological_order(
        rates in prop::collection::vec(0.0f64..150.0, 2..6),
        actions in prop::collection::vec((0usize..3, 1u32..40), 0..6),
        seed in 0u64..500,
    ) {
        let reordered = reordered_paper_model();
        prop_assert_eq!(reordered.graph().topological_order(), &REORDERED[..]);
        let run = |model: &ApplicationModel, index: [usize; 3]| {
            let mut sim = simulate_model(model, &rates, seed);
            let duration = sim.duration();
            for (i, &(service, target)) in actions.iter().enumerate() {
                sim.run_until(duration * (i as f64 + 1.0) / (actions.len() as f64 + 1.0)).unwrap();
                sim.scale_to(index[service], target).unwrap();
            }
            sim.run_to_end()
        };
        let paper = run(&ApplicationModel::paper_benchmark(), [0, 1, 2]);
        let permuted = run(&reordered, REORDERED);
        prop_assert_eq!(&permuted.sent_per_second, &paper.sent_per_second);
        prop_assert_eq!(&permuted.conformant_per_second, &paper.conformant_per_second);
        prop_assert_eq!(
            (permuted.completed, permuted.satisfied, permuted.tolerating, permuted.in_flight_at_end),
            (paper.completed, paper.satisfied, paper.tolerating, paper.in_flight_at_end)
        );
        prop_assert_eq!(permuted.response_time_sum.to_bits(), paper.response_time_sum.to_bits());
        for (p, &q) in REORDERED.iter().enumerate() {
            prop_assert_eq!(&permuted.supply[q], &paper.supply[p]);
            prop_assert_eq!(&permuted.interval_history[q], &paper.interval_history[p]);
        }
    }
}
