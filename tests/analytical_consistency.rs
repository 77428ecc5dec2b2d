//! Cross-crate consistency: the discrete-event simulator must agree with
//! the analytical M/M/n model that Chamulteon and the metrics rely on —
//! otherwise the controller would be steering with a wrong map.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::queueing::MmnQueue;
use chamulteon_repro::sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
use chamulteon_repro::workload::LoadTrace;

fn fixed_supply_simulation(rate: f64, supply: [u32; 3], duration: f64, seed: u64) -> Simulation {
    let model = ApplicationModel::paper_benchmark();
    let steps = (duration / 60.0).ceil() as usize;
    let trace = LoadTrace::new(60.0, vec![rate; steps]).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), seed);
    let mut sim = Simulation::new(&model, &trace, config);
    for (s, &n) in supply.iter().enumerate() {
        sim.set_supply(s, n).unwrap();
    }
    sim
}

#[test]
fn simulated_response_time_matches_mmn_prediction() {
    // Moderate load on a fixed deployment; compare the simulated mean
    // end-to-end response time with the product-form prediction: every
    // request visits each tier once, so the chain's mean response time is
    // the sum of the tiers' M/M/n sojourn times.
    let rate = 80.0;
    let supply = [7, 11, 5];
    let result = fixed_supply_simulation(rate, supply, 3_600.0, 42).run_to_end();

    let predicted: f64 = [0.059, 0.1, 0.04]
        .iter()
        .zip(supply)
        .map(|(&demand, servers)| {
            MmnQueue::new(rate, demand, servers)
                .unwrap()
                .mean_response_time()
                .unwrap()
        })
        .sum();
    let simulated = result.mean_response_time();
    let rel_err = (simulated - predicted).abs() / predicted;
    assert!(
        rel_err < 0.10,
        "simulated {simulated:.4}s vs predicted {predicted:.4}s (rel err {rel_err:.3})"
    );
}

#[test]
fn simulated_utilization_matches_theory_per_tier() {
    let rate = 60.0;
    let supply = [6, 9, 4];
    let mut sim = fixed_supply_simulation(rate, supply, 1_800.0, 43);
    sim.run_until(1_800.0).unwrap();
    let demands = [0.059, 0.1, 0.04];
    let last = sim.intervals_completed() - 1;
    // Average utilization across all full intervals but the first (warmup).
    for s in 0..3 {
        let mut total = 0.0;
        let mut count = 0;
        for k in 1..=last {
            total += sim.interval(k).unwrap()[s].utilization;
            count += 1;
        }
        let measured = total / count as f64;
        let expected = rate * demands[s] / f64::from(supply[s]);
        assert!(
            (measured - expected).abs() < 0.05,
            "tier {s}: measured {measured:.3} vs expected {expected:.3}"
        );
    }
}

#[test]
fn slo_demand_vector_verified_in_simulation() {
    // The instance vector the metrics crate calls "demand" (90th-percentile
    // sizing) must actually keep SLO violations low when deployed in the
    // simulator — the ground truth has to be achievable.
    let rate = 150.0;
    let trace = LoadTrace::new(60.0, vec![rate]).unwrap();
    let curves = chamulteon_repro::metrics::demand_curves(
        &trace,
        &[0.059, 0.1, 0.04],
        &[1.0, 1.0, 1.0],
        0.5,
        1_000,
    );
    let ns = [
        curves[0].value_at(0.0),
        curves[1].value_at(0.0),
        curves[2].value_at(0.0),
    ];
    let result = fixed_supply_simulation(rate, ns, 1_800.0, 44).run_to_end();
    assert!(
        result.slo_violation_percent() < 10.0,
        "demand vector {ns:?} violated SLO {:.1}% of the time",
        result.slo_violation_percent()
    );
    // And one instance less on the bottleneck tier noticeably degrades it
    // (the curve is demand, not padding).
    let lean = [ns[0], ns[1] - 1, ns[2]];
    let worse = fixed_supply_simulation(rate, lean, 1_800.0, 44).run_to_end();
    assert!(worse.slo_violation_percent() > result.slo_violation_percent());
}

#[test]
fn saturated_tier_throughput_matches_capacity() {
    // Overload one tier: its completion rate must approach n/D.
    let rate = 100.0;
    let supply = [10, 3, 10]; // validation capacity = 30 req/s
    let mut sim = fixed_supply_simulation(rate, supply, 1_200.0, 45);
    sim.run_until(1_200.0).unwrap();
    let last = sim.intervals_completed() - 1;
    let stats = sim.interval(last).unwrap();
    let completion_rate = stats[1].completions as f64 / 60.0;
    assert!(
        (completion_rate - 30.0).abs() < 3.0,
        "saturated tier completes at {completion_rate} req/s, capacity 30"
    );
    // And its utilization pins at ~1.
    assert!(stats[1].utilization > 0.97);
}

#[test]
fn single_station_wait_probability_matches_erlang_c() {
    // One-service model: measure the fraction of requests that wait and
    // compare with Erlang C.
    let model = chamulteon_repro::perfmodel::ApplicationModelBuilder::new()
        .service("only", 0.1, 1, 100, 4)
        .build()
        .unwrap();
    let trace = LoadTrace::new(60.0, vec![30.0; 60]).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 46);
    let sim = Simulation::new(&model, &trace, config);
    let result = sim.run_to_end();

    let q = MmnQueue::new(30.0, 0.1, 4).unwrap();
    let predicted_r = q.mean_response_time().unwrap();
    let simulated_r = result.mean_response_time();
    assert!(
        (simulated_r - predicted_r).abs() / predicted_r < 0.10,
        "simulated {simulated_r:.4} vs Erlang prediction {predicted_r:.4}"
    );
}
