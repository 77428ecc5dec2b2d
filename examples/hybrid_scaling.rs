//! The vertical + horizontal extension (paper §VI, first future-work
//! item) end-to-end: the hybrid decision logic drives BOTH the instance
//! count and the instance size of every service in the simulator, and the
//! run is compared against pure horizontal scaling on cost and SLO.
//!
//! Run with: `cargo run --release --example hybrid_scaling`

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "example code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::core::{hybrid_decisions, ChamulteonConfig, VerticalPolicy};
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
use chamulteon_repro::workload::LoadTrace;

struct RunSummary {
    slo_violations: f64,
    apdex: f64,
    cost: f64,
}

fn drive(policy: &VerticalPolicy, label: &str) -> RunSummary {
    let model = ApplicationModel::paper_benchmark();
    // Ramp 50 -> 400 req/s and back over 40 minutes.
    let rates: Vec<f64> = (0..40)
        .map(|k| {
            let x = k as f64 / 39.0;
            50.0 + 350.0 * (std::f64::consts::PI * x).sin()
        })
        .collect();
    let trace = LoadTrace::new(60.0, rates).expect("valid trace");
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 77);
    let mut sim = Simulation::new(&model, &trace, config);
    for s in 0..3 {
        sim.set_supply(s, 2).expect("valid service");
    }
    let cham_config = ChamulteonConfig::default();
    let demands = [0.059, 0.1, 0.04];
    let mut cost = 0.0;
    let intervals = (trace.duration() / 60.0) as usize;
    for k in 1..=intervals {
        let t = k as f64 * 60.0;
        sim.run_until(t).expect("time is monotonic");
        let stats = sim.interval(k - 1).expect("interval done");
        let rate = stats[0].arrivals as f64 / 60.0;
        let decisions = hybrid_decisions(&model, rate, &demands, policy, &cham_config);
        for (s, d) in decisions.iter().enumerate() {
            sim.scale_to(s, d.instances).expect("valid service");
            sim.scale_vertical(s, policy.sizes()[d.size_index].speed)
                .expect("valid speed");
            cost += d.cost_per_hour / 60.0; // one minute of this configuration
        }
    }
    let result = sim.finish();
    println!(
        "{label:<36} SLO {:>5.1}%  Apdex {:>5.1}%  cost {:>7.2}",
        result.slo_violation_percent(),
        result.apdex_percent(),
        cost
    );
    RunSummary {
        slo_violations: result.slo_violation_percent(),
        apdex: result.apdex_percent(),
        cost,
    }
}

fn main() {
    println!("Sinusoidal ramp 50 -> 400 -> 50 req/s, 40 min, Docker deployment.\n");
    let ladder = VerticalPolicy::ec2_like();
    let horizontal_only = VerticalPolicy::new(vec![ladder.sizes()[0].clone()], 0.15);

    let h = drive(&horizontal_only, "pure horizontal (small instances)");
    let v = drive(&ladder, "hybrid (EC2-like size ladder)");

    println!();
    println!(
        "cost saving from going hybrid: {:.1}%",
        100.0 * (h.cost - v.cost) / h.cost
    );
    println!(
        "user metrics preserved: SLO {:.1}% vs {:.1}%, Apdex {:.1}% vs {:.1}%",
        v.slo_violations, h.slo_violations, v.apdex, h.apdex
    );
}
