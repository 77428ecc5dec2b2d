//! Quickstart: scale the paper's three-service application with Chamulteon
//! on a short synthetic load spike and print what happens.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "example code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::core::{Chamulteon, ChamulteonConfig};
use chamulteon_repro::demand::MonitoringSample;
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
use chamulteon_repro::workload::LoadTrace;

fn main() {
    // The paper's benchmark application: UI (0.059 s) -> validation
    // (0.1 s) -> data (0.04 s), modeled as an invocation chain.
    let model = ApplicationModel::paper_benchmark();

    // A 20-minute load profile with a spike in the middle.
    let rates = vec![
        30.0, 30.0, 40.0, 60.0, 120.0, 200.0, 240.0, 240.0, 200.0, 140.0, 80.0, 50.0, 40.0, 35.0,
        30.0, 30.0, 30.0, 30.0, 30.0, 30.0,
    ];
    let trace = LoadTrace::new(60.0, rates).expect("valid trace");

    // Simulated Docker deployment: instances ready ~10 s after a scale-up.
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 42);
    let mut sim = Simulation::new(&model, &trace, config);
    for s in 0..3 {
        sim.set_supply(s, 3).expect("valid service");
    }

    // The Chamulteon controller with default thresholds.
    let mut scaler = Chamulteon::new(model.clone(), ChamulteonConfig::default());

    println!("time |  load | supply (ui/val/data) | decision");
    println!("-----+-------+----------------------+---------");
    let interval = 60.0;
    let intervals = (trace.duration() / interval) as usize;
    for k in 1..=intervals {
        let t = k as f64 * interval;
        sim.run_until(t).expect("time is monotonic");
        let stats = sim.interval(k - 1).expect("interval completed");

        // Build the monitoring tuple the paper's external monitor provides.
        let samples: Vec<MonitoringSample> = stats
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let provisioned = sim.provisioned(s).max(1);
                // Rescale utilization so the busy time U*n*T stays the
                // measured one even while instances are still booting.
                let util = (st.utilization * f64::from(st.instances_end.max(1))
                    / f64::from(provisioned))
                .clamp(0.0, 1.0);
                MonitoringSample::new(
                    st.duration,
                    st.arrivals,
                    util,
                    provisioned,
                    st.mean_response_time,
                )
                .expect("valid sample")
                .with_completions(st.completions)
            })
            .collect();

        let targets = scaler.tick(t, &samples);
        for (s, &target) in targets.iter().enumerate() {
            sim.scale_to(s, target).expect("valid service");
        }
        println!(
            "{:>4.0} | {:>5.0} | {:>6} {:>5} {:>6} | -> {:?}",
            t,
            stats[0].arrivals as f64 / interval,
            sim.running(0),
            sim.running(1),
            sim.running(2),
            targets
        );
    }

    let result = sim.finish();
    println!();
    println!("requests served     : {}", result.completed);
    println!(
        "SLO violations      : {:.1}%",
        result.slo_violation_percent()
    );
    println!("Apdex               : {:.1}%", result.apdex_percent());
    println!(
        "mean response time  : {:.0} ms",
        result.mean_response_time() * 1000.0
    );
}
