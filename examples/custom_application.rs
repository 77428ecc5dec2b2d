//! Scaling a *custom* application: Chamulteon is not limited to the
//! paper's three-service chain. This example models a five-service
//! micro-service DAG (gateway fanning out to two backends, both hitting a
//! shared database; an async audit service sampled on 30% of requests)
//! and lets Chamulteon size it for a morning ramp.
//!
//! Run with: `cargo run --release --example custom_application`

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "example code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::core::{Chamulteon, ChamulteonConfig};
use chamulteon_repro::demand::MonitoringSample;
use chamulteon_repro::perfmodel::ApplicationModelBuilder;

fn main() {
    // gateway -> catalog (every request) and checkout (40% of requests);
    // both hit the database; checkout also notifies audit on 75% of its
    // calls (= 30% of external requests).
    let model = ApplicationModelBuilder::new()
        .service("gateway", 0.020, 1, 300, 2)
        .service("catalog", 0.080, 1, 300, 2)
        .service("checkout", 0.120, 1, 300, 2)
        .service("database", 0.030, 2, 300, 2)
        .service("audit", 0.050, 1, 300, 1)
        .call("gateway", "catalog", 1.0)
        .call("gateway", "checkout", 0.4)
        .call("catalog", "database", 1.0)
        .call("checkout", "database", 2.0) // reads + writes
        .call("checkout", "audit", 0.75)
        .entry("gateway")
        .build()
        .expect("valid model");

    println!(
        "visit ratios per external request: {:?}",
        model.visit_ratios()
    );

    let mut scaler = Chamulteon::new(model.clone(), ChamulteonConfig::default());
    let mut instances: Vec<u32> = model
        .services()
        .iter()
        .map(|s| s.initial_instances())
        .collect();
    let demands: Vec<f64> = model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let ratios = model.visit_ratios();

    println!(
        "\n{:<6} {:>6}  {:<30}",
        "time", "load", "instances [gw, cat, chk, db, audit]"
    );
    for minute in 1..=12 {
        let t = minute as f64 * 60.0;
        // Morning ramp: 50 -> 600 req/s.
        let rate = 50.0 + 550.0 * (minute as f64 / 12.0);
        let samples: Vec<MonitoringSample> = (0..model.service_count())
            .map(|i| {
                let local = rate * ratios[i];
                let n = instances[i].max(1);
                let util = (local * demands[i] / f64::from(n)).min(1.0);
                let capacity = f64::from(n) / demands[i];
                MonitoringSample::new(60.0, (local * 60.0).round() as u64, util, n, None)
                    .expect("valid sample")
                    .with_completions((local.min(capacity) * 60.0).round() as u64)
            })
            .collect();
        instances = scaler.tick(t, &samples);
        println!("{t:<6.0} {rate:>6.0}  {instances:?}");
    }

    println!("\nEvery tier is sized in the same round from the propagated rates —");
    println!("note the database tracking catalog + 2x checkout traffic, and audit");
    println!("staying small (it only sees 30% of external requests).");
}
