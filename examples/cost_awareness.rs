//! Demonstrates the FOX cost-awareness component (§III-A3): under hourly
//! billing, releasing an instance minutes after paying for its hour just
//! to re-buy it for the next spike pays twice; FOX keeps paid instances
//! until their charging interval is nearly exhausted.
//!
//! Run with: `cargo run --release --example cost_awareness`

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "example code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::core::{Chamulteon, ChamulteonConfig, ChargingModel};
use chamulteon_repro::demand::MonitoringSample;
use chamulteon_repro::perfmodel::ApplicationModel;

/// Builds the monitoring tuple for a given load on the current deployment.
fn samples(rate: f64, instances: &[u32]) -> Vec<MonitoringSample> {
    let demands = [0.059, 0.1, 0.04];
    (0..3)
        .map(|i| {
            let n = instances[i].max(1);
            let capacity = f64::from(n) / demands[i];
            let util = (rate * demands[i] / f64::from(n)).min(1.0);
            let completions = (rate.min(capacity) * 60.0).round() as u64;
            MonitoringSample::new(60.0, (rate * 60.0).round() as u64, util, n, None)
                .expect("valid sample")
                .with_completions(completions)
        })
        .collect()
}

/// A bursty load: repeated 10-minute spikes separated by quiet periods —
/// the worst case for naive release under hourly billing.
fn load_at_minute(minute: usize) -> f64 {
    if (minute / 10).is_multiple_of(2) {
        200.0
    } else {
        20.0
    }
}

fn drive(mut scaler: Chamulteon, label: &str) {
    let mut instances = vec![3u32, 3, 3];
    let mut scale_downs = 0u32;
    let mut instance_seconds = 0.0;
    for minute in 1..=60 {
        let t = minute as f64 * 60.0;
        let rate = load_at_minute(minute - 1);
        let targets = scaler.tick(t, &samples(rate, &instances));
        for (s, &target) in targets.iter().enumerate() {
            if target < instances[s] {
                scale_downs += instances[s] - target;
            }
            instances[s] = target;
        }
        instance_seconds += instances.iter().map(|&n| f64::from(n)).sum::<f64>() * 60.0;
    }
    let billed = scaler.billed_instance_seconds(3600.0);
    println!("{label}");
    println!("  instances released over the hour : {scale_downs}");
    println!(
        "  raw instance hours used          : {:.1}",
        instance_seconds / 3600.0
    );
    match billed {
        Some(b) => println!("  FOX-accounted billed hours       : {:.1}", b / 3600.0),
        None => println!("  FOX-accounted billed hours       : (FOX disabled)"),
    }
    println!();
}

fn main() {
    println!("Bursty load (200 req/s spikes alternating with 20 req/s lulls), 1 hour.\n");
    let model = ApplicationModel::paper_benchmark();

    drive(
        Chamulteon::new(model.clone(), ChamulteonConfig::reactive_only()),
        "Chamulteon without FOX (releases on every lull)",
    );
    drive(
        Chamulteon::new(model.clone(), ChamulteonConfig::reactive_only())
            .with_fox(ChargingModel::ec2_hourly()),
        "Chamulteon + FOX under EC2 hourly billing (keeps paid instances)",
    );
    drive(
        Chamulteon::new(model, ChamulteonConfig::reactive_only())
            .with_fox(ChargingModel::gcp_per_minute()),
        "Chamulteon + FOX under GCP per-minute billing (release is cheap)",
    );

    println!("Under hourly billing FOX suppresses nearly all releases within the paid");
    println!("hour — the lull-and-spike pattern would otherwise buy the same capacity");
    println!("repeatedly. Under per-minute billing FOX lets releases through.");
}
