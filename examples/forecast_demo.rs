//! Demonstrates the forecasting pipeline Chamulteon's proactive cycle
//! relies on: season detection, decomposition-based hybrid forecasting
//! (Telescope-style), accuracy scoring and drift detection.
//!
//! Run with: `cargo run --release --example forecast_demo`

#![allow(
    clippy::expect_used,
    reason = "example code: panics are acceptable here"
)]
use chamulteon_repro::forecast::{
    detect_season_length, mase, DriftDetector, Forecaster, NaiveForecaster,
    SeasonalNaiveForecaster, TelescopeForecaster, TimeSeries,
};
use chamulteon_repro::workload::generators::wikipedia_like;

fn main() {
    // Three synthetic days at 10-minute resolution: 144 points per day.
    let trace = wikipedia_like(99, 600.0, 3.0 * 86_400.0).scale_to_peak(500.0);
    let series = TimeSeries::from_values(600.0, trace.rates().to_vec()).expect("finite rates");

    // Hold out the last half day.
    let holdout = 72;
    let (train, test) = series.split_at(series.len() - holdout);
    println!(
        "history: {} observations at {:.0} s; forecasting {holdout} steps ahead\n",
        train.len(),
        train.step()
    );

    // 1. Season detection.
    match detect_season_length(&train) {
        Some(period) => println!(
            "detected season: {period} observations (= {:.1} h)",
            period as f64 * train.step() / 3600.0
        ),
        None => println!("no season detected"),
    }

    // 2. Compare the hybrid against the reference methods.
    let methods: Vec<(&str, Box<dyn Forecaster>)> = vec![
        ("telescope", Box::new(TelescopeForecaster::default())),
        ("naive", Box::new(NaiveForecaster)),
        (
            "seasonal-naive",
            Box::new(SeasonalNaiveForecaster::new(144)),
        ),
    ];
    println!("\n{:<16} {:>10} {:>12}", "method", "MASE", "first value");
    let actual = test.values();
    for (name, method) in &methods {
        let fc = method.forecast(&train, holdout).expect("forecast succeeds");
        let score = mase(train.values(), actual, fc.values(), 1);
        println!("{name:<16} {score:>10.3} {:>12.1}", fc.values()[0]);
    }

    // 3. Drift detection: feed the telescope forecast increasingly wrong
    //    observations and watch the detector trip.
    let telescope = TelescopeForecaster::default()
        .forecast(&train, holdout)
        .expect("forecast succeeds");
    let detector = DriftDetector::default();
    println!("\ndrift detection against the telescope forecast:");
    for (label, factor) in [
        ("reality as predicted", 1.0),
        ("reality 3x the forecast", 3.0),
    ] {
        let observed: Vec<f64> = actual.iter().take(6).map(|v| v * factor).collect();
        let drifted = detector.has_drifted(train.values(), &observed, &telescope.values()[..6]);
        println!("  {label:<24} -> drifted = {drifted}");
    }
}
