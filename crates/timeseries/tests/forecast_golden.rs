//! Golden digest of every forecaster's values and holdout MASE.
//!
//! One FNV-1a digest runs over the `to_bits` of every value and of the
//! in-sample MASE that each method reports on a fixed, deterministic
//! corpus of histories, and over the error text where a method refuses a
//! history. The corpus covers paper-vm-sized seasonal histories (period
//! 180, 360–540 points), series shorter than 8 points, series with no
//! season, trending and plunging series, and seasonal series that stop
//! dead, where Telescope's trend forecast dips below zero before its
//! clamp. A change to the forecasting code must leave the digest
//! unchanged unless it means to change what a forecast reports.

#![allow(clippy::unwrap_used, reason = "test code: panics are acceptable here")]

use chamulteon_forecast::{
    ArForecaster, DriftForecaster, Forecaster, HoltForecaster, HoltWintersForecaster,
    MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster, SesForecaster, TelescopeForecaster,
    ThetaForecaster, TimeSeries,
};
use std::f64::consts::TAU;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_bytes(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// SplitMix64: a fixed generator, so the corpus never depends on a
/// library's choice of algorithm.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `level + amplitude·sin(2πt/period) + slope·t + noise·U(−½, ½)`,
/// floored at zero like an arrival rate.
fn seasonal(
    rng: &mut SplitMix,
    len: usize,
    period: usize,
    level: f64,
    amplitude: f64,
    slope: f64,
    noise: f64,
) -> Vec<f64> {
    (0..len)
        .map(|t| {
            let phase = TAU * t as f64 / period as f64;
            let y = level + amplitude * phase.sin() + slope * t as f64;
            (y + noise * (rng.unit() - 0.5)).max(0.0)
        })
        .collect()
}

fn corpus() -> Vec<Vec<f64>> {
    let mut rng = SplitMix(0x5EA5_0A1E_C0FF_EE00);
    let mut histories = Vec::new();
    // Shorter than the 8 points a holdout needs, the empty series included.
    for len in 0..8 {
        histories.push((0..len).map(|_| 50.0 * rng.unit()).collect());
    }
    // Paper-vm size: a 180-tick season, 360–540 points, with and without
    // trend.
    for (len, slope) in [
        (360, 0.0),
        (400, 0.05),
        (450, -0.04),
        (500, 0.02),
        (540, 0.0),
    ] {
        histories.push(seasonal(&mut rng, len, 180, 400.0, 250.0, slope, 40.0));
    }
    // Shorter seasons, two to six cycles.
    for (period, cycles) in [(12, 6), (24, 4), (48, 3), (7, 5), (4, 10)] {
        histories.push(seasonal(
            &mut rng,
            period * cycles,
            period,
            100.0,
            30.0,
            0.1,
            6.0,
        ));
    }
    // No season: white noise, a constant, a random walk.
    histories.push((0..40).map(|_| 100.0 * rng.unit()).collect());
    histories.push((0..200).map(|_| 100.0 * rng.unit()).collect());
    histories.push(vec![42.0; 30]);
    let mut walk = 200.0;
    histories.push(
        (0..120)
            .map(|_| {
                walk = (walk + 20.0 * (rng.unit() - 0.5)).max(0.0);
                walk
            })
            .collect(),
    );
    // Trending, plunging, and a seasonal series that collapses to zero.
    histories.push((0..60).map(|t| 10.0 + 0.5 * f64::from(t)).collect());
    histories.push((0..40).map(|t| f64::from(40 - t) * 2.0).collect());
    let mut collapse = seasonal(&mut rng, 400, 180, 300.0, 200.0, 0.0, 20.0);
    for v in &mut collapse[300..] {
        *v *= 0.02;
    }
    histories.push(collapse);
    // A level shift in the middle of a short season.
    let mut shifted = seasonal(&mut rng, 96, 24, 50.0, 10.0, 0.0, 2.0);
    for v in &mut shifted[60..] {
        *v += 80.0;
    }
    histories.push(shifted);
    // Seasonal series that stop dead: the trend forecast dips below zero,
    // and its clamp shows in the recomposed values.
    for (period, cycles, zeros) in [(24, 5, 40), (180, 2, 150)] {
        let mut stopped = seasonal(&mut rng, period * cycles, period, 100.0, 40.0, 0.0, 4.0);
        stopped.extend(vec![0.0; zeros]);
        histories.push(stopped);
    }
    histories
}

fn methods() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(NaiveForecaster),
        Box::new(SeasonalNaiveForecaster::new(4)),
        Box::new(DriftForecaster),
        Box::new(MeanForecaster::new()),
        Box::new(SesForecaster::default()),
        Box::new(HoltForecaster::default()),
        Box::new(HoltWintersForecaster::with_period(4).unwrap()),
        Box::new(ArForecaster::default()),
        Box::new(TelescopeForecaster::default()),
        Box::new(ThetaForecaster::default()),
        Box::new(TelescopeForecaster::with_season(180)),
        Box::new(TelescopeForecaster::with_season(24)),
    ]
}

#[test]
fn every_forecaster_reproduces_its_digest() {
    let mut digest = FNV_OFFSET;
    let mut forecasts = 0usize;
    for values in corpus() {
        let history = TimeSeries::from_values(120.0, values).unwrap();
        for method in methods() {
            for horizon in [1, 8, 30] {
                fnv_bytes(&mut digest, method.name().as_bytes());
                match method.forecast(&history, horizon) {
                    Ok(fc) => {
                        forecasts += 1;
                        fnv_bytes(&mut digest, &[1]);
                        for v in fc.values() {
                            fnv_bytes(&mut digest, &v.to_bits().to_le_bytes());
                        }
                        match fc.in_sample_mase() {
                            Some(m) => {
                                fnv_bytes(&mut digest, &[1]);
                                fnv_bytes(&mut digest, &m.to_bits().to_le_bytes());
                            }
                            None => fnv_bytes(&mut digest, &[0]),
                        }
                    }
                    Err(e) => {
                        fnv_bytes(&mut digest, &[0]);
                        fnv_bytes(&mut digest, e.to_string().as_bytes());
                    }
                }
            }
        }
    }
    assert!(forecasts > 500, "the corpus must exercise the methods");
    assert_eq!(
        digest, 0x8e03_23be_f2bd_bf55,
        "forecast digest changed: {digest:#018x}"
    );
}
