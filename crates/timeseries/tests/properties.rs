//! Property-based tests for the forecasting crate.

// Example/test/bench code: panics and lossy casts are acceptable here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use chamulteon_forecast::stats::periodogram;
use chamulteon_forecast::{
    decompose_additive, mase, ArForecaster, DriftForecaster, Forecaster, HoltForecaster,
    HoltWintersForecaster, MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster, SesForecaster,
    TelescopeForecaster, ThetaForecaster, TimeSeries,
};
use proptest::prelude::*;
use std::f64::consts::TAU;

fn finite_series(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..10_000.0, min_len..max_len)
}

/// Every method with the season that scales its MASE on `history`.
fn methods_with_seasons(history: &TimeSeries) -> Vec<(Box<dyn Forecaster>, usize)> {
    let detected = TelescopeForecaster::default();
    let known = TelescopeForecaster::with_season(12);
    vec![
        (Box::new(NaiveForecaster), 1),
        (Box::new(SeasonalNaiveForecaster::new(4)), 4),
        (Box::new(DriftForecaster), 1),
        (Box::new(MeanForecaster::new()), 1),
        (Box::new(SesForecaster::default()), 1),
        (Box::new(HoltForecaster::default()), 1),
        (Box::new(HoltWintersForecaster::with_period(4).unwrap()), 4),
        (Box::new(ArForecaster::default()), 1),
        (Box::new(ThetaForecaster::default()), 1),
        (
            Box::new(detected),
            detected.season_for(history).unwrap_or(1),
        ),
        (Box::new(known), known.season_for(history).unwrap_or(1)),
    ]
}

/// The periodogram by direct DFT projection, one `sin`/`cos` pair per
/// term: the oracle for the twiddle-table version.
fn direct_periodogram(values: &[f64], max_freq: usize) -> Vec<f64> {
    let n = values.len();
    if n < 4 || max_freq == 0 {
        return Vec::new();
    }
    let m = values.iter().sum::<f64>() / n as f64;
    (1..=max_freq)
        .map(|freq| {
            let omega = TAU * freq as f64 / n as f64;
            let (mut re, mut im) = (0.0, 0.0);
            for (t, &y) in values.iter().enumerate() {
                let phase = omega * t as f64;
                re += (y - m) * phase.cos();
                im += (y - m) * phase.sin();
            }
            (re * re + im * im) / n as f64
        })
        .collect()
}

/// Frequencies (1-based) by descending power, ties in frequency order.
fn ranked(powers: &[f64]) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = powers
        .iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (i + 1, p))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

proptest! {
    /// The twiddle-table periodogram agrees with the direct DFT: same
    /// length, every power within 1e-12 of the peak, and the same top-5
    /// frequency order up to the first pair of consecutive top powers
    /// closer than 1e-9 relative, where rounding may swap them.
    #[test]
    fn periodogram_matches_the_direct_dft(
        noise in finite_series(4, 600),
        period in 2usize..200,
        amplitude in 0.0f64..10_000.0,
        size in 0usize..3,
        extra in 0usize..600,
    ) {
        let values: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(t, y)| y + amplitude * (TAU * t as f64 / period as f64).sin())
            .collect();
        let n = values.len();
        // The size season detection asks for, any size below n, and sizes
        // beyond n, where frequencies alias.
        let max_freq = match size {
            0 => (n / 2).min(256),
            1 => 1 + extra % n,
            _ => n + extra,
        };
        let got = periodogram(&values, max_freq);
        let want = direct_periodogram(&values, max_freq);
        prop_assert_eq!(got.len(), want.len());
        let peak = want.iter().copied().fold(0.0, f64::max);
        for (f, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (g - w).abs() <= 1e-12 * peak,
                "n {n} freq {}: {g} vs {w} (peak {peak})",
                f + 1
            );
        }
        let (got, want) = (ranked(&got), ranked(&want));
        for i in 0..want.len().min(5) {
            // Rank i is settled while every gap down to rank i + 1 is clear.
            if want.get(i + 1).is_some_and(|next| want[i].1 - next.1 <= 1e-9 * want[i].1) {
                break;
            }
            prop_assert_eq!(got[i].0, want[i].0, "n {} max_freq {} rank {}", n, max_freq, i);
        }
    }

    /// The MASE a forecast reports is the MASE of the same method's
    /// forecast of the training prefix, bit for bit: `len/5` points (at
    /// least 1, at most half) held out, none below 8 points of history.
    #[test]
    fn in_sample_mase_scores_the_forecast_of_the_training_prefix(
        noise in finite_series(0, 160),
        period in 2usize..30,
        amplitude in 0.0f64..300.0,
        horizon in 1usize..12,
    ) {
        let values: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(t, y)| 0.02 * y + amplitude * (1.0 + (TAU * t as f64 / period as f64).sin()))
            .collect();
        let n = values.len();
        let history = TimeSeries::from_values(60.0, values).unwrap();
        for (method, season) in methods_with_seasons(&history) {
            let Ok(fc) = method.forecast(&history, horizon) else {
                continue;
            };
            let want = if n < 8 {
                None
            } else {
                let holdout = (n / 5).max(1).min(n / 2);
                let (train, test) = history.split_at(n - holdout);
                method.forecast(&train, holdout).ok().and_then(|prefix| {
                    let m = mase(train.values(), test.values(), prefix.values(), season);
                    (!m.is_nan()).then_some(m)
                })
            };
            prop_assert_eq!(
                fc.in_sample_mase().map(f64::to_bits),
                want.map(f64::to_bits),
                "{} on {} points",
                method.name(),
                n
            );
        }
    }

    /// Every method returns exactly `horizon` finite, non-negative values
    /// on any sufficiently long non-negative history.
    #[test]
    fn forecasts_have_requested_length_and_are_nonnegative(
        values in finite_series(20, 120),
        horizon in 1usize..30,
    ) {
        let ts = TimeSeries::from_values(60.0, values).unwrap();
        for (method, _) in methods_with_seasons(&ts) {
            let fc = method
                .forecast(&ts, horizon)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
            prop_assert_eq!(fc.values().len(), horizon, "{}", method.name());
            for &v in fc.values() {
                prop_assert!(v.is_finite(), "{} produced non-finite", method.name());
                prop_assert!(v >= 0.0, "{} produced negative", method.name());
            }
        }
    }

    /// Decomposition reconstructs the input exactly.
    #[test]
    fn decomposition_reconstructs(values in finite_series(24, 100), period in 2usize..6) {
        prop_assume!(values.len() >= 2 * period);
        let ts = TimeSeries::from_values(1.0, values.clone()).unwrap();
        let d = decompose_additive(&ts, period).unwrap();
        for (t, &value) in values.iter().enumerate() {
            let sum = d.trend[t] + d.seasonal[t] + d.remainder[t];
            prop_assert!((sum - value).abs() < 1e-6);
        }
    }

    /// MASE is non-negative whenever it is defined.
    #[test]
    fn mase_nonnegative(
        history in finite_series(3, 50),
        actual in finite_series(1, 20),
        forecast in finite_series(1, 20),
    ) {
        let m = mase(&history, &actual, &forecast, 1);
        if m.is_finite() {
            prop_assert!(m >= 0.0);
        }
    }

    /// Splitting a series and rejoining the values loses nothing.
    #[test]
    fn split_preserves_values(values in finite_series(2, 60), frac in 0.0f64..1.0) {
        let ts = TimeSeries::from_values(1.0, values.clone()).unwrap();
        let at = ((values.len() as f64) * frac) as usize;
        let (head, tail) = ts.split_at(at);
        let mut joined = head.values().to_vec();
        joined.extend_from_slice(tail.values());
        prop_assert_eq!(joined, values);
        // Tail timestamps continue seamlessly.
        prop_assert_eq!(tail.start(), head.end());
    }

    /// Seasonal naive on an exactly periodic series is exact.
    #[test]
    fn seasonal_naive_exact_on_periodic(period in 2usize..8, reps in 3usize..8, horizon in 1usize..16) {
        let pattern: Vec<f64> = (0..period).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let values: Vec<f64> = (0..period * reps).map(|t| pattern[t % period]).collect();
        let ts = TimeSeries::from_values(1.0, values).unwrap();
        let fc = SeasonalNaiveForecaster::new(period).forecast(&ts, horizon).unwrap();
        for (h, &v) in fc.values().iter().enumerate() {
            prop_assert_eq!(v, pattern[(period * reps + h) % period]);
        }
    }
}
