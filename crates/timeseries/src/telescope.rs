//! The Telescope-style hybrid forecaster used by Chamulteon's proactive
//! cycle.
//!
//! Telescope (Züfle et al., ITISE 2017) is a decomposition-based hybrid:
//! it detects the dominant frequency, splits the series into season, trend
//! and remainder, forecasts each component with a method suited to it, and
//! recomposes. Our implementation mirrors that structure:
//!
//! 1. **Season detection** — periodogram peak confirmed by the ACF
//!    ([`crate::season::detect_season_length`]).
//! 2. **Season forecast** — the last observed seasonal pattern is continued
//!    (seasonal naive on the seasonal component).
//! 3. **Trend forecast** — damped Holt on the trend component, which reacts
//!    to level shifts but does not extrapolate aggressively (important for
//!    auto-scaling: runaway trend forecasts cause huge over-provisioning).
//! 4. **Remainder forecast** — a short AR model; if the remainder carries
//!    no structure this degenerates to (almost) zero.
//!
//! When no seasonality is detectable the method falls back to damped Holt
//! on the raw series, and for very short histories to the naive forecast —
//! matching the paper's observation that with less than two days of history
//! the forecasts contain "only trend and noise components" (§III-D).

use crate::decompose::decompose_additive;
use crate::error::ForecastError;
use crate::methods::{clamp_rates, ArForecaster, Forecaster, HoltForecaster, NaiveForecaster};
use crate::season::detect_season_length;
use crate::series::TimeSeries;

/// The hybrid decomposition forecaster (Telescope-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelescopeForecaster {
    /// Forecaster applied to the trend component (and the fallback when no
    /// season is found).
    pub trend_method: HoltForecaster,
    /// Order of the AR model applied to the remainder.
    pub remainder_order: usize,
    /// Fixed season length override; when `None` the season is detected.
    pub season_override: Option<usize>,
}

impl Default for TelescopeForecaster {
    fn default() -> Self {
        TelescopeForecaster {
            trend_method: HoltForecaster {
                alpha: 0.4,
                beta: 0.2,
                phi: 0.9,
            },
            remainder_order: 3,
            season_override: None,
        }
    }
}

impl TelescopeForecaster {
    /// Creates a forecaster with a fixed, known season length (e.g. one day
    /// of observations), skipping detection.
    pub fn with_season(period: usize) -> Self {
        TelescopeForecaster {
            season_override: Some(period),
            ..TelescopeForecaster::default()
        }
    }

    /// The season length this forecaster would use for `history`: the
    /// override if set, otherwise the detected one.
    pub fn season_for(&self, history: &TimeSeries) -> Option<usize> {
        match self.season_override {
            Some(p) if p >= 2 && history.len() >= 2 * p => Some(p),
            Some(_) => None,
            None => detect_season_length(history),
        }
    }

    /// The trend method's predictions on `series`, or the naive ones when
    /// the series is too short for it, clamped as a [`Forecast`] clamps
    /// them.
    ///
    /// [`Forecast`]: crate::methods::Forecast
    fn trend_values(&self, series: &TimeSeries, horizon: usize) -> Result<Vec<f64>, ForecastError> {
        let (values, _) = self
            .trend_method
            .predict(series, horizon)
            .or_else(|_| NaiveForecaster.predict(series, horizon))?;
        Ok(clamp_rates(values))
    }
}

impl Forecaster for TelescopeForecaster {
    fn name(&self) -> &str {
        "telescope"
    }

    /// The MASE season is the one used on `history`: detected (or the
    /// override), or 1 when there is none.
    fn predict(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<(Vec<f64>, usize), ForecastError> {
        if horizon == 0 {
            return Err(ForecastError::EmptyHorizon);
        }
        if history.is_empty() {
            return Err(ForecastError::TooShort { have: 0, need: 1 });
        }
        // Very short history: naive fallback.
        if history.len() < 8 {
            return NaiveForecaster.predict(history, horizon);
        }

        let Some(period) = self.season_for(history) else {
            // No season: damped Holt on the raw series (trend + noise).
            return Ok((self.trend_values(history, horizon)?, 1));
        };
        let d = decompose_additive(history, period)?;
        let n = history.len();

        // Trend: damped Holt on the extracted trend.
        let trend =
            self.trend_values(&TimeSeries::from_values(history.step(), d.trend)?, horizon)?;

        // Remainder: AR(p), falling back to zeros when too short or
        // structureless.
        let remainder_series = TimeSeries::from_values(history.step(), d.remainder)?;
        let remainder = ArForecaster::new(self.remainder_order)
            .and_then(|ar| ar.forecast_signed(&remainder_series, horizon))
            .unwrap_or_else(|_| vec![0.0; horizon]);

        // Season: continue the periodic pattern.
        let values = (0..horizon)
            .map(|h| trend[h] + d.seasonal[(n + h) % period] + remainder[h])
            .collect();
        Ok((values, period))
    }
}

impl ArForecaster {
    /// AR predictions for a signed series such as a decomposition
    /// remainder. The model runs on the series shifted up so that its
    /// minimum is at least 1; its values are clamped as a [`Forecast`]
    /// clamps them, then shifted back. The clamp bites only on predictions
    /// more than the shift below zero.
    ///
    /// [`Forecast`]: crate::methods::Forecast
    fn forecast_signed(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<Vec<f64>, ForecastError> {
        let offset = history
            .values()
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min)
            .min(0.0)
            .abs()
            + 1.0;
        let shifted: Vec<f64> = history.values().iter().map(|v| v + offset).collect();
        let shifted_series = TimeSeries::from_values(history.step(), shifted)?;
        let (values, _) = self.predict(&shifted_series, horizon)?;
        Ok(clamp_rates(values)
            .into_iter()
            .map(|v| v - offset)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(60.0, values).unwrap()
    }

    fn seasonal_signal(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                100.0
                    + 30.0 * (std::f64::consts::TAU * t as f64 / period as f64).sin()
                    + 0.05 * t as f64
            })
            .collect()
    }

    #[test]
    fn continues_seasonal_signal() {
        let period = 24;
        let values = seasonal_signal(96, period);
        let fc = TelescopeForecaster::default()
            .forecast(&ts(values), period)
            .unwrap();
        for (h, &v) in fc.values().iter().enumerate() {
            let t = 96 + h;
            let expect = 100.0
                + 30.0 * (std::f64::consts::TAU * t as f64 / period as f64).sin()
                + 0.05 * t as f64;
            assert!((v - expect).abs() < 10.0, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn beats_naive_on_seasonal_data() {
        let period = 24;
        let full = seasonal_signal(120, period);
        let history = ts(full[..96].to_vec());
        let actual = &full[96..120];

        let telescope = TelescopeForecaster::default()
            .forecast(&history, 24)
            .unwrap();
        let naive = NaiveForecaster.forecast(&history, 24).unwrap();

        let err_t = crate::accuracy::mae(actual, telescope.values());
        let err_n = crate::accuracy::mae(actual, naive.values());
        assert!(
            err_t < err_n,
            "telescope MAE {err_t} should beat naive MAE {err_n}"
        );
    }

    #[test]
    fn fixed_season_override_used() {
        let f = TelescopeForecaster::with_season(24);
        let series = ts(seasonal_signal(96, 24));
        assert_eq!(f.season_for(&series), Some(24));
        // Override too long for the history is ignored.
        let short = ts(seasonal_signal(30, 24));
        assert_eq!(
            TelescopeForecaster::with_season(24).season_for(&short),
            None
        );
    }

    #[test]
    fn no_season_falls_back_to_trend_method() {
        let line: Vec<f64> = (0..60).map(|t| 10.0 + 0.5 * t as f64).collect();
        let fc = TelescopeForecaster::default()
            .forecast(&ts(line), 5)
            .unwrap();
        // A damped-Holt continuation keeps rising at first.
        assert!(fc.values()[0] > 38.0);
        assert!(fc.values()[4] >= fc.values()[0]);
    }

    #[test]
    fn short_history_uses_naive() {
        let fc = TelescopeForecaster::default()
            .forecast(&ts(vec![3.0, 4.0, 5.0]), 4)
            .unwrap();
        assert_eq!(fc.values(), &[5.0; 4]);
    }

    #[test]
    fn empty_history_rejected() {
        assert!(TelescopeForecaster::default()
            .forecast(&ts(vec![]), 1)
            .is_err());
        assert!(TelescopeForecaster::default()
            .forecast(&ts(vec![1.0; 20]), 0)
            .is_err());
    }

    #[test]
    fn forecasts_are_nonnegative() {
        // A plunging series must not forecast negative arrival rates.
        let values: Vec<f64> = (0..40).map(|t| (40 - t) as f64 * 2.0).collect();
        let fc = TelescopeForecaster::default()
            .forecast(&ts(values), 30)
            .unwrap();
        for &v in fc.values() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn reports_in_sample_accuracy_on_long_series() {
        let fc = TelescopeForecaster::default()
            .forecast(&ts(seasonal_signal(96, 24)), 10)
            .unwrap();
        let m = fc.in_sample_mase().expect("long series should backtest");
        assert!(m.is_finite());
    }
}
