//! Exponential-smoothing forecasters: simple (SES), Holt linear trend with
//! optional damping, and additive Holt-Winters.

use super::Forecaster;
use crate::error::ForecastError;
use crate::series::TimeSeries;
use crate::stats::mean;

fn check_unit_param(name: &'static str, value: f64) -> Result<(), ForecastError> {
    if !(value > 0.0 && value <= 1.0) {
        Err(ForecastError::InvalidParameter { name, value })
    } else {
        Ok(())
    }
}

/// Simple exponential smoothing: flat forecast from the smoothed level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SesForecaster {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
}

impl Default for SesForecaster {
    fn default() -> Self {
        SesForecaster { alpha: 0.3 }
    }
}

impl SesForecaster {
    /// Creates an SES forecaster with the given smoothing factor.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless `0 < α ≤ 1`.
    pub fn new(alpha: f64) -> Result<Self, ForecastError> {
        check_unit_param("alpha", alpha)?;
        Ok(SesForecaster { alpha })
    }
}

impl Forecaster for SesForecaster {
    fn name(&self) -> &str {
        "ses"
    }

    fn predict(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<(Vec<f64>, usize), ForecastError> {
        if horizon == 0 {
            return Err(ForecastError::EmptyHorizon);
        }
        let values = history.values();
        if values.is_empty() {
            return Err(ForecastError::TooShort { have: 0, need: 1 });
        }
        let mut level = values[0];
        for &y in &values[1..] {
            level = self.alpha * y + (1.0 - self.alpha) * level;
        }
        Ok((vec![level; horizon], 1))
    }
}

/// Holt's linear-trend method with optional damping.
///
/// `ŷ_{t+h} = l_t + (φ + φ² + … + φ^h)·b_t`; `φ = 1` gives the undamped
/// classic method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltForecaster {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor `β ∈ (0, 1]`.
    pub beta: f64,
    /// Damping factor `φ ∈ (0, 1]`.
    pub phi: f64,
}

impl Default for HoltForecaster {
    fn default() -> Self {
        HoltForecaster {
            alpha: 0.4,
            beta: 0.2,
            phi: 0.9,
        }
    }
}

impl HoltForecaster {
    /// Creates a Holt forecaster. Use `phi = 1.0` for the undamped method.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless every factor lies
    /// in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64, phi: f64) -> Result<Self, ForecastError> {
        check_unit_param("alpha", alpha)?;
        check_unit_param("beta", beta)?;
        check_unit_param("phi", phi)?;
        Ok(HoltForecaster { alpha, beta, phi })
    }
}

impl Forecaster for HoltForecaster {
    fn name(&self) -> &str {
        "holt"
    }

    fn predict(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<(Vec<f64>, usize), ForecastError> {
        if horizon == 0 {
            return Err(ForecastError::EmptyHorizon);
        }
        let values = history.values();
        if values.len() < 2 {
            return Err(ForecastError::TooShort {
                have: values.len(),
                need: 2,
            });
        }
        let mut level = values[0];
        let mut trend = values[1] - values[0];
        for &y in &values[1..] {
            let prev_level = level;
            level = self.alpha * y + (1.0 - self.alpha) * (prev_level + self.phi * trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.phi * trend;
        }
        let mut out = Vec::with_capacity(horizon);
        let mut damp_sum = 0.0;
        let mut damp_pow = 1.0;
        for _ in 0..horizon {
            damp_pow *= self.phi;
            damp_sum += damp_pow;
            out.push(level + damp_sum * trend);
        }
        Ok((out, 1))
    }
}

/// Additive Holt-Winters: level + trend + additive seasonal component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltWintersForecaster {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor `β ∈ (0, 1]`.
    pub beta: f64,
    /// Seasonal smoothing factor `γ ∈ (0, 1]`.
    pub gamma: f64,
    /// Season length in observations (≥ 2).
    pub period: usize,
}

impl HoltWintersForecaster {
    /// Creates an additive Holt-Winters forecaster.
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::InvalidParameter`] unless every factor lies
    /// in `(0, 1]` and `period ≥ 2`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Result<Self, ForecastError> {
        check_unit_param("alpha", alpha)?;
        check_unit_param("beta", beta)?;
        check_unit_param("gamma", gamma)?;
        if period < 2 {
            return Err(ForecastError::InvalidParameter {
                name: "period",
                value: period as f64,
            });
        }
        Ok(HoltWintersForecaster {
            alpha,
            beta,
            gamma,
            period,
        })
    }

    /// Reasonable defaults for a given season length.
    pub fn with_period(period: usize) -> Result<Self, ForecastError> {
        Self::new(0.3, 0.1, 0.2, period)
    }
}

impl Forecaster for HoltWintersForecaster {
    fn name(&self) -> &str {
        "holt-winters"
    }

    fn predict(
        &self,
        history: &TimeSeries,
        horizon: usize,
    ) -> Result<(Vec<f64>, usize), ForecastError> {
        if horizon == 0 {
            return Err(ForecastError::EmptyHorizon);
        }
        let values = history.values();
        let m = self.period;
        if values.len() < 2 * m {
            return Err(ForecastError::TooShort {
                have: values.len(),
                need: 2 * m,
            });
        }
        // Initialization from the first two seasons.
        let first_season_mean = mean(&values[..m]);
        let second_season_mean = mean(&values[m..2 * m]);
        let mut level = first_season_mean;
        let mut trend = (second_season_mean - first_season_mean) / m as f64;
        let mut seasonal: Vec<f64> = values[..m].iter().map(|y| y - first_season_mean).collect();

        for (t, &y) in values.iter().enumerate() {
            let s_idx = t % m;
            let prev_level = level;
            level = self.alpha * (y - seasonal[s_idx]) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
            seasonal[s_idx] = self.gamma * (y - level) + (1.0 - self.gamma) * seasonal[s_idx];
        }

        let n = values.len();
        let out = (1..=horizon)
            .map(|h| level + trend * h as f64 + seasonal[(n + h - 1) % m])
            .collect();
        Ok((out, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(1.0, values).unwrap()
    }

    #[test]
    fn ses_converges_to_constant_level() {
        let fc = SesForecaster::default()
            .forecast(&ts(vec![10.0; 30]), 3)
            .unwrap();
        for v in fc.values() {
            assert!((v - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ses_flat_forecast() {
        let fc = SesForecaster::default()
            .forecast(&ts(vec![1.0, 2.0, 3.0, 4.0]), 5)
            .unwrap();
        let first = fc.values()[0];
        assert!(fc.values().iter().all(|&v| (v - first).abs() < 1e-12));
    }

    #[test]
    fn ses_parameter_validation() {
        assert!(SesForecaster::new(0.0).is_err());
        assert!(SesForecaster::new(1.5).is_err());
        assert!(SesForecaster::new(f64::NAN).is_err());
        assert!(SesForecaster::new(1.0).is_ok());
    }

    #[test]
    fn holt_tracks_linear_trend() {
        let line: Vec<f64> = (0..50).map(|t| 5.0 + 2.0 * t as f64).collect();
        let fc = HoltForecaster::new(0.5, 0.3, 1.0)
            .unwrap()
            .forecast(&ts(line), 3)
            .unwrap();
        // Undamped Holt on a clean line continues it closely.
        for (h, &v) in fc.values().iter().enumerate() {
            let expect = 5.0 + 2.0 * (49 + h + 1) as f64;
            assert!((v - expect).abs() < 1.0, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn damped_holt_flattens_eventually() {
        let line: Vec<f64> = (0..50).map(|t| 2.0 * t as f64).collect();
        let fc = HoltForecaster::new(0.5, 0.3, 0.8)
            .unwrap()
            .forecast(&ts(line), 50)
            .unwrap();
        let diffs_late = fc.values()[48] - fc.values()[47];
        let diffs_early = fc.values()[1] - fc.values()[0];
        assert!(diffs_late.abs() < diffs_early.abs());
    }

    #[test]
    fn holt_needs_two_points() {
        assert!(HoltForecaster::default()
            .forecast(&ts(vec![1.0]), 1)
            .is_err());
    }

    #[test]
    fn holt_winters_continues_seasonal_pattern() {
        let pattern = [10.0, 20.0, 30.0, 20.0];
        let values: Vec<f64> = (0..64).map(|t| pattern[t % 4]).collect();
        let fc = HoltWintersForecaster::with_period(4)
            .unwrap()
            .forecast(&ts(values), 8)
            .unwrap();
        for (h, &v) in fc.values().iter().enumerate() {
            let expect = pattern[(64 + h) % 4];
            assert!((v - expect).abs() < 2.0, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn holt_winters_with_trend_and_season() {
        let pattern = [0.0, 8.0, -8.0, 0.0];
        let values: Vec<f64> = (0..80)
            .map(|t| 100.0 + 0.5 * t as f64 + pattern[t % 4])
            .collect();
        let fc = HoltWintersForecaster::with_period(4)
            .unwrap()
            .forecast(&ts(values), 4)
            .unwrap();
        for (h, &v) in fc.values().iter().enumerate() {
            let expect = 100.0 + 0.5 * (80 + h) as f64 + pattern[(80 + h) % 4];
            assert!((v - expect).abs() < 4.0, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn holt_winters_validation() {
        assert!(HoltWintersForecaster::new(0.3, 0.1, 0.2, 1).is_err());
        assert!(HoltWintersForecaster::new(0.0, 0.1, 0.2, 4).is_err());
        assert!(HoltWintersForecaster::with_period(4)
            .unwrap()
            .forecast(&ts(vec![1.0; 7]), 1)
            .is_err());
    }
}
