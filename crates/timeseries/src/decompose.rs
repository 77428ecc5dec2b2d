//! Additive season/trend/remainder decomposition.
//!
//! The classical decomposition used by Telescope-style hybrids:
//!
//! 1. estimate the trend with a centered moving average of one season
//!    length (with end-point padding so the trend covers the whole series),
//! 2. average the detrended values per seasonal position to get the
//!    seasonal component (normalized to sum to zero),
//! 3. the remainder is what is left.

use crate::error::ForecastError;
use crate::series::TimeSeries;
use crate::stats::mean;

/// The result of an additive decomposition: `y_t = trend_t + seasonal_t +
/// remainder_t`, all three the same length as the input.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Season length in observations.
    pub period: usize,
    /// Smooth trend component.
    pub trend: Vec<f64>,
    /// Zero-mean seasonal component, periodic with `period`.
    pub seasonal: Vec<f64>,
    /// Remainder (irregular) component.
    pub remainder: Vec<f64>,
}

/// Decomposes a series additively along the given season length.
///
/// # Errors
///
/// Returns [`ForecastError::TooShort`] if the series does not contain at
/// least two full seasons, and [`ForecastError::InvalidParameter`] for a
/// period below 2.
///
/// # Examples
///
/// ```
/// use chamulteon_forecast::{decompose_additive, TimeSeries};
///
/// let values: Vec<f64> = (0..48)
///     .map(|t| t as f64 * 0.5 + [0.0, 5.0, -5.0, 0.0][t % 4])
///     .collect();
/// let ts = TimeSeries::from_values(60.0, values)?;
/// let d = decompose_additive(&ts, 4)?;
/// assert_eq!(d.trend.len(), 48);
/// // Seasonal component is zero-mean per construction.
/// let sum: f64 = d.seasonal[..4].iter().sum();
/// assert!(sum.abs() < 1e-9);
/// # Ok::<(), chamulteon_forecast::ForecastError>(())
/// ```
pub fn decompose_additive(
    series: &TimeSeries,
    period: usize,
) -> Result<Decomposition, ForecastError> {
    if period < 2 {
        return Err(ForecastError::InvalidParameter {
            name: "period",
            value: period as f64,
        });
    }
    let values = series.values();
    let n = values.len();
    if n < 2 * period {
        return Err(ForecastError::TooShort {
            have: n,
            need: 2 * period,
        });
    }

    // 1. Centered moving average of window `period` (period-and-a-step for
    //    even periods, i.e. the classical 2×m MA).
    let trend = centered_moving_average(values, period);

    // 2. Seasonal means of the detrended series, per position in the cycle.
    let mut sums = vec![0.0; period];
    let mut counts = vec![0usize; period];
    for (t, (&y, &tr)) in values.iter().zip(&trend).enumerate() {
        sums[t % period] += y - tr;
        counts[t % period] += 1;
    }
    let mut pattern: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    // Normalize to zero mean so the trend keeps the level.
    let pattern_mean = mean(&pattern);
    for p in &mut pattern {
        *p -= pattern_mean;
    }

    let seasonal: Vec<f64> = (0..n).map(|t| pattern[t % period]).collect();
    let remainder: Vec<f64> = values
        .iter()
        .zip(&trend)
        .zip(&seasonal)
        .map(|((&y, &tr), &s)| y - tr - s)
        .collect();

    Ok(Decomposition {
        period,
        trend,
        seasonal,
        remainder,
    })
}

/// Centered moving average with edge padding: interior points get the full
/// symmetric window (2×m MA for even m), edges reuse the nearest full
/// window value so the trend spans the whole series.
#[allow(
    clippy::needless_range_loop,
    reason = "the even-period branch reads `values` at asymmetric offsets around `t`; index form \
              is the clearer notation"
)]
fn centered_moving_average(values: &[f64], period: usize) -> Vec<f64> {
    let n = values.len();
    let half = period / 2;
    let mut trend = vec![f64::NAN; n];
    if period % 2 == 1 {
        for (t, slot) in trend.iter_mut().enumerate().take(n - half).skip(half) {
            *slot = mean(&values[t - half..=t + half]);
        }
    } else {
        // Classical 2×m moving average: average of two adjacent m-windows,
        // giving half-weight to the extreme points.
        for t in half..n - half {
            let lo = t - half;
            let hi = t + half; // inclusive index of the extra point
            let mut sum = values[lo] * 0.5 + values[hi] * 0.5;
            for v in &values[lo + 1..hi] {
                sum += v;
            }
            trend[t] = sum / period as f64;
        }
    }
    // Pad the edges with the nearest defined value.
    let first_defined = trend.iter().position(|v| v.is_finite()).unwrap_or(0);
    let last_defined = trend
        .iter()
        .rposition(|v| v.is_finite())
        .unwrap_or(n.saturating_sub(1));
    let first_val = trend.get(first_defined).copied().unwrap_or(mean(values));
    let last_val = trend.get(last_defined).copied().unwrap_or(mean(values));
    for item in trend.iter_mut().take(first_defined) {
        *item = first_val;
    }
    for item in trend.iter_mut().skip(last_defined + 1) {
        *item = last_val;
    }
    trend
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(1.0, values).unwrap()
    }

    #[test]
    fn recovers_planted_components() {
        let season = [10.0, -5.0, -10.0, 5.0];
        let values: Vec<f64> = (0..80)
            .map(|t| 100.0 + 0.25 * t as f64 + season[t % 4])
            .collect();
        let d = decompose_additive(&ts(values.clone()), 4).unwrap();
        // Seasonal pattern recovered (zero-mean version of the planted one).
        for (pos, &expected) in season.iter().enumerate() {
            assert!(
                (d.seasonal[pos] - expected).abs() < 0.5,
                "pos={pos}: {} vs {expected}",
                d.seasonal[pos]
            );
        }
        // Trend is close to the planted line in the interior.
        for t in 10..70 {
            let planted = 100.0 + 0.25 * t as f64;
            assert!((d.trend[t] - planted).abs() < 1.0, "t={t}");
        }
        // Exact reconstruction: trend + seasonal + remainder.
        for (t, &value) in values.iter().enumerate() {
            let sum = d.trend[t] + d.seasonal[t] + d.remainder[t];
            assert!((sum - value).abs() < 1e-9);
        }
    }

    #[test]
    fn component_lengths_match_input() {
        let values: Vec<f64> = (0..30).map(|t| (t % 5) as f64).collect();
        let d = decompose_additive(&ts(values), 5).unwrap();
        assert_eq!(d.trend.len(), 30);
        assert_eq!(d.seasonal.len(), 30);
        assert_eq!(d.remainder.len(), 30);
        assert!(d.trend.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn seasonal_component_is_zero_mean() {
        let values: Vec<f64> = (0..60).map(|t| 50.0 + [3.0, 1.0, -4.0][t % 3]).collect();
        let d = decompose_additive(&ts(values), 3).unwrap();
        let s: f64 = d.seasonal[..3].iter().sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn rejects_short_series_and_bad_period() {
        let values: Vec<f64> = (0..7).map(f64::from).collect();
        assert!(matches!(
            decompose_additive(&ts(values.clone()), 4),
            Err(ForecastError::TooShort { .. })
        ));
        assert!(matches!(
            decompose_additive(&ts(values), 1),
            Err(ForecastError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn odd_period_supported() {
        let values: Vec<f64> = (0..35)
            .map(|t| [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0][t % 7])
            .collect();
        let d = decompose_additive(&ts(values), 7).unwrap();
        // Constant trend, the pattern carries all structure.
        for t in 5..30 {
            assert!(
                (d.trend[t] - 4.0).abs() < 0.01,
                "t={t} trend={}",
                d.trend[t]
            );
        }
    }
}
