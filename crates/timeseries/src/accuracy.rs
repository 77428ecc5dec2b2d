//! Forecast accuracy measures.
//!
//! The paper's drift detection and the "trustable" test of the conflict
//! resolution both use the **mean absolute scaled error** (MASE, Hyndman &
//! Koehler 2006): the mean absolute forecast error scaled by the in-sample
//! mean absolute error of the one-step naive forecast. MASE < 1 means the
//! forecast beats the naive method.

/// Mean absolute error between `actual` and `forecast`, over the common
/// prefix length. Returns NaN if either slice is empty.
pub fn mae(actual: &[f64], forecast: &[f64]) -> f64 {
    let n = actual.len().min(forecast.len());
    if n == 0 {
        return f64::NAN;
    }
    actual
        .iter()
        .zip(forecast)
        .take(n)
        .map(|(a, f)| (a - f).abs())
        .sum::<f64>()
        / n as f64
}

/// Mean absolute scaled error.
///
/// `history` is the training series used to compute the scaling factor: the
/// in-sample MAE of the seasonal-naive forecast at lag `season` (use
/// `season = 1` for the plain naive scaling). `actual` and `forecast` are
/// the out-of-sample observations and predictions.
///
/// Returns NaN when any input is empty or the history is shorter than
/// `season + 1`; returns infinity when the history is constant (naive error
/// zero) but the forecast errs.
///
/// # Examples
///
/// ```
/// use chamulteon_forecast::mase;
///
/// let history = [1.0, 2.0, 3.0, 4.0];
/// // Perfect forecast => MASE 0.
/// assert_eq!(mase(&history, &[5.0, 6.0], &[5.0, 6.0], 1), 0.0);
/// ```
pub fn mase(history: &[f64], actual: &[f64], forecast: &[f64], season: usize) -> f64 {
    let n = actual.len().min(forecast.len());
    let season = season.max(1);
    if n == 0 || history.len() <= season {
        return f64::NAN;
    }
    let scale: f64 = history
        .windows(season + 1)
        .map(|w| (w[season] - w[0]).abs())
        .sum::<f64>()
        / (history.len() - season) as f64;
    let err = mae(actual, forecast);
    if scale <= f64::EPSILON {
        return if err <= f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        };
    }
    err / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_basic() {
        assert_eq!(mae(&[1.0, 2.0], &[1.0, 4.0]), 1.0);
        assert!(mae(&[], &[]).is_nan());
        assert!(mae(&[1.0], &[]).is_nan());
    }

    #[test]
    fn mae_uses_common_prefix() {
        assert_eq!(mae(&[1.0, 2.0, 3.0], &[2.0]), 1.0);
    }

    #[test]
    fn mase_perfect_forecast_is_zero() {
        assert_eq!(mase(&[1.0, 3.0, 2.0, 5.0], &[4.0], &[4.0], 1), 0.0);
    }

    #[test]
    fn mase_equals_one_for_naive_level_error() {
        // History walks by 1 each step => naive in-sample MAE = 1.
        let history = [0.0, 1.0, 2.0, 3.0, 4.0];
        // Forecast off by exactly 1 on average => MASE = 1.
        let m = mase(&history, &[10.0, 10.0], &[9.0, 11.0], 1);
        assert!((m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mase_seasonal_scaling() {
        // Period-2 history that repeats exactly => seasonal naive error 0,
        // so any forecast error gives infinite MASE.
        let history = [1.0, 9.0, 1.0, 9.0, 1.0, 9.0];
        assert_eq!(mase(&history, &[1.0], &[2.0], 2), f64::INFINITY);
        assert_eq!(mase(&history, &[1.0], &[1.0], 2), 0.0);
    }

    #[test]
    fn mase_degenerate_inputs() {
        assert!(mase(&[1.0], &[1.0], &[1.0], 1).is_nan());
        assert!(mase(&[1.0, 2.0], &[], &[], 1).is_nan());
    }

    #[test]
    fn mase_season_zero_treated_as_one() {
        let history = [0.0, 1.0, 2.0, 3.0];
        let a = mase(&history, &[5.0], &[6.0], 0);
        let b = mase(&history, &[5.0], &[6.0], 1);
        assert_eq!(a, b);
    }
}
