//! Descriptive statistics and numeric helpers used by the forecasters.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance; 0.0 for slices with fewer than two elements.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Sample autocorrelation at the given lag, using the standard biased
/// estimator `r(k) = Σ (y_t − ȳ)(y_{t+k} − ȳ) / Σ (y_t − ȳ)²`.
///
/// Returns 0.0 for a constant series, an empty series, or a lag outside
/// `1..len`.
pub fn autocorrelation(values: &[f64], lag: usize) -> f64 {
    let n = values.len();
    if lag == 0 {
        return 1.0;
    }
    if lag >= n {
        return 0.0;
    }
    let m = mean(values);
    let denom: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let num: f64 = (0..n - lag)
        .map(|t| (values[t] - m) * (values[t + lag] - m))
        .sum();
    num / denom
}

/// Ordinary least-squares fit of `y = intercept + slope·x` over the index
/// axis `x = 0, 1, 2, …`. Returns `(intercept, slope)`.
///
/// A series shorter than 2 yields a flat fit through its mean.
pub fn linear_fit(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        return (mean(values), 0.0);
    }
    let n_f = n as f64;
    let x_mean = (n_f - 1.0) / 2.0;
    let y_mean = mean(values);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in values.iter().enumerate() {
        let dx = i as f64 - x_mean;
        sxy += dx * (y - y_mean);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (y_mean - slope * x_mean, slope)
}

/// Raw periodogram power at integer frequencies `1..=max_freq` (cycles per
/// series length), computed by DFT projection.
///
/// Index `k` of the returned vector holds the power of frequency `k + 1`.
/// The mean is removed first so frequency 0 carries no power. A frequency
/// at or above `n` aliases to `freq mod n`.
///
/// The phase `2π·f·t/n` of every term is one of the `n` angles `2π·k/n`
/// with `k = f·t mod n`, so the sines and cosines come from one table of
/// `n` twiddles, walked in steps of `f mod n`, instead of `n·max_freq`
/// calls of `sin` and `cos`.
pub fn periodogram(values: &[f64], max_freq: usize) -> Vec<f64> {
    let n = values.len();
    if n < 4 || max_freq == 0 {
        return Vec::new();
    }
    let m = mean(values);
    let centered: Vec<f64> = values.iter().map(|v| v - m).collect();
    let twiddles: Vec<(f64, f64)> = (0..n)
        .map(|k| (std::f64::consts::TAU * k as f64 / n as f64).sin_cos())
        .collect();
    let mut powers = Vec::with_capacity(max_freq);
    for freq in 1..=max_freq {
        let stride = freq % n;
        let mut k = 0;
        let mut re = 0.0;
        let mut im = 0.0;
        for &y in &centered {
            let (sin, cos) = twiddles[k];
            re += y * cos;
            im += y * sin;
            k += stride;
            if k >= n {
                k -= n;
            }
        }
        powers.push((re * re + im * im) / n as f64);
    }
    powers
}

/// Solves the linear system `A·x = b` in place with Gaussian elimination and
/// partial pivoting. Returns `None` for singular (or near-singular) systems.
///
/// Used by the AR(p) least-squares fit; sizes here are tiny (p ≤ ~10), so a
/// dense O(n³) solve is appropriate.
// Index form reads clearer than iterator gymnastics over two rows of the
// same matrix.
#[allow(clippy::needless_range_loop)]
pub fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    if a.len() != n || a.iter().any(|row| row.len() != n) {
        return None;
    }
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for (k, &xk) in x.iter().enumerate().take(n).skip(row + 1) {
            sum -= a[row][k] * xk;
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < EPS);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < EPS);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        assert_eq!(autocorrelation(&[1.0, 2.0, 3.0], 0), 1.0);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[5.0; 10], 1), 0.0);
    }

    #[test]
    fn autocorrelation_of_period_two_alternation() {
        // Alternating series: strong negative lag-1, strong positive lag-2.
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&y, 1) < -0.9);
        assert!(autocorrelation(&y, 2) > 0.9);
    }

    #[test]
    fn autocorrelation_out_of_range_lag() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let y: Vec<f64> = (0..20).map(|i| 3.0 + 0.5 * i as f64).collect();
        let (intercept, slope) = linear_fit(&y);
        assert!((intercept - 3.0).abs() < EPS);
        assert!((slope - 0.5).abs() < EPS);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0));
        assert_eq!(linear_fit(&[4.0]), (4.0, 0.0));
        let (i, s) = linear_fit(&[2.0, 2.0, 2.0]);
        assert!((i - 2.0).abs() < EPS && s.abs() < EPS);
    }

    #[test]
    fn periodogram_finds_planted_frequency() {
        // 4 cycles over 64 points.
        let y: Vec<f64> = (0..64)
            .map(|t| (std::f64::consts::TAU * 4.0 * t as f64 / 64.0).sin())
            .collect();
        let p = periodogram(&y, 16);
        let argmax = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax + 1, 4);
    }

    #[test]
    fn periodogram_short_series_is_empty() {
        assert!(periodogram(&[1.0, 2.0], 4).is_empty());
        assert!(periodogram(&[1.0; 10], 0).is_empty());
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 3; x - y = 1 => x = 2, y = 1.
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let x = solve_linear_system(a, vec![3.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < EPS);
        assert!((x[1] - 1.0).abs() < EPS);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear_system(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_linear_system(a, vec![5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < EPS);
        assert!((x[1] - 5.0).abs() < EPS);
    }

    #[test]
    fn solve_rejects_shape_mismatch() {
        let a = vec![vec![1.0, 2.0]];
        assert!(solve_linear_system(a, vec![1.0, 2.0]).is_none());
    }
}
