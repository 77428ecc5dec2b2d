//! Reg — regression-based scaling of Iqbal et al. (FGCS 2011).

use crate::input::{AutoScaler, ScalerInput};

/// The regression-based auto-scaler of Iqbal, Dailey, Carrera and Janecek,
/// "Adaptive resource provisioning for read intensive multi-tier
/// applications in the cloud" (FGCS 2011).
///
/// Scale-up is reactive, similar to React: when capacity is insufficient,
/// instances are added immediately. Scale-down is predictive: a
/// **second-order polynomial regression over the complete workload
/// history** — recomputed every interval — predicts the future load, and
/// when the current provisioned capacity exceeds what the prediction
/// needs, the service is shrunk to the predicted requirement.
///
/// Extrapolating a quadratic fitted to the whole history is exactly what
/// produces Reg's signature behaviour in the paper (Fig. 2): phases of
/// rapid oscillation and sustained under-provisioning.
#[derive(Debug, Clone, PartialEq)]
pub struct Reg {
    /// Target utilization for sizing (default 0.9 — tight, as in the
    /// original's capacity model).
    pub target_utilization: f64,
    history: Vec<(f64, f64)>,
}

impl Default for Reg {
    fn default() -> Self {
        Reg {
            target_utilization: 0.9,
            history: Vec::new(),
        }
    }
}

impl Reg {
    /// Creates a Reg scaler with a custom target utilization (clamped into
    /// `(0, 1]`).
    pub fn new(target_utilization: f64) -> Self {
        Reg {
            target_utilization: if target_utilization.is_finite() && target_utilization > 0.0 {
                target_utilization.min(1.0)
            } else {
                0.9
            },
            history: Vec::new(),
        }
    }

    /// Fits `rate = c0 + c1·t + c2·t²` by least squares over the complete
    /// history and evaluates it at `t`. Falls back to the last observation
    /// when the system is singular or the history is short.
    fn predict(&self, t: f64) -> f64 {
        let n = self.history.len();
        if n < 3 {
            return self.history.last().map(|&(_, r)| r).unwrap_or(0.0);
        }
        // Normalize time to improve conditioning.
        let t0 = self.history[0].0;
        let scale = (self.history[n - 1].0 - t0).max(1.0);
        let xs: Vec<f64> = self
            .history
            .iter()
            .map(|&(ti, _)| (ti - t0) / scale)
            .collect();
        let ys: Vec<f64> = self.history.iter().map(|&(_, r)| r).collect();
        // Normal equations for the quadratic fit.
        let mut s = [0.0f64; 5]; // sums of x^0..x^4
        let mut b = [0.0f64; 3]; // sums of y·x^0..x^2
        for (&x, &y) in xs.iter().zip(&ys) {
            let x2 = x * x;
            s[0] += 1.0;
            s[1] += x;
            s[2] += x2;
            s[3] += x2 * x;
            s[4] += x2 * x2;
            b[0] += y;
            b[1] += y * x;
            b[2] += y * x2;
        }
        let a = [[s[0], s[1], s[2]], [s[1], s[2], s[3]], [s[2], s[3], s[4]]];
        match solve3(a, b) {
            Some(c) => {
                let x = (t - t0) / scale;
                (c[0] + c[1] * x + c[2] * x * x).max(0.0)
            }
            None => ys[n - 1],
        }
    }
}

/// Solves a 3×3 linear system with Gaussian elimination; `None` when
/// singular.
#[allow(
    clippy::needless_range_loop,
    reason = "index form reads clearer than iterator gymnastics over two rows of the same matrix"
)]
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut sum = b[row];
        for (k, &xk) in x.iter().enumerate().take(3).skip(row + 1) {
            sum -= a[row][k] * xk;
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

impl AutoScaler for Reg {
    fn name(&self) -> &str {
        "reg"
    }

    fn decide(&mut self, input: &ScalerInput) -> i64 {
        let rate = input.arrival_rate();
        self.history.push((input.time, rate));
        let current = i64::from(input.current_instances);

        // Reactive scale-up.
        let needed_now = i64::from(input.instances_for_utilization(self.target_utilization));
        if needed_now > current {
            return needed_now - current;
        }

        // Predictive scale-down from the quadratic extrapolation.
        let predicted = self.predict(input.time + input.interval);
        let sized = ScalerInput::new(
            input.time,
            input.interval,
            crate::convert::u64_from_f64((predicted * input.interval).round()),
            input.service_demand,
            input.current_instances,
        );
        let needed_pred = i64::from(sized.instances_for_utilization(self.target_utilization));
        // Never drop below what the current load needs outright.
        let target = needed_pred.max(needed_now);
        if target < current {
            return target - current;
        }
        0
    }

    fn reset(&mut self) {
        self.history.clear();
    }

    fn clone_box(&self) -> Box<dyn AutoScaler + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test fixtures cast freely"
)]
mod tests {
    use super::*;

    fn input(t: f64, rate: f64, n: u32) -> ScalerInput {
        ScalerInput::new(t, 60.0, (rate * 60.0).round() as u64, 0.1, n)
    }

    #[test]
    fn reactive_scale_up() {
        let mut r = Reg::default();
        // 45 req/s · 0.1 / 0.9 = 5 instances.
        assert_eq!(r.decide(&input(0.0, 45.0, 1)), 4);
    }

    #[test]
    fn scales_down_on_declining_trend() {
        let mut r = Reg::default();
        let mut n = 10u32;
        // Steadily declining load: the quadratic extrapolates further down.
        for (k, rate) in [50.0, 40.0, 30.0, 20.0].iter().enumerate() {
            let d = r.decide(&input(k as f64 * 60.0, *rate, n));
            n = (i64::from(n) + d).max(1) as u32;
        }
        assert!(n < 10, "scaled down on decline, n={n}");
        // Never below what the last observed rate needs: 20·0.1/0.9 = 3.
        assert!(n >= 3);
    }

    #[test]
    fn quadratic_predicts_parabola() {
        let mut r = Reg::default();
        // rate(t) = 0.001·t² sampled at minutes 0..5.
        for k in 0..6 {
            let t = k as f64 * 60.0;
            r.history.push((t, 0.001 * t * t));
        }
        let predicted = r.predict(360.0);
        assert!(
            (predicted - 0.001 * 360.0 * 360.0).abs() < 2.0,
            "{predicted}"
        );
    }

    #[test]
    fn short_history_predicts_last_value() {
        let mut r = Reg::default();
        r.history.push((0.0, 12.0));
        assert_eq!(r.predict(60.0), 12.0);
        r.history.clear();
        assert_eq!(r.predict(60.0), 0.0);
    }

    #[test]
    fn prediction_clamped_nonnegative() {
        let mut r = Reg::default();
        // Steep decline extrapolates negative; clamp to 0.
        for (k, rate) in [100.0, 60.0, 20.0].iter().enumerate() {
            r.history.push((k as f64 * 60.0, *rate));
        }
        assert!(r.predict(300.0) >= 0.0);
    }

    #[test]
    fn never_scales_below_current_need() {
        let mut r = Reg::default();
        // History suggesting collapse, but current rate still needs 5.
        for (k, rate) in [100.0, 70.0, 45.0].iter().enumerate() {
            let _ = r.decide(&input(k as f64 * 60.0, *rate, 12));
        }
        let d = r.decide(&input(180.0, 45.0, 12));
        // needed_now = 45·0.1/0.9 = 5.
        assert!(12 + d >= 5);
    }

    #[test]
    fn reset_clears_history() {
        let mut r = Reg::default();
        r.decide(&input(0.0, 10.0, 1));
        r.reset();
        assert!(r.history.is_empty());
    }

    #[test]
    fn solve3_known_system() {
        // x=1, y=2, z=3.
        let a = [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0], [0.0, 1.0, 2.0]];
        let b = [6.0, 5.0, 8.0];
        let x = solve3(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
        assert!((x[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve3_singular() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
