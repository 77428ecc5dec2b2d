//! The piecewise-constant load-intensity trace.

use crate::error::WorkloadError;

/// A load-intensity profile: request rates (req/s) sampled on an
/// equidistant grid, interpreted as piecewise constant between samples.
///
/// Supports the paper's two trace transformations — time compression
/// ("accelerate them to last either an hour or six hours") and peak
/// rescaling ("change the scale of peak demand") — plus CSV import of the
/// common `timestamp,rate` dump format of real traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    step: f64,
    rates: Vec<f64>,
}

impl LoadTrace {
    /// Creates a trace from rates sampled every `step` seconds, starting at
    /// time 0.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidStep`] for a non-positive step,
    /// [`WorkloadError::Empty`] for no samples, and
    /// [`WorkloadError::InvalidRate`] for negative or non-finite rates.
    pub fn new(step: f64, rates: Vec<f64>) -> Result<Self, WorkloadError> {
        if !(step > 0.0) || !step.is_finite() {
            return Err(WorkloadError::InvalidStep { step });
        }
        if rates.is_empty() {
            return Err(WorkloadError::Empty);
        }
        if let Some(index) = rates.iter().position(|r| !r.is_finite() || *r < 0.0) {
            return Err(WorkloadError::InvalidRate {
                index,
                value: rates[index],
            });
        }
        Ok(LoadTrace { step, rates })
    }

    /// The sampling step in seconds.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The sampled rates in req/s.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Total covered duration in seconds.
    pub fn duration(&self) -> f64 {
        self.step * self.rates.len() as f64
    }

    /// The rate in effect at time `t` (piecewise constant; times past the
    /// end return the last rate, negative times the first).
    pub fn rate_at(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.rates[0];
        }
        let idx = crate::convert::usize_from_f64(t / self.step);
        self.rates[idx.min(self.rates.len() - 1)]
    }

    /// The largest sampled rate.
    pub fn peak_rate(&self) -> f64 {
        self.rates.iter().cloned().fold(0.0, f64::max)
    }

    /// The mean sampled rate.
    pub fn mean_rate(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// Compresses (or stretches) the trace to the given total duration by
    /// shrinking the step while keeping every sample — the paper's
    /// acceleration of a one-day trace into a 1 h or 6 h experiment.
    ///
    /// Rates are unchanged: acceleration replays the same intensity profile
    /// faster, it does not multiply the load.
    pub fn compress_to(&self, target_duration: f64) -> LoadTrace {
        let target = if target_duration.is_finite() && target_duration > 0.0 {
            target_duration
        } else {
            self.duration()
        };
        LoadTrace {
            step: target / self.rates.len() as f64,
            rates: self.rates.clone(),
        }
    }

    /// Rescales all rates so the peak equals `target_peak` req/s — the
    /// paper's change of "the scale of the demanded resources".
    ///
    /// A zero trace stays zero.
    pub fn scale_to_peak(&self, target_peak: f64) -> LoadTrace {
        let peak = self.peak_rate();
        if peak <= 0.0 || !(target_peak >= 0.0) {
            return self.clone();
        }
        let factor = target_peak / peak;
        LoadTrace {
            step: self.step,
            rates: self.rates.iter().map(|r| r * factor).collect(),
        }
    }

    /// Resamples the trace onto a different step by averaging (when
    /// coarsening) or repeating (when refining) samples.
    ///
    /// When the duration is not an exact multiple of `new_step`, a partial
    /// final window captures the trace tail; its mass is spread over the
    /// full synthetic window, so total load mass (`mean_rate × duration`)
    /// is conserved rather than truncated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidStep`] for a non-positive step.
    pub fn resample(&self, new_step: f64) -> Result<LoadTrace, WorkloadError> {
        if !(new_step > 0.0) || !new_step.is_finite() {
            return Err(WorkloadError::InvalidStep { step: new_step });
        }
        let duration = self.duration();
        // Ceil so the tail is kept; snap near-integral ratios first so
        // float noise (e.g. 3.0000000000000004) does not fabricate an
        // empty extra window.
        let ratio = duration / new_step;
        let windows = if (ratio - ratio.round()).abs() < 1e-9 {
            ratio.round()
        } else {
            ratio.ceil()
        };
        let count = crate::convert::usize_from_f64(windows).max(1);
        let mut rates = Vec::with_capacity(count);
        for i in 0..count {
            let lo = i as f64 * new_step;
            let hi = (lo + new_step).min(duration);
            // Average the original piecewise-constant function over [lo, hi).
            // The segment index advances monotonically instead of being
            // re-derived from `t`: for non-dyadic steps, `(idx+1)*step / step`
            // can floor back to `idx` and a re-derived index never moves.
            let mut acc = 0.0;
            let mut t = lo;
            let mut idx = crate::convert::usize_from_f64(lo / self.step).min(self.rates.len() - 1);
            while t < hi - 1e-12 {
                let seg_end = ((idx + 1) as f64 * self.step).min(hi);
                if seg_end > t {
                    acc += self.rates[idx] * (seg_end - t);
                    t = seg_end;
                }
                if seg_end >= hi || idx + 1 >= self.rates.len() {
                    break;
                }
                idx += 1;
            }
            // Divide by the full window length (not the clamped span): a
            // partial tail window dilutes its mass over the whole window,
            // which is exactly what conserves total mass.
            rates.push(acc / new_step);
        }
        LoadTrace::new(new_step, rates)
    }

    /// Parses `time,rate` CSV (header optional). The step is inferred from
    /// the first two timestamps (60 s for a single-line trace).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Parse`] for malformed lines and the
    /// constructor errors for invalid data.
    pub fn from_csv(text: &str) -> Result<Self, WorkloadError> {
        let mut times = Vec::new();
        let mut rates = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let time_part = parts.next().unwrap_or("");
            // A first line whose time column is not numeric is a header.
            if lineno == 0 && time_part.trim().parse::<f64>().is_err() {
                continue;
            }
            let rate_part = parts.next().ok_or(WorkloadError::Parse {
                line: lineno + 1,
                message: "missing rate column".into(),
            })?;
            let time: f64 = time_part.trim().parse().map_err(|e| WorkloadError::Parse {
                line: lineno + 1,
                message: format!("bad time: {e}"),
            })?;
            let rate: f64 = rate_part.trim().parse().map_err(|e| WorkloadError::Parse {
                line: lineno + 1,
                message: format!("bad rate: {e}"),
            })?;
            times.push(time);
            rates.push(rate);
        }
        if rates.is_empty() {
            return Err(WorkloadError::Empty);
        }
        let step = if times.len() >= 2 {
            times[1] - times[0]
        } else {
            60.0
        };
        LoadTrace::new(step, rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rates: Vec<f64>) -> LoadTrace {
        LoadTrace::new(60.0, rates).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(LoadTrace::new(0.0, vec![1.0]).is_err());
        assert!(LoadTrace::new(60.0, vec![]).is_err());
        assert!(matches!(
            LoadTrace::new(60.0, vec![1.0, -2.0]),
            Err(WorkloadError::InvalidRate { index: 1, .. })
        ));
        assert!(LoadTrace::new(60.0, vec![f64::NAN]).is_err());
    }

    #[test]
    fn rate_at_piecewise_constant() {
        let t = trace(vec![10.0, 20.0, 30.0]);
        assert_eq!(t.rate_at(-5.0), 10.0);
        assert_eq!(t.rate_at(0.0), 10.0);
        assert_eq!(t.rate_at(59.9), 10.0);
        assert_eq!(t.rate_at(60.0), 20.0);
        assert_eq!(t.rate_at(179.0), 30.0);
        assert_eq!(t.rate_at(9999.0), 30.0);
    }

    #[test]
    fn summary_statistics() {
        let t = trace(vec![10.0, 20.0, 30.0]);
        assert_eq!(t.peak_rate(), 30.0);
        assert_eq!(t.mean_rate(), 20.0);
        assert_eq!(t.duration(), 180.0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn compression_keeps_rates_shrinks_step() {
        let day = trace(vec![1.0; 1440]); // 24 h at 60 s
        let hour = day.compress_to(3600.0);
        assert_eq!(hour.len(), 1440);
        assert!((hour.step() - 2.5).abs() < 1e-12);
        assert!((hour.duration() - 3600.0).abs() < 1e-9);
        assert_eq!(hour.peak_rate(), 1.0);
    }

    #[test]
    fn compression_invalid_duration_is_identity() {
        let t = trace(vec![1.0, 2.0]);
        assert_eq!(t.compress_to(0.0), t);
        assert_eq!(t.compress_to(f64::NAN), t);
    }

    #[test]
    fn scaling_hits_target_peak() {
        let t = trace(vec![10.0, 50.0, 25.0]);
        let s = t.scale_to_peak(500.0);
        assert!((s.peak_rate() - 500.0).abs() < 1e-9);
        // Shape preserved.
        assert!((s.rates()[0] - 100.0).abs() < 1e-9);
        assert!((s.rates()[2] - 250.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_zero_trace_is_noop() {
        let t = trace(vec![0.0, 0.0]);
        assert_eq!(t.scale_to_peak(100.0), t);
    }

    #[test]
    fn resample_coarsen_averages() {
        let t = trace(vec![10.0, 20.0, 30.0, 40.0]);
        let r = t.resample(120.0).unwrap();
        assert_eq!(r.len(), 2);
        assert!((r.rates()[0] - 15.0).abs() < 1e-9);
        assert!((r.rates()[1] - 35.0).abs() < 1e-9);
    }

    #[test]
    fn resample_refine_repeats() {
        let t = trace(vec![10.0, 20.0]);
        let r = t.resample(30.0).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.rates(), &[10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn resample_preserves_mean_load() {
        let t = trace(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let r = t.resample(90.0).unwrap();
        assert!((r.mean_rate() - t.mean_rate()).abs() < 1e-9);
    }

    #[test]
    fn resample_keeps_tail_mass() {
        // 10 s of trace at step 4.9 used to round to 2 windows (9.8 s),
        // dropping the tail. Ceil keeps a partial third window and the
        // total load mass is conserved.
        let t = LoadTrace::new(1.0, vec![5.0; 10]).unwrap();
        let r = t.resample(4.9).unwrap();
        assert_eq!(r.len(), 3);
        let mass_before = t.mean_rate() * t.duration();
        let mass_after = r.mean_rate() * r.duration();
        assert!((mass_after - mass_before).abs() < 1e-9 * mass_before.max(1.0));
    }

    #[test]
    fn resample_near_integral_ratio_has_no_ghost_window() {
        // 3 × 0.1 s resampled at 0.1 s: duration / new_step is 3 up to
        // float noise; the snap must not fabricate a fourth window.
        let t = LoadTrace::new(0.1, vec![1.0, 2.0, 3.0]).unwrap();
        let r = t.resample(0.1).unwrap();
        assert_eq!(r.len(), 3);
        assert!((r.rates()[0] - 1.0).abs() < 1e-9);
        assert!((r.rates()[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn csv_with_header() {
        let back = LoadTrace::from_csv("time_s,rate_rps\n0,10\n60,20.5\n120,30\n").unwrap();
        assert_eq!(back, trace(vec![10.0, 20.5, 30.0]));
    }

    #[test]
    fn csv_without_header() {
        let back = LoadTrace::from_csv("0,5\n30,7\n60,9\n").unwrap();
        assert_eq!(back.step(), 30.0);
        assert_eq!(back.rates(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn csv_errors() {
        assert!(matches!(
            LoadTrace::from_csv("time_s,rate_rps\n"),
            Err(WorkloadError::Empty)
        ));
        assert!(matches!(
            LoadTrace::from_csv("0\n"),
            Err(WorkloadError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            LoadTrace::from_csv("0,abc\n"),
            Err(WorkloadError::Parse { .. })
        ));
    }
}
