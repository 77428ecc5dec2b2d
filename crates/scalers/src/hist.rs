//! Hist — histogram-based predictive provisioning of Urgaonkar et al.
//! (TAAS 2008).

use crate::input::{AutoScaler, ScalerInput};

/// The predictive+reactive provisioning technique of Urgaonkar, Shenoy,
/// Chandra, Goyal and Wood, "Agile dynamic provisioning of multi-tier
/// internet applications" (ACM TAAS 2008).
///
/// The predictive component maintains a histogram of arrival rates observed
/// per schedule *bucket* (the original uses hours of the day) and, at each
/// bucket boundary, provisions for a high percentile of that bucket's
/// historical rates. The reactive component corrects upward immediately
/// when the observed rate exceeds the provisioned capacity ("to correct
/// errors in the long-term predictions or to react to unanticipated flash
/// crowds"). Provisioning to a high percentile for a whole bucket is what
/// gives Hist its over-provisioning tendency in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Bucket length in seconds (the "hour" of the original, shortened for
    /// the paper's compressed traces; default 600 s).
    pub bucket_length: f64,
    /// Percentile of the bucket's rate history to provision for, in
    /// `(0, 100]` (default 95).
    pub percentile: f64,
    /// Target utilization used to translate rates into instances
    /// (default 0.85).
    pub target_utilization: f64,
    /// Per-bucket observed arrival rates across the experiment.
    history: Vec<Vec<f64>>,
    current_bucket: Option<usize>,
    /// Instance count the predictive component chose for this bucket.
    predicted_base: Option<u32>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            bucket_length: 600.0,
            percentile: 95.0,
            target_utilization: 0.85,
            history: Vec::new(),
            current_bucket: None,
            predicted_base: None,
        }
    }
}

impl Hist {
    /// Creates a Hist scaler with a custom bucket length in seconds
    /// (clamped to ≥ 60 s).
    pub fn with_bucket_length(bucket_length: f64) -> Self {
        Hist {
            bucket_length: if bucket_length.is_finite() {
                bucket_length.max(60.0)
            } else {
                600.0
            },
            ..Hist::default()
        }
    }

    fn bucket_of(&self, time: f64) -> usize {
        crate::convert::usize_from_f64(time.max(0.0) / self.bucket_length)
    }

    fn percentile_of(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = crate::convert::usize_from_f64(
            (self.percentile / 100.0 * (sorted.len() as f64 - 1.0)).round(),
        );
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// The rate to provision for at the start of `bucket`: the percentile
    /// of that bucket's own history; for a bucket never seen before, the
    /// previous bucket's history (the original provisions hour by hour, so
    /// the nearest known hour is the best stand-in); as a last resort the
    /// percentile of everything observed so far.
    fn predicted_rate(&self, bucket: usize) -> Option<f64> {
        if let Some(p) = self.history.get(bucket).and_then(|r| self.percentile_of(r)) {
            return Some(p);
        }
        if bucket > 0 {
            if let Some(p) = self
                .history
                .get(bucket - 1)
                .and_then(|r| self.percentile_of(r))
            {
                return Some(p);
            }
        }
        let all: Vec<f64> = self.history.iter().flatten().copied().collect();
        self.percentile_of(&all)
    }
}

impl AutoScaler for Hist {
    fn name(&self) -> &str {
        "hist"
    }

    fn decide(&mut self, input: &ScalerInput) -> i64 {
        let rate = input.arrival_rate();
        let bucket = self.bucket_of(input.time);
        if self.history.len() <= bucket {
            self.history.resize(bucket + 1, Vec::new());
        }

        let current = i64::from(input.current_instances);
        let mut desired = current;

        // Predictive step at every bucket boundary — before recording the
        // current observation, since the original predicts purely from
        // *past* history.
        if self.current_bucket != Some(bucket) {
            self.current_bucket = Some(bucket);
            if let Some(predicted) = self.predicted_rate(bucket) {
                let sized = ScalerInput::new(
                    input.time,
                    input.interval,
                    crate::convert::u64_from_f64((predicted * input.interval).round()),
                    input.service_demand,
                    input.current_instances,
                );
                let base = sized.instances_for_utilization(self.target_utilization);
                self.predicted_base = Some(base);
                desired = i64::from(base);
            }
        }

        self.history[bucket].push(rate);

        // Reactive correction: never stay below what the observed rate
        // needs right now.
        let reactive_floor = i64::from(input.instances_for_utilization(self.target_utilization));
        desired = desired.max(reactive_floor);

        // Within a bucket, never drop below the predictive base — the
        // original re-provisions only at the hourly timescale.
        if let Some(base) = self.predicted_base {
            desired = desired.max(i64::from(base));
        }

        desired - current
    }

    fn reset(&mut self) {
        self.history.clear();
        self.current_bucket = None;
        self.predicted_base = None;
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
    fn reactive_correction_scales_up_immediately() {
        let mut h = Hist::default();
        // First call, no history yet for prediction beyond this sample:
        // reactive floor = ceil(30·0.1/0.85) = 4.
        let delta = h.decide(&input(0.0, 30.0, 1));
        assert_eq!(delta, 3);
    }

    #[test]
    fn provisions_percentile_of_bucket_history() {
        let mut h = Hist::with_bucket_length(120.0);
        // Fill bucket 0 with rates 10..=20.
        let mut n = 1u32;
        for (k, rate) in (10..=20).enumerate() {
            let d = h.decide(&input(k as f64 * 10.0, rate as f64, n));
            n = (i64::from(n) + d).max(1) as u32;
        }
        // Entering bucket 1: prediction uses global history (bucket 1 has
        // none) => p95 of 10..20 ≈ 20 => ceil(20·0.1/0.85) = 3.
        let d = h.decide(&input(125.0, 5.0, n));
        let n_after = (i64::from(n) + d).max(1) as u32;
        assert_eq!(n_after, 3);
    }

    #[test]
    fn does_not_scale_down_within_bucket() {
        let mut h = Hist::default();
        let mut n = 1u32;
        let d = h.decide(&input(0.0, 40.0, n));
        n = (i64::from(n) + d) as u32;
        let peak = n;
        // Load vanishes but we stay in the same bucket: no scale-down
        // below the predictive base (set at bucket entry), and the base
        // never shrinks mid-bucket.
        for k in 1..5 {
            let d = h.decide(&input(k as f64 * 60.0, 1.0, n));
            n = (i64::from(n) + d).max(1) as u32;
            assert!(n >= peak.min(n), "never below the bucket base");
        }
    }

    #[test]
    fn new_bucket_allows_scale_down() {
        let mut h = Hist::with_bucket_length(120.0);
        let mut n = 1u32;
        // Busy bucket 0.
        for k in 0..2 {
            let d = h.decide(&input(k as f64 * 60.0, 40.0, n));
            n = (i64::from(n) + d).max(1) as u32;
        }
        assert!(n >= 5);
        // Bucket 1 starts quiet; bucket-1 history empty => global p95 still
        // high, so stays up. Feed several quiet buckets so the global
        // percentile decays.
        for k in 2..40 {
            let d = h.decide(&input(k as f64 * 60.0, 2.0, n));
            n = (i64::from(n) + d).max(1) as u32;
        }
        assert!(n < 5, "eventually scales down in later buckets, n={n}");
    }

    #[test]
    fn reset_clears_history() {
        let mut h = Hist::default();
        h.decide(&input(0.0, 30.0, 1));
        h.reset();
        assert!(h.history.is_empty());
        assert_eq!(h.current_bucket, None);
    }

    #[test]
    fn percentile_helper() {
        let h = Hist::default();
        assert_eq!(h.percentile_of(&[]), None);
        assert_eq!(h.percentile_of(&[5.0]), Some(5.0));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = h.percentile_of(&values).unwrap();
        assert!((p - 95.0).abs() <= 1.0);
    }
}
