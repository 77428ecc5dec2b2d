//! Order statistics over timing samples.

/// Median, quartiles, extremes and sample count of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation between closest ranks, `q` in `[0, 1]`.
fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        n: s.len(),
        median: interpolate(&s, 0.5),
        p25: interpolate(&s, 0.25),
        p75: interpolate(&s, 0.75),
        min: s[0],
        max: s[s.len() - 1],
    })
}

/// The median of `samples`, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The nearest-rank `p`-th percentile of `samples`, refused (`None`)
/// unless at least ten samples lie beyond it: a tail percentile read off
/// fewer samples is one outlier, not a distribution.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let s = sorted(samples);
    let rank = (p * s.len() as f64 / 100.0).ceil() as usize;
    let rank = rank.clamp(1, s.len());
    if s.len() - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}
