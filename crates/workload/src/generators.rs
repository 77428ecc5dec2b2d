//! Seeded synthetic trace generators.
//!
//! The real BibSonomy and German-Wikipedia traces are not redistributable,
//! so these generators reproduce their *documented shape* (see DESIGN.md):
//!
//! * [`wikipedia_like`] — page requests to an encyclopedia: a smooth,
//!   strongly diurnal curve with a broad daytime plateau, an evening peak,
//!   a deep night valley and mild (≈2–3%) multiplicative noise;
//! * [`bibsonomy_like`] — a smaller social-bookmarking system: the same
//!   diurnal skeleton but much noisier (≈10%), with crawler/flash-crowd
//!   bursts that multiply the load for minutes at a time.
//!
//! Both are deterministic in their seed, normalized to a configurable shape
//! (use [`LoadTrace::scale_to_peak`] to set absolute load), and cover an
//! arbitrary duration at an arbitrary resolution.

use crate::trace::LoadTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// Seconds in a (synthetic) day.
const DAY: f64 = 86_400.0;

/// Smooth diurnal skeleton in `[0, 1]`: night valley around 04:00, rising
/// morning, daytime plateau, evening peak around 20:00.
fn diurnal_shape(t: f64) -> f64 {
    let day_phase = (t / DAY).fract();
    // Two harmonics give the characteristic asymmetric double-hump web
    // traffic profile.
    let base =
        0.55 - 0.35 * (TAU * (day_phase + 0.13)).cos() - 0.10 * (2.0 * TAU * day_phase).cos();
    base.clamp(0.02, 1.0)
}

/// Generates a Wikipedia-like trace: `duration` seconds at `step`
/// resolution, normalized so the deterministic peak is ≈1.0.
///
/// The profile is smooth and strongly seasonal — the regime in which
/// proactive (forecast-based) scaling shines.
///
/// # Panics
///
/// Panics if `step` or `duration` is not positive.
#[allow(clippy::expect_used)] // rates are clamped finite and non-negative above
pub fn wikipedia_like(seed: u64, step: f64, duration: f64) -> LoadTrace {
    assert!(
        step > 0.0 && duration > 0.0,
        "step and duration must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let count = crate::convert::usize_from_f64((duration / step).ceil()).max(1);
    let rates: Vec<f64> = (0..count)
        .map(|i| {
            let t = i as f64 * step;
            let shape = diurnal_shape(t);
            // Slight day-over-day growth, as in a trending article cycle.
            let trend = 1.0 + 0.03 * (t / DAY);
            let noise = 1.0 + 0.025 * (rng.gen::<f64>() * 2.0 - 1.0);
            (shape * trend * noise).max(0.0)
        })
        .collect();
    LoadTrace::new(step, rates).expect("generated rates are valid")
}

/// Generates a BibSonomy-like trace: the diurnal skeleton with heavy
/// multiplicative noise and occasional flash-crowd bursts (crawlers, viral
/// bookmarks) lasting several samples.
///
/// # Panics
///
/// Panics if `step` or `duration` is not positive.
#[allow(clippy::expect_used)] // rates are clamped finite and non-negative above
pub fn bibsonomy_like(seed: u64, step: f64, duration: f64) -> LoadTrace {
    assert!(
        step > 0.0 && duration > 0.0,
        "step and duration must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let count = crate::convert::usize_from_f64((duration / step).ceil()).max(1);

    // Pre-draw burst episodes: expected one burst per ~3 hours of trace
    // time, each lasting 3–15 samples with 1.5–3× amplification.
    let mut burst_factor = vec![1.0; count];
    let expected_bursts = crate::convert::usize_from_f64((duration / (3.0 * 3600.0)).ceil());
    for _ in 0..expected_bursts {
        let start = rng.gen_range(0..count);
        let len = rng.gen_range(3..=15).min(count - start);
        let amp = 1.5 + 1.5 * rng.gen::<f64>();
        for item in burst_factor.iter_mut().skip(start).take(len) {
            *item = f64::max(*item, amp);
        }
    }

    let rates: Vec<f64> = (0..count)
        .map(|i| {
            let t = i as f64 * step;
            let shape = diurnal_shape(t);
            let noise = 1.0 + 0.10 * (rng.gen::<f64>() * 2.0 - 1.0);
            (shape * noise * burst_factor[i]).max(0.0)
        })
        .collect();
    LoadTrace::new(step, rates).expect("generated rates are valid")
}

/// Helper for the paper's experiment sizing: the peak arrival rate (req/s)
/// at which the whole application needs `total_instances` instances summed
/// over all services, given the per-service demands and a target
/// utilization.
///
/// From `Σ_i ceil(λ·d_i/ρ) ≈ λ·Σd_i/ρ = N` follows `λ = N·ρ / Σd_i`.
pub fn peak_rate_for_total_instances(
    total_instances: u32,
    service_demands: &[f64],
    target_utilization: f64,
) -> f64 {
    let total_demand: f64 = service_demands.iter().filter(|d| **d > 0.0).sum();
    if total_demand <= 0.0 || !(target_utilization > 0.0) {
        return 0.0;
    }
    f64::from(total_instances) * target_utilization / total_demand
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wikipedia_is_deterministic_in_seed() {
        let a = wikipedia_like(1, 60.0, DAY);
        let b = wikipedia_like(1, 60.0, DAY);
        let c = wikipedia_like(2, 60.0, DAY);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wikipedia_has_diurnal_swing() {
        let t = wikipedia_like(42, 60.0, DAY);
        // Peak-to-valley ratio of a diurnal web trace is large.
        let min = t.rates().iter().cloned().fold(f64::MAX, f64::min);
        assert!(t.peak_rate() / min.max(1e-9) > 3.0);
    }

    #[test]
    fn wikipedia_is_smooth() {
        // Adjacent samples differ by far less than the diurnal swing.
        let t = wikipedia_like(42, 60.0, DAY);
        let max_jump = t
            .rates()
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_jump < 0.15 * t.peak_rate(), "max jump {max_jump}");
    }

    #[test]
    fn bibsonomy_is_noisier_than_wikipedia() {
        let wiki = wikipedia_like(7, 60.0, DAY);
        let bib = bibsonomy_like(7, 60.0, DAY);
        let roughness = |t: &LoadTrace| {
            t.rates()
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f64>()
                / t.mean_rate()
        };
        assert!(roughness(&bib) > roughness(&wiki) * 1.5);
    }

    #[test]
    fn bibsonomy_contains_bursts() {
        let t = bibsonomy_like(3, 60.0, DAY);
        // Some sample exceeds 1.3× the smooth ceiling of the noisy shape.
        assert!(t.peak_rate() > 1.3);
    }

    #[test]
    fn generated_rates_nonnegative_and_finite() {
        for seed in 0..5 {
            for t in [
                wikipedia_like(seed, 30.0, 6.0 * 3600.0),
                bibsonomy_like(seed, 30.0, 6.0 * 3600.0),
            ] {
                assert!(t.rates().iter().all(|r| r.is_finite() && *r >= 0.0));
            }
        }
    }

    #[test]
    fn requested_duration_covered() {
        let t = wikipedia_like(1, 100.0, 3_600.0);
        assert!(t.duration() >= 3_600.0);
        assert_eq!(t.len(), 36);
    }

    #[test]
    fn peak_rate_sizing_formula() {
        // Paper demands: 0.199 s summed; 120 instances at ρ = 0.8.
        let rate = peak_rate_for_total_instances(120, &[0.059, 0.1, 0.04], 0.8);
        assert!((rate - 120.0 * 0.8 / 0.199).abs() < 1e-9);
        // Degenerate inputs.
        assert_eq!(peak_rate_for_total_instances(120, &[], 0.8), 0.0);
        assert_eq!(peak_rate_for_total_instances(120, &[0.1], 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let _ = wikipedia_like(1, 0.0, 100.0);
    }

    #[test]
    fn generators_match_documented_shape() {
        // The calibration claims of DESIGN.md §2, checked quantitatively on
        // the statistics of one synthetic day per generator.
        struct Shape {
            peak_to_mean: f64,
            burstiness: f64,
            lag1_autocorrelation: f64,
        }
        fn shape(trace: &LoadTrace) -> Shape {
            let rates = trace.rates();
            let n = rates.len() as f64;
            let mean = trace.mean_rate();
            let variance = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n;
            let covariance: f64 = rates
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum();
            let steps: f64 = rates.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
            Shape {
                peak_to_mean: trace.peak_rate() / mean,
                burstiness: steps / (n - 1.0) / mean,
                lag1_autocorrelation: covariance / (variance * n),
            }
        }
        let wiki = shape(&wikipedia_like(5, 60.0, DAY));
        let bib = shape(&bibsonomy_like(5, 60.0, DAY));
        // Both strongly diurnal => high lag-1 autocorrelation.
        assert!(wiki.lag1_autocorrelation > 0.9);
        assert!(bib.lag1_autocorrelation > 0.6);
        // BibSonomy burstier and spikier than Wikipedia.
        assert!(bib.burstiness > wiki.burstiness * 1.5);
        assert!(bib.peak_to_mean > wiki.peak_to_mean);
        // Diurnal swing: peak well above mean for both.
        assert!(wiki.peak_to_mean > 1.4);
    }
}
