//! Ground-truth demand curves `d_t` derived from the load trace.

use crate::step::StepFn;
use chamulteon_queueing::capacity::min_instances_for_response_time_quantile;
use chamulteon_queueing::CapacityCache;
use chamulteon_workload::LoadTrace;

/// The response-time quantile the demand curve targets: the optimal
/// auto-scaler provisions so that at least this fraction of requests meets
/// the SLO (an SLO is violated per request, so bounding the mean is not
/// enough — near saturation the mean meets the target while a third of
/// requests miss it).
pub const DEMAND_QUANTILE: f64 = 0.9;

/// Derives the demand curve of one service: for every trace segment, the
/// minimal instance count whose M/M/n response-time **90th percentile**
/// ([`DEMAND_QUANTILE`]) stays within the service's share of the
/// end-to-end SLO.
///
/// `slo_share` is this service's response-time budget in seconds (see
/// [`demand_curves`] for the proportional split). Infeasible segments
/// (offered load beyond `max_instances`) are pinned at `max_instances` —
/// the optimal scaler can do no better.
pub fn demand_curve(
    trace: &LoadTrace,
    service_demand: f64,
    visit_ratio: f64,
    slo_share: f64,
    max_instances: u32,
) -> StepFn {
    derive_curve(trace, visit_ratio, max_instances, |local_rate| {
        min_instances_for_response_time_quantile(
            local_rate,
            service_demand,
            slo_share,
            DEMAND_QUANTILE,
            max_instances,
        )
    })
}

/// [`demand_curve`] answered through a [`CapacityCache`]: repeated rates
/// within the trace hit the memo instead of re-running the solver. The
/// cached solver rounds conservatively (see the cache docs), so the curve
/// never undersizes.
pub fn demand_curve_with_cache(
    cache: &CapacityCache,
    trace: &LoadTrace,
    service_demand: f64,
    visit_ratio: f64,
    slo_share: f64,
    max_instances: u32,
) -> StepFn {
    derive_curve(trace, visit_ratio, max_instances, |local_rate| {
        cache.min_instances_for_response_time_quantile(
            local_rate,
            service_demand,
            slo_share,
            DEMAND_QUANTILE,
            max_instances,
        )
    })
}

/// The shared curve-derivation loop: solves per trace segment, pins
/// infeasible segments at `max_instances`, dedups consecutive levels.
fn derive_curve<S>(trace: &LoadTrace, visit_ratio: f64, max_instances: u32, solve: S) -> StepFn
where
    S: Fn(f64) -> Result<u32, chamulteon_queueing::QueueingError>,
{
    let mut points = Vec::with_capacity(trace.len());
    let mut last: Option<u32> = None;
    for (i, &rate) in trace.rates().iter().enumerate() {
        let local_rate = rate * visit_ratio.max(0.0);
        let needed = solve(local_rate).unwrap_or(max_instances).max(1);
        if last != Some(needed) {
            points.push((i as f64 * trace.step(), needed));
            last = Some(needed);
        }
    }
    StepFn::new(points)
}

/// Derives demand curves for every service of a chain application.
///
/// The end-to-end SLO budget is split across services proportionally to
/// `demand_i · visit_ratio_i` — the same split the optimal static sizing
/// would use.
pub fn demand_curves(
    trace: &LoadTrace,
    service_demands: &[f64],
    visit_ratios: &[f64],
    slo_response_time: f64,
    max_instances: u32,
) -> Vec<StepFn> {
    derive_curves(
        trace,
        service_demands,
        visit_ratios,
        slo_response_time,
        max_instances,
        demand_curve,
    )
}

/// [`demand_curves`] answered through a [`CapacityCache`] — see
/// [`demand_curve_with_cache`]. Repeated rates within the trace become
/// hash lookups.
pub fn demand_curves_with_cache(
    cache: &CapacityCache,
    trace: &LoadTrace,
    service_demands: &[f64],
    visit_ratios: &[f64],
    slo_response_time: f64,
    max_instances: u32,
) -> Vec<StepFn> {
    derive_curves(
        trace,
        service_demands,
        visit_ratios,
        slo_response_time,
        max_instances,
        |trace, demand, ratio, per_visit, max_instances| {
            demand_curve_with_cache(cache, trace, demand, ratio, per_visit, max_instances)
        },
    )
}

/// The shared SLO-splitting loop behind [`demand_curves`] and
/// [`demand_curves_with_cache`].
fn derive_curves<C>(
    trace: &LoadTrace,
    service_demands: &[f64],
    visit_ratios: &[f64],
    slo_response_time: f64,
    max_instances: u32,
    curve: C,
) -> Vec<StepFn>
where
    C: Fn(&LoadTrace, f64, f64, f64, u32) -> StepFn,
{
    let ratios: Vec<f64> = (0..service_demands.len())
        .map(|i| visit_ratios.get(i).copied().unwrap_or(1.0).max(0.0))
        .collect();
    let total: f64 = service_demands
        .iter()
        .zip(&ratios)
        .map(|(d, v)| d.max(0.0) * v)
        .sum();
    service_demands
        .iter()
        .zip(&ratios)
        .map(|(&demand, &ratio)| {
            let share = if total > 0.0 {
                slo_response_time * (demand.max(0.0) * ratio) / total
            } else {
                slo_response_time
            };
            // Per-visit budget.
            let per_visit = if ratio > 0.0 { share / ratio } else { share };
            curve(trace, demand, ratio, per_visit, max_instances)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rates: Vec<f64>) -> LoadTrace {
        LoadTrace::new(60.0, rates).unwrap()
    }

    #[test]
    fn demand_tracks_load() {
        let curve = demand_curve(&trace(vec![10.0, 100.0, 10.0]), 0.1, 1.0, 0.25, 1000);
        let low = curve.value_at(30.0);
        let high = curve.value_at(90.0);
        let back = curve.value_at(150.0);
        assert!(high > low);
        assert_eq!(low, back);
        // At 100 req/s · 0.1 s at least 11 instances (stability) needed.
        assert!(high >= 11);
    }

    #[test]
    fn idle_trace_demands_one() {
        let curve = demand_curve(&trace(vec![0.0, 0.0]), 0.1, 1.0, 0.25, 100);
        assert_eq!(curve.value_at(0.0), 1);
    }

    #[test]
    fn infeasible_segments_pinned_at_max() {
        let curve = demand_curve(&trace(vec![10_000.0]), 0.1, 1.0, 0.25, 50);
        assert_eq!(curve.value_at(0.0), 50);
    }

    #[test]
    fn curves_for_paper_application() {
        let t = trace(vec![50.0, 120.0, 80.0]);
        let curves = demand_curves(&t, &[0.059, 0.1, 0.04], &[1.0, 1.0, 1.0], 0.5, 1000);
        assert_eq!(curves.len(), 3);
        // The validation tier (largest demand) needs the most instances.
        for time in [30.0, 90.0, 150.0] {
            assert!(curves[1].value_at(time) >= curves[0].value_at(time));
            assert!(curves[1].value_at(time) >= curves[2].value_at(time));
        }
    }

    #[test]
    fn demand_vector_meets_slo_analytically() {
        // Sized instance counts must satisfy the SLO analytically.
        let t = trace(vec![100.0]);
        let curves = demand_curves(&t, &[0.059, 0.1, 0.04], &[1.0, 1.0, 1.0], 0.5, 1000);
        let mut total_rt = 0.0;
        for (i, &d) in [0.059, 0.1, 0.04].iter().enumerate() {
            let n = curves[i].value_at(0.0);
            let q = chamulteon_queueing::MmnQueue::new(100.0, d, n).unwrap();
            total_rt += q.mean_response_time().unwrap();
        }
        assert!(total_rt <= 0.5, "end-to-end {total_rt}");
    }

    #[test]
    fn cached_curves_match_plain_curves() {
        let t = trace(vec![50.0, 120.0, 80.0, 120.0, 50.0]);
        let cache = chamulteon_queueing::CapacityCache::new();
        let plain = demand_curves(&t, &[0.059, 0.1, 0.04], &[1.0, 1.0, 1.0], 0.5, 1000);
        let cached =
            demand_curves_with_cache(&cache, &t, &[0.059, 0.1, 0.04], &[1.0, 1.0, 1.0], 0.5, 1000);
        for (p, c) in plain.iter().zip(&cached) {
            for time in [0.0, 60.0, 120.0, 180.0, 240.0] {
                assert_eq!(p.value_at(time), c.value_at(time));
            }
        }
        // Repeated rates hit the memo: 5 segments × 3 services = 15
        // lookups but only the distinct (rate, service) pairs miss.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 15);
        assert_eq!(stats.misses, 9);
    }

    #[test]
    fn visit_ratio_scales_demand() {
        let t = trace(vec![50.0]);
        let single = demand_curve(&t, 0.1, 1.0, 0.25, 1000).value_at(0.0);
        let double = demand_curve(&t, 0.1, 2.0, 0.25, 1000).value_at(0.0);
        assert!(double > single);
    }
}
