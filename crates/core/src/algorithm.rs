//! Algorithm 1 of the paper: the queueing-theoretic decision logic.

use crate::config::ChamulteonConfig;
use chamulteon_obs::Sizing;
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::min_instances_for_utilization;

/// Sizes one service for an offered arrival rate — the while-loops of
/// Algorithm 1 in closed form.
///
/// If the utilization `ρ = λ·D/n` at the current `n` breaches `ρ_upper`,
/// grow to the smallest `n` with `ρ ≤ ρ_target`; if it undershoots
/// `ρ_lower`, shrink likewise; otherwise keep `n`. The result is clamped
/// into the service's `[min, max]` bounds (lines 10 and 14).
pub fn size_service(
    arrival_rate: f64,
    service_demand: f64,
    current: u32,
    min_instances: u32,
    max_instances: u32,
    config: &ChamulteonConfig,
) -> u32 {
    sized(
        arrival_rate,
        service_demand,
        current,
        min_instances,
        max_instances,
        config,
    )
    .0
}

/// [`size_service`] that also reports whether the utilization left the
/// hold band (`Solved`) or the current count was kept (`Held`).
fn sized(
    arrival_rate: f64,
    service_demand: f64,
    current: u32,
    min_instances: u32,
    max_instances: u32,
    config: &ChamulteonConfig,
) -> (u32, Sizing) {
    let current = current.max(1);
    let rate = arrival_rate.max(0.0);
    let demand = service_demand.max(0.0);
    let (desired, sizing) = if outside_hold_band(
        rate * demand,
        f64::from(current),
        config.rho_upper,
        config.rho_lower,
    ) {
        (
            min_instances_for_utilization(rate, demand, config.rho_target),
            Sizing::Solved,
        )
    } else {
        (current, Sizing::Held)
    };
    (desired.clamp(min_instances, max_instances), sizing)
}

/// The hold-band decision of [`size_service`] —
/// `ρ ≥ ρ_upper || ρ < ρ_lower` with `ρ = load / current` — computed
/// without the division in the common case.
///
/// The division only exists to compare against the two thresholds, so the
/// comparisons are first attempted multiplicatively against guard-banded
/// products `ρ_bound · current`: one rounded multiplication and one
/// rounded division each introduce at most 1 ulp of relative error, so a
/// 16-ulp guard band is conservatively wide — any `load` beyond it is
/// provably on the same side under both formulations. Only a `load`
/// inside the ~16-ulp borderline region (or a degenerate configuration:
/// non-positive, non-finite, or extreme-magnitude thresholds, where the
/// relative-error argument breaks down) falls back to the exact division.
/// The returned decision is therefore **bit-identical** to the division
/// form for every input; an `fdiv` per service per tick is simply skipped
/// almost always.
#[inline]
fn outside_hold_band(load: f64, current: f64, rho_upper: f64, rho_lower: f64) -> bool {
    // One-sided guard factors, exactly representable.
    const UP: f64 = 1.0 + 16.0 * f64::EPSILON;
    const DOWN: f64 = 1.0 - 16.0 * f64::EPSILON;
    let hi = rho_upper * current;
    let lo = rho_lower * current;
    // The relative-error bound needs both products comfortably inside the
    // normal range; `current` is at least 1 and at most 2^32, so for sane
    // utilization bounds this guard always passes.
    if hi > 1e-300 && hi < 1e300 && (lo == 0.0 || (lo > 1e-300 && lo < 1e300)) {
        if load >= hi * UP || (lo > 0.0 && load < lo * DOWN) {
            return true; // provably ρ ≥ upper, or provably ρ < lower
        }
        // `lo == 0.0` holds trivially: ρ = load/current ≥ 0 = ρ_lower.
        if load <= hi * DOWN && (lo == 0.0 || load >= lo * UP) {
            return false; // provably inside the band
        }
    }
    let rho = load / current;
    rho >= rho_upper || rho < rho_lower
}

/// The full proactive decision pass (Algorithm 1) for one point in time:
/// takes the forecast arrival rate at the user-facing service, estimates
/// the per-service arrival rates along the invocation graph
/// (`estimateArrivals`, line 5 — capacity-throttled by the *decided*
/// instance counts of predecessor services so that succeeding services are
/// scaled **with** their predecessors), and sizes every service.
///
/// Returns the target instance count per service.
///
/// The crucial coordination property: because predecessors are sized
/// *first* and the rate forwarded downstream uses their **new** capacity,
/// a scale-up at the entry immediately triggers matching scale-ups
/// downstream in the same decision round — "scaling can be triggered
/// earlier on succeeding services. This approach allows removing
/// oscillations" (§III-A).
pub fn proactive_decisions(
    model: &ApplicationModel,
    forecast_entry_rate: f64,
    estimated_demands: &[f64],
    current_instances: &[u32],
    config: &ChamulteonConfig,
) -> Vec<u32> {
    walk(
        model,
        forecast_entry_rate,
        estimated_demands,
        current_instances,
        config,
        None,
    )
}

/// Per-service sizing context of one [`walk`], for decision provenance:
/// the offered rate each service was sized for and whether its count was
/// held or re-solved. Indexed by service.
#[derive(Debug, Default)]
pub(crate) struct SizingTrace {
    /// The offered (predecessor-forwarded) arrival rate at sizing time.
    pub(crate) offered: Vec<f64>,
    /// The hold-band verdict of each service's sizing step.
    pub(crate) sizing: Vec<Sizing>,
}

/// The one implementation of Algorithm 1 behind [`proactive_decisions`]
/// and the controller's reactive pass.
///
/// Walks the invocation graph in its stored canonical topological order,
/// sizing each service for the rate its *already-sized* predecessors
/// forward, then runs the backpressure epilogue. With `trace`, each
/// service's offered rate and hold-band verdict are recorded
/// (backpressure re-sizing is not recorded: the trace reflects the
/// coordinated pass). Tracing costs one branch per service and never
/// changes a target.
pub(crate) fn walk(
    model: &ApplicationModel,
    forecast_entry_rate: f64,
    estimated_demands: &[f64],
    current_instances: &[u32],
    config: &ChamulteonConfig,
    mut trace: Option<&mut SizingTrace>,
) -> Vec<u32> {
    let services = model.services();
    let n = services.len();
    let demands: Vec<f64> = services
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            estimated_demands
                .get(i)
                .copied()
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or_else(|| spec.nominal_demand())
        })
        .collect();
    let mut targets: Vec<u32> = services
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            current_instances
                .get(i)
                .copied()
                .unwrap_or_else(|| spec.initial_instances())
                .max(1)
        })
        .collect();
    if let Some(trace) = trace.as_deref_mut() {
        trace.sizing.clear();
        trace.sizing.resize(n, Sizing::Held);
    }

    let graph = model.graph();
    let mut offered = vec![0.0; n];
    offered[model.entry()] = forecast_entry_rate.max(0.0);
    for &node in graph.topological_order() {
        let spec = &services[node];
        let (target, sizing) = sized(
            offered[node],
            demands[node],
            targets[node],
            spec.min_instances(),
            spec.max_instances(),
            config,
        );
        targets[node] = target;
        if let Some(trace) = trace.as_deref_mut() {
            trace.sizing[node] = sizing;
        }
        // Forward at most what the newly sized deployment can complete.
        let capacity = f64::from(target) / demands[node];
        let completed = offered[node].min(capacity);
        for &(to, multiplicity) in graph.calls_from(node) {
            offered[to] += completed * multiplicity;
        }
    }
    // A service's offered rate is final once it is sized: only its
    // successors' rates change afterwards.
    if let Some(trace) = trace {
        trace.offered = offered;
    }

    if config.backpressure_enabled {
        apply_backpressure(model, forecast_entry_rate, &demands, &mut targets, config);
    }
    targets
}

/// The return-path extension (§VI, second future-work item): when some
/// service is pinned at its `max_instances` and cannot serve the offered
/// rate, requests only queue behind it — provisioning upstream services for
/// the full rate wastes instance time. This pass computes the *achievable*
/// end-to-end rate (the smallest `capacity/visit_ratio` over all capped
/// bottlenecks) and re-sizes every service for that rate instead.
///
/// A no-op when no service is capped below its offered load.
fn apply_backpressure(
    model: &ApplicationModel,
    entry_rate: f64,
    demands: &[f64],
    targets: &mut [u32],
    config: &ChamulteonConfig,
) {
    let ratios = model.visit_ratios();
    // Achievable external rate per service: its saturated max capacity
    // translated back to external-request units.
    let mut achievable = entry_rate.max(0.0);
    let mut bottlenecked = false;
    for (i, spec) in model.services().iter().enumerate() {
        if ratios[i] <= 0.0 {
            continue;
        }
        let offered_local = entry_rate.max(0.0) * ratios[i];
        let max_capacity = f64::from(spec.max_instances()) / demands[i];
        // Only a service that is *pinned at its maximum* and still short
        // exerts backpressure; anything below max can be scaled instead.
        if targets[i] == spec.max_instances() && offered_local > max_capacity * config.rho_upper {
            achievable = achievable.min(max_capacity * config.rho_target / ratios[i]);
            bottlenecked = true;
        }
    }
    if !bottlenecked || achievable >= entry_rate {
        return;
    }
    // Re-size everything for the achievable rate (the bottleneck itself
    // stays at max).
    for (i, spec) in model.services().iter().enumerate() {
        let local = achievable * ratios[i];
        let resized = size_service(
            local,
            demands[i],
            targets[i],
            spec.min_instances(),
            spec.max_instances(),
            config,
        );
        targets[i] = targets[i].min(resized.max(spec.min_instances()));
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
    use chamulteon_perfmodel::ApplicationModel;

    fn config() -> ChamulteonConfig {
        ChamulteonConfig::default()
    }

    #[test]
    fn size_service_scales_up_over_threshold() {
        // ρ = 20·0.1/2 = 1.0 ≥ 0.75 => ceil(2.0/0.6) = 4.
        assert_eq!(size_service(20.0, 0.1, 2, 1, 100, &config()), 4);
    }

    #[test]
    fn size_service_scales_down_under_threshold() {
        // ρ = 2·0.1/10 = 0.02 < 0.45 => ceil(0.2/0.6) = 1.
        assert_eq!(size_service(2.0, 0.1, 10, 1, 100, &config()), 1);
    }

    #[test]
    fn size_service_holds_inside_band() {
        // ρ = 12·0.1/2 = 0.6: inside [0.45, 0.75).
        assert_eq!(size_service(12.0, 0.1, 2, 1, 100, &config()), 2);
    }

    #[test]
    fn size_service_respects_bounds() {
        // Wants 4, capped at 3.
        assert_eq!(size_service(20.0, 0.1, 2, 1, 3, &config()), 3);
        // Wants 1, floored at 2.
        assert_eq!(size_service(0.0, 0.1, 10, 2, 100, &config()), 2);
    }

    #[test]
    fn size_service_result_is_inside_band_when_feasible() {
        for &rate in &[5.0, 17.0, 44.0, 123.0, 999.0] {
            let n = size_service(rate, 0.1, 1, 1, 10_000, &config());
            let rho = rate * 0.1 / f64::from(n);
            assert!(rho <= config().rho_target + 1e-9, "rate {rate}: rho {rho}");
        }
    }

    #[test]
    fn coordinated_scaling_sizes_all_tiers_together() {
        let model = ApplicationModel::paper_benchmark();
        // Forecast 100 req/s on a cold 1/1/1 deployment.
        let targets =
            proactive_decisions(&model, 100.0, &[0.059, 0.1, 0.04], &[1, 1, 1], &config());
        // Every tier sized for the full 100 req/s in ONE round:
        // ui: ceil(5.9/0.6)=10, validation: ceil(10/0.6)=17, data: ceil(4/0.6)=7.
        assert_eq!(targets, vec![10, 17, 7]);
    }

    #[test]
    fn no_bottleneck_shifting_in_decisions() {
        // Contrast with the baselines: downstream tiers are NOT throttled
        // to the old upstream capacity (1/0.059 ≈ 17 req/s) but sized for
        // the post-scaling flow.
        let model = ApplicationModel::paper_benchmark();
        let targets =
            proactive_decisions(&model, 100.0, &[0.059, 0.1, 0.04], &[1, 1, 1], &config());
        // If shifting occurred, validation would be sized for ~17 req/s
        // (ceil(1.7/0.6) = 3); it must instead be sized for ~100 req/s.
        assert!(targets[1] >= 17);
    }

    #[test]
    fn overloaded_cap_throttles_downstream() {
        // Entry capped at max 2 instances => completes ≈ 2/0.059 = 33.9;
        // downstream sized for 33.9, not 1000.
        let model = chamulteon_perfmodel::ApplicationModelBuilder::new()
            .service("ui", 0.059, 1, 2, 1)
            .service("validation", 0.1, 1, 200, 1)
            .call("ui", "validation", 1.0)
            .entry("ui")
            .build()
            .unwrap();
        let targets = proactive_decisions(&model, 1000.0, &[0.059, 0.1], &[1, 1], &config());
        assert_eq!(targets[0], 2);
        let expected_val = ((2.0 / 0.059) * 0.1 / 0.6_f64).ceil() as u32;
        assert_eq!(targets[1], expected_val);
    }

    #[test]
    fn backpressure_shrinks_upstream_of_capped_bottleneck() {
        // Data tier capped at 3 instances (75 req/s max); 1000 req/s
        // offered. Without backpressure the UI and validation tiers are
        // sized for the full 1000 req/s they can never usefully serve.
        let model = chamulteon_perfmodel::ApplicationModelBuilder::new()
            .service("ui", 0.059, 1, 500, 1)
            .service("validation", 0.1, 1, 500, 1)
            .service("data", 0.04, 1, 3, 1)
            .call("ui", "validation", 1.0)
            .call("validation", "data", 1.0)
            .entry("ui")
            .build()
            .unwrap();
        let plain = proactive_decisions(
            &model,
            1000.0,
            &[0.059, 0.1, 0.04],
            &[1, 1, 1],
            &ChamulteonConfig::default(),
        );
        let aware = proactive_decisions(
            &model,
            1000.0,
            &[0.059, 0.1, 0.04],
            &[1, 1, 1],
            &ChamulteonConfig::with_backpressure(),
        );
        assert_eq!(plain[2], 3);
        assert_eq!(aware[2], 3);
        // Upstream tiers shrink to the bottleneck's achievable rate
        // (3/0.04 · 0.6 = 45 req/s): ui ceil(45·0.059/0.6) = 5.
        assert!(aware[0] < plain[0], "{aware:?} vs {plain:?}");
        assert!(aware[1] < plain[1]);
        assert_eq!(aware[0], 5);
        assert_eq!(aware[1], 8);
    }

    #[test]
    fn backpressure_is_noop_without_capped_bottleneck() {
        let model = ApplicationModel::paper_benchmark();
        let plain = proactive_decisions(
            &model,
            100.0,
            &[0.059, 0.1, 0.04],
            &[1, 1, 1],
            &ChamulteonConfig::default(),
        );
        let aware = proactive_decisions(
            &model,
            100.0,
            &[0.059, 0.1, 0.04],
            &[1, 1, 1],
            &ChamulteonConfig::with_backpressure(),
        );
        assert_eq!(plain, aware);
    }

    #[test]
    fn backpressure_never_violates_min_instances() {
        let model = chamulteon_perfmodel::ApplicationModelBuilder::new()
            .service("a", 0.1, 4, 100, 4)
            .service("b", 0.1, 1, 2, 1)
            .call("a", "b", 1.0)
            .entry("a")
            .build()
            .unwrap();
        let aware = proactive_decisions(
            &model,
            500.0,
            &[0.1, 0.1],
            &[4, 1],
            &ChamulteonConfig::with_backpressure(),
        );
        assert!(aware[0] >= 4);
        assert_eq!(aware[1], 2);
    }

    #[test]
    fn traced_walk_matches_untraced_and_captures_offered_rates() {
        let model = ApplicationModel::paper_benchmark();
        let mut trace = SizingTrace::default();
        for &rate in &[0.0, 1.0, 33.9, 100.0, 123.456, 999.0] {
            let plain =
                proactive_decisions(&model, rate, &[0.059, 0.1, 0.04], &[1, 1, 1], &config());
            let traced = walk(
                &model,
                rate,
                &[0.059, 0.1, 0.04],
                &[1, 1, 1],
                &config(),
                Some(&mut trace),
            );
            assert_eq!(plain, traced, "rate {rate}");
            assert_eq!(trace.offered.len(), 3);
            assert_eq!(trace.sizing.len(), 3);
            // The entry's offered rate is the forecast rate itself.
            assert_eq!(trace.offered[model.entry()], rate.max(0.0));
        }
    }

    #[test]
    fn trace_marks_solved_exactly_outside_hold_band() {
        let model = ApplicationModel::paper_benchmark();
        let demands = [0.059, 0.1, 0.04];
        let current = [10, 17, 7];
        let cfg = config();
        // 100 req/s leaves every tier inside [0.45, 0.75); 200 req/s
        // pushes every tier above ρ_upper.
        for (rate, expected) in [(100.0, Sizing::Held), (200.0, Sizing::Solved)] {
            let mut trace = SizingTrace::default();
            let targets = walk(&model, rate, &demands, &current, &cfg, Some(&mut trace));
            for service in 0..3 {
                let rho = trace.offered[service] * demands[service] / f64::from(current[service]);
                let outside = rho >= cfg.rho_upper || rho < cfg.rho_lower;
                let verdict = if outside {
                    Sizing::Solved
                } else {
                    Sizing::Held
                };
                assert_eq!(trace.sizing[service], verdict, "rate {rate} s{service}");
                assert_eq!(verdict, expected, "rate {rate} s{service} (ρ {rho})");
            }
            if expected == Sizing::Held {
                assert_eq!(targets, current.to_vec());
            }
        }
    }

    #[test]
    fn idle_forecast_scales_down_everything() {
        let model = ApplicationModel::paper_benchmark();
        let targets =
            proactive_decisions(&model, 0.0, &[0.059, 0.1, 0.04], &[50, 80, 30], &config());
        assert_eq!(targets, vec![1, 1, 1]);
    }

    #[test]
    fn missing_inputs_fall_back_to_model() {
        let model = ApplicationModel::paper_benchmark();
        let targets = proactive_decisions(&model, 50.0, &[], &[], &config());
        assert_eq!(targets.len(), 3);
        assert!(targets.iter().all(|&t| t >= 1));
    }
}
