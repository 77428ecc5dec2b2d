//! Hybrid vertical + horizontal scaling — the paper's first future-work
//! item (§VI): "The vertical scaling could be combined with horizontal
//! scaling, where a decision logic can evaluate which scaling direction is
//! more efficient. Therefore, a separate cost function needs to be added."
//!
//! This module supplies exactly those two pieces:
//!
//! * [`InstanceSize`] / [`VerticalPolicy`] — the discrete instance-size
//!   ladder of a cloud provider with its **cost function** (price per
//!   size, typically sublinear or superlinear in speed, plus a fixed
//!   per-instance overhead for memory/daemons that makes a few big
//!   instances beat many small ones at equal total speed),
//! * [`HybridDecision`] / [`VerticalPolicy::decide`] — the decision logic:
//!   for a required service rate, enumerate the ladder, compute the
//!   instance count each size needs, and pick the cheapest feasible
//!   combination.
//!
//! The simulator supports the vertical knob via
//! `chamulteon_sim::Simulation::scale_vertical`; see the
//! `hybrid_scaling` example for the end-to-end loop.

use crate::config::ChamulteonConfig;
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::saturating_f64_to_u32;

/// One rung of a provider's instance-size ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSize {
    /// Display name, e.g. `"m.large"`.
    pub name: String,
    /// Speed multiplier relative to the nominal (1.0) size: an instance of
    /// this size processes requests `speed` times faster.
    pub speed: f64,
    /// Cost per instance-hour in arbitrary currency units.
    pub cost_per_hour: f64,
}

/// The instance ladder plus the fixed per-instance overhead cost that the
/// decision logic weighs horizontal against vertical scaling with.
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalPolicy {
    sizes: Vec<InstanceSize>,
    overhead_per_instance_hour: f64,
}

/// One hybrid scaling decision: how many instances of which size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridDecision {
    /// Number of instances.
    pub instances: u32,
    /// Index into the policy's size ladder.
    pub size_index: usize,
    /// The decision's cost per hour under the policy.
    pub cost_per_hour: f64,
}

impl VerticalPolicy {
    /// Creates a policy from an instance ladder and a per-instance fixed
    /// overhead (≥ 0, cost units per instance-hour). Sizes with
    /// non-positive speed or cost are dropped; an empty ladder falls back
    /// to a single nominal size of cost 1.
    pub fn new(sizes: Vec<InstanceSize>, overhead_per_instance_hour: f64) -> Self {
        let mut sizes: Vec<InstanceSize> = sizes
            .into_iter()
            .filter(|s| s.speed > 0.0 && s.speed.is_finite() && s.cost_per_hour > 0.0)
            .collect();
        if sizes.is_empty() {
            sizes.push(InstanceSize {
                name: "nominal".into(),
                speed: 1.0,
                cost_per_hour: 1.0,
            });
        }
        VerticalPolicy {
            sizes,
            overhead_per_instance_hour: overhead_per_instance_hour.max(0.0),
        }
    }

    /// An EC2-like ladder: each doubling of speed costs slightly less than
    /// 2× (economies of scale), with a noticeable per-instance overhead.
    pub fn ec2_like() -> Self {
        VerticalPolicy::new(
            vec![
                InstanceSize {
                    name: "small".into(),
                    speed: 1.0,
                    cost_per_hour: 1.0,
                },
                InstanceSize {
                    name: "large".into(),
                    speed: 2.0,
                    cost_per_hour: 1.9,
                },
                InstanceSize {
                    name: "xlarge".into(),
                    speed: 4.0,
                    cost_per_hour: 3.7,
                },
            ],
            0.15,
        )
    }

    /// The size ladder.
    pub fn sizes(&self) -> &[InstanceSize] {
        &self.sizes
    }

    /// The decision logic: the cheapest `(instances, size)` combination
    /// whose total capacity `n·speed/demand` serves `arrival_rate` at the
    /// target utilization, with `n` within `[min_instances,
    /// max_instances]`.
    ///
    /// When no size fits within `max_instances`, the largest size at
    /// `max_instances` is returned (the best infeasible effort, mirroring
    /// Algorithm 1's clamping).
    pub fn decide(
        &self,
        arrival_rate: f64,
        service_demand: f64,
        target_utilization: f64,
        min_instances: u32,
        max_instances: u32,
    ) -> HybridDecision {
        let target = if target_utilization.is_finite() && target_utilization > 0.0 {
            target_utilization.min(1.0)
        } else {
            1.0
        };
        let load = arrival_rate.max(0.0) * service_demand.max(0.0) / target;
        let mut best: Option<HybridDecision> = None;
        for (idx, size) in self.sizes.iter().enumerate() {
            let raw = load / size.speed;
            let snapped = if (raw - raw.round()).abs() < 1e-9 {
                raw.round()
            } else {
                raw.ceil()
            };
            let needed = saturating_f64_to_u32(snapped).max(1);
            let n = needed.clamp(min_instances.max(1), max_instances.max(1));
            let feasible = needed <= max_instances.max(1);
            let cost = f64::from(n) * (size.cost_per_hour + self.overhead_per_instance_hour);
            let candidate = HybridDecision {
                instances: n,
                size_index: idx,
                cost_per_hour: cost,
            };
            best = match best {
                None => Some(candidate),
                Some(b) => {
                    let b_feasible = self.is_feasible(&b, load, max_instances);
                    let better = match (feasible, b_feasible) {
                        (true, false) => true,
                        (false, true) => false,
                        // Both feasible: cheaper wins, then fewer instances.
                        (true, true) => {
                            cost < b.cost_per_hour - 1e-12
                                || ((cost - b.cost_per_hour).abs() <= 1e-12 && n < b.instances)
                        }
                        // Both infeasible: more capacity wins.
                        (false, false) => self.capacity(&candidate) > self.capacity(&b),
                    };
                    Some(if better { candidate } else { b })
                }
            };
        }
        // The constructor guarantees a non-empty ladder, so `best` is
        // always set; the fallback keeps the path panic-free regardless.
        best.unwrap_or(HybridDecision {
            instances: min_instances.max(1),
            size_index: 0,
            cost_per_hour: 0.0,
        })
    }

    /// Total speed units a decision provides.
    fn capacity(&self, d: &HybridDecision) -> f64 {
        f64::from(d.instances) * self.sizes[d.size_index].speed
    }

    fn is_feasible(&self, d: &HybridDecision, load: f64, max_instances: u32) -> bool {
        d.instances <= max_instances.max(1) && self.capacity(d) + 1e-9 >= load
    }
}

/// Hybrid counterpart of
/// [`proactive_decisions`](crate::algorithm::proactive_decisions): walks
/// the invocation graph in topological order, choosing an
/// (instances, size) pair per service and forwarding each tier's
/// post-decision capacity downstream.
pub fn hybrid_decisions(
    model: &ApplicationModel,
    entry_rate: f64,
    estimated_demands: &[f64],
    policy: &VerticalPolicy,
    config: &ChamulteonConfig,
) -> Vec<HybridDecision> {
    let n = model.service_count();
    let demands: Vec<f64> = (0..n)
        .map(|i| {
            estimated_demands
                .get(i)
                .copied()
                .filter(|d| d.is_finite() && *d > 0.0)
                .unwrap_or_else(|| model.service(i).nominal_demand())
        })
        .collect();
    // A validated model is acyclic; fall back to index order if a cycle
    // ever slips through so every service still receives a decision.
    let order = model
        .graph()
        .topological_order()
        .unwrap_or_else(|| (0..n).collect());
    let mut offered = vec![0.0; n];
    offered[model.entry()] = entry_rate.max(0.0);
    let mut out = vec![
        HybridDecision {
            instances: 1,
            size_index: 0,
            cost_per_hour: 0.0,
        };
        n
    ];
    for &node in &order {
        let spec = model.service(node);
        let decision = policy.decide(
            offered[node],
            demands[node],
            config.rho_target,
            spec.min_instances(),
            spec.max_instances(),
        );
        let capacity = f64::from(decision.instances) * policy.sizes()[decision.size_index].speed
            / demands[node];
        let completed = offered[node].min(capacity);
        for &(to, multiplicity) in model.graph().calls_from(node) {
            offered[to] += completed * multiplicity;
        }
        out[node] = decision;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_or_invalid_ladder_falls_back() {
        let p = VerticalPolicy::new(vec![], 0.0);
        assert_eq!(p.sizes().len(), 1);
        let p = VerticalPolicy::new(
            vec![InstanceSize {
                name: "bad".into(),
                speed: 0.0,
                cost_per_hour: 1.0,
            }],
            0.0,
        );
        assert_eq!(p.sizes().len(), 1);
        assert_eq!(p.sizes()[0].name, "nominal");
    }

    #[test]
    fn cheap_big_instances_win_with_overhead() {
        // EC2-like: big instances are per-speed-unit cheaper AND avoid
        // per-instance overhead — vertical wins at meaningful load.
        let p = VerticalPolicy::ec2_like();
        let d = p.decide(100.0, 0.1, 0.8, 1, 1000);
        // 100·0.1/0.8 = 12.5 speed units: small => 13·1.15 = 14.95,
        // large => 7·2.05 = 14.35, xlarge => 4·3.85 = 15.40.
        assert_eq!(p.sizes()[d.size_index].name, "large");
        assert_eq!(d.instances, 7);
    }

    #[test]
    fn instance_limit_forces_vertical() {
        // A cap of 5 instances forces bigger sizes at high load.
        let p = VerticalPolicy::ec2_like();
        let d = p.decide(100.0, 0.1, 0.8, 1, 5);
        assert!(p.sizes()[d.size_index].speed > 1.0, "chose {:?}", d);
        // Capacity must cover the load: n·speed ≥ 12.5.
        assert!(f64::from(d.instances) * p.sizes()[d.size_index].speed >= 12.5);
    }

    #[test]
    fn infeasible_load_returns_biggest_effort() {
        let p = VerticalPolicy::ec2_like();
        let d = p.decide(10_000.0, 0.1, 0.8, 1, 3);
        assert_eq!(d.instances, 3);
        // Picks the largest size when nothing fits.
        assert_eq!(p.sizes()[d.size_index].name, "xlarge");
    }

    #[test]
    fn idle_service_gets_one_small_instance() {
        let p = VerticalPolicy::ec2_like();
        let d = p.decide(0.0, 0.1, 0.8, 1, 100);
        assert_eq!(d.instances, 1);
        assert_eq!(p.sizes()[d.size_index].speed, 1.0);
    }

    #[test]
    fn min_instances_respected() {
        let p = VerticalPolicy::ec2_like();
        let d = p.decide(0.0, 0.1, 0.8, 3, 100);
        assert_eq!(d.instances, 3);
    }

    #[test]
    fn cost_accounts_for_overhead() {
        let p = VerticalPolicy::new(
            vec![InstanceSize {
                name: "s".into(),
                speed: 1.0,
                cost_per_hour: 1.0,
            }],
            0.5,
        );
        let d = p.decide(40.0, 0.1, 0.8, 1, 100);
        assert_eq!(d.instances, 5);
        assert!((d.cost_per_hour - 5.0 * 1.5).abs() < 1e-12);
    }

    #[test]
    fn hybrid_decisions_cover_the_chain() {
        let model = ApplicationModel::paper_benchmark();
        let policy = VerticalPolicy::ec2_like();
        let config = ChamulteonConfig::default();
        let decisions = hybrid_decisions(&model, 200.0, &[0.059, 0.1, 0.04], &policy, &config);
        assert_eq!(decisions.len(), 3);
        // Every tier's capacity covers 200 req/s at the target utilization.
        for (i, d) in decisions.iter().enumerate() {
            let demand = [0.059, 0.1, 0.04][i];
            let capacity = f64::from(d.instances) * policy.sizes()[d.size_index].speed / demand;
            assert!(
                capacity * config.rho_target >= 200.0 * 0.99,
                "tier {i}: capacity {capacity}"
            );
        }
    }

    #[test]
    fn hybrid_cheaper_than_pure_horizontal_on_ec2_ladder() {
        let model = ApplicationModel::paper_benchmark();
        let config = ChamulteonConfig::default();
        let ladder = VerticalPolicy::ec2_like();
        // Pure horizontal = the same ladder restricted to the small size.
        let horizontal_only = VerticalPolicy::new(vec![ladder.sizes()[0].clone()], 0.15);
        let hybrid = hybrid_decisions(&model, 300.0, &[0.059, 0.1, 0.04], &ladder, &config);
        let horizontal = hybrid_decisions(
            &model,
            300.0,
            &[0.059, 0.1, 0.04],
            &horizontal_only,
            &config,
        );
        let cost = |ds: &[HybridDecision]| ds.iter().map(|d| d.cost_per_hour).sum::<f64>();
        assert!(
            cost(&hybrid) < cost(&horizontal),
            "hybrid {} vs horizontal {}",
            cost(&hybrid),
            cost(&horizontal)
        );
    }
}
