//! Integration tests for the future-work extensions (§VI): backpressure,
//! hybrid vertical scaling, and nested VM pools — each exercised
//! end-to-end against the simulator.

#![allow(clippy::unwrap_used, reason = "test code: panics are acceptable here")]
use chamulteon_repro::core::{
    hybrid_decisions, proactive_decisions, Chamulteon, ChamulteonConfig, NestedPlanner,
    VerticalPolicy,
};
use chamulteon_repro::demand::MonitoringSample;
use chamulteon_repro::perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_repro::sim::{
    DeploymentProfile, Simulation, SimulationConfig, SloPolicy, VmPoolConfig,
};
use chamulteon_repro::workload::LoadTrace;

fn sample_from_sim(
    sim: &Simulation,
    s: usize,
    stats: &chamulteon_repro::sim::ServiceIntervalStats,
) -> MonitoringSample {
    let provisioned = sim.provisioned(s).max(1);
    let util = (stats.utilization * f64::from(stats.instances_end.max(1)) / f64::from(provisioned))
        .clamp(0.0, 1.0);
    MonitoringSample::new(
        stats.duration,
        stats.arrivals,
        util,
        provisioned,
        stats.mean_response_time,
    )
    .unwrap()
    .with_completions(stats.completions)
}

#[test]
fn backpressure_saves_instance_time_at_hard_caps() {
    // Data tier capped at 4 instances (100 req/s); offered 400 req/s.
    let model = ApplicationModelBuilder::new()
        .service("ui", 0.059, 1, 200, 1)
        .service("validation", 0.1, 1, 200, 1)
        .service("data", 0.04, 1, 4, 1)
        .call("ui", "validation", 1.0)
        .call("validation", "data", 1.0)
        .entry("ui")
        .build()
        .unwrap();
    let plain = proactive_decisions(
        &model,
        400.0,
        &[0.059, 0.1, 0.04],
        &[1, 1, 1],
        &ChamulteonConfig::default(),
    );
    let aware = proactive_decisions(
        &model,
        400.0,
        &[0.059, 0.1, 0.04],
        &[1, 1, 1],
        &ChamulteonConfig::with_backpressure(),
    );
    let total = |v: &[u32]| v.iter().sum::<u32>();
    assert!(
        total(&aware) < total(&plain),
        "backpressure should save instances: {aware:?} vs {plain:?}"
    );
    // The throughput the application can deliver is unchanged: the data
    // tier is the binding constraint either way.
    assert_eq!(plain[2], 4);
    assert_eq!(aware[2], 4);
}

#[test]
fn hybrid_vertical_scaling_runs_end_to_end() {
    let model = ApplicationModel::paper_benchmark();
    let trace = LoadTrace::new(60.0, vec![150.0; 15]).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 71);
    let mut sim = Simulation::new(&model, &trace, config);
    // Warm start sized for the load: the test verifies that the hybrid
    // decisions *keep* the SLO while re-shaping the deployment onto the
    // cost-optimal size ladder (including scale-downs).
    for (s, n) in [(0usize, 20u32), (1, 30), (2, 12)] {
        sim.set_supply(s, n).unwrap();
    }
    let policy = VerticalPolicy::ec2_like();
    let cham_config = ChamulteonConfig::default();
    for k in 1..=15 {
        let t = k as f64 * 60.0;
        sim.run_until(t).unwrap();
        let stats = sim.interval(k - 1).unwrap();
        let rate = stats[0].arrivals as f64 / 60.0;
        let decisions = hybrid_decisions(&model, rate, &[0.059, 0.1, 0.04], &policy, &cham_config);
        for (s, d) in decisions.iter().enumerate() {
            sim.scale_to(s, d.instances).unwrap();
            sim.scale_vertical(s, policy.sizes()[d.size_index].speed)
                .unwrap();
        }
    }
    let result = sim.finish();
    assert!(
        result.slo_violation_percent() < 15.0,
        "hybrid sizing violated SLO {:.1}%",
        result.slo_violation_percent()
    );
}

#[test]
fn nested_planner_keeps_container_layer_fast() {
    let model = ApplicationModel::paper_benchmark();
    // Ramp that needs ~50 extra containers over 10 minutes.
    let rates: Vec<f64> = (0..25)
        .map(|k| 30.0 + 220.0 * ((k as f64 / 10.0).min(1.0)))
        .collect();
    let trace = LoadTrace::new(60.0, rates).unwrap();

    let run = |planner: Option<NestedPlanner>| -> (f64, usize) {
        let pool = VmPoolConfig::new(8, 300.0, 2);
        let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 72)
            .with_vm_pool(pool);
        let mut sim = Simulation::new(&model, &trace, config);
        for s in 0..3 {
            sim.set_supply(s, 2).unwrap();
        }
        let mut scaler = Chamulteon::new(model.clone(), ChamulteonConfig::reactive_only());
        let mut max_waiting = 0;
        for k in 1..=25 {
            let t = k as f64 * 60.0;
            sim.run_until(t).unwrap();
            let stats = sim.interval(k - 1).unwrap();
            let samples: Vec<MonitoringSample> = stats
                .iter()
                .enumerate()
                .map(|(s, st)| sample_from_sim(&sim, s, st))
                .collect();
            let targets = scaler.tick(t, &samples);
            if let Some(p) = &planner {
                sim.scale_vms(p.plan(&targets, None)).unwrap();
            }
            for (s, &target) in targets.iter().enumerate() {
                sim.scale_to(s, target).unwrap();
            }
            max_waiting = max_waiting.max(sim.waiting_containers().unwrap_or(0));
        }
        let result = sim.finish();
        (result.slo_violation_percent(), max_waiting)
    };

    let (slo_unplanned, stalls_unplanned) = run(None);
    let (slo_planned, stalls_planned) = run(Some(NestedPlanner::new(8, 24)));
    assert!(
        slo_planned < slo_unplanned,
        "planned {slo_planned:.1}% vs unplanned {slo_unplanned:.1}%"
    );
    assert!(stalls_planned < stalls_unplanned);
}

#[test]
fn vertical_and_horizontal_equivalent_capacity_equivalent_slo() {
    // 2x-speed instances at half the count serve like 1x at full count.
    let model = ApplicationModel::paper_benchmark();
    let trace = LoadTrace::new(60.0, vec![100.0; 10]).unwrap();
    let run = |counts: [u32; 3], speed: f64| {
        let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 73);
        let mut sim = Simulation::new(&model, &trace, config);
        for (s, &n) in counts.iter().enumerate() {
            sim.set_supply(s, n).unwrap();
            sim.scale_vertical(s, speed).unwrap();
        }
        sim.run_to_end().slo_violation_percent()
    };
    let horizontal = run([10, 17, 7], 1.0);
    let vertical = run([5, 9, 4], 2.0);
    assert!(
        (horizontal - vertical).abs() < 6.0,
        "horizontal {horizontal:.1}% vs vertical {vertical:.1}%"
    );
}
