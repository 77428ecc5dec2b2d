//! Golden digests of every run that drives the simulator.
//!
//! Each digest is FNV-1a over the bit-faithful `Debug` rendering of a
//! run's outputs (`f64` renders as its shortest round-trip form, so two
//! renderings agree exactly when the bits do), the same scheme as
//! `algorithm1_golden.rs`. A change to the simulation engine must leave
//! every digest unchanged:
//!
//! * `run_experiment` for each lineup scaler on the smoke setup, and
//!   Chamulteon on Tables III–V,
//! * the evaluation grid on the smoke setup: the lineup plus the
//!   clean-vs-faulted robustness lineup under every fault class,
//! * a checkpoint-recovered run under controller crashes,
//! * the multi-tenant smoke scenario under each arbitration policy,
//! * the simulator-only paths: the nested VM pool driven by a reactive
//!   controller with and without the pool planner, vertical scaling, the
//!   pure and hybrid des-scale mini cases, and an hour of the
//!   production-scale hybrid day.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use chamulteon::{ArbitrationPolicy, Chamulteon, ChamulteonConfig, NestedPlanner, RetryPolicy};
use chamulteon_bench::des_scale::headline_case;
use chamulteon_bench::robustness::FaultClass;
use chamulteon_bench::setups::{bibsonomy_large, bibsonomy_small, smoke_test, wikipedia_vm};
use chamulteon_bench::{
    robustness_lineup, run_des_scale_case, run_experiment, run_experiment_recovered, run_lineup,
    run_multi_tenant, DesScaleCase, MultiTenantSpec, ScalerKind,
};
use chamulteon_demand::MonitoringSample;
use chamulteon_obs::Obs;
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_sim::{
    DeploymentProfile, HybridConfig, RecoveryPolicy, Simulation, SimulationConfig, SloPolicy,
    VmPoolConfig,
};
use chamulteon_workload::LoadTrace;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_bytes(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    let mut digest = FNV_OFFSET;
    fnv_bytes(&mut digest, format!("{value:?}").as_bytes());
    digest
}

#[test]
fn lineup_on_the_smoke_setup_reproduces_its_digests() {
    let spec = smoke_test();
    let got: Vec<u64> = ScalerKind::paper_lineup()
        .into_iter()
        .map(|kind| digest_debug(&run_experiment(&spec, kind)))
        .collect();
    assert_eq!(
        got,
        vec![
            0x0014_be39_be65_ac74,
            0x7b89_de51_a9ab_c9d7,
            0x7248_a5bf_6b8f_37cc,
            0xeaa9_bf7c_c03e_e6e6,
            0x4891_1c3c_b852_4c84,
        ],
        "lineup digests changed: {got:#018x?}"
    );
}

#[test]
fn chamulteon_on_tables_three_to_five_reproduces_its_digests() {
    let got: Vec<u64> = [wikipedia_vm(), bibsonomy_small(), bibsonomy_large()]
        .iter()
        .map(|spec| digest_debug(&run_experiment(spec, ScalerKind::Chamulteon)))
        .collect();
    assert_eq!(
        got,
        vec![
            0xca03_f504_5733_d8fc,
            0xa93c_63e4_1774_80d0,
            0xdb8f_4a8b_c164_c58f,
        ],
        "Table III–V digests changed: {got:#018x?}"
    );
}

#[test]
fn evaluation_grid_reproduces_its_digest() {
    // The text the former `EvaluationGrid`'s derived `Debug` printed: the
    // lineup reports, then one robustness lineup per fault class.
    let spec = smoke_test();
    let retry = RetryPolicy::default();
    let robustness: Vec<_> = FaultClass::ALL
        .iter()
        .map(|&class| robustness_lineup(&spec, class, &retry))
        .collect();
    let text = format!(
        "EvaluationGrid {{ lineup: {:?}, robustness: {:?} }}",
        run_lineup(&spec),
        robustness
    );
    let mut got = FNV_OFFSET;
    fnv_bytes(&mut got, text.as_bytes());
    assert_eq!(
        got, 0xa8e8_769f_cb2a_8d87,
        "grid digest changed: {got:#018x}"
    );
}

#[test]
fn checkpoint_recovery_reproduces_its_digest() {
    let spec = smoke_test();
    let plan =
        FaultClass::ControllerCrashes.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let run = run_experiment_recovered(
        &spec,
        ScalerKind::Chamulteon,
        Some(plan),
        &RetryPolicy::default(),
        RecoveryPolicy::Checkpoint { cadence: 1 },
    );
    let got = digest_debug(&run);
    assert_eq!(
        got, 0xf8e6_cb0b_3624_0f1a,
        "recovered-run digest changed: {got:#018x}"
    );
}

#[test]
fn multi_tenant_smoke_reproduces_its_digests() {
    let got: Vec<u64> = ArbitrationPolicy::all()
        .into_iter()
        .map(|policy| {
            digest_debug(&run_multi_tenant(
                &MultiTenantSpec::smoke(policy),
                &Obs::disabled(),
            ))
        })
        .collect();
    assert_eq!(
        got,
        vec![
            0x19da_4c27_d3d0_a2ba,
            0x8274_8380_1286_0e12,
            0xdaab_ff7f_bf3a_f551,
        ],
        "multi-tenant digests changed: {got:#018x?}"
    );
}

/// The monitoring sample a controller sees for one service, normalised to
/// the provisioned supply (the nested-pool integration test's adapter).
fn sample_from_sim(
    sim: &Simulation,
    s: usize,
    stats: &chamulteon_sim::ServiceIntervalStats,
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

/// A reactive controller on a ramp over a nested VM pool, optionally with
/// the pool planner: the result plus the stalled container boots after
/// every tick.
fn nested_pool_digest(planner: Option<NestedPlanner>) -> u64 {
    let model = ApplicationModel::paper_benchmark();
    let rates: Vec<f64> = (0..25)
        .map(|k| 30.0 + 220.0 * ((k as f64 / 10.0).min(1.0)))
        .collect();
    let trace = LoadTrace::new(60.0, rates).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 72)
        .with_vm_pool(VmPoolConfig::new(8, 300.0, 2));
    let mut sim = Simulation::new(&model, &trace, config);
    for s in 0..3 {
        sim.set_supply(s, 2).unwrap();
    }
    let mut scaler = Chamulteon::new(model.clone(), ChamulteonConfig::reactive_only());
    let mut waiting = Vec::new();
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
        waiting.push(sim.waiting_containers());
    }
    digest_debug(&(sim.finish(), waiting))
}

#[test]
fn nested_pool_runs_reproduce_their_digests() {
    let got = [
        nested_pool_digest(None),
        nested_pool_digest(Some(NestedPlanner::new(8, 24))),
    ];
    assert_eq!(
        got,
        [0x11b3_a5c4_2e91_fec8, 0xac3e_5223_1a80_65a7],
        "nested-pool digests changed: {got:#018x?}"
    );
}

#[test]
fn vertical_scaling_run_reproduces_its_digest() {
    let model = ApplicationModel::paper_benchmark();
    let trace = LoadTrace::new(60.0, vec![100.0; 10]).unwrap();
    let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 73);
    let mut sim = Simulation::new(&model, &trace, config);
    for (s, n) in [(0usize, 5u32), (1, 9), (2, 4)] {
        sim.set_supply(s, n).unwrap();
        sim.scale_vertical(s, 2.0).unwrap();
    }
    sim.run_until(300.0).unwrap();
    sim.scale_vertical(1, 1.5).unwrap();
    sim.scale_to(1, 7).unwrap();
    let got = digest_debug(&sim.run_to_end());
    assert_eq!(
        got, 0x06b7_a61e_1193_1a27,
        "vertical-scaling digest changed: {got:#018x}"
    );
}

#[test]
fn des_scale_mini_cases_reproduce_their_digests() {
    let pure = DesScaleCase {
        label: "mini".to_owned(),
        peak: 500.0,
        duration: 60.0,
        hybrid: None,
        seed: 3,
    };
    let hybrid = DesScaleCase {
        hybrid: Some(HybridConfig::new(1.0, 0.5, 64)),
        ..pure.clone()
    };
    let got = [
        digest_debug(&run_des_scale_case(&pure)),
        digest_debug(&run_des_scale_case(&hybrid)),
    ];
    assert_eq!(
        got,
        [0x43ff_4ad2_1ef7_c3fc, 0x4ef6_13fa_d6a7_3d33],
        "des-scale digests changed: {got:#018x?}"
    );
}

#[test]
fn des_scale_production_case_reproduces_its_digest() {
    // The headline day compressed to one hour: 60 monitoring ticks and
    // 180 fluid law builds at up to 142,858 instances, so the sojourn
    // laws at production scale are pinned, not only the mini case's.
    let case = DesScaleCase {
        duration: 3600.0,
        ..headline_case(7)
    };
    let got = digest_debug(&run_des_scale_case(&case));
    assert_eq!(
        got, 0xc1f1_3132_574b_e514,
        "des-scale production digest changed: {got:#018x}"
    );
}
