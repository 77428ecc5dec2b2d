//! Golden digests of every run that exercises Algorithm 1 end to end.
//!
//! Each digest is FNV-1a over the bit-faithful `Debug` rendering of a
//! run's outputs (`f64` renders as its shortest round-trip form, so two
//! renderings agree exactly when the bits do). A refactor of the decision
//! path must leave every digest unchanged:
//!
//! * `run_experiment` with Chamulteon on the smoke setup and on Table II,
//! * `run_experiment_with_faults` on the smoke setup under each fault
//!   class,
//! * the closed controller loop of the benchmark's graph workload: each
//!   topology family at 200 services, driven for 60 ticks through
//!   `Chamulteon::tick` with FOX (GCP per-minute billing), every target
//!   vector digested.

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: panics and lossy casts are acceptable here"
)]

use chamulteon::{Chamulteon, ChamulteonConfig, ChargingModel, RetryPolicy};
use chamulteon_bench::robustness::FaultClass;
use chamulteon_bench::setups::{smoke_test, wikipedia_docker};
use chamulteon_bench::{run_experiment, run_experiment_with_faults, ScalerKind};
use chamulteon_demand::MonitoringSample;
use chamulteon_perfmodel::{topology, TopologyFamily};
use chamulteon_queueing::capacity::min_instances_for_utilization;

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
fn clean_experiments_reproduce_their_digests() {
    let smoke = run_experiment(&smoke_test(), ScalerKind::Chamulteon);
    let table2 = run_experiment(&wikipedia_docker(), ScalerKind::Chamulteon);
    let got = [
        digest_debug(&(&smoke.result, &smoke.report)),
        digest_debug(&(&table2.result, &table2.report)),
    ];
    assert_eq!(
        got,
        [0x20b5_7ada_6815_19df, 0x2cb6_056b_c8ff_b281],
        "smoke / Table II digests changed: {got:#018x?}"
    );
}

#[test]
fn faulted_smoke_runs_reproduce_their_digests() {
    let spec = smoke_test();
    let retry = RetryPolicy::default();
    let got: Vec<u64> = FaultClass::ALL
        .iter()
        .map(|class| {
            let plan = class.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
            let run = run_experiment_with_faults(&spec, ScalerKind::Chamulteon, Some(plan), &retry);
            digest_debug(&(&run.outcome.result, &run.outcome.report, &run.degradation))
        })
        .collect();
    assert_eq!(
        got,
        vec![
            0x5be1_b5c0_47cb_3175,
            0x30d2_2592_43d3_6c6f,
            0x48d4_7b24_d752_a38d,
            0x600e_3d6a_6f66_45a5,
            0x1730_760a_6f1d_ef63,
        ],
        "fault-class digests changed: {got:#018x?}"
    );
}

const SERVICES: usize = 200;
const INTERVAL: f64 = 60.0;
const TICKS: usize = 60;

/// The expected-value monitoring sample of one service over one interval
/// (utilization capped at 1, completions at capacity).
fn sample(rate: f64, demand: f64, instances: u32) -> Option<MonitoringSample> {
    let n = instances.max(1);
    let rho = rate * demand / f64::from(n);
    let arrivals = (rate * INTERVAL).round() as u64;
    let capacity = (f64::from(n) / demand * INTERVAL).floor() as u64;
    let response = (rho < 1.0).then(|| demand / (1.0 - rho));
    MonitoringSample::new(INTERVAL, arrivals, rho.min(1.0), n, response)
        .ok()
        .map(|s| s.with_completions(arrivals.min(capacity)))
}

/// Drives one family through the closed loop and digests every target
/// vector plus the final FOX bill.
fn graph_loop_digest(family: TopologyFamily, rates: &[f64]) -> u64 {
    let model = topology::model(family, SERVICES, 0).expect("generated model is valid");
    let visits = model.visit_ratios();
    let demands: Vec<f64> = model
        .services()
        .iter()
        .map(|s| s.nominal_demand())
        .collect();
    let rate0 = rates.first().copied().unwrap_or(0.0);
    let mut current: Vec<u32> = visits
        .iter()
        .zip(&demands)
        .map(|(&v, &d)| min_instances_for_utilization(rate0 * v, d, 0.6))
        .collect();
    let mut controller = Chamulteon::new(model.clone(), ChamulteonConfig::default())
        .with_fox(ChargingModel::gcp_per_minute());
    controller.preload_history(INTERVAL, &[rates, rates].concat());

    let mut digest = FNV_OFFSET;
    for (k, &entry_rate) in rates.iter().enumerate().take(TICKS) {
        let samples: Vec<MonitoringSample> = visits
            .iter()
            .zip(&demands)
            .zip(&current)
            .map(|((&v, &d), &n)| {
                sample(entry_rate * v, d, n).unwrap_or_else(|| MonitoringSample::zero(INTERVAL, n))
            })
            .collect();
        let targets = controller.tick((k + 1) as f64 * INTERVAL, &samples);
        for &n in &targets {
            fnv_bytes(&mut digest, &n.to_le_bytes());
        }
        current = targets;
    }
    let billed = controller
        .billed_instance_seconds(TICKS as f64 * INTERVAL)
        .unwrap_or(0.0);
    fnv_bytes(&mut digest, &billed.to_bits().to_le_bytes());
    fnv_bytes(&mut digest, &controller.forecasts_made().to_le_bytes());
    digest
}

#[test]
fn graph_family_loops_reproduce_their_digests() {
    let rates = wikipedia_docker()
        .trace
        .resample(INTERVAL)
        .map(|t| t.rates().to_vec())
        .expect("Table II trace resamples to the scaling interval");
    let got: Vec<u64> = TopologyFamily::ALL
        .into_iter()
        .map(|family| graph_loop_digest(family, &rates))
        .collect();
    assert_eq!(
        got,
        vec![
            0x3d2f_5bd1_995a_0e0d,
            0xacf1_0641_dd0b_eac1,
            0x9920_5b69_5732_ae53,
            0x4874_cdf8_e472_ebeb,
        ],
        "graph-family loop digests changed: {got:#018x?}"
    );
}
