//! Golden digests of the text the codecs write.
//!
//! Each digest is FNV-1a over the exact bytes of one encoded document, the
//! same hash as `algorithm1_golden.rs` and `engine_golden.rs`. A change to
//! a codec must leave every digest unchanged:
//!
//! * `ControllerSnapshot::encode` after 60 FOX ticks of the benchmark's
//!   graph loop on each topology family at 200 services,
//! * the same on the paper benchmark model fed monitoring dropouts and NaN
//!   utilizations, so held samples and degradations appear, plus that
//!   text with `null` spliced in, decoded and re-encoded,
//! * `jsonl::emit` of the traced smoke run under actuation failures, the
//!   text `chamulteon-exp trace` writes,
//! * the same of the traced, clean Table III run (`wikipedia_vm`), whose
//!   86 forecasts put a proactive candidate in every conflict resolution.

#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: panics and lossy casts are acceptable here"
)]

use chamulteon::{
    Chamulteon, ChamulteonConfig, ChargingModel, ControllerSnapshot, Observation, RetryPolicy,
};
use chamulteon_bench::robustness::FaultClass;
use chamulteon_bench::setups::{smoke_test, wikipedia_docker, wikipedia_vm};
use chamulteon_bench::{run_experiment_observed, ScalerKind};
use chamulteon_demand::MonitoringSample;
use chamulteon_obs::{jsonl, EventKind, Obs};
use chamulteon_perfmodel::{topology, ApplicationModel, TopologyFamily};
use chamulteon_queueing::capacity::min_instances_for_utilization;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_bytes(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_text(text: &str) -> u64 {
    let mut digest = FNV_OFFSET;
    fnv_bytes(&mut digest, text.as_bytes());
    digest
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

/// Drives one family through the closed graph loop and returns the
/// encoded snapshot of the controller after the last tick.
fn graph_loop_snapshot(family: TopologyFamily, rates: &[f64]) -> String {
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
    for (k, &entry_rate) in rates.iter().enumerate().take(TICKS) {
        let samples: Vec<MonitoringSample> = visits
            .iter()
            .zip(&demands)
            .zip(&current)
            .map(|((&v, &d), &n)| {
                sample(entry_rate * v, d, n).unwrap_or_else(|| MonitoringSample::zero(INTERVAL, n))
            })
            .collect();
        current = controller.tick((k + 1) as f64 * INTERVAL, &samples);
    }
    controller.snapshot().encode()
}

fn table2_rates() -> Vec<f64> {
    wikipedia_docker()
        .trace
        .resample(INTERVAL)
        .map(|t| t.rates().to_vec())
        .expect("Table II trace resamples to the scaling interval")
}

#[test]
fn graph_family_snapshots_reproduce_their_digests() {
    let rates = table2_rates();
    let got: Vec<u64> = TopologyFamily::ALL
        .into_iter()
        .map(|family| digest_text(&graph_loop_snapshot(family, &rates)))
        .collect();
    assert_eq!(
        got,
        vec![
            0x5bbc_e23a_38a4_e54d,
            0x60d9_e195_898b_aed6,
            0x2ae2_f8c3_42f9_3f2a,
            0x50c5_7e06_a92e_e283,
        ],
        "graph-family snapshot digests changed: {got:#018x?}"
    );
}

/// One cycle's observations: a sawtooth with a monitoring dropout every
/// 9th cycle and a NaN utilization every 13th.
fn degraded_observations(cycle: u64, services: usize) -> Vec<Observation> {
    (0..services)
        .map(|s| {
            if cycle % 9 == 5 {
                return Observation::Missing;
            }
            let rate = 12.0 + ((cycle + s as u64) % 7) as f64 * 4.0;
            Observation::Raw {
                duration: INTERVAL,
                arrivals: (rate * INTERVAL).round(),
                completions: (rate * INTERVAL).round(),
                utilization: if cycle % 13 == 7 { f64::NAN } else { 0.55 },
                instances: 2,
                mean_response_time: Some(0.09),
            }
        })
        .collect()
}

#[test]
fn degraded_paper_snapshot_reproduces_its_digest() {
    let model = ApplicationModel::paper_benchmark();
    let services = model.service_count();
    let mut controller = Chamulteon::new(model, ChamulteonConfig::default())
        .with_fox(ChargingModel::gcp_per_minute());
    for k in 0..TICKS as u64 {
        let t = INTERVAL * (k + 1) as f64;
        let _ = controller.tick_observed(t, &degraded_observations(k, services));
    }
    let text = controller.snapshot().encode();
    for needle in ["\"held_sample\"", "\"degradation\""] {
        assert!(text.contains(needle), "snapshot lacks {needle}:\n{text}");
    }
    // A controller only ever holds finite floats, so `null` is spliced
    // into the text: a NaN demand estimate and a NaN history value must
    // decode and re-encode as `null`.
    let with_null = splice_null(&splice_null(&text, "\"current\":"), "\"values\":[");
    let mut got = Vec::new();
    for doc in [&text, &with_null] {
        let decoded = ControllerSnapshot::decode(doc).expect("snapshot decodes");
        assert_eq!(&decoded.encode(), doc, "encode ∘ decode ∘ encode");
        got.push(digest_text(doc));
    }
    assert_eq!(
        got,
        vec![0x8156_7305_7f17_74e7, 0x59fd_872b_2d5b_78b6],
        "degraded snapshot digests changed: {got:#018x?}"
    );
}

/// Replaces the first value after `key` with `null`.
fn splice_null(text: &str, key: &str) -> String {
    let start = text.find(key).expect("key present") + key.len();
    let end = start + text[start..].find([',', '}', ']']).expect("value ends");
    format!("{}null{}", &text[..start], &text[end..])
}

#[test]
fn traced_smoke_run_jsonl_reproduces_its_digest() {
    let spec = smoke_test();
    let plan =
        FaultClass::ActuationFailures.plan(spec.seed, spec.trace.duration(), spec.scaling_interval);
    let (obs, ring) = Obs::recording(1 << 20);
    let _ = run_experiment_observed(
        &spec,
        ScalerKind::Chamulteon,
        Some(plan),
        &RetryPolicy::default(),
        &obs,
    );
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole trace");
    let text = jsonl::emit(&ring.take());
    let parsed = jsonl::parse(&text).expect("trace parses back");
    assert_eq!(jsonl::emit(&parsed), text, "emit ∘ parse ∘ emit");
    assert!(text.contains("null"), "NaN rates must appear as null");
    assert_eq!(
        digest_text(&text),
        0x1bd7_4092_fe5f_2d18,
        "trace digest changed: {:#018x}",
        digest_text(&text)
    );
}

#[test]
fn traced_table3_run_jsonl_reproduces_its_digest() {
    let spec = wikipedia_vm();
    let (obs, ring) = Obs::recording(1 << 20);
    let _ = run_experiment_observed(
        &spec,
        ScalerKind::Chamulteon,
        None,
        &RetryPolicy::default(),
        &obs,
    );
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole trace");
    let events = ring.take();
    let count = |pick: fn(&EventKind) -> bool| events.iter().filter(|e| pick(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::Forecast { .. })), 86);
    assert_eq!(
        count(|k| matches!(k, EventKind::ConflictResolution { .. })),
        540
    );
    assert_eq!(
        count(|k| matches!(
            k,
            EventKind::ConflictResolution {
                proactive: Some(_),
                ..
            }
        )),
        540,
        "every conflict resolution must see a proactive candidate"
    );
    let text = jsonl::emit(&events);
    let parsed = jsonl::parse(&text).expect("trace parses back");
    assert_eq!(jsonl::emit(&parsed), text, "emit ∘ parse ∘ emit");
    assert_eq!(
        digest_text(&text),
        0xdd9e_3039_c546_7b1a,
        "trace digest changed: {:#018x}",
        digest_text(&text)
    );
}
