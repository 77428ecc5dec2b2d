//! End-to-end integration tests: the full pipeline (workload → simulator →
//! auto-scaler → metrics) across crates.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test code: panics and lossy casts are acceptable here"
)]
use chamulteon_repro::bench::setups::smoke_test;
use chamulteon_repro::bench::{run_experiment, ExperimentSpec, ScalerKind};
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::sim::{DeploymentProfile, SloPolicy};
use chamulteon_repro::workload::LoadTrace;

fn step_spec(seed: u64) -> ExperimentSpec {
    let mut rates = vec![20.0; 5];
    rates.extend(vec![250.0; 10]);
    ExperimentSpec {
        name: "step".into(),
        trace: LoadTrace::new(60.0, rates).unwrap(),
        model: ApplicationModel::paper_benchmark(),
        profile: DeploymentProfile::docker(),
        slo: SloPolicy::default(),
        scaling_interval: 60.0,
        seed,
        warmup_days: 0,
        hist_bucket: 300.0,
    }
}

#[test]
fn every_scaler_completes_the_smoke_experiment() {
    let spec = smoke_test();
    for kind in [
        ScalerKind::Chamulteon,
        ScalerKind::ChamulteonReactiveOnly,
        ScalerKind::ChamulteonProactiveOnly,
        ScalerKind::ChamulteonFoxEc2,
        ScalerKind::ChamulteonFoxGcp,
        ScalerKind::React,
        ScalerKind::Adapt,
        ScalerKind::Hist,
        ScalerKind::Reg,
    ] {
        let outcome = run_experiment(&spec, kind);
        assert!(outcome.result.total_requests() > 1_000, "{kind:?}");
        assert!(
            (0.0..=100.0).contains(&outcome.report.apdex),
            "{kind:?} apdex"
        );
        assert!(
            (0.0..=100.0).contains(&outcome.report.slo_violations),
            "{kind:?} slo"
        );
        for m in &outcome.report.per_service {
            assert!(m.tau_u >= 0.0 && m.tau_u <= 100.0, "{kind:?}");
            assert!(m.tau_o >= 0.0 && m.tau_o <= 100.0, "{kind:?}");
            assert!(m.tau_u + m.tau_o <= 100.0 + 1e-9, "{kind:?}");
            assert!(m.theta_u >= 0.0 && m.theta_o >= 0.0, "{kind:?}");
        }
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let spec = smoke_test();
    for kind in [ScalerKind::Chamulteon, ScalerKind::Reg] {
        let a = run_experiment(&spec, kind);
        let b = run_experiment(&spec, kind);
        assert_eq!(a.result, b.result, "{kind:?}");
        assert_eq!(a.report, b.report, "{kind:?}");
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut spec = smoke_test();
    let a = run_experiment(&spec, ScalerKind::Chamulteon);
    spec.seed += 1;
    let b = run_experiment(&spec, ScalerKind::Chamulteon);
    assert_ne!(a.result, b.result);
}

#[test]
fn chamulteon_beats_reg_on_user_metrics() {
    // The paper's headline result, on both a step and the smoke trace.
    for spec in [step_spec(3), smoke_test()] {
        let cham = run_experiment(&spec, ScalerKind::Chamulteon);
        let reg = run_experiment(&spec, ScalerKind::Reg);
        assert!(
            cham.report.slo_violations <= reg.report.slo_violations,
            "{}: chamulteon {}% vs reg {}%",
            spec.name,
            cham.report.slo_violations,
            reg.report.slo_violations
        );
        assert!(
            cham.report.apdex >= reg.report.apdex,
            "{}: apdex",
            spec.name
        );
    }
}

#[test]
fn bottleneck_shifting_staggered_for_react_not_chamulteon() {
    let spec = step_spec(7);
    // Capacity each tier needs for the 250 req/s plateau.
    let needed = [
        (250.0 * 0.059 / 0.8_f64).ceil() as u32,
        (250.0 * 0.1 / 0.8_f64).ceil() as u32,
        (250.0 * 0.04 / 0.8_f64).ceil() as u32,
    ];
    let adequate_at =
        |outcome: &chamulteon_repro::bench::ExperimentOutcome, service: usize| -> f64 {
            let mut t = 0.0;
            while t < outcome.result.duration {
                if outcome.result.supply_at(service, t) >= needed[service] {
                    return t;
                }
                t += 1.0;
            }
            outcome.result.duration
        };

    let react = run_experiment(&spec, ScalerKind::React);
    let cham = run_experiment(&spec, ScalerKind::Chamulteon);

    let spread = |o: &chamulteon_repro::bench::ExperimentOutcome| {
        let times: Vec<f64> = (0..3).map(|s| adequate_at(o, s)).collect();
        times.iter().cloned().fold(f64::MIN, f64::max)
            - times.iter().cloned().fold(f64::MAX, f64::min)
    };
    let react_spread = spread(&react);
    let cham_spread = spread(&cham);
    assert!(
        react_spread >= 60.0,
        "react should stagger at least one interval, got {react_spread}"
    );
    assert!(
        cham_spread < react_spread,
        "chamulteon ({cham_spread}s) must stagger less than react ({react_spread}s)"
    );
}

#[test]
fn supply_never_outside_model_bounds() {
    let spec = smoke_test();
    for kind in [ScalerKind::Chamulteon, ScalerKind::Adapt, ScalerKind::Hist] {
        let outcome = run_experiment(&spec, kind);
        for (s, timeline) in outcome.result.supply.iter().enumerate() {
            let spec_s = spec.model.service(s);
            for change in timeline {
                assert!(change.running >= spec_s.min_instances(), "{kind:?}");
                assert!(change.running <= spec_s.max_instances(), "{kind:?}");
            }
        }
    }
}

#[test]
fn request_conservation_holds_for_every_scaler() {
    let spec = smoke_test();
    for kind in ScalerKind::paper_lineup() {
        let outcome = run_experiment(&spec, kind);
        let sent: u64 = outcome.result.sent_per_second.iter().sum();
        assert_eq!(
            sent,
            outcome.result.completed + outcome.result.in_flight_at_end,
            "{kind:?}"
        );
        // Conformant requests can never exceed sent requests, per second.
        for (sec, (&sent, &conf)) in outcome
            .result
            .sent_per_second
            .iter()
            .zip(&outcome.result.conformant_per_second)
            .enumerate()
        {
            assert!(conf <= sent, "{kind:?} at second {sec}");
        }
    }
}
