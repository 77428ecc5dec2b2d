//! The paper's headline claims (§V-D), asserted as tests on fast
//! experiment scenarios. The full-size evidence lives in the files
//! `chamulteon-exp paper` writes and EXPERIMENTS.md quotes; these tests
//! keep the claims from silently regressing.

use chamulteon_repro::bench::setups::smoke_test;
use chamulteon_repro::bench::{run_experiment, ExperimentSpec, ScalerKind};
use chamulteon_repro::perfmodel::ApplicationModel;
use chamulteon_repro::sim::{DeploymentProfile, SloPolicy};
use chamulteon_repro::workload::generators::{bibsonomy_like, wikipedia_like};

fn mini(
    name: &str,
    generator: fn(u64, f64, f64) -> chamulteon_repro::workload::LoadTrace,
    peak_rate: f64,
    profile: DeploymentProfile,
    interval: f64,
) -> ExperimentSpec {
    // One synthetic day compressed into 20 minutes — big enough for stable
    // orderings, small enough for the default test profile.
    let day = generator(99, 60.0, 86_400.0);
    let trace = day.compress_to(1_200.0).scale_to_peak(peak_rate);
    ExperimentSpec {
        name: name.into(),
        trace,
        model: ApplicationModel::paper_benchmark(),
        profile,
        slo: SloPolicy::default(),
        scaling_interval: interval,
        seed: 9,
        warmup_days: 2,
        hist_bucket: 120.0,
    }
}

/// §V-D finding 1: "Chamulteon exhibits in three out of four experiments
/// the best user-oriented metrics" — here: best or tied-best SLO and Apdex
/// among the lineup on both trace families.
#[test]
fn chamulteon_best_user_metrics() {
    for spec in [
        mini(
            "wiki",
            wikipedia_like,
            250.0,
            DeploymentProfile::docker(),
            60.0,
        ),
        mini(
            "bib",
            bibsonomy_like,
            250.0,
            DeploymentProfile::docker(),
            60.0,
        ),
    ] {
        let mut results = Vec::new();
        for kind in ScalerKind::paper_lineup() {
            results.push((kind, run_experiment(&spec, kind).report));
        }
        let cham = &results[0].1;
        for (kind, report) in &results[1..] {
            assert!(
                cham.slo_violations <= report.slo_violations + 1.0,
                "{}: chamulteon {:.1}% vs {:?} {:.1}%",
                spec.name,
                cham.slo_violations,
                kind,
                report.slo_violations
            );
        }
    }
}

/// §V-D finding 4: "Reg and Adapt tend to under-provision and thus exhibit
/// the worst user-oriented metrics."
#[test]
fn reg_and_adapt_worst_user_metrics() {
    let spec = mini(
        "wiki",
        wikipedia_like,
        250.0,
        DeploymentProfile::docker(),
        60.0,
    );
    let mut reports = Vec::new();
    for kind in ScalerKind::paper_lineup() {
        reports.push((kind.name(), run_experiment(&spec, kind).report));
    }
    let worst = reports
        .iter()
        .min_by(|a, b| a.1.apdex.total_cmp(&b.1.apdex))
        .unwrap();
    assert!(
        worst.0 == "reg" || worst.0 == "adapt",
        "worst Apdex is {} ({:.1}%)",
        worst.0,
        worst.1.apdex
    );
    // And they under-provision more (higher tau_U) than chamulteon.
    let tau_u = |name: &str| {
        reports
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
            .mean_elasticity()
            .tau_u
    };
    assert!(tau_u("reg") > tau_u("chamulteon"));
    assert!(tau_u("adapt") > tau_u("chamulteon"));
}

/// §V-A: Chamulteon keeps the system slightly over-provisioned by design —
/// its under-provisioning accuracy stays small while its over-provisioning
/// time share is high.
#[test]
fn chamulteon_slightly_overprovisions_by_design() {
    let spec = mini(
        "wiki",
        wikipedia_like,
        250.0,
        DeploymentProfile::docker(),
        60.0,
    );
    let report = run_experiment(&spec, ScalerKind::Chamulteon).report;
    let m = report.mean_elasticity();
    assert!(m.theta_u < 10.0, "theta_U {:.1}%", m.theta_u);
    assert!(m.tau_o > m.tau_u, "should sit on the over side");
}

/// Fig. 2's oscillation claim, quantified with the adaptation-rate metric:
/// Reg issues more scaling operations than Chamulteon for the same trace.
#[test]
fn reg_oscillates_more_than_chamulteon() {
    let spec = mini(
        "bib",
        bibsonomy_like,
        250.0,
        DeploymentProfile::docker(),
        60.0,
    );
    let cham = run_experiment(&spec, ScalerKind::Chamulteon).report;
    let reg = run_experiment(&spec, ScalerKind::Reg).report;
    assert!(
        reg.adaptations_per_hour >= cham.adaptations_per_hour * 0.8,
        "reg {:.1}/h vs chamulteon {:.1}/h",
        reg.adaptations_per_hour,
        cham.adaptations_per_hour
    );
}

/// The VM scenario separates reactive-only from the hybrid: with slow
/// provisioning the proactive cycle must not make things worse, and both
/// Chamulteon variants must beat Adapt/Reg.
#[test]
fn vm_scenario_orderings() {
    let spec = mini(
        "wiki-vm",
        wikipedia_like,
        80.0,
        DeploymentProfile::vm(),
        120.0,
    );
    let hybrid = run_experiment(&spec, ScalerKind::Chamulteon).report;
    let adapt = run_experiment(&spec, ScalerKind::Adapt).report;
    let reg = run_experiment(&spec, ScalerKind::Reg).report;
    assert!(hybrid.slo_violations < adapt.slo_violations);
    assert!(hybrid.slo_violations < reg.slo_violations);
}

/// Cost metrics are populated and sane for every scaler.
#[test]
fn accounting_metrics_populated() {
    let spec = smoke_test();
    for kind in ScalerKind::paper_lineup() {
        let report = run_experiment(&spec, kind).report;
        assert!(report.instance_hours > 0.0, "{kind:?}");
        assert!(report.adaptations_per_hour >= 0.0, "{kind:?}");
        // Sanity ceiling: nobody uses more than max_instances for the
        // whole experiment on all services.
        assert!(report.instance_hours < 3.0 * 200.0 * spec.trace.duration() / 3600.0);
    }
}
