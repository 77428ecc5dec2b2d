//! Crash-recovery equivalence oracle.
//!
//! Generates controller scenarios — every configuration flavor (both
//! cycles, reactive-only, proactive-only), every FOX charging model
//! (none, EC2 hourly, GCP per-minute), and degraded observation streams
//! mixing monitoring dropouts, NaN-corrupt utilizations and implausible
//! rate spikes — and, for a seeded grid of crash points inside each
//! scenario, asserts that a controller which crashes, is rebuilt from its
//! encoded snapshot and continues, is *bit-identical* to the
//! uninterrupted reference run:
//!
//! * every subsequent per-service target vector must match exactly,
//! * the final FOX-billed instance-seconds must match to the bit
//!   ([`f64::to_bits`]),
//! * the forecast counters and the full degradation-event log must match,
//! * and the snapshot text itself must be byte-stable
//!   (`encode ∘ decode ∘ encode = encode`).
//!
//! Crash points deliberately include cycles immediately after a
//! degraded/held cycle (dropout or quarantine just happened) and — under
//! the EC2 hourly model, where almost every 60 s cycle boundary falls
//! inside an open billing hour — crashes landing mid-billing-interval
//! with open leases in the ledger.

use crate::config::ConformanceConfig;
use crate::report::OracleReport;
use chamulteon::{Chamulteon, ChamulteonConfig, ChargingModel, ControllerSnapshot, Observation};
use chamulteon_perfmodel::ApplicationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scaling/monitoring interval of the generated scenarios, in seconds.
const INTERVAL: f64 = 60.0;

/// One generated crash-recovery scenario: a controller flavor plus a
/// degraded observation stream, `observations[cycle][service]`.
struct Scenario {
    config: ChamulteonConfig,
    fox: Option<ChargingModel>,
    observations: Vec<Vec<Observation>>,
    /// Cycles in which at least one service's observation was dropped,
    /// corrupted or implausible — crash points right after these cover
    /// the held/degraded-state paths.
    degraded_cycles: Vec<usize>,
}

/// Draws one scenario. `force_ec2` pins the first scenario to the EC2
/// hourly model so mid-billing-interval crashes are guaranteed to appear
/// in every run, regardless of the seed.
fn generate_scenario(rng: &mut StdRng, services: usize, force_ec2: bool) -> Scenario {
    let config = match rng.gen_range(0..3u32) {
        0 => ChamulteonConfig::default(),
        1 => ChamulteonConfig::reactive_only(),
        _ => ChamulteonConfig::proactive_only(),
    };
    let fox = if force_ec2 {
        Some(ChargingModel::ec2_hourly())
    } else {
        match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(ChargingModel::ec2_hourly()),
            _ => Some(ChargingModel::gcp_per_minute()),
        }
    };
    let cycles = rng.gen_range(48..=72usize);
    let base = rng.gen_range(8.0..40.0f64);
    let amp = rng.gen_range(0.0..30.0f64);
    let period = rng.gen_range(5..=16usize);
    let mut observations = Vec::with_capacity(cycles);
    let mut degraded_cycles = Vec::new();
    for k in 0..cycles {
        let mut degraded = false;
        let row: Vec<Observation> = (0..services)
            .map(|s| {
                let roll = rng.gen_range(0..100u32);
                if roll < 8 {
                    degraded = true;
                    return Observation::Missing;
                }
                let phase = ((k + s) % period) as f64;
                let mut rate = base + amp * phase / period as f64;
                if roll < 12 {
                    // An implausible monitoring spike the gate rejects.
                    rate *= 50.0;
                    degraded = true;
                }
                let utilization = if roll < 16 {
                    degraded = true;
                    f64::NAN
                } else {
                    rng.gen_range(0.2..0.95)
                };
                Observation::Raw {
                    duration: INTERVAL,
                    arrivals: (rate * INTERVAL).round(),
                    completions: (rate * INTERVAL).round(),
                    utilization,
                    instances: rng.gen_range(1..=6u32),
                    mean_response_time: if roll % 2 == 0 {
                        Some(rng.gen_range(0.01..0.4))
                    } else {
                        None
                    },
                }
            })
            .collect();
        if degraded {
            degraded_cycles.push(k);
        }
        observations.push(row);
    }
    Scenario {
        config,
        fox,
        observations,
        degraded_cycles,
    }
}

/// Builds the scenario's controller flavor on a fresh model instance.
fn build(model: &ApplicationModel, scenario: &Scenario) -> Chamulteon {
    let controller = Chamulteon::new(model.clone(), scenario.config.clone());
    match &scenario.fox {
        Some(charging) => controller.with_fox(charging.clone()),
        None => controller,
    }
}

/// The crash points exercised within one scenario: every cycle right
/// after an early degraded cycle, padded with seeded draws across the
/// whole run. Sorted and deduplicated so each point is a distinct case.
fn crash_points(rng: &mut StdRng, scenario: &Scenario, per_scenario: usize) -> Vec<usize> {
    let cycles = scenario.observations.len();
    let mut points: Vec<usize> = scenario
        .degraded_cycles
        .iter()
        .take(3)
        .map(|&d| d + 1)
        .filter(|&p| p < cycles)
        .collect();
    while points.len() < per_scenario {
        points.push(rng.gen_range(1..cycles));
    }
    points.sort_unstable();
    points.dedup();
    points
}

/// Runs one crash point: drive a fresh controller to `crash`, snapshot,
/// encode → decode → re-encode (byte-stability), restore, and continue
/// both it and the uninterrupted reference to the end of the scenario.
fn run_case(
    report: &mut OracleReport,
    model: &ApplicationModel,
    scenario: &Scenario,
    scenario_index: usize,
    crash: usize,
) {
    report.count_case();
    let label = format!("scenario {scenario_index}, crash at cycle {crash}");
    let mut reference = build(model, scenario);
    let mut crashed = build(model, scenario);
    for (k, row) in scenario.observations.iter().take(crash).enumerate() {
        let t = INTERVAL * (k + 1) as f64;
        let a = reference.tick_observed(t, row);
        let b = crashed.tick_observed(t, row);
        if a != b {
            report.mismatch(format!("{label}: pre-crash divergence at cycle {k}"));
            return;
        }
    }
    let text = crashed.snapshot().encode();
    drop(crashed); // the crash: only the encoded snapshot survives
    let snapshot = match ControllerSnapshot::decode(&text) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            report.mismatch(format!("{label}: snapshot failed to decode: {e}"));
            return;
        }
    };
    if snapshot.encode() != text {
        report.mismatch(format!("{label}: snapshot encoding is not byte-stable"));
        return;
    }
    let mut restored = match Chamulteon::restore(model.clone(), scenario.config.clone(), &snapshot)
    {
        Ok(restored) => restored,
        Err(e) => {
            report.mismatch(format!("{label}: restore rejected its own snapshot: {e}"));
            return;
        }
    };
    let mut last = INTERVAL * crash as f64;
    for (k, row) in scenario.observations.iter().enumerate().skip(crash) {
        let t = INTERVAL * (k + 1) as f64;
        last = t;
        let want = reference.tick_observed(t, row);
        let got = restored.tick_observed(t, row);
        if want != got {
            report.mismatch(format!(
                "{label}: cycle {k} diverged after restore: expected {want:?}, got {got:?}"
            ));
            return;
        }
    }
    let billed_want = reference.billed_instance_seconds(last);
    let billed_got = restored.billed_instance_seconds(last);
    if billed_want.map(f64::to_bits) != billed_got.map(f64::to_bits) {
        report.mismatch(format!(
            "{label}: FOX ledgers diverged: expected {billed_want:?}, got {billed_got:?}"
        ));
        return;
    }
    if reference.forecasts_made() != restored.forecasts_made() {
        report.mismatch(format!(
            "{label}: forecast counters diverged: {} vs {}",
            reference.forecasts_made(),
            restored.forecasts_made()
        ));
        return;
    }
    if reference.degradation().events() != restored.degradation().events() {
        report.mismatch(format!("{label}: degradation logs diverged"));
    }
}

/// Runs the crash-recovery differential over a seeded grid of
/// [`ConformanceConfig::recovery_crash_points`] crash points.
pub fn run(config: &ConformanceConfig) -> OracleReport {
    let mut report = OracleReport::new("crash-recovery");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EC0_4E4F);
    let model = ApplicationModel::paper_benchmark();
    let services = model.service_count();
    let target = u64::try_from(config.recovery_crash_points).unwrap_or(u64::MAX);
    let mut scenario_index = 0usize;
    while report.cases < target {
        let scenario = generate_scenario(&mut rng, services, scenario_index == 0);
        for crash in crash_points(&mut rng, &scenario, 8) {
            if report.cases >= target {
                break;
            }
            run_case(&mut report, &model, &scenario, scenario_index, crash);
        }
        scenario_index += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_recovery_grid_is_clean() {
        let config = ConformanceConfig::quick();
        let report = run(&config);
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(report.cases, config.recovery_crash_points as u64);
    }

    #[test]
    fn scenarios_cover_degraded_cycles_and_fox_models() {
        let mut rng = StdRng::seed_from_u64(0x5EC0_4E4F);
        let forced = generate_scenario(&mut rng, 3, true);
        assert_eq!(forced.fox, Some(ChargingModel::ec2_hourly()));
        let mut saw_degraded = false;
        let mut saw_gcp = false;
        for _ in 0..20 {
            let s = generate_scenario(&mut rng, 3, false);
            saw_degraded |= !s.degraded_cycles.is_empty();
            saw_gcp |= s.fox == Some(ChargingModel::gcp_per_minute());
        }
        assert!(saw_degraded, "no degraded cycles in 20 scenarios");
        assert!(saw_gcp, "no GCP scenarios in 20 draws");
    }
}
