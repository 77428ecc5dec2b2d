//! Event-driven-core differential oracle.
//!
//! The simulation engine in `chamulteon-sim` ([`Simulation`])
//! implements M/M/n stations twice over: exactly, as per-request events,
//! and approximately, as the hybrid fluid regime's analytic drift plus
//! Erlang-C tail synthesis. Both paths must reproduce the true M/M/n
//! stationary behaviour — and neither shares a line of code with the
//! [`crate::mmn_sim`] micro-simulator, which makes that simulator a
//! legitimate referee.
//!
//! For a grid of single-station scenarios `(λ, s, n)` at paper-scale
//! loads the oracle runs the DES on a flat trace and checks:
//!
//! * **waiting time** — the DES mean sojourn minus the mean service
//!   demand must sit inside a batch-means confidence band around the
//!   micro-simulator's mean waiting time (both runs carry statistical
//!   error, so the band is doubled and given a small relative floor);
//! * **queue length** — the time-sampled mean of the DES end-of-interval
//!   queue snapshots must agree with the micro-simulator's time-average
//!   of `(k − n)⁺`;
//! * **utilization** — the DES busy-time fraction must match the offered
//!   load per server `ρ = λ·s / n`;
//! * **conservation** — the per-second sent accounting must equal
//!   completions plus in-flight requests exactly, as integers;
//! * **hybrid mode** — the same scenario forced into the aggregate fluid
//!   regime must reproduce the analytic mean response time and conserve
//!   requests, while completing almost everything it admits.

use crate::config::ConformanceConfig;
use crate::mmn_sim::{self, Estimate};
use crate::report::OracleReport;
use chamulteon_perfmodel::{ApplicationModel, ApplicationModelBuilder};
use chamulteon_queueing::MmnQueue;
use chamulteon_sim::{DeploymentProfile, HybridConfig, Simulation, SimulationConfig, SloPolicy};
use chamulteon_workload::LoadTrace;

/// Lossless-enough `u64 → f64` for request counts (all values here are
/// far below 2⁵³).
fn u64_to_f64(value: u64) -> f64 {
    let high = u32::try_from(value >> 32).unwrap_or(u32::MAX);
    let low = u32::try_from(value & 0xFFFF_FFFF).unwrap_or(u32::MAX);
    f64::from(high) * 4_294_967_296.0 + f64::from(low)
}

/// Stations the DES validation sweeps: `(λ, s, n)`, all stable, spanning
/// the paper's service demands (§IV-B) and utilizations up to ρ = 0.8.
const DES_SCENARIOS: &[(f64, f64, u32)] = &[
    (100.0, 0.059, 9),
    (50.0, 0.1, 7),
    (20.0, 0.2, 5),
    (8.0, 1.0, 10),
];

/// What one DES run measures about its single station.
struct DesMeasures {
    /// Mean end-to-end sojourn of completed requests.
    mean_response: f64,
    /// Time-sampled mean waiting-queue length (post-warmup snapshots).
    mean_queue: f64,
    /// Duration-weighted busy-time fraction.
    utilization: f64,
    /// Requests admitted per the per-second accounting.
    sent: u64,
    /// Requests completed.
    completed: u64,
    /// Requests still in flight when the run ended.
    in_flight: u64,
}

/// Builds the single-service model for a scenario.
fn station_model(demand: f64, servers: u32) -> Option<ApplicationModel> {
    ApplicationModelBuilder::new()
        .service(
            "station",
            demand,
            1,
            servers.saturating_mul(4).max(64),
            servers,
        )
        .entry("station")
        .build()
        .ok()
}

/// Runs the DES on a flat trace and extracts the station measures.
fn run_des(
    rate: f64,
    demand: f64,
    servers: u32,
    duration: f64,
    seed: u64,
    hybrid: Option<HybridConfig>,
) -> Option<DesMeasures> {
    let model = station_model(demand, servers)?;
    let trace = LoadTrace::new(duration, vec![rate]).ok()?;
    let mut config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), seed);
    if let Some(h) = hybrid {
        config = config.with_hybrid(h);
    }
    let sim = Simulation::new(&model, &trace, config);
    let result = sim.run_to_end();
    if result.completed == 0 {
        return None;
    }
    let history = result.interval_history.first()?;
    let warmup = history.len() / 10;
    let mut snapshots = 0.0_f64;
    let mut queue_sum = 0.0_f64;
    let mut busy_weight = 0.0_f64;
    let mut util_sum = 0.0_f64;
    for (i, interval) in history.iter().enumerate() {
        util_sum += interval.utilization * interval.duration;
        busy_weight += interval.duration;
        if i >= warmup {
            queue_sum += u64_to_f64(u64::try_from(interval.queue_length_end).unwrap_or(u64::MAX));
            snapshots += 1.0;
        }
    }
    if snapshots < 1.0 || !(busy_weight > 0.0) {
        return None;
    }
    Some(DesMeasures {
        mean_response: result.mean_response_time(),
        mean_queue: queue_sum / snapshots,
        utilization: util_sum / busy_weight,
        sent: result.sent_per_second.iter().sum(),
        completed: result.completed,
        in_flight: result.in_flight_at_end,
    })
}

/// Confidence band for comparing two independent stochastic estimates:
/// the micro-simulator's batch-means error is doubled (the DES run
/// carries error of the same order), plus an absolute floor and a small
/// relative allowance for the DES warm-up transient.
fn band(reference: f64, estimate: Estimate, sigmas: f64, relative: f64) -> f64 {
    2.0 * sigmas * estimate.se + 1e-3 + relative * reference.abs()
}

/// Checks one scenario: pure DES against the micro-simulator, hybrid
/// aggregate mode against the analytic station law.
fn check_scenario(
    report: &mut OracleReport,
    config: &ConformanceConfig,
    rate: f64,
    demand: f64,
    servers: u32,
) {
    let duration = (u64_to_f64(config.sim_arrivals) / rate).ceil().max(600.0);
    let seed = config.seed ^ 0x0DE5_C04E ^ u64::from(servers) ^ rate.to_bits().rotate_left(17);

    let mut rng = rand_seed(config.seed ^ 0x0DE5_0000 ^ u64::from(servers));
    let Some(reference) = mmn_sim::simulate(rate, demand, servers, config.sim_arrivals, &mut rng)
    else {
        report.count_case();
        report.mismatch(format!(
            "des-core: micro-simulator produced no estimate for λ={rate} s={demand} n={servers}"
        ));
        return;
    };
    let Some(des) = run_des(rate, demand, servers, duration, seed, None) else {
        report.count_case();
        report.mismatch(format!(
            "des-core: DES run produced no measures for λ={rate} s={demand} n={servers}"
        ));
        return;
    };

    // Conservation: the per-second sent accounting, completions and the
    // in-flight remainder must reconcile exactly as integers.
    report.count_case();
    if des.sent != des.completed + des.in_flight {
        report.mismatch(format!(
            "des-core conservation: λ={rate} n={servers}: sent {} ≠ completed {} + in-flight {}",
            des.sent, des.completed, des.in_flight
        ));
    }

    // Mean waiting time: DES sojourn minus service demand vs the
    // micro-simulator's estimate, within batch-means bands.
    report.count_case();
    let des_wait = des.mean_response - demand;
    let wait_ref = reference.mean_waiting_time;
    let wait_band = band(wait_ref.value, wait_ref, config.tolerance_sigmas, 0.03);
    if (des_wait - wait_ref.value).abs() > wait_band {
        report.mismatch(format!(
            "des-core wait: λ={rate} n={servers}: DES {:.5} vs microsim {:.5} ± {:.5}",
            des_wait, wait_ref.value, wait_band
        ));
    }

    // Mean queue length: end-of-interval snapshots are a coarser (but
    // unbiased) sampler than the micro-simulator's time average, so the
    // relative allowance is wider.
    report.count_case();
    let queue_ref = reference.mean_queue_length;
    let queue_band = 0.05 + band(queue_ref.value, queue_ref, config.tolerance_sigmas, 0.20);
    if (des.mean_queue - queue_ref.value).abs() > queue_band {
        report.mismatch(format!(
            "des-core queue: λ={rate} n={servers}: DES {:.4} vs microsim {:.4} ± {:.4}",
            des.mean_queue, queue_ref.value, queue_band
        ));
    }

    // Utilization: busy fraction must match ρ = λ·s/n.
    report.count_case();
    let rho = rate * demand / f64::from(servers);
    if (des.utilization - rho).abs() > 0.035 {
        report.mismatch(format!(
            "des-core utilization: λ={rate} n={servers}: DES {:.4} vs ρ {:.4}",
            des.utilization, rho
        ));
    }

    check_hybrid(report, config, rate, demand, servers, duration, seed);
}

/// Forces the same scenario into the aggregate fluid regime and checks
/// the analytic synthesis: conservation stays exact, nearly every
/// admitted request completes, and the synthesized mean response time
/// reproduces the M/M/n law.
fn check_hybrid(
    report: &mut OracleReport,
    config: &ConformanceConfig,
    rate: f64,
    demand: f64,
    servers: u32,
    duration: f64,
    seed: u64,
) {
    let offered = rate * demand;
    let hybrid = HybridConfig::new(offered * 0.25, 0.5, 256);
    let Some(des) = run_des(rate, demand, servers, duration, seed, Some(hybrid)) else {
        report.count_case();
        report.mismatch(format!(
            "des-core hybrid: run produced no measures for λ={rate} s={demand} n={servers}"
        ));
        return;
    };

    report.count_case();
    if des.sent != des.completed + des.in_flight {
        report.mismatch(format!(
            "des-core hybrid conservation: λ={rate} n={servers}: sent {} ≠ completed {} + in-flight {}",
            des.sent, des.completed, des.in_flight
        ));
    }

    // A stable station completes what it admits, up to the in-flight tail.
    report.count_case();
    if u64_to_f64(des.completed) < 0.95 * u64_to_f64(des.sent) {
        report.mismatch(format!(
            "des-core hybrid throughput: λ={rate} n={servers}: completed {} of {} sent",
            des.completed, des.sent
        ));
    }

    // The aggregate regime attributes sojourns from Erlang-C tail
    // synthesis; its mean must track the analytic mean response time.
    report.count_case();
    match MmnQueue::new(rate, demand, servers).and_then(|q| q.mean_response_time()) {
        Ok(analytic) => {
            let tolerance = 0.002 + 0.02 * config.tolerance_sigmas * analytic;
            if (des.mean_response - analytic).abs() > tolerance {
                report.mismatch(format!(
                    "des-core hybrid response: λ={rate} n={servers}: DES {:.5} vs analytic {:.5} ± {:.5}",
                    des.mean_response, analytic, tolerance
                ));
            }
        }
        Err(err) => {
            report.mismatch(format!(
                "des-core hybrid response: λ={rate} n={servers}: analytic law unavailable: {err}"
            ));
        }
    }
}

/// Seeds a `StdRng` (thin wrapper so the seed expression reads clearly).
fn rand_seed(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Runs the DES-core oracle: every scenario's pure-DES statistics must
/// sit inside the micro-simulator's confidence bands, and the hybrid
/// fluid regime must reproduce the analytic station law.
pub fn run(config: &ConformanceConfig) -> OracleReport {
    let mut report = OracleReport::new("des-core");
    for &(rate, demand, servers) in DES_SCENARIOS {
        check_scenario(&mut report, config, rate, demand, servers);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_des_core_oracle_is_clean() {
        let report = run(&ConformanceConfig::quick());
        assert_eq!(report.oracle, "des-core");
        assert!(report.cases >= 24, "{}", report.cases);
        assert!(report.passed(), "{:?}", report.mismatches);
    }

    #[test]
    fn des_core_measures_a_station() {
        let measures = run_des(20.0, 0.2, 5, 900.0, 11, None).expect("measures");
        assert!(measures.sent > 0);
        assert_eq!(measures.sent, measures.completed + measures.in_flight);
        assert!(measures.utilization > 0.5 && measures.utilization < 1.0);
        assert!(measures.mean_response > 0.2, "{}", measures.mean_response);
    }
}
