//! Overhead smoke test: the disabled observability path (a no-op
//! [`RecorderHandle`] plus a disabled metrics registry consulted on every
//! solve) must add less than 5 % to the capacity-solver sweep.
//!
//! One process's reading of the same binary moves from run to run by more
//! than the bound itself, in debug and release builds alike, so the
//! assertion is taken across processes:
//! [`disabled_observability_is_under_five_percent`] re-runs this test
//! binary [`PROCESSES`] times, each child running only [`overhead_sample`],
//! and asserts on the median of the children's ratios.
//! Within a child, plain and observed samples of several milliseconds
//! alternate, and each side keeps its minimum, which is robust to
//! scheduler noise.
//!
//! [`RecorderHandle`]: chamulteon_obs::RecorderHandle

use chamulteon_obs::{Event, EventKind, Obs};
use chamulteon_queueing::capacity::min_instances_for_response_time_quantile;
use std::hint::black_box;
use std::process::Command;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

const RATES: usize = 60;
const DEMANDS: usize = 8;
/// Fresh processes the assertion takes the median over.
const PROCESSES: usize = 5;
/// Alternating (plain, observed) sample pairs per process.
const PAIRS: usize = 15;
/// Minimum length of one sample, in seconds.
const SAMPLE_S: f64 = 0.004;
/// Marks the stderr line on which a child reports its ratio.
const RATIO_TAG: &str = "obs-overhead-ratio:";

/// Serialises the two tests, so that the in-process sample never times
/// itself beside the children when the suite runs tests in parallel.
static TIMING: Mutex<()> = Mutex::new(());

fn solve(rate: f64, demand: f64) -> u32 {
    min_instances_for_response_time_quantile(rate, demand, 4.0 * demand, 0.95, 200).unwrap_or(0)
}

fn sweep_plain() -> u64 {
    let mut acc = 0u64;
    for r in 0..RATES {
        let rate = 1.0 + 5.0 * r as f64;
        for d in 0..DEMANDS {
            let demand = 0.02 + 0.02 * d as f64;
            acc = acc.wrapping_add(u64::from(black_box(solve(black_box(rate), demand))));
        }
    }
    acc
}

fn sweep_observed(obs: &Obs) -> u64 {
    let mut acc = 0u64;
    for r in 0..RATES {
        let rate = 1.0 + 5.0 * r as f64;
        for d in 0..DEMANDS {
            let demand = 0.02 + 0.02 * d as f64;
            let n = black_box(solve(black_box(rate), demand));
            // The instrumented decision path: one event closure and one
            // counter touch per solve, both short-circuited when disabled.
            obs.record_with(|| {
                Event::cycle(
                    rate,
                    EventKind::CapacitySolve {
                        solved: u64::from(n),
                        held: 0,
                    },
                )
            });
            obs.metrics().increment("solves");
            acc = acc.wrapping_add(u64::from(n));
        }
    }
    acc
}

/// Seconds taken by `sweeps` back-to-back runs of `work`.
fn time(sweeps: u32, work: &mut impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    for _ in 0..sweeps {
        black_box(work());
    }
    start.elapsed().as_secs_f64()
}

/// This process's reading: observed over plain time, each side the
/// minimum over [`PAIRS`] alternating samples.
fn overhead_ratio() -> f64 {
    let obs = Obs::disabled();
    let mut plain = sweep_plain;
    let mut observed = || sweep_observed(&obs);
    // Equal work on both sides, checked before timing anything.
    assert_eq!(plain(), observed());

    // Enough sweeps per sample for it to last SAMPLE_S.
    let mut sweeps = 1u32;
    while time(sweeps, &mut plain) < SAMPLE_S {
        sweeps *= 2;
    }
    let (mut best_plain, mut best_observed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIRS {
        best_plain = best_plain.min(time(sweeps, &mut plain));
        best_observed = best_observed.min(time(sweeps, &mut observed));
    }
    best_observed / best_plain.max(1e-12)
}

/// The measurement each child process runs; in the suite's own run it
/// reports one more reading.
#[test]
fn overhead_sample() {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    eprintln!("{RATIO_TAG}{}", overhead_ratio());
}

#[test]
fn disabled_observability_is_under_five_percent() {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let exe = std::env::current_exe().expect("path of the running test binary");
    let mut ratios: Vec<f64> = (0..PROCESSES)
        .map(|_| {
            let child = Command::new(&exe)
                .args(["--exact", "overhead_sample", "--nocapture"])
                .output()
                .expect("re-run the test binary");
            let stderr = String::from_utf8_lossy(&child.stderr);
            assert!(child.status.success(), "child run failed:\n{stderr}");
            stderr
                .lines()
                .find_map(|line| line.split_once(RATIO_TAG))
                .and_then(|(_, ratio)| ratio.trim().parse().ok())
                .unwrap_or_else(|| panic!("child printed no ratio:\n{stderr}"))
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PROCESSES / 2];
    let percent = |ratio: f64| format!("{:+.2}%", (ratio - 1.0) * 100.0);
    let readings: Vec<String> = ratios.iter().map(|&r| percent(r)).collect();
    eprintln!(
        "no-op observability overhead: median {} over {PROCESSES} processes ({}), {} solves/sweep",
        percent(median),
        readings.join(", "),
        RATES * DEMANDS,
    );
    assert!(
        median < 1.05,
        "no-op observability overhead: median {} over {PROCESSES} processes ({})",
        percent(median),
        readings.join(", "),
    );
}
