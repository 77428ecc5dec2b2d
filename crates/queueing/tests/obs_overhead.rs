//! Overhead smoke test: the disabled observability path (a no-op
//! [`RecorderHandle`] plus a disabled metrics registry consulted on every
//! solve) must add less than 5 % to the capacity-solver sweep.
//!
//! Both sides are timed as the minimum over several trials — the minimum
//! is robust to scheduler noise, which is what makes a ratio assertion
//! safe in CI.

use chamulteon_obs::{Event, EventKind, Obs};
use chamulteon_queueing::capacity::min_instances_for_response_time_quantile;
use std::hint::black_box;
use std::time::Instant;

const RATES: usize = 60;
const DEMANDS: usize = 8;
const TRIALS: usize = 9;

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

fn min_time(mut work: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let acc = work();
        let elapsed = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.min(elapsed);
    }
    best
}

#[test]
fn disabled_observability_is_under_five_percent() {
    let obs = Obs::disabled();
    // Equal work on both sides, checked before timing anything.
    assert_eq!(sweep_plain(), sweep_observed(&obs));

    // Warm up once each, then take minima.
    let _ = (sweep_plain(), sweep_observed(&obs));
    let plain = min_time(sweep_plain);
    let observed = min_time(|| sweep_observed(&obs));

    let ratio = observed / plain.max(1e-12);
    eprintln!(
        "no-op observability overhead: {:+.2}% (plain {:.3} ms, observed {:.3} ms, {} solves/sweep)",
        (ratio - 1.0) * 100.0,
        plain * 1e3,
        observed * 1e3,
        RATES * DEMANDS,
    );
    assert!(
        ratio < 1.05,
        "no-op observability overhead {:.2}% (plain {:.3} ms, observed {:.3} ms)",
        (ratio - 1.0) * 100.0,
        plain * 1e3,
        observed * 1e3,
    );
}
