//! Inverse capacity solvers: "how many instances do this load and this
//! target require?".
//!
//! Two flavours are used throughout the reproduction:
//!
//! * **utilization targets** — what the paper's Algorithm 1 does: grow or
//!   shrink `n` until `ρ = λ·s/n` falls inside `[ρ_lower, ρ_upper)`;
//! * **response-time (SLO) targets** — what the ground-truth *demand curve*
//!   `d_t` of the elasticity metrics needs: the minimal `n` such that the
//!   M/M/n mean response time meets the SLO.

use crate::erlang::ErlangSweep;
use crate::error::QueueingError;
use crate::mmn::MmnQueue;

/// Converts an instance count computed in `f64` to `u32`, saturating at the
/// bounds (non-positive and NaN map to 0, overflow to `u32::MAX`). This is
/// the designated place where capacity math narrows a float to an integer
/// count, so every call site inherits the range check.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#[must_use]
pub fn saturating_f64_to_u32(value: f64) -> u32 {
    if !(value > 0.0) {
        0
    } else if value >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        // audit:allow(lossy-cast): value checked non-negative and < u32::MAX above
        value as u32
    }
}

/// Minimal number of instances such that the utilization `λ·s/n` does not
/// exceed `target_utilization`, never less than 1.
///
/// This is the closed-form core of the paper's Algorithm 1 while-loops:
/// repeatedly incrementing `n` until `ρ < ρ_upper` lands on exactly
/// `ceil(λ·s / ρ_upper)`.
///
/// Degenerate inputs are forgiving by design (monitoring data can be noisy):
/// a non-positive or NaN arrival rate or service demand yields 1, and an
/// invalid utilization target (NaN, infinite, or ≤ 0) is treated as 1.0 —
/// the same policy `scalers` applies to `ScalerInput`, so every layer agrees
/// on what a broken target means instead of one clamping to `f64::EPSILON`
/// and demanding `u32::MAX` instances.
///
/// # Examples
///
/// ```
/// use chamulteon_queueing::capacity::min_instances_for_utilization;
///
/// // 200 req/s at 0.1 s demand and 80% target => 25 instances.
/// assert_eq!(min_instances_for_utilization(200.0, 0.1, 0.8), 25);
/// // An idle service still needs one instance.
/// assert_eq!(min_instances_for_utilization(0.0, 0.1, 0.8), 1);
/// ```
#[inline]
pub fn min_instances_for_utilization(
    arrival_rate: f64,
    service_demand: f64,
    target_utilization: f64,
) -> u32 {
    if !(arrival_rate > 0.0) || !(service_demand > 0.0) {
        return 1;
    }
    let target = if target_utilization.is_finite() && target_utilization > 0.0 {
        target_utilization.min(1.0)
    } else {
        1.0
    };
    let raw = arrival_rate * service_demand / target;
    // Guard the ceil against round-off on exact integer boundaries: treat
    // values within 1e-9 of an integer as that integer.
    let snapped = if (raw - raw.round()).abs() < 1e-9 {
        raw.round()
    } else {
        raw.ceil()
    };
    saturating_f64_to_u32(snapped).max(1)
}

/// Minimal number of instances such that the M/M/n mean response time is at
/// most `response_time_target` seconds, searched within `max_instances`.
///
/// Used to derive the ground-truth demand curve `d_t` — "the minimal amount
/// of resources required to meet the SLOs under the load intensity at time
/// `t`" (§IV-D).
///
/// # Errors
///
/// * [`QueueingError::NonPositive`] if the service demand or target is not
///   positive.
/// * [`QueueingError::Infeasible`] if the target is below the bare service
///   demand (no amount of horizontal scaling can beat `s`) — `required` is
///   `None`, no finite count works — or if more than `max_instances` would
///   be required, in which case `required` carries the *true minimal*
///   feasible count: feeding it back as `max_instances` is guaranteed to
///   succeed and return exactly that count (round-trip property).
///
/// # Examples
///
/// ```
/// use chamulteon_queueing::capacity::min_instances_for_response_time;
///
/// let n = min_instances_for_response_time(100.0, 0.1, 0.5, 1000)?;
/// assert!(n >= 11); // at least the stability bound ceil(10 Erlangs) + 1
/// # Ok::<(), chamulteon_queueing::QueueingError>(())
/// ```
pub fn min_instances_for_response_time(
    arrival_rate: f64,
    service_demand: f64,
    response_time_target: f64,
    max_instances: u32,
) -> Result<u32, QueueingError> {
    if !(service_demand > 0.0) {
        return Err(QueueingError::NonPositive {
            name: "service_demand",
            value: service_demand,
        });
    }
    if !(response_time_target > 0.0) {
        return Err(QueueingError::NonPositive {
            name: "response_time_target",
            value: response_time_target,
        });
    }
    if !(arrival_rate > 0.0) {
        return Ok(1);
    }
    if response_time_target < service_demand {
        return Err(QueueingError::Infeasible {
            required: None,
            max_allowed: max_instances,
        });
    }
    incremental_search(
        arrival_rate,
        service_demand,
        response_time_target,
        max_instances,
        |c, n| {
            // MmnQueue::mean_response_time, op for op: E[W_q] + s with
            // E[W_q] = C(n, a) / (n·μ − λ) and μ = 1/s.
            c / (f64::from(n) * (1.0 / service_demand) - arrival_rate) + service_demand
        },
    )
}

/// Minimal number of instances such that the approximate `p`-quantile of
/// the M/M/n response time is at most `response_time_target` seconds.
///
/// This is the solver behind the ground-truth demand curve: an SLO on
/// response time is violated *per request*, so meeting it "most of the
/// time" requires bounding a quantile, not the mean — near saturation the
/// mean can satisfy the target while a third of the requests miss it.
///
/// # Errors
///
/// Same contract as [`min_instances_for_response_time`], plus
/// [`QueueingError::OutOfRange`] for `p` outside `(0, 1)`.
pub fn min_instances_for_response_time_quantile(
    arrival_rate: f64,
    service_demand: f64,
    response_time_target: f64,
    p: f64,
    max_instances: u32,
) -> Result<u32, QueueingError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(QueueingError::OutOfRange {
            name: "quantile",
            value: p,
        });
    }
    if !(service_demand > 0.0) {
        return Err(QueueingError::NonPositive {
            name: "service_demand",
            value: service_demand,
        });
    }
    if !(response_time_target > 0.0) {
        return Err(QueueingError::NonPositive {
            name: "response_time_target",
            value: response_time_target,
        });
    }
    if !(arrival_rate > 0.0) {
        return Ok(1);
    }
    if response_time_target < service_demand {
        return Err(QueueingError::Infeasible {
            required: None,
            max_allowed: max_instances,
        });
    }
    incremental_search(
        arrival_rate,
        service_demand,
        response_time_target,
        max_instances,
        |c, n| {
            // MmnQueue::response_time_quantile, op for op: the waiting-time
            // quantile ln(C/(1−p)) / (n·μ − λ) (0 when C ≤ 1−p) plus s.
            let wait = if c <= 1.0 - p {
                0.0
            } else {
                (c / (1.0 - p)).ln() / (f64::from(n) * (1.0 / service_demand) - arrival_rate)
            };
            wait + service_demand
        },
    )
}

/// The shared incremental search: walks `n` upward from the stability
/// bound, carrying the Erlang recurrence state in an [`ErlangSweep`] so the
/// whole search costs O(n_final) recurrence steps instead of the O(n²) of
/// re-deriving the blocking probability from scratch per candidate.
///
/// `metric(c, n)` maps the Erlang-C waiting probability at `n` servers to
/// the response-time measure under test; it must replicate the
/// corresponding [`MmnQueue`] accessor bit-for-bit, which keeps this search
/// bit-equal to the naive [`naive`] reference (pinned by property tests).
fn incremental_search<M>(
    arrival_rate: f64,
    service_demand: f64,
    response_time_target: f64,
    max_instances: u32,
    metric: M,
) -> Result<u32, QueueingError>
where
    M: Fn(f64, u32) -> f64,
{
    // Stability requires n > a; start the search there.
    let a = arrival_rate * service_demand;
    let stability_bound = saturating_f64_to_u32(a.floor()).saturating_add(1).max(1);
    let mut sweep = ErlangSweep::new(a)?;
    sweep.advance_to(stability_bound);
    let mut n = stability_bound;
    // Walk upward until the metric first meets the target. The walk does
    // not stop at `max_instances`: past the budget it keeps going so that
    // `Infeasible::required` reports the *true* minimal count — a bound
    // that round-trips when fed back as the budget. Termination is
    // guaranteed because the Erlang-C probability decays to zero as `n`
    // grows, driving every supported metric down to the bare demand `s`
    // (and targets below `s` are rejected before this search runs).
    let minimal = loop {
        if let Ok(c) = sweep.waiting() {
            if metric(c, n) <= response_time_target {
                break Some(n);
            }
        }
        if n == u32::MAX {
            break None;
        }
        n = n.saturating_add(1);
        sweep.advance_to(n);
    };
    match minimal {
        Some(n) if n <= max_instances => Ok(n),
        required => Err(QueueingError::Infeasible {
            required,
            max_allowed: max_instances,
        }),
    }
}

/// The original O(n²) reference searches, retained verbatim so property
/// tests can pin the incremental solvers bit-equal to them and so the
/// solver microbenchmark has a faithful "before" baseline.
///
/// These rebuild the Erlang-B recurrence from `k = 1` for every candidate
/// `n` via a fresh [`MmnQueue`]; production code should use the
/// incremental entry points in the parent module instead.
pub mod naive {
    use super::{saturating_f64_to_u32, MmnQueue, QueueingError};

    /// Reference implementation of
    /// [`min_instances_for_response_time`](super::min_instances_for_response_time):
    /// identical contract and — by construction — identical results,
    /// at O(n²) recurrence cost.
    ///
    /// # Errors
    ///
    /// Same contract as the incremental solver.
    pub fn min_instances_for_response_time(
        arrival_rate: f64,
        service_demand: f64,
        response_time_target: f64,
        max_instances: u32,
    ) -> Result<u32, QueueingError> {
        if !(service_demand > 0.0) {
            return Err(QueueingError::NonPositive {
                name: "service_demand",
                value: service_demand,
            });
        }
        if !(response_time_target > 0.0) {
            return Err(QueueingError::NonPositive {
                name: "response_time_target",
                value: response_time_target,
            });
        }
        if !(arrival_rate > 0.0) {
            return Ok(1);
        }
        if response_time_target < service_demand {
            return Err(QueueingError::Infeasible {
                required: None,
                max_allowed: max_instances,
            });
        }
        let a = arrival_rate * service_demand;
        let stability_bound = saturating_f64_to_u32(a.floor()).saturating_add(1).max(1);
        let mut n = stability_bound;
        // Like the incremental solver, the walk continues past the budget
        // so `Infeasible::required` reports the true minimal count.
        let minimal = loop {
            let station = MmnQueue::new(arrival_rate, service_demand, n)?;
            if let Ok(r) = station.mean_response_time() {
                if r <= response_time_target {
                    break Some(n);
                }
            }
            if n == u32::MAX {
                break None;
            }
            n = n.saturating_add(1);
        };
        match minimal {
            Some(n) if n <= max_instances => Ok(n),
            required => Err(QueueingError::Infeasible {
                required,
                max_allowed: max_instances,
            }),
        }
    }

    /// Reference implementation of
    /// [`min_instances_for_response_time_quantile`](super::min_instances_for_response_time_quantile),
    /// at O(n²) recurrence cost.
    ///
    /// # Errors
    ///
    /// Same contract as the incremental solver.
    pub fn min_instances_for_response_time_quantile(
        arrival_rate: f64,
        service_demand: f64,
        response_time_target: f64,
        p: f64,
        max_instances: u32,
    ) -> Result<u32, QueueingError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(QueueingError::OutOfRange {
                name: "quantile",
                value: p,
            });
        }
        if !(service_demand > 0.0) {
            return Err(QueueingError::NonPositive {
                name: "service_demand",
                value: service_demand,
            });
        }
        if !(response_time_target > 0.0) {
            return Err(QueueingError::NonPositive {
                name: "response_time_target",
                value: response_time_target,
            });
        }
        if !(arrival_rate > 0.0) {
            return Ok(1);
        }
        if response_time_target < service_demand {
            return Err(QueueingError::Infeasible {
                required: None,
                max_allowed: max_instances,
            });
        }
        let a = arrival_rate * service_demand;
        let stability_bound = saturating_f64_to_u32(a.floor()).saturating_add(1).max(1);
        let mut n = stability_bound;
        let minimal = loop {
            let station = MmnQueue::new(arrival_rate, service_demand, n)?;
            if let Ok(r) = station.response_time_quantile(p) {
                if r <= response_time_target {
                    break Some(n);
                }
            }
            if n == u32::MAX {
                break None;
            }
            n = n.saturating_add(1);
        };
        match minimal {
            Some(n) if n <= max_instances => Ok(n),
            required => Err(QueueingError::Infeasible {
                required,
                max_allowed: max_instances,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_solver_matches_ceil_formula() {
        assert_eq!(min_instances_for_utilization(85.0, 0.1, 0.8), 11);
        assert_eq!(min_instances_for_utilization(200.0, 0.1, 0.8), 25);
        assert_eq!(min_instances_for_utilization(17.0, 0.059, 0.85), 2);
    }

    #[test]
    fn utilization_solver_exact_boundary_not_overshot() {
        // 80 req/s * 0.1 s / 0.8 = exactly 10 instances.
        assert_eq!(min_instances_for_utilization(80.0, 0.1, 0.8), 10);
    }

    #[test]
    fn utilization_solver_minimum_is_one() {
        assert_eq!(min_instances_for_utilization(0.0, 0.1, 0.8), 1);
        assert_eq!(min_instances_for_utilization(-5.0, 0.1, 0.8), 1);
        assert_eq!(min_instances_for_utilization(0.001, 0.1, 0.8), 1);
        assert_eq!(min_instances_for_utilization(f64::NAN, 0.1, 0.8), 1);
    }

    #[test]
    fn utilization_solver_clamps_target() {
        // Target > 1 behaves like 1 (full utilization allowed).
        assert_eq!(min_instances_for_utilization(100.0, 0.1, 5.0), 10);
        assert_eq!(min_instances_for_utilization(100.0, 0.1, f64::NAN), 10);
    }

    #[test]
    fn utilization_solver_treats_non_positive_target_as_full_utilization() {
        // Regression: a target of 0 or below used to be clamped to
        // `f64::EPSILON`, demanding u32::MAX instances for any load.
        // The unified policy treats every invalid target as 1.0.
        assert_eq!(min_instances_for_utilization(100.0, 0.1, 0.0), 10);
        assert_eq!(min_instances_for_utilization(100.0, 0.1, -0.5), 10);
        assert_eq!(
            min_instances_for_utilization(100.0, 0.1, f64::NEG_INFINITY),
            10
        );
        assert_eq!(min_instances_for_utilization(100.0, 0.1, f64::INFINITY), 10);
    }

    #[test]
    fn utilization_solver_result_meets_target() {
        for &(lambda, s, rho) in &[
            (12.3, 0.059, 0.75),
            (456.0, 0.04, 0.9),
            (99.9, 0.1, 0.5),
            (1.0, 2.0, 0.66),
        ] {
            let n = min_instances_for_utilization(lambda, s, rho);
            let util = lambda * s / f64::from(n);
            assert!(util <= rho + 1e-9, "lambda={lambda} s={s} rho={rho} n={n}");
            // Minimality: one fewer instance would violate the target
            // (unless already at the floor of 1).
            if n > 1 {
                let util_less = lambda * s / f64::from(n - 1);
                assert!(util_less > rho, "not minimal for lambda={lambda}");
            }
        }
    }

    #[test]
    fn response_time_solver_meets_slo_and_is_minimal() {
        let n = min_instances_for_response_time(100.0, 0.1, 0.15, 1000).unwrap();
        let ok = MmnQueue::new(100.0, 0.1, n)
            .unwrap()
            .mean_response_time()
            .unwrap();
        assert!(ok <= 0.15);
        if n > 1 {
            let worse = MmnQueue::new(100.0, 0.1, n - 1).unwrap();
            let violated = match worse.mean_response_time() {
                Ok(r) => r > 0.15,
                Err(_) => true, // unstable also violates
            };
            assert!(violated);
        }
    }

    #[test]
    fn response_time_solver_idle_needs_one() {
        assert_eq!(
            min_instances_for_response_time(0.0, 0.1, 0.5, 100).unwrap(),
            1
        );
    }

    #[test]
    fn response_time_solver_rejects_impossible_target() {
        // Cannot reach 0.05 s when the bare demand is 0.1 s.
        assert!(matches!(
            min_instances_for_response_time(10.0, 0.1, 0.05, 100),
            Err(QueueingError::Infeasible { .. })
        ));
    }

    #[test]
    fn response_time_solver_respects_max_instances() {
        assert!(matches!(
            min_instances_for_response_time(1000.0, 0.1, 0.11, 50),
            Err(QueueingError::Infeasible {
                max_allowed: 50,
                ..
            })
        ));
    }

    #[test]
    fn response_time_solver_rejects_bad_inputs() {
        assert!(min_instances_for_response_time(10.0, 0.0, 0.5, 100).is_err());
        assert!(min_instances_for_response_time(10.0, 0.1, 0.0, 100).is_err());
        assert!(min_instances_for_response_time(10.0, 0.1, -1.0, 100).is_err());
    }

    #[test]
    fn quantile_solver_needs_more_than_mean_solver() {
        // Bounding the 90th percentile requires at least as many instances
        // as bounding the mean.
        for &lambda in &[50.0, 150.0, 400.0] {
            let mean_n = min_instances_for_response_time(lambda, 0.1, 0.2, 10_000).unwrap();
            let q_n =
                min_instances_for_response_time_quantile(lambda, 0.1, 0.2, 0.9, 10_000).unwrap();
            assert!(q_n >= mean_n, "lambda={lambda}: {q_n} vs {mean_n}");
        }
    }

    #[test]
    fn quantile_solver_meets_target() {
        let n = min_instances_for_response_time_quantile(150.0, 0.1, 0.25, 0.9, 10_000).unwrap();
        let q = MmnQueue::new(150.0, 0.1, n).unwrap();
        assert!(q.response_time_quantile(0.9).unwrap() <= 0.25);
        if n > 1 {
            let worse = MmnQueue::new(150.0, 0.1, n - 1).unwrap();
            let violated = match worse.response_time_quantile(0.9) {
                Ok(r) => r > 0.25,
                Err(_) => true,
            };
            assert!(violated, "not minimal");
        }
    }

    #[test]
    fn quantile_solver_validates_inputs() {
        assert!(min_instances_for_response_time_quantile(10.0, 0.1, 0.5, 0.0, 100).is_err());
        assert!(min_instances_for_response_time_quantile(10.0, 0.1, 0.5, 1.0, 100).is_err());
        assert!(min_instances_for_response_time_quantile(10.0, 0.1, 0.05, 0.9, 100).is_err());
        assert_eq!(
            min_instances_for_response_time_quantile(0.0, 0.1, 0.5, 0.9, 100).unwrap(),
            1
        );
    }

    #[test]
    fn infeasible_reports_true_minimum() {
        // 1000 req/s · 0.1 s = 100 Erlangs: stability needs ≥ 101, more
        // than the 50 allowed — the error reports the count that actually
        // meets the target, not just the stability bound.
        let unconstrained = min_instances_for_response_time(1000.0, 0.1, 0.11, u32::MAX).unwrap();
        match min_instances_for_response_time(1000.0, 0.1, 0.11, 50) {
            Err(QueueingError::Infeasible {
                required,
                max_allowed,
            }) => {
                assert_eq!(required, Some(unconstrained));
                assert!(
                    unconstrained > 101,
                    "target 0.11 needs headroom over stability"
                );
                assert_eq!(max_allowed, 50);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        let q_unconstrained =
            min_instances_for_response_time_quantile(1000.0, 0.1, 0.11, 0.9, u32::MAX).unwrap();
        match min_instances_for_response_time_quantile(1000.0, 0.1, 0.11, 0.9, 50) {
            Err(QueueingError::Infeasible { required, .. }) => {
                assert_eq!(required, Some(q_unconstrained));
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // An impossible target (below the bare demand) stays `None`: no
        // finite instance count works at all.
        match min_instances_for_response_time(10.0, 0.1, 0.05, 100) {
            Err(QueueingError::Infeasible { required, .. }) => assert_eq!(required, None),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_required_round_trips() {
        // Regression: the reported `required` used to be the stability
        // bound `⌊λ·s⌋ + 1`, which could be *rejected* when fed back as
        // the budget. The contract now is a round-trip: re-solving with
        // `required` as `max_instances` succeeds and returns `required`.
        for &(lambda, s, t) in &[
            (1000.0, 0.1, 0.11),
            (456.0, 0.04, 0.041),
            (85.0, 0.1, 0.101),
            (150.0, 0.059, 0.06),
        ] {
            let Err(QueueingError::Infeasible {
                required: Some(req),
                ..
            }) = min_instances_for_response_time(lambda, s, t, 1)
            else {
                panic!("expected Infeasible with required for λ={lambda}");
            };
            assert_eq!(
                min_instances_for_response_time(lambda, s, t, req),
                Ok(req),
                "λ={lambda} s={s} t={t}: required={req} does not round-trip"
            );
            let Err(QueueingError::Infeasible {
                required: Some(qreq),
                ..
            }) = min_instances_for_response_time_quantile(lambda, s, t, 0.9, 1)
            else {
                panic!("expected Infeasible with required (quantile) for λ={lambda}");
            };
            assert_eq!(
                min_instances_for_response_time_quantile(lambda, s, t, 0.9, qreq),
                Ok(qreq),
                "quantile λ={lambda} s={s} t={t}: required={qreq} does not round-trip"
            );
        }
    }

    #[test]
    fn incremental_matches_naive_on_grid() {
        for &lambda in &[0.5, 17.0, 85.0, 150.0, 456.0, 1000.0] {
            for &s in &[0.04, 0.059, 0.1, 1.0] {
                for &target in &[0.05, 0.12, 0.25, 0.5, 2.0] {
                    let fast = min_instances_for_response_time(lambda, s, target, 500);
                    let slow = naive::min_instances_for_response_time(lambda, s, target, 500);
                    assert_eq!(fast, slow, "mean λ={lambda} s={s} t={target}");
                    for &p in &[0.5, 0.9, 0.99] {
                        let fast =
                            min_instances_for_response_time_quantile(lambda, s, target, p, 500);
                        let slow = naive::min_instances_for_response_time_quantile(
                            lambda, s, target, p, 500,
                        );
                        assert_eq!(fast, slow, "q λ={lambda} s={s} t={target} p={p}");
                    }
                }
            }
        }
    }
}
