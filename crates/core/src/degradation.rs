//! The graceful-degradation ladder: what the controller does when its
//! environment misbehaves, and the record it keeps of every degraded step.
//!
//! The Chamulteon reproduction treats robustness as a *ladder*, not a
//! cliff. When monitoring or actuation degrades, the controller walks down
//! one rung at a time instead of panicking:
//!
//! 1. **Validate at the boundary** — raw monitoring readings are checked
//!    by `MonitoringSample::from_observed`; NaN, negative or non-finite
//!    values are quarantined before any estimator sees them. Readings
//!    that pass field validation but report an implausibly spiked arrival
//!    rate are rejected by the [`SpikeGate`] — unless the spike persists,
//!    in which case it is accepted as a genuine load shift.
//! 2. **Hold the last good sample** — a quarantined or missing sample is
//!    replaced by the service's most recent valid one.
//! 3. **Synthesize** — with no history at all, a zero-arrival stand-in
//!    keeps the tick well-formed.
//! 4. **Proactive over reactive** — a stale entry rate is excluded from
//!    the forecast history; the active forecast keeps driving decisions
//!    through monitoring dropouts.
//! 5. **Hold the last decision** — when *every* sample is degraded, the
//!    previous targets are re-issued rather than scaling on fiction.
//! 6. **Bounded retry** — transient actuation failures are retried with
//!    capped exponential backoff ([`RetryPolicy`]) and then abandoned.
//!
//! Every rung taken is recorded as a [`DegradationEvent`] in a
//! [`DegradationLog`], so experiments can report *how often* a scaler ran
//! degraded next to *how well* it scaled.

use chamulteon_demand::MonitoringSample;

/// One rung of the degradation ladder, taken at a specific decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// A raw monitoring reading failed boundary validation (NaN, negative
    /// or non-finite fields) and was discarded.
    SampleQuarantined {
        /// The service whose sample was discarded.
        service: usize,
    },
    /// A sample passed field validation but reported an arrival rate
    /// implausibly far above the last accepted one (a spike) and was
    /// rejected by the [`SpikeGate`].
    SampleImplausible {
        /// The service whose sample was rejected.
        service: usize,
    },
    /// A missing or quarantined sample was replaced by the service's last
    /// valid one.
    SampleHeld {
        /// The service whose sample was substituted.
        service: usize,
    },
    /// No valid sample was ever seen for the service; a zero-arrival
    /// stand-in was synthesized.
    SampleSynthesized {
        /// The service whose sample was synthesized.
        service: usize,
    },
    /// The entry service's arrival rate was not freshly measured this
    /// tick, so the observation was excluded from the forecast history.
    EntryRateUnusable,
    /// The forecaster could not produce a forecast from the available
    /// history; the proactive cycle sat this round out.
    ForecastFailed,
    /// Every service's sample was degraded; the previous targets were
    /// re-issued unchanged.
    HeldLastDecision,
    /// A scaling command failed transiently and was retried.
    ActuationRetried {
        /// The service whose actuation was retried.
        service: usize,
        /// Zero-based retry number (0 = first retry).
        attempt: u32,
    },
    /// A scaling command kept failing past the retry budget and was
    /// abandoned for this tick.
    ActuationAbandoned {
        /// The service whose actuation was abandoned.
        service: usize,
    },
}

impl DegradationReason {
    /// Stable snake_case code for reports, traces and chaos tests —
    /// matching on this, not on debug formatting, is the supported way
    /// to identify a rung.
    pub fn as_code(&self) -> &'static str {
        match self {
            DegradationReason::SampleQuarantined { .. } => "sample_quarantined",
            DegradationReason::SampleImplausible { .. } => "sample_implausible",
            DegradationReason::SampleHeld { .. } => "sample_held",
            DegradationReason::SampleSynthesized { .. } => "sample_synthesized",
            DegradationReason::EntryRateUnusable => "entry_rate_unusable",
            DegradationReason::ForecastFailed => "forecast_failed",
            DegradationReason::HeldLastDecision => "held_last_decision",
            DegradationReason::ActuationRetried { .. } => "actuation_retried",
            DegradationReason::ActuationAbandoned { .. } => "actuation_abandoned",
        }
    }

    /// The service the rung concerns, when it is per-service.
    pub fn service(&self) -> Option<usize> {
        match self {
            DegradationReason::SampleQuarantined { service }
            | DegradationReason::SampleImplausible { service }
            | DegradationReason::SampleHeld { service }
            | DegradationReason::SampleSynthesized { service }
            | DegradationReason::ActuationRetried { service, .. }
            | DegradationReason::ActuationAbandoned { service } => Some(*service),
            DegradationReason::EntryRateUnusable
            | DegradationReason::ForecastFailed
            | DegradationReason::HeldLastDecision => None,
        }
    }

    /// The retry attempt number, for the actuation-retry rung.
    pub fn attempt(&self) -> Option<u32> {
        match self {
            DegradationReason::ActuationRetried { attempt, .. } => Some(*attempt),
            _ => None,
        }
    }

    /// The inverse of [`as_code`](Self::as_code) /
    /// [`service`](Self::service) / [`attempt`](Self::attempt): rebuilds
    /// a reason from its decomposed parts, rejecting unknown codes and
    /// per-service codes missing their service. Used when decoding a
    /// controller snapshot.
    pub(crate) fn from_parts(
        code: &str,
        service: Option<usize>,
        attempt: Option<u32>,
    ) -> Option<Self> {
        match (code, service) {
            ("sample_quarantined", Some(service)) => {
                Some(DegradationReason::SampleQuarantined { service })
            }
            ("sample_implausible", Some(service)) => {
                Some(DegradationReason::SampleImplausible { service })
            }
            ("sample_held", Some(service)) => Some(DegradationReason::SampleHeld { service }),
            ("sample_synthesized", Some(service)) => {
                Some(DegradationReason::SampleSynthesized { service })
            }
            ("entry_rate_unusable", None) => Some(DegradationReason::EntryRateUnusable),
            ("forecast_failed", None) => Some(DegradationReason::ForecastFailed),
            ("held_last_decision", None) => Some(DegradationReason::HeldLastDecision),
            ("actuation_retried", Some(service)) => Some(DegradationReason::ActuationRetried {
                service,
                attempt: attempt?,
            }),
            ("actuation_abandoned", Some(service)) => {
                Some(DegradationReason::ActuationAbandoned { service })
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_code())
    }
}

/// A [`DegradationReason`] stamped with the decision time it occurred at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationEvent {
    /// Decision time in seconds.
    pub time: f64,
    /// Which rung of the ladder was taken.
    pub reason: DegradationReason,
}

/// An append-only record of every degraded decision, kept by the
/// controller and mergeable with the experiment harness's own entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationLog {
    events: Vec<DegradationEvent>,
}

impl DegradationLog {
    /// An empty log.
    pub fn new() -> Self {
        DegradationLog::default()
    }

    /// Appends one event.
    pub fn record(&mut self, time: f64, reason: DegradationReason) {
        self.events.push(DegradationEvent { time, reason });
    }

    /// All events, in recording order.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing degraded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Absorbs another log's events (e.g. the harness's actuation-retry
    /// entries into the controller's monitoring entries).
    pub fn merge(&mut self, other: DegradationLog) {
        self.events.extend(other.events);
    }

    /// How many events match a predicate on the reason.
    pub fn count_matching(&self, predicate: impl Fn(&DegradationReason) -> bool) -> usize {
        self.events.iter().filter(|e| predicate(&e.reason)).count()
    }
}

/// Bounded retry with capped exponential backoff for transient actuation
/// failures (ladder rung 6). The policy sizes the budget and the
/// backoffs; the experiment harness runs the retry loop, advancing its
/// simulated clock by [`backoff`](RetryPolicy::backoff) between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per command, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff: f64,
    /// Upper bound on any single backoff, in seconds.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    /// Three attempts, 2 s initial backoff, 30 s cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 2.0,
            max_backoff: 30.0,
        }
    }
}

impl RetryPolicy {
    /// Creates a sanitized policy: at least one attempt, non-negative
    /// finite backoffs, cap no smaller than the base.
    pub fn new(max_attempts: u32, base_backoff: f64, max_backoff: f64) -> Self {
        let base = if base_backoff.is_finite() {
            base_backoff.max(0.0)
        } else {
            RetryPolicy::default().base_backoff
        };
        let cap = if max_backoff.is_finite() {
            max_backoff.max(base)
        } else {
            f64::MAX
        };
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: base,
            max_backoff: cap,
        }
    }

    /// A policy that never retries (one attempt, no backoff).
    pub fn no_retries() -> Self {
        RetryPolicy::new(1, 0.0, 0.0)
    }

    /// The backoff in seconds before retry number `attempt` (0-based):
    /// `min(base · 2^attempt, cap)`. Always finite, non-negative and
    /// monotone non-decreasing in `attempt`, even for a policy whose
    /// public fields were set directly to NaN/∞/negative values instead
    /// of going through the sanitizing [`new`](RetryPolicy::new): the
    /// same field sanitization is applied here, so a degenerate field
    /// can stall a retry loop at a zero backoff but never poison the
    /// simulated clock with a non-finite advance.
    pub fn backoff(&self, attempt: u32) -> f64 {
        let base = if self.base_backoff.is_finite() {
            self.base_backoff.max(0.0)
        } else {
            0.0
        };
        let cap = if self.max_backoff.is_finite() {
            self.max_backoff.max(0.0)
        } else {
            f64::MAX
        };
        // 2^1024 overflows f64; clamping the exponent keeps the power
        // finite and the `min` below then applies the real cap.
        let exponent = i32::try_from(attempt.min(1023)).unwrap_or(1023);
        let raw = base * 2.0_f64.powi(exponent);
        if raw.is_finite() {
            raw.min(cap)
        } else {
            cap
        }
    }
}

/// Largest plausible ratio between consecutive accepted arrival rates —
/// a reported rate more than this factor above the last accepted one is
/// treated as a corrupted spike, not a real load change.
pub const SPIKE_RATE_FACTOR: f64 = 4.0;

/// Rates below this floor (requests per second) never trip the spike
/// check: at near-idle load, large *relative* jumps are routine.
pub const SPIKE_RATE_FLOOR: f64 = 10.0;

/// After this many consecutive over-limit readings the gate yields: a
/// spike that persists is a genuine load shift (e.g. a flash crowd), and
/// holding it out any longer would starve the scaler of real demand.
pub const SPIKE_PERSISTENCE: u32 = 3;

/// Per-service plausibility gate for arrival rates (part of ladder
/// rung 1): corrupted spikes pass field validation — the numbers are
/// finite and positive — but would poison the demand estimator, so the
/// gate rejects any rate more than [`SPIKE_RATE_FACTOR`] above the last
/// accepted one. A rejected level that persists for
/// [`SPIKE_PERSISTENCE`] consecutive readings is accepted as a real load
/// shift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpikeGate {
    last_rate: Option<f64>,
    streak: u32,
}

impl SpikeGate {
    /// A gate with no history (the first reading is always admitted).
    pub fn new() -> Self {
        SpikeGate::default()
    }

    /// Unconditionally accepts a trusted rate as the new baseline (the
    /// validated `tick` path keeps the gate in sync this way).
    pub fn reset_to(&mut self, rate: f64) {
        self.last_rate = Some(rate);
        self.streak = 0;
    }

    /// Decides whether a validated sample's arrival rate is plausible.
    /// Admitted rates become the new comparison baseline; rejected ones
    /// count toward the persistence override.
    pub fn admit(&mut self, rate: f64) -> bool {
        let plausible = match self.last_rate {
            None => true,
            Some(prev) => rate <= SPIKE_RATE_FACTOR * prev.max(SPIKE_RATE_FLOOR),
        };
        if plausible || self.streak + 1 >= SPIKE_PERSISTENCE {
            self.last_rate = Some(rate);
            self.streak = 0;
            true
        } else {
            self.streak += 1;
            false
        }
    }

    /// The gate's full state — `(last accepted rate, rejection streak)` —
    /// for the controller's crash-recovery snapshot.
    pub(crate) fn state(&self) -> (Option<f64>, u32) {
        (self.last_rate, self.streak)
    }

    /// Rebuilds a gate from captured state, verbatim.
    pub(crate) fn restore(last_rate: Option<f64>, streak: u32) -> Self {
        SpikeGate { last_rate, streak }
    }
}

/// What the controller is given for one service on a degraded tick — the
/// input type of `Chamulteon::tick_observed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observation {
    /// The monitoring sample never arrived.
    Missing,
    /// A sample that already passed validation.
    Sample(MonitoringSample),
    /// Raw readings from an untrusted pipeline; validated at the boundary
    /// via `MonitoringSample::from_observed` and quarantined on failure.
    Raw {
        /// Reported window length in seconds.
        duration: f64,
        /// Reported arrivals (may be NaN/negative when corrupted).
        arrivals: f64,
        /// Reported completions (may be NaN/negative when corrupted).
        completions: f64,
        /// Reported utilization.
        utilization: f64,
        /// Reported running instances.
        instances: u32,
        /// Reported mean response time, when measured.
        mean_response_time: Option<f64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_and_merges() {
        let mut a = DegradationLog::new();
        assert!(a.is_empty());
        a.record(60.0, DegradationReason::SampleQuarantined { service: 0 });
        a.record(120.0, DegradationReason::EntryRateUnusable);
        let mut b = DegradationLog::new();
        b.record(
            120.0,
            DegradationReason::ActuationRetried {
                service: 1,
                attempt: 0,
            },
        );
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.events()[2].time, 120.0);
        assert_eq!(
            a.count_matching(|r| matches!(r, DegradationReason::ActuationRetried { .. })),
            1
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(5, 2.0, 30.0);
        assert_eq!(p.backoff(0), 2.0);
        assert_eq!(p.backoff(1), 4.0);
        assert_eq!(p.backoff(2), 8.0);
        assert_eq!(p.backoff(3), 16.0);
        assert_eq!(p.backoff(4), 30.0, "capped");
        assert_eq!(p.backoff(100), 30.0, "no overflow at huge attempts");
        assert_eq!(p.backoff(u32::MAX), 30.0);
    }

    #[test]
    fn policy_sanitizes_inputs() {
        let p = RetryPolicy::new(0, -1.0, -5.0);
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.base_backoff, 0.0);
        assert_eq!(p.max_backoff, 0.0);
        let p = RetryPolicy::new(2, f64::NAN, 1.0);
        assert_eq!(p.base_backoff, RetryPolicy::default().base_backoff);
        let p = RetryPolicy::new(2, 10.0, 1.0);
        assert_eq!(p.max_backoff, 10.0, "cap raised to the base");
    }

    #[test]
    fn spike_gate_rejects_jumps_and_yields_to_persistence() {
        let mut gate = SpikeGate::new();
        assert!(gate.admit(100.0), "first reading always admitted");
        assert!(gate.admit(150.0), "modest growth is fine");
        assert!(!gate.admit(1500.0), "10x jump rejected");
        assert!(gate.admit(160.0), "normal rate still flows after a spike");
        // A persistent elevated level is a real load shift: rejected
        // twice, admitted on the third consecutive sighting.
        assert!(!gate.admit(1500.0));
        assert!(!gate.admit(1490.0));
        assert!(gate.admit(1510.0), "persistence override");
        assert!(gate.admit(1400.0), "baseline moved to the new level");
    }

    #[test]
    fn spike_gate_ignores_low_rate_noise() {
        let mut gate = SpikeGate::new();
        assert!(gate.admit(0.1));
        // 50x relative jump, but under the floor's multiple: admitted.
        assert!(gate.admit(5.0));
        assert!(gate.admit(39.0), "just under 4x the 10 req/s floor");
        assert!(!gate.admit(250.0), "above 4x the 39 baseline");
    }

    #[test]
    fn reason_codes_are_stable() {
        let cases = [
            (
                DegradationReason::SampleQuarantined { service: 2 },
                "sample_quarantined",
                Some(2),
                None,
            ),
            (
                DegradationReason::SampleImplausible { service: 0 },
                "sample_implausible",
                Some(0),
                None,
            ),
            (
                DegradationReason::SampleHeld { service: 1 },
                "sample_held",
                Some(1),
                None,
            ),
            (
                DegradationReason::SampleSynthesized { service: 3 },
                "sample_synthesized",
                Some(3),
                None,
            ),
            (
                DegradationReason::EntryRateUnusable,
                "entry_rate_unusable",
                None,
                None,
            ),
            (
                DegradationReason::ForecastFailed,
                "forecast_failed",
                None,
                None,
            ),
            (
                DegradationReason::HeldLastDecision,
                "held_last_decision",
                None,
                None,
            ),
            (
                DegradationReason::ActuationRetried {
                    service: 4,
                    attempt: 1,
                },
                "actuation_retried",
                Some(4),
                Some(1),
            ),
            (
                DegradationReason::ActuationAbandoned { service: 5 },
                "actuation_abandoned",
                Some(5),
                None,
            ),
        ];
        for (reason, code, service, attempt) in cases {
            assert_eq!(reason.as_code(), code);
            assert_eq!(reason.to_string(), code);
            assert_eq!(reason.service(), service);
            assert_eq!(reason.attempt(), attempt);
        }
    }
}
