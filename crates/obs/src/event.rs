//! The stable event schema of the tracing core.
//!
//! Every record a [`crate::Recorder`] sees is an [`Event`]: a simulation
//! timestamp, an optional service index and an [`EventKind`] payload. The
//! kinds mirror the phases of one Chamulteon control cycle — from
//! `cycle_start` through demand estimation, forecasting, capacity solving,
//! conflict resolution and the FOX review down to the final per-service
//! `decision` carrying its full [`Provenance`] — plus the harness-side
//! `actuation` and `fault` records.
//!
//! The schema is *stable*: kind codes and field names are part of the
//! JSONL contract (see [`crate::jsonl`]) and pinned by tests; extend it by
//! adding kinds or optional fields, never by renaming.

/// Which decision cycle produced the final target of a scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// A stored (trusted) proactive decision won conflict resolution.
    Proactive,
    /// The reactive cycle's sizing won (or was the only candidate).
    Reactive,
    /// Neither cycle proposed a change; the current supply was kept.
    Hold,
}

impl Winner {
    /// Stable snake_case code used in the JSONL schema.
    pub fn as_code(&self) -> &'static str {
        match self {
            Winner::Proactive => "proactive",
            Winner::Reactive => "reactive",
            Winner::Hold => "hold",
        }
    }

    /// Parses a [`Winner::as_code`] code.
    pub fn parse(code: &str) -> Option<Winner> {
        Some(match code {
            "proactive" => Winner::Proactive,
            "reactive" => Winner::Reactive,
            "hold" => Winner::Hold,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Winner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_code())
    }
}

/// The reactive pass's verdict on one service: whether Algorithm 1 kept
/// its instance count or re-solved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// Utilization sat inside the hold band; the count was kept.
    Held,
    /// Utilization left the hold band; the count was re-solved.
    Solved,
}

impl Sizing {
    /// Stable snake_case code used in the JSONL schema.
    pub fn as_code(&self) -> &'static str {
        match self {
            Sizing::Held => "held",
            Sizing::Solved => "solved",
        }
    }

    /// Parses a [`Sizing::as_code`] code.
    pub fn parse(code: &str) -> Option<Sizing> {
        Some(match code {
            "held" => Sizing::Held,
            "solved" => Sizing::Solved,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Sizing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_code())
    }
}

/// What happened to one scaling command issued to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationOutcome {
    /// The command was accepted.
    Applied,
    /// The command failed transiently and will be retried.
    Retried,
    /// The command kept failing past the retry budget and was dropped.
    Abandoned,
}

impl ActuationOutcome {
    /// Stable snake_case code used in the JSONL schema.
    pub fn as_code(&self) -> &'static str {
        match self {
            ActuationOutcome::Applied => "applied",
            ActuationOutcome::Retried => "retried",
            ActuationOutcome::Abandoned => "abandoned",
        }
    }

    /// Parses an [`ActuationOutcome::as_code`] code.
    pub fn parse(code: &str) -> Option<ActuationOutcome> {
        Some(match code {
            "applied" => ActuationOutcome::Applied,
            "retried" => ActuationOutcome::Retried,
            "abandoned" => ActuationOutcome::Abandoned,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ActuationOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_code())
    }
}

/// How a lease moved across the cross-tenant warm pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmAction {
    /// A still-paid release parked the lease in the warm pool.
    Deposit,
    /// A scale-up drew the lease out of the warm pool.
    Draw,
    /// The lease's paid window ran out undrawn; it was terminated.
    Expire,
}

impl WarmAction {
    /// Stable snake_case code used in the JSONL schema.
    pub fn as_code(&self) -> &'static str {
        match self {
            WarmAction::Deposit => "deposit",
            WarmAction::Draw => "draw",
            WarmAction::Expire => "expire",
        }
    }

    /// Parses a [`WarmAction::as_code`] code.
    pub fn parse(code: &str) -> Option<WarmAction> {
        Some(match code {
            "deposit" => WarmAction::Deposit,
            "draw" => WarmAction::Draw,
            "expire" => WarmAction::Expire,
            _ => return None,
        })
    }
}

impl std::fmt::Display for WarmAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_code())
    }
}

/// The full input lineage of one scaling decision — emitted once per
/// service per control cycle, so every target the controller returns can
/// be traced back to what it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// 1-based control-cycle counter of the emitting controller.
    pub tick: u64,
    /// The measured entry arrival rate driving this cycle (NaN when no
    /// fresh measurement existed, e.g. a held cycle).
    pub measured_rate: f64,
    /// The local arrival rate this service was sized for by the reactive
    /// pass; `None` when no reactive sizing ran this cycle.
    pub offered_rate: Option<f64>,
    /// The service's current demand estimate in seconds per request.
    pub demand: f64,
    /// The active forecast's rate for the upcoming interval, when one
    /// exists.
    pub forecast_rate: Option<f64>,
    /// Generation counter of the forecast in play.
    pub forecast_generation: Option<u64>,
    /// Whether that forecast passed the trust (MASE) threshold.
    pub forecast_trusted: Option<bool>,
    /// Which cycle won conflict resolution for this service.
    pub winner: Winner,
    /// The reactive pass's verdict for this service (`None`: the reactive
    /// pass did not run this cycle).
    pub sizing: Option<Sizing>,
    /// Whether FOX raised the target to keep paid instances (`None` when
    /// no FOX reviewer is attached).
    pub fox_suppressed: Option<bool>,
    /// The target proposed before the FOX review and model-bounds clamp.
    pub proposed: u32,
    /// The final target instance count returned to the caller.
    pub target: u32,
}

/// The payload of one traced event; see the module docs for the cycle
/// phases the kinds map to.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A control cycle began.
    CycleStart {
        /// 1-based control-cycle counter.
        tick: u64,
        /// Measured entry arrival rate (NaN when nothing fresh arrived).
        measured_rate: f64,
        /// Whether the entry service's sample was freshly measured.
        entry_fresh: bool,
    },
    /// A new forecast replaced the active one.
    Forecast {
        /// Generation counter of the new forecast.
        generation: u64,
        /// Number of future intervals predicted.
        horizon: u64,
        /// Whether the forecast passed the trust (MASE) threshold.
        trusted: bool,
        /// In-sample MASE of the forecast, when computable.
        mase: Option<f64>,
    },
    /// A service's demand estimate entering this cycle.
    DemandEstimate {
        /// Estimated demand in seconds per request.
        demand: f64,
        /// Whether the estimate was refreshed from a fresh sample.
        fresh: bool,
    },
    /// This cycle's reactive sizing verdicts, counted over services.
    CapacitySolve {
        /// Services whose utilization left the hold band and were
        /// re-solved.
        solved: u64,
        /// Services kept at their current count inside the hold band.
        held: u64,
    },
    /// Conflict resolution between the stored proactive decision and the
    /// reactive candidate for one service.
    ConflictResolution {
        /// The stored proactive candidate's target, when one covers now.
        proactive: Option<u32>,
        /// Whether that proactive candidate's forecast was trusted.
        proactive_trusted: Option<bool>,
        /// The reactive candidate's target, when the reactive cycle ran.
        reactive: Option<u32>,
        /// Which side won.
        winner: Winner,
        /// The winning target forwarded to the FOX review.
        chosen: u32,
    },
    /// The FOX cost reviewer's verdict on one proposed target.
    FoxVerdict {
        /// The target proposed by conflict resolution.
        proposed: u32,
        /// The (possibly raised) target after the review.
        reviewed: u32,
        /// Whether FOX vetoed part of the scale-down.
        suppressed: bool,
        /// Smallest remaining paid fraction of the charging interval
        /// across the service's leases — FOX's release criterion.
        paid_remaining: Option<f64>,
    },
    /// One rung of the degradation ladder was taken.
    Degradation {
        /// Stable reason code (`DegradationReason::as_code`).
        code: String,
        /// Retry attempt number, for actuation-retry reasons.
        attempt: Option<u32>,
    },
    /// A scaling command was issued to the environment.
    Actuation {
        /// The commanded target instance count.
        target: u32,
        /// What happened to the command.
        outcome: ActuationOutcome,
        /// Zero-based attempt number of this command.
        attempt: u32,
    },
    /// An environment fault was injected (from the simulator's fault log).
    Fault {
        /// Stable fault code (`FaultKind::as_code`).
        code: String,
    },
    /// The final per-service scaling decision with its full lineage.
    Decision(Provenance),
    /// The controller's state was checkpointed (snapshot encoded and
    /// persisted by the harness).
    Checkpoint {
        /// Control cycle the snapshot was taken after.
        cycle: u64,
        /// Size of the encoded snapshot in bytes.
        bytes: u64,
    },
    /// A crashed controller was restarted.
    Restore {
        /// Control cycle at which the replacement controller took over.
        cycle: u64,
        /// `true` for a cold restart (no usable checkpoint), `false`
        /// when state was restored from a snapshot.
        cold: bool,
        /// Cycle of the checkpoint restored from, for warm restarts.
        checkpoint_cycle: Option<u64>,
    },
    /// One tenant's verdict from a multi-tenant cluster arbitration cycle.
    Arbitration {
        /// The tenant this verdict applies to.
        tenant: u32,
        /// Stable policy name (`ArbitrationPolicy::name`).
        policy: String,
        /// The desired total the tenant asked for.
        requested: u32,
        /// The total the arbiter granted (the target actually applied).
        granted: u32,
        /// Instances satisfied from the warm pool this cycle.
        drawn_warm: u32,
        /// Fresh (cold) leases opened this cycle.
        opened_cold: u32,
        /// Still-paid releases parked into the warm pool this cycle.
        deposited: u32,
        /// Releases closed outright this cycle.
        closed: u32,
        /// Cluster budget consumption (running + warm) after the cycle.
        in_use: u32,
        /// The cluster's global instance budget.
        budget: u32,
    },
    /// A lease crossed the warm pool; provenance names the origin tenant
    /// its billed seconds stay attributed to.
    WarmTransfer {
        /// What happened to the lease.
        action: WarmAction,
        /// Tenant on the acting side (depositor or drawer); `None` for
        /// expiries, which happen to the pool itself.
        tenant: Option<u32>,
        /// Tenant billed for the lease — the original lessee.
        origin: u32,
        /// Original lease start time (preserved across transfers).
        start: f64,
        /// End of the already-paid window, for expiries.
        paid_until: Option<f64>,
    },
}

impl EventKind {
    /// The stable snake_case kind code used in the JSONL schema.
    pub fn code(&self) -> &'static str {
        match self {
            EventKind::CycleStart { .. } => "cycle_start",
            EventKind::Forecast { .. } => "forecast",
            EventKind::DemandEstimate { .. } => "demand_estimate",
            EventKind::CapacitySolve { .. } => "capacity_solve",
            EventKind::ConflictResolution { .. } => "conflict_resolution",
            EventKind::FoxVerdict { .. } => "fox_verdict",
            EventKind::Degradation { .. } => "degradation",
            EventKind::Actuation { .. } => "actuation",
            EventKind::Fault { .. } => "fault",
            EventKind::Decision(_) => "decision",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Restore { .. } => "restore",
            EventKind::Arbitration { .. } => "arbitration",
            EventKind::WarmTransfer { .. } => "warm_transfer",
        }
    }
}

/// Every kind code of the schema, in cycle order — the JSONL contract
/// surface, pinned by the round-trip tests.
pub const EVENT_KIND_CODES: &[&str] = &[
    "cycle_start",
    "forecast",
    "demand_estimate",
    "capacity_solve",
    "conflict_resolution",
    "fox_verdict",
    "degradation",
    "actuation",
    "fault",
    "decision",
    "checkpoint",
    "restore",
    "arbitration",
    "warm_transfer",
];

/// One traced record: a timestamp, an optional service index and the
/// phase payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time in seconds.
    pub time: f64,
    /// Service index the event concerns; `None` for cycle-level events.
    pub service: Option<u32>,
    /// The phase payload.
    pub kind: EventKind,
}

impl Event {
    /// Convenience constructor for a cycle-level (serviceless) event.
    pub fn cycle(time: f64, kind: EventKind) -> Event {
        Event {
            time,
            service: None,
            kind,
        }
    }

    /// Convenience constructor for a per-service event; service indices
    /// above `u32::MAX` saturate (no real deployment gets there).
    pub fn service(time: f64, service: usize, kind: EventKind) -> Event {
        Event {
            time,
            service: Some(u32::try_from(service).unwrap_or(u32::MAX)),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_are_stable_and_exhaustive() {
        let samples: Vec<EventKind> = vec![
            EventKind::CycleStart {
                tick: 1,
                measured_rate: 1.0,
                entry_fresh: true,
            },
            EventKind::Forecast {
                generation: 1,
                horizon: 8,
                trusted: true,
                mase: None,
            },
            EventKind::DemandEstimate {
                demand: 0.1,
                fresh: true,
            },
            EventKind::CapacitySolve { solved: 0, held: 0 },
            EventKind::ConflictResolution {
                proactive: None,
                proactive_trusted: None,
                reactive: Some(3),
                winner: Winner::Reactive,
                chosen: 3,
            },
            EventKind::FoxVerdict {
                proposed: 1,
                reviewed: 2,
                suppressed: true,
                paid_remaining: Some(0.5),
            },
            EventKind::Degradation {
                code: "sample_held".to_owned(),
                attempt: None,
            },
            EventKind::Actuation {
                target: 4,
                outcome: ActuationOutcome::Applied,
                attempt: 0,
            },
            EventKind::Fault {
                code: "drop_sample".to_owned(),
            },
            EventKind::Decision(Provenance {
                tick: 1,
                measured_rate: 1.0,
                offered_rate: Some(1.0),
                demand: 0.1,
                forecast_rate: None,
                forecast_generation: None,
                forecast_trusted: None,
                winner: Winner::Reactive,
                sizing: Some(Sizing::Solved),
                fox_suppressed: None,
                proposed: 3,
                target: 3,
            }),
            EventKind::Checkpoint {
                cycle: 12,
                bytes: 2048,
            },
            EventKind::Restore {
                cycle: 13,
                cold: false,
                checkpoint_cycle: Some(12),
            },
            EventKind::Arbitration {
                tenant: 0,
                policy: "fair-share".to_owned(),
                requested: 5,
                granted: 3,
                drawn_warm: 1,
                opened_cold: 2,
                deposited: 0,
                closed: 0,
                in_use: 6,
                budget: 8,
            },
            EventKind::WarmTransfer {
                action: WarmAction::Draw,
                tenant: Some(1),
                origin: 0,
                start: 0.0,
                paid_until: None,
            },
        ];
        let codes: Vec<&str> = samples.iter().map(EventKind::code).collect();
        assert_eq!(codes, EVENT_KIND_CODES);
    }

    #[test]
    fn winner_and_outcome_codes_round_trip() {
        for w in [Winner::Proactive, Winner::Reactive, Winner::Hold] {
            assert_eq!(Winner::parse(w.as_code()), Some(w));
            assert_eq!(w.to_string(), w.as_code());
        }
        for o in [
            ActuationOutcome::Applied,
            ActuationOutcome::Retried,
            ActuationOutcome::Abandoned,
        ] {
            assert_eq!(ActuationOutcome::parse(o.as_code()), Some(o));
            assert_eq!(o.to_string(), o.as_code());
        }
        for a in [WarmAction::Deposit, WarmAction::Draw, WarmAction::Expire] {
            assert_eq!(WarmAction::parse(a.as_code()), Some(a));
            assert_eq!(a.to_string(), a.as_code());
        }
        for z in [Sizing::Held, Sizing::Solved] {
            assert_eq!(Sizing::parse(z.as_code()), Some(z));
            assert_eq!(z.to_string(), z.as_code());
        }
        assert_eq!(Winner::parse("nope"), None);
        assert_eq!(ActuationOutcome::parse("nope"), None);
        assert_eq!(WarmAction::parse("nope"), None);
        assert_eq!(Sizing::parse("nope"), None);
    }
}
