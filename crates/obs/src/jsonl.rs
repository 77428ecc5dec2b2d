//! JSONL export and import of traced events.
//!
//! One event per line, as a flat JSON object with a canonical key order:
//! `time`, `kind`, `service` (when per-service), then the kind's payload
//! fields in schema order. Optional fields that are absent are *omitted*
//! (never written as `null`); a required float that is non-finite is
//! written as `null` and read back as NaN. Both rules make
//! emit → parse → re-emit the identity on the text, which the round-trip
//! tests pin. Lines are written and read by the [`json`]
//! codec.

use crate::event::{ActuationOutcome, Event, EventKind, Provenance, Sizing, WarmAction, Winner};
use crate::json::{self, JsonError, Record, Writer};

/// Serializes one event as its canonical JSONL line (no trailing newline).
pub fn emit_line(event: &Event) -> String {
    let mut out = String::new();
    write_event(&mut out, event);
    out
}

fn write_event(out: &mut String, event: &Event) {
    let mut w = Writer::compact(out);
    w.f64("time", event.time)
        .str("kind", event.kind.code())
        .opt_u32("service", event.service);
    match &event.kind {
        EventKind::CycleStart {
            tick,
            measured_rate,
            entry_fresh,
        } => w
            .u64("tick", *tick)
            .f64("measured_rate", *measured_rate)
            .bool("entry_fresh", *entry_fresh),
        EventKind::Forecast {
            generation,
            horizon,
            trusted,
            mase,
        } => w
            .u64("generation", *generation)
            .u64("horizon", *horizon)
            .bool("trusted", *trusted)
            .opt_f64("mase", *mase),
        EventKind::DemandEstimate { demand, fresh } => {
            w.f64("demand", *demand).bool("fresh", *fresh)
        }
        EventKind::CapacitySolve { solved, held } => w.u64("solved", *solved).u64("held", *held),
        EventKind::ConflictResolution {
            proactive,
            proactive_trusted,
            reactive,
            winner,
            chosen,
        } => w
            .opt_u32("proactive", *proactive)
            .opt_bool("proactive_trusted", *proactive_trusted)
            .opt_u32("reactive", *reactive)
            .str("winner", winner.as_code())
            .u32("chosen", *chosen),
        EventKind::FoxVerdict {
            proposed,
            reviewed,
            suppressed,
            paid_remaining,
        } => w
            .u32("proposed", *proposed)
            .u32("reviewed", *reviewed)
            .bool("suppressed", *suppressed)
            .opt_f64("paid_remaining", *paid_remaining),
        EventKind::Degradation { code, attempt } => {
            w.str("code", code).opt_u32("attempt", *attempt)
        }
        EventKind::Actuation {
            target,
            outcome,
            attempt,
        } => w
            .u32("target", *target)
            .str("outcome", outcome.as_code())
            .u32("attempt", *attempt),
        EventKind::Fault { code } => w.str("code", code),
        EventKind::Decision(p) => w
            .u64("tick", p.tick)
            .f64("measured_rate", p.measured_rate)
            .opt_f64("offered_rate", p.offered_rate)
            .f64("demand", p.demand)
            .opt_f64("forecast_rate", p.forecast_rate)
            .opt_u64("forecast_generation", p.forecast_generation)
            .opt_bool("forecast_trusted", p.forecast_trusted)
            .str("winner", p.winner.as_code())
            .opt_str("sizing", p.sizing.map(|s| s.as_code()))
            .opt_bool("fox_suppressed", p.fox_suppressed)
            .u32("proposed", p.proposed)
            .u32("target", p.target),
        EventKind::Checkpoint { cycle, bytes } => w.u64("cycle", *cycle).u64("bytes", *bytes),
        EventKind::Restore {
            cycle,
            cold,
            checkpoint_cycle,
        } => w
            .u64("cycle", *cycle)
            .bool("cold", *cold)
            .opt_u64("checkpoint_cycle", *checkpoint_cycle),
        EventKind::Arbitration {
            tenant,
            policy,
            requested,
            granted,
            drawn_warm,
            opened_cold,
            deposited,
            closed,
            in_use,
            budget,
        } => w
            .u32("tenant", *tenant)
            .str("policy", policy)
            .u32("requested", *requested)
            .u32("granted", *granted)
            .u32("drawn_warm", *drawn_warm)
            .u32("opened_cold", *opened_cold)
            .u32("deposited", *deposited)
            .u32("closed", *closed)
            .u32("in_use", *in_use)
            .u32("budget", *budget),
        EventKind::WarmTransfer {
            action,
            tenant,
            origin,
            start,
            paid_until,
        } => w
            .str("action", action.as_code())
            .opt_u32("tenant", *tenant)
            .u32("origin", *origin)
            .f64("start", *start)
            .opt_f64("paid_until", *paid_until),
    };
    w.finish();
}

/// Serializes a slice of events as JSONL text (one line per event, each
/// newline-terminated).
pub fn emit(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        write_event(&mut out, event);
        out.push('\n');
    }
    out
}

// --- parsing ------------------------------------------------------------

/// Parses one JSONL line back into an [`Event`].
///
/// # Errors
///
/// Returns a [`JsonError`] (tagged with `lineno`) on malformed JSON, an
/// unknown kind code, or missing/mistyped schema fields.
pub fn parse_line(line: &str, lineno: usize) -> Result<Event, JsonError> {
    event(&json::parse_record(line, lineno)?)
}

fn event(fields: &Record<'_>) -> Result<Event, JsonError> {
    let time = fields.f64("time")?;
    let service = fields.opt_u32("service")?;
    let kind_code = fields.str("kind")?;
    let kind = match kind_code {
        "cycle_start" => EventKind::CycleStart {
            tick: fields.u64("tick")?,
            measured_rate: fields.f64("measured_rate")?,
            entry_fresh: fields.bool("entry_fresh")?,
        },
        "forecast" => EventKind::Forecast {
            generation: fields.u64("generation")?,
            horizon: fields.u64("horizon")?,
            trusted: fields.bool("trusted")?,
            mase: fields.opt_f64("mase")?,
        },
        "demand_estimate" => EventKind::DemandEstimate {
            demand: fields.f64("demand")?,
            fresh: fields.bool("fresh")?,
        },
        "capacity_solve" => EventKind::CapacitySolve {
            solved: fields.u64("solved")?,
            held: fields.u64("held")?,
        },
        "conflict_resolution" => EventKind::ConflictResolution {
            proactive: fields.opt_u32("proactive")?,
            proactive_trusted: fields.opt_bool("proactive_trusted")?,
            reactive: fields.opt_u32("reactive")?,
            winner: code(fields, "winner", Winner::parse)?,
            chosen: fields.u32("chosen")?,
        },
        "fox_verdict" => EventKind::FoxVerdict {
            proposed: fields.u32("proposed")?,
            reviewed: fields.u32("reviewed")?,
            suppressed: fields.bool("suppressed")?,
            paid_remaining: fields.opt_f64("paid_remaining")?,
        },
        "degradation" => EventKind::Degradation {
            code: fields.str("code")?.to_owned(),
            attempt: fields.opt_u32("attempt")?,
        },
        "actuation" => EventKind::Actuation {
            target: fields.u32("target")?,
            outcome: code(fields, "outcome", ActuationOutcome::parse)?,
            attempt: fields.u32("attempt")?,
        },
        "fault" => EventKind::Fault {
            code: fields.str("code")?.to_owned(),
        },
        "decision" => EventKind::Decision(Provenance {
            tick: fields.u64("tick")?,
            measured_rate: fields.f64("measured_rate")?,
            offered_rate: fields.opt_f64("offered_rate")?,
            demand: fields.f64("demand")?,
            forecast_rate: fields.opt_f64("forecast_rate")?,
            forecast_generation: fields.opt_u64("forecast_generation")?,
            forecast_trusted: fields.opt_bool("forecast_trusted")?,
            winner: code(fields, "winner", Winner::parse)?,
            sizing: match fields.get("sizing") {
                Some(_) => Some(code(fields, "sizing", Sizing::parse)?),
                None => None,
            },
            fox_suppressed: fields.opt_bool("fox_suppressed")?,
            proposed: fields.u32("proposed")?,
            target: fields.u32("target")?,
        }),
        "checkpoint" => EventKind::Checkpoint {
            cycle: fields.u64("cycle")?,
            bytes: fields.u64("bytes")?,
        },
        "restore" => EventKind::Restore {
            cycle: fields.u64("cycle")?,
            cold: fields.bool("cold")?,
            checkpoint_cycle: fields.opt_u64("checkpoint_cycle")?,
        },
        "arbitration" => EventKind::Arbitration {
            tenant: fields.u32("tenant")?,
            policy: fields.str("policy")?.to_owned(),
            requested: fields.u32("requested")?,
            granted: fields.u32("granted")?,
            drawn_warm: fields.u32("drawn_warm")?,
            opened_cold: fields.u32("opened_cold")?,
            deposited: fields.u32("deposited")?,
            closed: fields.u32("closed")?,
            in_use: fields.u32("in_use")?,
            budget: fields.u32("budget")?,
        },
        "warm_transfer" => EventKind::WarmTransfer {
            action: code(fields, "action", WarmAction::parse)?,
            tenant: fields.opt_u32("tenant")?,
            origin: fields.u32("origin")?,
            start: fields.f64("start")?,
            paid_until: fields.opt_f64("paid_until")?,
        },
        other => return Err(fields.error(format!("unknown kind `{other}`"))),
    };
    Ok(Event {
        time,
        service,
        kind,
    })
}

/// Reads field `key` as one code of a closed set.
fn code<T>(fields: &Record<'_>, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, JsonError> {
    let code = fields.str(key)?;
    parse(code).ok_or_else(|| fields.error(format!("unknown {key} `{code}`")))
}

/// Parses JSONL text (as produced by [`emit`]) back into events. Blank
/// lines are skipped.
///
/// # Errors
///
/// Returns the first line's [`JsonError`] on any malformed line.
pub fn parse(text: &str) -> Result<Vec<Event>, JsonError> {
    json::records(text).map(|rec| event(&rec?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_is_canonical_json() {
        let e = Event::service(
            120.0,
            1,
            EventKind::Actuation {
                target: 7,
                outcome: ActuationOutcome::Applied,
                attempt: 0,
            },
        );
        assert_eq!(
            emit_line(&e),
            "{\"time\":120,\"kind\":\"actuation\",\"service\":1,\"target\":7,\
             \"outcome\":\"applied\",\"attempt\":0}"
        );
    }

    #[test]
    fn optional_fields_are_omitted() {
        let e = Event::cycle(
            0.5,
            EventKind::Forecast {
                generation: 3,
                horizon: 8,
                trusted: false,
                mase: None,
            },
        );
        let line = emit_line(&e);
        assert!(!line.contains("mase"), "{line}");
        assert_eq!(parse_line(&line, 1), Ok(e));
    }

    #[test]
    fn non_finite_floats_become_null_and_stay_null() {
        let e = Event::cycle(
            60.0,
            EventKind::CycleStart {
                tick: 4,
                measured_rate: f64::NAN,
                entry_fresh: false,
            },
        );
        let line = emit_line(&e);
        assert!(line.contains("\"measured_rate\":null"), "{line}");
        let back = parse_line(&line, 1).unwrap();
        assert_eq!(emit_line(&back), line, "text-level round trip");
    }

    #[test]
    fn parse_rejects_lines_outside_the_schema() {
        assert!(parse_line("{\"time\":1}", 1).is_err(), "missing kind");
        assert!(
            parse_line("{\"time\":1,\"kind\":\"nope\"}", 1).is_err(),
            "unknown kind"
        );
        let err = parse_line("{\"time\":true,\"kind\":\"fault\",\"code\":\"x\"}", 7)
            .expect_err("mistyped time");
        assert_eq!(err.line, 7);
    }

    #[test]
    fn checkpoint_and_restore_kinds_round_trip() {
        let checkpoint = Event::cycle(
            720.0,
            EventKind::Checkpoint {
                cycle: 12,
                bytes: 4096,
            },
        );
        let warm = Event::cycle(
            780.0,
            EventKind::Restore {
                cycle: 13,
                cold: false,
                checkpoint_cycle: Some(12),
            },
        );
        let cold = Event::cycle(
            780.0,
            EventKind::Restore {
                cycle: 13,
                cold: true,
                checkpoint_cycle: None,
            },
        );
        for e in [&checkpoint, &warm, &cold] {
            let line = emit_line(e);
            assert_eq!(parse_line(&line, 1).as_ref(), Ok(e));
            assert_eq!(emit_line(&parse_line(&line, 1).unwrap()), line);
        }
        assert_eq!(
            emit_line(&checkpoint),
            "{\"time\":720,\"kind\":\"checkpoint\",\"cycle\":12,\"bytes\":4096}"
        );
        let cold_line = emit_line(&cold);
        assert!(
            !cold_line.contains("checkpoint_cycle"),
            "absent checkpoint_cycle must be omitted: {cold_line}"
        );
    }

    #[test]
    fn arbitration_and_warm_transfer_kinds_round_trip() {
        let verdict = Event::cycle(
            3600.0,
            EventKind::Arbitration {
                tenant: 2,
                policy: "cost-greedy".to_owned(),
                requested: 6,
                granted: 4,
                drawn_warm: 1,
                opened_cold: 3,
                deposited: 0,
                closed: 0,
                in_use: 7,
                budget: 8,
            },
        );
        let draw = Event::cycle(
            3600.0,
            EventKind::WarmTransfer {
                action: WarmAction::Draw,
                tenant: Some(2),
                origin: 0,
                start: 600.0,
                paid_until: None,
            },
        );
        let expire = Event::cycle(
            7200.0,
            EventKind::WarmTransfer {
                action: WarmAction::Expire,
                tenant: None,
                origin: 1,
                start: 600.0,
                paid_until: Some(4200.0),
            },
        );
        for e in [&verdict, &draw, &expire] {
            let line = emit_line(e);
            assert_eq!(parse_line(&line, 1).as_ref(), Ok(e));
            assert_eq!(emit_line(&parse_line(&line, 1).unwrap()), line);
        }
        let expire_line = emit_line(&expire);
        assert!(
            !expire_line.contains("\"tenant\""),
            "expiry has no acting tenant: {expire_line}"
        );
        assert!(expire_line.contains("\"paid_until\":4200"), "{expire_line}");
    }

    #[test]
    fn sizing_verdicts_have_pinned_lines() {
        let solve = Event::cycle(60.0, EventKind::CapacitySolve { solved: 2, held: 1 });
        let decision = Event::service(
            60.0,
            2,
            EventKind::Decision(Provenance {
                tick: 1,
                measured_rate: 100.0,
                offered_rate: Some(100.0),
                demand: 0.04,
                forecast_rate: None,
                forecast_generation: None,
                forecast_trusted: None,
                winner: Winner::Reactive,
                sizing: Some(Sizing::Solved),
                fox_suppressed: None,
                proposed: 7,
                target: 7,
            }),
        );
        assert_eq!(
            emit_line(&solve),
            "{\"time\":60,\"kind\":\"capacity_solve\",\"solved\":2,\"held\":1}"
        );
        assert_eq!(
            emit_line(&decision),
            "{\"time\":60,\"kind\":\"decision\",\"service\":2,\"tick\":1,\
             \"measured_rate\":100,\"offered_rate\":100,\"demand\":0.04,\
             \"winner\":\"reactive\",\"sizing\":\"solved\",\"proposed\":7,\"target\":7}"
        );
        for e in [&solve, &decision] {
            assert_eq!(parse_line(&emit_line(e), 1).as_ref(), Ok(e));
        }
        assert!(parse_line(
            "{\"time\":1,\"kind\":\"decision\",\"tick\":1,\"measured_rate\":1,\
             \"demand\":0.1,\"winner\":\"hold\",\"sizing\":\"hit\",\"proposed\":1,\"target\":1}",
            1
        )
        .is_err());
    }

    #[test]
    fn parse_skips_blank_lines() {
        let text = "\n{\"time\":1,\"kind\":\"fault\",\"service\":0,\"code\":\"drop_sample\"}\n\n";
        let events = parse(text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(emit(&events).trim(), text.trim());
    }
}
