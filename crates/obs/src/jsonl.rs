//! JSONL export and import of traced events.
//!
//! One event per line, as a flat JSON object with a canonical key order:
//! `time`, `kind`, `service` (when per-service), then the kind's payload
//! fields in schema order. Optional fields that are absent are *omitted*
//! (never written as `null`); a required float that is non-finite is
//! written as `null` and read back as NaN. Both rules make
//! emit → parse → re-emit the identity on the text, which the round-trip
//! tests pin.
//!
//! The parser accepts exactly the flat-object subset the emitter produces
//! (string, number, `true`/`false`/`null` values — no nesting), with
//! arbitrary whitespace between tokens.

use crate::event::{ActuationOutcome, Event, EventKind, Provenance, Sizing, WarmAction, Winner};
use std::fmt::Write as _;

/// A parse failure, locating the offending line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

// --- emitting -----------------------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one canonical JSON line.
struct LineWriter {
    out: String,
    first: bool,
}

impl LineWriter {
    fn new() -> LineWriter {
        LineWriter {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_str(&mut self.out, key);
        self.out.push(':');
    }

    fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    fn opt_f64(&mut self, key: &str, v: Option<f64>) {
        if let Some(v) = v {
            self.f64(key, v);
        }
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    fn opt_u64(&mut self, key: &str, v: Option<u64>) {
        if let Some(v) = v {
            self.u64(key, v);
        }
    }

    fn u32(&mut self, key: &str, v: u32) {
        self.u64(key, u64::from(v));
    }

    fn opt_u32(&mut self, key: &str, v: Option<u32>) {
        if let Some(v) = v {
            self.u32(key, v);
        }
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn opt_bool(&mut self, key: &str, v: Option<bool>) {
        if let Some(v) = v {
            self.bool(key, v);
        }
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        push_json_str(&mut self.out, v);
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Serializes one event as its canonical JSONL line (no trailing newline).
pub fn emit_line(event: &Event) -> String {
    let mut w = LineWriter::new();
    w.f64("time", event.time);
    w.str("kind", event.kind.code());
    w.opt_u32("service", event.service);
    match &event.kind {
        EventKind::CycleStart {
            tick,
            measured_rate,
            entry_fresh,
        } => {
            w.u64("tick", *tick);
            w.f64("measured_rate", *measured_rate);
            w.bool("entry_fresh", *entry_fresh);
        }
        EventKind::Forecast {
            generation,
            horizon,
            trusted,
            mase,
        } => {
            w.u64("generation", *generation);
            w.u64("horizon", *horizon);
            w.bool("trusted", *trusted);
            w.opt_f64("mase", *mase);
        }
        EventKind::DemandEstimate { demand, fresh } => {
            w.f64("demand", *demand);
            w.bool("fresh", *fresh);
        }
        EventKind::CapacitySolve { solved, held } => {
            w.u64("solved", *solved);
            w.u64("held", *held);
        }
        EventKind::ConflictResolution {
            proactive,
            proactive_trusted,
            reactive,
            winner,
            chosen,
        } => {
            w.opt_u32("proactive", *proactive);
            w.opt_bool("proactive_trusted", *proactive_trusted);
            w.opt_u32("reactive", *reactive);
            w.str("winner", winner.as_code());
            w.u32("chosen", *chosen);
        }
        EventKind::FoxVerdict {
            proposed,
            reviewed,
            suppressed,
            paid_remaining,
        } => {
            w.u32("proposed", *proposed);
            w.u32("reviewed", *reviewed);
            w.bool("suppressed", *suppressed);
            w.opt_f64("paid_remaining", *paid_remaining);
        }
        EventKind::Degradation { code, attempt } => {
            w.str("code", code);
            w.opt_u32("attempt", *attempt);
        }
        EventKind::Actuation {
            target,
            outcome,
            attempt,
        } => {
            w.u32("target", *target);
            w.str("outcome", outcome.as_code());
            w.u32("attempt", *attempt);
        }
        EventKind::Fault { code } => {
            w.str("code", code);
        }
        EventKind::Decision(p) => {
            w.u64("tick", p.tick);
            w.f64("measured_rate", p.measured_rate);
            w.opt_f64("offered_rate", p.offered_rate);
            w.f64("demand", p.demand);
            w.opt_f64("forecast_rate", p.forecast_rate);
            w.opt_u64("forecast_generation", p.forecast_generation);
            w.opt_bool("forecast_trusted", p.forecast_trusted);
            w.str("winner", p.winner.as_code());
            if let Some(sizing) = p.sizing {
                w.str("sizing", sizing.as_code());
            }
            w.opt_bool("fox_suppressed", p.fox_suppressed);
            w.u32("proposed", p.proposed);
            w.u32("target", p.target);
        }
        EventKind::Checkpoint { cycle, bytes } => {
            w.u64("cycle", *cycle);
            w.u64("bytes", *bytes);
        }
        EventKind::Restore {
            cycle,
            cold,
            checkpoint_cycle,
        } => {
            w.u64("cycle", *cycle);
            w.bool("cold", *cold);
            w.opt_u64("checkpoint_cycle", *checkpoint_cycle);
        }
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
        } => {
            w.u32("tenant", *tenant);
            w.str("policy", policy);
            w.u32("requested", *requested);
            w.u32("granted", *granted);
            w.u32("drawn_warm", *drawn_warm);
            w.u32("opened_cold", *opened_cold);
            w.u32("deposited", *deposited);
            w.u32("closed", *closed);
            w.u32("in_use", *in_use);
            w.u32("budget", *budget);
        }
        EventKind::WarmTransfer {
            action,
            tenant,
            origin,
            start,
            paid_until,
        } => {
            w.str("action", action.as_code());
            w.opt_u32("tenant", *tenant);
            w.u32("origin", *origin);
            w.f64("start", *start);
            w.opt_f64("paid_until", *paid_until);
        }
    }
    w.finish()
}

/// Serializes a slice of events as JSONL text (one line per event, each
/// newline-terminated).
pub fn emit(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&emit_line(event));
        out.push('\n');
    }
    out
}

// --- parsing ------------------------------------------------------------

/// A scalar JSON value as it appears on a line. Numbers keep their exact
/// source text so integer fields re-parse losslessly.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Num(String),
    Bool(bool),
    Null,
}

struct Tokenizer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(text: &'a str, line: usize) -> Tokenizer<'a> {
        Tokenizer {
            chars: text.chars().peekable(),
            line,
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonlError {
        JsonlError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\r')) {
            self.chars.next();
        }
    }

    fn consume(&mut self, c: char) -> Result<(), JsonlError> {
        self.skip_ws();
        match self.chars.next() {
            Some(found) if found == c => Ok(()),
            Some(found) => Err(self.err(format!("expected `{c}`, found `{found}`"))),
            None => Err(self.err(format!("expected `{c}`, found end of line"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonlError> {
        self.consume('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(self.err(format!("bad escape `\\{}`", other.unwrap_or(' '))))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<Val, JsonlError> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some('"') => Ok(Val::Str(self.string()?)),
            Some('t') => self.literal("true").map(|()| Val::Bool(true)),
            Some('f') => self.literal("false").map(|()| Val::Bool(false)),
            Some('n') => self.literal("null").map(|()| Val::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = self.chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                Ok(Val::Num(num))
            }
            Some(c) => Err(self.err(format!("unexpected `{c}`"))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonlError> {
        for expected in word.chars() {
            if self.chars.next() != Some(expected) {
                return Err(self.err(format!("expected `{word}`")));
            }
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Vec<(String, Val)>, JsonlError> {
        self.consume('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.consume(':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some('}') => return Ok(pairs),
                Some(c) => return Err(self.err(format!("expected `,` or `}}`, found `{c}`"))),
                None => return Err(self.err("unterminated object")),
            }
        }
    }
}

/// Typed access to one parsed line's fields.
struct Fields {
    pairs: Vec<(String, Val)>,
    line: usize,
}

impl Fields {
    fn err(&self, message: impl Into<String>) -> JsonlError {
        JsonlError {
            line: self.line,
            message: message.into(),
        }
    }

    fn get(&self, key: &str) -> Option<&Val> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn req_f64(&self, key: &str) -> Result<f64, JsonlError> {
        match self.get(key) {
            Some(Val::Num(n)) => n
                .parse()
                .map_err(|_| self.err(format!("field `{key}`: bad number `{n}`"))),
            Some(Val::Null) => Ok(f64::NAN),
            Some(_) => Err(self.err(format!("field `{key}`: expected number"))),
            None => Err(self.err(format!("missing field `{key}`"))),
        }
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, JsonlError> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.req_f64(key).map(Some),
        }
    }

    fn req_u64(&self, key: &str) -> Result<u64, JsonlError> {
        match self.get(key) {
            Some(Val::Num(n)) => n
                .parse()
                .map_err(|_| self.err(format!("field `{key}`: bad integer `{n}`"))),
            Some(_) => Err(self.err(format!("field `{key}`: expected integer"))),
            None => Err(self.err(format!("missing field `{key}`"))),
        }
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, JsonlError> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.req_u64(key).map(Some),
        }
    }

    fn req_u32(&self, key: &str) -> Result<u32, JsonlError> {
        let v = self.req_u64(key)?;
        u32::try_from(v).map_err(|_| self.err(format!("field `{key}`: {v} exceeds u32")))
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, JsonlError> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.req_u32(key).map(Some),
        }
    }

    fn req_bool(&self, key: &str) -> Result<bool, JsonlError> {
        match self.get(key) {
            Some(Val::Bool(b)) => Ok(*b),
            Some(_) => Err(self.err(format!("field `{key}`: expected bool"))),
            None => Err(self.err(format!("missing field `{key}`"))),
        }
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, JsonlError> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.req_bool(key).map(Some),
        }
    }

    fn req_str(&self, key: &str) -> Result<&str, JsonlError> {
        match self.get(key) {
            Some(Val::Str(s)) => Ok(s),
            Some(_) => Err(self.err(format!("field `{key}`: expected string"))),
            None => Err(self.err(format!("missing field `{key}`"))),
        }
    }
}

/// Parses one JSONL line back into an [`Event`].
///
/// # Errors
///
/// Returns a [`JsonlError`] (tagged with `lineno`) on malformed JSON, an
/// unknown kind code, or missing/mistyped schema fields.
pub fn parse_line(line: &str, lineno: usize) -> Result<Event, JsonlError> {
    let mut tok = Tokenizer::new(line, lineno);
    let pairs = tok.object()?;
    tok.skip_ws();
    if let Some(c) = tok.chars.next() {
        return Err(tok.err(format!("trailing `{c}` after object")));
    }
    let fields = Fields {
        pairs,
        line: lineno,
    };

    let time = fields.req_f64("time")?;
    let service = fields.opt_u32("service")?;
    let kind_code = fields.req_str("kind")?;
    let kind = match kind_code {
        "cycle_start" => EventKind::CycleStart {
            tick: fields.req_u64("tick")?,
            measured_rate: fields.req_f64("measured_rate")?,
            entry_fresh: fields.req_bool("entry_fresh")?,
        },
        "forecast" => EventKind::Forecast {
            generation: fields.req_u64("generation")?,
            horizon: fields.req_u64("horizon")?,
            trusted: fields.req_bool("trusted")?,
            mase: fields.opt_f64("mase")?,
        },
        "demand_estimate" => EventKind::DemandEstimate {
            demand: fields.req_f64("demand")?,
            fresh: fields.req_bool("fresh")?,
        },
        "capacity_solve" => EventKind::CapacitySolve {
            solved: fields.req_u64("solved")?,
            held: fields.req_u64("held")?,
        },
        "conflict_resolution" => EventKind::ConflictResolution {
            proactive: fields.opt_u32("proactive")?,
            proactive_trusted: fields.opt_bool("proactive_trusted")?,
            reactive: fields.opt_u32("reactive")?,
            winner: parse_winner(&fields)?,
            chosen: fields.req_u32("chosen")?,
        },
        "fox_verdict" => EventKind::FoxVerdict {
            proposed: fields.req_u32("proposed")?,
            reviewed: fields.req_u32("reviewed")?,
            suppressed: fields.req_bool("suppressed")?,
            paid_remaining: fields.opt_f64("paid_remaining")?,
        },
        "degradation" => EventKind::Degradation {
            code: fields.req_str("code")?.to_owned(),
            attempt: fields.opt_u32("attempt")?,
        },
        "actuation" => EventKind::Actuation {
            target: fields.req_u32("target")?,
            outcome: {
                let code = fields.req_str("outcome")?;
                ActuationOutcome::parse(code)
                    .ok_or_else(|| fields.err(format!("unknown outcome `{code}`")))?
            },
            attempt: fields.req_u32("attempt")?,
        },
        "fault" => EventKind::Fault {
            code: fields.req_str("code")?.to_owned(),
        },
        "decision" => EventKind::Decision(Provenance {
            tick: fields.req_u64("tick")?,
            measured_rate: fields.req_f64("measured_rate")?,
            offered_rate: fields.opt_f64("offered_rate")?,
            demand: fields.req_f64("demand")?,
            forecast_rate: fields.opt_f64("forecast_rate")?,
            forecast_generation: fields.opt_u64("forecast_generation")?,
            forecast_trusted: fields.opt_bool("forecast_trusted")?,
            winner: parse_winner(&fields)?,
            sizing: parse_sizing(&fields)?,
            fox_suppressed: fields.opt_bool("fox_suppressed")?,
            proposed: fields.req_u32("proposed")?,
            target: fields.req_u32("target")?,
        }),
        "checkpoint" => EventKind::Checkpoint {
            cycle: fields.req_u64("cycle")?,
            bytes: fields.req_u64("bytes")?,
        },
        "restore" => EventKind::Restore {
            cycle: fields.req_u64("cycle")?,
            cold: fields.req_bool("cold")?,
            checkpoint_cycle: fields.opt_u64("checkpoint_cycle")?,
        },
        "arbitration" => EventKind::Arbitration {
            tenant: fields.req_u32("tenant")?,
            policy: fields.req_str("policy")?.to_owned(),
            requested: fields.req_u32("requested")?,
            granted: fields.req_u32("granted")?,
            drawn_warm: fields.req_u32("drawn_warm")?,
            opened_cold: fields.req_u32("opened_cold")?,
            deposited: fields.req_u32("deposited")?,
            closed: fields.req_u32("closed")?,
            in_use: fields.req_u32("in_use")?,
            budget: fields.req_u32("budget")?,
        },
        "warm_transfer" => EventKind::WarmTransfer {
            action: {
                let code = fields.req_str("action")?;
                WarmAction::parse(code)
                    .ok_or_else(|| fields.err(format!("unknown warm action `{code}`")))?
            },
            tenant: fields.opt_u32("tenant")?,
            origin: fields.req_u32("origin")?,
            start: fields.req_f64("start")?,
            paid_until: fields.opt_f64("paid_until")?,
        },
        other => return Err(fields.err(format!("unknown kind `{other}`"))),
    };
    Ok(Event {
        time,
        service,
        kind,
    })
}

fn parse_winner(fields: &Fields) -> Result<Winner, JsonlError> {
    let code = fields.req_str("winner")?;
    Winner::parse(code).ok_or_else(|| fields.err(format!("unknown winner `{code}`")))
}

fn parse_sizing(fields: &Fields) -> Result<Option<Sizing>, JsonlError> {
    if fields.get("sizing").is_none() {
        return Ok(None);
    }
    let code = fields.req_str("sizing")?;
    Sizing::parse(code)
        .map(Some)
        .ok_or_else(|| fields.err(format!("unknown sizing `{code}`")))
}

/// Parses JSONL text (as produced by [`emit`]) back into events. Blank
/// lines are skipped.
///
/// # Errors
///
/// Returns the first line's [`JsonlError`] on any malformed line.
pub fn parse(text: &str) -> Result<Vec<Event>, JsonlError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line, idx + 1)?);
    }
    Ok(events)
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
    fn parse_rejects_malformed_lines() {
        assert!(parse_line("{", 1).is_err());
        assert!(parse_line("{\"time\":1}", 1).is_err(), "missing kind");
        assert!(
            parse_line("{\"time\":1,\"kind\":\"nope\"}", 1).is_err(),
            "unknown kind"
        );
        assert!(
            parse_line("{\"time\":1,\"kind\":\"fault\",\"code\":\"x\"}extra", 1).is_err(),
            "trailing garbage"
        );
        let err = parse_line("{\"time\":true,\"kind\":\"fault\",\"code\":\"x\"}", 7)
            .expect_err("mistyped time");
        assert_eq!(err.line, 7);
    }

    #[test]
    fn string_escapes_round_trip() {
        let e = Event::cycle(
            1.0,
            EventKind::Fault {
                code: "weird \"code\"\\with\nescapes\u{1}".to_owned(),
            },
        );
        let line = emit_line(&e);
        assert_eq!(parse_line(&line, 1), Ok(e.clone()));
        assert_eq!(emit_line(&parse_line(&line, 1).unwrap()), line);
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
