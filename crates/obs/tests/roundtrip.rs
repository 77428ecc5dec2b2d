//! Property test: JSONL emit → parse → re-emit is the identity, on both
//! the text and the value level, across randomly generated events of
//! every schema kind.

#![allow(clippy::unwrap_used, reason = "test code: panics are acceptable here")]

use chamulteon_obs::{
    jsonl, ActuationOutcome, Event, EventKind, Provenance, Sizing, WarmAction, Winner,
    EVENT_KIND_CODES,
};
use proptest::prelude::*;

/// Builds one event of the kind indexed by `kind_idx`, with optional
/// fields present or absent according to `mask` bits and payloads drawn
/// from the remaining primitives. `rate` may be substituted with NaN
/// (via bit 7 of the mask) to cover the non-finite → `null` path.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per primitive the property draws"
)]
fn build_event(
    kind_idx: usize,
    mask: u32,
    time: f64,
    rate: f64,
    small: f64,
    n: u64,
    target: u32,
    flag: bool,
) -> Event {
    let opt_f64 = |bit: u32, v: f64| (mask & (1 << bit) != 0).then_some(v);
    let opt_u64 = |bit: u32, v: u64| (mask & (1 << bit) != 0).then_some(v);
    let opt_u32 = |bit: u32, v: u32| (mask & (1 << bit) != 0).then_some(v);
    let opt_bool = |bit: u32, v: bool| (mask & (1 << bit) != 0).then_some(v);
    let rate = if mask & (1 << 7) != 0 { f64::NAN } else { rate };
    let winner = match mask % 3 {
        0 => Winner::Proactive,
        1 => Winner::Reactive,
        _ => Winner::Hold,
    };
    let service = usize::try_from(target % 7).unwrap();
    let kind = match kind_idx {
        0 => EventKind::CycleStart {
            tick: n,
            measured_rate: rate,
            entry_fresh: flag,
        },
        1 => EventKind::Forecast {
            generation: n,
            horizon: n % 97,
            trusted: flag,
            mase: opt_f64(0, small),
        },
        2 => EventKind::DemandEstimate {
            demand: small,
            fresh: flag,
        },
        3 => EventKind::CapacitySolve {
            solved: n / 3,
            held: n,
        },
        4 => EventKind::ConflictResolution {
            proactive: opt_u32(0, target),
            proactive_trusted: opt_bool(1, flag),
            reactive: opt_u32(2, target / 2),
            winner,
            chosen: target,
        },
        5 => EventKind::FoxVerdict {
            proposed: target,
            reviewed: target.saturating_add(1),
            suppressed: flag,
            paid_remaining: opt_f64(0, small),
        },
        6 => EventKind::Degradation {
            code: format!("reason_{}", n % 9),
            attempt: opt_u32(0, target),
        },
        7 => EventKind::Actuation {
            target,
            outcome: match mask % 3 {
                0 => ActuationOutcome::Applied,
                1 => ActuationOutcome::Retried,
                _ => ActuationOutcome::Abandoned,
            },
            attempt: target % 5,
        },
        8 => EventKind::Fault {
            code: format!("fault \"{}\"\n{}", n % 6, small),
        },
        9 => EventKind::Decision(Provenance {
            tick: n,
            measured_rate: rate,
            offered_rate: opt_f64(0, rate * 0.5),
            demand: small,
            forecast_rate: opt_f64(1, rate * 1.5),
            forecast_generation: opt_u64(2, n % 1000),
            forecast_trusted: opt_bool(3, flag),
            winner,
            sizing: opt_bool(4, flag)
                .map(|solved| if solved { Sizing::Solved } else { Sizing::Held }),
            fox_suppressed: opt_bool(5, !flag),
            proposed: target,
            target: target.saturating_add(u32::from(flag)),
        }),
        10 => EventKind::Checkpoint {
            cycle: n,
            bytes: n.saturating_mul(3),
        },
        11 => EventKind::Restore {
            cycle: n,
            cold: flag,
            checkpoint_cycle: opt_u64(0, n.saturating_sub(1)),
        },
        12 => EventKind::Arbitration {
            tenant: target % 5,
            policy: match mask % 3 {
                0 => "strict-priority".to_owned(),
                1 => "fair-share".to_owned(),
                _ => "cost-greedy".to_owned(),
            },
            requested: target,
            granted: target / 2,
            drawn_warm: target % 3,
            opened_cold: target % 4,
            deposited: target % 2,
            closed: target % 5,
            in_use: target.saturating_add(1),
            budget: target.saturating_add(2),
        },
        _ => EventKind::WarmTransfer {
            action: match mask % 3 {
                0 => WarmAction::Deposit,
                1 => WarmAction::Draw,
                _ => WarmAction::Expire,
            },
            tenant: opt_u32(0, target % 5),
            origin: target % 7,
            start: time * 0.5,
            paid_until: opt_f64(1, time * 0.75),
        },
    };
    if mask & (1 << 8) != 0 {
        Event::service(time, service, kind)
    } else {
        Event::cycle(time, kind)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// emit → parse → re-emit is the identity on both the parsed value
    /// and the serialized text, for every kind and optional-field mask.
    #[test]
    fn jsonl_round_trip_is_identity(
        kind_idx in 0usize..14,
        mask in 0u32..512,
        time in 0.0f64..1.0e7,
        rate in 0.0f64..1.0e5,
        small in 0.0f64..10.0,
        n in 0u64..1_000_000,
        target in 0u32..10_000,
        flag in any::<bool>(),
    ) {
        let event = build_event(kind_idx, mask, time, rate, small, n, target, flag);
        let line = jsonl::emit_line(&event);
        let parsed = jsonl::parse_line(&line, 1)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n  line: {line}")))?;
        // Value identity, modulo NaN (compare via re-emission instead).
        let reemitted = jsonl::emit_line(&parsed);
        prop_assert_eq!(&reemitted, &line, "re-emit must reproduce the text");
        if !has_nan(&event) {
            prop_assert_eq!(&parsed, &event);
        }
        // Whole-document path agrees with the per-line path.
        let text = jsonl::emit(&[event.clone(), parsed]);
        let back = jsonl::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("doc parse failed: {e}")))?;
        prop_assert_eq!(jsonl::emit(&back), text);
    }
}

/// Whether the event carries a NaN payload (NaN breaks `PartialEq`
/// value comparison; textual identity still holds).
fn has_nan(event: &Event) -> bool {
    match &event.kind {
        EventKind::CycleStart { measured_rate, .. } => measured_rate.is_nan(),
        EventKind::Decision(p) => p.measured_rate.is_nan(),
        _ => false,
    }
}

#[test]
fn every_kind_code_appears_in_generated_events() {
    // Deterministic sweep: each kind index maps onto its schema code.
    let mut seen = Vec::new();
    for kind_idx in 0..14 {
        let event = build_event(kind_idx, 0x1ff, 1.0, 2.0, 0.5, 42, 3, true);
        seen.push(event.kind.code());
        let line = jsonl::emit_line(&event);
        let parsed = jsonl::parse_line(&line, 1).expect("canonical line parses");
        assert_eq!(jsonl::emit_line(&parsed), line);
    }
    assert_eq!(seen, EVENT_KIND_CODES);
}
