//! Fixture: R9 suppression-ledger seeds — malformed markers (violations)
//! and well-formed ones (ledger entries).

/// Violation: a reasonless marker. It still suppresses the comparison —
/// R9 points at the real problem, the missing justification.
fn reasonless(a: f64, b: f64) -> bool {
    // audit:allow(R2)
    a.partial_cmp(&b).unwrap().is_lt()
}

/// Violation: the marker names no known rule, so it suppresses nothing.
fn misspelled() {
    // audit:allow(determinsm): the rule name is misspelled
}

/// Violation: an empty reason is no reason.
fn empty_reason() {
    // audit: allow(R8, "")
}

/// Conforming: the legacy trailing-reason syntax.
fn legacy_syntax(a: f64, b: f64) -> bool {
    // audit:allow(R2): fixture pins the legacy marker syntax
    a.partial_cmp(&b).unwrap().is_lt()
}

/// Conforming: the inline quoted-reason syntax.
fn inline_syntax() -> bool {
    // audit: allow(R6, "fixture pins the inline marker syntax")
    std::env::var("CHAMULTEON_FAST").is_ok()
}

/// Conforming: prose mentioning the audit is not a marker.
fn prose_only() {
    // The audit:allow grammar requires parentheses; this line has none.
}
