//! Differential-oracle conformance suite for the Chamulteon reproduction.
//!
//! The analytic spine of this codebase — Erlang-C, the Algorithm 1
//! capacity walk, chain-rate propagation, and FOX's billing ledger — is
//! exactly the kind of code whose bugs survive unit tests: every test
//! that encodes the implementation's own arithmetic re-blesses its
//! mistakes. This crate cross-checks the spine against six *independent*
//! oracles that share no code (and deliberately no numerical technique)
//! with the implementation:
//!
//! * [`mmn_sim`] — a seeded discrete-event M/M/n simulator validating the
//!   Erlang-C wait probability, mean queue length, mean waiting time, and
//!   the capacity solver's answers within batch-means confidence bands;
//! * [`algorithm1`] — a brute-force re-derivation of the Algorithm 1
//!   decision pass by naive linear search, asserting bit-level agreement
//!   with `core`'s one decision path over a seeded grid of generated
//!   applications;
//! * [`fox_ledger`] — a replay of randomized scaling-decision logs
//!   through an independent re-implementation of the FOX policy that
//!   counts billing intervals instead of rounding, asserting exact
//!   agreement on vetoes, lease books, and billed instance-seconds;
//! * [`recovery`] — a crash-recovery differential: over a seeded grid of
//!   crash points inside generated controller scenarios, a controller
//!   restored from its encoded snapshot must continue bit-identically to
//!   the uninterrupted run (targets, FOX billing, degradation log);
//! * [`des_core`] — a statistical differential for the event-driven
//!   simulation core: the DES's measured waiting times, queue lengths and
//!   utilizations must sit inside the micro-simulator's batch-means
//!   confidence bands, and the hybrid fluid regime must reproduce the
//!   analytic M/M/n response-time law while conserving requests exactly;
//! * [`cluster`] — a multi-tenant arbitration differential: randomized
//!   arbitration histories replayed through an independent naive arbiter
//!   (selection loops, counting billing) and through a policy-blind
//!   replay of the raw event log, asserting verdict agreement, the
//!   budget invariant at every event, and bit-exact per-tenant billed
//!   ledgers with warm-pool transfers attributed to their origin.
//!
//! `chamulteon-exp conformance` runs all six and emits the verdict as
//! JSON (see [`report::ConformanceReport::to_json`]).

#![forbid(unsafe_code)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN"
)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod cluster;
pub mod config;
pub mod des_core;
pub mod fox_ledger;
pub mod mmn_sim;
pub mod recovery;
pub mod report;

pub use config::ConformanceConfig;
pub use report::{ConformanceReport, OracleReport};

/// Runs every oracle and collects the combined verdict.
pub fn run_all(config: &ConformanceConfig) -> ConformanceReport {
    ConformanceReport {
        oracles: vec![
            algorithm1::run(config),
            fox_ledger::run(config),
            mmn_sim::run(config),
            recovery::run(config),
            des_core::run(config),
            cluster::run(config),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_is_clean_and_counts_every_oracle() {
        let report = run_all(&ConformanceConfig::quick());
        assert_eq!(report.oracles.len(), 6);
        assert!(report.passed(), "{}", report.to_json());
        assert!(report.total_cases() >= 120, "{}", report.total_cases());
    }
}
