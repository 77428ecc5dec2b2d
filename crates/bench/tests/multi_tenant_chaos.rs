//! Chaos test for the multi-tenant cluster: a tenant's controller
//! crashes mid-billing-interval and recovery must keep the arbiter's
//! lease accounting intact — transferred warm-pool leases are neither
//! orphaned nor double-billed.
//!
//! The lever is the coordinator checkpoint: under
//! `RecoveryPolicy::Checkpoint` the harness snapshots the arbiter (lease
//! books, warm pool with original start times, billed ledger) alongside
//! the controllers, so a crash restores the exact cluster state and the
//! continuation is bit-identical to the crash-free run.

use chamulteon::ArbitrationPolicy;
use chamulteon_bench::multi_tenant::{
    run_multi_tenant, run_multi_tenant_recovered, MultiTenantSpec, TenantCrash,
};
use chamulteon_obs::{EventKind, Obs};
use chamulteon_sim::RecoveryPolicy;

/// A crash cycle whose time (cycle × 30 s) is *not* a multiple of the
/// gcp-per-minute charging interval (60 s): the crash lands mid-interval,
/// while warm-pool leases are inside a paid window.
const MID_INTERVAL_CRASH: TenantCrash = TenantCrash {
    cycle: 13, // t = 390 s
    tenant: 0,
};

fn spec() -> MultiTenantSpec {
    MultiTenantSpec::smoke(ArbitrationPolicy::WeightedFairShare)
}

#[test]
fn checkpointed_crash_recovery_neither_orphans_nor_double_bills_transfers() {
    let spec = spec();
    // The crash must land while the warm pool is in play, or the test
    // proves nothing about transferred leases.
    let clean = run_multi_tenant(&spec, &Obs::disabled());
    assert!(clean.warm_deposits > 0 && clean.warm_draws > 0);

    let (obs, ring) = Obs::recording(1 << 18);
    let crashed = run_multi_tenant_recovered(
        &spec,
        &obs,
        RecoveryPolicy::Checkpoint { cadence: 1 },
        Some(MID_INTERVAL_CRASH),
    );

    // The restore actually happened, warm, from the previous cycle.
    let restores: Vec<_> = ring
        .take()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Restore {
                cycle,
                cold,
                checkpoint_cycle,
            } => Some((cycle, cold, checkpoint_cycle)),
            _ => None,
        })
        .collect();
    assert_eq!(restores, vec![(13, false, Some(12))]);

    // Recovery equivalence: with the arbiter (and its warm pool) in the
    // checkpoint, the recovered cluster's ledgers are bit-identical to
    // the crash-free run — nothing was billed twice and no transferred
    // lease was dropped.
    assert_eq!(crashed.tenants.len(), clean.tenants.len());
    for (c, r) in clean.tenants.iter().zip(&crashed.tenants) {
        assert_eq!(
            c.billed_instance_seconds.to_bits(),
            r.billed_instance_seconds.to_bits(),
            "tenant {} billed {} clean vs {} recovered",
            c.tenant,
            c.billed_instance_seconds,
            r.billed_instance_seconds
        );
        assert_eq!(c.granted, r.granted, "tenant {} grants diverged", c.tenant);
        assert_eq!(c.drawn_warm, r.drawn_warm);
        assert_eq!(c.deposited, r.deposited);
        assert_eq!(c.closed, r.closed);
    }
    assert_eq!(crashed.warm_draws, clean.warm_draws);
    assert_eq!(crashed.warm_deposits, clean.warm_deposits);
    assert_eq!(crashed.warm_expiries, clean.warm_expiries);
    assert!(crashed.peak_in_use <= crashed.budget);
}

#[test]
fn crash_without_checkpoints_restarts_cold_and_keeps_the_ledger_consistent() {
    let spec = spec();
    let (obs, ring) = Obs::recording(1 << 18);
    let crashed = run_multi_tenant_recovered(
        &spec,
        &obs,
        RecoveryPolicy::ColdRestart,
        Some(MID_INTERVAL_CRASH),
    );
    let cold_restores = ring
        .take()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Restore { cold: true, .. }))
        .count();
    assert_eq!(cold_restores, 1);
    // Even a cold controller restart cannot break the cluster invariants:
    // the live arbiter keeps the books, so billing stays conservative and
    // the budget holds.
    assert!(crashed.peak_in_use <= crashed.budget);
    for t in &crashed.tenants {
        assert!(t.billed_instance_seconds > 0.0);
    }
}

#[test]
fn checkpointing_without_a_crash_is_a_pure_read() {
    let spec = spec();
    let plain = run_multi_tenant(&spec, &Obs::disabled());
    let checkpointed = run_multi_tenant_recovered(
        &spec,
        &Obs::disabled(),
        RecoveryPolicy::Checkpoint { cadence: 1 },
        None,
    );
    for (a, b) in plain.tenants.iter().zip(&checkpointed.tenants) {
        assert_eq!(
            a.billed_instance_seconds.to_bits(),
            b.billed_instance_seconds.to_bits()
        );
        assert_eq!(a.granted, b.granted);
    }
    assert_eq!(plain.peak_in_use, checkpointed.peak_in_use);
}
