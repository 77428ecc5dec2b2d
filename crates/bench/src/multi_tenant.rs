//! Multi-tenant cluster benchmark: K Chamulteon controllers sharing one
//! instance budget through the [`ClusterArbiter`] and its cross-tenant
//! warm pool.
//!
//! Each tenant runs the full single-tenant measurement stack — its own
//! [`Simulation`] over a phase-offset diurnal trace and its own scaler
//! [`Driver`] — but instead of applying its per-service targets directly,
//! every scaling interval it aggregates them into one
//! [`TenantProposal`] and submits it to the shared arbiter. The arbiter
//! settles contention under the configured [`ArbitrationPolicy`], moves
//! still-paid releases into the warm pool, and hands back a granted total
//! the tenant must fit its services into (largest targets are trimmed
//! first, deterministically).
//!
//! The phase offsets are the point of the exercise: tenant `i`'s source
//! day is rotated by `i/K` of a day before compression, so one tenant's
//! peak decays exactly as the next one's builds — the traffic pattern
//! under which FOX-style warm transfers pay off, because the instances
//! tenant A releases are still paid when tenant B wants them.
//!
//! The arbiter models the *cluster ledger* (lease lifetimes, billing
//! attribution, the budget invariant); each tenant's simulator models its
//! *serving capacity* under the deployment's provisioning delays. Warm
//! draws therefore change who pays, not how fast capacity arrives —
//! folding the warm pool into provisioning latency is future work.

use crate::drivers::{Driver, ScalerKind};
use chamulteon::{ArbitrationPolicy, ChargingModel, ClusterArbiter, ClusterEvent, TenantProposal};
use chamulteon_obs::json::Writer;
use chamulteon_obs::{Event, EventKind, Obs, WarmAction};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_queueing::capacity::min_instances_for_utilization;
use chamulteon_sim::RecoveryPolicy;
use chamulteon_sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
use chamulteon_workload::generators::{
    bibsonomy_like, peak_rate_for_total_instances, wikipedia_like,
};
use chamulteon_workload::LoadTrace;

/// Seconds in the synthetic source day before compression (mirrors
/// `setups`).
const SOURCE_DAY: f64 = 86_400.0;
/// Source sampling step of the generators (mirrors `setups`).
const SOURCE_STEP: f64 = 60.0;
/// The paper's per-service demands (mirrors `setups`).
const DEMANDS: [f64; 3] = [0.059, 0.1, 0.04];
/// Target utilization translating "peak instances" into a peak rate
/// (mirrors `setups`).
const SIZING_RHO: f64 = 0.8;

/// One multi-tenant cluster scenario: K tenants, one budget, one policy.
#[derive(Debug, Clone)]
pub struct MultiTenantSpec {
    /// Scenario name for reports.
    pub name: String,
    /// Number of tenants sharing the cluster.
    pub tenants: usize,
    /// How the arbiter resolves scale-up contention.
    pub policy: ArbitrationPolicy,
    /// The cluster's charging model (drives warm-pool economics).
    pub charging: ChargingModel,
    /// Global instance budget across all tenants (running + warm).
    pub budget: u32,
    /// Experiment duration in seconds (one compressed source day).
    pub duration: f64,
    /// Scaling (and monitoring) interval in seconds.
    pub scaling_interval: f64,
    /// Per-tenant peak sizing: each tenant's trace is scaled so its own
    /// peak needs about this many instances.
    pub peak_instances: u32,
    /// Base seed; tenant `i` derives its trace from `seed + i`.
    pub seed: u64,
    /// Warmup "days" of history preloaded into each proactive scaler.
    pub warmup_days: usize,
    /// Hist's schedule bucket length in seconds.
    pub hist_bucket: f64,
}

impl MultiTenantSpec {
    /// A fast, contended scenario for tests and the CI smoke job: three
    /// tenants with offset peaks squeezed into 10 simulated minutes,
    /// sharing a budget of roughly 60% of their combined peak.
    pub fn smoke(policy: ArbitrationPolicy) -> MultiTenantSpec {
        MultiTenantSpec {
            name: "Multi-tenant smoke".into(),
            tenants: 3,
            policy,
            charging: ChargingModel::gcp_per_minute(),
            budget: 54, // ≈60% of 3 tenants × 30-instance peaks
            duration: 600.0,
            scaling_interval: 30.0,
            peak_instances: 30,
            seed: 11,
            warmup_days: 2,
            hist_bucket: 120.0,
        }
    }

    /// The full-size scenario: four tenants over one compressed hour at
    /// Table II scale, budget ≈70% of the combined peak.
    pub fn standard(policy: ArbitrationPolicy) -> MultiTenantSpec {
        MultiTenantSpec {
            name: "Multi-tenant cluster".into(),
            tenants: 4,
            policy,
            charging: ChargingModel::gcp_per_minute(),
            budget: 336, // ≈70% of 4 tenants × 120-instance peaks
            duration: 3_600.0,
            scaling_interval: 60.0,
            peak_instances: 120,
            seed: 12,
            warmup_days: 2,
            hist_bucket: 300.0,
        }
    }
}

/// One tenant's scored outcome of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant index.
    pub tenant: usize,
    /// The arbitration weight the tenant submitted every cycle.
    pub weight: f64,
    /// Sum of desired totals over all arbitration cycles.
    pub requested: u64,
    /// Sum of granted totals over all arbitration cycles.
    pub granted: u64,
    /// Instances satisfied from the warm pool.
    pub drawn_warm: u64,
    /// Fresh (cold) leases opened.
    pub opened_cold: u64,
    /// Still-paid releases parked into the warm pool.
    pub deposited: u64,
    /// Releases closed outright inside the release window.
    pub closed: u64,
    /// Billed instance-seconds attributed to this tenant (lease-origin
    /// attribution: transferred leases keep billing their opener).
    pub billed_instance_seconds: f64,
    /// SLO violation percentage of the tenant's own workload.
    pub slo_violations: f64,
    /// Apdex percentage of the tenant's own workload.
    pub apdex: f64,
}

/// The cluster-level outcome of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantOutcome {
    /// Scenario name.
    pub name: String,
    /// The arbitration policy that ran.
    pub policy: ArbitrationPolicy,
    /// Charging-model name.
    pub charging: String,
    /// The global instance budget.
    pub budget: u32,
    /// Largest `running + warm` the cluster ever held (≤ budget).
    pub peak_in_use: u32,
    /// Warm-pool draws across all tenants.
    pub warm_draws: u64,
    /// Warm-pool deposits across all tenants.
    pub warm_deposits: u64,
    /// Warm leases that expired undrawn.
    pub warm_expiries: u64,
    /// Per-tenant reports, indexed by tenant.
    pub tenants: Vec<TenantReport>,
}

impl MultiTenantOutcome {
    /// Total billed instance-seconds across all tenants.
    pub fn billed_total(&self) -> f64 {
        self.tenants.iter().map(|t| t.billed_instance_seconds).sum()
    }

    /// Renders the per-tenant table plus the cluster summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — policy {}, charging {}, budget {}\n\
             {:>6} {:>7} {:>9} {:>9} {:>6} {:>6} {:>8} {:>7} {:>12} {:>7} {:>7}\n",
            self.name,
            self.policy.name(),
            self.charging,
            self.budget,
            "tenant",
            "weight",
            "requested",
            "granted",
            "warm",
            "cold",
            "deposit",
            "close",
            "billed_i_s",
            "slo%",
            "apdex",
        );
        for t in &self.tenants {
            out.push_str(&format!(
                "{:>6} {:>7.1} {:>9} {:>9} {:>6} {:>6} {:>8} {:>7} {:>12.0} {:>7.2} {:>7.1}\n",
                t.tenant,
                t.weight,
                t.requested,
                t.granted,
                t.drawn_warm,
                t.opened_cold,
                t.deposited,
                t.closed,
                t.billed_instance_seconds,
                t.slo_violations,
                t.apdex,
            ));
        }
        out.push_str(&format!(
            "cluster: peak in-use {}/{} — {} warm draws, {} deposits, {} expiries, \
             {:.0} billed instance-seconds total\n",
            self.peak_in_use,
            self.budget,
            self.warm_draws,
            self.warm_deposits,
            self.warm_expiries,
            self.billed_total(),
        ));
        out
    }

    /// Serializes the outcome as an indented JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::indented(&mut out);
        w.str("name", &self.name)
            .str("policy", self.policy.name())
            .str("charging", &self.charging)
            .u32("budget", self.budget)
            .u32("peak_in_use", self.peak_in_use)
            .u64("warm_draws", self.warm_draws)
            .u64("warm_deposits", self.warm_deposits)
            .u64("warm_expiries", self.warm_expiries)
            .f64("billed_total", self.billed_total())
            .begin_array("tenants");
        for t in &self.tenants {
            w.push_object()
                .usize("tenant", t.tenant)
                .f64("weight", t.weight)
                .u64("requested", t.requested)
                .u64("granted", t.granted)
                .u64("drawn_warm", t.drawn_warm)
                .u64("opened_cold", t.opened_cold)
                .u64("deposited", t.deposited)
                .u64("closed", t.closed)
                .f64("billed_instance_seconds", t.billed_instance_seconds)
                .f64("slo_violations", t.slo_violations)
                .f64("apdex", t.apdex)
                .end_object();
        }
        w.end_array();
        w.finish();
        out
    }
}

/// One tenant's live state inside the measurement loop.
struct TenantRun {
    sim: Simulation,
    driver: Driver,
    weight: f64,
    /// Set when the tenant's trace ended mid-interval; it then stops
    /// proposing (the arbiter treats a silent tenant as holding).
    done: bool,
    requested: u64,
    granted: u64,
    drawn_warm: u64,
    opened_cold: u64,
    deposited: u64,
    closed: u64,
}

/// Builds tenant `index`'s trace: the shared source day rotated by
/// `index/K` of a day (so peaks are evenly staggered), compressed into
/// the experiment duration and scaled to the tenant's peak sizing.
/// Tenants alternate between the Wikipedia-like and BibSonomy-like
/// generators so the cluster mixes smooth and bursty shapes.
fn tenant_trace(spec: &MultiTenantSpec, index: usize) -> LoadTrace {
    let generator = if index.is_multiple_of(2) {
        wikipedia_like
    } else {
        bibsonomy_like
    };
    let day = generator(
        spec.seed.wrapping_add(index as u64),
        SOURCE_STEP,
        SOURCE_DAY,
    );
    let rotated = rotate_trace(&day, index, spec.tenants.max(1));
    let compressed = rotated.compress_to(spec.duration);
    let peak_rate = peak_rate_for_total_instances(spec.peak_instances, &DEMANDS, SIZING_RHO);
    compressed.scale_to_peak(peak_rate)
}

/// Rotates a trace left by `index/count` of its length, preserving step
/// and duration. Identity on a rotation of zero samples or a degenerate
/// trace.
fn rotate_trace(trace: &LoadTrace, index: usize, count: usize) -> LoadTrace {
    let len = trace.len();
    if len == 0 || count == 0 {
        return trace.clone();
    }
    let shift = (index * len / count) % len;
    if shift == 0 {
        return trace.clone();
    }
    let mut rates = Vec::with_capacity(len);
    rates.extend_from_slice(&trace.rates()[shift..]);
    rates.extend_from_slice(&trace.rates()[..shift]);
    // Same step and sample count as the input, so reconstruction cannot
    // fail; fall back to the unrotated trace rather than panic.
    LoadTrace::new(trace.step(), rates).unwrap_or_else(|_| trace.clone())
}

/// Builds one tenant's simulator and scaler, mirroring the single-tenant
/// harness init: fair initial placement at 60% utilization, then warmup
/// history for the proactive cycle.
fn init_tenant(
    spec: &MultiTenantSpec,
    model: &ApplicationModel,
    trace: &LoadTrace,
    index: usize,
    obs: &Obs,
) -> TenantRun {
    let config = SimulationConfig::new(
        DeploymentProfile::docker(),
        SloPolicy::default(),
        spec.seed.wrapping_add(100 + index as u64),
    )
    .with_monitoring_interval(spec.scaling_interval);
    let mut sim = Simulation::new(model, trace, config);

    let rate0 = trace.rate_at(0.0);
    let visit_ratios = model.visit_ratios();
    for (s, (service, &visits)) in model.services().iter().zip(&visit_ratios).enumerate() {
        let n0 = min_instances_for_utilization(rate0 * visits, service.nominal_demand(), 0.6);
        let _ = sim.set_supply(s, n0); // s < service_count by construction
    }

    let mut driver =
        Driver::new_observed(ScalerKind::Chamulteon, model, spec.hist_bucket, obs.clone());
    if spec.warmup_days > 0 {
        if let Ok(day) = trace.resample(spec.scaling_interval) {
            let mut rates = Vec::with_capacity(day.len() * spec.warmup_days);
            for _ in 0..spec.warmup_days {
                rates.extend_from_slice(day.rates());
            }
            driver.preload_history(spec.scaling_interval, &rates);
        }
    }

    TenantRun {
        sim,
        driver,
        // Descending weights: tenant 0 is the highest-priority workload.
        weight: (spec.tenants.saturating_sub(index)) as f64,
        done: false,
        requested: 0,
        granted: 0,
        drawn_warm: 0,
        opened_cold: 0,
        deposited: 0,
        closed: 0,
    }
}

/// Trims per-service targets down to a granted total: while the sum
/// exceeds the grant, the largest target loses one instance (ties to the
/// lowest service index), so the cut lands where relative overshoot is
/// biggest and the result is deterministic.
fn fit_targets(targets: &mut [u32], granted: u32) {
    let mut total: u64 = targets.iter().map(|&t| u64::from(t)).sum();
    while total > u64::from(granted) {
        let mut best: Option<usize> = None;
        for (s, &t) in targets.iter().enumerate() {
            if t > 0 && best.is_none_or(|b| t > targets[b]) {
                best = Some(s);
            }
        }
        let Some(s) = best else {
            return; // all zero: nothing left to trim
        };
        targets[s] -= 1;
        total -= 1;
    }
}

/// Emits the arbiter's drained event log as `warm_transfer` observability
/// events and tallies the cluster-level warm-pool counters.
fn emit_cluster_events(
    events: &[ClusterEvent],
    obs: &Obs,
    draws: &mut u64,
    deposits: &mut u64,
    expiries: &mut u64,
) {
    for event in events {
        let mapped = match *event {
            ClusterEvent::Deposit {
                time,
                tenant,
                start,
                origin,
            } => {
                *deposits += 1;
                Some((time, WarmAction::Deposit, Some(tenant), origin, start, None))
            }
            ClusterEvent::Draw {
                time,
                tenant,
                start,
                origin,
            } => {
                *draws += 1;
                Some((time, WarmAction::Draw, Some(tenant), origin, start, None))
            }
            ClusterEvent::Expire {
                time,
                start,
                paid_until,
                origin,
            } => {
                *expiries += 1;
                Some((
                    time,
                    WarmAction::Expire,
                    None,
                    origin,
                    start,
                    Some(paid_until),
                ))
            }
            // Open/Close are ordinary lease lifecycle, already visible
            // through the arbitration verdict counts.
            ClusterEvent::Open { .. } | ClusterEvent::Close { .. } => None,
        };
        if let Some((time, action, tenant, origin, start, paid_until)) = mapped {
            obs.record_with(|| {
                Event::cycle(
                    time,
                    EventKind::WarmTransfer {
                        action,
                        tenant: tenant.and_then(|t| u32::try_from(t).ok()),
                        origin: u32::try_from(origin).unwrap_or(u32::MAX),
                        start,
                        paid_until,
                    },
                )
            });
        }
    }
}

/// One injected tenant-controller crash: at the start of arbitration
/// cycle `cycle` (1-based), tenant `tenant`'s controller process dies and
/// its replacement takes over the decision.
#[derive(Debug, Clone, Copy)]
pub struct TenantCrash {
    /// 1-based arbitration cycle the crash lands on.
    pub cycle: usize,
    /// The tenant whose controller crashes.
    pub tenant: usize,
}

/// Runs the multi-tenant measurement loop: every scaling interval each
/// live tenant decides its per-service targets, the aggregated desires go
/// through one arbitration cycle, and each tenant applies its targets
/// trimmed to the granted total. Deterministic in the spec.
pub fn run_multi_tenant(spec: &MultiTenantSpec, obs: &Obs) -> MultiTenantOutcome {
    run_multi_tenant_recovered(spec, obs, RecoveryPolicy::ColdRestart, None)
}

/// [`run_multi_tenant`] with crash recovery: under
/// [`RecoveryPolicy::Checkpoint`] the harness snapshots the crashed
/// tenant's controller *and* the cluster arbiter (lease books, warm pool,
/// billed ledger) every `cadence` cycles; an injected [`TenantCrash`]
/// then restores both from the latest checkpoint. Because the arbiter
/// snapshot carries the warm pool with original start times, a transfer
/// in flight at the crash is neither orphaned (its lease survives in the
/// restored pool) nor double-billed (the restored ledger is the one the
/// bill was already posted to). With no crash the outcome is
/// bit-identical to the plain run: snapshots are pure reads.
pub fn run_multi_tenant_recovered(
    spec: &MultiTenantSpec,
    obs: &Obs,
    recovery: RecoveryPolicy,
    crash: Option<TenantCrash>,
) -> MultiTenantOutcome {
    let model = ApplicationModel::paper_benchmark();
    let entry = model.entry();
    let service_count = model.service_count();

    let traces: Vec<LoadTrace> = (0..spec.tenants).map(|i| tenant_trace(spec, i)).collect();
    let mut runs: Vec<TenantRun> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| init_tenant(spec, &model, trace, i, obs))
        .collect();

    let mut arbiter = ClusterArbiter::new(
        spec.charging.clone(),
        spec.policy,
        spec.budget,
        spec.tenants,
    );
    let mut peak_in_use = 0u32;
    let mut warm_draws = 0u64;
    let mut warm_deposits = 0u64;
    let mut warm_expiries = 0u64;
    // Latest coordinator checkpoint under `RecoveryPolicy::Checkpoint`:
    // the cycle it was taken after, the arbiter snapshot (lease books,
    // warm pool, billed ledger) and every tenant's encoded controller.
    let mut checkpoint: Option<(u64, String, Vec<Option<String>>)> = None;

    let intervals = (spec.duration / spec.scaling_interval).ceil() as usize;
    for k in 1..=intervals {
        let t = (k as f64 * spec.scaling_interval).min(spec.duration);

        // An injected coordinator crash lands at the start of this cycle:
        // the tenant's controller dies with the arbiter's in-memory state.
        // With a checkpoint both are restored from it — the warm pool
        // comes back with its original start times, so in-flight
        // transfers stay attributed; without one the controller restarts
        // cold (the deployment itself keeps running either way).
        if let Some(plan) = crash {
            if plan.cycle == k && plan.tenant < runs.len() {
                let snapshot = checkpoint
                    .as_ref()
                    .and_then(|(_, _, drivers)| drivers.get(plan.tenant))
                    .cloned()
                    .flatten();
                let (driver, mut warm) = Driver::restart(
                    ScalerKind::Chamulteon,
                    &model,
                    spec.hist_bucket,
                    obs.clone(),
                    snapshot.as_deref(),
                );
                if let Some(run) = runs.get_mut(plan.tenant) {
                    run.driver = driver;
                }
                if let Some((_, arbiter_snapshot, _)) = checkpoint.as_ref() {
                    match ClusterArbiter::restore(arbiter_snapshot) {
                        Ok(restored) => arbiter = restored,
                        Err(_) => warm = false, // unusable checkpoint
                    }
                }
                let checkpoint_cycle = if warm {
                    checkpoint.as_ref().map(|&(cycle, ..)| cycle)
                } else {
                    None
                };
                obs.record_with(|| {
                    Event::cycle(
                        t,
                        EventKind::Restore {
                            cycle: u64::try_from(k).unwrap_or(u64::MAX),
                            cold: !warm,
                            checkpoint_cycle,
                        },
                    )
                });
            }
        }

        // Phase 1: every live tenant decides what it wants.
        let mut proposals: Vec<TenantProposal> = Vec::with_capacity(spec.tenants);
        let mut desires: Vec<(usize, Vec<u32>)> = Vec::with_capacity(spec.tenants);
        for (i, run) in runs.iter_mut().enumerate() {
            if run.done {
                continue;
            }
            if run.sim.run_until(t).is_err() {
                run.done = true; // unreachable with a monotone schedule
                continue;
            }
            let Some(observed) = run.sim.observe_interval(k - 1) else {
                run.done = true; // trace ended mid-interval
                continue;
            };
            let provisioned: Vec<u32> =
                (0..service_count).map(|s| run.sim.provisioned(s)).collect();
            let targets = run.driver.decide_observed(
                t,
                spec.scaling_interval,
                &observed,
                &provisioned,
                entry,
            );
            let desired = targets
                .iter()
                .fold(0u32, |total, &target| total.saturating_add(target));
            let held: u32 = provisioned
                .iter()
                .fold(0u32, |total, &n| total.saturating_add(n));
            // Marginal-gain proxy for the cost-greedy policy: how
            // under-provisioned the tenant is, weighted by its priority —
            // the deficit an extra instance would eat into.
            let slo_gain = f64::from(desired.saturating_sub(held)) * run.weight;
            proposals.push(TenantProposal {
                tenant: i,
                desired,
                weight: run.weight,
                slo_gain,
            });
            desires.push((i, targets));
        }

        // Phase 2: one arbitration cycle over the shared budget.
        let verdicts = arbiter.arbitrate(t, &proposals);
        peak_in_use = peak_in_use.max(arbiter.in_use());
        emit_cluster_events(
            &arbiter.take_events(),
            obs,
            &mut warm_draws,
            &mut warm_deposits,
            &mut warm_expiries,
        );

        // Phase 3: each tenant applies its targets under the grant.
        for (verdict, (tenant, targets)) in verdicts.iter().zip(desires.iter_mut()) {
            obs.record_with(|| {
                Event::cycle(
                    t,
                    EventKind::Arbitration {
                        tenant: u32::try_from(verdict.tenant).unwrap_or(u32::MAX),
                        policy: spec.policy.name().to_owned(),
                        requested: verdict.requested,
                        granted: verdict.granted,
                        drawn_warm: verdict.drawn_warm,
                        opened_cold: verdict.opened_cold,
                        deposited: verdict.deposited,
                        closed: verdict.closed,
                        in_use: arbiter.in_use(),
                        budget: spec.budget,
                    },
                )
            });
            let Some(run) = runs.get_mut(*tenant) else {
                continue;
            };
            run.requested += u64::from(verdict.requested);
            run.granted += u64::from(verdict.granted);
            run.drawn_warm += u64::from(verdict.drawn_warm);
            run.opened_cold += u64::from(verdict.opened_cold);
            run.deposited += u64::from(verdict.deposited);
            run.closed += u64::from(verdict.closed);
            fit_targets(targets, verdict.granted);
            for (s, &target) in targets.iter().enumerate() {
                // Actuation cannot fail without a fault plan; a failure
                // would simply leave the previous supply standing.
                let _ = run.sim.scale_to(s, target);
            }
        }

        // Checkpoint cadence: after every `cadence`-th cycle the
        // coordinator state — the arbiter and every controller — is
        // snapshotted (pure reads), so the next crash restores from here.
        let every = recovery.checkpoint_every();
        if every > 0 && k.is_multiple_of(every) {
            let drivers: Vec<Option<String>> = runs
                .iter()
                .map(|run| run.driver.snapshot_encoded())
                .collect();
            checkpoint = Some((
                u64::try_from(k).unwrap_or(u64::MAX),
                arbiter.snapshot(),
                drivers,
            ));
        }
    }

    // Finalization: drain each tenant's simulation and score it; billing
    // comes from the arbiter's origin-attributed ledger.
    let tenants: Vec<TenantReport> = runs
        .into_iter()
        .enumerate()
        .map(|(i, mut run)| {
            let _ = run.sim.run_until(spec.duration);
            let result = run.sim.finish();
            TenantReport {
                tenant: i,
                weight: run.weight,
                requested: run.requested,
                granted: run.granted,
                drawn_warm: run.drawn_warm,
                opened_cold: run.opened_cold,
                deposited: run.deposited,
                closed: run.closed,
                billed_instance_seconds: arbiter.billed_instance_seconds(i, spec.duration),
                slo_violations: result.slo_violation_percent(),
                apdex: result.apdex_percent(),
            }
        })
        .collect();

    MultiTenantOutcome {
        name: spec.name.clone(),
        policy: spec.policy,
        charging: spec.charging.name.clone(),
        budget: spec.budget,
        peak_in_use,
        warm_draws,
        warm_deposits,
        warm_expiries,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(policy: ArbitrationPolicy) -> MultiTenantOutcome {
        run_multi_tenant(&MultiTenantSpec::smoke(policy), &Obs::disabled())
    }

    #[test]
    fn smoke_run_respects_the_budget_and_bills_every_tenant() {
        let outcome = smoke(ArbitrationPolicy::WeightedFairShare);
        assert_eq!(outcome.tenants.len(), 3);
        assert!(outcome.peak_in_use <= outcome.budget);
        assert!(outcome.peak_in_use > 0, "cluster never held an instance");
        for t in &outcome.tenants {
            assert!(
                t.billed_instance_seconds > 0.0,
                "tenant {} was never billed",
                t.tenant
            );
            assert!(t.requested > 0, "tenant {} never proposed", t.tenant);
        }
    }

    #[test]
    fn report_fields_read_back_through_the_shared_codec() {
        let outcome = smoke(ArbitrationPolicy::WeightedFairShare);
        let text = outcome.to_json();
        let doc = chamulteon_obs::json::parse(&text).expect("report parses");
        let root = doc.as_object().expect("object root");
        assert_eq!(root.str("name"), Ok(outcome.name.as_str()));
        assert_eq!(root.str("policy"), Ok("fair-share"));
        assert_eq!(root.str("charging"), Ok(outcome.charging.as_str()));
        assert_eq!(root.u32("budget"), Ok(outcome.budget));
        assert_eq!(root.u32("peak_in_use"), Ok(outcome.peak_in_use));
        assert_eq!(root.u64("warm_draws"), Ok(outcome.warm_draws));
        assert_eq!(root.u64("warm_deposits"), Ok(outcome.warm_deposits));
        assert_eq!(root.u64("warm_expiries"), Ok(outcome.warm_expiries));
        let bits = |v: Result<f64, _>| v.map(f64::to_bits);
        assert_eq!(
            bits(root.f64("billed_total")),
            Ok(outcome.billed_total().to_bits())
        );
        let tenants = root.array("tenants").expect("tenants");
        assert_eq!(tenants.len(), outcome.tenants.len());
        for (value, t) in tenants.iter().zip(&outcome.tenants) {
            let fields = value.as_object().expect("tenant object");
            assert_eq!(fields.usize("tenant"), Ok(t.tenant));
            assert_eq!(bits(fields.f64("weight")), Ok(t.weight.to_bits()));
            assert_eq!(fields.u64("requested"), Ok(t.requested));
            assert_eq!(fields.u64("granted"), Ok(t.granted));
            assert_eq!(fields.u64("drawn_warm"), Ok(t.drawn_warm));
            assert_eq!(fields.u64("opened_cold"), Ok(t.opened_cold));
            assert_eq!(fields.u64("deposited"), Ok(t.deposited));
            assert_eq!(fields.u64("closed"), Ok(t.closed));
            let billed = fields.f64("billed_instance_seconds");
            assert_eq!(bits(billed), Ok(t.billed_instance_seconds.to_bits()));
            assert_eq!(
                bits(fields.f64("slo_violations")),
                Ok(t.slo_violations.to_bits())
            );
            assert_eq!(bits(fields.f64("apdex")), Ok(t.apdex.to_bits()));
        }
    }

    #[test]
    fn contention_trims_grants_and_the_warm_pool_moves_leases() {
        let outcome = smoke(ArbitrationPolicy::StrictPriority);
        let requested: u64 = outcome.tenants.iter().map(|t| t.requested).sum();
        let granted: u64 = outcome.tenants.iter().map(|t| t.granted).sum();
        assert!(
            granted < requested,
            "budget {} never bound ({granted} of {requested} granted)",
            outcome.budget
        );
        // Offset peaks with a per-minute charging model: scale-downs park
        // still-paid leases, and later scale-ups must draw them.
        assert!(outcome.warm_deposits > 0, "no lease was ever parked warm");
        assert!(outcome.warm_draws > 0, "no warm lease was ever drawn");
    }

    #[test]
    fn runs_are_deterministic_in_the_spec() {
        let a = smoke(ArbitrationPolicy::CostGreedy);
        let b = smoke(ArbitrationPolicy::CostGreedy);
        assert_eq!(a.peak_in_use, b.peak_in_use);
        assert_eq!(a.warm_draws, b.warm_draws);
        assert_eq!(a.billed_total().to_bits(), b.billed_total().to_bits());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(
                x.billed_instance_seconds.to_bits(),
                y.billed_instance_seconds.to_bits()
            );
            assert_eq!(x.granted, y.granted);
        }
    }

    #[test]
    fn policies_disagree_under_contention() {
        // Same workloads, same budget — the three policies must not all
        // produce the same grant split, or arbitration is vacuous.
        let grants: Vec<Vec<u64>> = ArbitrationPolicy::all()
            .iter()
            .map(|&p| smoke(p).tenants.iter().map(|t| t.granted).collect())
            .collect();
        assert!(
            grants[0] != grants[1] || grants[1] != grants[2],
            "all policies granted identically: {grants:?}"
        );
    }

    #[test]
    fn fit_targets_trims_largest_first_and_is_deterministic() {
        let mut targets = [5u32, 9, 7];
        fit_targets(&mut targets, 15);
        // Largest-first with ties to the lowest index levels the targets.
        assert_eq!(targets, [5, 5, 5]);
        assert_eq!(targets.iter().sum::<u32>(), 15);
        let mut zeroes = [0u32, 0];
        fit_targets(&mut zeroes, 0);
        assert_eq!(zeroes, [0, 0]);
        // Granted above the sum is a no-op.
        let mut under = [2u32, 3];
        fit_targets(&mut under, 99);
        assert_eq!(under, [2, 3]);
    }

    #[test]
    fn rotated_traces_keep_mass_and_shift_the_peak() {
        let day = wikipedia_like(7, SOURCE_STEP, SOURCE_DAY);
        let rotated = rotate_trace(&day, 1, 3);
        assert_eq!(rotated.len(), day.len());
        assert!((rotated.mean_rate() - day.mean_rate()).abs() < 1e-9 * day.mean_rate().abs());
        assert!((rotated.peak_rate() - day.peak_rate()).abs() < f64::EPSILON * day.peak_rate());
        // The rotation actually moved something.
        assert!(rotated.rates() != day.rates());
    }
}
