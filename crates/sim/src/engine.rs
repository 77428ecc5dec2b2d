//! [`Simulation`]: the event-driven simulation engine, with the nested VM
//! pool and the hybrid fluid switch.

use crate::config::{HybridConfig, SimulationConfig};
use crate::error::SimError;
use crate::event::{EventId, EventKind, EventQueue};
use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::fluid::{self, Carry, FluidStep};
use crate::nested::VmPoolState;
use crate::station::{Regime, Station};
use crate::stats::{
    second_index, ObservedSample, ServiceIntervalStats, SimulationResult, SupplyChange,
};
use chamulteon_perfmodel::ApplicationModel;
use chamulteon_workload::{LoadTrace, PoissonArrivals};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Every instance crash a fault plan dictates over a run, in schedule
/// order: one roll per (monitoring interval, service), firing
/// mid-interval.
///
/// Interval starts are derived as `k · interval` rather than accumulated
/// with `start += interval`: repeated addition drifts by an ulp every few
/// thousand steps, so on long runs the accumulated schedule would diverge
/// from the derived one and crash times would depend on the duration.
pub(crate) fn planned_crashes(
    plan: &FaultPlan,
    interval: f64,
    duration: f64,
    service_count: usize,
) -> Vec<(f64, usize, u32)> {
    if !(interval > 0.0) {
        return Vec::new();
    }
    let mut crashes: Vec<(f64, usize, u32)> = Vec::new();
    let mut k = 0usize;
    loop {
        let start = k as f64 * interval;
        if !(start + interval <= duration + 1e-9) {
            break;
        }
        let mid = start + interval / 2.0;
        for service in 0..service_count {
            if let Some(count) = plan.crash_fault(service, k, mid) {
                crashes.push((mid, service, count));
            }
        }
        k += 1;
    }
    crashes
}

/// How a crashed controller comes back
/// ([`FaultKind::ControllerCrash`]).
///
/// The policy belongs to the *driver* running the control loop, not to
/// the simulation itself: the engine only reports crashes via
/// [`Simulation::controller_crash_at`]; rebuilding the scaler — cold or
/// from a checkpoint — is the caller's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The restarted controller starts from scratch: empty demand
    /// windows, no forecast, a fresh FOX ledger. This models a scaler
    /// with no durable state.
    ColdRestart,
    /// The controller snapshots its state every `cadence` decision
    /// cycles and, after a crash, restores from the latest checkpoint.
    Checkpoint {
        /// Decision cycles between checkpoints; a cadence of 1 means a
        /// snapshot after every cycle. Zero is treated as 1.
        cadence: usize,
    },
}

impl RecoveryPolicy {
    /// The effective cycles-between-checkpoints: `0` for
    /// [`ColdRestart`](RecoveryPolicy::ColdRestart) (never checkpoints),
    /// at least `1` otherwise.
    pub fn checkpoint_every(&self) -> usize {
        match self {
            RecoveryPolicy::ColdRestart => 0,
            RecoveryPolicy::Checkpoint { cadence } => (*cadence).max(1),
        }
    }
}

/// Memo key for a cached fluid sojourn law: `(λ bits, running instances,
/// speed bits)` — the triple that determines the law for a service whose
/// demand is fixed at construction.
type LawKey = (u64, u32, u64);

/// Leaving the all-fluid aggregate regime materializes every in-flight
/// request as an entity. Above this count the exit is deferred to the next
/// regime evaluation instead — materializing tens of millions of entities
/// at once would defeat the purpose of the fluid regime.
const MAX_MATERIALIZED: u64 = 5_000_000;

/// A request entity in the slab. Slots are recycled through a free list so
/// the slab size is bounded by the peak number of in-flight requests, not
/// by the total sent — keeping every request forever is exactly what
/// breaks at 10⁶ req/s.
#[derive(Debug, Clone, Copy)]
struct RequestSlot {
    /// Wall-clock send time.
    start: f64,
    /// Index into the topological path.
    stage: usize,
    /// When it entered the current station.
    entered_service: f64,
    /// The scheduled Completion/StageDone event, for O(log n) cancellation
    /// when the station absorbs this entity into the fluid mass.
    pending: Option<EventId>,
    /// Whether the slot holds an in-flight request.
    live: bool,
    /// Whether the entity's current stage is an analytically sampled
    /// sojourn (a pending StageDone) rather than discrete service.
    analytic: bool,
}

/// The SLO classification of fluid-mode completions, refreshed every
/// monitoring interval from `tail_samples` sampled end-to-end sojourns.
#[derive(Debug, Clone, Default)]
struct FluidClass {
    /// Fraction of sampled sojourns satisfying the SLO.
    p_satisfied: f64,
    /// Fraction merely tolerating.
    p_tolerating: f64,
    /// Mean sampled end-to-end response time.
    mean_total: f64,
    /// Mean sampled per-station sojourn, indexed by path position.
    station_mean: Vec<f64>,
}

/// The request-level discrete-event simulation of a multi-service
/// application under a load trace. See the crate docs for the modeling
/// assumptions.
///
/// Without a [`HybridConfig`] it is a pure discrete-event simulation —
/// every request an entity, every completion an event. With one, a
/// station whose offered load (trace rate × service demand, in Erlangs)
/// crosses the threshold switches to an analytic M/M/n fluid
/// approximation, and once *every* path station is fluid the engine drops
/// request entities entirely and integrates aggregate flows, which is what
/// makes day-long traces at 10⁶ req/s tractable. In-flight requests are
/// conserved bit-exactly across every regime transition:
/// `sent == completed + in_flight` is an integer identity at all times,
/// enforced by construction rather than by reconciliation.
///
/// A nested deployment ([`SimulationConfig::with_vm_pool`]) boots
/// containers into a shared VM pool: a container boot holds a VM slot, and
/// without a free slot it waits for one ([`scale_vms`](Simulation::scale_vms)).
pub struct Simulation {
    // Static configuration.
    path: Vec<usize>,
    true_demands: Vec<f64>,
    config: SimulationConfig,
    hybrid: Option<HybridConfig>,
    trace: LoadTrace,
    duration: f64,
    min_instances: Vec<u32>,
    max_instances: Vec<u32>,
    // Dynamic state.
    now: f64,
    /// Time up to which the fluid flows have been integrated.
    last_flow: f64,
    events: EventQueue,
    next_arrival: Option<f64>,
    /// `None` while the aggregate regime owns the arrival process.
    arrivals: Option<PoissonArrivals>,
    /// How many times the arrival process has been re-materialized; salts
    /// the resumed stream's seed so successive streams are independent.
    arrival_streams: u64,
    stations: Vec<Station>,
    pool: Option<VmPoolState>,
    requests: Vec<RequestSlot>,
    free: Vec<usize>,
    /// Whether every path station is fluid and entities are suspended.
    aggregate: bool,
    fluid_class: FluidClass,
    sent_carry: Carry,
    sat_carry: Carry,
    tol_carry: Carry,
    rng: StdRng,
    /// Dedicated stream for analytic sojourn sampling, so turning a
    /// station fluid does not perturb the discrete service-time draws.
    tail_rng: StdRng,
    /// One-entry memo per service for the fluid sojourn law, keyed by
    /// [`LawKey`]. Certifying a negligible wait is O(1) (the Erlang-B
    /// product bound `∏_{k=⌈a⌉}^{n} a/k`, through Binet's bound on lnΓ,
    /// below −44, `ln 2⁻⁶³` less a rounding margin), but rebuilding a law
    /// that is not certified runs an O(servers) Erlang-C recurrence
    /// (~10⁵ steps at production scale), which must happen per
    /// segment/supply change, not per sample.
    law_cache: Vec<Option<(LawKey, fluid::SojournLaw)>>,
    // Accounting.
    total_sent: u64,
    completed: u64,
    satisfied: u64,
    tolerating: u64,
    response_time_sum: f64,
    supply: Vec<Vec<SupplyChange>>,
    sent_per_second: Vec<u64>,
    conformant_per_second: Vec<u64>,
    interval_history: Vec<Vec<ServiceIntervalStats>>,
    // Fault injection.
    observed_history: Vec<Vec<Option<ObservedSample>>>,
    fault_log: Vec<FaultRecord>,
    /// Per-target scaling-command counters (one per service plus one for
    /// the VM pool) salting the fault plan's actuation rolls, so a retry
    /// of a transiently failed command rolls afresh.
    actuation_attempts: Vec<u64>,
    events_processed: u64,
    regime_switches: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("duration", &self.duration)
            .field("services", &self.stations.len())
            .field("aggregate", &self.aggregate)
            .field("total_sent", &self.total_sent)
            .field("completed", &self.completed)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation of `model` under `trace`.
    ///
    /// Services start at their model-declared initial instance counts; the
    /// ground-truth service times are exponential with the model's nominal
    /// demands as means. The request path is the topological order of the
    /// model's invocation graph (the paper's chain). When `config.hybrid`
    /// is set, the regimes are evaluated immediately, so a trace that is
    /// already past the threshold at `t = 0` starts fluid.
    pub fn new(model: &ApplicationModel, trace: &LoadTrace, config: SimulationConfig) -> Self {
        let ratios = model.visit_ratios();
        let path: Vec<usize> = model
            .graph()
            .topological_order()
            .iter()
            .copied()
            .filter(|&s| ratios[s] > 0.0)
            .collect();
        let true_demands: Vec<f64> = model
            .services()
            .iter()
            .map(|s| s.nominal_demand())
            .collect();
        let stations: Vec<Station> = model
            .services()
            .iter()
            .map(|s| Station::new(s.initial_instances()))
            .collect();
        let duration = trace.duration();
        let seconds = second_index(duration.ceil()).saturating_add(1);
        let mut arrivals = PoissonArrivals::new(trace, config.seed.wrapping_add(1));
        let next_arrival = arrivals.next();
        let supply = stations
            .iter()
            .map(|s| {
                vec![SupplyChange {
                    time: 0.0,
                    running: s.running,
                }]
            })
            .collect();
        let pool = config.vm_pool.map(|cfg| {
            let mut state = VmPoolState::new(cfg);
            // The initial containers occupy slots from the start.
            state.slots_in_use = stations.iter().map(|s| s.running).sum();
            state
        });
        let hybrid = config.hybrid;
        let mut sim = Simulation {
            path,
            true_demands,
            hybrid,
            trace: trace.clone(),
            min_instances: model.services().iter().map(|s| s.min_instances()).collect(),
            max_instances: model.services().iter().map(|s| s.max_instances()).collect(),
            duration,
            now: 0.0,
            last_flow: 0.0,
            events: EventQueue::new(),
            next_arrival,
            arrivals: Some(arrivals),
            arrival_streams: 0,
            stations,
            pool,
            requests: Vec::new(),
            free: Vec::new(),
            aggregate: false,
            fluid_class: FluidClass::default(),
            sent_carry: Carry::default(),
            sat_carry: Carry::default(),
            tol_carry: Carry::default(),
            rng: StdRng::seed_from_u64(config.seed),
            tail_rng: StdRng::seed_from_u64(config.seed.wrapping_add(2)),
            law_cache: vec![None; model.service_count()],
            total_sent: 0,
            completed: 0,
            satisfied: 0,
            tolerating: 0,
            response_time_sum: 0.0,
            supply,
            sent_per_second: vec![0; seconds],
            conformant_per_second: vec![0; seconds],
            interval_history: vec![Vec::new(); model.service_count()],
            observed_history: vec![Vec::new(); model.service_count()],
            fault_log: Vec::new(),
            actuation_attempts: vec![0; model.service_count() + 1],
            events_processed: 0,
            regime_switches: 0,
            config,
        };
        sim.events
            .schedule(sim.config.monitoring_interval, EventKind::MonitorTick);
        let (interval, services) = (sim.config.monitoring_interval, sim.stations.len());
        if let Some(plan) = &sim.config.fault_plan {
            for (time, service, count) in planned_crashes(plan, interval, duration, services) {
                sim.events
                    .schedule(time, EventKind::Crash { service, count });
            }
        }
        sim.evaluate_regimes(0.0);
        sim
    }

    /// Consults the fault plan for a controller crash at the start of
    /// decision cycle `cycle` (wall clock `time`). Returns `true` — and
    /// logs a [`FaultRecord`] — when the scaler process dies here; the
    /// driver must then rebuild its controller according to its
    /// [`RecoveryPolicy`]. The simulated deployment itself is unaffected:
    /// instances keep serving, only the scaler's memory is lost.
    pub fn controller_crash_at(&mut self, cycle: usize, time: f64) -> bool {
        let crashed = self
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.controller_crash(cycle, time));
        if crashed {
            self.fault_log.push(FaultRecord {
                time,
                service: 0,
                kind: FaultKind::ControllerCrash { at_cycle: cycle },
            });
        }
        crashed
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.stations.len()
    }

    /// Ready (booted) instances of a service.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn running(&self, service: usize) -> u32 {
        self.stations[service].running
    }

    /// Ready plus booting instances (including boots waiting for a VM
    /// slot) — what a controller should treat as the already-ordered
    /// supply.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn provisioned(&self, service: usize) -> u32 {
        self.stations[service].provisioned()
    }

    /// The current vertical speed factor of a service (1.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn speed(&self, service: usize) -> f64 {
        self.stations[service].speed
    }

    /// Whether a service currently runs in the fluid regime.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn is_fluid(&self, service: usize) -> bool {
        self.stations[service].regime == Regime::Fluid
    }

    /// Discrete items processed so far: external arrivals plus fired
    /// events (the benchmark reports it as `sim.hybrid_events`).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Regime transitions performed so far (per-station switches plus
    /// aggregate entries/exits).
    pub fn regime_switches(&self) -> u64 {
        self.regime_switches
    }

    /// Container boots currently stalled waiting for a VM slot (`None` for
    /// flat deployments).
    pub fn waiting_containers(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.waiting.len())
    }

    /// Immediately sets a service's supply (no provisioning delay) —
    /// intended for initial placement before the experiment starts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for an out-of-range index.
    pub fn set_supply(&mut self, service: usize, count: u32) -> Result<(), SimError> {
        let count = self.clamp_to_bounds(service, count)?;
        let now = self.now;
        let st = &mut self.stations[service];
        st.touch(now);
        // Cannot drop below the number of busy servers; the excess retires
        // on completion.
        let old_running = st.running;
        let new_running = count.max(st.busy);
        st.retiring = new_running - count.min(new_running);
        st.running = new_running;
        st.target = count;
        if let Some(pool) = &mut self.pool {
            // Direct placement bypasses the boot path but still occupies
            // (or frees) slots.
            if new_running >= old_running {
                pool.slots_in_use += new_running - old_running;
            } else {
                pool.slots_in_use = pool.slots_in_use.saturating_sub(old_running - new_running);
            }
        }
        self.record_supply(service);
        self.start_queued(service);
        Ok(())
    }

    /// Issues a scaling command: provisioning and deprovisioning delays
    /// from the deployment profile apply. The target is clamped into the
    /// model's `[min_instances, max_instances]`. Works identically in both
    /// regimes — a fluid station's capacity changes take effect through
    /// the drift ODE instead of through per-request scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for an out-of-range index and
    /// [`SimError::ActuationFailed`] when an injected fault makes the
    /// command fail transiently (retrying may succeed).
    pub fn scale_to(&mut self, service: usize, target: u32) -> Result<(), SimError> {
        let target = self.clamp_to_bounds(service, target)?;
        let extra_delay = self.check_actuation_fault(service)?;
        let provisioned = self.stations[service].provisioned();
        let prov_delay = self.config.profile.provisioning_delay + extra_delay;
        let deprov_delay = self.config.profile.deprovisioning_delay + extra_delay;
        match target.cmp(&provisioned) {
            Ordering::Greater => {
                for _ in 0..target - provisioned {
                    if let Some(pool) = &mut self.pool {
                        if pool.free_slots() == 0 {
                            // No slot: queue the boot until a VM frees up.
                            pool.waiting.push_back(service);
                            self.stations[service].waiting_boots += 1;
                            continue;
                        }
                        pool.slots_in_use += 1;
                    }
                    self.stations[service].pending_boots += 1;
                    self.events
                        .schedule(self.now + prov_delay, EventKind::Boot { service });
                }
            }
            Ordering::Less => {
                let mut remove = provisioned - target;
                // First drop boots still waiting for a slot (cheapest).
                let drop_waiting = remove.min(self.stations[service].waiting_boots);
                if drop_waiting > 0 {
                    self.stations[service].waiting_boots -= drop_waiting;
                    remove -= drop_waiting;
                    if let Some(pool) = &mut self.pool {
                        let mut left = drop_waiting;
                        pool.waiting.retain(|&svc| {
                            if left > 0 && svc == service {
                                left -= 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                }
                // Then cancel boots that have not completed yet.
                let st = &mut self.stations[service];
                let cancel = remove.min(st.pending_boots - st.cancelled_boots);
                st.cancelled_boots += cancel;
                remove -= cancel;
                if cancel > 0 {
                    if let Some(pool) = &mut self.pool {
                        // Cancelled boots release their reserved slots now.
                        pool.slots_in_use = pool.slots_in_use.saturating_sub(cancel);
                    }
                    self.drain_waiting_boots();
                }
                if remove > 0 {
                    self.events.schedule(
                        self.now + deprov_delay,
                        EventKind::Shutdown {
                            service,
                            count: remove,
                        },
                    );
                }
            }
            Ordering::Equal => {}
        }
        self.stations[service].target = target;
        Ok(())
    }

    /// Issues a vertical scaling command: from one provisioning delay from
    /// now, every instance of `service` runs at `speed` times the nominal
    /// service rate (a resize requires redeploying the instances, so the
    /// same delay as a scale-up applies). Non-finite or non-positive
    /// speeds are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownService`] for an out-of-range index and
    /// [`SimError::InvalidConfig`] for an invalid speed.
    pub fn scale_vertical(&mut self, service: usize, speed: f64) -> Result<(), SimError> {
        if service >= self.stations.len() {
            return Err(SimError::UnknownService {
                index: service,
                count: self.stations.len(),
            });
        }
        if !(speed > 0.0) || !speed.is_finite() {
            return Err(SimError::InvalidConfig {
                field: "speed",
                value: speed,
            });
        }
        let delay = self.config.profile.provisioning_delay;
        self.events
            .schedule(self.now + delay, EventKind::Resize { service, speed });
        Ok(())
    }

    /// Issues a VM-pool scaling command (nested deployments only): new VMs
    /// become usable after the pool's boot delay; scale-downs cancel
    /// pending VM boots first and then remove only VMs whose slots are
    /// entirely free (occupied VMs are never killed under their
    /// containers).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the simulation has no VM
    /// pool and [`SimError::ActuationFailed`] when an injected fault makes
    /// the command fail transiently.
    pub fn scale_vms(&mut self, target: u32) -> Result<(), SimError> {
        let now = self.now;
        let extra_delay = self.check_actuation_fault(self.stations.len())?;
        let Some(pool) = &mut self.pool else {
            return Err(SimError::InvalidConfig {
                field: "vm_pool",
                value: 0.0,
            });
        };
        let target = target.max(1);
        let provisioned = pool.provisioned_vms();
        match target.cmp(&provisioned) {
            Ordering::Greater => {
                let add = target - provisioned;
                pool.pending += add;
                let delay = pool.config.vm_boot_delay + extra_delay;
                for _ in 0..add {
                    self.events.schedule(now + delay, EventKind::VmReady);
                }
            }
            Ordering::Less => {
                let mut remove = provisioned - target;
                // Cancel pending VM boots first.
                let cancel = remove.min(pool.pending - pool.cancelled);
                pool.cancelled += cancel;
                remove -= cancel;
                // Remove only entirely free VMs.
                let free_vms = pool.free_slots() / pool.config.slots_per_vm;
                pool.running -= remove.min(free_vms).min(pool.running.saturating_sub(1));
            }
            Ordering::Equal => {}
        }
        Ok(())
    }

    /// Runs the simulation until time `t` (clamped to the trace duration),
    /// processing all arrivals and events in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeReversed`] when `t` is NaN or earlier than
    /// the current simulation time — simulated time is monotonic, and
    /// silently rewinding `now` would corrupt every integral the
    /// monitoring statistics are built from.
    pub fn run_until(&mut self, t: f64) -> Result<(), SimError> {
        if t.is_nan() || t < self.now {
            return Err(SimError::TimeReversed {
                target: t,
                now: self.now,
            });
        }
        self.advance_to(t);
        Ok(())
    }

    /// Runs to the end of the trace and returns the collected result.
    pub fn run_to_end(mut self) -> SimulationResult {
        self.advance_to(self.duration);
        self.finish()
    }

    /// Finalizes accounting and returns the result. The conservation
    /// identity holds by construction: `in_flight_at_end` is exactly
    /// `sent − completed`, whatever mix of regimes the run went through.
    pub fn finish(mut self) -> SimulationResult {
        let now = self.now;
        self.integrate_flows(now);
        for service in 0..self.stations.len() {
            self.stations[service].touch(now);
        }
        SimulationResult {
            duration: self.duration,
            supply: self.supply,
            sent_per_second: self.sent_per_second,
            conformant_per_second: self.conformant_per_second,
            completed: self.completed,
            satisfied: self.satisfied,
            tolerating: self.tolerating,
            in_flight_at_end: self.total_sent - self.completed,
            response_time_sum: self.response_time_sum,
            interval_history: self.interval_history,
            fault_log: self.fault_log,
        }
    }

    /// Number of completed monitoring intervals so far.
    pub fn intervals_completed(&self) -> usize {
        self.interval_history.first().map(Vec::len).unwrap_or(0)
    }

    /// The ground-truth monitoring stats of interval `index` (0-based) for
    /// every service, or `None` if that interval has not completed yet.
    pub fn interval(&self, index: usize) -> Option<Vec<ServiceIntervalStats>> {
        if index >= self.intervals_completed() {
            return None;
        }
        Some(self.interval_history.iter().map(|h| h[index]).collect())
    }

    /// What monitoring *reported* for interval `index` (0-based), one
    /// entry per service: `None` inside the vector is a dropped sample,
    /// and reported values may be stale or corrupt under an active fault
    /// plan (without one they faithfully mirror [`interval`]). Returns
    /// `None` if the interval has not completed yet.
    ///
    /// [`interval`]: Simulation::interval
    pub fn observe_interval(&self, index: usize) -> Option<Vec<Option<ObservedSample>>> {
        if index >= self.intervals_completed() {
            return None;
        }
        Some(self.observed_history.iter().map(|h| h[index]).collect())
    }

    /// Every fault injected so far, in time order.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    // ------------------------------------------------------------------
    // The event loop.
    // ------------------------------------------------------------------

    fn advance_to(&mut self, t: f64) {
        let t = t.min(self.duration);
        // Without the hybrid regime no station is ever fluid, so there
        // are no flows to integrate.
        let hybrid = self.hybrid.is_some();
        loop {
            let next_event_time = self.events.peek_time();
            let next_arrival_time = self.next_arrival;
            let (time, is_arrival) = match (next_event_time, next_arrival_time) {
                (None, None) => break,
                (Some(e), None) => (e, false),
                (None, Some(a)) => (a, true),
                (Some(e), Some(a)) => {
                    if a <= e {
                        (a, true)
                    } else {
                        (e, false)
                    }
                }
            };
            if time > t {
                break;
            }
            if hybrid {
                self.integrate_flows(time);
            }
            self.now = time;
            self.events_processed += 1;
            if is_arrival {
                self.next_arrival = self.arrivals.as_mut().and_then(Iterator::next);
                self.handle_external_arrival(time);
            } else if let Some((_, kind)) = self.events.pop() {
                self.dispatch(kind);
            }
        }
        if hybrid {
            self.integrate_flows(t);
        }
        self.now = t;
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Completion { service, request } => self.on_completion(service, request),
            EventKind::StageDone { service, request } => self.on_stage_done(service, request),
            EventKind::Boot { service } => self.on_boot(service),
            EventKind::Shutdown { service, count } => self.on_shutdown(service, count),
            EventKind::Resize { service, speed } => {
                self.stations[service].speed = speed;
            }
            EventKind::VmReady => self.on_vm_ready(),
            EventKind::MonitorTick => self.on_monitor_tick(),
            EventKind::Crash { service, count } => self.on_crash(service, count),
        }
    }

    fn handle_external_arrival(&mut self, time: f64) {
        let sec = second_index(time);
        if sec < self.sent_per_second.len() {
            self.sent_per_second[sec] += 1;
        }
        self.total_sent += 1;
        let Some(&first) = self.path.first() else {
            // Degenerate empty path: the request completes instantly.
            let id = self.alloc_request(time, 0);
            self.finish_request(id);
            return;
        };
        let id = self.alloc_request(time, 0);
        self.arrive_at_station(first, id);
    }

    fn alloc_request(&mut self, start: f64, stage: usize) -> usize {
        let slot = RequestSlot {
            start,
            stage,
            entered_service: start,
            pending: None,
            live: true,
            analytic: false,
        };
        if let Some(id) = self.free.pop() {
            self.requests[id] = slot;
            id
        } else {
            self.requests.push(slot);
            self.requests.len() - 1
        }
    }

    fn arrive_at_station(&mut self, service: usize, request: usize) {
        let now = self.now;
        self.requests[request].entered_service = now;
        if self.stations[service].regime == Regime::Fluid {
            self.stations[service].interval_arrivals += 1;
            let sojourn = self.sample_station_sojourn(service);
            self.requests[request].analytic = true;
            let ev = self
                .events
                .schedule(now + sojourn, EventKind::StageDone { service, request });
            self.requests[request].pending = Some(ev);
        } else {
            self.requests[request].analytic = false;
            let st = &mut self.stations[service];
            st.interval_arrivals += 1;
            if st.busy < st.running {
                self.begin_service(service, request);
            } else {
                st.queue.push_back(request);
            }
        }
    }

    fn begin_service(&mut self, service: usize, request: usize) {
        let now = self.now;
        // Vertical scaling speeds every instance up uniformly.
        let demand = self.true_demands[service] / self.stations[service].speed;
        let u: f64 = self.rng.gen();
        let service_time = -(1.0 - u).ln() * demand;
        let st = &mut self.stations[service];
        st.touch(now);
        st.busy += 1;
        let ev = self.events.schedule(
            now + service_time,
            EventKind::Completion { service, request },
        );
        self.requests[request].pending = Some(ev);
        self.requests[request].analytic = false;
    }

    fn start_queued(&mut self, service: usize) {
        while self.stations[service].busy < self.stations[service].running {
            let Some(request) = self.stations[service].queue.pop_front() else {
                break;
            };
            self.begin_service(service, request);
        }
    }

    fn on_completion(&mut self, service: usize, request: usize) {
        if !self.requests.get(request).is_some_and(|r| r.live) {
            return;
        }
        let now = self.now;
        self.requests[request].pending = None;
        {
            let st = &mut self.stations[service];
            st.touch(now);
            st.busy = st.busy.saturating_sub(1);
            st.interval_completions += 1;
            let waited = now - self.requests[request].entered_service;
            st.interval_response_sum += waited;
            st.interval_response_count += 1;
            if st.retiring > 0 {
                st.retiring -= 1;
                st.running -= 1;
                if let Some(pool) = &mut self.pool {
                    pool.slots_in_use = pool.slots_in_use.saturating_sub(1);
                }
            }
        }
        self.drain_waiting_boots();
        self.record_supply(service);
        self.start_queued(service);
        self.advance_request(request);
    }

    fn on_stage_done(&mut self, service: usize, request: usize) {
        if !self.requests.get(request).is_some_and(|r| r.live) {
            return;
        }
        let now = self.now;
        self.requests[request].pending = None;
        self.requests[request].analytic = false;
        {
            let st = &mut self.stations[service];
            st.interval_completions += 1;
            let waited = now - self.requests[request].entered_service;
            st.interval_response_sum += waited;
            st.interval_response_count += 1;
        }
        self.advance_request(request);
    }

    fn advance_request(&mut self, request: usize) {
        let stage = self.requests[request].stage + 1;
        if stage < self.path.len() {
            self.requests[request].stage = stage;
            let next = self.path[stage];
            self.arrive_at_station(next, request);
        } else {
            self.finish_request(request);
        }
    }

    fn finish_request(&mut self, request: usize) {
        let start = self.requests[request].start;
        let response = self.now - start;
        self.requests[request].live = false;
        self.requests[request].pending = None;
        self.free.push(request);
        self.completed += 1;
        self.response_time_sum += response;
        if self.config.slo.is_satisfied(response) {
            self.satisfied += 1;
            let sec = second_index(start);
            if sec < self.conformant_per_second.len() {
                self.conformant_per_second[sec] += 1;
            }
        } else if self.config.slo.is_tolerating(response) {
            self.tolerating += 1;
        }
    }

    fn on_boot(&mut self, service: usize) {
        let now = self.now;
        let st = &mut self.stations[service];
        if st.cancelled_boots > 0 {
            st.cancelled_boots -= 1;
            st.pending_boots -= 1;
            return;
        }
        st.touch(now);
        st.pending_boots -= 1;
        st.running += 1;
        self.record_supply(service);
        self.start_queued(service);
    }

    fn on_shutdown(&mut self, service: usize, count: u32) {
        let now = self.now;
        let st = &mut self.stations[service];
        st.touch(now);
        let idle = st.running - st.busy;
        let remove_idle = count.min(idle);
        st.running -= remove_idle;
        // Whatever could not be removed idle retires busy servers on their
        // next completion.
        st.retiring += count - remove_idle;
        if remove_idle > 0 {
            if let Some(pool) = &mut self.pool {
                pool.slots_in_use = pool.slots_in_use.saturating_sub(remove_idle);
            }
            self.drain_waiting_boots();
        }
        self.record_supply(service);
    }

    /// An injected crash: idle instances die immediately, busy ones drain
    /// their current request and then die (via the retiring path). The
    /// scaling `target` is deliberately left untouched — the controller
    /// observes the shortfall through monitoring and must re-order the
    /// lost capacity itself. A fluid station has no busy entities, so the
    /// whole kill is immediate — the drift ODE sees the capacity drop at
    /// once, which is the fluid limit of the same behavior.
    fn on_crash(&mut self, service: usize, count: u32) {
        let now = self.now;
        {
            let st = &mut self.stations[service];
            st.touch(now);
            let idle = st.running - st.busy;
            let kill_idle = count.min(idle);
            st.running -= kill_idle;
            let drain = (count - kill_idle).min(st.busy.saturating_sub(st.retiring));
            st.retiring += drain;
            if kill_idle > 0 {
                if let Some(pool) = &mut self.pool {
                    pool.slots_in_use = pool.slots_in_use.saturating_sub(kill_idle);
                }
            }
        }
        self.fault_log.push(FaultRecord {
            time: now,
            service,
            kind: FaultKind::InstanceCrash { count },
        });
        self.drain_waiting_boots();
        self.record_supply(service);
    }

    fn on_vm_ready(&mut self) {
        if let Some(pool) = &mut self.pool {
            if pool.cancelled > 0 {
                pool.cancelled -= 1;
                pool.pending -= 1;
                return;
            }
            pool.pending -= 1;
            pool.running += 1;
        }
        self.drain_waiting_boots();
    }

    /// Starts queued container boots while free slots exist (nested pool
    /// only).
    fn drain_waiting_boots(&mut self) {
        let Some(pool) = &mut self.pool else { return };
        let prov_delay = self.config.profile.provisioning_delay;
        while pool.free_slots() > 0 {
            let Some(service) = pool.waiting.pop_front() else {
                return;
            };
            pool.slots_in_use += 1;
            self.stations[service].waiting_boots -= 1;
            self.stations[service].pending_boots += 1;
            self.events
                .schedule(self.now + prov_delay, EventKind::Boot { service });
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the fluid backlog is clamped non-negative and rounded before it narrows"
    )]
    fn on_monitor_tick(&mut self) {
        let now = self.now;
        let interval = self.config.monitoring_interval;
        for (idx, st) in self.stations.iter_mut().enumerate() {
            st.touch(now);
            let utilization = if st.capacity_integral > 0.0 {
                (st.busy_integral / st.capacity_integral).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let mean_response_time = if st.interval_response_count > 0 {
                Some(st.interval_response_sum / st.interval_response_count as f64)
            } else {
                None
            };
            let queue_length_end = if st.regime == Regime::Fluid {
                (st.mass - f64::from(st.running)).max(0.0).round() as usize
            } else {
                st.queue.len()
            };
            self.interval_history[idx].push(ServiceIntervalStats {
                start: now - interval,
                duration: interval,
                arrivals: st.interval_arrivals,
                completions: st.interval_completions,
                utilization,
                mean_response_time,
                instances_end: st.running,
                queue_length_end,
            });
            st.busy_integral = 0.0;
            st.capacity_integral = 0.0;
            st.interval_arrivals = 0;
            st.interval_completions = 0;
            st.interval_response_sum = 0.0;
            st.interval_response_count = 0;
        }
        self.record_observations(now);
        if now + interval <= self.duration + 1e-9 {
            self.events.schedule(now + interval, EventKind::MonitorTick);
        }
        self.evaluate_regimes(now);
    }

    /// Derives what monitoring *reports* for the interval that just closed:
    /// faithful copies of the truth without a fault plan, and dropped,
    /// stale or corrupted samples under one. Every injected monitoring
    /// fault is logged.
    fn record_observations(&mut self, now: f64) {
        let k = self.intervals_completed().saturating_sub(1);
        for idx in 0..self.stations.len() {
            let fault = self
                .config
                .fault_plan
                .as_ref()
                .and_then(|p| p.monitor_fault(idx, k, now));
            let observed = match fault {
                Some(FaultKind::DropSample) => None,
                Some(FaultKind::DelaySample { intervals }) => k
                    .checked_sub(intervals)
                    .map(|j| ObservedSample::from_stats(&self.interval_history[idx][j])),
                Some(FaultKind::CorruptSample { mode }) => {
                    Some(ObservedSample::from_stats(&self.interval_history[idx][k]).corrupted(mode))
                }
                // `monitor_fault` only returns monitoring kinds.
                None | Some(_) => Some(ObservedSample::from_stats(&self.interval_history[idx][k])),
            };
            if let Some(kind) = fault {
                self.fault_log.push(FaultRecord {
                    time: now,
                    service: idx,
                    kind,
                });
            }
            self.observed_history[idx].push(observed);
        }
    }

    // ------------------------------------------------------------------
    // Shared internals.
    // ------------------------------------------------------------------

    fn clamp_to_bounds(&self, service: usize, count: u32) -> Result<u32, SimError> {
        if service >= self.stations.len() {
            return Err(SimError::UnknownService {
                index: service,
                count: self.stations.len(),
            });
        }
        Ok(count.clamp(self.min_instances[service], self.max_instances[service]))
    }

    /// Consults the fault plan for the next scaling command aimed at
    /// `target_index` (a service index, or `service_count` for the VM
    /// pool). Returns the extra provisioning delay to apply, or an error
    /// for an injected transient failure. Every injected fault is logged.
    fn check_actuation_fault(&mut self, target_index: usize) -> Result<f64, SimError> {
        let attempt = self.actuation_attempts[target_index];
        self.actuation_attempts[target_index] = attempt.wrapping_add(1);
        let fault = self
            .config
            .fault_plan
            .as_ref()
            .and_then(|p| p.actuation_fault(target_index, attempt, self.now));
        match fault {
            Some(kind @ FaultKind::ActuationFail) => {
                self.fault_log.push(FaultRecord {
                    time: self.now,
                    service: target_index,
                    kind,
                });
                Err(SimError::ActuationFailed {
                    service: target_index,
                })
            }
            Some(kind @ FaultKind::ActuationDelay { extra }) => {
                self.fault_log.push(FaultRecord {
                    time: self.now,
                    service: target_index,
                    kind,
                });
                Ok(extra.max(0.0))
            }
            _ => Ok(0.0),
        }
    }

    fn record_supply(&mut self, service: usize) {
        let running = self.stations[service].running;
        let timeline = &mut self.supply[service];
        if timeline.last().map(|c| c.running) != Some(running) {
            timeline.push(SupplyChange {
                time: self.now,
                running,
            });
        }
    }
}
// ----------------------------------------------------------------------
// The hybrid fluid regime.
// ----------------------------------------------------------------------

impl Simulation {
    fn any_fluid(&self) -> bool {
        self.path
            .iter()
            .any(|&s| self.stations[s].regime == Regime::Fluid)
    }

    /// The deterministic offered load of a service, in Erlangs: the trace's
    /// external arrival rate times the effective service demand. This — not
    /// the stochastic instantaneous queue — is the switch criterion, so
    /// both switch directions are deterministic in the trace alone.
    fn offered_erlangs(&self, service: usize, t: f64) -> f64 {
        let st = &self.stations[service];
        let speed = if st.speed > 0.0 { st.speed } else { 1.0 };
        self.trace.rate_at(t).max(0.0) * self.true_demands[service] / speed
    }

    /// The fluid sojourn law of `service` at arrival rate `lam` with `n`
    /// running instances at `speed`, memoized per service. A law whose
    /// Erlang-B product bound (with Binet's bound on lnΓ) certifies a
    /// negligible wait costs O(1); any other runs an O(n) Erlang-C
    /// recurrence, which must not run per sample. Callers guarantee
    /// `true_demands[service] > 0`.
    fn station_law(&mut self, service: usize, lam: f64, n: u32, speed: f64) -> fluid::SojournLaw {
        let key = (lam.to_bits(), n, speed.to_bits());
        if let Some((cached, law)) = self.law_cache[service] {
            if cached == key {
                return law;
            }
        }
        let law = fluid::SojournLaw::new(lam, n, speed / self.true_demands[service]);
        self.law_cache[service] = Some((key, law));
        law
    }

    /// One analytic sojourn draw at a fluid station, from the dedicated
    /// tail-synthesis stream.
    fn sample_station_sojourn(&mut self, service: usize) -> f64 {
        let demand = self.true_demands[service];
        if !(demand > 0.0) {
            return 0.0;
        }
        let (n, speed, x) = {
            let st = &self.stations[service];
            (st.running, st.speed, st.mass)
        };
        let lam = self.trace.rate_at(self.now).max(0.0);
        let law = self.station_law(service, lam, n, speed);
        law.sample(x, &mut self.tail_rng)
    }

    /// Advances the fluid flows from `last_flow` to `to`, substepping at
    /// whole-second and trace-segment boundaries so per-second accounting
    /// and piecewise-constant rates are both respected. A no-op while no
    /// station is fluid.
    fn integrate_flows(&mut self, to: f64) {
        let to = to.min(self.duration);
        if !(to > self.last_flow) {
            return;
        }
        if self.hybrid.is_none() || (!self.aggregate && !self.any_fluid()) {
            self.last_flow = to;
            return;
        }
        let step = self.trace.step();
        let mut t0 = self.last_flow;
        while t0 < to {
            let next_second = t0.floor() + 1.0;
            let next_segment = ((t0 / step).floor() + 1.0) * step;
            let mut t1 = to.min(next_second.min(next_segment));
            if !(t1 > t0) {
                t1 = to;
            }
            let dt = t1 - t0;
            if self.aggregate {
                self.aggregate_step(t0, t1, dt);
            } else {
                self.shadow_step(t0, t1, dt);
            }
            t0 = t1;
        }
        self.last_flow = to;
    }

    /// One aggregate substep: deterministic integer arrivals via carry
    /// rounding, per-stage mass chained through the path by the drift ODE,
    /// and SLO accounting streamed from the current tail classification.
    /// Conservation is enforced at the exit: completions are capped at
    /// `sent − completed`, so the integer identity can never go negative.
    fn aggregate_step(&mut self, t0: f64, t1: f64, dt: f64) {
        let mid = 0.5 * (t0 + t1);
        let lam0 = self.trace.rate_at(mid).max(0.0);
        let sent = self.sent_carry.take(lam0 * dt);
        let sec = second_index(t0);
        if sec < self.sent_per_second.len() {
            self.sent_per_second[sec] += sent;
        }
        self.total_sent += sent;
        let positions = self.path.len();
        let mut inflow = lam0;
        for pos in 0..positions {
            let s = self.path[pos];
            let demand = self.true_demands[s];
            let is_last = pos + 1 == positions;
            let avail = self.total_sent - self.completed;
            let p_sat = self.fluid_class.p_satisfied;
            let p_tol = self.fluid_class.p_tolerating;
            let mean_total = self.fluid_class.mean_total;
            let station_mean = self
                .fluid_class
                .station_mean
                .get(pos)
                .copied()
                .unwrap_or(demand);
            let c;
            let completed_mass;
            {
                let st = &mut self.stations[s];
                let fstep = if demand > 0.0 {
                    fluid::advance(st.mass, inflow, st.running, st.speed / demand, dt)
                } else {
                    FluidStep {
                        x_end: st.mass,
                        completed: inflow * dt,
                        busy_integral: 0.0,
                    }
                };
                st.mass = fstep.x_end;
                st.busy_integral += fstep.busy_integral;
                st.capacity_integral += f64::from(st.running) * dt;
                st.last_touch = t1;
                if pos == 0 {
                    st.interval_arrivals += sent;
                } else {
                    st.interval_arrivals += st.arrival_carry.take(inflow * dt);
                }
                let mut units = st.completion_carry.take(fstep.completed);
                if is_last {
                    units = units.min(avail);
                }
                st.interval_completions += units;
                st.interval_response_sum += units as f64 * station_mean;
                st.interval_response_count += units;
                c = units;
                completed_mass = fstep.completed;
            }
            if is_last && c > 0 {
                self.completed += c;
                let sat = self.sat_carry.take(c as f64 * p_sat).min(c);
                let tol = self.tol_carry.take(c as f64 * p_tol).min(c - sat);
                self.satisfied += sat;
                self.tolerating += tol;
                self.response_time_sum += c as f64 * mean_total;
                // Attribute conformant completions to the second their
                // requests were (on average) sent in.
                let start_sec = second_index(t0 - mean_total);
                if start_sec < self.conformant_per_second.len() {
                    self.conformant_per_second[start_sec] += sat;
                }
            }
            inflow = completed_mass / dt;
        }
    }

    /// One shadow substep (individual-fluid mode): only the fluid path
    /// stations integrate their analytic mass and utilization; requests
    /// are still entities doing their own accounting.
    fn shadow_step(&mut self, t0: f64, t1: f64, dt: f64) {
        let mid = 0.5 * (t0 + t1);
        let lam = self.trace.rate_at(mid).max(0.0);
        for pos in 0..self.path.len() {
            let s = self.path[pos];
            if self.stations[s].regime != Regime::Fluid {
                continue;
            }
            let demand = self.true_demands[s];
            let st = &mut self.stations[s];
            if demand > 0.0 {
                let fstep = fluid::advance(st.mass, lam, st.running, st.speed / demand, dt);
                st.mass = fstep.x_end;
                st.busy_integral += fstep.busy_integral;
            }
            st.capacity_integral += f64::from(st.running) * dt;
            st.last_touch = t1;
        }
    }

    /// Re-evaluates every path station's regime against the hysteretic
    /// thresholds at time `t`: up at `threshold_erlangs`, down at
    /// `hysteresis_ratio × threshold_erlangs`. Runs at construction and
    /// after every monitoring tick (once that tick's statistics are
    /// recorded, so a switch never splits an interval's accounting).
    fn evaluate_regimes(&mut self, t: f64) {
        let Some(h) = self.hybrid else { return };
        let path = self.path.clone();
        let mut want_fluid = vec![false; path.len()];
        let mut all_fluid = !path.is_empty();
        for (pos, &s) in path.iter().enumerate() {
            let offered = self.offered_erlangs(s, t);
            let currently_fluid = self.stations[s].regime == Regime::Fluid;
            let fluid_wanted = if currently_fluid {
                offered > h.lower_threshold()
            } else {
                offered >= h.threshold_erlangs
            };
            want_fluid[pos] = fluid_wanted;
            all_fluid &= fluid_wanted;
        }
        if self.aggregate {
            if all_fluid {
                self.refresh_fluid_class(t);
                return;
            }
            if self.total_sent - self.completed > MAX_MATERIALIZED {
                // Materializing this many entities would stall the run;
                // stay aggregate and re-evaluate next tick.
                return;
            }
            self.exit_aggregate(t, &want_fluid);
            return;
        }
        for (pos, &s) in path.iter().enumerate() {
            let is_fluid = self.stations[s].regime == Regime::Fluid;
            if want_fluid[pos] && !is_fluid {
                self.station_to_fluid(s);
            } else if !want_fluid[pos] && is_fluid {
                self.station_to_discrete(s);
            }
        }
        if all_fluid {
            self.enter_aggregate(t);
            self.refresh_fluid_class(t);
        }
    }

    /// Switches a station to the fluid regime, absorbing every entity
    /// currently queued or in service there: their pending completion
    /// events are cancelled and each gets one analytically sampled sojourn
    /// (a `StageDone` event) instead. The absorbed count seeds the fluid
    /// mass, so not a single in-flight request is created or destroyed.
    fn station_to_fluid(&mut self, service: usize) {
        let now = self.now;
        let mut ids: Vec<usize> = Vec::new();
        for (id, slot) in self.requests.iter().enumerate() {
            if slot.live && !slot.analytic && self.path.get(slot.stage) == Some(&service) {
                ids.push(id);
            }
        }
        {
            let st = &mut self.stations[service];
            st.touch(now);
            // Retiring instances were draining their requests; those
            // requests are absorbed below, so retire them (and free their
            // VM slots) now.
            let dropped = st.retiring.min(st.running);
            st.running -= dropped;
            st.retiring = 0;
            st.queue.clear();
            st.busy = 0;
            st.regime = Regime::Fluid;
            st.mass = ids.len() as f64;
            st.last_touch = now;
            st.arrival_carry = Carry::default();
            st.completion_carry = Carry::default();
            if let Some(pool) = &mut self.pool {
                pool.slots_in_use = pool.slots_in_use.saturating_sub(dropped);
            }
        }
        self.record_supply(service);
        self.regime_switches += 1;
        for id in ids {
            if let Some(ev) = self.requests[id].pending.take() {
                self.events.cancel(ev);
            }
            let sojourn = self.sample_station_sojourn(service);
            self.requests[id].entered_service = now;
            self.requests[id].analytic = true;
            let ev = self.events.schedule(
                now + sojourn,
                EventKind::StageDone {
                    service,
                    request: id,
                },
            );
            self.requests[id].pending = Some(ev);
        }
    }

    /// Switches a station back to the discrete regime. Entities with an
    /// outstanding analytic sojourn simply drain through their already
    /// scheduled `StageDone`; new arrivals queue discretely from here on.
    fn station_to_discrete(&mut self, service: usize) {
        let now = self.now;
        let st = &mut self.stations[service];
        st.regime = Regime::Discrete;
        st.busy = 0;
        st.retiring = 0;
        st.queue.clear();
        st.mass = 0.0;
        st.last_touch = now;
        self.regime_switches += 1;
    }

    /// Enters the aggregate regime: every live entity is dissolved into
    /// its station's fluid mass (one unit each — the sum of the masses is
    /// exactly `sent − completed`), the slab is emptied and the arrival
    /// process is suspended. From here on the only events are monitoring
    /// ticks, actuations and planned crashes.
    fn enter_aggregate(&mut self, now: f64) {
        let mut masses = vec![0u64; self.path.len()];
        for slot in &mut self.requests {
            if slot.live {
                if let Some(ev) = slot.pending.take() {
                    self.events.cancel(ev);
                }
                slot.live = false;
                if let Some(m) = masses.get_mut(slot.stage) {
                    *m += 1;
                }
            }
        }
        self.requests.clear();
        self.free.clear();
        for (pos, &s) in self.path.iter().enumerate() {
            let st = &mut self.stations[s];
            st.busy = 0;
            st.queue.clear();
            st.mass = masses[pos] as f64;
            st.last_touch = now;
        }
        self.arrivals = None;
        self.next_arrival = None;
        self.aggregate = true;
        self.regime_switches += 1;
    }

    /// Leaves the aggregate regime: exactly `sent − completed` entities
    /// are materialized, distributed over the path by largest-remainder
    /// rounding of the stage masses (ties broken toward the earlier
    /// stage), and the arrival process resumes from `now` under a salted
    /// seed — exact by memorylessness of the exponential.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "each stage's share is floored non-negative before it narrows"
    )]
    fn exit_aggregate(&mut self, now: f64, want_fluid: &[bool]) {
        let in_flight = self.total_sent - self.completed;
        let path = self.path.clone();
        let weights: Vec<f64> = path
            .iter()
            .map(|&s| self.stations[s].mass.max(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut counts = vec![0u64; path.len()];
        if in_flight > 0 && !path.is_empty() {
            if total > 0.0 && total.is_finite() {
                let mut assigned = 0u64;
                let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
                for (pos, &w) in weights.iter().enumerate() {
                    let exact = in_flight as f64 * w / total;
                    let floor = exact.floor().max(0.0) as u64;
                    counts[pos] = floor.min(in_flight);
                    assigned += counts[pos];
                    remainders.push((exact - counts[pos] as f64, pos));
                }
                let mut left = in_flight.saturating_sub(assigned);
                remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                for (_, pos) in remainders {
                    if left == 0 {
                        break;
                    }
                    counts[pos] += 1;
                    left -= 1;
                }
                counts[0] += left;
            } else {
                counts[0] = in_flight;
            }
        }
        self.aggregate = false;
        self.regime_switches += 1;
        for (pos, &s) in path.iter().enumerate() {
            if !want_fluid.get(pos).copied().unwrap_or(false) {
                let st = &mut self.stations[s];
                st.regime = Regime::Discrete;
                st.busy = 0;
                st.retiring = 0;
                st.queue.clear();
                st.mass = 0.0;
                st.last_touch = now;
                self.regime_switches += 1;
            }
        }
        for (pos, &s) in path.iter().enumerate() {
            let count = counts[pos];
            if self.stations[s].regime == Regime::Fluid {
                self.stations[s].mass = count as f64;
                for _ in 0..count {
                    let id = self.alloc_request(now, pos);
                    let sojourn = self.sample_station_sojourn(s);
                    self.requests[id].analytic = true;
                    let ev = self.events.schedule(
                        now + sojourn,
                        EventKind::StageDone {
                            service: s,
                            request: id,
                        },
                    );
                    self.requests[id].pending = Some(ev);
                }
            } else {
                for _ in 0..count {
                    let id = self.alloc_request(now, pos);
                    if self.stations[s].busy < self.stations[s].running {
                        self.begin_service(s, id);
                    } else {
                        self.stations[s].queue.push_back(id);
                    }
                }
            }
        }
        self.arrival_streams += 1;
        let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.arrival_streams);
        let mut arr =
            PoissonArrivals::starting_at(&self.trace, self.config.seed.wrapping_add(1) ^ salt, now);
        self.next_arrival = arr.next();
        self.arrivals = Some(arr);
    }

    /// Refreshes the SLO classification of aggregate-mode completions by
    /// sampling `tail_samples` end-to-end sojourns through the current
    /// path state.
    fn refresh_fluid_class(&mut self, t: f64) {
        let Some(h) = self.hybrid else { return };
        let samples = h.tail_samples.max(1);
        let lam = self.trace.rate_at(t).max(0.0);
        let path = self.path.clone();
        // One law per path station, hoisted out of the sampling loop —
        // the station state is constant while sampling.
        let laws: Vec<Option<(fluid::SojournLaw, f64)>> = path
            .iter()
            .map(|&s| {
                if !(self.true_demands[s] > 0.0) {
                    return None;
                }
                let (n, speed, x) = {
                    let st = &self.stations[s];
                    (st.running, st.speed, st.mass)
                };
                Some((self.station_law(s, lam, n, speed), x))
            })
            .collect();
        let mut station_sum = vec![0.0f64; path.len()];
        let mut sat = 0u32;
        let mut tol = 0u32;
        let mut total_sum = 0.0;
        for _ in 0..samples {
            let mut total = 0.0;
            for (pos, law) in laws.iter().enumerate() {
                let sojourn = match *law {
                    Some((law, x)) => law.sample(x, &mut self.tail_rng),
                    None => 0.0,
                };
                station_sum[pos] += sojourn;
                total += sojourn;
            }
            total_sum += total;
            if self.config.slo.is_satisfied(total) {
                sat += 1;
            } else if self.config.slo.is_tolerating(total) {
                tol += 1;
            }
        }
        let inv = 1.0 / f64::from(samples);
        self.fluid_class = FluidClass {
            p_satisfied: f64::from(sat) * inv,
            p_tolerating: f64::from(tol) * inv,
            mean_total: total_sum * inv,
            station_mean: station_sum.iter().map(|s| s * inv).collect(),
        };
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test fixtures cast freely"
)]
mod tests {
    use super::*;
    use crate::config::{DeploymentProfile, SloPolicy};
    use crate::fault::CorruptionMode;
    use crate::nested::VmPoolConfig;

    fn config(seed: u64) -> SimulationConfig {
        SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), seed)
    }

    fn flat_trace(rate: f64, duration: f64) -> LoadTrace {
        let steps = (duration / 60.0).ceil() as usize;
        LoadTrace::new(60.0, vec![rate; steps]).unwrap()
    }

    fn well_provisioned(rate: f64, duration: f64, cfg: SimulationConfig) -> Simulation {
        let model = ApplicationModel::paper_benchmark();
        let mut sim = Simulation::new(&model, &flat_trace(rate, duration), cfg);
        // Generously size every tier for the offered rate.
        sim.set_supply(0, ((rate * 0.059 / 0.6).ceil() as u32).max(2))
            .unwrap();
        sim.set_supply(1, ((rate * 0.1 / 0.6).ceil() as u32).max(2))
            .unwrap();
        sim.set_supply(2, ((rate * 0.04 / 0.6).ceil() as u32).max(2))
            .unwrap();
        sim
    }

    /// A simulation of the paper benchmark under a flat trace.
    fn paper_sim(rate: f64, duration: f64, cfg: SimulationConfig) -> Simulation {
        Simulation::new(
            &ApplicationModel::paper_benchmark(),
            &flat_trace(rate, duration),
            cfg,
        )
    }

    fn conservation(result: &SimulationResult) {
        let sent: u64 = result.sent_per_second.iter().sum();
        assert_eq!(
            sent,
            result.completed + result.in_flight_at_end,
            "sent {} != completed {} + in_flight {}",
            sent,
            result.completed,
            result.in_flight_at_end
        );
    }

    fn pool(sim: &Simulation) -> &VmPoolState {
        sim.pool.as_ref().expect("nested deployment")
    }

    #[test]
    fn pure_des_conserves_requests() {
        let result = well_provisioned(50.0, 300.0, config(1)).run_to_end();
        conservation(&result);
        assert!(result.completed > 10_000);
    }

    #[test]
    fn pure_des_is_deterministic_in_the_seed() {
        let a = well_provisioned(40.0, 300.0, config(7)).run_to_end();
        let b = well_provisioned(40.0, 300.0, config(7)).run_to_end();
        assert_eq!(a, b);
        let c = well_provisioned(40.0, 300.0, config(8)).run_to_end();
        assert_ne!(a.completed, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn planned_crash_schedule_is_duration_independent() {
        // A week-long window with a non-representable interval: the
        // schedule of the longer run must extend the shorter one exactly,
        // and every crash must sit exactly mid-interval — both fail when
        // interval starts are accumulated instead of derived.
        let plan = FaultPlan::new(3).crash_instances(None, 0.0, 2_000_000.0, 0.02, 1);
        let short = planned_crashes(&plan, 61.3, 200_000.0, 3);
        let long = planned_crashes(&plan, 61.3, 1_900_000.0, 3);
        assert!(!short.is_empty());
        assert_eq!(&long[..short.len()], &short[..]);
        for &(time, _, _) in &long {
            let k = (time / 61.3).floor();
            assert_eq!(time, k * 61.3 + 61.3 / 2.0);
        }
    }

    #[test]
    fn well_provisioned_meets_slo() {
        let result = well_provisioned(60.0, 600.0, config(3)).run_to_end();
        assert!(result.total_requests() > 30_000);
        assert!(
            result.slo_violation_percent() < 5.0,
            "violations {}%",
            result.slo_violation_percent()
        );
        assert!(result.apdex_percent() > 95.0);
        // Mean response close to the 0.199 s summed demand at low load.
        assert!(result.mean_response_time() < 0.35);
    }

    #[test]
    fn under_provisioned_violates_slo() {
        let mut sim = paper_sim(60.0, 600.0, config(4));
        // Validation tier can only serve 10 req/s of the offered 60.
        sim.set_supply(0, 10).unwrap();
        sim.set_supply(1, 1).unwrap();
        sim.set_supply(2, 5).unwrap();
        let result = sim.run_to_end();
        assert!(
            result.slo_violation_percent() > 50.0,
            "violations {}%",
            result.slo_violation_percent()
        );
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut sim = paper_sim(50.0, 600.0, config(5));
        for s in 0..3 {
            sim.set_supply(s, 10).unwrap();
        }
        sim.run_until(600.0).unwrap();
        // Expected utilizations: λ·D/n = 50·0.059/10, 50·0.1/10, 50·0.04/10.
        let expect = [0.295, 0.5, 0.2];
        let last = sim.intervals_completed() - 1;
        let stats = sim.interval(last).unwrap();
        for (i, s) in stats.iter().enumerate() {
            assert!(
                (s.utilization - expect[i]).abs() < 0.08,
                "service {i}: {} vs {}",
                s.utilization,
                expect[i]
            );
        }
    }

    #[test]
    fn monitoring_interval_counts_arrivals() {
        let mut sim = paper_sim(100.0, 300.0, config(6));
        for s in 0..3 {
            sim.set_supply(s, 20).unwrap();
        }
        sim.run_until(300.0).unwrap();
        assert_eq!(sim.intervals_completed(), 5);
        let stats = sim.interval(0).unwrap();
        // ~6000 arrivals per 60 s window at the entry; Poisson sd ≈ 77.
        assert!(
            (5_500..6_500).contains(&(stats[0].arrivals as i64)),
            "arrivals {}",
            stats[0].arrivals
        );
    }

    #[test]
    fn provisioning_delay_applies() {
        let profile = DeploymentProfile::custom("slow", 100.0, 0.0);
        let cfg = SimulationConfig::new(profile, SloPolicy::default(), 8);
        let mut sim = paper_sim(1.0, 400.0, cfg);
        assert_eq!(sim.running(0), 1);
        sim.scale_to(0, 5).unwrap();
        assert_eq!(sim.provisioned(0), 5);
        sim.run_until(50.0).unwrap();
        assert_eq!(sim.running(0), 1, "instances not ready before the delay");
        sim.run_until(150.0).unwrap();
        assert_eq!(sim.running(0), 5, "instances ready after the delay");
    }

    #[test]
    fn scale_down_is_fast_and_respects_busy_servers() {
        let mut sim = paper_sim(0.0, 300.0, config(9));
        sim.set_supply(1, 10).unwrap();
        sim.scale_to(1, 2).unwrap();
        sim.run_until(10.0).unwrap();
        assert_eq!(sim.running(1), 2);
    }

    #[test]
    fn scale_down_cancels_pending_boots() {
        let mut sim = paper_sim(0.0, 600.0, config(10));
        sim.scale_to(0, 10).unwrap();
        assert_eq!(sim.provisioned(0), 10);
        sim.scale_to(0, 3).unwrap();
        assert_eq!(sim.provisioned(0), 3);
        sim.run_until(60.0).unwrap();
        assert_eq!(sim.running(0), 3);
    }

    #[test]
    fn scale_respects_model_bounds() {
        let mut sim = paper_sim(1.0, 60.0, config(11));
        sim.scale_to(0, 0).unwrap(); // clamped to min = 1
        assert_eq!(sim.provisioned(0), 1);
        sim.scale_to(0, 100_000).unwrap(); // clamped to max = 200
        assert_eq!(sim.provisioned(0), 200);
        assert!(sim.scale_to(99, 1).is_err());
    }

    #[test]
    fn supply_timeline_records_changes() {
        let mut sim = paper_sim(0.0, 300.0, config(12));
        sim.run_until(100.0).unwrap();
        sim.scale_to(0, 4).unwrap();
        sim.run_until(300.0).unwrap();
        let result = sim.finish();
        assert_eq!(result.supply_at(0, 0.0), 1);
        // Docker delay is 10 s.
        assert_eq!(result.supply_at(0, 105.0), 1);
        assert_eq!(result.supply_at(0, 111.0), 4);
    }

    #[test]
    fn requests_flow_through_all_services() {
        let mut sim = well_provisioned(30.0, 120.0, config(13));
        sim.run_until(120.0).unwrap();
        let stats = sim.interval(0).unwrap();
        // Every tier sees roughly the same number of requests on a chain.
        let a0 = stats[0].arrivals as f64;
        for s in &stats[1..] {
            assert!((s.arrivals as f64 - a0).abs() < a0 * 0.05);
        }
    }

    #[test]
    fn bottleneck_shifting_dynamics_visible() {
        // Tier 0 is the bottleneck: downstream tiers see only its output.
        let mut sim = paper_sim(100.0, 300.0, config(14));
        sim.set_supply(0, 1).unwrap(); // capacity ≈ 16.9 req/s
        sim.set_supply(1, 20).unwrap();
        sim.set_supply(2, 20).unwrap();
        sim.run_until(300.0).unwrap();
        let stats = sim.interval(3).unwrap();
        // Validation tier receives roughly the UI's saturation throughput.
        let downstream_rate = stats[1].arrivals as f64 / 60.0;
        assert!(
            (downstream_rate - 1.0 / 0.059).abs() < 4.0,
            "rate {downstream_rate}"
        );
    }

    #[test]
    fn vertical_scaling_speeds_up_service() {
        // Validation tier at 1 instance and 15 req/s is overloaded
        // (capacity 10); a 2x resize makes it comfortable (capacity 20).
        let run = |resize: bool| {
            let mut sim = paper_sim(15.0, 600.0, config(21));
            sim.set_supply(0, 4).unwrap();
            sim.set_supply(1, 1).unwrap();
            sim.set_supply(2, 2).unwrap();
            if resize {
                sim.scale_vertical(1, 2.0).unwrap();
            }
            sim.run_to_end().slo_violation_percent()
        };
        let (slow, fast) = (run(false), run(true));
        assert!(fast < slow / 2.0, "fast {fast}% vs slow {slow}%");
    }

    #[test]
    fn vertical_scaling_has_provisioning_delay() {
        let profile = DeploymentProfile::custom("slow", 100.0, 0.0);
        let cfg = SimulationConfig::new(profile, SloPolicy::default(), 22);
        let mut sim = paper_sim(1.0, 400.0, cfg);
        sim.scale_vertical(0, 4.0).unwrap();
        sim.run_until(50.0).unwrap();
        assert_eq!(sim.speed(0), 1.0, "resize not yet effective");
        sim.run_until(150.0).unwrap();
        assert_eq!(sim.speed(0), 4.0);
    }

    #[test]
    fn vertical_scaling_validates_inputs() {
        let mut sim = paper_sim(1.0, 60.0, config(23));
        assert!(sim.scale_vertical(99, 2.0).is_err());
        assert!(sim.scale_vertical(0, 0.0).is_err());
        assert!(sim.scale_vertical(0, -1.0).is_err());
        assert!(sim.scale_vertical(0, f64::NAN).is_err());
        assert!(sim.scale_vertical(0, 2.0).is_ok());
    }

    #[test]
    fn nested_pool_blocks_boots_without_slots() {
        // 1 VM x 4 slots; 3 containers already placed (initial 1 each).
        let cfg = config(31).with_vm_pool(VmPoolConfig::new(4, 300.0, 1));
        let mut sim = paper_sim(0.0, 1200.0, cfg);
        assert_eq!(pool(&sim).free_slots(), 1);
        // Ask for 5 more UI containers: 1 boots, 4 wait.
        sim.scale_to(0, 6).unwrap();
        assert_eq!(sim.provisioned(0), 6);
        assert_eq!(sim.waiting_containers(), Some(4));
        sim.run_until(60.0).unwrap();
        assert_eq!(sim.running(0), 2, "only one slot was free");
        // Add a VM: after its 300 s boot the waiting containers start.
        sim.scale_vms(2).unwrap();
        sim.run_until(200.0).unwrap();
        assert_eq!(sim.running(0), 2, "VM not ready yet");
        sim.run_until(400.0).unwrap();
        assert_eq!(sim.running(0), 6, "waiting boots drained after VM ready");
        assert_eq!(sim.waiting_containers(), Some(0));
    }

    #[test]
    fn nested_pool_scale_down_frees_slots_for_waiters() {
        let cfg = config(32).with_vm_pool(VmPoolConfig::new(4, 300.0, 1));
        let mut sim = paper_sim(0.0, 600.0, cfg);
        // Fill the pool: ui 1->2 (slot 4 taken).
        sim.scale_to(0, 2).unwrap();
        sim.run_until(30.0).unwrap();
        assert_eq!(pool(&sim).free_slots(), 0);
        // Validation wants one more: must wait.
        sim.scale_to(1, 2).unwrap();
        assert_eq!(sim.waiting_containers(), Some(1));
        // UI scales back down; the freed slot unblocks validation.
        sim.scale_to(0, 1).unwrap();
        sim.run_until(100.0).unwrap();
        assert_eq!(sim.running(1), 2);
        assert_eq!(sim.waiting_containers(), Some(0));
    }

    #[test]
    fn nested_pool_cancelling_waiting_boots() {
        let cfg = config(33).with_vm_pool(VmPoolConfig::new(3, 300.0, 1));
        let mut sim = paper_sim(0.0, 600.0, cfg);
        sim.scale_to(0, 10).unwrap(); // pool full: most boots wait
        assert!(sim.waiting_containers().unwrap() > 0);
        // Scale back: waiting boots are dropped first, cheaply.
        sim.scale_to(0, 1).unwrap();
        assert_eq!(sim.waiting_containers(), Some(0));
        sim.run_until(120.0).unwrap();
        assert_eq!(sim.running(0), 1);
    }

    #[test]
    fn nested_pool_vm_scale_down_never_kills_occupied_vms() {
        let cfg = config(34).with_vm_pool(VmPoolConfig::new(2, 60.0, 3));
        let mut sim = paper_sim(0.0, 600.0, cfg);
        // 3 initial containers occupy 2 VMs worth of slots (2 + 1).
        assert_eq!(pool(&sim).free_slots(), 3);
        sim.scale_vms(1).unwrap();
        // Only the one fully-free VM may go.
        assert_eq!(pool(&sim).running, 2);
    }

    #[test]
    fn flat_deployment_has_no_pool() {
        let mut sim = paper_sim(0.0, 60.0, config(35));
        assert_eq!(sim.waiting_containers(), None);
        assert!(matches!(
            sim.scale_vms(3),
            Err(SimError::InvalidConfig {
                field: "vm_pool",
                ..
            })
        ));
    }

    #[test]
    fn zero_rate_trace_is_quiet() {
        let result = paper_sim(0.0, 120.0, config(15)).run_to_end();
        assert_eq!(result.total_requests(), 0);
        assert_eq!(result.apdex_percent(), 100.0);
    }

    #[test]
    fn run_until_rejects_time_reversal() {
        let mut sim = paper_sim(1.0, 120.0, config(40));
        sim.run_until(60.0).unwrap();
        assert_eq!(
            sim.run_until(30.0),
            Err(SimError::TimeReversed {
                target: 30.0,
                now: 60.0
            })
        );
        assert!(sim.run_until(f64::NAN).is_err());
        // Equal and forward targets stay fine, as does running past the end.
        sim.run_until(60.0).unwrap();
        sim.run_until(500.0).unwrap();
        assert_eq!(sim.now(), 120.0);
    }

    #[test]
    fn observations_mirror_truth_without_faults() {
        let mut sim = well_provisioned(30.0, 180.0, config(41));
        sim.run_until(180.0).unwrap();
        assert!(sim.fault_log().is_empty());
        for k in 0..sim.intervals_completed() {
            let truth = sim.interval(k).unwrap();
            let observed = sim.observe_interval(k).unwrap();
            for (t, o) in truth.iter().zip(&observed) {
                let o = o.expect("no sample dropped without a fault plan");
                assert_eq!(o.arrivals, t.arrivals as f64);
                assert_eq!(o.utilization, t.utilization);
                assert_eq!(o.instances_end, t.instances_end);
            }
        }
        assert!(sim.observe_interval(sim.intervals_completed()).is_none());
    }

    #[test]
    fn dropped_and_corrupted_samples_are_observed_and_logged() {
        let plan = FaultPlan::new(9)
            .drop_samples(Some(0), 0.0, 1e9, 1.0)
            .corrupt_samples(Some(1), 0.0, 1e9, 1.0, CorruptionMode::Nan);
        let mut sim = paper_sim(20.0, 180.0, config(42).with_fault_plan(plan));
        for s in 0..3 {
            sim.set_supply(s, 4).unwrap();
        }
        sim.run_until(180.0).unwrap();
        let observed = sim.observe_interval(0).unwrap();
        assert!(observed[0].is_none(), "service 0 samples are dropped");
        let corrupt = observed[1].expect("corrupt samples still arrive");
        assert!(corrupt.arrivals.is_nan());
        let clean = observed[2].expect("service 2 untouched");
        assert!(clean.arrivals > 0.0);
        // Ground truth is unaffected by monitoring faults.
        assert!(sim.interval(0).unwrap()[0].arrivals > 0);
        // Two faults per completed interval (services 0 and 1).
        assert_eq!(sim.fault_log().len(), 2 * sim.intervals_completed());
    }

    #[test]
    fn delayed_samples_report_stale_intervals() {
        let plan = FaultPlan::new(9).delay_samples(Some(0), 0.0, 1e9, 1.0, 1);
        let mut sim = paper_sim(20.0, 240.0, config(43).with_fault_plan(plan));
        sim.set_supply(0, 4).unwrap();
        sim.run_until(240.0).unwrap();
        // Interval 0 has no predecessor: the delayed sample is missing.
        assert!(sim.observe_interval(0).unwrap()[0].is_none());
        // Later intervals report the previous window's truth.
        for k in 1..sim.intervals_completed() {
            let stale = sim.observe_interval(k).unwrap()[0].expect("stale sample present");
            let prev = sim.interval(k - 1).unwrap()[0];
            assert_eq!(stale.arrivals, prev.arrivals as f64);
            assert_eq!(stale.start, prev.start);
        }
    }

    #[test]
    fn actuation_failures_surface_and_retries_can_succeed() {
        let plan = FaultPlan::new(5).fail_actuations(None, 0.0, 1e9, 0.5);
        let mut sim = paper_sim(1.0, 600.0, config(44).with_fault_plan(plan));
        let mut failures = 0;
        let mut successes = 0;
        for _ in 0..40 {
            match sim.scale_to(0, 5) {
                Ok(()) => successes += 1,
                Err(SimError::ActuationFailed { service: 0 }) => failures += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failures > 0, "some commands fail under p=0.5");
        assert!(successes > 0, "retries eventually succeed under p=0.5");
        assert_eq!(sim.fault_log().len(), failures);
    }

    #[test]
    fn actuation_delay_slows_provisioning() {
        let plan = FaultPlan::new(6).delay_actuations(None, 0.0, 1e9, 1.0, 200.0);
        let mut sim = paper_sim(1.0, 400.0, config(45).with_fault_plan(plan));
        sim.scale_to(0, 5).unwrap();
        // Docker delay is 10 s; the injected extra is 200 s.
        sim.run_until(100.0).unwrap();
        assert_eq!(sim.running(0), 1, "boot delayed by the injected fault");
        sim.run_until(250.0).unwrap();
        assert_eq!(sim.running(0), 5);
        assert_eq!(sim.fault_log().len(), 1);
    }

    #[test]
    fn instance_crashes_drop_supply_but_not_target() {
        let plan = FaultPlan::new(8).crash_instances(Some(0), 0.0, 60.0, 1.0, 3);
        let mut sim = paper_sim(0.0, 300.0, config(46).with_fault_plan(plan));
        sim.set_supply(0, 8).unwrap();
        sim.run_until(60.0).unwrap();
        assert_eq!(sim.running(0), 5, "three instances crashed");
        assert_eq!(
            sim.fault_log(),
            &[FaultRecord {
                time: 30.0,
                service: 0,
                kind: FaultKind::InstanceCrash { count: 3 },
            }]
        );
        // The controller can re-order the lost capacity.
        sim.scale_to(0, 8).unwrap();
        sim.run_until(120.0).unwrap();
        assert_eq!(sim.running(0), 8);
    }

    #[test]
    fn crash_never_underflows_a_small_service() {
        let plan = FaultPlan::new(8).crash_instances(None, 0.0, 1e9, 1.0, 50);
        let mut sim = paper_sim(10.0, 300.0, config(47).with_fault_plan(plan));
        sim.run_until(300.0).unwrap();
        // Crashing more instances than exist kills what is there, no panic.
        assert!(sim.running(0) <= 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_end_to_end() {
        let build = || {
            let plan = FaultPlan::new(123)
                .drop_samples(None, 0.0, 1e9, 0.3)
                .corrupt_samples(None, 0.0, 1e9, 0.2, CorruptionMode::Negative)
                .crash_instances(None, 0.0, 1e9, 0.2, 1);
            let mut sim = paper_sim(30.0, 600.0, config(48).with_fault_plan(plan));
            sim.set_supply(0, 6).unwrap();
            sim.set_supply(1, 8).unwrap();
            sim.set_supply(2, 6).unwrap();
            sim.run_to_end()
        };
        let a = build();
        let b = build();
        assert_eq!(a.fault_log, b.fault_log);
        assert!(!a.fault_log.is_empty(), "plan injected something");
        assert_eq!(a, b);
    }

    #[test]
    fn hybrid_goes_aggregate_under_heavy_load() {
        // 300 req/s × 0.1 s demand = 30 Erlangs at the bottleneck — far
        // past a 1-Erlang threshold, so every station turns fluid at t = 0
        // and the engine goes aggregate immediately.
        let cfg = config(3).with_hybrid(HybridConfig::new(1.0, 0.5, 64));
        let sim = well_provisioned(300.0, 600.0, cfg);
        assert!(sim.aggregate);
        assert!(sim.is_fluid(0) && sim.is_fluid(1) && sim.is_fluid(2));
        let events_bound = sim.events_processed();
        let result = sim.run_to_end();
        conservation(&result);
        // 300 req/s × 600 s, generated deterministically by carry rounding.
        let sent: u64 = result.sent_per_second.iter().sum();
        assert_eq!(sent, 180_000);
        assert!(result.completed > 170_000, "completed {}", result.completed);
        assert!(result.satisfied > 0);
        // Aggregate mode processes only ticks and actuations — nowhere
        // near one event per request.
        assert!(events_bound < 1_000);
    }

    #[test]
    fn hybrid_switches_back_when_the_load_falls() {
        // 100 req/s (10 Erlangs at the bottleneck) for 5 min, then nearly
        // silent: the engine must enter the aggregate regime and leave it
        // again, conserving every request across both transitions.
        let mut rates = vec![100.0; 5];
        rates.extend_from_slice(&[1.0; 5]);
        let trace = LoadTrace::new(60.0, rates).unwrap();
        let model = ApplicationModel::paper_benchmark();
        let cfg = config(4).with_hybrid(HybridConfig::new(2.0, 0.5, 64));
        let mut sim = Simulation::new(&model, &trace, cfg);
        sim.set_supply(0, 12).unwrap();
        sim.set_supply(1, 20).unwrap();
        sim.set_supply(2, 8).unwrap();
        assert!(sim.aggregate);
        sim.run_until(trace.duration()).unwrap();
        assert!(!sim.aggregate, "low tail must leave the fluid regime");
        assert!(!sim.is_fluid(0) && !sim.is_fluid(1) && !sim.is_fluid(2));
        assert!(sim.regime_switches() >= 8, "{}", sim.regime_switches());
        let result = sim.finish();
        conservation(&result);
        assert!(result.completed > 25_000, "completed {}", result.completed);
    }

    #[test]
    fn scaling_applies_while_fluid() {
        let cfg = config(5).with_hybrid(HybridConfig::new(1.0, 0.5, 32));
        let mut sim = well_provisioned(200.0, 600.0, cfg);
        assert!(sim.aggregate);
        sim.scale_to(0, 40).unwrap();
        assert_eq!(sim.provisioned(0), 40);
        sim.run_until(60.0).unwrap();
        assert_eq!(sim.running(0), 40, "boot applies after the delay");
        sim.scale_to(0, 10).unwrap();
        sim.run_until(120.0).unwrap();
        assert_eq!(sim.running(0), 10, "shutdown applies in the fluid regime");
        sim.scale_vertical(1, 2.0).unwrap();
        sim.run_until(180.0).unwrap();
        assert_eq!(sim.speed(1), 2.0);
        let result = sim.finish();
        conservation(&result);
    }

    #[test]
    fn monitoring_reports_in_every_regime() {
        let cfg = config(9).with_hybrid(HybridConfig::new(1.0, 0.5, 64));
        let mut sim = well_provisioned(150.0, 300.0, cfg);
        sim.run_until(300.0).unwrap();
        assert_eq!(sim.intervals_completed(), 5);
        let stats = sim.interval(0).unwrap();
        // ~9000 arrivals per 60 s window at the entry, deterministic.
        assert_eq!(stats[0].arrivals, 9_000);
        assert!(stats[0].completions > 0);
        assert!(stats[0].utilization > 0.0 && stats[0].utilization <= 1.0);
        assert!(stats[0].mean_response_time.is_some());
        let observed = sim.observe_interval(0).unwrap();
        assert!(observed.iter().all(Option::is_some));
    }

    #[test]
    fn fault_plan_applies_in_both_regimes() {
        let plan = FaultPlan::new(11)
            .crash_instances(Some(1), 60.0, 240.0, 1.0, 2)
            .drop_samples(Some(0), 60.0, 240.0, 1.0);
        let cfg = config(11)
            .with_fault_plan(plan)
            .with_hybrid(HybridConfig::new(1.0, 0.5, 32));
        let mut sim = well_provisioned(200.0, 300.0, cfg);
        sim.run_until(300.0).unwrap();
        let crashes = sim
            .fault_log()
            .iter()
            .filter(|r| matches!(r.kind, FaultKind::InstanceCrash { .. }))
            .count();
        assert!(crashes > 0, "planned crashes must fire while aggregate");
        let observed = sim.observe_interval(2).unwrap();
        assert!(observed[0].is_none(), "dropped sample must be observed");
        let result = sim.finish();
        conservation(&result);
    }
}
