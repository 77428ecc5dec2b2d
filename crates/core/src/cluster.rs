//! Multi-tenant cluster arbitration with a FOX-aware warm pool.
//!
//! The paper scales one application; this module adds the cluster level:
//! N independently controlled tenants (each a Chamulteon-scaled
//! application) submit their per-cycle scale-up/release proposals to a
//! [`ClusterArbiter`] that owns a global instance budget. Three
//! resolution policies decide who gets instances when demand exceeds
//! supply ([`ArbitrationPolicy`]).
//!
//! The arbiter extends FOX's lease semantics across tenants: a released
//! instance whose charging interval is still paid does not terminate — it
//! moves into a cross-tenant **warm pool**, keeping its original lease
//! start time. A tenant scaling up draws warm instances before any cold
//! lease is opened; the billed seconds of a transferred lease are always
//! attributed to the *original* lessee. A warm instance whose paid window
//! runs out is terminated and billed to its origin; one released within
//! the FOX release window (≤ 10% of the charging interval paid time
//! remaining) is closed outright, exactly as single-tenant FOX would.
//!
//! Two invariants the cluster conformance oracle replays against an
//! independent implementation:
//!
//! * **budget**: running instances plus warm-pool instances never exceed
//!   the budget at any event time,
//! * **ledger**: the per-tenant billed ledgers balance bit-exactly with a
//!   naive replay of the raw event log, transferred leases included.

use crate::fox::ChargingModel;
use crate::snapshot::{read_header, write_record, SnapshotError};
use chamulteon_obs::json::{self, JsonError, Record};

/// Dense tenant index within a cluster.
pub type TenantId = usize;

/// One running instance lease: billed from `start` under the cluster's
/// charging model, with the bill always attributed to `origin` — the
/// tenant that opened the lease, which may differ from the tenant
/// currently running the instance after a warm-pool transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLease {
    /// Lease start time (seconds); preserved across warm-pool transfers.
    pub start: f64,
    /// Tenant the billed seconds are attributed to.
    pub origin: TenantId,
}

/// A parked lease in the cross-tenant warm pool: released but still paid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmLease {
    /// Original lease start time.
    pub start: f64,
    /// Tenant billed for this lease.
    pub origin: TenantId,
    /// End of the already-paid window, fixed at deposit time: the pool
    /// holds the instance until here and terminates it if undrawn.
    pub paid_until: f64,
}

/// How the arbiter resolves scale-up contention over the shared budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Tenants ranked by weight (ties by lower tenant id); each is granted
    /// in full, in rank order, until the budget runs out.
    StrictPriority,
    /// Weighted max-min fairness: instances are granted one at a time to
    /// the tenant with the smallest granted-to-weight ratio.
    WeightedFairShare,
    /// Cost-greedy: instances go one at a time to the tenant with the
    /// highest marginal SLO gain per instance, with diminishing returns
    /// (a tenant's k-th granted instance counts `gain / k`).
    CostGreedy,
}

impl ArbitrationPolicy {
    /// Stable policy name used in reports, events and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ArbitrationPolicy::StrictPriority => "strict-priority",
            ArbitrationPolicy::WeightedFairShare => "fair-share",
            ArbitrationPolicy::CostGreedy => "cost-greedy",
        }
    }

    /// Parses a policy from its [`name`](ArbitrationPolicy::name).
    pub fn from_name(name: &str) -> Option<ArbitrationPolicy> {
        match name {
            "strict-priority" => Some(ArbitrationPolicy::StrictPriority),
            "fair-share" => Some(ArbitrationPolicy::WeightedFairShare),
            "cost-greedy" => Some(ArbitrationPolicy::CostGreedy),
            _ => None,
        }
    }

    /// All policies, for grids and CLIs.
    pub fn all() -> [ArbitrationPolicy; 3] {
        [
            ArbitrationPolicy::StrictPriority,
            ArbitrationPolicy::WeightedFairShare,
            ArbitrationPolicy::CostGreedy,
        ]
    }
}

/// One tenant's submission for an arbitration cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantProposal {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Desired total instance count (the controller's aggregated target).
    pub desired: u32,
    /// Priority / fair-share weight. Non-finite or non-positive weights
    /// are treated as 1.0.
    pub weight: f64,
    /// Estimated marginal SLO gain of the first additional instance, used
    /// by [`ArbitrationPolicy::CostGreedy`]. Non-finite or negative gains
    /// are treated as 0.
    pub slo_gain: f64,
}

/// The arbiter's per-tenant outcome for one arbitration cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantVerdict {
    /// The tenant this verdict applies to.
    pub tenant: TenantId,
    /// The desired total the tenant asked for.
    pub requested: u32,
    /// The total instance count the tenant holds after arbitration — the
    /// target its controller must actually apply.
    pub granted: u32,
    /// Instances satisfied from the warm pool this cycle.
    pub drawn_warm: u32,
    /// Fresh (cold) leases opened this cycle.
    pub opened_cold: u32,
    /// Still-paid releases parked into the warm pool this cycle.
    pub deposited: u32,
    /// Releases closed outright (paid window nearly exhausted).
    pub closed: u32,
}

/// One entry of the arbiter's raw event log — the ground truth the
/// conformance oracle replays and the provenance `obs` exports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterEvent {
    /// A cold lease opened for `tenant` (start = `time`, origin = tenant).
    Open {
        /// Event time.
        time: f64,
        /// Tenant opening the lease.
        tenant: TenantId,
    },
    /// A warm lease drawn by `tenant`; `start`/`origin` identify the
    /// transferred lease.
    Draw {
        /// Event time.
        time: f64,
        /// Tenant receiving the instance.
        tenant: TenantId,
        /// Original lease start time.
        start: f64,
        /// Tenant billed for the lease.
        origin: TenantId,
    },
    /// A running lease released by `tenant` into the warm pool.
    Deposit {
        /// Event time.
        time: f64,
        /// Tenant releasing the instance.
        tenant: TenantId,
        /// Original lease start time.
        start: f64,
        /// Tenant billed for the lease.
        origin: TenantId,
    },
    /// A running lease released and closed outright (release window);
    /// bills `billed_duration(time - start)` to `origin`.
    Close {
        /// Event time.
        time: f64,
        /// Tenant that held the instance.
        tenant: TenantId,
        /// Original lease start time.
        start: f64,
        /// Tenant billed for the lease.
        origin: TenantId,
    },
    /// A warm lease's paid window ran out undrawn; bills
    /// `billed_duration(paid_until - start)` to `origin`.
    Expire {
        /// Event time (the arbitration that observed the expiry).
        time: f64,
        /// Original lease start time.
        start: f64,
        /// End of the paid window.
        paid_until: f64,
        /// Tenant billed for the lease.
        origin: TenantId,
    },
}

impl ClusterEvent {
    /// The event time.
    pub fn time(&self) -> f64 {
        match self {
            ClusterEvent::Open { time, .. }
            | ClusterEvent::Draw { time, .. }
            | ClusterEvent::Deposit { time, .. }
            | ClusterEvent::Close { time, .. }
            | ClusterEvent::Expire { time, .. } => *time,
        }
    }
}

/// The cluster-level arbiter: global budget, per-tenant lease books with
/// origin attribution, the cross-tenant warm pool and the per-tenant
/// billed ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArbiter {
    model: ChargingModel,
    policy: ArbitrationPolicy,
    budget: u32,
    /// Release an instance outright (instead of parking it warm) when at
    /// most this fraction of its charging interval remains paid — the
    /// same 10% window single-tenant FOX uses.
    release_window: f64,
    /// Per-tenant books of running leases.
    books: Vec<Vec<TenantLease>>,
    /// The cross-tenant warm pool.
    warm: Vec<WarmLease>,
    /// Per-tenant billed instance-seconds of *closed* leases, attributed
    /// to the lease origin.
    billed: Vec<f64>,
    /// Raw event log since the last [`take_events`](Self::take_events).
    events: Vec<ClusterEvent>,
}

impl ClusterArbiter {
    /// Creates an arbiter for `tenants` tenants sharing `budget` instances
    /// under the given charging model.
    pub fn new(
        model: ChargingModel,
        policy: ArbitrationPolicy,
        budget: u32,
        tenants: usize,
    ) -> Self {
        ClusterArbiter {
            model,
            policy,
            budget,
            release_window: 0.1,
            books: vec![Vec::new(); tenants],
            warm: Vec::new(),
            billed: vec![0.0; tenants],
            events: Vec::new(),
        }
    }

    /// The charging model in use.
    pub fn model(&self) -> &ChargingModel {
        &self.model
    }

    /// The arbitration policy in use.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// The global instance budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Running instances currently held by `tenant`.
    pub fn running(&self, tenant: TenantId) -> u32 {
        self.books
            .get(tenant)
            .map(|b| u32::try_from(b.len()).unwrap_or(u32::MAX))
            .unwrap_or(0)
    }

    /// Total running instances across all tenants.
    pub fn total_running(&self) -> u32 {
        self.books
            .iter()
            .map(|b| u32::try_from(b.len()).unwrap_or(u32::MAX))
            .fold(0u32, u32::saturating_add)
    }

    /// Instances parked in the warm pool.
    pub fn warm_count(&self) -> u32 {
        u32::try_from(self.warm.len()).unwrap_or(u32::MAX)
    }

    /// Budget consumption: running plus warm instances — the quantity the
    /// budget invariant bounds.
    pub fn in_use(&self) -> u32 {
        self.total_running().saturating_add(self.warm_count())
    }

    /// The per-tenant lease books.
    pub fn lease_books(&self) -> &[Vec<TenantLease>] {
        &self.books
    }

    /// Total billed instance-seconds attributed to `tenant` as of `now`:
    /// closed leases plus the accrued bill of its still-open leases —
    /// running anywhere in the cluster or parked warm.
    pub fn billed_instance_seconds(&self, tenant: TenantId, now: f64) -> f64 {
        let mut total = self.billed.get(tenant).copied().unwrap_or(0.0);
        for lease in self.books.iter().flatten() {
            if lease.origin == tenant {
                total += self.model.billed_duration(now - lease.start);
            }
        }
        for warm in &self.warm {
            if warm.origin == tenant {
                // A parked lease's bill is fixed at deposit time: its paid
                // window, which it will never exceed.
                total += self.model.billed_duration(warm.paid_until - warm.start);
            }
        }
        total
    }

    /// Drains the raw event log accumulated since the last call.
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    /// One arbitration cycle at time `now`.
    ///
    /// Phases, in order: warm leases whose paid window ran out are
    /// terminated; scale-downs are applied (release-window leases close,
    /// still-paid ones park warm); scale-ups are resolved by the policy
    /// against the remaining budget, each granted instance drawing the
    /// warm lease with the most paid time left before opening a cold one.
    ///
    /// Returns one verdict per proposal, in proposal order. Proposals for
    /// tenants beyond the constructed count grow the book/ledger tables.
    pub fn arbitrate(&mut self, now: f64, proposals: &[TenantProposal]) -> Vec<TenantVerdict> {
        for p in proposals {
            self.ensure_tenant(p.tenant);
        }
        self.expire_warm(now);

        let mut verdicts: Vec<TenantVerdict> = proposals
            .iter()
            .map(|p| TenantVerdict {
                tenant: p.tenant,
                requested: p.desired,
                granted: 0,
                drawn_warm: 0,
                opened_cold: 0,
                deposited: 0,
                closed: 0,
            })
            .collect();

        // Phase 1: releases free budget before any grant is considered.
        for (p, verdict) in proposals.iter().zip(verdicts.iter_mut()) {
            let current = self.running(p.tenant);
            let mut to_release = current.saturating_sub(p.desired);
            while to_release > 0 {
                let Some((deposited, closed)) = self.release_one(p.tenant, now) else {
                    break;
                };
                verdict.deposited += deposited;
                verdict.closed += closed;
                to_release -= 1;
            }
        }

        // Phase 2: scale-ups, resolved by the policy. Each sequence entry
        // is one granted instance for one proposal, in grant order.
        let supply = self.budget.saturating_sub(self.total_running());
        let sequence = allocate(self.policy, proposals, supply, |t| self.running(t));
        for index in sequence {
            let Some(p) = proposals.get(index) else {
                continue;
            };
            if self.draw_warm(p.tenant, now) {
                if let Some(v) = verdicts.get_mut(index) {
                    v.drawn_warm += 1;
                }
            } else {
                self.open_cold(p.tenant, now);
                if let Some(v) = verdicts.get_mut(index) {
                    v.opened_cold += 1;
                }
            }
        }

        for verdict in &mut verdicts {
            verdict.granted = self.running(verdict.tenant);
        }
        verdicts
    }

    /// Grows the book/ledger tables to cover `tenant`.
    fn ensure_tenant(&mut self, tenant: TenantId) {
        if tenant >= self.books.len() {
            self.books.resize(tenant + 1, Vec::new());
        }
        if tenant >= self.billed.len() {
            self.billed.resize(tenant + 1, 0.0);
        }
    }

    /// Terminates warm leases whose paid window has run out, billing each
    /// to its origin.
    fn expire_warm(&mut self, now: f64) {
        let mut index = 0;
        while index < self.warm.len() {
            let warm = self.warm[index];
            if warm.paid_until <= now {
                self.warm.remove(index);
                self.ensure_tenant(warm.origin);
                self.billed[warm.origin] +=
                    self.model.billed_duration(warm.paid_until - warm.start);
                self.events.push(ClusterEvent::Expire {
                    time: now,
                    start: warm.start,
                    paid_until: warm.paid_until,
                    origin: warm.origin,
                });
            } else {
                index += 1;
            }
        }
    }

    /// Releases the cheapest lease (least remaining paid time, ties to the
    /// earliest start, then lowest origin) from `tenant`'s book: closes it
    /// when inside the release window, parks it warm otherwise. Returns
    /// `(deposited, closed)` as 0/1 counts, or `None` on an empty book.
    fn release_one(&mut self, tenant: TenantId, now: f64) -> Option<(u32, u32)> {
        self.ensure_tenant(tenant);
        let book = &mut self.books[tenant];
        let index = book
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                self.model
                    .paid_time_remaining(a.start, now)
                    .total_cmp(&self.model.paid_time_remaining(b.start, now))
                    .then_with(|| a.start.total_cmp(&b.start))
                    .then_with(|| a.origin.cmp(&b.origin))
            })
            .map(|(i, _)| i)?;
        let lease = book.remove(index);
        let window = self.model.interval * self.release_window;
        if self.model.paid_time_remaining(lease.start, now) <= window {
            self.ensure_tenant(lease.origin);
            self.billed[lease.origin] += self.model.billed_duration(now - lease.start);
            self.events.push(ClusterEvent::Close {
                time: now,
                tenant,
                start: lease.start,
                origin: lease.origin,
            });
            Some((0, 1))
        } else {
            let paid_until = lease.start + self.model.billed_duration(now - lease.start);
            self.warm.push(WarmLease {
                start: lease.start,
                origin: lease.origin,
                paid_until,
            });
            self.events.push(ClusterEvent::Deposit {
                time: now,
                tenant,
                start: lease.start,
                origin: lease.origin,
            });
            Some((1, 0))
        }
    }

    /// Moves the warm lease with the most paid time left (ties to the
    /// earliest start, then lowest origin) into `tenant`'s book. Returns
    /// false when the pool is empty.
    fn draw_warm(&mut self, tenant: TenantId, now: f64) -> bool {
        let Some(index) = self
            .warm
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (b.paid_until - now)
                    .total_cmp(&(a.paid_until - now))
                    .then_with(|| a.start.total_cmp(&b.start))
                    .then_with(|| a.origin.cmp(&b.origin))
            })
            .map(|(i, _)| i)
        else {
            return false;
        };
        let warm = self.warm.remove(index);
        self.ensure_tenant(tenant);
        self.books[tenant].push(TenantLease {
            start: warm.start,
            origin: warm.origin,
        });
        self.events.push(ClusterEvent::Draw {
            time: now,
            tenant,
            start: warm.start,
            origin: warm.origin,
        });
        true
    }

    /// Opens a fresh lease for `tenant` at `now`.
    fn open_cold(&mut self, tenant: TenantId, now: f64) {
        self.ensure_tenant(tenant);
        self.books[tenant].push(TenantLease {
            start: now,
            origin: tenant,
        });
        self.events.push(ClusterEvent::Open { time: now, tenant });
    }
}

/// Builds the grant sequence: one proposal index per granted instance, in
/// grant order, honoring the policy and never exceeding `supply`.
fn allocate(
    policy: ArbitrationPolicy,
    proposals: &[TenantProposal],
    supply: u32,
    running: impl Fn(TenantId) -> u32,
) -> Vec<usize> {
    // Outstanding want per proposal after the release phase.
    let mut want: Vec<u32> = proposals
        .iter()
        .map(|p| p.desired.saturating_sub(running(p.tenant)))
        .collect();
    let mut granted: Vec<u32> = vec![0; proposals.len()];
    let mut sequence = Vec::new();
    let mut left = supply;

    match policy {
        ArbitrationPolicy::StrictPriority => {
            // Rank by weight (desc), ties by tenant id (asc).
            let mut order: Vec<usize> = (0..proposals.len()).collect();
            order.sort_by(|&a, &b| {
                sane_weight(proposals[b].weight)
                    .total_cmp(&sane_weight(proposals[a].weight))
                    .then_with(|| proposals[a].tenant.cmp(&proposals[b].tenant))
            });
            for index in order {
                while left > 0 && want[index] > 0 {
                    sequence.push(index);
                    want[index] -= 1;
                    left -= 1;
                }
            }
        }
        ArbitrationPolicy::WeightedFairShare => {
            while left > 0 {
                // Most underserved active proposal: smallest granted/weight,
                // ties to higher weight, then lower tenant id.
                let Some(index) = (0..proposals.len())
                    .filter(|&i| want[i] > 0)
                    .min_by(|&a, &b| {
                        let ka = f64::from(granted[a]) / sane_weight(proposals[a].weight);
                        let kb = f64::from(granted[b]) / sane_weight(proposals[b].weight);
                        ka.total_cmp(&kb)
                            .then_with(|| {
                                sane_weight(proposals[b].weight)
                                    .total_cmp(&sane_weight(proposals[a].weight))
                            })
                            .then_with(|| proposals[a].tenant.cmp(&proposals[b].tenant))
                    })
                else {
                    break;
                };
                sequence.push(index);
                granted[index] += 1;
                want[index] -= 1;
                left -= 1;
            }
        }
        ArbitrationPolicy::CostGreedy => {
            while left > 0 {
                // Highest marginal gain with diminishing returns, ties to
                // lower tenant id.
                let Some(index) = (0..proposals.len())
                    .filter(|&i| want[i] > 0)
                    .max_by(|&a, &b| {
                        let ga = sane_gain(proposals[a].slo_gain) / f64::from(granted[a] + 1);
                        let gb = sane_gain(proposals[b].slo_gain) / f64::from(granted[b] + 1);
                        ga.total_cmp(&gb)
                            .then_with(|| proposals[b].tenant.cmp(&proposals[a].tenant))
                    })
                else {
                    break;
                };
                sequence.push(index);
                granted[index] += 1;
                want[index] -= 1;
                left -= 1;
            }
        }
    }
    sequence
}

/// Weights must be positive and finite to rank; anything else acts as 1.
fn sane_weight(weight: f64) -> f64 {
    if weight.is_finite() && weight > 0.0 {
        weight
    } else {
        1.0
    }
}

/// Gains must be non-negative and finite to rank; anything else acts as 0.
fn sane_gain(gain: f64) -> f64 {
    if gain.is_finite() && gain > 0.0 {
        gain
    } else {
        0.0
    }
}

/// The cluster snapshot format version this build writes and restores.
pub const CLUSTER_SNAPSHOT_VERSION: u64 = 2;

/// The schema identifier on a cluster snapshot's header record.
const CLUSTER_SNAPSHOT_SCHEMA: &str = "chamulteon-cluster-snapshot";

impl ClusterArbiter {
    /// Encodes the arbiter's complete state — budget, policy, per-tenant
    /// books with origins, warm pool and billed ledgers — in the
    /// controller snapshot's record format: a header, the billed ledger,
    /// then one `lease` record per running lease in book order and one
    /// `warm` record per parked lease. Floats use Rust's shortest
    /// round-trip formatting, so `restore ∘ snapshot` is the identity (the
    /// pending event log is *not* part of the state; drain it before
    /// checkpointing).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, "header", |w| {
            w.str("schema", CLUSTER_SNAPSHOT_SCHEMA)
                .u64("version", CLUSTER_SNAPSHOT_VERSION)
                .usize("tenants", self.books.len())
                .str("policy", self.policy.name())
                .u32("budget", self.budget)
                .f64("release_window", self.release_window)
                .str("model", &self.model.name)
                .f64("interval", self.model.interval)
                .f64("minimum", self.model.minimum);
        });
        write_record(&mut out, "billed", |w| {
            w.f64_array("seconds", &self.billed);
        });
        for (tenant, book) in self.books.iter().enumerate() {
            for lease in book {
                write_record(&mut out, "lease", |w| {
                    w.usize("tenant", tenant)
                        .f64("start", lease.start)
                        .usize("origin", lease.origin);
                });
            }
        }
        for lease in &self.warm {
            write_record(&mut out, "warm", |w| {
                w.f64("start", lease.start)
                    .usize("origin", lease.origin)
                    .f64("paid_until", lease.paid_until);
            });
        }
        out
    }

    /// Rebuilds an arbiter from [`snapshot`](Self::snapshot) text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for another format version;
    /// [`SnapshotError::Malformed`] for bad records, an unknown policy, a
    /// ledger without exactly `tenants` finite entries, a lease before
    /// the ledger, a tenant or origin at or beyond the header's `tenants`,
    /// or a non-finite lease time; [`SnapshotError::Inconsistent`] when
    /// the ledger is missing or the leases exceed the budget.
    pub fn restore(text: &str) -> Result<ClusterArbiter, SnapshotError> {
        let mut records = json::records(text);
        let header = read_header(
            &mut records,
            CLUSTER_SNAPSHOT_SCHEMA,
            CLUSTER_SNAPSHOT_VERSION,
        )?;
        let tenants = header.usize("tenants")?;
        let name = header.str("policy")?;
        let policy = ArbitrationPolicy::from_name(name)
            .ok_or_else(|| header.error(format!("unknown policy `{name}`")))?;
        let mut arbiter = ClusterArbiter {
            model: ChargingModel {
                name: header.str("model")?.to_owned(),
                interval: header.f64("interval")?,
                minimum: header.f64("minimum")?,
            },
            policy,
            budget: header.u32("budget")?,
            release_window: header.f64("release_window")?,
            books: Vec::new(),
            warm: Vec::new(),
            billed: Vec::new(),
            events: Vec::new(),
        };
        let index = |rec: &Record<'_>, key: &str, bound: usize| -> Result<usize, JsonError> {
            match rec.usize(key)? {
                i if i < bound => Ok(i),
                i => Err(rec.error(format!("`{key}` {i} out of range (tenants: {bound})"))),
            }
        };
        let time = |rec: &Record<'_>, key: &str| -> Result<f64, JsonError> {
            match rec.f64(key)? {
                t if t.is_finite() => Ok(t),
                _ => Err(rec.error(format!("non-finite `{key}`"))),
            }
        };
        for rec in records {
            let rec = rec?;
            match rec.str("kind")? {
                "billed" => {
                    let billed = rec.f64_array("seconds")?;
                    if billed.len() != tenants || !billed.iter().all(|b| b.is_finite()) {
                        return Err(rec
                            .error(format!("need {tenants} finite ledger entries"))
                            .into());
                    }
                    // The ledger has shown the tenant count is real.
                    arbiter.books = vec![Vec::new(); tenants];
                    arbiter.billed = billed;
                }
                "lease" => {
                    let tenant = index(&rec, "tenant", arbiter.books.len())?;
                    let lease = TenantLease {
                        start: time(&rec, "start")?,
                        origin: index(&rec, "origin", tenants)?,
                    };
                    arbiter.books[tenant].push(lease);
                }
                "warm" => arbiter.warm.push(WarmLease {
                    start: time(&rec, "start")?,
                    origin: index(&rec, "origin", tenants)?,
                    paid_until: time(&rec, "paid_until")?,
                }),
                other => {
                    return Err(rec.error(format!("unknown record kind `{other}`")).into());
                }
            }
        }
        if arbiter.billed.len() != tenants {
            return Err(SnapshotError::Inconsistent {
                message: format!("no ledger for {tenants} tenants"),
            });
        }
        if arbiter.in_use() > arbiter.budget {
            return Err(SnapshotError::Inconsistent {
                message: format!(
                    "{} instances in use exceed the budget of {}",
                    arbiter.in_use(),
                    arbiter.budget
                ),
            });
        }
        Ok(arbiter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposal(tenant: TenantId, desired: u32, weight: f64, gain: f64) -> TenantProposal {
        TenantProposal {
            tenant,
            desired,
            weight,
            slo_gain: gain,
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in ArbitrationPolicy::all() {
            assert_eq!(ArbitrationPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(ArbitrationPolicy::from_name("nonsense"), None);
    }

    #[test]
    fn strict_priority_grants_high_weight_first() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::StrictPriority,
            5,
            2,
        );
        let verdicts =
            arbiter.arbitrate(0.0, &[proposal(0, 4, 1.0, 0.0), proposal(1, 4, 2.0, 0.0)]);
        // Tenant 1 outranks tenant 0: full grant for 1, remainder for 0.
        assert_eq!(verdicts[1].granted, 4);
        assert_eq!(verdicts[0].granted, 1);
        assert_eq!(arbiter.in_use(), 5);
    }

    #[test]
    fn fair_share_splits_by_weight() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::WeightedFairShare,
            6,
            2,
        );
        let verdicts =
            arbiter.arbitrate(0.0, &[proposal(0, 10, 1.0, 0.0), proposal(1, 10, 2.0, 0.0)]);
        // 6 instances at weights 1:2 → 2 and 4.
        assert_eq!(verdicts[0].granted, 2);
        assert_eq!(verdicts[1].granted, 4);
    }

    #[test]
    fn cost_greedy_follows_marginal_gain() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::CostGreedy,
            3,
            2,
        );
        let verdicts =
            arbiter.arbitrate(0.0, &[proposal(0, 10, 1.0, 9.0), proposal(1, 10, 1.0, 4.0)]);
        // Marginal gains 9, 9/2, 9/3 vs 4, 4/2: grants go 9, 9/2, 4.
        assert_eq!(verdicts[0].granted, 2);
        assert_eq!(verdicts[1].granted, 1);
    }

    #[test]
    fn still_paid_release_parks_warm_and_transfers_with_original_start() {
        let model = ChargingModel::ec2_hourly();
        let mut arbiter =
            ClusterArbiter::new(model.clone(), ArbitrationPolicy::StrictPriority, 10, 2);
        // Tenant 0 opens 3 leases at t = 0.
        arbiter.arbitrate(0.0, &[proposal(0, 3, 1.0, 0.0)]);
        // At t = 600 tenant 0 releases 2 (mid-interval: still paid → warm).
        let verdicts = arbiter.arbitrate(600.0, &[proposal(0, 1, 1.0, 0.0)]);
        assert_eq!(verdicts[0].deposited, 2);
        assert_eq!(verdicts[0].closed, 0);
        assert_eq!(arbiter.warm_count(), 2);
        assert_eq!(arbiter.in_use(), 3, "warm instances still consume budget");
        // Tenant 1 scales up: draws warm before opening cold.
        let verdicts = arbiter.arbitrate(1200.0, &[proposal(1, 3, 1.0, 0.0)]);
        assert_eq!(verdicts[0].drawn_warm, 2);
        assert_eq!(verdicts[0].opened_cold, 1);
        // The transferred leases keep their t = 0 start and tenant-0 origin.
        let transferred: Vec<&TenantLease> = arbiter.lease_books()[1]
            .iter()
            .filter(|l| l.origin == 0)
            .collect();
        assert_eq!(transferred.len(), 2);
        assert!(transferred.iter().all(|l| l.start == 0.0));
        // Billing of the transferred leases stays with tenant 0.
        let billed0 = arbiter.billed_instance_seconds(0, 1800.0);
        let billed1 = arbiter.billed_instance_seconds(1, 1800.0);
        assert_eq!(billed0.to_bits(), (3.0f64 * 3600.0).to_bits());
        assert_eq!(billed1.to_bits(), 3600.0f64.to_bits());
    }

    #[test]
    fn release_window_closes_outright() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::StrictPriority,
            10,
            1,
        );
        arbiter.arbitrate(0.0, &[proposal(0, 2, 1.0, 0.0)]);
        // 59 minutes in: 60 s paid time left (< 10% window) — close, don't park.
        let verdicts = arbiter.arbitrate(3540.0, &[proposal(0, 0, 1.0, 0.0)]);
        assert_eq!(verdicts[0].closed, 2);
        assert_eq!(verdicts[0].deposited, 0);
        assert_eq!(arbiter.warm_count(), 0);
        let billed = arbiter.billed_instance_seconds(0, 3540.0);
        assert_eq!(billed.to_bits(), (2.0f64 * 3600.0).to_bits());
    }

    #[test]
    fn undrawn_warm_lease_expires_and_bills_origin() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::StrictPriority,
            10,
            2,
        );
        arbiter.arbitrate(0.0, &[proposal(0, 1, 1.0, 0.0)]);
        arbiter.arbitrate(600.0, &[proposal(0, 0, 1.0, 0.0)]);
        assert_eq!(arbiter.warm_count(), 1);
        // Past the paid hour: the warm lease expires at the next cycle.
        let _ = arbiter.arbitrate(4000.0, &[proposal(1, 0, 1.0, 0.0)]);
        assert_eq!(arbiter.warm_count(), 0);
        assert_eq!(arbiter.in_use(), 0);
        let billed = arbiter.billed_instance_seconds(0, 4000.0);
        assert_eq!(billed.to_bits(), 3600.0f64.to_bits());
        let events = arbiter.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ClusterEvent::Expire { origin: 0, .. })));
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::gcp_per_minute(),
            ArbitrationPolicy::WeightedFairShare,
            7,
            3,
        );
        let mut now = 0.0;
        for round in 0..40u32 {
            now += 37.0 * f64::from(round % 5 + 1);
            let desired = [round % 6, (round * 3) % 5, (round * 7) % 4];
            let proposals: Vec<TenantProposal> = desired
                .iter()
                .enumerate()
                .map(|(t, &d)| {
                    let weight = f64::from(u32::try_from(t).unwrap_or(0) + 1);
                    proposal(t, d, weight, f64::from(d))
                })
                .collect();
            let verdicts = arbiter.arbitrate(now, &proposals);
            assert!(arbiter.in_use() <= arbiter.budget(), "round {round}");
            let granted: u32 = verdicts.iter().map(|v| v.granted).sum();
            assert_eq!(granted, arbiter.total_running(), "round {round}");
        }
    }

    #[test]
    fn snapshot_round_trips_and_restores_equivalently() {
        let mut arbiter = ClusterArbiter::new(
            ChargingModel::gcp_per_minute(),
            ArbitrationPolicy::CostGreedy,
            8,
            2,
        );
        arbiter.arbitrate(0.1, &[proposal(0, 3, 1.0, 5.0), proposal(1, 2, 2.0, 3.0)]);
        arbiter.arbitrate(120.1, &[proposal(0, 1, 1.0, 5.0), proposal(1, 4, 2.0, 3.0)]);
        let _ = arbiter.take_events();
        let text = arbiter.snapshot();
        let restored = ClusterArbiter::restore(&text).expect("snapshot decodes");
        assert_eq!(restored, arbiter);
        assert_eq!(restored.snapshot(), text, "encode ∘ restore ∘ encode");
        // Continuations are bit-identical.
        let mut a = arbiter.clone();
        let mut b = restored;
        let next = [proposal(0, 4, 1.0, 5.0), proposal(1, 0, 2.0, 3.0)];
        assert_eq!(a.arbitrate(240.1, &next), b.arbitrate(240.1, &next));
        assert_eq!(
            a.billed_instance_seconds(0, 500.0).to_bits(),
            b.billed_instance_seconds(0, 500.0).to_bits()
        );
        assert_eq!(a.take_events(), b.take_events());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(ClusterArbiter::restore("").is_err());
        assert!(ClusterArbiter::restore("not a snapshot").is_err());
        assert!(ClusterArbiter::restore("chamulteon-cluster-snapshot 99").is_err());
        let valid = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::StrictPriority,
            4,
            1,
        )
        .snapshot();
        let tampered = valid.replace("\"policy\":\"strict-priority\"", "\"policy\":\"mystery\"");
        assert!(ClusterArbiter::restore(&tampered).is_err());
        let future = valid.replace("\"version\":2", "\"version\":99");
        assert_eq!(
            ClusterArbiter::restore(&future),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    /// The header and ledger of a one-tenant EC2 arbiter with `budget`,
    /// followed by `records`.
    fn one_tenant(budget: u32, records: &str) -> String {
        let valid = ClusterArbiter::new(
            ChargingModel::ec2_hourly(),
            ArbitrationPolicy::StrictPriority,
            budget,
            1,
        )
        .snapshot();
        format!("{valid}{records}")
    }

    #[test]
    fn restore_rejects_book_tenants_beyond_the_header() {
        let text = one_tenant(
            4,
            "{\"kind\":\"lease\",\"tenant\":18446744073709551615,\"start\":0,\"origin\":0}\n",
        );
        assert!(matches!(
            ClusterArbiter::restore(&text),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn restore_rejects_lease_origins_beyond_the_header() {
        for origin in ["1", "1000000000000"] {
            let text = one_tenant(
                4,
                &format!(
                    "{{\"kind\":\"warm\",\"start\":0,\"origin\":{origin},\"paid_until\":3600}}\n"
                ),
            );
            assert!(
                matches!(
                    ClusterArbiter::restore(&text),
                    Err(SnapshotError::Malformed { .. })
                ),
                "origin {origin}"
            );
        }
    }

    #[test]
    fn restore_rejects_state_over_budget_or_with_non_finite_times() {
        let leases = |start: &str| {
            "{\"kind\":\"lease\",\"tenant\":0,\"start\":0,\"origin\":0}\n".repeat(2)
                + &format!("{{\"kind\":\"lease\",\"tenant\":0,\"start\":{start},\"origin\":0}}\n")
        };
        assert!(ClusterArbiter::restore(&one_tenant(3, &leases("0"))).is_ok());
        assert!(matches!(
            ClusterArbiter::restore(&one_tenant(1, &leases("0"))),
            Err(SnapshotError::Inconsistent { .. })
        ));
        assert!(matches!(
            ClusterArbiter::restore(&one_tenant(3, &leases("null"))),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
