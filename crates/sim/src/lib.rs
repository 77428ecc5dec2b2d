//! Discrete-event micro-service cloud simulator for the Chamulteon
//! reproduction.
//!
//! The paper evaluates on a private CloudStack/KVM cloud and a Kubernetes
//! cluster (§IV-A). This crate is the measurement substrate that replaces
//! that testbed: a request-level discrete-event simulation of a
//! multi-service application in which
//!
//! * every service is a FCFS multi-server station with exponential service
//!   times (matching the M/M/n modeling assumption of §III-B, and — more
//!   importantly — producing the real queueing dynamics, bottleneck
//!   shifting and SLO violations the paper measures),
//! * instances boot with a deployment-dependent **provisioning delay**
//!   ([`DeploymentProfile::docker`] seconds vs. [`DeploymentProfile::vm`]
//!   minutes), the mechanism that separates the Docker and VM scenarios,
//! * scale-downs release idle instances immediately and drain busy ones,
//! * a monitoring subsystem aggregates per-interval arrivals, utilization
//!   and response times — the inputs every auto-scaler receives (§IV-C),
//! * every request's end-to-end response time is recorded against the SLO
//!   for the user-oriented metrics (SLO violations, Apdex).
//!
//! The simulation is fully deterministic in its seed. The load balancer is
//! modeled as an ideal central queue per service (the paper's Traefik in
//! front of homogeneous instances).
//!
//! The simulator executes requests along the *topological order* of the
//! application model — exactly the paper's chain topology. General DAG
//! models are propagated analytically in `chamulteon-perfmodel`; simulating
//! forks/joins is out of scope of this reproduction.
//!
//! One engine, [`Simulation`], runs every experiment. Its modules:
//!
//! * `event` — a binary heap of timestamped, *cancellable* events
//!   with a monotonically increasing sequence number breaking equal-time
//!   ties, so the event order (and therefore every random draw) is stable
//!   in the seed alone;
//! * `station` — per-service FIFO M/M/n stations that run in one of two
//!   regimes: *discrete* (every request is an entity generating
//!   arrival/completion events) or *fluid* (an analytic M/M/n
//!   approximation);
//! * `fluid` — the piecewise-exact mean-drift integrator and the analytic
//!   sojourn sampler behind the fluid regime;
//! * [`engine`] — the event loop, the nested VM pool ([`nested`]) and the
//!   hysteretic hybrid switch ([`HybridConfig`]) that moves a station
//!   between the regimes as its offered load crosses the threshold,
//!   conserving in-flight requests bit-exactly across every transition.
//!
//! See DESIGN.md §15 for the event taxonomy, the cancellation mechanism,
//! the switch criterion and the conservation argument.
//!
//! # Example
//!
//! ```
//! use chamulteon_perfmodel::ApplicationModel;
//! use chamulteon_sim::{DeploymentProfile, Simulation, SimulationConfig, SloPolicy};
//! use chamulteon_workload::LoadTrace;
//!
//! let model = ApplicationModel::paper_benchmark();
//! let trace = LoadTrace::new(60.0, vec![30.0, 50.0, 40.0])?;
//! let config = SimulationConfig::new(DeploymentProfile::docker(), SloPolicy::default(), 42);
//! let mut sim = Simulation::new(&model, &trace, config);
//! sim.set_supply(0, 4); sim.set_supply(1, 6); sim.set_supply(2, 3);
//! let result = sim.run_to_end();
//! assert!(result.total_requests() > 0);
//! # Ok::<(), chamulteon_workload::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
mod event;
pub mod fault;
mod fluid;
pub mod nested;
mod station;
pub mod stats;

pub use config::{DeploymentProfile, HybridConfig, SimulationConfig, SloPolicy};
pub use engine::{RecoveryPolicy, Simulation};
pub use error::SimError;
pub use fault::{CorruptionMode, FaultKind, FaultPlan, FaultRecord, FaultWindow};
pub use nested::VmPoolConfig;
pub use stats::{ObservedSample, ServiceIntervalStats, SimulationResult, SupplyChange};
