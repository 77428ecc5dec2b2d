//! **Chamulteon** — coordinated auto-scaling of micro-services
//! (Bauer et al., ICDCS 2019) — the paper's primary contribution.
//!
//! Chamulteon is a hybrid auto-scaler for applications composed of multiple
//! services. It redesigns the single-service Chameleon scaler around four
//! components (§III-A, Fig. 1):
//!
//! * a **performance data repository** — arrival-rate history plus a
//!   descriptive performance model (`chamulteon-perfmodel`) carrying the
//!   invocation graph,
//! * a **forecasting component** — the Telescope-style hybrid forecaster
//!   (`chamulteon-forecast`), invoked on demand: only when the previous
//!   forecast is exhausted or a MASE drift is detected,
//! * a **service demand estimation component** — the Service Demand Law
//!   estimator (`chamulteon-demand`),
//! * a **cost-awareness component (FOX)** — reviews scale-downs against the
//!   cloud charging model ([`fox`]).
//!
//! Two independent cycles make decisions ([`controller::Chamulteon`]):
//! the **reactive cycle** sizes every service from *measured* arrival
//! rates each short interval, and the **proactive cycle** sizes them from
//! *forecast* rates for a window of future intervals (Algorithm 1,
//! [`algorithm::proactive_decisions`]). Both run the same walk over the
//! invocation graph, sizing each service per [`algorithm::size_service`]
//! in topological order and propagating the entry rate so downstream
//! services scale *with* their predecessors instead of after them —
//! removing bottleneck shifting and oscillations. A traced controller runs
//! that same walk and only records each service's offered rate and
//! held/solved verdict. Conflicts between the cycles are resolved by
//! forecast recency and decision scope (§III-C): each forecast's plan
//! replaces the previous forecast's whole, and
//! [`controller::resolve_scope`] picks between the plan's row for the
//! current tick and the reactive target.
//!
//! # Example
//!
//! ```
//! use chamulteon::{Chamulteon, ChamulteonConfig};
//! use chamulteon_demand::MonitoringSample;
//! use chamulteon_perfmodel::ApplicationModel;
//!
//! let model = ApplicationModel::paper_benchmark();
//! let mut scaler = Chamulteon::new(model, ChamulteonConfig::default());
//! // One 60 s monitoring window: 1200 requests at the entry, 3 services.
//! let samples = vec![
//!     MonitoringSample::new(60.0, 1200, 0.6, 2, Some(0.08))?,
//!     MonitoringSample::new(60.0, 1200, 0.9, 2, Some(0.25))?,
//!     MonitoringSample::new(60.0, 1200, 0.4, 2, Some(0.05))?,
//! ];
//! let targets = scaler.tick(60.0, &samples);
//! assert_eq!(targets.len(), 3);
//! # Ok::<(), chamulteon_demand::DemandError>(())
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN
#![warn(missing_docs)]

/// Algorithm 1 of the paper: the queueing-theoretic decision logic.
pub mod algorithm;
/// Multi-tenant cluster arbitration with a FOX-aware warm pool.
pub mod cluster;
/// Chamulteon configuration.
pub mod config;
/// The Chamulteon controller: both cycles, wired together.
pub mod controller;
/// The graceful-degradation ladder for missing or stale inputs.
pub mod degradation;
/// FOX — the cost-awareness component (Lesch et al., ICPE 2018; §III-A3).
pub mod fox;
/// Nested auto-scaling: planning the VM pool underneath the containers.
pub mod nested;
/// Crash-recovery snapshots: versioned, byte-stable controller state.
pub mod snapshot;
/// Hybrid vertical + horizontal scaling (the paper's first future-work item).
pub mod vertical;

pub use algorithm::proactive_decisions;
pub use cluster::{
    ArbitrationPolicy, ClusterArbiter, ClusterEvent, TenantId, TenantLease, TenantProposal,
    TenantVerdict, WarmLease, CLUSTER_SNAPSHOT_VERSION,
};
pub use config::ChamulteonConfig;
pub use controller::{resolve_scope, Chamulteon};
pub use degradation::{
    DegradationEvent, DegradationLog, DegradationReason, Observation, RetryPolicy, SpikeGate,
};
pub use fox::{ChargingModel, Fox};
pub use nested::NestedPlanner;
pub use snapshot::{ControllerSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use vertical::{hybrid_decisions, HybridDecision, InstanceSize, VerticalPolicy};
