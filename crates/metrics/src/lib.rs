//! Elasticity and user-oriented metrics for the Chamulteon reproduction
//! (§IV-D).
//!
//! The paper scores every auto-scaler with:
//!
//! * the SPEC-endorsed **provisioning accuracy** θ_U/θ_O and **wrong
//!   provisioning time share** τ_U/τ_O (Herbst et al., ToMPECS 2018) —
//!   [`elasticity_metrics`],
//! * its own aggregate, the **auto-scaler worst-case deviation ς**: the
//!   Euclidean distance of the worst per-service accuracy and time-share
//!   averages from the theoretically optimal auto-scaler —
//!   [`worst_case_deviation`],
//! * the **SLO violation rate** and the **Apdex** user-satisfaction score
//!   (computed by `chamulteon-sim` from per-request outcomes).
//!
//! The ground-truth demand `d_t` — "the minimal amount of resources
//! required to meet the SLOs under the load intensity at time `t`" — is
//! derived from the load trace with the same M/M/n model the optimal
//! auto-scaler would use ([`demand_curves`]).
//!
//! # Example
//!
//! ```
//! use chamulteon_metrics::{elasticity_metrics, StepFn};
//!
//! let demand = StepFn::new(vec![(0.0, 2), (50.0, 4)]);
//! let supply = StepFn::new(vec![(0.0, 4)]);
//! let m = elasticity_metrics(&demand, &supply, 100.0);
//! assert_eq!(m.theta_u, 0.0);          // never under-provisioned
//! assert!(m.theta_o > 0.0);            // over-provisioned half the time
//! assert!((m.tau_o - 50.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN"
)]
#![warn(missing_docs)]

pub mod accounting;
pub mod aggregate;
pub mod demand_curve;
pub mod elasticity;
pub mod report;
pub mod robustness;
pub mod step;

pub use accounting::{adaptation_rate_per_hour, adaptations, instance_seconds};
pub use aggregate::{worst_case_deviation, WorstCaseDeviation};
pub use demand_curve::{
    demand_curve, demand_curve_with_cache, demand_curves, demand_curves_with_cache, DEMAND_QUANTILE,
};
pub use elasticity::{elasticity_metrics, ElasticityMetrics};
pub use report::{render_table, ScalerReport};
pub use robustness::{render_robustness_table, RobustnessReport};
pub use step::StepFn;
