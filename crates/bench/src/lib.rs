//! Experiment harness regenerating every table and figure of the
//! Chamulteon paper's evaluation (§IV–§V).
//!
//! The harness wires together the workload generators, the discrete-event
//! simulator, the five auto-scalers and the metrics suite:
//!
//! * [`ExperimentSpec`] — one measurement scenario (trace, deployment
//!   profile, scaling interval, peak sizing),
//! * [`ScalerKind`] — which auto-scaler to drive (Chamulteon, the four
//!   baselines, and the ablation variants),
//! * [`run_experiment`] — the measurement loop: simulate interval by
//!   interval, hand each scaler the paper's input tuple, apply its
//!   decisions with the deployment's provisioning delays, then score the
//!   outcome with the elasticity and user metrics,
//! * [`setups`] — the four paper experiments (Tables II–V) ready to run,
//! * [`paper`] — every section of the evaluation rendered as text, which
//!   `chamulteon-exp paper` writes to `experiments/`,
//! * [`robustness`] — fault-class presets and the clean-vs-faulted
//!   comparison runner ([`run_experiment_with_faults`]) for the chaos
//!   experiments.
//!
//! DESIGN.md §4 maps each section to the paper's tables and figures.
//!
//! # Example
//!
//! ```
//! use chamulteon_bench::{run_experiment, ScalerKind};
//! use chamulteon_bench::setups::smoke_test;
//!
//! let outcome = run_experiment(&smoke_test(), ScalerKind::Chamulteon);
//! assert_eq!(outcome.report.scaler, "chamulteon");
//! ```

// The bench crate is the experiment harness (layer 5). Casts size small
// loop/display counts from bounded trace durations; `expect` is allowed
// only in the table/setup plumbing — the measurement loop itself
// (`drivers`, `experiment`, `robustness`) is decision-path
// code and kept panic-free, enforced by `xtask audit` rule R1.
#![allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN
#![warn(missing_docs)]

pub mod des_scale;
pub mod drivers;
pub mod experiment;
pub mod multi_tenant;
pub mod paper;
pub mod pool;
pub mod robustness;
pub mod setups;

pub use des_scale::{run_des_scale_case, DesScaleCase, DesScaleMeasures};
pub use drivers::ScalerKind;
pub use experiment::{
    run_experiment, run_experiment_observed, run_experiment_recovered, run_experiment_with_faults,
    ExperimentOutcome, ExperimentSpec, FaultedOutcome,
};
pub use multi_tenant::{run_multi_tenant, MultiTenantOutcome, MultiTenantSpec, TenantReport};
pub use paper::run_lineup;
pub use pool::{default_threads, parallel_map};
pub use robustness::{
    robustness_lineup, robustness_report, robustness_report_recovered, FaultClass,
};
