//! Service demand estimation for the Chamulteon reproduction.
//!
//! Chamulteon (§III-A2) estimates the *service demand* of every service —
//! "the average time required from each service for processing a request,
//! excluding any waiting times" — from monitoring data. The paper uses the
//! estimator based on the **Service Demand Law** from the LibReDE library
//! (Spinner et al., ICPE 2014) to minimize estimation overhead, and so does
//! this crate:
//!
//! * [`MonitoringSample`] — one monitoring window worth of per-service
//!   observations (arrivals, completions, utilization, instance count,
//!   response time),
//! * [`service_demand_law`] — the paper's estimator, `D = U·n/X` over a
//!   set of windows,
//! * [`RollingDemandEstimator`] — a windowed, smoothed wrapper that the
//!   controller consumes.
//!
//! # Example
//!
//! ```
//! use chamulteon_demand::{service_demand_law, MonitoringSample};
//!
//! // One 60 s window: 600 requests, 5 instances at 20% utilization.
//! let sample = MonitoringSample::new(60.0, 600, 0.2, 5, Some(0.11))?;
//! let demand = service_demand_law(&[sample])?;
//! assert!((demand - 0.1).abs() < 1e-9); // U·n/λ = 0.2·5/10
//! # Ok::<(), chamulteon_demand::DemandError>(())
//! ```

#![forbid(unsafe_code)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN"
)]
#![warn(missing_docs)]

pub mod error;
pub mod rolling;
pub mod sample;

pub use error::DemandError;
pub use rolling::{service_demand_law, RollingDemandEstimator};
pub use sample::MonitoringSample;
