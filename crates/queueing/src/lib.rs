//! Queueing-theory primitives for the Chamulteon reproduction.
//!
//! Chamulteon (ICDCS 2019, §III-B) sizes every micro-service by transforming
//! the descriptive performance model into a product-form queueing network in
//! which each service is an M/M/n/∞ station. This crate provides the pieces
//! of that transformation:
//!
//! * [`erlang`] — numerically stable Erlang-B and Erlang-C formulas,
//! * [`mmn`] — the [`MmnQueue`] station model (utilization,
//!   waiting probability, expected response time, queue lengths),
//! * [`capacity`] — inverse solvers ("how many instances do I need?") used
//!   both by the auto-scalers and by the ground-truth demand curve of the
//!   elasticity metrics.
//!
//! # Example
//!
//! Size the paper's validation service (service demand 0.1 s) for a predicted
//! arrival rate of 85 req/s and a target utilization of 0.8:
//!
//! ```
//! use chamulteon_queueing::capacity::min_instances_for_utilization;
//!
//! let n = min_instances_for_utilization(85.0, 0.1, 0.8);
//! assert_eq!(n, 11); // ceil(85 * 0.1 / 0.8)
//! ```

#![forbid(unsafe_code)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN"
)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::as_conversions, unreachable_pub))]

/// Quantized-key memoization for the demand curve's capacity solver.
pub mod cache;
/// Inverse capacity solvers: instances needed for a load and an SLO.
pub mod capacity;
/// Erlang-B and Erlang-C formulas.
pub mod erlang;
/// Error types for queueing computations.
pub mod error;
/// The M/M/n/∞ station model used for every micro-service.
pub mod mmn;

pub use cache::{CacheStats, CapacityCache};
pub use capacity::{
    min_instances_for_response_time, min_instances_for_response_time_quantile,
    min_instances_for_utilization,
};
pub use erlang::{erlang_b, erlang_c, ErlangSweep};
pub use error::QueueingError;
pub use mmn::MmnQueue;
