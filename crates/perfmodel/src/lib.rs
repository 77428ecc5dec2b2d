//! Descriptive software performance model for the Chamulteon reproduction.
//!
//! Chamulteon keeps "an instance of a descriptive performance model of the
//! dynamically scaled application based on the Descartes Modeling Language
//! (DML)" (§III-A). The model carries exactly the structural knowledge the
//! controller needs:
//!
//! * the **services** with their instance bounds ([`ServiceSpec`]),
//! * the **invocation graph** — which service calls which, how many times
//!   per request ([`InvocationGraph`]), validated and sorted once into the
//!   canonical topological order that Algorithm 1's arrival-rate walk
//!   (`estimateArrivals`, in `chamulteon::algorithm`) and the simulator's
//!   request path follow,
//! * the **entry (user-facing) service** whose arrival rate is the only one
//!   monitored and forecast, with the visit ratios from it cached.
//!
//! Models are plain data, built with [`ApplicationModelBuilder`], by
//! [`ApplicationModel::new`] or by the synthetic [`topology`] families —
//! the stand-in for the paper's externally provided DML instance.
//!
//! # Example
//!
//! The paper's three-service benchmark application:
//!
//! ```
//! use chamulteon_perfmodel::ApplicationModel;
//!
//! let model = ApplicationModel::paper_benchmark();
//! assert_eq!(model.services().len(), 3);
//! assert_eq!(model.entry(), 0);
//! // A chain: every request visits every service once.
//! assert_eq!(model.visit_ratios(), vec![1.0, 1.0, 1.0]);
//! ```

#![forbid(unsafe_code)]
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x > 0.0)` deliberately rejects NaN"
)]
#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod graph;
pub mod model;
pub mod service;
pub mod topology;

pub use builder::ApplicationModelBuilder;
pub use error::ModelError;
pub use graph::InvocationGraph;
pub use model::ApplicationModel;
pub use service::ServiceSpec;
pub use topology::TopologyFamily;
