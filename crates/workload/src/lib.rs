//! Workload traces and load-intensity generation for the Chamulteon
//! reproduction.
//!
//! The paper drives its experiments with two real traces — HTTP requests to
//! BibSonomy (April 2017) and page requests to the German Wikipedia
//! (December 2013) — picking one day and compressing it to a 1 h or 6 h
//! experiment (§IV-B). Those traces are not redistributable, so this crate
//! provides:
//!
//! * [`LoadTrace`] — a piecewise-constant load-intensity profile with the
//!   paper's transformations (time compression, peak rescaling) and CSV
//!   import so the real traces can be dropped in when available
//!   (`chamulteon-exp --trace FILE`),
//! * [`generators`] — seeded synthetic generators reproducing the
//!   documented shape of each trace ([`wikipedia_like`] — smooth, strongly
//!   diurnal; [`bibsonomy_like`] — burstier with flash crowds),
//! * [`PoissonArrivals`] — realization of a trace as a non-homogeneous
//!   Poisson arrival process, the load-generator stand-in.
//!
//! # Example
//!
//! ```
//! use chamulteon_workload::{generators, PoissonArrivals};
//!
//! // One synthetic "day", 60 s resolution, compressed to one hour.
//! let day = generators::wikipedia_like(42, 60.0, 86_400.0);
//! let hour = day.compress_to(3_600.0);
//! let trace = hour.scale_to_peak(500.0);
//! let arrivals: Vec<f64> = PoissonArrivals::new(&trace, 7).collect();
//! assert!(!arrivals.is_empty());
//! ```
//!
//! [`wikipedia_like`]: generators::wikipedia_like
//! [`bibsonomy_like`]: generators::bibsonomy_like

#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN
#![warn(missing_docs)]

pub mod arrivals;
mod convert;
pub mod error;
pub mod generators;
pub mod trace;

pub use arrivals::PoissonArrivals;
pub use error::WorkloadError;
pub use trace::LoadTrace;
