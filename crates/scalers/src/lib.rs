//! The competing auto-scalers of the Chamulteon evaluation (§IV-C).
//!
//! The paper benchmarks Chamulteon against four well-cited open-source
//! single-service auto-scalers, each re-implemented here from its original
//! description:
//!
//! * [`React`] (Chieu et al. 2009) — purely reactive threshold scaling,
//! * [`Adapt`] (Ali-Eldin et al. 2012) — an adaptive controller tracking
//!   the workload's rate of change and its envelope, releasing resources
//!   reluctantly,
//! * [`Hist`] (Urgaonkar et al. 2008) — predictive provisioning from
//!   histograms of historical per-bucket arrival rates (high percentile)
//!   with reactive upward correction,
//! * [`Reg`] (Iqbal et al. 2011) — reactive scale-up plus scale-down driven
//!   by a second-order regression over the complete workload history.
//!
//! All scalers implement [`AutoScaler`] and receive the paper's exact input
//! tuple (§IV-C): the accumulated request count of the last interval, the
//! estimated service demand, and the current instance count; they return
//! the instance delta to apply.
//!
//! Because these scalers are single-service, the paper deploys one instance
//! per service and feeds downstream services the *capacity-throttled* rate
//! `r(i) = min(r(i−1), n(i−1)·s(i−1))`. [`IndependentScalers`] packages
//! that deployment, including [`chain_rates`] implementing the formula.
//!
//! # Example
//!
//! ```
//! use chamulteon_scalers::{AutoScaler, React, ScalerInput};
//!
//! let mut scaler = React::default();
//! // 60 s interval, 1200 requests (20 req/s), demand 0.1 s, 1 instance.
//! let input = ScalerInput::new(0.0, 60.0, 1200, 0.1, 1);
//! let delta = scaler.decide(&input);
//! assert!(delta > 0); // 20 req/s · 0.1 s ≫ one instance's capacity
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
mod convert;
pub mod hist;
pub mod input;
pub mod multi;
pub mod react;
pub mod reg;

pub use adapt::Adapt;
pub use hist::Hist;
pub use input::{AutoScaler, ScalerInput};
pub use multi::{chain_rates, IndependentScalers};
pub use react::React;
pub use reg::Reg;
