//! Time-series analysis and forecasting for the Chamulteon reproduction.
//!
//! Chamulteon's proactive cycle forecasts the request arrival rate at the
//! user-facing service with **Telescope** (Züfle et al., ITISE 2017), a
//! hybrid decomposition-based method designed for auto-scaling use cases.
//! This crate implements:
//!
//! * [`TimeSeries`] — an equidistant series with a sampling step,
//! * [`stats`] — descriptive statistics, autocorrelation, periodogram and
//!   least-squares helpers,
//! * [`season`] — dominant-frequency detection (periodogram peak confirmed
//!   by the autocorrelation function),
//! * [`decompose`] — additive season/trend/remainder decomposition,
//! * [`methods`] — classical baseline forecasters (naive, seasonal naive,
//!   drift, mean, simple/Holt/Holt-Winters exponential smoothing, AR(p)),
//! * [`telescope`] — the hybrid method used by Chamulteon,
//! * [`accuracy`] — forecast accuracy measures (MASE, MAE),
//! * [`drift`] — the MASE-based forecast drift detector (§III-A1) that
//!   decides when a fresh forecast is needed.
//!
//! # Example
//!
//! ```
//! use chamulteon_forecast::{Forecaster, TelescopeForecaster, TimeSeries};
//!
//! // Two days of hourly observations with a daily pattern.
//! let values: Vec<f64> = (0..48)
//!     .map(|h| 100.0 + 40.0 * (h as f64 * std::f64::consts::TAU / 24.0).sin())
//!     .collect();
//! let history = TimeSeries::from_values(3600.0, values)?;
//! let forecast = TelescopeForecaster::default().forecast(&history, 6)?;
//! assert_eq!(forecast.values().len(), 6);
//! # Ok::<(), chamulteon_forecast::ForecastError>(())
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately rejects NaN
#![warn(missing_docs)]

pub mod accuracy;
pub mod decompose;
pub mod drift;
pub mod error;
pub mod methods;
pub mod season;
pub mod series;
pub mod stats;
pub mod telescope;

pub use accuracy::{mae, mase};
pub use decompose::{decompose_additive, Decomposition};
pub use drift::DriftDetector;
pub use error::ForecastError;
pub use methods::{
    ArForecaster, DriftForecaster, Forecast, Forecaster, HoltForecaster, HoltWintersForecaster,
    MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster, SesForecaster, ThetaForecaster,
};
pub use season::detect_season_length;
pub use series::TimeSeries;
pub use telescope::TelescopeForecaster;
