//! Error type for the simulator.

use std::error::Error;
use std::fmt;

/// Error returned by simulator configuration and control operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A service index is out of range.
    UnknownService {
        /// The index that was passed.
        index: usize,
        /// The number of services in the simulation.
        count: usize,
    },
    /// A configuration value is out of range.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// The value that was passed.
        value: f64,
    },
    /// An injected fault made a scaling command fail transiently; the
    /// caller may retry.
    ActuationFailed {
        /// The service whose actuation failed (`service_count` denotes
        /// the VM pool).
        service: usize,
    },
    /// `run_until` was asked to run to a target time earlier than the
    /// current simulation time (or NaN) — simulated time is monotonic.
    TimeReversed {
        /// The requested target time.
        target: f64,
        /// The current simulation time.
        now: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownService { index, count } => {
                write!(f, "unknown service index {index} (have {count})")
            }
            SimError::InvalidConfig { field, value } => {
                write!(f, "invalid configuration `{field}`: {value}")
            }
            SimError::ActuationFailed { service } => {
                write!(f, "transient actuation failure on service {service}")
            }
            SimError::TimeReversed { target, now } => {
                write!(
                    f,
                    "cannot run the simulation backwards: target {target} s is before now {now} s"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::UnknownService { index: 5, count: 3 }
            .to_string()
            .contains('5'));
        assert!(SimError::InvalidConfig {
            field: "slo",
            value: -1.0
        }
        .to_string()
        .contains("slo"));
    }

    #[test]
    fn actuation_failed_display_names_the_service() {
        let msg = SimError::ActuationFailed { service: 2 }.to_string();
        assert!(msg.contains("actuation failure"), "{msg}");
        assert!(msg.contains('2'), "{msg}");
    }

    #[test]
    fn time_reversed_display_names_both_times() {
        let msg = SimError::TimeReversed {
            target: 10.0,
            now: 50.0,
        }
        .to_string();
        assert!(msg.contains("backwards"), "{msg}");
        assert!(msg.contains("10"), "{msg}");
        assert!(msg.contains("50"), "{msg}");
    }
}
