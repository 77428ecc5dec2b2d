//! Error type for demand estimation.

use std::error::Error;
use std::fmt;

/// Error returned by service demand estimation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DemandError {
    /// No monitoring samples were provided, or none carried usable signal
    /// (e.g. all windows saw zero arrivals).
    NoUsableSamples,
    /// A sample field is invalid (negative, NaN, zero where positive is
    /// required).
    InvalidSample {
        /// Name of the offending field.
        field: &'static str,
        /// The value that was passed.
        value: f64,
    },
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::NoUsableSamples => {
                write!(f, "no monitoring samples with usable signal")
            }
            DemandError::InvalidSample { field, value } => {
                write!(f, "invalid sample field `{field}`: {value}")
            }
        }
    }
}

impl Error for DemandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!DemandError::NoUsableSamples.to_string().is_empty());
        assert!(DemandError::InvalidSample {
            field: "duration",
            value: -1.0
        }
        .to_string()
        .contains("duration"));
    }
}
