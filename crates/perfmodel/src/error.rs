//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

/// Error returned when building or validating an application model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// Two services share the same name.
    DuplicateService {
        /// The duplicated name.
        name: String,
    },
    /// A call edge references a service name that does not exist.
    UnknownService {
        /// The unknown name.
        name: String,
    },
    /// The invocation graph contains a cycle, so arrival rates cannot be
    /// propagated.
    CyclicInvocation,
    /// The model has no services.
    Empty,
    /// A numeric field is out of range.
    InvalidField {
        /// Name of the offending field.
        field: &'static str,
        /// The value that was passed.
        value: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateService { name } => {
                write!(f, "duplicate service name `{name}`")
            }
            ModelError::UnknownService { name } => {
                write!(f, "unknown service name `{name}`")
            }
            ModelError::CyclicInvocation => write!(f, "invocation graph contains a cycle"),
            ModelError::Empty => write!(f, "model has no services"),
            ModelError::InvalidField { field, value } => {
                write!(f, "invalid field `{field}`: {value}")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ModelError::DuplicateService { name: "ui".into() }
            .to_string()
            .contains("ui"));
        assert!(ModelError::CyclicInvocation.to_string().contains("cycle"));
        assert!(!ModelError::Empty.to_string().is_empty());
    }
}
