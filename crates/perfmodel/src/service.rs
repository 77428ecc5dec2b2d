//! Per-service static specification.

use crate::error::ModelError;

/// Static description of one micro-service in the application model.
///
/// Carries the paper's per-service constraints: the nominal service demand
/// (which the demand estimator refines at runtime), and the minimum and
/// maximum allowed instance counts that bound every scaling decision
/// (Algorithm 1, lines 10 and 14).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    name: String,
    nominal_demand: f64,
    min_instances: u32,
    max_instances: u32,
    initial_instances: u32,
}

impl ServiceSpec {
    /// Creates a validated service spec.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidField`] when the demand is not
    /// positive, `min_instances` is zero, the bounds are inverted, or the
    /// initial count lies outside the bounds.
    pub fn new(
        name: impl Into<String>,
        nominal_demand: f64,
        min_instances: u32,
        max_instances: u32,
        initial_instances: u32,
    ) -> Result<Self, ModelError> {
        if !(nominal_demand > 0.0) || !nominal_demand.is_finite() {
            return Err(ModelError::InvalidField {
                field: "nominal_demand",
                value: nominal_demand,
            });
        }
        if min_instances == 0 {
            return Err(ModelError::InvalidField {
                field: "min_instances",
                value: 0.0,
            });
        }
        if max_instances < min_instances {
            return Err(ModelError::InvalidField {
                field: "max_instances",
                value: f64::from(max_instances),
            });
        }
        if !(min_instances..=max_instances).contains(&initial_instances) {
            return Err(ModelError::InvalidField {
                field: "initial_instances",
                value: f64::from(initial_instances),
            });
        }
        Ok(ServiceSpec {
            name: name.into(),
            nominal_demand,
            min_instances,
            max_instances,
            initial_instances,
        })
    }

    /// The service name (unique within a model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nominal (design-time) service demand in seconds per request.
    pub fn nominal_demand(&self) -> f64 {
        self.nominal_demand
    }

    /// The minimum allowed instance count (≥ 1).
    pub fn min_instances(&self) -> u32 {
        self.min_instances
    }

    /// The maximum allowed instance count.
    pub fn max_instances(&self) -> u32 {
        self.max_instances
    }

    /// The instance count the service starts with.
    pub fn initial_instances(&self) -> u32 {
        self.initial_instances
    }

    /// Saturation throughput of `n` instances at the nominal demand, in
    /// requests per second.
    pub fn capacity(&self, n: u32) -> f64 {
        f64::from(n) / self.nominal_demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_spec() {
        let s = ServiceSpec::new("ui", 0.059, 1, 120, 2).unwrap();
        assert_eq!(s.name(), "ui");
        assert_eq!(s.nominal_demand(), 0.059);
        assert_eq!(s.min_instances(), 1);
        assert_eq!(s.max_instances(), 120);
        assert_eq!(s.initial_instances(), 2);
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(ServiceSpec::new("s", 0.0, 1, 10, 1).is_err());
        assert!(ServiceSpec::new("s", -0.1, 1, 10, 1).is_err());
        assert!(ServiceSpec::new("s", f64::NAN, 1, 10, 1).is_err());
        assert!(ServiceSpec::new("s", 0.1, 0, 10, 1).is_err());
        assert!(ServiceSpec::new("s", 0.1, 5, 4, 5).is_err());
        assert!(ServiceSpec::new("s", 0.1, 2, 10, 1).is_err());
        assert!(ServiceSpec::new("s", 0.1, 2, 10, 11).is_err());
    }

    #[test]
    fn capacity_scales_linearly() {
        let s = ServiceSpec::new("s", 0.1, 1, 100, 1).unwrap();
        assert!((s.capacity(1) - 10.0).abs() < 1e-12);
        assert!((s.capacity(10) - 100.0).abs() < 1e-12);
    }
}
